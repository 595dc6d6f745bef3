"""Exact root counts of the Region-1 fixed-point cubic, for testing.

g(n) = -n + n2 + a (1 - n/n3) (b0 + b1 n)^2 is expanded in
``fractions.Fraction`` from the float inputs, which are exact binary
fractions, so no rounding enters.  Sturm's theorem then counts the distinct
real roots in a half-open interval (lo, hi] as V(lo) - V(hi), where V(x) is
the number of sign changes of the Sturm sequence at x.

``eigvals_roots`` is the former floating-point root stage (companion-matrix
eigenvalues), the oracle of the closed form at ordinary scales.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

Poly = list  # coefficients, constant term first


def cubic(n2: float, n3: float, a: float, b0: float, b1: float) -> Poly:
    """The exact coefficients [c0, c1, c2, c3] of g, trailing zeros dropped."""
    n2, n3, a, b0, b1 = (Fraction(v) for v in (n2, n3, a, b0, b1))
    return _trim([n2 + a * b0 * b0, a * (2 * b0 * b1 - b0 * b0 / n3) - 1,
                  a * (b1 * b1 - 2 * b0 * b1 / n3), -a * b1 * b1 / n3])


def _trim(p: Poly) -> Poly:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _remainder(num: Poly, den: Poly) -> Poly:
    num = list(num)
    while len(num) >= len(den) and any(num):
        q, shift = num[-1] / den[-1], len(num) - len(den)
        for i, d in enumerate(den):
            num[shift + i] -= q * d
        num = _trim(num[:-1]) if len(num) > 1 else num
    return num


def evaluate(p: Poly, x: Fraction) -> Fraction:
    value = Fraction(0)
    for coef in reversed(p):
        value = value * x + coef
    return value


def derivative(p: Poly) -> Poly:
    return _trim([i * coef for i, coef in enumerate(p)][1:] or [Fraction(0)])


def sturm(p: Poly) -> list[Poly]:
    """The Sturm sequence p, p', -rem(p, p'), ...; its last entry is a constant
    unless p has a repeated root."""
    seq = [p, derivative(p)]
    while len(seq[-1]) > 1:
        rem = _remainder(seq[-2], seq[-1])
        if not any(rem):
            break
        seq.append([-coef for coef in rem])
    return seq


def count(seq: list[Poly], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi]."""
    def changes(x):
        signs = [v > 0 for v in (evaluate(p, x) for p in seq) if v != 0]
        return sum(u != v for u, v in zip(signs, signs[1:]))
    return changes(lo) - changes(hi)


def isolated(seq: list[Poly], lo: Fraction, hi: Fraction, margin: Fraction) -> bool:
    """True when no two roots in (lo, hi] lie within ``margin`` of each other
    (bisection on Sturm counts down to that width)."""
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        if count(seq, a, b) <= 1:
            continue
        if b - a < margin:
            return False
        mid = (a + b) / 2
        stack += [(a, mid), (mid, b)]
    return True


def eigvals_roots(n2, n3, a, b0, b1):
    """The former Region-1 root stage, kept as the floating-point oracle: the
    roots of g are the reciprocals of the eigenvalues of the companion matrix
    of the reversed cubic c0 m^3 + c1 m^2 + c2 m + c3, each given one Newton
    step on g; a real root within tau of [0, 1] before and after the step is
    kept and clipped.  Same arguments and (3,) + batch output as
    ``fbmecon.equilibrium._fixed_point_roots``.
    """
    with np.errstate(all="ignore"):
        t = 2.0 * b0 * b1
        c0 = n2 + a * b0 * b0
        comp = np.zeros(np.shape(c0) + (3, 3))
        comp[..., 1, 0] = comp[..., 2, 1] = 1.0
        # -c1/c0, -c2/c0, -c3/c0: dividing by -c0 rounds alike, as rounding is odd
        row = np.array([a * (t - b0 * b0 / n3) - 1.0, a * (b1 * b1 - t / n3),
                        -a * b1 * b1 / n3]) / -c0
        comp[..., 0, :] = row.T
        finite = np.isfinite(row)
        if np.count_nonzero(finite) < finite.size:
            comp[~finite.all(axis=0)] = 0.0
        m = np.linalg.eigvals(comp).T
        n = 1.0 / m.real
        B = b0 + b1 * n
        u = 1.0 - n / n3
        n1 = n - (n2 - n + a * u * B * B) / (a * (2.0 * b1 * u * B - B * B / n3) - 1.0)
        tau = 2.0 ** -40
        keep = (m.imag == 0.0) & (np.minimum(n, n1) >= -tau) & (np.maximum(n, n1) <= 1.0 + tau)
        return np.sort(np.where(keep, n1, np.nan).clip(0.0, 1.0), axis=0)
