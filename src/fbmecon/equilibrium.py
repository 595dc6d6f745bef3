"""General-equilibrium asset-price dynamics with investor protection.

Given the sufficient statistics of one instant (consumption share y of the
minority shareholder and memory levels Lambda, lambda), the solver computes
interest rate, stock return and volatility, Sharpe ratio, consumption-share
dynamics, holdings and the diverted-output fraction, together with region
selection and existence detection.

The controlling shareholder's objective, after optimizing consumption and
diversion, is piecewise quadratic in the stock holding n_C with four
candidate optimizers:

    Region 1: interior optimum of the constraint-binding branch
              (x = (1 - p) n_C), a fixed point whose defining function is a
              cubic in n_C, solved in closed form (Cardano/Viete);
    Region 2: interior optimum of the cost-tempered branch (x = (1 - n_C)/k),
              in closed form;
    Region 3: the kink n_C = 1 / (1 + (1 - p) k);
    Region 4: full ownership n_C = 1.

A region is self-consistent when its own candidate maximizes the objective
evaluated under that region's prices; if no region passes, the equilibrium
does not exist and the four objective tables are returned as diagnostics.

The Region-4 candidate competes in every test but is never self-consistent in
exact arithmetic: under its prices kappa = x = 0 and S/W_C D/S = D/W_C, so
J(n3; 4) - J(1; 4) = x3 (1 - n3) D/W_C / 2 + K (1 - n3^2) > 0 for p < 1, with
K = H eps^(2h) delta_C (S/W_C sigma_4)^2; at p = 1, n3 = 1 and Region 3 wins
the identical test.  So y = 0, like y = 1, is an explicit limit of one branch.

Every state is priced by one vectorised code path, :func:`_solve`, whose
formulas are elementwise over the states, protection level p included: a
sweep is one batch, and a single state is a 0-d batch.  The Region-1 cubic
is solved per state in closed form (:func:`_fixed_point_roots`).
The preference adjustment is the exponential ratio varphi = exp(beta Lambda)
set by ``ModelParams.beta1``/``beta2``.  A state whose exponential overflows
or whose formulas produce a non-finite value gets its own error; the other
states of the batch still price.

Everything is scale-free in the output level: prices enter only through the
ratios D/S, D/W_C, S/W_C.  Bond positions need the time integral of the rate
along a path and are therefore not part of the single-state result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .params import DerivedParams, ModelParams, derive_constants, validate
from .paths import _kernel

__all__ = ["MarketState", "EquilibriumResult", "Prices", "PartialPolicies", "SweepRow",
           "EquilibriumError", "x_star", "equilibrium", "equilibrium_batch",
           "benchmark_equilibrium", "boundary_equilibrium", "benchmark_differences",
           "partial_policies", "sweep"]

#: Region codes of a batch beyond the interior regions 1-4.
_NONEXISTENT, _BOUNDARY = 0, 5


class EquilibriumError(RuntimeError):
    """A formula produced a non-finite value or an internal guarantee failed."""


@dataclass(frozen=True)
class MarketState:
    """Sufficient statistics at one instant: consumption share and memory."""

    y: float
    Lambda: float = 0.0
    lambda_small: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.y <= 1.0:
            raise ValueError(f"consumption share y must lie in [0, 1], got {self.y!r}")
        if not (math.isfinite(self.Lambda) and math.isfinite(self.lambda_small)):
            raise ValueError("memory levels must be finite")


def x_star(n_C, k: float, p: float):
    """Optimal diverted fraction min{(1 - n_C)/k, (1 - p) n_C}, elementwise."""
    return np.minimum((1.0 - n_C) / k, (1.0 - p) * n_C)


# ---------------------------------------------------------------------------
# Per-batch context


def _any(mask) -> bool:
    """Whether some entry holds: a count of an array, bool() of a numpy or Python scalar."""
    return bool(np.count_nonzero(mask)) if isinstance(mask, np.ndarray) else bool(mask)


class _Failures:
    """The first error of each state of a batch; None while the state prices."""

    def __init__(self, y, Lam):
        self.y, self.Lam = y, Lam  # as given; raveled only for a message
        self.err: list[Exception | None] = [None] * y.size
        self.failed = np.zeros(len(self.err), dtype=bool)  # flat, like err
        self.some = False  # whether any state has failed

    def flag(self, mask, text, kind=EquilibriumError) -> None:
        """Record ``kind(text(i))`` (or ``kind(text)``) for each masked state
        that has not failed yet."""
        for i in np.flatnonzero(mask & ~self.failed).tolist():
            self.err[i] = kind(text(i) if callable(text) else text)
            self.some = True
        self.failed |= mask

    def at(self, i: int) -> str:
        return f"y={np.ravel(self.y)[i]:g}, Lambda={np.ravel(self.Lam)[i]:g}"


class _Ctx:
    """One batch: its parameter constants and one array entry per state, in
    one dict from :func:`_context` (a plain class: a dataclass __init__ costs more)."""

    P: ModelParams
    d: DerivedParams
    vol: float  # sqrt(2H) eps^h, the w^H kernel at lag zero
    lam0: float  # sqrt(2H) h eps^(h-1), the Lambda kernel at lag zero
    e2h: float  # eps^(2h)
    net_l: float  # 1 - l_C - l_M
    r1: float  # varphi'/varphi = beta
    a_C: float  # 2H h eps^(2h-1) theta_C r1
    a_M: float
    p: np.ndarray  # the protection level
    n3: np.ndarray  # the kink holding 1 / (1 + (1 - p) k)
    y: np.ndarray
    Lam: np.ndarray
    lam: np.ndarray
    varphi: np.ndarray  # the adjustment exp(beta Lambda)
    qC: np.ndarray  # consumption/wealth ratio of C: rho^(1/delta_C) varphi^theta_C
    qM: np.ndarray
    C: np.ndarray  # (1-y)/qC + y/qM, the wealth aggregator
    A: np.ndarray  # sigma_D - (h/eps) r1 (theta_C (1-y) + theta_M y)
    D_S: np.ndarray
    D_WC: np.ndarray
    S_WC: np.ndarray
    cons_M: np.ndarray  # qM - theta_M lam r1 - H h^2 eps^(2h-2) theta_M ((theta_M-1) r1^2 + r1^2)
    r0: np.ndarray  # the part of the interest rate free of holdings and diversion
    w_C: np.ndarray  # (1-y) + y qC/qM
    w_M: np.ndarray  # y + (1-y) qM/qC

    def __init__(self, fields: dict):
        self.__dict__ = fields


@lru_cache(maxsize=64)
def _param_constants(P: ModelParams) -> dict:
    """The scalar fields of a _Ctx (none depends on p), plus rho_C = rho^(1/delta_C),
    rho_M and the lambda-free consumption terms hh_C = H h^2 eps^(2h-2) theta_C
    ((theta_C-1) r1^2 + r1^2) and hh_M, in one record derived once per parameter set
    (equal sets share one entry; an invalid set raises on every call: no exception is cached)."""
    validate(P)
    d = derive_constants(P)
    eps, r1 = P.epsilon, d.beta
    (p0, h0), (p1, h1) = _kernel(P, 0), _kernel(P, 1)
    a1 = 2.0 * P.H * d.h * eps ** (2.0 * d.h - 1.0) * r1
    hh = P.H * d.h * d.h * eps ** (2.0 * d.h - 2.0)
    return dict(d=d, vol=float(p0 * eps**h0), lam0=float(p1 * eps**h1), e2h=eps ** (2.0 * d.h),
                net_l=1.0 - P.l_C - P.l_M, r1=r1, a_C=d.theta_C * a1, a_M=d.theta_M * a1,
                rho_C=P.rho ** (1.0 / d.delta_C), rho_M=P.rho ** (1.0 / d.delta_M),
                hh_C=hh * d.theta_C * ((d.theta_C - 1.0) * r1 * r1 + r1 * r1),
                hh_M=hh * d.theta_M * ((d.theta_M - 1.0) * r1 * r1 + r1 * r1))


def _constants(P: ModelParams) -> dict:
    """:func:`_param_constants` of ``P``; a ValueError if ``P`` is invalid."""
    try:
        return _param_constants(P)
    except TypeError:  # an unhashable field, which validate rejects
        validate(P)
        raise


def _level_error(params: ModelParams, level: float) -> str:
    """The message with which :func:`validate` rejects ``params`` at the invalid level ``level``."""
    try:
        validate(replace(params, p=level))
    except ValueError as exc:
        return str(exc)


def _context(params: ModelParams, y, Lam, lam, p) -> tuple[_Ctx, _Failures]:
    """Context of a batch of states at their protection levels ``p``, or of
    one state (0-d), plus its failure record.

    The parameters are validated and their constants derived once per
    parameter set (:func:`_param_constants`).  A state outside its domain
    (p or y outside [0, 1], non-finite memory) fails with a ValueError, at an
    invalid p with :func:`validate`'s message at that level; non-finite
    state quantities fail with an EquilibriumError.

    Raises:
        ValueError: if the parameters are invalid.
    """
    const = _constants(params)  # invalid parameters raise before any state is read
    y, Lam, lam, p = (np.asarray(v, dtype=float)[()] for v in (y, Lam, lam, p))  # 0-d: numpy scalars
    fail = _Failures(y, Lam)
    P, d, r1 = params, const["d"], const["r1"]
    inside, level = (y >= 0.0) & (y <= 1.0), (p >= 0.0) & (p <= 1.0)
    if _any(~(inside & level & np.isfinite(Lam + lam))):
        fail.flag(~level, lambda i: _level_error(params, float(np.ravel(p)[i])), ValueError)
        fail.flag(~inside, lambda i: f"consumption share y must lie in [0, 1], got {float(np.ravel(y)[i])!r}",
                  ValueError)
        fail.flag(~(np.isfinite(Lam) & np.isfinite(lam)), "memory levels must be finite", ValueError)
    varphi = np.exp(d.beta * Lam)
    if _any(varphi == np.inf):  # a finite level fails alone, with the message of math.exp's overflow
        fail.flag(np.isfinite(Lam) & (varphi == np.inf),
                  lambda i: f"adjustment functions failed at Lambda={np.ravel(Lam)[i]:g}: math range error")
    # np.power(varphi, theta): exp(theta beta Lambda), or ** on a numpy scalar (libm pow), rounds
    # otherwise; a varphi that underflows to 0 (Lambda = -1e4) fails here
    qC = const["rho_C"] * np.power(varphi, d.theta_C)
    qM = const["rho_M"] * np.power(varphi, d.theta_M)
    y1 = 1.0 - y
    C = y1 / qC + y / qM
    A = P.sigma_D - (d.h / P.epsilon) * r1 * (d.theta_C * y1 + d.theta_M * y)
    if _any(~np.isfinite(qC + qM + C + A)):  # finite only if every term is
        finite = np.isfinite([qC, qM, C, A]).reshape(4, -1)
        labels = ("consumption-wealth ratio of C", "consumption-wealth ratio of M",
                  "wealth aggregator", "volatility numerator")
        fail.flag(~finite.all(axis=0),
                  lambda i: f"non-finite {labels[int(np.argmin(finite[:, i]))]} at {fail.at(i)}")
    cons_C = qC - d.theta_C * lam * r1 - const["hh_C"]
    cons_M = qM - d.theta_M * lam * r1 - const["hh_M"]
    net_l = const["net_l"]
    c = _Ctx(dict(
        const, P=P, p=p, n3=1.0 / (1.0 + (1.0 - p) * P.k), y=y, Lam=Lam, lam=lam, varphi=varphi,
        qC=qC, qM=qM, C=C, A=A,
        D_S=net_l / C,
        D_WC=net_l * qC / y1,
        S_WC=C * qC / y1,
        cons_M=cons_M,
        r0=(P.mu_D + P.sigma_D * Lam - P.l_C * qC - P.l_M * qM + y1 * cons_C + y * cons_M),
        w_C=y1 + y * (qC / qM),
        w_M=y + y1 * (qM / qC),
    ))
    return c, fail


def _state_context(params: ModelParams, state: MarketState) -> _Ctx:
    """Context of one state at ``params.p``; the state's first error is raised,
    as :func:`equilibrium` raises it."""
    c, fail = _context(params, state.y, state.Lambda, state.lambda_small, params.p)
    if fail.some:
        raise fail.err[0]
    return c


# ---------------------------------------------------------------------------
# The formula set: elementwise over states, broadcasting over a leading candidate
# axis (holdings (k, S) against per-state arrays (S,), or (k,) against scalars)


def _rate(c: _Ctx, n_C, x, kappa, sigma):
    vk = c.vol * kappa
    cost = 0.5 * c.P.k * x * x
    return (
        c.r0
        - sigma * (n_C * (vk + c.a_C) * c.w_C + (1.0 - n_C) * (vk + c.a_M) * c.w_M)
        - c.net_l * ((x - cost) * c.qC + cost * c.qM)
    )


def _mu(c: _Ctx, r, sigma, kappa, x):
    return r - sigma * c.Lam + c.vol * kappa * sigma - (1.0 - x) * c.D_S


def _sigma_y(c: _Ctx, kappa):
    P, d = c.P, c.d
    return c.y * (kappa / (c.vol * d.delta_M) + d.theta_M * (d.h / P.epsilon) * c.r1 - P.sigma_D)


def _mu_y(c: _Ctx, x, kappa, r, sigma_y):
    P, d = c.P, c.d
    k1 = c.lam0 * d.theta_M
    bracket = r - P.mu_D - P.sigma_D * c.Lam + kappa * (kappa + k1 * c.r1) / d.delta_M - c.cons_M
    return (
        -sigma_y * (c.Lam + 2.0 * P.H * c.e2h * P.sigma_D)
        + P.l_M * c.qM
        + 0.5 * P.k * x * x * c.net_l * c.qM
        + c.y * bracket
    )


def _J(c: _Ctx, n, x, r, mu, sigma):
    """Controlling shareholder's objective at holding n and diversion x."""
    P = c.P
    return (
        n * c.S_WC * (mu - r + (1.0 - x) * c.D_S + sigma * c.Lam)
        + x * c.D_WC
        - 0.5 * P.k * x * x * c.D_WC
        - P.H * c.e2h * c.d.delta_C * (c.S_WC * sigma) ** 2 * n * n
    )


def _prices(c: _Ctx, n_C):
    """(x, sigma, kappa, r, mu) under the prices generated by holding n_C."""
    x = x_star(n_C, c.P.k, c.p)
    m = 1.0 - n_C
    B = n_C * c.qC + m * c.qM
    sigma = c.A / (B * c.C)
    kappa = c.vol * c.d.delta_M * c.qM * m * c.A / (c.y * B)
    r = _rate(c, n_C, x, kappa, sigma)
    return x, sigma, kappa, r, _mu(c, r, sigma, kappa, x)


def _n2(c: _Ctx):
    """Closed-form Region-2 holding (the full-protection benchmark holding)."""
    aC = (1.0 - c.y) / (c.d.delta_C * c.qC)
    aM = c.y / (c.d.delta_M * c.qM)
    return aC / (aC + aM)


# ---------------------------------------------------------------------------
# Candidate holdings


#: The powers of the scale 2^e by which A, B and C are divided.
_POWERS = np.array([1, 2, 3])


def _libm(fn, x, where):
    """fn (a function of Python's math) of x where ``where`` holds, NaN elsewhere;
    x is a numpy scalar or a 1-d array.  libm rounds alike under every numpy
    build and CPU, where numpy's own arccos and cbrt loops differ in the last
    bit between SIMD dispatch targets."""
    if x.ndim == 0:
        return np.float64(fn(float(x)) if where else math.nan)
    out = np.full(x.shape, np.nan)
    out[where] = [fn(v) for v in x[where].tolist()]
    return out


def _acos(v):
    # max and min keep a NaN v (every comparison with it is false)
    return math.acos(min(max(v, -1.0), 1.0))


def _cbrt(v):  # of v >= 0; math.cbrt needs Python 3.11
    return v ** (1.0 / 3.0)


@np.errstate(all="ignore")
def _fixed_point_roots(n2, n3, a, b0, b1) -> np.ndarray:
    """Every root in [0, 1] of g(n) = -n + n2 + a (1 - n/n3) (b0 + b1 n)^2.

    g is the cubic c3 n^3 + c2 n^2 + c1 n + c0 with c3 = -a b1^2/n3,
    c2 = a (b1^2 - 2 b0 b1/n3), c1 = a (2 b0 b1 - b0^2/n3) - 1 and
    c0 = n2 + a b0^2 = g(0) > 0.  Its roots are n = 1/m for the roots m of
    the reversed monic cubic m^3 + A m^2 + B m + C, (A, B, C) = (c1, c2, c3)/c0,
    whose leading coefficient does not vanish when g degenerates (a = 0 at
    full protection, b1 = 0 for equal consumption ratios), so no degree needs
    a case of its own.  The products take a first (a b1, then b1), since
    b1^2 alone overflows where a b1^2 is near 1e62.  The roots m come in
    closed form, in three steps:

    * Scaling.  m = 2^e mu, with 2^e about max(1, |A|, |B|^(1/2), |C|^(1/3))
      from the binary exponents of c0 to c3, so the cubic in mu has
      coefficients below 1 and its squares and cubes neither overflow nor
      underflow at extreme memory levels, even where c_k/c0 itself would
      overflow; a power of two scales exactly, so the scaling rounds nothing.
    * One root without cancellation.  With three real roots (trigonometric
      form) only the extreme root whose shift -A/3 has the sign of its
      cosine term is taken from the cosine: the other two are differences of
      large terms there, which lose the digits of a small root.  With one
      real root (Cardano's form, the cube root taken where its two terms
      add), the real root is taken directly when it is the largest in
      magnitude, and otherwise as -C / |pair|^2 from the complex pair.
    * Vieta.  With three real roots the other two solve the quadratic of sum
      -A - m1 and product -C/m1, by the stable quadratic formula.

    The arccos, cosine and cube root of each state come from Python's math
    module (libm): numpy's arccos and cbrt loops round differently under
    different SIMD dispatch targets, and a root's last bit can decide a
    state's region at a tie.

    Every root then gets one Newton step on g in its factored form (at
    a = 0 it returns n2 exactly).  A real root is kept when it lies within
    tau = 2^-40 of [0, 1] both before and after the step and g vanishes at
    the stepped root to 64 ulps of its terms; it is clipped to [0, 1].  The
    residual test drops the near-double pair that the rounded coefficients
    make real where the exact g has a complex pair (at n = -b0/b1 when
    a b0^2 is huge); a simple root lands within a few ulps, far inside both
    tests.

    Arguments broadcast to the batch shape, (S,) or (); returns (3,) plus
    that shape: each state's roots in ascending order, padded with NaN.  A
    state with non-finite coefficients has no roots.
    """
    ab0, ab1 = a * b0, a * b1
    c = np.array([n2 + ab0 * b0, ab0 * (2.0 * b1 - b0 / n3) - 1.0, ab1 * (b1 - 2.0 * b0 / n3),
                  -ab1 * b1 / n3]).T  # c0, c1, c2, c3 on the last axis
    mant, x = np.frexp(c)
    x0 = x[..., :1]
    # the least e >= 0 with |A| < 2^e, |B| < 2^(2e) and |C| < 2^(3e), where a zero c_k
    # counts as 1 (frexp gives it the exponent 0); then c_k 2^-(k e + x0) / mant(c0)
    # divides c_k by c0 with one rounding and no overflow
    e = ((x[..., 1:] - x0 + _POWERS) // _POWERS).max(axis=-1, initial=0)
    al, be, ga = (np.ldexp(c[..., 1:], -_POWERS * e[..., None] - x0) / mant[..., :1]).T
    # mu = s - al/3 gives s^3 - 3 Q s - 2 R = 0; three real roots where R^2 < Q^3
    Q = (al * al - 3.0 * be) / 9.0
    R = (al * (2.0 * al * al - 9.0 * be) + 27.0 * ga) / 54.0
    D = R * R - Q * Q * Q  # finite exactly where al, be and ga are
    three = D < 0.0
    shift, sQ, sign = al / 3.0, np.sqrt(Q), np.copysign(1.0, al)
    # three real roots: the extreme one, -sign(al) 2 sqrt(Q) cos(phi/3) - al/3, adds two
    # terms of one sign; the other two solve m^2 - S m + P = 0 (Vieta)
    phi = _libm(_acos, sign * R / (Q * sQ), three)
    m1 = -2.0 * sign * sQ * _libm(math.cos, phi / 3.0, three) - shift
    S, P = -al - m1, -ga / m1
    # the discriminant is >= 0 but for rounding
    r = 0.5 * (S + np.copysign(np.sqrt(abs(S * S - 4.0 * P)), S))
    # one real root: u + v - al/3 with u v = Q, the cube root taken where |R| and sqrt(D)
    # add; or -ga / |pair|^2 where it is smaller than the complex pair
    u = -np.copysign(_libm(_cbrt, abs(R) + np.sqrt(D), (D >= 0.0) & (D < np.inf)), R)
    v = Q / u
    t = u + v
    real, re = t - shift, -0.5 * t - shift
    pair = re * re + 0.75 * (u - v) * (u - v)
    real = np.where(real * real < pair, -ga / pair, real)
    # exactly one of m1 and real is a number where the coefficients are finite,
    # and r and P/r are NaN, so no roots, where the cubic has one real root
    scale = np.ldexp(1.0, -e)
    tau = 2.0 ** -40  # 9.1e-13
    roots, keep = [], []
    for m in (np.fmax(m1, real), r, P / r):
        n = 1.0 / m * scale
        w = b0 + b1 * n
        aw, kink = a * w, 1.0 - n / n3
        slope = aw * (2.0 * b1 * kink - w / n3) - 1.0
        n1 = n - (n2 - n + aw * w * kink) / slope
        w = b0 + b1 * n1
        term = a * w * w * (1.0 - n1 / n3)
        roots.append(n1)
        # a NaN (complex) root fails every test
        keep.append((n >= -tau) & (n1 >= -tau) & (n <= 1.0 + tau) & (n1 <= 1.0 + tau)
                    & (abs(n2 - n1 + term) <= 2.0 ** -46 * (n2 + abs(n1) + abs(term) + abs(slope * n1))))
    out = np.array(roots)
    out[~np.array(keep)] = np.nan
    out.clip(0.0, 1.0, out=out).sort(axis=0)
    return out


def _pick(x: np.ndarray, j) -> np.ndarray:
    """Per state, column j of x (quantity, column, *states), for 0-d and 1-d batches."""
    return x[(slice(None), j) + tuple(map(np.arange, j.shape))]


def _candidates(c: _Ctx, fail: _Failures, live) -> np.ndarray:
    """The four candidate holdings and their prices, as one table of shape
    (6, 4) plus the batch shape: [holding, x, sigma, kappa, r, mu] per candidate.

    Region 1 takes the root whose objective under its own prices is largest
    (the smallest such root on ties).  ``live`` masks the interior states
    whose failures are recorded.
    """
    P, d = c.P, c.d
    n2 = _n2(c)
    G = (1.0 - c.p) * c.net_l * c.y / (2.0 * P.H * c.e2h * d.delta_M * c.qM * c.A * c.A)
    zero = c.A == 0.0  # at p = 1 the fixed point is n2 for any A
    a = np.where(zero, 0.0, n2 * G)[()] if _any(zero) else n2 * G
    g0 = n2 + a * c.qM * c.qM
    g1 = n2 - 1.0 + a * (1.0 - 1.0 / c.n3) * c.qC * c.qC
    roots = _fixed_point_roots(n2, c.n3, a, c.qM, c.qC - c.qM)
    cols = np.empty((6,) + n2.shape)
    cols[:3], cols[3], cols[4], cols[5] = roots, n2, c.n3, 1.0
    # [holding, x, sigma, kappa, r, mu] of the three roots and three closed forms
    table = np.array([cols, *_prices(c, cols)])
    finite = np.isfinite(table[2:])
    ok = (c.A != 0.0) & (g0 >= 0.0) & (g1 <= 0.0) & (roots[0] == roots[0])
    # a NaN holding prices to NaN, so the rest is finite iff the count matches
    if (_any(live & ~ok)
            or np.count_nonzero(finite) != 4 * np.count_nonzero(cols == cols)):
        _flag_candidates(c, fail, live, g0, g1, roots, cols, finite)
    cand = table[:, 2:]  # root 3's column becomes the picked root's
    if _any(roots[1] == roots[1]):  # some state has roots to weigh
        n, x, sigma, kappa, r, mu = table[:, :3]
        J_roots = _J(c, n, x, r, mu, sigma)
        best = np.where(np.isfinite(J_roots), J_roots, -np.inf).argmax(axis=0)
        cand[:, 0] = _pick(table, best)
    else:
        cand[:, 0] = table[:, 0]
    return cand


def _flag_candidates(c: _Ctx, fail: _Failures, live, g0, g1, roots, cols, finite) -> None:
    """Record the candidate stage's failures of the live states, in check order."""
    live, g0, g1, A, p = (np.ravel(v) for v in (live, g0, g1, c.A, c.p))  # one trailing state axis
    roots, cols, finite = roots.reshape(3, -1), cols.reshape(6, -1), finite.reshape(4, 6, -1)
    fail.flag(live & (A == 0.0) & (p < 1.0),
              "volatility numerator sigma_D - (h/eps) (varphi'/varphi) "
              "(theta_C (1-y) + theta_M y) vanished; the fixed point is undefined")
    fail.flag(live & ~((g0 >= 0.0) & (g1 <= 0.0)),
              lambda i: f"bracket guarantee failed: g(0)={g0[i]:g}, g(1)={g1[i]:g} "
                        "(expected g(0) >= 0 >= g(1))")
    fail.flag(live & np.isnan(roots[0]),
              "no Region-1 fixed point found on [0, 1] despite the bracket guarantee")
    bad = ~np.isnan(cols) & ~finite.all(axis=0)

    def bad_price(i):
        j = int(np.argmax(bad[:, i]))
        name = ("sigma", "kappa", "r", "mu")[int(np.argmin(finite[:, j, i]))]
        return (f"{name} formula produced a non-finite value at {fail.at(i)}, "
                f"n_C={cols[j, i]:g}")

    fail.flag(live & bad.any(axis=0), bad_price)


def _select(c: _Ctx, cand, live):
    """Self-consistency tests: region codes, the selected candidate of each
    state, objective tables and availability.

    Region j is self-consistent when its candidate attains the largest
    objective, under region-j prices, among the available candidates (each
    paying its own optimal diversion).  The lowest self-consistent region
    wins; at p = 1 a Region-1 selection is labeled 2 (the fixed point is the
    closed form exactly), matching the benchmark economy.
    """
    n, x, sigma, kappa, r, mu = cand
    avail = (n >= 0.0) & (n <= 1.0)  # NaN fails both tests
    T = _J(c, n[None], x[None], r[:, None], mu[:, None], sigma[:, None])  # [region, candidate]
    T = np.where(avail, T, np.nan)
    top = T.max(axis=1, where=np.isfinite(T), initial=-np.inf)
    diag = T.diagonal(0, 0, 1).T
    # an unavailable candidate's diag is NaN; top > -inf when a finite entry exists
    consistent = (diag >= top) & (top > -np.inf)
    j = consistent.argmax(axis=0)
    code = (j + 1 + ((j == 0) & (c.p == 1.0))) * (live & consistent.any(axis=0))  # else 0, _NONEXISTENT
    return code, j, T, avail


# ---------------------------------------------------------------------------
# Equilibrium results


@dataclass
class EquilibriumResult:
    """Every equilibrium quantity at one state, plus region and existence.

    For a nonexistent equilibrium the price fields are NaN and ``J_tables``
    holds, for each tested region, the objective value of all four
    candidates under that region's prices.  ``region`` is 1-4 for interior
    solves, "boundary" at y in {0, 1}, and "nonexistent" otherwise.
    """

    state: MarketState
    p: float
    region: int | str
    exists: bool
    n_C: float
    n_M: float
    x_star: float
    r: float
    mu: float
    sigma: float
    kappa: float
    mu_y: float
    sigma_y: float
    D_over_S: float
    D_over_WC: float
    S_over_WC: float
    c_coeff_C: float
    c_coeff_M: float
    mu_H: float = math.nan
    sigma_H: float = math.nan
    mu_G: float = math.nan
    J_tables: dict[int, tuple[float, float, float, float]] | None = None
    candidates: tuple[float, float, float, float] | None = None


#: The fields of a priced equilibrium that a sweep row records, in column order.
RESULT_FIELDS = ("n_C", "n_M", "x_star", "r", "mu", "sigma", "kappa", "mu_y", "sigma_y",
                 "mu_H", "sigma_H", "mu_G", "D_over_S")
#: The float fields of an EquilibriumResult: the RESULT_FIELDS, then the other state ratios.
_FIELDS = RESULT_FIELDS + ("D_over_WC", "S_over_WC", "c_coeff_C", "c_coeff_M")
_REGION_NAMES = {_NONEXISTENT: "nonexistent", _BOUNDARY: "boundary"}


@dataclass
class _Batch:
    """The equilibria of one batch as arrays, one column per state: the rows
    y, Lambda, lambda, p; the region codes (_NONEXISTENT also for a failed state);
    the _FIELDS rows, the first 12 NaN where the code is _NONEXISTENT; each
    state's error or None; and, if the batch ran the region tests, their 24 rows:
    objective tables (16, region-major), candidates (4) and availability (4, 1.0 or 0.0)."""

    states: np.ndarray
    code: np.ndarray
    fields: np.ndarray
    err: list
    tests: np.ndarray | None = None


def _finish(c: _Ctx, fail: _Failures, code, n_C, x, sigma, kappa, r, mu, tests=None) -> _Batch:
    """The batch of the context's states, from their selected holdings and
    the prices (x, sigma, kappa, r, mu) those holdings generate.

    Boundary and interior states share the derived-quantity formulas;
    sigma_y is zero at the boundary.  A state whose existing equilibrium has
    a non-finite field fails.
    """
    boundary = code == _BOUNDARY
    sigma_y = np.where(boundary, 0.0, _sigma_y(c, kappa))[()] if _any(boundary) else _sigma_y(c, kappa)
    mu_y = _mu_y(c, x, kappa, r, sigma_y)
    # mu_H = mu + sigma Lambda absorbs the memory drift, sigma_H = sqrt(2H) eps^h sigma
    # is the volatility the Brownian shock carries, and mu_G = mu_H + (1 - x*) D/S
    # adds back the undiverted dividend yield
    mu_H = mu + sigma * c.Lam
    fields = np.array([n_C, 1.0 - n_C, x, r, mu, sigma, kappa, mu_y, sigma_y, mu_H, c.vol * sigma,
                       mu_H + (1.0 - x) * c.D_S, c.D_S, c.D_WC, c.S_WC, c.qC, c.qM])
    fields, code = fields.reshape(len(_FIELDS), -1), np.asarray(code).reshape(-1)  # 0-d: add a state axis
    finite = np.isfinite(fields[:len(RESULT_FIELDS)])
    if np.count_nonzero(finite) < finite.size:
        fail.flag((code != _NONEXISTENT) & ~finite.all(axis=0), lambda i: (
            f"non-finite {RESULT_FIELDS[int(np.argmin(finite[:, i]))]} at {fail.at(i)}"))
    code = np.where(fail.failed, _NONEXISTENT, code) if fail.some else code
    if np.count_nonzero(code) < len(code):
        fields[:len(RESULT_FIELDS) - 1, code == _NONEXISTENT] = np.nan
    return _Batch(np.array([c.y, c.Lam, c.lam, c.p]).reshape(4, -1), code, fields, fail.err, tests)


def _results(b: _Batch) -> list:
    """The public result of each state of a batch: its EquilibriumResult or error."""
    values = b.fields.T.tolist()
    tests = None if b.tests is None else b.tests.T.tolist()
    results: list = []
    for s, ((y, L, l, p), code) in enumerate(zip(b.states.T.tolist(), b.code.tolist())):
        if b.err[s] is not None:
            results.append(b.err[s])
            continue
        kw = dict(zip(_FIELDS, values[s]))
        if code != _BOUNDARY and tests is not None:
            t = tests[s]
            kw["J_tables"] = {j + 1: tuple(t[4 * j:4 * j + 4]) for j in range(4) if t[20 + j]}
            kw["candidates"] = tuple(t[16:20])
        results.append(EquilibriumResult(
            state=MarketState(y, L, l), p=p, region=_REGION_NAMES.get(code, code),
            exists=code != _NONEXISTENT, **kw,
        ))
    return results


@np.errstate(all="ignore")
def _solve(params: ModelParams, y, Lam, lam, p) -> _Batch:
    """Equilibria of the states (y, Lam, lam) at their protection levels ``p``,
    as one batch, or of one state (0-d).

    Each candidate is priced once, in :func:`_candidates`.  The boundary
    states y in {0, 1} take their explicit limits in the same pass; only a
    batch with boundary states prices again.
    """
    c, fail = _context(params, y, Lam, lam, p)
    y = c.y  # as numpy values: a single state may come as Python floats
    interior = (y > 0.0) & (y < 1.0)
    live = interior & ~fail.failed.reshape(np.shape(y)) if fail.some else interior
    cand = _candidates(c, fail, live)
    code, j, tables, avail = _select(c, cand, live)
    n_C, x, sigma, kappa, r, mu = _pick(cand, j)
    boundary = ~interior
    if _any(boundary):
        # explicit limits: the sole owner holds the firm undiverted, and the
        # Sharpe ratio takes the owner's delta (C at y = 0, M at y = 1)
        delta = np.where(y == 0.0, c.d.delta_C, c.d.delta_M)
        code = np.where(boundary, _BOUNDARY, code)
        n_C = np.where(boundary, 1.0 - y, n_C)
        x = np.where(boundary, 0.0, x)
        sigma = np.where(boundary, c.A, sigma)
        kappa = np.where(boundary, c.vol * delta * c.A, kappa)
        r = _rate(c, n_C, x, kappa, sigma)
        mu = _mu(c, r, sigma, kappa, x)
    tests = np.concatenate([tables.reshape(16, -1), cand[0].reshape(4, -1), avail.reshape(4, -1)])
    return _finish(c, fail, code, n_C, x, sigma, kappa, r, mu, tests)


def _first(batch: _Batch) -> EquilibriumResult:
    """The result of the first state of a batch; its error is raised."""
    res = _results(batch)[0]
    if isinstance(res, Exception):
        raise res
    return res


def equilibrium_batch(y, Lambda, lam, params: ModelParams) -> list[EquilibriumResult | Exception]:
    """Equilibria of many states under one parameter set, in one vectorised pass.

    ``y``, ``Lambda`` and ``lam`` (the small memory level) broadcast against
    each other and are flattened in C order.  Returns one entry per state:
    the :class:`EquilibriumResult`, or the exception that state failed with
    (a ``ValueError`` for a state outside its domain, an
    :class:`EquilibriumError` for a failed solve, such as an adjustment
    exp(beta Lambda) that overflows at an extreme memory level).  One failed
    state never stops the others.  Region selection, boundary states and
    non-existence follow :func:`equilibrium`.

    Raises:
        ValueError: if the parameters are invalid (see :func:`validate`).
    """
    # params.p as given, so that _context rejects an invalid one with validate's message
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (y, Lambda, lam)), params.p)
    return _results(_solve(params, *(np.ravel(v) for v in arrays)))


def equilibrium(state: MarketState, params: ModelParams) -> EquilibriumResult:
    """Full equilibrium at one state, with region selection.

    Each region j in {1, 2, 3, 4} is tested by recomputing prices under its
    candidate holding and evaluating the objective at all four candidates
    under those prices (every candidate pays its own optimal diversion);
    region j is self-consistent when its candidate attains the maximum.  The
    lowest self-consistent region index is returned; at p = 1 a Region-1
    selection coincides with Region 2 (the fixed point degenerates to the
    closed form exactly) and is labeled 2, matching the benchmark economy.
    If no region is self-consistent the result carries exists=False and the
    objective tables of all four regions.

    Boundary states y in {0, 1} follow :func:`boundary_equilibrium`.  A single
    state is a 0-d batch: it runs the code path of :func:`equilibrium_batch`
    on numpy scalars, with the same results bit for bit.

    Raises:
        ValueError: if the parameters are invalid.
        EquilibriumError: if the solve fails at this state.
    """
    return _first(_solve(params, state.y, state.Lambda, state.lambda_small, params.p))


@np.errstate(all="ignore")
def benchmark_equilibrium(state: MarketState, params: ModelParams) -> EquilibriumResult:
    """The full-protection benchmark economy (p = 1, zero diversion).

    Direct construction from the closed-form holding, labeled Region 2; the
    general solver at p = 1 must agree with it field by field.
    """
    if not 0.0 < state.y < 1.0:
        raise ValueError("benchmark equilibrium requires y strictly inside (0, 1)")
    c, fail = _context(replace(params, p=1.0), state.y, state.Lambda, state.lambda_small, 1.0)
    n_B = _n2(c)
    return _first(_finish(c, fail, 2, n_B, *_prices(c, n_B)))


def boundary_equilibrium(state: MarketState, params: ModelParams) -> EquilibriumResult:
    """Explicit equilibrium limits at y = 0 (n_C = 1) and y = 1 (n_C = 0).

    The sole owner holds the firm undiverted: sigma is A at that y and kappa =
    sqrt(2H) eps^h delta sigma, with delta = delta_C at y = 0 and delta_M at
    y = 1 (one branch, as no interior equilibrium sits in Region 4).
    """
    if state.y not in (0.0, 1.0):
        raise ValueError("boundary equilibrium requires y exactly 0 or 1")
    return equilibrium(state, params)


@np.errstate(all="ignore")
def benchmark_differences(
    state: MarketState,
    params: ModelParams,
    eq: EquilibriumResult,
    bench: EquilibriumResult,
) -> tuple[float, float, float]:
    """Closed-form (sigma, kappa, sigma_y) gaps to the benchmark economy.

    All three are proportional to the excess ownership concentration
    n_C - n_C^B; they are a cross-check of the two independent solves, not a
    third solver.  Region-2 states give exactly zero.

    Raises:
        ValueError: if the parameters or the state are invalid.
        EquilibriumError: if the state's quantities are not finite, as in
            :func:`equilibrium`.
    """
    c = _state_context(params, state)
    dn = eq.n_C - bench.n_C
    B_eq = eq.n_C * c.qC + (1.0 - eq.n_C) * c.qM
    mix = (1.0 - c.y) / c.d.delta_C + c.y / c.d.delta_M
    d_sigma = bench.sigma * (c.qM - c.qC) * dn / B_eq
    d_kappa = -c.vol * c.qC * c.A * dn / (mix * B_eq * bench.n_M)
    d_sigma_y = -c.y * c.qC * c.A * dn / (c.d.delta_M * mix * B_eq * bench.n_M)
    return float(d_sigma), float(d_kappa), float(d_sigma_y)


# ---------------------------------------------------------------------------
# Partial equilibrium: optimal policies at externally given prices


@dataclass(frozen=True)
class Prices:
    """Externally given price system for the partial-equilibrium policies."""

    r: float
    mu: float
    sigma: float
    D_over_S: float
    D_over_WC: float
    S_over_WC: float
    S_over_WM: float


@dataclass
class PartialPolicies:
    """Optimal consumption coefficients, candidate holdings, and diversion."""

    c_coeff_C: float
    c_coeff_M: float
    n_C_candidates: tuple[float, float, float, float]
    available: tuple[bool, bool, bool, bool]
    J_values: tuple[float, float, float, float]
    n_C: float
    n_M: float
    x_star: float


@np.errstate(all="ignore")
def partial_policies(prices: Prices, state: MarketState, params: ModelParams) -> PartialPolicies:
    """Optimal policies when (r, mu, sigma) and the ratios are handed in.

    The four candidates come from the price-based first-order conditions; a
    candidate with a vanishing denominator or outside [0, 1] is flagged
    unavailable and excluded from the maximization (its raw value is still
    reported, NaN for a vanishing denominator).  The chosen holding
    maximizes the objective, each candidate evaluated with its own optimal
    diversion.

    Raises:
        ValueError: if a price is not finite, sigma is zero, a ratio is not
            positive, or the parameters or the state are invalid.
        EquilibriumError: if the state's quantities are not finite, as in
            :func:`equilibrium`.
    """
    for name, value in vars(prices).items():
        if not math.isfinite(value):
            raise ValueError(f"partial policies need finite prices, got {name}={value!r}")
    if prices.sigma == 0.0:
        raise ValueError("partial policies need sigma != 0")
    if min(prices.D_over_S, prices.D_over_WC, prices.S_over_WC, prices.S_over_WM) <= 0.0:
        raise ValueError("price ratios must be positive")
    c = _state_context(params, state)
    P = c.P
    # the objective uses the handed ratios, not the state-implied ones
    c.D_S, c.D_WC, c.S_WC = prices.D_over_S, prices.D_over_WC, prices.S_over_WC

    excess = prices.mu - prices.r + prices.sigma * state.Lambda
    den0 = 2.0 * P.H * c.e2h * c.d.delta_C * prices.S_over_WC * prices.sigma**2
    den = np.array([den0 + (2.0 * (1.0 - P.p) + P.k * (1.0 - P.p) ** 2) * prices.D_over_S,
                    den0 - prices.D_over_S / P.k])
    num = np.array([excess + (2.0 - P.p) * prices.D_over_S,
                    excess + (1.0 - 1.0 / P.k) * prices.D_over_S])
    n = np.concatenate([np.where(den != 0.0, num / den, np.nan), [c.n3, 1.0]])[:, None]
    avail = np.isfinite(n) & (n >= 0.0) & (n <= 1.0)  # the kink and full ownership always are
    x = x_star(n, P.k, P.p)
    J = np.where(avail, _J(c, n, x, prices.r, prices.mu, prices.sigma), np.nan)
    best = int(np.argmax(np.where(avail, J, -np.inf)[:, 0]))
    n_M = (excess + (1.0 - x[best, 0]) * prices.D_over_S) / (
        2.0 * P.H * c.e2h * c.d.delta_M * prices.S_over_WM * prices.sigma**2
    )
    return PartialPolicies(
        c_coeff_C=float(c.qC),
        c_coeff_M=float(c.qM),
        n_C_candidates=tuple(n[:, 0].tolist()),
        available=tuple(avail[:, 0].tolist()),
        J_values=tuple(J[:, 0].tolist()),
        n_C=float(n[best, 0]),
        n_M=float(n_M),
        x_star=float(x[best, 0]),
    )


# ---------------------------------------------------------------------------
# Comparative-statics sweeps


@dataclass
class SweepRow:
    """One grid point of a sweep; ``error`` is set when the solve failed."""

    y: float
    p: float
    Lambda: float
    result: EquilibriumResult | None
    error: str | None = None


@dataclass
class _Grid:
    """A priced (y, p, Lambda) grid: its axes and one batch of its states in row order."""

    y: list[float]
    p: list[float]
    Lam: list[float]
    batch: _Batch


def _price_grid(params: ModelParams, y_values, p_values, Lambda_values, lam: float = 0.0) -> _Grid:
    """The (y, p, Lambda) cross product as one :func:`_solve` batch, in row order
    (y outermost, then p, then Lambda); invalid parameters raise, and every
    state of an invalid level p fails with validate's ValueError at that level."""
    axes = [[float(v) for v in vals] for vals in (y_values, p_values, Lambda_values)]
    y, p, Lam = (v.ravel() for v in np.meshgrid(*axes, indexing="ij"))
    return _Grid(*axes, _solve(params, y, Lam, np.full(y.size, float(lam)), p))


def sweep(params: ModelParams, y_values, p_values, Lambda_values, lam: float = 0.0) -> list[SweepRow]:
    """Cross-product sweep over (y, p, Lambda) with per-row failure capture.

    Rows are emitted in deterministic order: y outermost, then p, then
    Lambda.  The small memory level is held fixed (default 0).  The grid is
    one :func:`_solve` batch of :func:`_price_grid`; a row that fails, or every
    row of a level p outside [0, 1], records its error and the sweep goes on;
    invalid parameters raise their ValueError, as in :func:`equilibrium_batch`.
    """
    b = _price_grid(params, y_values, p_values, Lambda_values, lam).batch
    return [SweepRow(y, p, L, None, error=str(res)) if isinstance(res, Exception) else
            SweepRow(y, p, L, res) for (y, L, _, p), res in zip(b.states.T.tolist(), _results(b))]
