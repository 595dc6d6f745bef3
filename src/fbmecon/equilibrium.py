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
              cubic in n_C, solved in closed form (companion eigenvalues);
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

Every state is priced by one vectorised code path, :func:`equilibrium_batch`:
the parameter constants are validated and derived once per parameter set,
each candidate is priced once per batch, and every formula is elementwise
over the states, so a scalar solve is a batch of one.
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


class _Failures:
    """The first error of each state of a batch; None while the state prices."""

    def __init__(self, y: np.ndarray, Lam: np.ndarray):
        self.y, self.Lam = y, Lam
        self.err: list[Exception | None] = [None] * len(y)
        self.failed = np.zeros(len(y), dtype=bool)

    def flag(self, mask, text, kind=EquilibriumError) -> None:
        """Record ``kind(text(i))`` (or ``kind(text)``) for each masked state
        that has not failed yet."""
        for i in np.flatnonzero(mask & ~self.failed).tolist():
            self.err[i] = kind(text(i) if callable(text) else text)
        self.failed |= mask

    def at(self, i: int) -> str:
        return f"y={self.y[i]:g}, Lambda={self.Lam[i]:g}"


@dataclass
class _Ctx:
    """One batch: its parameter constants and one array entry per state."""

    P: ModelParams
    d: DerivedParams
    vol: float  # sqrt(2H) eps^h, the w^H kernel at lag zero
    lam0: float  # sqrt(2H) h eps^(h-1), the Lambda kernel at lag zero
    e2h: float  # eps^(2h)
    net_l: float  # 1 - l_C - l_M
    n3: float  # the kink holding 1 / (1 + (1 - p) k)
    r1: float  # varphi'/varphi = beta
    a_C: float  # 2H h eps^(2h-1) theta_C r1
    a_M: float
    y: np.ndarray
    Lam: np.ndarray
    lam: np.ndarray
    qC: np.ndarray  # consumption/wealth ratio of C: rho^(1/delta_C) varphi^theta_C
    qM: np.ndarray
    C: np.ndarray  # (1-y)/qC + y/qM, the wealth aggregator
    A: np.ndarray  # sigma_D - (h/eps) r1 (theta_C (1-y) + theta_M y)
    D_S: np.ndarray
    D_WC: np.ndarray
    S_WC: np.ndarray
    cons_M: np.ndarray  # qM - theta_M lam r1 - H h^2 eps^(2h-2) theta_M ((theta_M-1) r1^2 + r2)
    r0: np.ndarray  # the part of the interest rate free of holdings and diversion
    w_C: np.ndarray  # (1-y) + y qC/qM
    w_M: np.ndarray  # y + (1-y) qM/qC


@lru_cache(maxsize=64)
def _param_constants(P: ModelParams) -> tuple[dict, float, float, float]:
    """The parameter fields of a _Ctx, rho^(1/delta_C), rho^(1/delta_M) and
    H h^2 eps^(2h-2), derived once per parameter set (equal sets share one
    entry; an invalid set raises on every call, as no exception is cached)."""
    validate(P)
    d = derive_constants(P)
    eps, r1 = P.epsilon, d.beta
    (p0, h0), (p1, h1) = _kernel(P, 0), _kernel(P, 1)
    a1 = 2.0 * P.H * d.h * eps ** (2.0 * d.h - 1.0) * r1
    fields = dict(d=d, vol=float(p0 * eps**h0), lam0=float(p1 * eps**h1), e2h=eps ** (2.0 * d.h),
                  net_l=1.0 - P.l_C - P.l_M, n3=1.0 / (1.0 + (1.0 - P.p) * P.k), r1=r1,
                  a_C=d.theta_C * a1, a_M=d.theta_M * a1)
    return (fields, P.rho ** (1.0 / d.delta_C), P.rho ** (1.0 / d.delta_M),
            P.H * d.h * d.h * eps ** (2.0 * d.h - 2.0))


def _adjust(d: DerivedParams, Lam: np.ndarray, fail: _Failures) -> tuple[np.ndarray, float, float]:
    """varphi = exp(beta Lambda) per state and its log-derivatives beta, beta^2.

    A state whose exponential overflows at a finite memory level fails on
    its own, with the message of the scalar math.exp overflow.
    """
    beta = d.beta
    varphi = np.exp(beta * Lam)
    inf = np.isinf(varphi)
    if np.count_nonzero(inf):
        fail.flag(np.isfinite(Lam) & inf,
                  lambda i: f"adjustment functions failed at Lambda={Lam[i]:g}: math range error")
    return varphi, beta, beta * beta


def _context(params: ModelParams, y, Lam, lam) -> tuple[_Ctx, _Failures]:
    """Context of a batch under one parameter set, plus its failure record.

    The parameters are validated and their constants derived once per
    parameter set (:func:`_param_constants`).  Invalid states (y outside
    [0, 1], non-finite memory) fail with a ValueError; non-finite state
    quantities fail with an EquilibriumError.

    Raises:
        ValueError: if the parameters are invalid (see :func:`validate`).
    """
    try:
        k, rho_C, rho_M, hh = _param_constants(params)
    except TypeError:  # an unhashable field, which validate rejects
        validate(params)
        raise
    P, d = params, k["d"]
    y, Lam, lam = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (y, Lam, lam))
    fail = _Failures(y, Lam)
    inside = (y >= 0.0) & (y <= 1.0)
    if np.count_nonzero(inside & np.isfinite(Lam + lam)) < len(y):
        fail.flag(~inside,
                  lambda i: f"consumption share y must lie in [0, 1], got {float(y[i])!r}", ValueError)
        fail.flag(~(np.isfinite(Lam) & np.isfinite(lam)), "memory levels must be finite", ValueError)
    varphi, r1, r2 = _adjust(d, Lam, fail)
    # powers of varphi, not exp(beta_i Lambda): folding would change the
    # rounding, and a varphi that underflows to 0 (Lambda = -1e4) fails here
    qC = rho_C * varphi**d.theta_C
    qM = rho_M * varphi**d.theta_M
    y1 = 1.0 - y
    C = y1 / qC + y / qM
    A = P.sigma_D - (d.h / P.epsilon) * r1 * (d.theta_C * y1 + d.theta_M * y)
    if np.count_nonzero(np.isfinite(qC + qM + C + A)) < len(y):  # finite only if every term is
        finite = np.isfinite([qC, qM, C, A])
        labels = ("consumption-wealth ratio of C", "consumption-wealth ratio of M",
                  "wealth aggregator", "volatility numerator")
        fail.flag(~finite.all(axis=0),
                  lambda i: f"non-finite {labels[int(np.argmin(finite[:, i]))]} at {fail.at(i)}")
    cons_C = qC - d.theta_C * lam * r1 - hh * d.theta_C * ((d.theta_C - 1.0) * r1 * r1 + r2)
    cons_M = qM - d.theta_M * lam * r1 - hh * d.theta_M * ((d.theta_M - 1.0) * r1 * r1 + r2)
    net_l = k["net_l"]
    c = _Ctx(
        P=P, **k, y=y, Lam=Lam, lam=lam, qC=qC, qM=qM, C=C, A=A,
        D_S=net_l / C,
        D_WC=net_l * qC / y1,
        S_WC=C * qC / y1,
        cons_M=cons_M,
        r0=(P.mu_D + P.sigma_D * Lam - P.l_C * qC - P.l_M * qM + y1 * cons_C + y * cons_M),
        w_C=y1 + y * (qC / qM),
        w_M=y + y1 * (qM / qC),
    )
    return c, fail


# ---------------------------------------------------------------------------
# The formula set: elementwise over states, broadcasting over a leading
# candidate axis (holdings of shape (k, S) against per-state arrays (S,))


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
    x = x_star(n_C, c.P.k, c.P.p)
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


@np.errstate(all="ignore")
def _fixed_point_roots(n2, n3, a, b0, b1) -> np.ndarray:
    """Every root in [0, 1] of g(n) = -n + n2 + a (1 - n/n3) (b0 + b1 n)^2.

    g is the cubic c3 n^3 + c2 n^2 + c1 n + c0 with c3 = -a b1^2/n3,
    c2 = a (b1^2 - 2 b0 b1/n3), c1 = a (2 b0 b1 - b0^2/n3) - 1 and
    c0 = n2 + a b0^2.  Its roots are the reciprocals of the eigenvalues of the
    companion matrix of the reversed polynomial c0 m^3 + c1 m^2 + c2 m + c3,
    whose leading coefficient c0 = g(0) > 0 does not vanish when the cubic
    degenerates (a = 0 at full protection, b1 = 0 for equal consumption
    ratios), so no degree needs a case of its own.  Every eigenvalue gets one
    Newton step on g in its factored form (at a = 0 it returns n2 exactly);
    a real root is kept when it lies within tau of [0, 1] both before and
    after the step, and is clipped to [0, 1].  eigvals is backward stable, so
    a simple root moves by about kappa eps ||comp||: near an edge by at most
    3.9 eps ||comp||_F = 1.5e-15 in an 874k-state scan, 1/600 of tau.

    Arguments broadcast to (S,); returns (3, S): each state's roots in
    ascending order, padded with NaN.  A state with non-finite coefficients
    has no roots.
    """
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
    tau = 2.0 ** -40  # 9.1e-13
    keep = (m.imag == 0.0) & (np.minimum(n, n1) >= -tau) & (np.maximum(n, n1) <= 1.0 + tau)
    return np.sort(np.where(keep, n1, np.nan).clip(0.0, 1.0), axis=0)


def _candidates(c: _Ctx, fail: _Failures, live) -> np.ndarray:
    """The four candidate holdings and their prices, as one (6, 4, S) table of
    [holding, x, sigma, kappa, r, mu] per candidate.

    Region 1 takes the root whose objective under its own prices is largest
    (the smallest such root on ties).  ``live`` masks the interior states
    whose failures are recorded.
    """
    P, d = c.P, c.d
    n2 = _n2(c)
    G = (1.0 - P.p) * c.net_l * c.y / (2.0 * P.H * c.e2h * d.delta_M * c.qM * c.A * c.A)
    a = np.where(c.A == 0.0, 0.0, n2 * G)  # at p = 1 the fixed point is n2 for any A
    g0 = n2 + a * c.qM * c.qM
    g1 = n2 - 1.0 + a * (1.0 - 1.0 / c.n3) * c.qC * c.qC
    roots = _fixed_point_roots(n2, c.n3, a, c.qM, c.qC - c.qM)
    cols = np.empty((6, len(n2)))
    cols[:3], cols[3], cols[4], cols[5] = roots, n2, c.n3, 1.0
    # [holding, x, sigma, kappa, r, mu] of the three roots and three closed forms
    table = np.array([cols, *_prices(c, cols)])
    finite = np.isfinite(table[2:])
    ok = (c.A != 0.0) & (g0 >= 0.0) & (g1 <= 0.0) & (roots[0] == roots[0])
    # a NaN holding prices to NaN, so the rest is finite iff the count matches
    if (np.count_nonzero(live & ~ok)
            or np.count_nonzero(finite) != 4 * np.count_nonzero(cols == cols)):
        _flag_candidates(c, fail, live, g0, g1, roots, cols, finite)
    cand = table[:, 2:]  # root 3's column becomes the picked root's
    if np.count_nonzero(roots[1] == roots[1]):  # some state has roots to weigh
        n, x, sigma, kappa, r, mu = table[:, :3]
        J_roots = _J(c, n, x, r, mu, sigma)
        best = np.where(np.isfinite(J_roots), J_roots, -np.inf).argmax(axis=0)
        cand[:, 0] = table[:, best, np.arange(len(best))]
    else:
        cand[:, 0] = table[:, 0]
    return cand


def _flag_candidates(c: _Ctx, fail: _Failures, live, g0, g1, roots, cols, finite) -> None:
    """Record the candidate stage's failures of the live states, in check order."""
    if c.P.p < 1.0:
        fail.flag(live & (c.A == 0.0),
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
    top = np.where(np.isfinite(T), T, -np.inf).max(axis=1)
    diag = T.diagonal(0, 0, 1).T
    # an unavailable candidate's diag is NaN; top > -inf when a finite entry exists
    consistent = (diag >= top) & (top > -np.inf)
    j = consistent.argmax(axis=0)
    code = np.where(consistent.any(axis=0), j + 1, _NONEXISTENT)
    if c.P.p == 1.0:
        code = np.where(code == 1, 2, code)
    return np.where(live, code, _NONEXISTENT), j, T, avail


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
    y, Lambda, lambda; the region codes (_NONEXISTENT also for a failed state);
    the _FIELDS rows, the first 12 NaN where the code is _NONEXISTENT; each
    state's error or None; and, if the batch ran the region tests, their
    objective tables (region, candidate, state), candidates and availability."""

    p: float
    states: np.ndarray
    code: np.ndarray
    fields: np.ndarray
    err: list
    tests: tuple | None = None


def _finish(c: _Ctx, fail: _Failures, code, n_C, x, sigma, kappa, r, mu, tests=None) -> _Batch:
    """The batch of the context's states, from their selected holdings and
    the prices (x, sigma, kappa, r, mu) those holdings generate.

    Boundary and interior states share the derived-quantity formulas;
    sigma_y is zero at the boundary.  A state whose existing equilibrium has
    a non-finite field fails.
    """
    sigma_y = np.where(code == _BOUNDARY, 0.0, _sigma_y(c, kappa))
    mu_y = _mu_y(c, x, kappa, r, sigma_y)
    # mu_H = mu + sigma Lambda absorbs the memory drift, sigma_H = sqrt(2H) eps^h sigma
    # is the volatility the Brownian shock carries, and mu_G = mu_H + (1 - x*) D/S
    # adds back the undiverted dividend yield
    mu_H = mu + sigma * c.Lam
    fields = np.array([n_C, 1.0 - n_C, x, r, mu, sigma, kappa, mu_y, sigma_y, mu_H,
                       c.vol * sigma, mu_H + (1.0 - x) * c.D_S, c.D_S, c.D_WC, c.S_WC, c.qC, c.qM])
    finite = np.isfinite(fields[:len(RESULT_FIELDS)])
    if np.count_nonzero(finite) < finite.size:
        fail.flag((code != _NONEXISTENT) & ~finite.all(axis=0), lambda i: (
            f"non-finite {RESULT_FIELDS[int(np.argmin(finite[:, i]))]} at {fail.at(i)}"))
    code = np.where(fail.failed, _NONEXISTENT, code)
    if np.count_nonzero(code) < len(code):
        fields[:len(RESULT_FIELDS) - 1, code == _NONEXISTENT] = np.nan
    return _Batch(c.P.p, np.array([c.y, c.Lam, c.lam]), code, fields, fail.err, tests)


def _results(b: _Batch) -> list:
    """The public result of each state of a batch: its EquilibriumResult or error."""
    values = b.fields.T.tolist()
    if b.tests is not None:  # per state: its tables, candidates and availability
        tables, cands, avail = (a.transpose(-1, *range(a.ndim - 1)).tolist() for a in b.tests)
    results: list = []
    for s, ((y, L, l), code) in enumerate(zip(b.states.T.tolist(), b.code.tolist())):
        if b.err[s] is not None:
            results.append(b.err[s])
            continue
        kw = dict(zip(_FIELDS, values[s]))
        if code != _BOUNDARY and b.tests is not None:
            kw["J_tables"] = {j + 1: tuple(row) for j, row in enumerate(tables[s]) if avail[s][j]}
            kw["candidates"] = tuple(cands[s])
        results.append(EquilibriumResult(
            state=MarketState(y, L, l), p=b.p, region=_REGION_NAMES.get(code, code),
            exists=code != _NONEXISTENT, **kw,
        ))
    return results


@np.errstate(all="ignore")
def _solve(params: ModelParams, y, Lam, lam) -> _Batch:
    """Equilibria of the states (y, Lam, lam), as one batch.

    Each candidate is priced once, in :func:`_candidates`.  The boundary
    states y in {0, 1} take their explicit limits in the same pass; only a
    batch with boundary states prices again.
    """
    c, fail = _context(params, y, Lam, lam)
    interior = (y > 0.0) & (y < 1.0)
    live = interior & ~fail.failed
    cand = _candidates(c, fail, live)
    code, j, tables, avail = _select(c, cand, live)
    n_C, x, sigma, kappa, r, mu = cand[:, j, np.arange(len(y))]
    boundary = ~interior
    if np.count_nonzero(boundary):
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
    return _finish(c, fail, code, n_C, x, sigma, kappa, r, mu, tests=(tables, cand[0], avail))


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
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (y, Lambda, lam)))
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

    Boundary states y in {0, 1} follow :func:`boundary_equilibrium`.  This is
    :func:`equilibrium_batch` on a batch of one.

    Raises:
        ValueError: if the parameters are invalid.
        EquilibriumError: if the solve fails at this state.
    """
    arrays = (np.array([v], dtype=float) for v in (state.y, state.Lambda, state.lambda_small))
    return _first(_solve(params, *arrays))


@np.errstate(all="ignore")
def benchmark_equilibrium(state: MarketState, params: ModelParams) -> EquilibriumResult:
    """The full-protection benchmark economy (p = 1, zero diversion).

    Direct construction from the closed-form holding, labeled Region 2; the
    general solver at p = 1 must agree with it field by field.
    """
    if not 0.0 < state.y < 1.0:
        raise ValueError("benchmark equilibrium requires y strictly inside (0, 1)")
    c, fail = _context(replace(params, p=1.0), state.y, state.Lambda, state.lambda_small)
    n_B = _n2(c)
    return _first(_finish(c, fail, np.full(1, 2), n_B, *_prices(c, n_B)))


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
    """
    c, _ = _context(params, state.y, state.Lambda, state.lambda_small)
    dn = eq.n_C - bench.n_C
    B_eq = eq.n_C * c.qC + (1.0 - eq.n_C) * c.qM
    mix = (1.0 - c.y) / c.d.delta_C + c.y / c.d.delta_M
    d_sigma = bench.sigma * (c.qM - c.qC) * dn / B_eq
    d_kappa = -c.vol * c.qC * c.A * dn / (mix * B_eq * bench.n_M)
    d_sigma_y = -c.y * c.qC * c.A * dn / (c.d.delta_M * mix * B_eq * bench.n_M)
    return float(d_sigma[0]), float(d_kappa[0]), float(d_sigma_y[0])


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
        ValueError: if sigma is zero, a ratio is not positive, or the
            parameters are invalid.
    """
    if prices.sigma == 0.0:
        raise ValueError("partial policies need sigma != 0")
    if min(prices.D_over_S, prices.D_over_WC, prices.S_over_WC, prices.S_over_WM) <= 0.0:
        raise ValueError("price ratios must be positive")
    c, _ = _context(params, state.y, state.Lambda, state.lambda_small)
    P = c.P
    # the objective uses the handed ratios, not the state-implied ones
    c = replace(c, D_S=prices.D_over_S, D_WC=prices.D_over_WC, S_WC=prices.S_over_WC)

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
        c_coeff_C=float(c.qC[0]),
        c_coeff_M=float(c.qM[0]),
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
    """A priced (y, p, Lambda) grid: per p, the batch of its (y, Lambda) states."""

    y: list[float]
    p: list[float]
    Lam: list[float]
    batches: list[_Batch]

    def in_order(self, per_p, labels=None):
        """(y, p, Lambda, per_p[k][s]) of every row: y outermost, then p, then
        Lambda; ``labels`` stand in for the three value lists (their text, say)."""
        ys, ps, Ls = labels or (self.y, self.p, self.Lam)
        for i, y in enumerate(ys):
            for p, items in zip(ps, per_p):
                for j, L in enumerate(Ls):
                    yield y, p, L, items[i * len(Ls) + j]


def _price_grid(params: ModelParams, y_values, p_values, Lambda_values, lam: float = 0.0) -> _Grid:
    """One :func:`_solve` batch per p over the (y, Lambda) cross product; every
    state of a p whose parameters are invalid fails with their ValueError."""
    g = _Grid(*([float(v) for v in vals] for vals in (y_values, p_values, Lambda_values)), [])
    y, Lam = np.repeat(g.y, len(g.Lam)), np.tile(g.Lam, len(g.y))
    nan = np.full((len(_FIELDS), len(y)), np.nan)
    for p in g.p:
        try:
            lams = np.full(len(y), np.asarray(lam, dtype=float))
            g.batches.append(_solve(replace(params, p=p), y, Lam, lams))
        except ValueError as exc:
            g.batches.append(_Batch(p, np.array([y, Lam, nan[0]]), np.zeros(len(y), int), nan,
                                    [exc] * len(y)))
    return g


def sweep(params: ModelParams, y_values, p_values, Lambda_values, lam: float = 0.0) -> list[SweepRow]:
    """Cross-product sweep over (y, p, Lambda) with per-row failure capture.

    Rows are emitted in deterministic order: y outermost, then p, then
    Lambda.  The small memory level is held fixed (default 0).  Each p is one
    :func:`_solve` batch of :func:`_price_grid`; a row that fails, or every row
    of a p whose parameters are invalid, records its error and the sweep goes on.
    """
    g = _price_grid(params, y_values, p_values, Lambda_values, lam)
    return [SweepRow(y, p, L, None, error=str(res)) if isinstance(res, Exception) else
            SweepRow(y, p, L, res) for y, p, L, res in g.in_order([_results(b) for b in g.batches])]
