"""The scalar equilibrium solver the batch path replaced, kept as a test oracle.

Every state is solved on its own in plain Python floats, and the Region-1
fixed point is found the old way: a sign scan of g over [0, 1] at step 1e-3
plus bisection of every bracket to width 1e-12, polished by one secant
step so a root sits at rounding level.  The scan misses two roots
that share one scan cell, which tests show next to the closed-form roots.
Results use the package's own result types, so fields compare one to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fbmecon import (
    EquilibriumError,
    EquilibriumResult,
    MarketState,
    ModelParams,
    derive_constants,
)

#: Bisection interval tolerance for the Region-1 fixed point.
BISECT_TOL = 1e-12
#: Sign-scan resolution over [0, 1] for bracketing the fixed point.
SCAN_STEP = 1e-3


def x_star(n_C: float, k: float, p: float) -> float:
    return min((1.0 - n_C) / k, (1.0 - p) * n_C)


def derived_quantities(eq: EquilibriumResult, params: ModelParams) -> None:
    h = params.H - 0.5
    eq.mu_H = eq.mu + eq.sigma * eq.state.Lambda
    eq.sigma_H = math.sqrt(2.0 * params.H) * params.epsilon**h * eq.sigma
    eq.mu_G = eq.mu_H + (1.0 - eq.x_star) * eq.D_over_S


@dataclass(frozen=True)
class _Ctx:
    y: float
    Lam: float
    lam: float
    mu_D: float
    sigma_D: float
    H: float
    eps: float
    h: float
    k: float
    p: float
    l_C: float
    l_M: float
    net_l: float
    delta_C: float
    delta_M: float
    theta_C: float
    theta_M: float
    varphi: float
    r1: float
    r2: float
    qC: float  # consumption/wealth ratio of C: rho^(1/delta_C) varphi^theta_C
    qM: float
    C: float  # (1-y)/qC + y/qM, the wealth aggregator
    A: float  # sigma_D - (h/eps) r1 (theta_C (1-y) + theta_M y)
    D_S: float
    D_WC: float
    S_WC: float
    S_WM: float
    sqrt2H: float
    eph: float  # eps^h
    e2h: float  # eps^(2h)


def _context(state: MarketState, params: ModelParams) -> _Ctx:
    d = derive_constants(params)
    beta = params.beta
    varphi, r1, r2 = math.exp(beta * state.Lambda), beta, beta * beta
    y = state.y
    qC = params.rho ** (1.0 / d.delta_C) * varphi**d.theta_C
    qM = params.rho ** (1.0 / d.delta_M) * varphi**d.theta_M
    C = (1.0 - y) / qC + y / qM
    net_l = 1.0 - params.l_C - params.l_M
    eps = params.epsilon
    A = params.sigma_D - (d.h / eps) * r1 * (d.theta_C * (1.0 - y) + d.theta_M * y)
    return _Ctx(
        y=y,
        Lam=state.Lambda,
        lam=state.lambda_small,
        mu_D=params.mu_D,
        sigma_D=params.sigma_D,
        H=params.H,
        eps=eps,
        h=d.h,
        k=params.k,
        p=params.p,
        l_C=params.l_C,
        l_M=params.l_M,
        net_l=net_l,
        delta_C=d.delta_C,
        delta_M=d.delta_M,
        theta_C=d.theta_C,
        theta_M=d.theta_M,
        varphi=varphi,
        r1=r1,
        r2=r2,
        qC=qC,
        qM=qM,
        C=C,
        A=A,
        D_S=net_l / C,
        D_WC=net_l * qC / (1.0 - y) if y < 1.0 else math.inf,
        S_WC=C * qC / (1.0 - y) if y < 1.0 else math.inf,
        S_WM=C * qM / y if y > 0.0 else math.inf,
        sqrt2H=math.sqrt(2.0 * params.H),
        eph=eps**d.h,
        e2h=eps ** (2.0 * d.h),
    )


def _B(c: _Ctx, n: float) -> float:
    return n * c.qC + (1.0 - n) * c.qM


def _sigma(c: _Ctx, n_C: float) -> float:
    return c.A / (_B(c, n_C) * c.C)


def _kappa(c: _Ctx, n_C: float) -> float:
    return c.sqrt2H * c.eph * c.delta_M * c.qM * (1.0 - n_C) * c.A / (c.y * _B(c, n_C))


def _rate(c: _Ctx, n_C: float, x: float, kappa: float, sigma: float) -> float:
    t_kC = c.sqrt2H * c.eph * kappa + 2.0 * c.H * c.h * c.eps ** (2.0 * c.h - 1.0) * c.theta_C * c.r1
    t_kM = c.sqrt2H * c.eph * kappa + 2.0 * c.H * c.h * c.eps ** (2.0 * c.h - 1.0) * c.theta_M * c.r1
    wC = (1.0 - c.y) + c.y * (c.qC / c.qM)
    wM = c.y + (1.0 - c.y) * (c.qM / c.qC)
    hh = c.H * c.h * c.h * c.eps ** (2.0 * c.h - 2.0)
    consC = c.qC - c.theta_C * c.lam * c.r1 - hh * c.theta_C * ((c.theta_C - 1.0) * c.r1**2 + c.r2)
    consM = c.qM - c.theta_M * c.lam * c.r1 - hh * c.theta_M * ((c.theta_M - 1.0) * c.r1**2 + c.r2)
    cost = (x - 0.5 * c.k * x * x) * c.net_l * c.qC + 0.5 * c.k * x * x * c.net_l * c.qM
    return (
        c.mu_D
        + c.sigma_D * c.Lam
        - c.l_C * c.qC
        - c.l_M * c.qM
        - n_C * sigma * t_kC * wC
        - (1.0 - n_C) * sigma * t_kM * wM
        + (1.0 - c.y) * consC
        + c.y * consM
        - cost
    )


def _mu(c: _Ctx, r: float, sigma: float, kappa: float, x: float) -> float:
    return r - sigma * c.Lam + c.sqrt2H * c.eph * kappa * sigma - (1.0 - x) * c.D_S


def _sigma_y(c: _Ctx, kappa: float) -> float:
    return c.y * (kappa / (c.sqrt2H * c.eph * c.delta_M) + c.theta_M * (c.h / c.eps) * c.r1 - c.sigma_D)


def _mu_y(c: _Ctx, x: float, kappa: float, r: float, sigma_y: float) -> float:
    hh = c.H * c.h * c.h * c.eps ** (2.0 * c.h - 2.0)
    bracket = (
        r
        - c.mu_D
        - c.sigma_D * c.Lam
        + kappa**2 / c.delta_M
        + c.sqrt2H * c.h * c.eps ** (c.h - 1.0) * c.theta_M * c.r1 * kappa / c.delta_M
        - c.qM
        + c.theta_M * c.lam * c.r1
        + hh * c.theta_M * ((c.theta_M - 1.0) * c.r1**2 + c.r2)
    )
    return (
        -sigma_y * (c.Lam + 2.0 * c.H * c.e2h * c.sigma_D)
        + c.l_M * c.qM
        + 0.5 * c.k * x * x * c.net_l * c.qM
        + c.y * bracket
    )


def _J(c: _Ctx, n: float, x: float, r: float, mu: float, sigma: float) -> float:
    """Controlling shareholder's objective at holding n and diversion x."""
    return (
        n * c.S_WC * (mu - r + (1.0 - x) * c.D_S + sigma * c.Lam)
        + x * c.D_WC
        - 0.5 * c.k * x * x * c.D_WC
        - c.H * c.e2h * c.delta_C * (c.S_WC * sigma) ** 2 * n * n
    )


def _region_prices(c: _Ctx, n_C: float) -> tuple[float, float, float, float, float]:
    """(x, sigma, kappa, r, mu) under the prices generated by holding n_C."""
    x = x_star(n_C, c.k, c.p)
    sigma = _sigma(c, n_C)
    kappa = _kappa(c, n_C)
    r = _rate(c, n_C, x, kappa, sigma)
    mu = _mu(c, r, sigma, kappa, x)
    for name, v in (("sigma", sigma), ("kappa", kappa), ("r", r), ("mu", mu)):
        if not math.isfinite(v):
            raise EquilibriumError(
                f"{name} formula produced a non-finite value at y={c.y:g}, "
                f"Lambda={c.Lam:g}, n_C={n_C:g}"
            )
    return x, sigma, kappa, r, mu



def _fixed_point_g(c: _Ctx, n2: float, n3: float):
    """The bracketing function g whose zeros are Region-1 candidates."""
    if c.A == 0.0:
        raise EquilibriumError(
            "volatility numerator sigma_D - (h/eps) (varphi'/varphi) "
            "(theta_C (1-y) + theta_M y) vanished; the fixed point is undefined"
        )
    G = (
        (1.0 - c.p)
        * c.net_l
        * c.y
        / (2.0 * c.H * c.e2h * c.delta_M * c.qM * c.A * c.A)
    )

    def g(n):
        B = n * c.qC + (1.0 - n) * c.qM
        return -n + n2 + n2 * (1.0 - n / n3) * G * B * B

    return g


def _bisect(g, a: float, b: float, ga: float, gb: float) -> float:
    """Bisection on a sign-change bracket down to BISECT_TOL width, then a secant step."""
    if ga == 0.0:
        return a
    if gb == 0.0:
        return b
    while b - a > BISECT_TOL:
        m = 0.5 * (a + b)
        gm = g(m)
        if gm == 0.0:
            return m
        if (ga > 0) != (gm > 0):
            b, gb = m, gm
        else:
            a, ga = m, gm
    # one secant step on the final bracket brings the root to rounding level;
    # the midpoint can sit 2.5e-13 off, enough to flip a tie between regions
    return a - ga * (b - a) / (gb - ga)


def scan_roots(g) -> list[float]:
    """Every zero of g on [0, 1] that a sign scan plus bisection catches."""
    grid = np.linspace(0.0, 1.0, int(round(1.0 / SCAN_STEP)) + 1)
    vals = [g(float(v)) for v in grid]
    if not all(math.isfinite(v) for v in vals):
        raise EquilibriumError("fixed-point function g is non-finite on [0, 1]")
    if not (vals[0] >= 0.0 >= vals[-1]):
        raise EquilibriumError(
            f"bracket guarantee failed: g(0)={vals[0]:g}, g(1)={vals[-1]:g} "
            "(expected g(0) >= 0 >= g(1))"
        )
    roots: list[float] = []
    for i in range(len(grid) - 1):
        ga, gb = vals[i], vals[i + 1]
        if ga == 0.0:
            roots.append(float(grid[i]))
        elif (ga > 0) != (gb > 0):
            roots.append(_bisect(g, float(grid[i]), float(grid[i + 1]), ga, gb))
    if vals[-1] == 0.0:
        roots.append(1.0)
    deduped: list[float] = []
    for rt in roots:
        if not deduped or rt - deduped[-1] > 1e-9:
            deduped.append(rt)
    if not deduped:
        raise EquilibriumError("no sign change found on [0, 1] despite the bracket guarantee")
    return deduped


def _n1_roots(c: _Ctx, n2: float, n3: float) -> list[float]:
    """All Region-1 fixed points in [0, 1] caught by sign scan + bisection."""
    if c.p == 1.0:
        # correction coefficient is identically zero: g(n) = n2 - n exactly
        return [n2]
    return scan_roots(_fixed_point_g(c, n2, n3))


@dataclass
class Candidates:
    """The four candidate holdings; n[0] is the objective-best fixed-point root."""

    n: tuple[float, float, float, float]
    available: tuple[bool, bool, bool, bool]


def _candidates(c: _Ctx) -> Candidates:
    aC = (1.0 - c.y) / (c.delta_C * c.qC)
    aM = c.y / (c.delta_M * c.qM)
    n2 = aC / (aC + aM)
    n3 = 1.0 / (1.0 + (1.0 - c.p) * c.k)
    roots = _n1_roots(c, n2, n3)
    if len(roots) == 1:
        n1 = roots[0]
    else:
        # keep the objective-maximizing root under its own Region-1 prices
        best, best_J = roots[0], -math.inf
        for rt in roots:
            x, sig, kap, r, mu = _region_prices(c, rt)
            val = _J(c, rt, x, r, mu, sig)
            if val > best_J:
                best, best_J = rt, val
        n1 = best
    n = (n1, n2, n3, 1.0)
    avail = tuple(math.isfinite(v) and 0.0 <= v <= 1.0 for v in n)
    return Candidates(n=n, available=avail)



def _result_from_prices(
    c: _Ctx,
    params: ModelParams,
    region: int | str,
    n_C: float,
    x: float,
    sigma: float,
    kappa: float,
    r: float,
    mu: float,
    sigma_y: float | None = None,
    J_tables=None,
    candidates=None,
) -> EquilibriumResult:
    sy = _sigma_y(c, kappa) if sigma_y is None else sigma_y
    my = _mu_y(c, x, kappa, r, sy)
    eq = EquilibriumResult(
        state=MarketState(c.y, c.Lam, c.lam),
        p=c.p,
        region=region,
        exists=True,
        n_C=n_C,
        n_M=1.0 - n_C,
        x_star=x,
        r=r,
        mu=mu,
        sigma=sigma,
        kappa=kappa,
        mu_y=my,
        sigma_y=sy,
        D_over_S=c.D_S,
        D_over_WC=c.D_WC,
        S_over_WC=c.S_WC,
        c_coeff_C=c.qC,
        c_coeff_M=c.qM,
        J_tables=J_tables,
        candidates=candidates,
    )
    derived_quantities(eq, params)
    return eq


def equilibrium(state: MarketState, params: ModelParams) -> EquilibriumResult:
    """Old scalar solve of one state."""
    if state.y in (0.0, 1.0):
        return boundary_equilibrium(state, params)
    c = _context(state, params)
    cands = _candidates(c)

    J_tables: dict[int, tuple[float, float, float, float]] = {}
    priced: dict[int, tuple[float, float, float, float, float]] = {}
    self_consistent: list[int] = []
    for j in range(1, 5):
        if not cands.available[j - 1]:
            continue
        prices = _region_prices(c, cands.n[j - 1])
        priced[j] = prices
        _, sig_j, _, r_j, mu_j = prices
        table = tuple(
            _J(c, cands.n[i], x_star(cands.n[i], c.k, c.p), r_j, mu_j, sig_j)
            if cands.available[i]
            else math.nan
            for i in range(4)
        )
        J_tables[j] = table
        finite = [v for v in table if math.isfinite(v)]
        if finite and table[j - 1] >= max(finite):
            self_consistent.append(j)

    if not self_consistent:
        nan = math.nan
        return EquilibriumResult(
            state=state,
            p=params.p,
            region="nonexistent",
            exists=False,
            n_C=nan,
            n_M=nan,
            x_star=nan,
            r=nan,
            mu=nan,
            sigma=nan,
            kappa=nan,
            mu_y=nan,
            sigma_y=nan,
            D_over_S=c.D_S,
            D_over_WC=c.D_WC,
            S_over_WC=c.S_WC,
            c_coeff_C=c.qC,
            c_coeff_M=c.qM,
            J_tables=J_tables,
            candidates=cands.n,
        )

    j = self_consistent[0]
    n_C = cands.n[j - 1]
    x, sigma, kappa, r, mu = priced[j]
    region: int = j
    if j == 1 and params.p == 1.0:
        region = 2  # constraint vacuous: Regions 1 and 2 coincide with the benchmark
    return _result_from_prices(
        c, params, region, n_C, x, sigma, kappa, r, mu, J_tables=J_tables, candidates=cands.n
    )



def boundary_equilibrium(
    state: MarketState,
    params: ModelParams,
    branch_hint: int | None = None,
) -> EquilibriumResult:
    """Old scalar solve of one state."""
    if state.y not in (0.0, 1.0):
        raise ValueError("boundary equilibrium requires y exactly 0 or 1")
    if branch_hint is not None and branch_hint not in (1, 2, 3, 4):
        raise ValueError(f"branch_hint must be a region in 1..4, got {branch_hint!r}")
    c = _context(state, params)

    if state.y == 0.0:
        n_C = 1.0
        sigma = params.sigma_D - (c.h / c.eps) * c.r1 * c.theta_C
        if params.p == 1.0:
            zero_branch = False
        else:
            if branch_hint is None:
                probe = equilibrium(
                    MarketState(1e-4, state.Lambda, state.lambda_small), params
                )
                if not probe.exists:
                    raise EquilibriumError(
                        "cannot infer the y=0 branch: no interior equilibrium at y=1e-4"
                    )
                branch = probe.region
            else:
                branch = branch_hint
            zero_branch = branch == 4
        kappa = 0.0 if zero_branch else c.sqrt2H * c.eph * c.delta_C * sigma
    else:
        n_C = 0.0
        sigma = params.sigma_D - (c.h / c.eps) * c.r1 * c.theta_M
        kappa = c.sqrt2H * c.eph * c.delta_M * sigma

    x = 0.0
    r = _rate(c, n_C, x, kappa, sigma)
    mu = _mu(c, r, sigma, kappa, x)
    return _result_from_prices(
        c, params, "boundary", n_C, x, sigma, kappa, r, mu, sigma_y=0.0
    )
