"""Exogenous model parameters, derived constants, and configuration files.

Two shareholders (a controlling one who can divert a fraction of the output,
and a protected minority) trade a bond and a stock backed by an output stream
driven by an approximate fractional Brownian motion with Hurst index ``H``
and smoothing parameter ``epsilon``.  Preferences weigh current consumption
and wealth against the cumulated past information ``Lambda`` through a pair
of increasing adjustment functions, the exponentials exp(beta1 Lambda) and
exp(beta2 Lambda).  Every equilibrium formula consumes only their ratio
varphi(Lambda) = exp(beta Lambda), beta = beta1 - beta2, whose first two
logarithmic derivatives are the constants beta and beta^2.

Everything in this module is immutable and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping

__all__ = [
    "ModelParams",
    "DerivedParams",
    "BASE_PARAMS",
    "validate",
    "derive_constants",
    "load_config",
    "params_from_config",
]


@dataclass(frozen=True)
class ModelParams:
    """All exogenous constants of the economy.

    Attributes:
        mu_D: mean growth rate of the output, per unit time.
        sigma_D: output volatility, > 0.
        H: Hurst index in (0, 1); H = 1/2 is the memoryless Brownian case.
        epsilon: smoothing parameter of the kernel (t - s + epsilon), > 0.
        gamma_C: risk aversion of the controlling shareholder, > 1.
        gamma_M: risk aversion of the minority shareholder, >= gamma_C.
        alpha_C: controlling shareholder's trade-off in (0, 1] between
            current and past information (1 means the past drops out).
        alpha_M: same for the minority shareholder.
        rho: time-preference rate, > 0.
        k: magnitude of the quadratic output-diversion cost, > 0.
        p: investor protection in [0, 1]; diversion is capped by
            (1 - p) * n_C and p = 1 is the full-protection benchmark.
        l_C: labor-income share of the controlling shareholder.
        l_M: labor-income share of the minority shareholder; l_C + l_M < 1.
        beta1: wealth-adjustment exponent, >= 0.
        beta2: consumption-adjustment exponent, 0 <= beta2 <= beta1.
            Defaults to 0 (pure wealth adjustment): consumption carries the
            necessary part of spending and should react less to the past.
    """

    mu_D: float
    sigma_D: float
    H: float
    epsilon: float
    gamma_C: float
    gamma_M: float
    alpha_C: float
    alpha_M: float
    rho: float
    k: float
    p: float
    l_C: float
    l_M: float
    beta1: float
    beta2: float = 0.0

    @property
    def beta(self) -> float:
        """Net adjustment exponent beta1 - beta2 of the ratio varphi."""
        return self.beta1 - self.beta2


#: Baseline calibration used throughout the numerical experiments and demos.
BASE_PARAMS = ModelParams(
    mu_D=0.015,
    sigma_D=0.13,
    H=0.65,
    epsilon=0.1,
    gamma_C=3.0,
    gamma_M=3.5,
    alpha_C=0.5,
    alpha_M=0.75,
    rho=0.05,
    k=3.0,
    p=0.6,
    l_C=0.1,
    l_M=0.5,
    beta1=0.1,
    beta2=0.0,
)


@dataclass(frozen=True)
class DerivedParams:
    """Composite constants implied by :class:`ModelParams`.

    h = H - 1/2; delta_i = 1 - alpha_i (1 - gamma_i) > 0;
    theta_i = 1 - gamma_i / delta_i <= 0 (zero exactly when alpha_i = 1);
    beta = beta1 - beta2 and beta_i = beta * theta_i.
    """

    h: float
    delta_C: float
    delta_M: float
    theta_C: float
    theta_M: float
    beta: float
    beta_C: float
    beta_M: float


def _domain_errors(q: ModelParams) -> list[str]:
    """The hard errors of a parameter set whose fields are all finite reals."""
    errors: list[str] = []
    if q.sigma_D <= 0:
        errors.append("sigma_D must be positive")
    if not 0.0 < q.H < 1.0:
        errors.append("H must lie in (0, 1)")
    if q.epsilon <= 0:
        errors.append("epsilon must be positive")
    if q.gamma_C <= 1:
        errors.append("gamma_C must exceed 1")
    if q.gamma_M <= 1:
        errors.append("gamma_M must exceed 1")
    if q.gamma_M < q.gamma_C:
        errors.append("gamma_M must be >= gamma_C (controlling shareholder is less risk averse)")
    for name in ("alpha_C", "alpha_M"):
        a = getattr(q, name)
        if not 0.0 < a <= 1.0:
            errors.append(f"{name} must lie in (0, 1]")
    if q.rho <= 0:
        errors.append("rho must be positive")
    if q.k <= 0:
        errors.append("k must be positive")
    if not 0.0 <= q.p <= 1.0:
        errors.append("p must lie in [0, 1]")
    if q.l_C < 0 or q.l_M < 0:
        errors.append("labor shares must be nonnegative")
    if q.l_C + q.l_M >= 1:
        errors.append("l_C + l_M must be below 1")
    if q.beta1 < 0 or q.beta2 < 0:
        errors.append("beta1 and beta2 must be nonnegative")
    if q.beta2 > q.beta1:
        errors.append("beta2 must not exceed beta1")
    return errors


def validate(params: ModelParams) -> list[str]:
    """Check the hard invariants and return the soft advisories (warnings).

    Hard errors mark parameter sets under which the model is mathematically
    undefined; warnings flag values the calibration guidance argues against
    (an extreme epsilon makes the modified output volatility implausible,
    though epsilon = 1e-5 is still useful for comparisons).  Every entry
    point that rejects invalid parameters does so through here.

    Raises:
        ValueError: ``invalid parameters: `` followed by every hard error,
            joined by ``; ``.
    """
    errors: list[str] = []
    for f in fields(params):
        v = getattr(params, f.name)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{f.name} must be a finite real, got {v!r}")
    errors = errors or _domain_errors(params)
    if errors:
        raise ValueError("invalid parameters: " + "; ".join(errors))
    if not 0.01 < params.epsilon < 1.0:
        return [
            f"epsilon = {params.epsilon:g} is outside the recommended interval (0.01, 1); "
            "the modified output volatility sqrt(2H) eps^(H-1/2) sigma_D becomes extreme"
        ]
    return []


def derive_constants(params: ModelParams) -> DerivedParams:
    """Evaluate the composite constants. Pure and deterministic."""
    delta_C = 1.0 - params.alpha_C * (1.0 - params.gamma_C)
    delta_M = 1.0 - params.alpha_M * (1.0 - params.gamma_M)
    theta_C = 1.0 - params.gamma_C / delta_C
    theta_M = 1.0 - params.gamma_M / delta_M
    beta = params.beta1 - params.beta2
    return DerivedParams(
        h=params.H - 0.5,
        delta_C=delta_C,
        delta_M=delta_M,
        theta_C=theta_C,
        theta_M=theta_M,
        beta=beta,
        beta_C=beta * theta_C,
        beta_M=beta * theta_M,
    )


# ---------------------------------------------------------------------------
# Flat key = value configuration files


def load_config(path) -> dict[str, str]:
    """Read a flat ``key = value`` config file (UTF-8, ``#`` comments).

    Returns the raw string values keyed by name; later assignments win.

    Raises:
        ValueError: on a line that is neither blank, comment, nor assignment
            (the message carries the 1-based line number).
    """
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


_REQUIRED_KEYS = tuple(f.name for f in fields(ModelParams) if f.name != "beta2")


def params_from_config(cfg: Mapping[str, str]) -> ModelParams:
    """Build :class:`ModelParams` from config values named after its fields.

    ``beta2`` may be omitted and defaults to 0.  Unknown keys are ignored so
    the same file can carry grid and sweep settings for the command line.

    Raises:
        ValueError: on missing keys or non-numeric values.
    """
    missing = [k for k in _REQUIRED_KEYS if k not in cfg]
    if missing:
        raise ValueError(f"config is missing parameter keys: {', '.join(missing)}")
    kwargs = {}
    for f in fields(ModelParams):
        if f.name not in cfg:
            continue
        try:
            kwargs[f.name] = float(cfg[f.name])
        except ValueError:
            raise ValueError(f"config key {f.name} is not a number: {cfg[f.name]!r}") from None
    return ModelParams(**kwargs)
