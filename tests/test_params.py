import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fbmecon import (
    BASE_PARAMS,
    MarketState,
    derive_constants,
    equilibrium_batch,
    load_config,
    params_from_config,
    validate,
)
from fbmecon.equilibrium import _context


def test_base_params_pass_validation():
    assert validate(BASE_PARAMS) == []


def test_derived_constants_frozen_examples():
    d = derive_constants(BASE_PARAMS)
    # gamma_C=3, alpha_C=0.5: delta = 1 - 0.5(1-3) = 2, theta = 1 - 3/2
    assert d.delta_C == 2.0
    assert d.theta_C == -0.5
    # gamma_M=3.5, alpha_M=0.75: delta = 2.875, theta = -5/23
    assert d.delta_M == 2.875
    assert math.isclose(d.theta_M, -5.0 / 23.0, rel_tol=1e-15)
    assert d.h == BASE_PARAMS.H - 0.5
    assert d.beta == 0.1


def test_alpha_one_kills_theta():
    p = replace(BASE_PARAMS, alpha_C=1.0, alpha_M=1.0)
    d = derive_constants(p)
    assert d.delta_C == p.gamma_C and d.delta_M == p.gamma_M
    assert d.theta_C == 0.0 and d.theta_M == 0.0


def test_derive_constants_is_pure():
    a = derive_constants(BASE_PARAMS)
    b = derive_constants(BASE_PARAMS)
    assert a == b  # bitwise: dataclass equality on identical floats


@given(
    gamma_C=st.floats(1.0 + 1e-9, 60.0),
    bump=st.floats(0.0, 30.0),
    alpha_C=st.floats(1e-6, 1.0),
    alpha_M=st.floats(1e-6, 1.0),
)
def test_derived_invariants_property(gamma_C, bump, alpha_C, alpha_M):
    p = replace(BASE_PARAMS, gamma_C=gamma_C, gamma_M=gamma_C + bump,
                alpha_C=alpha_C, alpha_M=alpha_M)
    validate(p)
    d = derive_constants(p)
    assert d.delta_C > 0 and d.delta_M > 0
    assert d.theta_C <= 0 and d.theta_M <= 0
    # alpha = 1 kills theta exactly; away from 1 it stays strictly negative
    # (alpha within an ulp of 1 can round theta to zero, so test one-sided)
    if alpha_C == 1.0:
        assert d.theta_C == 0.0
    elif alpha_C < 0.999:
        assert d.theta_C < 0.0
    if alpha_M == 1.0:
        assert d.theta_M == 0.0
    elif alpha_M < 0.999:
        assert d.theta_M < 0.0


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("gamma_C", 0.5, "gamma_C"),
        ("sigma_D", -0.1, "sigma_D"),
        ("H", 1.2, "H"),
        ("epsilon", 0.0, "epsilon"),
        ("p", 1.5, "p"),
        ("k", 0.0, "k"),
        ("l_M", 0.95, "l_C + l_M"),
        ("beta2", 0.5, "beta2"),
    ],
)
def test_validation_errors(field, value, fragment):
    with pytest.raises(ValueError, match=r"^invalid parameters: .*" + re.escape(fragment)):
        validate(replace(BASE_PARAMS, **{field: value}))


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("gamma_M", 1.0, "gamma_M must exceed 1"),
        ("alpha_C", 0.0, "alpha_C must lie in (0, 1]"),
        ("alpha_M", 1.5, "alpha_M must lie in (0, 1]"),
        ("rho", 0.0, "rho must be positive"),
        ("l_C", -0.1, "labor shares must be nonnegative"),
        ("beta1", -0.1, "beta1 and beta2 must be nonnegative"),
    ],
)
def test_validation_errors_of_every_domain_check(field, value, fragment):
    with pytest.raises(ValueError, match=r"^invalid parameters: (.*; )?" + re.escape(fragment)):
        validate(replace(BASE_PARAMS, **{field: value}))


def test_gamma_ordering_enforced():
    with pytest.raises(ValueError, match=r"^invalid parameters: .*gamma_M must be >= gamma_C"):
        validate(replace(BASE_PARAMS, gamma_C=3.6))


def test_small_epsilon_warns_but_passes():
    assert len(validate(replace(BASE_PARAMS, epsilon=1e-5))) == 1


def test_nonfinite_rejected():
    with pytest.raises(ValueError, match=r"^invalid parameters: mu_D must be a finite real"):
        validate(replace(BASE_PARAMS, mu_D=float("nan")))


# ---------------------------------------------------------------------------
# Adjustment family: varphi(Lambda) = exp(beta Lambda) with beta = beta1 - beta2,
# as the equilibrium solver evaluates it over a batch of memory levels


def adjust(beta, *levels):
    """(varphi, varphi'/varphi, varphi''/varphi) and each level's failure: varphi
    per level, and the solver's constant r1 = beta with r1 * r1, as it forms them."""
    c, fail = _context(replace(BASE_PARAMS, beta1=beta), np.full(len(levels), 0.5), levels, 0.0, BASE_PARAMS.p)
    return c.varphi, c.r1, c.r1 * c.r1, fail.err


def test_adjustment_at_zero():
    varphi, r1, r2, err = adjust(0.1, 0.0)
    assert varphi.tolist() == [1.0] and (r1, r2) == (0.1, 0.1 * 0.1)
    assert err == [None]


def test_adjustment_frozen_value():
    varphi, r1, r2, _ = adjust(0.1, 5.0)
    assert math.isclose(varphi[0], 1.6487212707001282, rel_tol=1e-15)  # e^0.5, mpmath
    assert r1 == 0.1 and r2 == 0.010000000000000002


def test_zero_beta_recovers_memoryless():
    varphi, r1, r2, err = adjust(0.0, -7.0, 0.0, 3.5)
    assert varphi.tolist() == [1.0, 1.0, 1.0] and (r1, r2) == (0.0, 0.0)
    assert err == [None] * 3


def test_nonfinite_lambda_rejected():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            MarketState(0.5, bad)
        (res,) = equilibrium_batch(0.5, bad, 0.0, BASE_PARAMS)
        assert isinstance(res, ValueError) and "memory levels must be finite" in str(res)


@pytest.mark.parametrize("beta", [0.0, 0.05, 0.1, 0.7])
@pytest.mark.parametrize("lam", [-5.0, -0.3, 0.0, 1.0, 5.0])
def test_adjustment_smoothness(beta, lam):
    # centered finite difference of varphi vs varphi * ratio1 at step 1e-5
    step = 1e-5
    (lo, v, hi), r1, _, _ = adjust(beta, lam - step, lam, lam + step)
    assert math.isclose((hi - lo) / (2 * step), v * r1, rel_tol=1e-6, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Config files


def test_config_roundtrip(tmp_path):
    cfg_file = tmp_path / "base.cfg"
    lines = ["# baseline calibration"]
    for name in ("mu_D", "sigma_D", "H", "epsilon", "gamma_C", "gamma_M",
                 "alpha_C", "alpha_M", "rho", "k", "p", "l_C", "l_M", "beta1", "beta2"):
        lines.append(f"{name} = {getattr(BASE_PARAMS, name)!r}   # {name}")
    cfg_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    params = params_from_config(load_config(cfg_file))
    assert params == BASE_PARAMS


def test_config_beta2_defaults_to_zero(tmp_path):
    cfg_file = tmp_path / "p.cfg"
    body = "\n".join(
        f"{n} = {getattr(BASE_PARAMS, n)!r}"
        for n in ("mu_D", "sigma_D", "H", "epsilon", "gamma_C", "gamma_M",
                  "alpha_C", "alpha_M", "rho", "k", "p", "l_C", "l_M", "beta1")
    )
    cfg_file.write_text(body + "\n", encoding="utf-8")
    assert params_from_config(load_config(cfg_file)).beta2 == 0.0


def test_config_missing_key(tmp_path):
    cfg_file = tmp_path / "p.cfg"
    cfg_file.write_text("mu_D = 0.015\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing"):
        params_from_config(load_config(cfg_file))


def test_config_bad_line(tmp_path):
    cfg_file = tmp_path / "p.cfg"
    cfg_file.write_text("mu_D 0.015\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        load_config(cfg_file)


def test_config_bad_number(tmp_path):
    cfg_file = tmp_path / "p.cfg"
    body = "\n".join([f"{n} = 0.1" for n in
                      ("sigma_D", "H", "epsilon", "gamma_C", "gamma_M", "alpha_C", "alpha_M",
                       "rho", "k", "p", "l_C", "l_M", "beta1")] + ["mu_D = abc"])
    cfg_file.write_text(body + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="mu_D"):
        params_from_config(load_config(cfg_file))


def test_model_params_is_immutable():
    with pytest.raises(Exception):
        BASE_PARAMS.mu_D = 1.0  # type: ignore[misc]
