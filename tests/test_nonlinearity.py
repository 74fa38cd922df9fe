"""Nonlinearity families, assumption checkers, G and the threshold constant."""

import math

import numpy as np
import pytest

from logchoquard import nonlinearity as nl
from logchoquard.errors import InvalidParameterError
from logchoquard.spaces import EXP_GUARD, PeriodicCoefficient

F1 = nl.NonlinearitySpec("exp_minus_one")
F2 = nl.NonlinearitySpec("power_exp", p=2.0, q=2.0)
F3 = nl.NonlinearitySpec("piecewise", p=2.0, q=3.0, s0=1.2)


def test_F_vanishes_at_zero():
    for spec in (F1, F2, F3):
        assert nl.eval_F(spec, 0.0) == 0.0
        assert nl.eval_f(spec, 0.0) == 0.0
        assert nl.eval_F(spec, -1.0) == 0.0
        assert nl.eval_f(spec, -3.0) == 0.0


def test_F1_closed_form_value():
    # F1(0.5) = e^pi - 1
    assert abs(nl.eval_F(F1, 0.5) - (math.exp(math.pi) - 1.0)) < 1e-10
    assert abs(nl.eval_F(F1, 0.5) - 22.1407) < 1e-3


def test_f_is_derivative_of_F():
    s = np.linspace(0.05, 2.0, 40)
    h = 1e-6
    for spec in (F1, F2, F3):
        fd = (nl.eval_F(spec, s + h) - nl.eval_F(spec, s - h)) / (2 * h)
        f = nl.eval_f(spec, s)
        mask = np.abs(s - getattr(spec, "s0", -1)) > 1e-2  # skip the splice kink
        assert np.allclose(fd[mask], f[mask], rtol=1e-6)


def test_fprime_is_derivative_of_f():
    s = np.linspace(0.05, 2.0, 40)
    h = 1e-6
    for spec in (F1, F2):
        fd = (nl.eval_f(spec, s + h) - nl.eval_f(spec, s - h)) / (2 * h)
        assert np.allclose(fd, nl.eval_f_prime(spec, s), rtol=1e-5)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("spec", [F1, F2, F3], ids=lambda spec: spec.kind)
def test_closed_form_value_matches_log_form(spec, k):
    s = np.geomspace(1e-3, 12.0, 4000)
    val = nl._evaluate(spec, s, k)
    log_form = nl._evaluate(spec, s, k, log=True)
    sat = nl.saturation_mask(spec, s)
    plain = np.isfinite(val) & ~sat
    assert np.allclose(np.log(val[plain]), log_form[plain], rtol=1e-12, atol=1e-12)
    assert sat.any() and np.all(np.isfinite(val[sat]))
    assert np.array_equal(val[sat], np.exp(np.minimum(log_form[sat], EXP_GUARD)))


def test_piecewise_continuous_at_splice():
    left = nl.eval_F(F3, F3.s0 - 1e-12)
    right = nl.eval_F(F3, F3.s0 + 1e-12)
    assert abs(left - right) < 1e-9 * max(left, 1.0)


def test_piecewise_log_form_survives_an_underflowing_splice_constant():
    # c = s0^(q-p) e^{-4 pi s0^2} is 0 in floats from s0 ~ 7.7 on; log F above
    # the splice is log c + p log s + 4 pi s^2 all the same
    spec = nl.NonlinearitySpec("piecewise", p=2.0, q=3.0, s0=10.0)
    s = 12.0
    log_c = math.log(10.0) - 4 * math.pi * 100.0
    assert nl.log_F(spec, s) == pytest.approx(log_c + 2 * math.log(s)
                                              + 4 * math.pi * s**2, rel=1e-14)


def test_growth_bracket_overflows_to_inf_not_an_exception():
    # [q]!/2^([q]-1) stays exact while it fits a float: 2.5 at q = 2
    assert nl.growth_bracket(2.0, 1.0, math.e - 1) == 1.0 + 2.5
    assert nl.growth_bracket(170.0, 1.0, 0.5) < math.inf    # 170! alone fills a float
    for q in (400.0, 1e300):
        assert nl.growth_bracket(q, 1.0, 0.5) == math.inf


def test_ratio_F1_small_s_limit():
    # series oracle: (1 - e^{-4 pi s^2}) (1 + 8 pi s^2) / (8 pi s^2) -> 1/2
    s = np.geomspace(1e-8, 1e-4, 50)
    x = 4 * np.pi * s**2
    oracle = -np.expm1(-x) * (1 + 2 * x) / (2 * x)
    vals = nl.ratio_Ffprime_f2(F1, s)
    assert np.allclose(vals, oracle, rtol=1e-10)
    assert abs(nl.ratio_Ffprime_f2(F1, 1e-8) - 0.5) < 1e-6


def test_ratio_F1_large_s():
    assert abs(nl.ratio_Ffprime_f2(F1, 10.0) - 1.0) < 1e-3


def test_ratio_piecewise_constant_below_splice():
    s = np.linspace(0.05, F3.s0 * 0.99, 20)
    assert np.allclose(nl.ratio_Ffprime_f2(F3, s), (F3.q - 1) / F3.q)


def test_ratio_within_f2_band():
    report = nl.check_assumptions(F1)
    s = np.geomspace(1e-3, 10.0, 500)
    vals = nl.ratio_Ffprime_f2(F1, s)
    assert np.all(vals >= report.delta_estimate)
    assert np.all(vals <= report.C_estimate)


def test_G_at_zero_and_monotone():
    assert nl.G_auxiliary(F1, 0.0) == 0.0
    g1 = nl.G_auxiliary(F1, 1.0)
    g2 = nl.G_auxiliary(F1, 2.0)
    assert 0.0 < g1 < g2


def test_G_upper_bound():
    #  G^2(t) <= t^2 - t F(t)/f(t)
    for t in (0.5, 1.0, 2.0):
        assert nl.G_upper_bound_residual(F1, t) > -1e-8


def test_check_assumptions_F1():
    report = nl.check_assumptions(F1)
    assert report.f1_ok and report.f2_ok and report.f3_ok and report.f4_ok
    assert abs(report.delta_estimate - 0.5) < 0.02
    assert abs(report.f3_limit_estimate - 1.0) < 1e-3
    assert report.ar_improved_ok


def test_check_assumptions_F2_growth():
    report = nl.check_assumptions(F2)
    assert report.f4_ok
    assert report.f4_liminf_estimate > 1e3 * report.script_V


def test_G_lower_bound_chain():
    report = nl.check_assumptions(F1)
    assert nl.G_lower_bound_holds(F1, report, np.geomspace(0.01, 8.0, 200))


def test_saturation_mask():
    assert not nl.saturation_mask(F1, 5.0)
    assert nl.saturation_mask(F1, 10.0)
    assert np.isfinite(nl.eval_F(F1, 10.0))


def test_custom_spec_quadrature():
    spec = nl.NonlinearitySpec(
        "custom", q=4.0,
        f_callable=lambda s: 4.0 * s**3,
        f_prime_callable=lambda s: 12.0 * s**2)
    s = np.array([0.3, 1.0, 1.7])
    assert np.allclose(nl.eval_F(spec, s), s**4, rtol=1e-8)
    assert np.allclose(nl.ratio_Ffprime_f2(spec, s), 0.75, rtol=1e-8)


def test_custom_spec_requires_callables():
    with pytest.raises(InvalidParameterError):
        nl.NonlinearitySpec("custom", q=2.0)


@pytest.mark.parametrize("field", ["p", "q", "s0"])
def test_spec_rejects_nan_parameters(field):
    with pytest.raises(InvalidParameterError):
        nl.NonlinearitySpec("power_exp", **{"p": 2.0, "q": 2.0, field: math.nan})


@pytest.mark.parametrize("floor, amplitude", [(math.nan, 0.0), (1.0, math.nan)])
def test_periodic_coefficient_rejects_nan(floor, amplitude):
    with pytest.raises(InvalidParameterError):
        PeriodicCoefficient(floor, amplitude)


def test_ratio_signals_vanishing_f():
    # f that dies above s = 1: the ratio must signal the division by zero
    spec = nl.NonlinearitySpec(
        "custom", q=2.0,
        f_callable=lambda s: np.maximum(1.0 - s, 0.0) * s,
        f_prime_callable=lambda s: np.where(s < 1.0, 1.0 - 2.0 * s, 0.0))
    with pytest.raises(ZeroDivisionError):
        nl.ratio_Ffprime_f2(spec, np.array([0.5, 2.0]))


def test_script_V_q2_closed_form():
    # at q = 2 the bracket reduces to V_half + (5/2) log(1 + rho)
    value, argmin = nl.compute_script_V(2.0, 1.0)
    endpoint = 16.0 / np.pi**3 * math.exp(0.25 * (1.0 + 2.5 * math.log(1.5)))
    assert abs(value - endpoint) < 1e-12 * endpoint
    assert argmin == 0.5
    assert abs(value - 0.85) < 0.01


def test_script_V_dense_scan_oracle():
    rho = np.linspace(0.5 / 1_000_000, 0.5, 1_000_000)
    bracket = 1.0 + 2.5 * np.log1p(rho)
    oracle = float(np.min(rho**-4.0 * np.exp(rho**2 * bracket) / np.pi**3))
    value, _ = nl.compute_script_V(2.0, 1.0)
    assert abs(value - oracle) < 1e-6 * oracle


def test_script_V_increasing_in_V_half():
    v1, _ = nl.compute_script_V(2.0, 1.0)
    v2, _ = nl.compute_script_V(2.0, 1.5)
    assert v2 > v1


def test_script_V_diverges_at_zero():
    small = nl.script_V_integrand(1e-3, 2.0, 1.0)
    value, argmin = nl.compute_script_V(2.0, 1.0)
    assert small > 1e6 * value
    assert argmin > 0.01


def test_script_V_half_integer_q():
    value, argmin = nl.compute_script_V(2.5, 1.0)
    assert np.isfinite(value) and 0.0 < argmin <= 0.5


def test_estimate_sfF_probe():
    # s f(s) F(s) >= (beta/2) s^-2 e^{8 pi s^2} for s past the onset
    beta = 1.0
    s = np.geomspace(0.5, 9.0, 200)
    lhs_log = np.log(s) + nl.log_f(F1, s) + nl.log_F(F1, s)
    rhs_log = math.log(beta / 2) - 2 * np.log(s) + 8 * np.pi * s**2
    holds = lhs_log >= rhs_log
    assert holds[-1]
    onset = np.nonzero(holds)[0][0]
    assert np.all(holds[onset:])
