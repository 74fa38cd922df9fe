"""Nonlinearity families, assumption checkers and the threshold constant."""

import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
    assert nl._evaluate(spec, s, 0, log=True) == pytest.approx(
        log_c + 2 * math.log(s) + 4 * math.pi * s**2, rel=1e-14)


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


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 5.0, 40.0])
def test_power_exp_ratio_matches_quotient_of_polynomials(p):
    # F f'/f^2 = P_2 / P_1^2, evaluated term by term over P_1 so that nothing
    # overflows; it differs from the plain quotient by rounding only, also at
    # p = 1, where the ratio falls to 0 like s^2
    spec = nl.NonlinearitySpec("power_exp", p=p, q=max(p, 2.0))
    s = np.geomspace(1e-8, 10.0, 400)
    a = nl.A_CRIT
    p1 = p + 2 * a * s**2
    p2 = p * (p - 1) + 2 * a * (2 * p + 1) * s**2 + 4 * a**2 * s**4
    assert np.allclose(nl.ratio_Ffprime_f2(spec, s), p2 / p1**2,
                       rtol=1e-13, atol=0.0)


def test_power_exp_f2_estimates_finite_past_the_square_overflow():
    # p = q = 2^512: P_1^2 overflows, yet the (f2) estimates stay finite
    # and agree with those at p = q = 1e150, where nothing overflows
    huge, large = (nl.check_assumptions(nl.NonlinearitySpec("power_exp", p=p, q=p))
                   for p in (1.3407807929942597e+154, 1e150))
    for report in (huge, large):
        assert report.f2_ok and report.f3_ok
        for value in (report.delta_estimate, report.C_estimate):
            assert math.isfinite(value)
    assert huge.delta_estimate == pytest.approx(large.delta_estimate, rel=1e-12)
    assert huge.C_estimate == pytest.approx(large.C_estimate, rel=1e-12)


@pytest.mark.parametrize("q", [1e8, 1e16, 1e150])
def test_power_exp_q_limit_and_ar_margin_are_exact(q):
    # on F = s^q e^{a s^2}, f/s^(q-1) = P_1(s) e^{a s^2} -> q at 0 and
    # F/(s f) = 1/P_1(s) <= 1/q: no power of s is formed
    report = nl.check_assumptions(nl.NonlinearitySpec("power_exp", p=q, q=q))
    assert report.q_limit == q
    assert report.ar_improved_ok


def test_ratio_within_f2_band():
    report = nl.check_assumptions(F1)
    s = np.geomspace(1e-3, 10.0, 500)
    vals = nl.ratio_Ffprime_f2(F1, s)
    assert np.all(vals >= report.delta_estimate)
    assert np.all(vals <= report.C_estimate)


def test_check_assumptions_F1():
    report = nl.check_assumptions(F1)
    assert report.f1_ok and report.f2_ok and report.f3_ok and report.f4_ok
    # inf F f'/f^2 = 1/2 is the limit at 0, and F/(s f) <= 1/2 with it
    assert report.delta_estimate == 0.99 * 0.5
    assert report.q_limit == 2 * nl.A_CRIT
    assert report.ar_improved_ok


def test_check_assumptions_F2_growth():
    # s^3 f F e^{-8 pi s^2} = s^6 (2 + 8 pi s^2) grows like s^8
    report = nl.check_assumptions(F2)
    assert report.f4_ok
    assert report.f4_tail_power == 8.0


def test_s_epsilon_is_the_splice_when_only_the_power_piece_falls_short():
    # with s0 = 20 the power piece s^2 fills (0, 20], where
    # sqrt(F f' / f^2) = sqrt(1/2) < 1 - eps; the exponential piece from the
    # splice on stays above (1 - eps)^2
    spec = nl.NonlinearitySpec("piecewise", q=2.0, s0=20.0)
    report = nl.check_assumptions(spec)
    assert math.sqrt(nl.ratio_Ffprime_f2(spec, 19.9)) < 1.0 - report.epsilon
    s = np.geomspace(20.0 + 1e-9, 1e3, 1000)
    assert np.all(np.sqrt(nl.ratio_Ffprime_f2(spec, s)) >= 1.0 - report.epsilon)
    assert report.s_epsilon == 20.0


def test_saturation_mask():
    assert not nl.saturation_mask(F1, 5.0)
    assert nl.saturation_mask(F1, 10.0)
    assert np.isfinite(nl.eval_F(F1, 10.0))


@pytest.mark.parametrize("field, value", [
    ("p", math.nan), ("q", math.nan), ("s0", math.nan),
    ("kind", "custom")],                # not one of nl.KINDS
    ids=["p", "q", "s0", "custom"])
def test_spec_rejects_nan_parameters(field, value):
    with pytest.raises(InvalidParameterError):
        nl.NonlinearitySpec(**{"kind": "power_exp", "p": 2.0, "q": 2.0,
                               field: value})


@pytest.mark.parametrize("floor, amplitude", [(math.nan, 0.0), (1.0, math.nan)])
def test_periodic_coefficient_rejects_nan(floor, amplitude):
    with pytest.raises(InvalidParameterError):
        PeriodicCoefficient(floor, amplitude)


def test_script_V_q2_closed_form():
    # at q = 2 the bracket reduces to V_half + (5/2) log(1 + rho)
    value, argmin = nl.compute_script_V(2.0, 1.0)
    endpoint = 16.0 / np.pi**3 * math.exp(0.25 * (1.0 + 2.5 * math.log(1.5)))
    assert abs(value - endpoint) < 1e-12 * endpoint
    assert argmin == 0.5
    assert abs(value - 0.85) < 0.01


@pytest.mark.parametrize("q, V_half", [(6.0, 2.0), (5.0, 1.0), (8.0, 0.5)])
def test_script_V_interior_minimum_matches_a_fine_scan(q, V_half):
    # these minima lie inside (0, 1/2), where the parabola through the
    # coarse scan's least point and its neighbours places them; a scan over
    # 10^4 times finer around that argmin is the oracle
    value, argmin = nl.compute_script_V(q, V_half)
    assert argmin < 0.49
    rho = np.linspace(argmin - 1e-4, argmin + 1e-4, 1_000_000)
    vals = nl.script_V_integrand(rho, q, V_half)
    j = int(np.argmin(vals))
    assert abs(value - vals[j]) <= 1e-13 * vals[j]
    assert abs(argmin - rho[j]) <= 1e-8


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


@pytest.mark.parametrize("q, V_half", [(q, v) for q in (16.0, 20.0, 50.0, 100.0)
                                       for v in (0.5, 1.0, 2.0)])
def test_script_V_small_radius_minimum_matches_log_scans(q, V_half):
    # these minima lie at rho from 7e-5 (q = 16) down to 2e-64 (q = 100),
    # below any linear scan of (0, 1/2]; a log-spaced scan bounds the value
    # from above, and a scan 10^4 times finer around the argmin is the oracle
    value, argmin = nl.compute_script_V(q, V_half)
    coarse = nl.script_V_integrand(np.geomspace(1e-77, 0.5, 200_001), q, V_half)
    assert value <= (1.0 + 1e-12) * np.min(coarse)
    rho = np.linspace(argmin * (1.0 - 1e-4), argmin * (1.0 + 1e-4), 1_000_000)
    vals = nl.script_V_integrand(rho, q, V_half)
    j = int(np.argmin(vals))
    assert abs(value - vals[j]) <= 1e-13 * vals[j]
    assert abs(argmin - rho[j]) <= 1e-6 * argmin


def test_script_V_is_inf_where_the_minimum_overflows():
    # at q = 170 the minimum lies near rho = 1e-128, where rho^-4 alone
    # passes the float range
    value, _ = nl.compute_script_V(170.0, 1.0)
    assert value == math.inf


@settings(max_examples=200, deadline=None)
@given(q=st.floats(2.0, 150.0), log_v=st.floats(math.log(1e-3), math.log(1e3)),
       s=st.floats(-177.0, math.log(0.5)), h=st.floats(1e-6, 50.0))
def test_log_threshold_is_convex_in_log_rho(q, log_v, s, h):
    # the search for the threshold relies on this: log of the integrand,
    # -4 s + e^{2s} bracket(e^s) - 3 log pi, has non-negative second
    # differences in s = log rho
    lo, hi = -177.0, math.log(0.5)
    h = min(h, s - lo, hi - s)
    assume(h > 0)

    def log_integrand(t):
        return -4.0 * t + math.exp(2.0 * t) * nl.growth_bracket(
            q, math.exp(log_v), math.exp(t)) - 3.0 * math.log(math.pi)
    left, mid, right = (log_integrand(t) for t in (s - h, s, s + h))
    assert left - 2.0 * mid + right >= -1e-13 * (abs(left) + 2.0 * abs(mid)
                                                 + abs(right))


def test_script_V_traced_peak_is_bounded():
    # the search evaluates scalars only: no array of radii is held
    nl.compute_script_V(2.0, 1.0)
    tracemalloc.start()
    try:
        nl.compute_script_V(2.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e5


def test_estimate_sfF_probe():
    # s f(s) F(s) >= (beta/2) s^-2 e^{8 pi s^2} for s past the onset
    beta = 1.0
    s = np.geomspace(0.5, 9.0, 200)
    lhs_log = (np.log(s) + nl._evaluate(F1, s, 1, log=True)
               + nl._evaluate(F1, s, 0, log=True))
    rhs_log = math.log(beta / 2) - 2 * np.log(s) + 8 * np.pi * s**2
    holds = lhs_log >= rhs_log
    assert holds[-1]
    onset = np.nonzero(holds)[0][0]
    assert np.all(holds[onset:])


# a 40-digit oracle for check_assumptions ------------------------------------

D = decimal.Decimal


def _dec_ratio(p, a, s):
    """F f' / f^2 = P_2 / P_1^2 on a piece c s^p e^{a s^2}, from the first
    two derivatives of s^p e^{a s^2}, in the current decimal context."""
    p1 = p + 2 * a * s * s
    p2 = p * (p - 1) + 2 * a * (2 * p + 1) * s * s + 4 * a * a * s ** 4
    return p2 / (p1 * p1)


def _dec_bisect(g, lo, hi, steps=200):
    """The root of g on [lo, hi], where g(lo) < 0 < g(hi)."""
    for _ in range(steps):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
    return (lo + hi) / 2


def _dec_oracle(spec):
    """(inf and sup of F f'/f^2, its onset of (1 - eps)^2, sup F/(s f),
    f/s^(q-1) at s = 1e-200) of a power_exp or piecewise spec.  Each piece
    c s^p e^{a s^2} on [lo, hi) is read at its ends and at its one critical
    point x = 2a s^2 = 3p, and a 60-point scan of it stays inside the
    bounds; the onset is bisected."""
    a, p, q, s0 = D(nl.A_CRIT), D(spec.p), D(spec.q), D(spec.s0)
    if spec.kind == "piecewise":       # F = s^q below the splice
        pieces, f_small = [(q, D(0), D(0), s0), (p, a, s0, None)], q
    else:
        pieces = [(p, a, D(0), None)]
        tiny = D("1e-200")
        f_small = tiny ** (p - q) * (p + 2 * a * tiny * tiny) * (a * tiny * tiny).exp()
    floor = (1 - D(nl.ONSET_EPSILON)) ** 2
    values, onset, ar_sup = [], D(0), D(0)
    for pp, aa, lo, hi in pieces:
        ends = [lo, hi if hi is not None else D("1e30")]
        peak = (3 * pp / (2 * aa)).sqrt() if aa else None
        points = ends + ([peak] if peak is not None and peak > lo
                         and (hi is None or peak < hi) else [])
        piece = [_dec_ratio(pp, aa, s) for s in points]
        values += piece
        top = hi if hi is not None else D(10)
        scan = [lo + (top - lo) * D(i) / 60 for i in range(61)]
        assert all(min(piece) - D("1e-30") <= _dec_ratio(pp, aa, s)
                   <= max(piece) + D("1e-30") for s in scan)
        if _dec_ratio(pp, aa, lo) < floor:
            onset = hi if not aa else _dec_bisect(
                lambda s: _dec_ratio(pp, aa, s) - floor, lo, peak)
        ar_sup = max(ar_sup, 1 / (pp + 2 * aa * lo * lo))
    return min(values), max(values), onset, ar_sup, f_small


ORACLE_SPECS = [nl.NonlinearitySpec("power_exp", p=p, q=q)
                for p in (0.5, 1.0, 1.5, 2.0, 3.0, 6.0) for q in (2.0, 2.5, 4.0)] \
    + [nl.NonlinearitySpec("piecewise", p=p, q=q, s0=s0)
       for p in (0.5, 1.0, 2.0, 6.0) for q in (2.0, 3.0, 6.0)
       for s0 in (0.05, 0.2, 1.0, 3.0)]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: (
    f"{spec.kind}-p{spec.p:g}-q{spec.q:g}-s0{spec.s0:g}"))
def test_check_assumptions_matches_a_40_digit_oracle(spec):
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        inf, sup, onset, ar_sup, f_small = _dec_oracle(spec)
    report = nl.check_assumptions(spec)
    assert report.delta_estimate == pytest.approx(0.99 * float(inf), rel=1e-14,
                                                  abs=1e-15)
    assert report.C_estimate == pytest.approx(1.01 * float(sup), rel=1e-14)
    assert report.s_epsilon == pytest.approx(float(onset), rel=1e-14)
    assert report.ar_improved_ok == (inf > 0 and ar_sup <= 1 - D("0.99") * inf)
    if f_small > D("1e90"):
        assert report.q_limit == math.inf and not report.f1_ok
    elif f_small < D("1e-90"):
        assert report.q_limit == 0.0 and report.f1_ok
    else:
        assert report.q_limit == pytest.approx(float(f_small), rel=1e-14)
    assert report.f2_ok == (inf > 0)


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_exp_minus_one_extrema_match_a_40_digit_oracle(q):
    # r(y) = (1 - e^{-y})(1 + 1/2y), y = a s^2, has no closed-form maximum or
    # onset; the module's two constants are a 40-digit bisection of each,
    # within one ulp
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        a = D(nl.A_CRIT)

        def r(y):
            return (1 - (-y).exp()) * (1 + 1 / (2 * y))

        def slope(y):
            return (1 - (-y).exp()) / (2 * y * y) - (-y).exp() * (1 + 1 / (2 * y))
        y_peak = _dec_bisect(slope, D(1), D(10))
        peak = r(y_peak)
        floor = (1 - D(nl.ONSET_EPSILON)) ** 2
        onset = (_dec_bisect(lambda y: r(y) - floor, D("1e-6"), y_peak) / a).sqrt()
        tiny = D("1e-200")
        f_small = 2 * a * tiny ** (2 - D(q)) * (a * tiny * tiny).exp()
    for constant, exact in ((nl.EXP_MINUS_ONE_RATIO_MAX, peak),
                            (nl.EXP_MINUS_ONE_ONSET, onset)):
        assert abs(D(constant) - exact) <= D(math.ulp(constant))
    report = nl.check_assumptions(nl.NonlinearitySpec("exp_minus_one", q=q))
    assert report.C_estimate == 1.01 * nl.EXP_MINUS_ONE_RATIO_MAX
    assert report.s_epsilon == nl.EXP_MINUS_ONE_ONSET
    assert float((y_peak / a).sqrt()) == pytest.approx(0.50569, abs=1e-5)
    assert float(peak) == pytest.approx(1.1091207, abs=1e-7)
    # inf F f'/f^2 and sup F/(s f) are both the limit 1/2 at 0
    assert report.delta_estimate == 0.99 * 0.5 and report.ar_improved_ok
    assert report.q_limit == (float(f_small) if q == 2 else math.inf)
    assert f_small > D("1e90") or q == 2
