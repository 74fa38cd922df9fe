"""The ray search ``energy.ray_max`` on objectives that are known functions
of the scale t, so each level is exact and the maximum is known in closed
form.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from logchoquard import energy

XATOLS = [1e-3, 1e-7, 1e-10]


def search(func, t0, lo, hi, xatol):
    """ray_max of func over [lo, hi] from t0, and the scales it tried."""
    trials = []

    def level_at(t):
        trials.append(t)
        return func(t)
    t, level = energy.ray_max(level_at, t0, lo, hi, xatol)
    return t, level, trials


# objectives written with + and * only, so their values depend on t alone
def cap(c2, m, c0):                # a concave parabola peaking at t = m
    return lambda t: c0 - c2 * (t - m) * (t - m)


def hump(m, w, c1):                # a quartic with two peaks when w > 0
    return lambda t: c1 * t - ((t - m) * (t - m) - w) * ((t - m) * (t - m) - w)


def sines(terms):
    return lambda t: sum(a * math.sin(k * t + phase) for a, k, phase in terms)


def linear(c1):                    # the maximum sits at an end
    return lambda t: c1 * t


coefficient = st.floats(-10, 10, allow_nan=False)
OBJECTIVES = st.one_of(
    st.builds(cap, st.floats(0.01, 10), coefficient, coefficient),
    st.builds(hump, coefficient, st.floats(0, 10), coefficient),
    st.builds(sines, st.lists(st.tuples(coefficient, st.floats(0.1, 40),
                                        coefficient), min_size=1, max_size=4)),
    st.builds(linear, coefficient.filter(lambda c: c != 0)),
)


@settings(max_examples=300, deadline=None)
@given(func=OBJECTIVES, lo=st.floats(-10, 10), width=st.floats(1e-3, 20),
       where=st.floats(0, 1), xatol=st.sampled_from(XATOLS))
def test_ray_max_returns_its_best_trial_inside_the_bracket(
        func, lo, width, where, xatol):
    hi = lo + width
    t0 = lo + where * width
    t, level, trials = search(func, t0, lo, hi, xatol)
    assert all(lo <= s <= hi for s in trials)
    assert t in trials and level == func(t)
    assert level == max(func(s) for s in trials)


@pytest.mark.parametrize("m", [0.13, 0.5, 0.87])
@pytest.mark.parametrize("t0", [0.02, 0.5, 0.98])
@pytest.mark.parametrize("xatol", XATOLS)
def test_ray_max_finds_an_interior_peak(m, t0, xatol):
    t, level, _ = search(cap(3.0, m, 0.0), t0, 0.0, 1.0, xatol)
    assert abs(t - m) <= 2 * xatol
    assert level == cap(3.0, m, 0.0)(t)


@pytest.mark.parametrize("m, edge", [(-0.4, 0.0), (1.6, 1.0)],
                         ids=["past-lo", "past-hi"])
@pytest.mark.parametrize("xatol", XATOLS)
def test_ray_max_past_an_end_returns_that_end(m, edge, xatol):
    func = cap(1.0, m, 0.0)
    t, level, trials = search(func, 0.5, 0.0, 1.0, xatol)
    assert t == edge and level == func(edge)
    # the gap from the best interior trial to the end is at most xatol
    inside = [s for s in trials if s != edge]
    assert min(abs(s - edge) for s in inside) <= xatol


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("t0", [0.45, 0.9], ids=["at-the-tail", "deep-in-it"])
@pytest.mark.parametrize("xatol", XATOLS)
def test_ray_max_walks_back_from_a_non_finite_tail(bad, t0, xatol):
    # I_V(t v) overflows for t past 0.4, as on a strongly saturating ray;
    # the finite peak at 0.25 must still be found
    peak = cap(1.0, 0.25, 0.0)

    def func(t):
        return bad if t > 0.4 else peak(t)
    t, level, trials = search(func, t0, 0.0, 1.0, xatol)
    assert abs(t - 0.25) <= 2 * xatol and level == peak(t)
    assert not math.isfinite(func(trials[1]))
