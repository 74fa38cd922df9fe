"""The bounded Brent search, against scipy's ``minimize_scalar`` as oracle.

``scipy.optimize`` is imported here only: the package itself never loads it.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from logchoquard import energy, families, grids, solver
from logchoquard import nonlinearity as nl
from logchoquard.brent import GOLDEN_MEAN, minimize_bounded
from logchoquard.errors import InvalidParameterError
from logchoquard.spaces import PeriodicCoefficient

F1 = nl.NonlinearitySpec("exp_minus_one")
V1 = PeriodicCoefficient(1.0)
XATOLS = [1e-3, 1e-10, 1e-14]


def bits(x):
    return struct.pack("<d", float(x))


def recorded(func):
    """func on float arguments, and the list of points it was called at."""
    calls = []

    def wrapped(x):
        calls.append(bits(x))
        return func(float(x))
    return wrapped, calls


# objectives written with + and * only, so their values depend on x alone
def quadratic(c2, m, c0):
    return lambda x: c2 * (x - m) * (x - m) + c0


def quartic(m, w, c1):
    return lambda x: ((x - m) * (x - m) - w) * ((x - m) * (x - m) - w) + c1 * x


def sines(terms):
    return lambda x: sum(a * math.sin(k * x + phase) for a, k, phase in terms)


def constant(c):
    return lambda x: c


def linear(c1):                  # the minimum sits at a bound
    return lambda x: c1 * x


coefficient = st.floats(-10, 10, allow_nan=False)
OBJECTIVES = st.one_of(
    st.builds(quadratic, coefficient, coefficient, coefficient),
    st.builds(quartic, coefficient, st.floats(0, 10), coefficient),
    st.builds(sines, st.lists(st.tuples(coefficient, st.floats(0.1, 40),
                                        coefficient), min_size=1, max_size=4)),
    st.builds(constant, coefficient),
    st.builds(linear, coefficient.filter(lambda c: c != 0)),
)
WIDTHS = st.one_of(st.floats(0, 100), st.sampled_from([0.0, 1e-12, 1e-6, 1.0]))


@settings(max_examples=400, deadline=None)
@given(func=OBJECTIVES, lo=st.floats(-100, 100), width=WIDTHS,
       xatol=st.sampled_from(XATOLS))
def test_bit_identical_to_scipy_bounded(func, lo, width, xatol):
    hi = lo + width
    theirs, their_calls = recorded(func)
    res = minimize_scalar(theirs, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol})
    ours, our_calls = recorded(func)
    x, fx = minimize_bounded(ours, lo, hi, xatol)
    assert bits(x) == bits(res.x)
    assert bits(fx) == bits(res.fun)
    assert our_calls == their_calls
    assert len(our_calls) == res.nfev


@pytest.mark.parametrize("lo, hi, xatol", [
    (math.nan, 1.0, 1e-3), (0.0, math.inf, 1e-3), (-math.inf, 0.0, 1e-3),
    (1.0, 0.0, 1e-3), (0.0, 1.0, 0.0), (0.0, 1.0, -1e-3), (0.0, 1.0, math.nan),
], ids=["nan-lo", "inf-hi", "-inf-lo", "inverted", "xatol-0", "xatol-negative",
        "xatol-nan"])
def test_bad_bounds_and_tolerance_rejected(lo, hi, xatol):
    with pytest.raises(InvalidParameterError):
        minimize_bounded(lambda x: x * x, lo, hi, xatol)


def windowed(func, start, stop, bad):
    """func with the value ``bad`` on [start, stop]; the values it returned."""
    values = []

    def wrapped(x):
        values.append(bad if start <= x <= stop else func(x))
        return values[-1]
    return wrapped, values


@settings(max_examples=300, deadline=None)
@given(m=st.floats(-1, 2), left=st.floats(0, 1), right=st.floats(0, 1),
       bad=st.sampled_from([math.nan, math.inf]),
       xatol=st.sampled_from(XATOLS))
def test_non_finite_values_never_win(m, left, right, bad, xatol):
    first = GOLDEN_MEAN                       # the first trial on [0, 1]
    start, stop = first * left, first + (1 - first) * right
    func, values = windowed(quadratic(1.0, m, 0.0), start, stop, bad)
    x, fx = minimize_bounded(func, 0.0, 1.0, xatol)
    assert math.isnan(values[0]) or values[0] == math.inf
    finite = [v for v in values if math.isfinite(v)]
    assert fx == (min(finite) if finite else math.inf)
    if finite:
        assert not start <= x <= stop and fx == (x - m) * (x - m)


@pytest.mark.parametrize("start, stop, m", [
    (0.3, 1.0, 0.1), (0.0, 0.5, 0.9), (0.3, 0.7, 0.1)])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("xatol", XATOLS)
def test_a_search_around_a_non_finite_first_trial_finds_the_finite_minimum(
        start, stop, m, bad, xatol):
    func, _ = windowed(quadratic(1.0, m, 0.0), start, stop, bad)
    x, fx = minimize_bounded(func, 0.0, 1.0, xatol)
    assert abs(x - m) <= xatol + 1e-7 and fx == (x - m) * (x - m)


def counting_searches(monkeypatch):
    """The bounded searches ``solver._segment_max`` starts, as (lo, hi)."""
    searches = []

    def search(func, lo, hi, xatol):
        searches.append((lo, hi))
        return minimize_bounded(func, lo, hi, xatol)
    monkeypatch.setattr(solver, "minimize_bounded", search)
    return searches


@pytest.mark.parametrize("kind, resolution, top", [
    ("cartesian", 48, math.nan), ("radial", 512, -math.inf)])
def test_segment_max_to_an_overflowing_bump_is_finite(monkeypatch, kind,
                                                     resolution, top):
    grid = grids.build_grid(kind, 6.0, resolution)
    bump = families.bump(grid, 0.5, amplitude=10.0)
    searches = counting_searches(monkeypatch)
    with np.errstate(all="ignore"):
        assert repr(energy.total_energy(bump, F1, V1)) == repr(top)
        s, level = solver._segment_max(grids.zero_field(grid), bump, F1, V1)
        assert 0.0 < s < 1.0 and math.isfinite(level) and level > 0.0
        assert level == energy.total_energy(bump.with_values(s * bump.values),
                                            F1, V1)
    assert searches == [(0.0, 1.0)]     # a finite result costs one search


@pytest.mark.parametrize("kind, resolution", [("cartesian", 48), ("radial", 512)])
def test_segment_max_halves_the_segment_past_non_finite_first_trials(
        monkeypatch, kind, resolution):
    # the amplitude-30 bump: I_V is finite only up to s ~ 0.2, so the first
    # trials of a search over [0, 1] (0.382, 0.618, 0.236) all overflow
    grid = grids.build_grid(kind, 6.0, resolution)
    bump = families.bump(grid, 0.5, amplitude=30.0)
    searches = counting_searches(monkeypatch)

    def level_at(t):
        return energy.total_energy(bump.with_values(t * bump.values), F1, V1)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in (0.236, 0.382, 0.618):
            assert not math.isfinite(level_at(t))
        s, level = solver._segment_max(grids.zero_field(grid), bump, F1, V1)
        ts = np.linspace(0.0, 1.0, 401)
        scan = np.array([level_at(t) for t in ts])
        assert level == level_at(s)
    finite = np.isfinite(scan)
    assert 1e-3 < s <= ts[finite].max()
    assert level > scan[finite].max() > 0.0
    assert searches[0] == (0.0, 1.0) and len(searches) > 1
    assert [hi for _, hi in searches] == [0.5**i for i in range(len(searches))]
