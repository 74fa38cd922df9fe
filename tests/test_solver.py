"""Mountain-pass solver, PS diagnostics, vanishing and recentering."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from logchoquard import energy, families, grids, kernel, solver
from logchoquard import nonlinearity as nl
from logchoquard.errors import (GeometryFailureError, InvalidParameterError,
                                NonConvergenceError)
from logchoquard.spaces import PeriodicCoefficient, norm_1qw_sq, norm_V_sq
from test_grids import cartesian_stiffness, radial_stiffness

F1 = nl.NonlinearitySpec("exp_minus_one")
V1 = PeriodicCoefficient(1.0)


def make_inert(monkeypatch):
    """Make every nonlinearity inert: c F(u) vanishes, so I_V is its
    quadratic part alone."""
    monkeypatch.setattr(energy, "compose_density",
                        lambda u, spec: np.zeros(u.grid.shape))


@pytest.fixture(scope="module")
def small_result():
    cfg = solver.SolverConfig(spec=F1, potential=V1, grid_kind="cartesian",
                              domain_radius=8.0, resolution=48,
                              max_iterations=3000, residual_tolerance=1e-4)
    return solver.solve_mountain_pass(cfg)


def test_geometry_check_positive_floor():
    g = grids.build_grid("cartesian", 8.0, 48)
    delta0, witness = solver.check_mp_geometry(F1, V1, grid=g)
    assert delta0 > 0
    assert energy.total_energy(witness, F1, V1) < 0
    # the witness is supported in the witness ball
    r = g.radii()
    assert np.all(witness.values[r > 0.26] == 0.0)


def test_geometry_failure_for_inert_spec(monkeypatch):
    g = grids.build_grid("cartesian", 8.0, 48)
    make_inert(monkeypatch)
    with pytest.raises(GeometryFailureError):
        solver.check_mp_geometry(F1, V1, grid=g)


def test_witness_search_stops_after_the_doubling_budget(monkeypatch):
    # an inert nonlinearity never goes negative: the search evaluates the
    # witness bump at t = 1, 2, ..., 2^(budget - 1) and gives up
    g = grids.build_grid("cartesian", 8.0, 48)
    monkeypatch.setattr(solver, "WITNESS_DOUBLINGS", 5)
    make_inert(monkeypatch)
    calls = []
    total_energy = energy.total_energy

    def counted(u, spec, potential):
        calls.append(float(np.max(u.values)))
        return total_energy(u, spec, potential)

    monkeypatch.setattr(energy, "total_energy", counted)
    with pytest.raises(GeometryFailureError, match="doubling budget"):
        solver.check_mp_geometry(F1, V1, grid=g)
    probes = len(solver._geometry_probes(g))
    top = float(np.max(families.bump(g, 0.25).values))
    assert calls[probes:] == [2.0 ** k * top for k in range(5)]


def test_solver_converges_small(small_result):
    res = small_result
    assert res.converged and res.status == "converged"
    assert 0.0 < res.level < 0.5
    assert res.residual <= 1e-4


def test_solver_field_nonnegative(small_result):
    assert np.min(small_result.field.values) >= 0.0


def test_solver_levels_never_rise(small_result):
    levels = [lvl for lvl, _ in small_result.ps_trace]
    assert len(levels) == small_result.iterations > 1
    for i in range(1, len(levels)):
        assert levels[i] <= levels[i - 1]


PE3 = nl.NonlinearitySpec("power_exp", p=3.0, q=3.0)
C12_SETTINGS = dict(domain_radius=6.0, resolution=48, max_iterations=2000,
                    residual_tolerance=2e-4)
RADIAL_512 = dict(grid_kind="radial", resolution=512)


def smooth_directions(grid, rng, n=20):
    """Random smooth fields."""
    return [families.random_smooth(grid, rng, max_center=0.4 * grid.domain_radius)
            for _ in range(n)]


@pytest.mark.parametrize("spec, potential, settings", [
    (F1, V1, dict(domain_radius=8.0, resolution=48, max_iterations=3000)),
    (F1, V1, RADIAL_512),
    (F1, PeriodicCoefficient(1.0, 0.5), C12_SETTINGS),
    (PE3, V1, C12_SETTINGS),
    (PE3, V1, RADIAL_512)],
    ids=["F1-cartesian", "F1-radial", "periodic-V", "power_exp-q3-cartesian",
         "power_exp-q3-radial"])
def test_dual_estimate_bounds_the_pairing_with_every_direction(spec, potential,
                                                               settings):
    # the 1,q(w) norm dominates the K norm, so by Cauchy-Schwarz in the K
    # inner product |<I_V'(u), phi>| <= sqrt(r^T K^{-1} r) ||phi||_{1,q(w)}
    # at every state u: the accepted one and two off the ridge
    cfg = solver.SolverConfig(spec=spec, potential=potential, **settings)
    res = solver.solve_mountain_pass(cfg)
    assert res.converged and res.residual <= cfg.residual_tolerance
    grid = res.field.grid
    _, witness = solver.check_mp_geometry(spec, potential, grid)
    directions = smooth_directions(grid, np.random.default_rng(2))
    norms = [math.sqrt(norm_1qw_sq(phi, spec.q, potential)) for phi in directions]
    for u in (res.field, witness, witness.with_values(0.3 * witness.values)):
        grad = energy.energy_gradient(u, spec, potential).field
        dual, _, _ = solver._dual_estimate(grid, potential, grad.values)
        for phi, norm in zip(directions, norms):
            assert abs(energy.pair_gradient(grad, phi)) <= dual * norm * (1 + 1e-9)
    # at the accepted state the estimate is the reported residual, and
    # d = K^{-1} r attains the bound: its K norm is ||grad d||^2 + int V d^2
    grad = energy.energy_gradient(res.field, spec, potential).field
    dual, descent, _ = solver._dual_estimate(grid, potential, grad.values)
    assert abs(dual - res.residual) < 1e-10 * (1 + res.residual)
    d = grids.GridField(grid, descent)
    attained = energy.pair_gradient(grad, d) / math.sqrt(norm_V_sq(d, potential))
    assert abs(attained - dual) <= 1e-12 * dual
    if grid.kind == "radial":
        # the refined LU solve leaves the identity at the rounding of the sums
        assert abs(attained - dual) <= 1e-14 * dual


def test_vanishing_check_zero_and_bump():
    g = grids.build_grid("cartesian", 8.0, 64)
    assert solver.vanishing_check(grids.zero_field(g), 1.0) == 0.0
    u = families.bump(g, radius=0.5)
    mass = grids.integrate(u, lambda s: s**2)
    assert abs(solver.vanishing_check(u, 1.0) - mass) < 1e-12 * (1 + mass)


def test_vanishing_check_translated_bump():
    g = grids.build_grid("cartesian", 8.0, 64)
    u = families.bump(g, radius=0.5, center=(5.0, 5.0))
    mass = grids.integrate(u, lambda s: s**2)
    assert abs(solver.vanishing_check(u, 1.0) - mass) < 1e-12 * (1 + mass)


def test_vanishing_check_and_recenter_see_the_corners_of_the_square():
    # (7, 7) lies outside the disc |x| <= 8 and inside the square
    g = grids.build_grid("cartesian", 8.0, 64)
    u = families.bump(g, radius=0.5, center=(7.0, 7.0))
    mass = grids.integrate(u, lambda s: s**2)
    assert mass > 0
    assert abs(solver.vanishing_check(u, 1.0) - mass) < 1e-12 * mass
    rec = solver.recenter(u, V1, F1)
    assert rec.shift == (-7, -7)
    assert rec.peak_mass == solver.vanishing_check(u, 1.0)


def test_vanishing_check_radial_profile():
    g = grids.build_grid("radial", 8.0, 512)
    u = families.bump(g, radius=0.5)
    mass = grids.integrate(u, lambda s: s**2)
    assert abs(solver.vanishing_check(u, 1.0) - mass) < 1e-6 * (1 + mass)


def _lattice_masses_on_the_whole_grid(u, r):
    """The reference: one full-grid ball mask per lattice center."""
    xx, yy = u.grid.meshgrid()
    mass = u.grid.weights * u.values**2
    return np.array([np.sum(mass[(xx - cx) ** 2 + (yy - cy) ** 2 <= r**2])
                     for cx, cy in solver._lattice_centers(u.grid.domain_radius)])


@pytest.mark.parametrize("radius, resolution, center, r", [
    (8.0, 64, (0.0, 0.0), 1.0), (8.0, 64, (5.3, -2.7), 1.0),
    (6.0, 48, (-4.5, 0.0), 2.5), (4.0, 16, (0.0, 0.0), 3.9)])
def test_lattice_masses_match_the_whole_grid_masks(radius, resolution,
                                                   center, r):
    g = grids.build_grid("cartesian", radius, resolution)
    u = families.gaussian(g, 1.5, center=center)
    centers, masses = solver._lattice_masses(u, r)
    reference = _lattice_masses_on_the_whole_grid(u, r)
    assert np.array_equal(centers, solver._lattice_centers(radius))
    # the same nodes, summed in another order: rounding only
    assert np.all(np.abs(masses - reference)
                  <= 16 * np.finfo(float).eps * reference)


@pytest.mark.parametrize("center, shift", [
    ((-3.3, 2.2), (3, -2)), ((2.5, -1.0), (-2, 1))],
    ids=["off-center", "tie"])
def test_recenter_off_center_bump(center, shift):
    # at (2.5, -1) the centers (2, -1) and (3, -1) hold the same mass, and
    # the first in lattice order is kept
    g = grids.build_grid("cartesian", 8.0, 64)
    u = families.bump(g, radius=1.5, center=center)
    assert solver.recenter(u, V1, F1).shift == shift


def test_recenter_centered_bump(monkeypatch):
    # a zero shift leaves the field in place and evaluates no energy
    monkeypatch.setattr(energy, "total_energy", None)
    g = grids.build_grid("cartesian", 8.0, 64)   # h = 0.25 divides 1
    u = families.bump(g, radius=0.5)
    rec = solver.recenter(u, V1, F1)
    assert rec.shift == (0, 0)
    assert rec.field is u and rec.energy_delta == 0.0


def test_solve_takes_the_lattice_masses_once(monkeypatch):
    # the vanishing indicator and the recentering of a solve come from one
    # pass of lattice masses in ``recenter``, and equal the public
    # functions' results
    calls = []
    lattice_masses = solver._lattice_masses

    def counted(u, r):
        calls.append(r)
        return lattice_masses(u, r)
    monkeypatch.setattr(solver, "_lattice_masses", counted)
    res = solver.solve_mountain_pass(
        solver.SolverConfig(spec=F1, potential=V1, **C12_SETTINGS))
    assert calls == [1.0]
    final = res.field_trace[-1].field
    assert res.vanishing_indicator == solver.vanishing_check(final, 1.0)
    rec = solver.recenter(final, V1, F1)
    assert res.recentering_shift == rec.shift
    assert res.recentering_energy_delta == rec.energy_delta
    assert np.array_equal(res.field.values, rec.field.values)


def test_recenter_translated_bump_exact_energy():
    g = grids.build_grid("cartesian", 8.0, 64)
    u = families.bump(g, radius=0.5, center=(3.0, 0.0))
    before = energy.total_energy(u, F1, V1)
    rec = solver.recenter(u, V1, F1)
    assert rec.shift == (-3, 0)
    after = energy.total_energy(rec.field, F1, V1)
    assert abs(after - before) <= 1e-8 * (1 + abs(before))
    assert abs(rec.energy_delta) <= 1e-8 * (1 + abs(before))


def test_recenter_periodic_potential_invariance():
    g = grids.build_grid("cartesian", 8.0, 64)
    pot = PeriodicCoefficient(1.0, 0.25)
    u = families.bump(g, radius=0.5, center=(1.0, 0.0))
    before = energy.total_energy(u, F1, pot)
    rec = solver.recenter(u, pot, F1)
    assert rec.shift == (-1, 0)
    after = energy.total_energy(rec.field, F1, pot)
    assert abs(after - before) <= 1e-8 * (1 + abs(before))


def test_recenter_incommensurate_grid_rejected():
    g = grids.build_grid("cartesian", 8.0, 50)   # h = 0.32
    u = families.bump(g, radius=0.5)
    with pytest.raises(InvalidParameterError):
        solver.recenter(u, V1, F1)


def test_ps_diagnostics_constant_zero_trace():
    g = grids.build_grid("cartesian", 8.0, 48)
    zero = grids.zero_field(g)
    gradient = energy.energy_gradient(zero, F1, V1)
    state = solver.TraceState(zero, gradient.frak, gradient.pairing)
    diag = solver.ps_diagnostics([state], F1, V1, level=0.3)
    assert diag.sup_norm_V_sq == 0.0
    assert diag.sup_abs_frak == 0.0
    assert diag.sup_abs_pairing == 0.0


@pytest.mark.parametrize("kind, resolution", [("cartesian", 128),
                                              ("radial", 512)])
def test_trace_pairings_match_the_b0_form(kind, resolution):
    # every trace state records the pairings its own gradient formed against
    # the potential B0 * c F(u); the Parseval route (cartesian) and the
    # prefix sums of the ring coupling (radial) are the oracle
    cfg = solver.SolverConfig(spec=F1, potential=V1, grid_kind=kind,
                              resolution=resolution)
    res = solver.solve_mountain_pass(cfg)
    assert res.converged and res.newton_steps > 0 and len(res.field_trace) > 2
    assert np.array_equal(res.field_trace[-1].field.values, res.field.values)
    for state in res.field_trace:
        u = state.field
        density = grids.GridField(u.grid, energy.compose_density(u, F1))
        response = grids.GridField(u.grid, energy.compose_f(u, F1) * u.values)
        frak = kernel.b0_form(density, density)
        pairing = kernel.b0_form(density, response)
        assert abs(state.frak - frak) <= 1e-12 * abs(frak)
        assert abs(state.pairing - pairing) <= 1e-12 * abs(pairing)


def test_ps_diagnostics_solver_trace(small_result):
    res = small_result
    diag = solver.ps_diagnostics(res.field_trace, F1, V1, level=res.level)
    assert np.isfinite(diag.sup_norm_V_sq)
    assert 1.0 <= diag.alpha < 1.0 / (2 * res.level)
    assert np.all(np.isfinite(diag.integrability))
    quarter = max(1, len(diag.integrability) // 4)
    tail = diag.integrability[-quarter:]
    if len(tail) > 1 and tail.max() > 0:
        assert (tail.max() - tail.min()) / tail.max() < 0.05


def test_solver_deterministic_repeat():
    cfg = solver.SolverConfig(spec=F1, potential=V1, **C12_SETTINGS)
    r1 = solver.solve_mountain_pass(cfg)
    r2 = solver.solve_mountain_pass(cfg)
    assert r1.level == r2.level
    assert r1.residual == r2.residual
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.field.values, r2.field.values)


def test_solve_draws_no_random_numbers(monkeypatch):
    # a solve is a function of its configuration alone: no generator is made
    def no_generator(*args, **kwargs):
        raise AssertionError("the solve made a random number generator")
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    cfg = solver.SolverConfig(spec=F1, potential=V1, **C12_SETTINGS)
    assert solver.solve_mountain_pass(cfg).converged


@pytest.mark.parametrize("kind, resolution", [("cartesian", 48), ("radial", 512)])
def test_descent_states_are_ray_maxima(kind, resolution, monkeypatch):
    # every state the descent computes a gradient at is a ray maximum found
    # by the ray search to the scale error xatol, so the ray slope <I_V'(u), u> is at
    # most about |<I_V''(u) u, u>| xatol
    states = []
    gradient = energy.energy_gradient

    def recorded(u, spec, potential):
        states.append(u)
        return gradient(u, spec, potential)
    monkeypatch.setattr(energy, "energy_gradient", recorded)
    monkeypatch.setattr(solver, "NEWTON_SWITCH", 0.0)    # no Newton: a longer descent
    cfg = solver.SolverConfig(spec=F1, potential=V1, grid_kind=kind,
                              **dict(C12_SETTINGS, resolution=resolution))
    res = solver.solve_mountain_pass(cfg)
    assert res.converged and res.iterations > 10
    # the start searches [0, witness] with xatol 1e-3, each step with the
    # xatol of the residual it starts from
    xatols = [1e-3] + [min(1e-3, 1e-2 * r) for _, r in res.ps_trace]
    for u, xatol in zip(states[:res.iterations], xatols):
        lin = energy.linearize(gradient(u, F1, V1), F1, V1)
        ray_slope = energy.pair_gradient(lin.gradient.field, u)
        curvature = float(np.sum(u.values * energy.hessian_product(lin, u.values)))
        assert curvature < 0
        assert abs(ray_slope) <= 2 * xatol * abs(curvature)


@pytest.mark.parametrize("kind, resolution", [("cartesian", 48), ("radial", 512)])
@pytest.mark.parametrize("t", [0.5, 1.0])
def test_ray_slope_matches_central_differences(kind, resolution, t):
    # the slope of I_V(s v) at s = t is <I_V'(t v), v>; on the amplitude-0.6
    # bump it is positive at 1/2 and negative at 1, so the ray has an
    # interior maximum between them
    grid = grids.build_grid(kind, 6.0, resolution)
    v = families.bump(grid, 0.5, amplitude=0.6)
    slope = energy.pair_gradient(
        energy.energy_gradient(v.with_values(t * v.values), F1, V1).field, v)

    def level(s):
        return energy.total_energy(v.with_values(s * v.values), F1, V1)
    h = 1e-4
    assert abs(slope - (level(t + h) - level(t - h)) / (2 * h)) <= 1e-5 * abs(slope)
    assert (slope > 0) == (t == 0.5)


@pytest.mark.parametrize("kind, resolution", [("cartesian", 48), ("radial", 512)])
def test_ray_max_of_the_witness_is_interior(kind, resolution):
    grid = grids.build_grid(kind, 6.0, resolution)
    delta0, witness = solver.check_mp_geometry(F1, V1, grid=grid)
    xatol = 1e-6
    level_at = energy.ray_energy(witness, F1, V1)
    t, level = energy.ray_max(level_at, 0.5, 0.0, 1.0, xatol)
    # the ray crosses the sphere on which I_V >= delta0 before it reaches
    # the negative energy at the witness
    assert 0.0 + xatol < t < 1.0 - xatol and level >= delta0 > 0.0
    u = witness.with_values(t * witness.values)
    assert level == level_at(t)
    assert level == pytest.approx(energy.total_energy(u, F1, V1), rel=1e-13)
    for s in (t - 1e-2, t + 1e-2):
        assert level_at(s) < level
    lin = energy.linearize(energy.energy_gradient(u, F1, V1), F1, V1)
    curvature = float(np.sum(u.values * energy.hessian_product(lin, u.values)))
    assert curvature < 0
    # t is the maximizer of the witness ray to within xatol, so the slope
    # along u = t witness is at most about |<I_V''(u) u, u>| xatol / t
    assert abs(energy.pair_gradient(lin.gradient.field, u)) <= 2 * xatol * abs(curvature) / t


@pytest.mark.parametrize("kind, resolution", [("cartesian", 48), ("radial", 512)])
@pytest.mark.parametrize("peak", [0.4, 2.0])
def test_ray_max_past_the_bracket_lands_on_its_edge(kind, resolution, peak):
    # the ray through v peaks at t = peak, outside RAY_BRACKET, so the
    # search over the bracket returns the edge nearest the peak, which the
    # descent does not take as a ray maximum
    grid = grids.build_grid(kind, 6.0, resolution)
    _, witness = solver.check_mp_geometry(F1, V1, grid=grid)
    t_star, _ = energy.ray_max(energy.ray_energy(witness, F1, V1),
                               0.5, 0.0, 1.0, 1e-6)
    v = witness.with_values(t_star / peak * witness.values)
    lo, hi = solver.RAY_BRACKET
    xatol = 1e-3
    level_at = energy.ray_energy(v, F1, V1)
    t, level = energy.ray_max(level_at, 1.0, lo, hi, xatol)
    edge = lo if peak < lo else hi
    assert abs(t - edge) <= xatol
    assert not lo + xatol < t < hi - xatol
    assert level == level_at(t)


def recording_scales(level_at):
    """level_at, wrapped to record the scales t it is called at, and the
    list it records them in."""
    scales = []

    def recorded(t):
        scales.append(t)
        return level_at(t)
    return recorded, scales


@pytest.mark.parametrize("kind, resolution", [("cartesian", 48), ("radial", 512)])
def test_ray_max_to_an_overflowing_bump_is_finite(kind, resolution):
    grid = grids.build_grid(kind, 6.0, resolution)
    bump = families.bump(grid, 0.5, amplitude=10.0)
    level_at = energy.ray_energy(bump, F1, V1)
    assert energy.total_energy(bump, F1, V1) == level_at(1.0) == -np.inf
    recorded, scales = recording_scales(level_at)
    s, level = energy.ray_max(recorded, 0.5, 0.0, 1.0, 1e-3)
    assert 0.0 < s < 1.0 and np.isfinite(level) and level > 0.0
    assert level == level_at(s)
    # the walk starts at t0 -+ 0.01 and never leaves [0, 1]
    assert scales[:3] == pytest.approx([0.49, 0.5, 0.51], rel=1e-12)
    assert all(0.0 <= t <= 1.0 for t in scales)


@pytest.mark.parametrize("kind, resolution", [("cartesian", 48), ("radial", 512)])
def test_ray_max_walks_toward_lo_past_non_finite_first_trials(kind, resolution):
    # the amplitude-30 bump: I_V is finite only up to s ~ 0.2, so the
    # first triple of a search from t0 = 1/2 (0.49, 0.5, 0.51) overflows
    grid = grids.build_grid(kind, 6.0, resolution)
    bump = families.bump(grid, 0.5, amplitude=30.0)
    level_at = energy.ray_energy(bump, F1, V1)
    for t in (0.49, 0.5, 0.51):
        assert not np.isfinite(level_at(t))
    recorded, scales = recording_scales(level_at)
    s, level = energy.ray_max(recorded, 0.5, 0.0, 1.0, 1e-3)
    ts = np.linspace(0.0, 1.0, 401)
    scan = np.array([level_at(t) for t in ts])
    assert level == level_at(s)
    walk = [np.isfinite(level_at(t)) for t in scales]
    finite = np.isfinite(scan)
    assert 1e-3 < s <= ts[finite].max()
    assert level > scan[finite].max() > 0.0
    # past the first triple, the walk steps down until a level is finite
    first = walk.index(True)
    assert first > 3
    assert all(np.diff(scales[2:first + 1]) < 0)


def slope_root(v, lo, hi, spec=F1, potential=V1):
    """The root of the ray slope <I_V'(t v), v> in [lo, hi] by bisection,
    where the slope falls from positive to negative."""
    def slope(t):
        gradient = energy.energy_gradient(v.with_values(t * v.values), spec,
                                          potential)
        return energy.pair_gradient(gradient.field, v)
    assert slope(lo) > 0.0 > slope(hi)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("kind, resolution", [("cartesian", 48), ("radial", 512)])
@pytest.mark.parametrize("t0, lo, hi, peak, overflows", [
    (1.3, 0.5, 1.5, 1.3, False),        # a good prediction
    (0.55, 0.5, 1.5, 1.3, False),       # a poor one
    (18.0, 0.5, 20.0, 1.0, True)],      # a first triple past the overflow
    ids=["good-t0", "poor-t0", "non-finite-triple"])
@pytest.mark.parametrize("xatol", [1e-3, 1e-5])
def test_ray_max_agrees_with_the_slope_root(kind, resolution, t0, lo, hi, peak,
                                            overflows, xatol):
    # v is scaled from the witness so that its ray peaks at t = peak; the
    # walk from t0 must find the root of the ray slope over RAY_BRACKET
    grid = grids.build_grid(kind, 6.0, resolution)
    _, witness = solver.check_mp_geometry(F1, V1, grid=grid)
    t_star, _ = energy.ray_max(energy.ray_energy(witness, F1, V1),
                               0.5, 0.0, 1.0, 1e-9)
    v = witness.with_values(t_star / peak * witness.values)
    level_at = energy.ray_energy(v, F1, V1)
    triple = [level_at(t) for t in (t0 - 0.01, t0, t0 + 0.01)]
    assert np.all(np.isfinite(triple)) != overflows
    assert np.any(np.isfinite(triple)) != overflows
    t, level = energy.ray_max(level_at, t0, lo, hi, xatol)
    reference = slope_root(v, *solver.RAY_BRACKET)
    assert abs(t - reference) <= 2 * xatol
    assert abs(reference - peak) <= 1e-3
    assert level == level_at(t)


@pytest.mark.parametrize("answer", [
    lambda t0, lo, hi, xatol: (lo, -1.0),
    lambda t0, lo, hi, xatol: (hi - 0.5 * xatol, -1.0),
    lambda t0, lo, hi, xatol: (1.0, -np.inf),
    lambda t0, lo, hi, xatol: (1.0, np.nan)],
    ids=["lower-edge", "upper-edge", "minus-inf", "nan"])
def test_descent_rejects_trials_that_are_not_ray_maxima(answer, monkeypatch):
    # every trial search reports a level far below the current one, but on
    # the bracket edge or non-finite: no trial is taken, each step halves
    # eta through all of its 40 trials, and the state never moves
    ray_max = energy.ray_max
    calls = []

    def searched(level_at, t0, lo, hi, xatol):
        calls.append((lo, hi))
        if (lo, hi) == (0.0, 1.0):          # the start, on the witness ray
            return ray_max(level_at, t0, lo, hi, xatol)
        return answer(t0, lo, hi, xatol)
    monkeypatch.setattr(energy, "ray_max", searched)
    monkeypatch.setattr(solver, "NEWTON_MAX_STEPS", 0)
    cfg = solver.SolverConfig(spec=F1, potential=V1,
                              **dict(C12_SETTINGS, max_iterations=3))
    res = solver.solve_mountain_pass(cfg)
    assert not res.converged and res.status == "budget-exhausted"
    assert res.iterations == len(res.ps_trace) == 3
    assert len(calls) == 1 + 3 * 40
    assert all(pair == solver.RAY_BRACKET for pair in calls[1:])
    start = res.ps_trace[0]
    assert all(entry == start for entry in res.ps_trace)
    assert res.level == res.path_level == start[0]


def test_budget_exhausted_residual_is_the_final_states():
    # the last descent step moves u after its residual was computed, so the
    # reported residual is recomputed at the state the run ends on
    cfg = solver.SolverConfig(spec=F1, potential=V1,
                              **dict(C12_SETTINGS, max_iterations=3))
    res = solver.solve_mountain_pass(cfg)
    assert not res.converged and res.newton_steps == 0
    final = res.field_trace[-1].field
    grad = energy.energy_gradient(final, F1, V1).field
    residual, _, _ = solver._dual_estimate(final.grid, V1, grad.values)
    assert res.residual == residual != res.ps_trace[-1][1]


def test_converged_residual_is_the_accepted_states(small_result):
    # a converged run reports the residual it computed at the state it
    # accepted; recomputing it there gives the same number
    assert small_result.converged
    final = small_result.field_trace[-1].field
    grad = energy.energy_gradient(final, F1, V1).field
    residual, _, _ = solver._dual_estimate(final.grid, V1, grad.values)
    assert small_result.residual == residual


def test_descent_rejects_trials_whose_ray_maximum_saturates(monkeypatch):
    # every trial search reports an interior maximum far below the current
    # level, at a scale where t v saturates nodes: the clamp would decide
    # such a trial, so none is taken and the state never moves
    ray_max, ray_energy = energy.ray_max, energy.ray_energy
    rays = []                               # the direction of every search
    saturates = []

    def ray_through(v, spec, potential):
        rays.append(v)
        return ray_energy(v, spec, potential)

    def searched(level_at, t0, lo, hi, xatol):
        if (lo, hi) == (0.0, 1.0):          # the start, on the witness ray
            return ray_max(level_at, t0, lo, hi, xatol)
        saturates.append(np.any(nl.saturation_mask(F1, 50.0 * rays[-1].values)))
        return 50.0, -1.0
    monkeypatch.setattr(energy, "ray_energy", ray_through)
    monkeypatch.setattr(energy, "ray_max", searched)
    monkeypatch.setattr(solver, "RAY_BRACKET", (0.5, 100.0))
    monkeypatch.setattr(solver, "NEWTON_MAX_STEPS", 0)
    cfg = solver.SolverConfig(spec=F1, potential=V1,
                              **dict(C12_SETTINGS, max_iterations=3))
    res = solver.solve_mountain_pass(cfg)
    assert len(saturates) == 3 * 40 and all(saturates)
    assert not res.converged and res.iterations == 3
    start = res.ps_trace[0]
    assert all(entry == start for entry in res.ps_trace)
    assert res.level == res.path_level == start[0]


def quadratic_part(grid, potential):
    """K = A + diag(w V) as a scipy matrix, with A built by scipy from the
    loop stencils (radial) or the forward differences (cartesian)."""
    a = (radial_stiffness(grid) if grid.kind == "radial"
         else cartesian_stiffness(grid.resolution))
    return (a + sp.diags((grid.weights * potential.on_grid(grid)).ravel())).tocsr()


@pytest.mark.parametrize("kind, resolution", [("cartesian", 128),
                                              ("radial", 512)])
def test_preconditioner_lu_solves_the_quadratic_part(kind, resolution):
    grid = grids.build_grid(kind, 16.0, resolution)
    solve = solver._quadratic_preconditioner(grid, V1)
    b = np.random.default_rng(0).standard_normal(grid.shape)
    k = quadratic_part(grid, V1)
    assert (np.linalg.norm(k @ solve(b).ravel() - b.ravel())
            <= 1e-12 * np.linalg.norm(b))


@pytest.mark.parametrize("kind, resolution, amplitude",
                         [("cartesian", 48, 0.5), ("radial", 512, 0.0)])
def test_minres_meets_the_forcing_term(kind, resolution, amplitude):
    grid = grids.build_grid(kind, 6.0, resolution)
    potential = PeriodicCoefficient(1.0, amplitude)
    spec = nl.NonlinearitySpec("exp_minus_one",
                               c_profile=PeriodicCoefficient(1.0, amplitude))
    u = families.gaussian(grid, 1.0, amplitude=0.4)
    lin = energy.linearize(energy.energy_gradient(u, spec, potential), spec,
                           potential)
    precondition = solver._quadratic_preconditioner(grid, potential)

    def apply(x):
        return energy.hessian_product(lin, x)
    rhs = -(grid.weights * lin.gradient.field.values)
    x, products, estimate = solver._minres(apply, precondition, rhs,
                                           solver.NEWTON_FORCING, 200)

    def dual_norm(r):
        return np.sqrt(np.sum(r * precondition(r)))
    achieved = dual_norm(rhs - apply(x)) / dual_norm(rhs)
    assert 0 < products < 200
    assert achieved <= solver.NEWTON_FORCING
    assert abs(achieved - estimate) <= 1e-6 * estimate


@pytest.mark.parametrize("n", [8, 9, 33, 128])
def test_dct_matches_scipy_and_round_trips(n):
    import scipy.fft as spfft
    x = np.random.default_rng(n).standard_normal((3, n))
    y = solver._dct(x)
    reference = spfft.dct(x, type=2) / 2
    assert np.max(np.abs(y - reference)) <= 1e-14 * np.max(np.abs(reference))
    assert np.max(np.abs(solver._idct(y) - x)) <= 1e-14 * np.max(np.abs(x))


# odd and even lattices on which a periodic V is not constant at the nodes
@pytest.mark.parametrize("radius, n", [(16.0, 33), (6.0, 48), (16.0, 128)])
@pytest.mark.parametrize("amplitude", [0.0, 0.5, 100.0])
def test_cartesian_quadratic_solve_leaves_a_small_operator_residual(
        radius, n, amplitude):
    grid = grids.build_grid("cartesian", radius, n)
    potential = PeriodicCoefficient(1.0, amplitude)
    assert np.ptp(potential.on_grid(grid)) > 0 or amplitude == 0.0
    b = np.random.default_rng(n).standard_normal(grid.shape)
    x = solver._quadratic_preconditioner(grid, potential)(b)
    residual = quadratic_part(grid, potential) @ x.ravel() - b.ravel()
    assert np.linalg.norm(residual) <= 1e-13 * np.linalg.norm(b)


def test_pcg_that_reaches_its_cap_raises(monkeypatch):
    monkeypatch.setattr(solver, "K_SOLVE_MAX_ITERATIONS", 3)
    grid = grids.build_grid("cartesian", 6.0, 48)
    solve = solver._quadratic_preconditioner(grid, PeriodicCoefficient(1.0, 100.0))
    b = np.random.default_rng(0).standard_normal(grid.shape)
    with pytest.raises(NonConvergenceError, match="in 3 MINRES steps"):
        solve(b)


POWER_EXP = nl.NonlinearitySpec("power_exp", p=2.0, q=2.0)


# Newton moves the level it starts from by about r^2 / (2 lambda), with r
# the residual it starts from (the descent's last) and lambda the lowest
# positive eigenvalue of the pencil (I_V'', K): above 1/2 for F1, 0.25 for
# power_exp on 512 radial nodes
@pytest.mark.parametrize("spec, potential, settings, moves", [
    (F1, V1, C12_SETTINGS, 1.0),
    (F1, PeriodicCoefficient(1.0, 0.5), C12_SETTINGS, 1.0),
    (POWER_EXP, V1, RADIAL_512, 3.0)],
    ids=["C12", "periodic-V", "power_exp-radial-512"])
def test_solve_without_newton_reaches_the_same_level(spec, potential, settings,
                                                     moves, monkeypatch):
    cfg = solver.SolverConfig(spec=spec, potential=potential, **settings)
    newton = solver.solve_mountain_pass(cfg)
    monkeypatch.setattr(solver, "NEWTON_MAX_STEPS", 0)   # every run fails
    descent = solver.solve_mountain_pass(cfg)
    assert newton.converged and 1 <= newton.newton_steps <= 4
    assert newton.hessian_products > 0
    # the descent hands over below the switch, and Newton moves the ray
    # maximum by about the square of the residual it hands over at
    handover = newton.ps_trace[-1][1]
    assert handover < solver.NEWTON_SWITCH
    assert len(newton.ps_trace) == newton.iterations
    assert abs(newton.level - newton.path_level) <= moves * handover**2
    assert descent.converged
    assert descent.newton_steps == descent.hessian_products == 0
    assert descent.level == descent.path_level
    assert descent.iterations > newton.iterations
    assert abs(descent.level - newton.level) <= 1e-6 * newton.level


def test_radial_solve_level_with_newton():
    cfg = solver.SolverConfig(spec=F1, potential=V1, grid_kind="radial",
                              domain_radius=16.0, resolution=512)
    res = solver.solve_mountain_pass(cfg)
    assert res.converged and res.newton_steps <= 4
    # the level the 16-node path phase alone converged to, in 227
    # iterations; the descent alone reaches it to 5e-8 in 29
    assert abs(res.level - 0.0633537647) <= 1e-7 * 0.0633537647
    assert np.min(res.field.values) >= 0.0
