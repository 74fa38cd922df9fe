"""Mountain-pass solver, PS diagnostics, vanishing and recentering."""

import numpy as np
import pytest

from logchoquard import energy, families, grids, solver
from logchoquard import nonlinearity as nl
from logchoquard.errors import GeometryFailureError, InvalidParameterError
from logchoquard.spaces import PeriodicCoefficient

F1 = nl.NonlinearitySpec("exp_minus_one")
V1 = PeriodicCoefficient(1.0)

ZERO_SPEC = nl.NonlinearitySpec(
    "custom", q=2.0, f_callable=lambda s: 0.0 * s,
    f_prime_callable=lambda s: 0.0 * s, F_callable=lambda s: 0.0 * s)


@pytest.fixture(scope="module")
def small_result():
    cfg = solver.SolverConfig(spec=F1, potential=V1, grid_kind="cartesian",
                              domain_radius=8.0, resolution=48,
                              max_iterations=3000, residual_tolerance=1e-4,
                              seed=0)
    return solver.solve_mountain_pass(cfg)


def test_geometry_check_positive_floor():
    g = grids.build_grid("cartesian", 8.0, 48)
    delta0, witness = solver.check_mp_geometry(F1, V1, grid=g)
    assert delta0 > 0
    assert energy.total_energy(witness, F1, V1) < 0
    # the witness is supported in the witness ball
    r = g.radii()
    assert np.all(witness.values[r > 0.26] == 0.0)


def test_geometry_failure_for_inert_spec():
    g = grids.build_grid("cartesian", 8.0, 48)
    with pytest.raises(GeometryFailureError):
        solver.check_mp_geometry(ZERO_SPEC, V1, grid=g)


def test_solver_converges_small(small_result):
    res = small_result
    assert res.converged and res.status == "converged"
    assert 0.0 < res.level < 0.5
    assert res.residual <= 1e-4


def test_solver_field_nonnegative(small_result):
    assert np.min(small_result.field.values) >= 0.0


def test_solver_monotone_between_restarts(small_result):
    levels = [lvl for lvl, _ in small_result.ps_trace]
    marks = set(small_result.restarts)
    for i in range(1, len(levels)):
        if (i + 1) in marks or i in marks:
            continue
        assert levels[i] <= levels[i - 1] + 1e-12 * (1 + abs(levels[i - 1]))


def test_solver_weak_residual_certificate(small_result):
    res = small_result
    grad = energy.energy_gradient(res.field, F1, V1)
    grid = res.field.grid
    dual, _, _ = solver._dual_estimate(grid, V1, grad.values)
    assert abs(dual - res.residual) < 1e-10 * (1 + res.residual)
    directions = solver._test_directions(grid, F1, V1, 20, seed=0)
    for phi in directions:
        assert abs(energy.pair_gradient(grad, phi)) <= res.residual * (1 + 1e-9)


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


def test_vanishing_check_radial_profile():
    g = grids.build_grid("radial", 8.0, 512)
    u = families.bump(g, radius=0.5)
    mass = grids.integrate(u, lambda s: s**2)
    assert abs(solver.vanishing_check(u, 1.0) - mass) < 1e-6 * (1 + mass)


def test_recenter_centered_bump():
    g = grids.build_grid("cartesian", 8.0, 64)   # h = 0.25 divides 1
    u = families.bump(g, radius=0.5)
    rec = solver.recenter(u, V1, F1)
    assert rec.shift == (0, 0)


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
    diag = solver.ps_diagnostics([grids.zero_field(g)], F1, V1, level=0.3)
    assert diag.sup_norm_V_sq == 0.0
    assert diag.sup_abs_frak == 0.0
    assert diag.sup_abs_pairing == 0.0


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
    cfg = solver.SolverConfig(spec=F1, potential=V1, grid_kind="cartesian",
                              domain_radius=6.0, resolution=48,
                              max_iterations=2000, residual_tolerance=2e-4,
                              seed=3)
    r1 = solver.solve_mountain_pass(cfg)
    r2 = solver.solve_mountain_pass(cfg)
    assert r1.level == r2.level
    assert r1.residual == r2.residual
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.field.values, r2.field.values)


def _plain_scan(path, levels, spec, potential, rounds=4):
    """The scan without a memo: every segment is considered in every round."""
    gradients = {}
    for _ in range(rounds):
        if not solver._insert_segment_humps(path, levels, range(len(path) - 1),
                                            spec, potential, gradients):
            break


def test_scan_searches_each_pair_once_and_builds_the_plain_path(monkeypatch):
    grid = grids.build_grid("cartesian", 6.0, 48)
    _, witness = solver.check_mp_geometry(F1, V1, grid=grid)
    start = [witness.with_values(t * witness.values)
             for t in np.linspace(0.0, 1.0, 16)]
    start_levels = [energy.total_energy(u, F1, V1) for u in start]
    gated, searched = [], []
    may_have_hump, segment_max = solver._may_have_hump, solver._segment_max

    def counted_gate(a, b, *args):
        gated.append((a, b))
        return may_have_hump(a, b, *args)

    def counted(a, b, spec, potential):
        searched.append((a, b))
        return segment_max(a, b, spec, potential)
    monkeypatch.setattr(solver, "_may_have_hump", counted_gate)
    monkeypatch.setattr(solver, "_segment_max", counted)

    plain, plain_levels = list(start), list(start_levels)
    _plain_scan(plain, plain_levels, F1, V1)
    repeated = len(gated) - len(set(gated))
    assert repeated > 0      # the plain loop does consider some pairs again
    gated.clear()
    searched.clear()
    memo, memo_levels = list(start), list(start_levels)
    solver._scan_all_segments(memo, memo_levels, F1, V1, {})
    assert len(gated) == len(set(gated))
    assert 0 < len(searched) == len(set(searched))
    assert len(memo) == len(plain) > len(start)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(memo, plain))
    assert memo_levels == plain_levels


@pytest.mark.parametrize("kind, resolution", [("cartesian", 48), ("radial", 512)])
@pytest.mark.parametrize("start", [0.2, 0.4])
def test_gate_slopes_match_central_differences(kind, resolution, start):
    grid = grids.build_grid(kind, 6.0, resolution)
    a = families.gaussian(grid, 1.0, amplitude=start)
    b = families.bump(grid, 0.5, amplitude=0.6)
    step = b.with_values(b.values - a.values)
    g0 = energy.pair_gradient(energy.energy_gradient(a, F1, V1), step)
    g1 = energy.pair_gradient(energy.energy_gradient(b, F1, V1), step)

    def level(s):
        return energy.total_energy(
            a.with_values((1.0 - s) * a.values + s * b.values), F1, V1)
    h = 1e-4
    assert abs(g0 - (level(h) - level(-h)) / (2 * h)) <= 1e-5 * abs(g0)
    assert abs(g1 - (level(1 + h) - level(1 - h)) / (2 * h)) <= 1e-5 * abs(g1)
    assert solver._may_have_hump(a, b, F1, V1, {}) == (g0 > 0 > g1)


@pytest.mark.parametrize("kind, resolution", [("cartesian", 48), ("radial", 512)])
def test_gate_counts_the_zero_field_as_rising(kind, resolution):
    grid = grids.build_grid(kind, 6.0, resolution)
    zero = grids.zero_field(grid)
    b = families.bump(grid, 0.5, amplitude=0.6)
    assert energy.pair_gradient(energy.energy_gradient(zero, F1, V1), b) == 0.0
    assert energy.pair_gradient(energy.energy_gradient(b, F1, V1), b) < 0
    assert solver._may_have_hump(zero, b, F1, V1, {})


@pytest.mark.parametrize("kind, resolution", [("cartesian", 48), ("radial", 512)])
def test_gate_searches_a_segment_with_a_saturated_endpoint(kind, resolution,
                                                          monkeypatch):
    grid = grids.build_grid(kind, 6.0, resolution)
    searched = []

    def recorded(a, b, spec, potential):
        searched.append(b)
        return 0.5, -np.inf      # never a hump: the path stays as it is
    monkeypatch.setattr(solver, "_segment_max", recorded)
    a = families.bump(grid, 0.5, amplitude=2.0)
    calm, clamped = (families.bump(grid, 0.5, amplitude=t) for t in (4.0, 10.0))
    assert not np.any(nl.saturation_mask(F1, calm.values))
    assert np.any(nl.saturation_mask(F1, clamped.values))
    for b in (calm, clamped):
        solver._insert_segment_humps([a, b], [0.0, 0.0], [0], F1, V1, {})
    # the slopes rule a hump out on the calm segment; on the clamped one
    # they are not trusted
    assert len(searched) == 1 and searched[0] is clamped


C12_SETTINGS = dict(domain_radius=6.0, resolution=48, max_iterations=2000,
                    residual_tolerance=2e-4, seed=11)


@pytest.mark.parametrize("spec, potential", [
    (F1, V1), (F1, PeriodicCoefficient(1.0, 0.5))], ids=["C12", "periodic-V"])
def test_gated_solve_reaches_the_ungated_level(spec, potential, monkeypatch):
    cfg = solver.SolverConfig(spec=spec, potential=potential, **C12_SETTINGS)
    gated = solver.solve_mountain_pass(cfg)
    monkeypatch.setattr(solver, "_may_have_hump", lambda *args: True)
    ungated = solver.solve_mountain_pass(cfg)
    assert gated.converged and ungated.converged
    assert abs(gated.level - ungated.level) <= 1e-6 * ungated.level


def test_gradients_are_kept_for_live_path_nodes_only(monkeypatch):
    insert = solver._insert_segment_humps
    cached = []

    def checked(path, levels, segments, spec, potential, gradients):
        live = {id(u) for u in path}
        assert all(id(u) in live for u in gradients)
        cached.append(len(gradients))
        return insert(path, levels, segments, spec, potential, gradients)
    monkeypatch.setattr(solver, "_insert_segment_humps", checked)
    cfg = solver.SolverConfig(spec=F1, potential=V1, **C12_SETTINGS)
    assert solver.solve_mountain_pass(cfg).converged
    assert max(cached) > 0


@pytest.mark.parametrize("kind, resolution, amplitude",
                         [("cartesian", 48, 0.5), ("radial", 512, 0.0)])
def test_minres_meets_the_forcing_term(kind, resolution, amplitude):
    grid = grids.build_grid(kind, 6.0, resolution)
    potential = PeriodicCoefficient(1.0, amplitude)
    spec = nl.NonlinearitySpec("exp_minus_one",
                               c_profile=PeriodicCoefficient(1.0, amplitude))
    lin = energy.linearize(families.gaussian(grid, 1.0, amplitude=0.4),
                           spec, potential)
    interior, lu = solver._quadratic_preconditioner(grid, potential)

    def apply(x):
        full = np.zeros(grid.num_nodes)
        full[interior] = x
        return energy.hessian_product(lin, full.reshape(grid.shape)).ravel()[interior]
    rhs = -(grid.weights * lin.gradient.values).ravel()[interior]
    x, products, estimate = solver._minres(apply, lu.solve, rhs,
                                           solver.NEWTON_FORCING, 200)

    def dual_norm(r):
        return np.sqrt(np.sum(r * lu.solve(r)))
    achieved = dual_norm(rhs - apply(x)) / dual_norm(rhs)
    assert 0 < products < 200
    assert achieved <= solver.NEWTON_FORCING
    assert abs(achieved - estimate) <= 1e-6 * estimate


@pytest.mark.parametrize("spec, potential", [
    (F1, V1), (F1, PeriodicCoefficient(1.0, 0.5))], ids=["C12", "periodic-V"])
def test_solve_without_newton_reaches_the_same_level(spec, potential,
                                                     monkeypatch):
    cfg = solver.SolverConfig(spec=spec, potential=potential, **C12_SETTINGS)
    newton = solver.solve_mountain_pass(cfg)
    monkeypatch.setattr(solver, "NEWTON_MAX_STEPS", 0)   # every run fails
    path = solver.solve_mountain_pass(cfg)
    assert newton.converged and 1 <= newton.newton_steps <= 4
    assert newton.hessian_products > 0
    # the path phase hands over below the switch, and Newton moves the
    # path maximum by about the square of its residual
    assert newton.ps_trace[-1][1] < solver.NEWTON_SWITCH
    assert len(newton.ps_trace) == newton.iterations
    assert abs(newton.level - newton.path_level) <= solver.NEWTON_SWITCH ** 2
    assert path.converged and path.newton_steps == path.hessian_products == 0
    assert path.level == path.path_level
    assert path.iterations > newton.iterations
    assert abs(path.level - newton.level) <= 1e-6 * newton.level


def test_radial_solve_level_with_newton():
    cfg = solver.SolverConfig(spec=F1, potential=V1, grid_kind="radial",
                              domain_radius=16.0, resolution=512, seed=1)
    res = solver.solve_mountain_pass(cfg)
    assert res.converged and res.newton_steps <= 4
    # the level the path phase alone converges to, in 227 iterations
    assert abs(res.level - 0.0633537647) <= 1e-7 * 0.0633537647
    assert np.min(res.field.values) >= 0.0
