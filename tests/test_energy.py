"""Energy functionals, gradients, Moser machinery and ray analyses."""

import math

import numpy as np
import pytest

from logchoquard import energy, families, grids, kernel
from logchoquard import nonlinearity as nl
from logchoquard.errors import (EmptyFamilyError, InvalidParameterError,
                                ResolutionFailureError)
from logchoquard.spaces import PeriodicCoefficient, norm_V_sq

F1 = nl.NonlinearitySpec("exp_minus_one")
F2 = nl.NonlinearitySpec("power_exp", p=2.0, q=2.0)
V1 = PeriodicCoefficient(1.0)


@pytest.fixture(scope="module")
def rgrid():
    return grids.build_grid("radial", 10.0, 1024)


@pytest.fixture(scope="module")
def cgrid():
    """energy_IV's near/far split is cartesian only."""
    return grids.build_grid("cartesian", 6.0, 64)


def _frak(u, spec):
    """frakF = B0(c F(u), c F(u)) by ``kernel.b0_form``, the route of the
    radial solve."""
    density = grids.GridField(u.grid, energy.compose_density(u, spec))
    return kernel.b0_form(density, density)


def test_zero_field_energy(cgrid):
    bd = energy.energy_IV(grids.zero_field(cgrid), F1, V1)
    assert bd.total == 0.0 and bd.frakF == 0.0 and bd.quadratic == 0.0


def test_energy_decomposition_identity(cgrid):
    u = families.gaussian(cgrid, 1.0, amplitude=0.7)
    bd = energy.energy_IV(u, F1, V1)
    assert bd.frakF == bd.frakF2 - bd.frakF1
    assert bd.total == bd.quadratic - bd.frakF / (4 * np.pi)
    light = energy.total_energy(u, F1, V1)
    assert abs(light - bd.total) < 1e-10 * (1 + abs(bd.total))


def test_frak_positive_parts(cgrid):
    u = families.gaussian(cgrid, 1.0, amplitude=0.5)
    bd = energy.energy_IV(u, F1, V1)
    assert bd.frakF1 >= 0 and bd.frakF2 >= 0


def test_small_multiples_have_positive_energy(rgrid):
    for sigma in (0.7, 1.5):
        u = families.gaussian(rgrid, sigma, amplitude=1e-2)
        assert energy.total_energy(u, F1, V1) > 0


def test_large_ray_goes_negative(rgrid):
    e = families.bump(rgrid, radius=0.25)
    t = 1.0
    val = energy.total_energy(e, F1, V1)
    while val >= 0 and t < 2**24:
        t *= 2.0
        val = energy.total_energy(e.with_values(t * e.values), F1, V1)
    assert val < 0


@pytest.mark.parametrize("kind, radius, n", [("radial", 20.0, 128),
                                             ("cartesian", 6.0, 32)])
@pytest.mark.parametrize("spec", [F1, F2], ids=["F1", "F2"])
def test_overflowing_pairing_gives_minus_inf(kind, radius, n, spec):
    # past t ~ 7 the B0 pairing of c F(t u) overflows: to nan on cartesian
    # grids (+inf meets -inf in the Parseval sum) and to nan or +inf on
    # radial ones.  The level is -inf there, quietly (RuntimeWarning is an
    # error in this suite)
    u = families.gaussian(grids.build_grid(kind, radius, n), 1.0)
    assert math.isfinite(energy.total_energy(u.with_values(3.0 * u.values),
                                             spec, V1))
    for t in (10.0, 30.0, 1e3):
        assert energy.total_energy(u.with_values(t * u.values), spec, V1) \
            == -math.inf, t


def test_small_support_frak_lower_bound(rgrid):
    # supports in B_{1/4}: frakF >= log(2) (int c F(u))^2
    u = families.bump(rgrid, radius=0.2, amplitude=0.6)
    mass = grids.integrate(grids.GridField(rgrid, energy.compose_density(u, F1)))
    assert _frak(u, F1) >= np.log(2) * mass**2 * (1 - 1e-9)


def test_frak_nonnegative_in_half_ball(rgrid):
    # any direction supported in B_rho, rho <= 1/2, has frakF >= 0
    for radius in (0.3, 0.5):
        u = families.bump(rgrid, radius=radius, amplitude=0.8)
        assert _frak(u, F1) >= 0


def test_gradient_zero_field(rgrid):
    g = energy.energy_gradient(grids.zero_field(rgrid), F1, V1)
    assert np.all(g.field.values == 0.0)
    assert g.frak == g.pairing == 0.0


@pytest.mark.parametrize("spec", [F1, F2], ids=["F1", "F2p2"])
def test_gradient_consistency(spec, rgrid):
    # localized positive fields keep the finite-difference oracle in its
    # asymptotic regime (the nonlocal term has a large third derivative
    # for fields spread over the whole disc)
    rng = np.random.default_rng(42)
    h = 1e-4
    for _ in range(10):
        u = families.random_smooth(rgrid, rng, positive=True, max_center=1.5)
        u = u.with_values(0.3 * u.values / max(np.abs(u.values).max(), 1e-9))
        phi = families.random_smooth(rgrid, rng, max_center=1.5)
        phi = phi.with_values(phi.values / max(np.abs(phi.values).max(), 1e-9))
        grad = energy.energy_gradient(u, spec, V1).field
        pair = energy.pair_gradient(grad, phi)
        up = u.with_values(u.values + h * phi.values)
        um = u.with_values(u.values - h * phi.values)
        fd = (energy.total_energy(up, spec, V1)
              - energy.total_energy(um, spec, V1)) / (2 * h)
        assert abs(pair - fd) <= 1e-5 * (1 + abs(pair))


def test_gradient_consistency_cartesian():
    g = grids.build_grid("cartesian", 8.0, 48)
    rng = np.random.default_rng(3)
    u = families.gaussian(g, 1.0, amplitude=0.5)
    phi = families.random_smooth(g, rng, max_center=3.0)
    grad = energy.energy_gradient(u, F1, V1).field
    pair = energy.pair_gradient(grad, phi)
    h = 1e-4
    up = u.with_values(u.values + h * phi.values)
    um = u.with_values(u.values - h * phi.values)
    fd = (energy.total_energy(up, F1, V1)
          - energy.total_energy(um, F1, V1)) / (2 * h)
    assert abs(pair - fd) <= 1e-5 * (1 + abs(pair))


def _second_variation_case(kind):
    """A positive state and two directions on the grids the Newton phase
    runs on: R = 6 with a periodic V and c on the 48^2 lattice, and 512
    radial nodes.  The directions are u times a smooth field, so u +- h v
    stays positive and the finite differences never cross the kink of f
    at zero."""
    if kind == "cartesian":
        grid = grids.build_grid("cartesian", 6.0, 48)
        spec = nl.NonlinearitySpec("exp_minus_one",
                                   c_profile=PeriodicCoefficient(1.0, 0.5))
        potential = PeriodicCoefficient(1.0, 0.5)
    else:
        grid = grids.build_grid("radial", 6.0, 512)
        spec, potential = F1, V1
    rng = np.random.default_rng(5)
    u = families.gaussian(grid, 1.0, amplitude=0.4)
    v, z = (u.values * families.random_smooth(grid, rng).values
            for _ in range(2))
    return u, v, z, spec, potential


@pytest.mark.parametrize("kind", ["cartesian", "radial"])
def test_hessian_product_matches_gradient_differences(kind):
    u, v, _, spec, potential = _second_variation_case(kind)
    lin = energy.linearize(energy.energy_gradient(u, spec, potential), spec,
                           potential)
    hv = energy.hessian_product(lin, v)
    w = u.grid.weights

    def difference(h):
        up, um = (energy.energy_gradient(u.with_values(u.values + s * v),
                                         spec, potential).field.values
                  for s in (h, -h))
        return np.max(np.abs(w * (up - um) / (2 * h) - hv)) / np.max(np.abs(hv))
    coarse, fine = difference(1e-3), difference(1e-4)
    assert coarse < 1e-5
    assert fine < 2e-2 * coarse      # O(h^2): a tenth of h, a hundredth of the error
    assert np.all(hv[w == 0] == 0.0)


@pytest.mark.parametrize("kind", ["cartesian", "radial"])
def test_hessian_product_is_symmetric(kind):
    u, v, z, spec, potential = _second_variation_case(kind)
    lin = energy.linearize(energy.energy_gradient(u, spec, potential), spec,
                           potential)
    hv_z = np.sum(energy.hessian_product(lin, v) * z)
    v_hz = np.sum(v * energy.hessian_product(lin, z))
    assert abs(hv_z - v_hz) <= 1e-12 * abs(hv_z)


def test_moser_cap_plateau_and_support():
    n, rho = 16, 0.5
    g = energy.moser_grid(n, rho, 10.0, 1024)
    cap, w = energy.moser_cap(n, rho, g)
    r = g.radii()
    plateau = math.sqrt(math.log(n) / (2 * math.pi))
    assert np.max(np.abs(w.values[r <= rho / n] - plateau)) < 1e-12
    assert np.all(w.values[r >= rho] == 0.0)
    assert abs(w.values[r <= rho / n][0] - plateau) < 1e-12


def test_moser_cap_dirichlet_energy_unit():
    g = energy.moser_grid(64, 0.5)
    _, w = energy.moser_cap(64, 0.5, g)
    assert abs(grids.dirichlet_energy(w) - 1.0) < 0.02


def test_moser_cap_resolution_failure():
    g = grids.build_grid("radial", 10.0, 64)   # too coarse for rho/n = 1/128
    with pytest.raises(ResolutionFailureError):
        energy.moser_cap(64, 0.5, g)


def test_moser_cap_parameter_validation():
    g = grids.build_grid("radial", 10.0, 256)
    with pytest.raises(InvalidParameterError):
        energy.moser_cap(1, 0.5, g)
    with pytest.raises(InvalidParameterError):
        energy.moser_cap(8, 0.7, g)


def test_delta_n_closed_form_q2():
    n, rho = 32, 0.5
    expected = rho**2 / (4 * math.log(n)) * (1.0 + 2.5 * math.log(1 + rho))
    assert abs(energy.delta_n_closed_form(n, rho, 2.0, 1.0) - expected) < 1e-15


def test_delta_n_scaling():
    d1 = energy.delta_n_closed_form(13, 0.4, 2.0, 1.0)
    d2 = energy.delta_n_closed_form(13**2, 0.4, 2.0, 1.0)
    assert abs(d2 - d1 / 2) < 1e-15


def test_delta_n_log_slope():
    ns = np.array([16, 64, 256, 1024])
    deltas = np.array([energy.delta_n_closed_form(int(n), 0.5, 2.0, 1.0)
                       for n in ns])
    slope = np.polyfit(np.log(np.log(ns)), np.log(deltas), 1)[0]
    assert abs(slope + 1.0) < 0.05


def test_ray_analysis_moser():
    g = energy.moser_grid(16, 0.5)
    cap, w = energy.moser_cap(16, 0.5, g)
    w = w.with_values(w.values / math.sqrt(1.0 + cap.delta_n))
    ray = energy.ray_analysis(w, F1, V1)
    assert 0.0 < ray.max_value < 0.5
    assert ray.max_value == energy.ray_energy(w, F1, V1)(ray.t_star)
    # stationarity by centered differencing
    h = 1e-5
    up = energy.total_energy(w.with_values((ray.t_star + h) * w.values), F1, V1)
    um = energy.total_energy(w.with_values((ray.t_star - h) * w.values), F1, V1)
    assert abs((up - um) / (2 * h)) < 1e-4 * (1 + abs(ray.max_value))


def _moser_direction(n, rho=0.5, q=2.0, potential=V1):
    """The normalized Moser cap w_n on its 2048-node anchored grid."""
    cap, w = energy.moser_cap(n, rho, energy.moser_grid(n, rho), q=q,
                              potential=potential)
    return w.with_values(w.values / math.sqrt(1.0 + cap.delta_n))


ORACLE_SPECS = {
    "exp_minus_one": F1,
    "power_exp-p1": nl.NonlinearitySpec("power_exp", p=1.0, q=2.0),
    "power_exp-p2": F2,
    "piecewise-q3": nl.NonlinearitySpec("piecewise", p=2.0, q=3.0),
}


@pytest.mark.parametrize("n", [4, 64])
@pytest.mark.parametrize("rho", [0.1, 0.5])
@pytest.mark.parametrize("floor", [0.1, 10.0])
@pytest.mark.parametrize("kind", list(ORACLE_SPECS))
def test_moser_ray_rises_then_falls_and_the_search_finds_its_maximum(
        kind, floor, rho, n):
    # ray_analysis runs one search from t = 1, which finds the maximum of a
    # ray with one interior local maximum.  A cap lives in |x| <= rho <= 1/2,
    # where the radial kernel -log max(r_i, r_j) is positive, so the level
    # rises and then falls: on a 1001-point scan of [1e-3, 4] its slope
    # changes sign once, and the search reads no lower than the scan
    spec = ORACLE_SPECS[kind]
    potential = PeriodicCoefficient(floor)
    w = _moser_direction(n, rho, spec.q, potential)
    level_at = energy.ray_energy(w, spec, potential)
    levels = np.array([level_at(t) for t in np.geomspace(1e-3, 4.0, 1001)])
    assert np.all(np.isfinite(levels))
    signs = np.sign(np.diff(levels))
    assert signs[0] == 1.0 and signs[-1] == -1.0
    assert np.count_nonzero(np.diff(signs)) == 1
    ray = energy.ray_analysis(w, spec, potential)
    assert ray.max_value >= np.max(levels) * (1.0 - 1e-14)


@pytest.mark.parametrize("direction", [
    lambda: families.bump(grids.build_grid("cartesian", 6.0, 48), 0.5,
                          amplitude=0.6),
    lambda: families.bump(grids.build_grid("radial", 6.0, 512), 0.5,
                          amplitude=0.6),
    lambda: _moser_direction(16),
], ids=["cartesian-48", "radial-512", "moser-2048"])
def test_ray_energy_is_total_energy_along_the_ray(direction):
    # ray_energy takes total_energy's B0 self-pairing and t^2 (1/2)||v||_V^2
    # for the quadratic part.  Where t v is exact (t a power of two) the two
    # levels are equal.  Elsewhere they differ by the rounding of
    # ||t v||_V^2 alone, a sum of squares that cancels nothing (2e-15
    # relative on the Moser cap), while the closure's is t^2 times one value
    v = direction()
    level_at = energy.ray_energy(v, F1, V1)
    half_norm = 0.5 * norm_V_sq(v, V1)
    for t in (0.25, 0.5, 1.0):
        assert level_at(t) == energy.total_energy(v.with_values(t * v.values),
                                                  F1, V1)
    for t in (0.3, 0.7, 0.9, 1.2):
        tv = v.with_values(t * v.values)
        expected = energy.total_energy(tv, F1, V1)
        rounding = t * t * half_norm - 0.5 * norm_V_sq(tv, V1)
        assert abs(rounding) <= 1e-14 * t * t * half_norm
        assert abs(level_at(t) - expected - rounding) <= 1e-13 * abs(expected)


def test_ray_analysis_no_interior_max(rgrid, monkeypatch):
    # an inert nonlinearity: c F(u) vanishes, so I_V(t u) grows like t^2
    monkeypatch.setattr(energy, "compose_density",
                        lambda u, spec: np.zeros(u.grid.shape))
    u = families.gaussian(rgrid, 1.0)
    from logchoquard.errors import NoInteriorMaxError
    with pytest.raises(NoInteriorMaxError):
        energy.ray_analysis(u, F1, V1, t_max=2.0)


def test_mp_level_upper_bound_family():
    family = []
    for n in (8, 16, 32):
        g = energy.moser_grid(n, 0.5)
        cap, w = energy.moser_cap(n, 0.5, g)
        w = w.with_values(w.values / math.sqrt(1.0 + cap.delta_n))
        family.append(({"n": n}, w))
    bound, witness, rays = energy.mp_level_upper_bound(F1, V1, family)
    assert 0.0 < bound < 0.5
    # one ray per direction, in input order; the witness attains the bound
    assert [ray.direction for ray in rays] == [field for _, field in family]
    maxima = [ray.max_value for ray in rays]
    assert bound == min(maxima)
    assert witness == family[maxima.index(bound)][0]
    smaller, _, _ = energy.mp_level_upper_bound(F1, V1, family[:1])
    assert bound <= smaller + 1e-15


def test_mp_level_empty_family():
    with pytest.raises(EmptyFamilyError):
        energy.mp_level_upper_bound(F1, V1, [])
