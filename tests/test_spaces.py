"""Radial change of variables, weighted norms and TM functionals."""

import numpy as np
import pytest

from logchoquard import families, grids, spaces
from logchoquard.errors import DomainError, EmptyFamilyError


@pytest.fixture(scope="module")
def rgrid():
    return grids.build_grid("radial", 10.0, 2048)


def test_T_at_zero_and_one():
    assert spaces.radial_map_T(0.0) == 0.0
    assert abs(spaces.radial_map_T(1.0) - np.sqrt(np.log(np.e + 1.0))) < 1e-14
    assert abs(spaces.radial_map_T(1.0) - 1.146) < 1e-3


def test_T_prime_at_zero():
    assert abs(spaces.radial_map_T_prime(0.0) - 1.0) < 1e-14


def test_T_monotone():
    r = np.geomspace(1e-8, 1e3, 1000)
    t = spaces.radial_map_T(r)
    assert np.all(np.diff(t) > 0)
    assert np.all(spaces.radial_map_T_prime(r) > 0)


def test_T_negative_rejected():
    with pytest.raises(DomainError):
        spaces.radial_map_T(-0.5)


def test_T_inverse_roundtrip():
    r = np.concatenate(([0.0, 3.7], np.geomspace(1e-6, 50.0, 2000)))
    back = spaces.radial_map_T_inverse(spaces.radial_map_T(r))
    assert np.max(np.abs(back - r)) < 1e-10


def test_T_inverse_of_known_value():
    assert abs(spaces.radial_map_T_inverse(1.14601) - 1.0) < 1e-4


def test_T_inverse_converges_at_huge_arguments():
    for s in (1e6, 1e9, 1e12):
        r = spaces.radial_map_T_inverse(s)
        assert abs(spaces.radial_map_T(r) - s) <= 1e-12 * (1 + s)


def test_pointwise_bound_chains():
    r = np.geomspace(1e-6, 1e4, 10_000)
    chain1, chain2 = spaces.transform_bound_chains(r)
    assert np.all(chain1[0] < chain1[1]) and np.all(chain1[1] < chain1[2])
    assert np.all(chain2[0] < chain2[1]) and np.all(chain2[1] < chain2[2])


def test_transform_zero_field(rgrid):
    v = spaces.transform_to_unweighted(grids.zero_field(rgrid))
    assert np.all(v.values == 0.0)


def test_norm_sandwich_family(rgrid):
    slack = 1.02
    for name, u in families.sandwich_family(rgrid):
        h1, w0, ratio = spaces.sandwich_ratio(u)
        assert w0 > 0, name
        assert h1 < 2.0 * w0 * slack, (name, ratio)
        assert h1 > w0 / 3.0 / slack, (name, ratio)


def test_transform_roundtrip(rgrid):
    u = families.gaussian(rgrid, 1.3)
    v = spaces.transform_to_unweighted(u)
    back = spaces.transform_from_unweighted(v, rgrid)
    scale = np.max(np.abs(u.values))
    assert np.max(np.abs(back.values - u.values)) < 1e-3 * scale


def test_norm_1qw_zero(rgrid):
    weight = np.log(np.e + rgrid.radii())
    assert spaces.norm_1qw(grids.zero_field(rgrid), 2.0, weight) == 0.0
    assert spaces.norm_1qw(grids.zero_field(rgrid), 3.0, weight,
                           spaces.PeriodicCoefficient(1.0)) == 0.0


def test_norm_1qw_sums_gradient_potential_and_mass(rgrid):
    u = families.gaussian(rgrid, 1.0)
    weight = np.log1p(rgrid.radii())
    potential = spaces.PeriodicCoefficient(1.5)
    grad_sq = grids.dirichlet_energy(u)
    pot_mass = grids.integrate(u, lambda s: s**2, weight=potential.on_grid(rgrid))
    mass = grids.integrate(u, lambda s: np.abs(s) ** 3.0, weight=weight)
    assert spaces.norm_1qw(u, 3.0, weight, potential) \
        == (grad_sq + pot_mass) + mass ** (2.0 / 3.0)
    assert spaces.norm_1qw_sq(u, 3.0, potential) \
        == spaces.norm_1qw(u, 3.0, weight, potential)
    assert spaces.norm_w0_sq(u) == grad_sq + grids.integrate(
        u, lambda s: s**2, weight=np.log(np.e + rgrid.radii()))


def test_weighted_mass_exceeds_plain(rgrid):
    u = families.gaussian(rgrid, 1.0)
    weighted = grids.integrate(u, lambda s: s**2,
                               weight=np.log(np.e + rgrid.radii()))
    plain = grids.integrate(u, lambda s: s**2)
    assert weighted > plain


def test_norm_w0_matches_fine_quadrature():
    # refined-grid oracle for ||e^{-r^2}||_{w0}^2
    fine = grids.build_grid("radial", 10.0, 8192)
    u_fine = families.gaussian(fine, 1.0)
    oracle = spaces.norm_w0_sq(u_fine)
    base = grids.build_grid("radial", 10.0, 2048)
    val = spaces.norm_w0_sq(families.gaussian(base, 1.0))
    assert abs(val - oracle) < 1e-4 * oracle


def test_tm_zero_field(rgrid):
    val = spaces.tm_functional(grids.zero_field(rgrid), alpha=2 * np.pi)
    assert val.value == 0.0 and not val.saturated


def test_tm_monotone_in_alpha(rgrid):
    u = families.gaussian(rgrid, 1.0)
    v1 = spaces.tm_functional(u, 1.0).value
    v2 = spaces.tm_functional(u, 2.0).value
    assert v1 < v2


def test_tm_weighted_dominates_unweighted(rgrid):
    u = families.gaussian(rgrid, 1.0)
    assert (spaces.tm_functional(u, 2 * np.pi, weighted=True).value
            >= spaces.tm_functional(u, 2 * np.pi, weighted=False).value)


def test_tm_saturation_flag(rgrid):
    u = families.gaussian(rgrid, 1.0, amplitude=30.0)
    val = spaces.tm_functional(u, 4 * np.pi)
    assert val.saturated and np.isfinite(val.value)


def test_tm_sup_search_empty():
    with pytest.raises(EmptyFamilyError):
        spaces.tm_sup_search([], alpha=1.0)


def test_tm_sup_search_trivial(rgrid):
    best, params, rows = spaces.tm_sup_search([("zero", grids.zero_field(rgrid))],
                                              alpha=2 * np.pi)
    assert best == 0.0 and params == "zero" and rows == [("zero", 0.0)]


def test_tm_sup_search_moser_bounded_at_2pi():
    family = families.moser_family((4, 8, 16, 32, 64))
    best, _, rows = spaces.tm_sup_search(family, alpha=2 * np.pi)
    values = [value for _, value in rows]
    assert best == max(values)
    assert max(values) / min(values) < 5.0  # no blow-up trend at alpha = 2 pi


@pytest.mark.parametrize("q_cap", [None, 3.0])
def test_tm_sup_search_values_are_direct_tm_evaluations(q_cap):
    # each member scaled to the unit w0 sphere of exponent q_cap (or 2)
    family = families.moser_family((4, 16, 64), rho=0.5)
    alpha = 2 * np.pi if q_cap is None else 1.0 / np.sqrt(q_cap)
    best, best_params, rows = spaces.tm_sup_search(family, alpha, q_cap=q_cap)
    direct = []
    for params, field in family:
        nrm = spaces.norm_w0_sq(field, 2.0 if q_cap is None else q_cap)
        scaled = field.with_values(field.values / np.sqrt(nrm))
        direct.append((params, spaces.tm_functional(scaled, alpha, q_cap=q_cap).value))
    assert rows == direct
    first = max(range(len(direct)), key=lambda i: direct[i][1])
    assert (best_params, best) == direct[first]


def test_tm_moser_blowup_at_16pi():
    family = families.moser_family((4, 16, 64))
    values = []
    for params, field in family:
        nrm = spaces.norm_w0_sq(field)
        scaled = field.with_values(field.values / np.sqrt(nrm))
        values.append(spaces.tm_functional(scaled, 16 * np.pi).value)
    assert values[0] < values[1] < values[2]
    assert values[2] > 10 * values[0]


def test_coefficient_on_grid_is_cached_read_only_and_keyed_by_value():
    g = grids.build_grid("cartesian", 2.0, 16)
    flat, periodic = spaces.PeriodicCoefficient(1.5), spaces.PeriodicCoefficient(1.0, 0.5)
    for coeff, expected in ((flat, np.full(g.shape, 1.5)),
                            (periodic, periodic(*g.meshgrid()))):
        values = coeff.on_grid(g)
        assert np.array_equal(values, expected)
        assert not values.flags.writeable
        assert coeff.on_grid(g) is values
        # an equal coefficient shares the entry, another grid gets its own
        assert spaces.PeriodicCoefficient(coeff.floor, coeff.amplitude).on_grid(g) is values
        assert coeff.on_grid(grids.build_grid("cartesian", 2.0, 16)) is not values
    assert not np.array_equal(flat.on_grid(g), periodic.on_grid(g))
