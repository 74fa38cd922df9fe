"""Grid construction, quadrature and Dirichlet-energy checks."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from logchoquard import energy, families, grids, kernel, reports, spaces
from logchoquard import nonlinearity as nl
from logchoquard.errors import (GridMismatchError, InvalidParameterError,
                                LogChoquardError)


def test_cartesian_weights_sum_to_square_area():
    g = grids.build_grid("cartesian", 1.0, 16)
    assert abs(np.sum(g.weights) - 4.0) < 1e-10 * 4.0


def test_radial_weights_sum_to_disc_area():
    g = grids.build_grid("radial", 10.0, 2048)
    assert abs(np.sum(g.weights) - 100 * np.pi) < 1e-10 * 100 * np.pi


def test_radial_weights_positive():
    g = grids.build_grid("radial", 20.0, 512, anchors=(0.5 / 32, 0.5))
    assert np.all(g.weights > 0)
    assert 0.5 in g.nodes and 0.5 / 32 in g.nodes


def test_small_resolution_rejected():
    with pytest.raises(InvalidParameterError):
        grids.build_grid("radial", 10.0, 4)
    with pytest.raises(InvalidParameterError):
        grids.build_grid("cartesian", -1.0, 16)


@pytest.mark.parametrize("kind", ["cartesian", "radial"])
@pytest.mark.parametrize("radius", [np.inf, -np.inf, np.nan])
def test_non_finite_radius_rejected(kind, radius):
    with pytest.raises(InvalidParameterError, match="finite"):
        grids.build_grid(kind, radius, 16)


# at 16 nodes the cartesian cell is R / 8 and the first radial node R / 160;
# R, and that length, must have a 4th power in [2^-1022, 2^1024)
@pytest.mark.parametrize("kind, radius, builds", [
    ("cartesian", 2.0**255, True), ("cartesian", 2.0**256, False),
    ("radial", 2.0**255, True), ("radial", 2.0**256, False),
    ("cartesian", 2.0**-250, True), ("radial", 2.0**-248, True),
    ("radial", 2.0**-250, False), ("cartesian", 2.0**-253, False),
])
def test_radius_and_spacing_must_have_normal_fourth_powers(kind, radius,
                                                           builds):
    if builds:
        assert np.all(grids.build_grid(kind, radius, 16).weights > 0)
    else:
        with pytest.raises(InvalidParameterError, match="4th power"):
            grids.build_grid(kind, radius, 16)


def test_integrate_constant_field():
    g = grids.build_grid("cartesian", 2.0, 64)
    u = grids.GridField(g, np.ones(g.shape))
    assert abs(grids.integrate(u) - 16.0) < 1e-8


def test_integrate_zero_field_with_map():
    g = grids.build_grid("radial", 5.0, 64)
    u = grids.zero_field(g)
    assert grids.integrate(u, pointwise_map=lambda s: np.expm1(s)) == 0.0


def test_integrate_gaussian_radial():
    # int e^{-r^2} dx = pi (1 - e^{-R^2}) ~= pi at R = 10
    g = grids.build_grid("radial", 10.0, 2048)
    u = grids.field_from_radial(g, lambda r: np.exp(-r**2))
    assert abs(grids.integrate(u) - np.pi) < 1e-6


def test_quadrature_exact_for_linear_radial():
    g = grids.build_grid("radial", 7.0, 256)
    u = grids.field_from_radial(g, lambda r: 3.0 - 0.25 * r)
    exact = 3.0 * np.pi * 49 - 0.25 * 2 * np.pi * 7.0**3 / 3.0
    assert abs(grids.integrate(u) - exact) < 1e-9 * abs(exact)


def test_integrate_linearity():
    g = grids.build_grid("radial", 5.0, 128)
    rng = np.random.default_rng(3)
    u = grids.GridField(g, rng.normal(size=g.shape))
    v = grids.GridField(g, rng.normal(size=g.shape))
    a, b = 1.7, -0.3
    combo = grids.GridField(g, a * u.values + b * v.values)
    lhs = grids.integrate(combo)
    rhs = a * grids.integrate(u) + b * grids.integrate(v)
    assert abs(lhs - rhs) < 1e-12 * (1 + abs(lhs))


def test_grid_mismatch_weight():
    u = grids.zero_field(grids.build_grid("radial", 5.0, 64))
    with pytest.raises(GridMismatchError):
        grids.integrate(u, weight=np.ones(63))


def test_integrate_weight_multiplies_the_mapped_values():
    g = grids.build_grid("cartesian", 3.0, 24)
    u = families.gaussian(g, 1.0, center=(0.5, -0.25))
    w = np.log1p(g.radii())
    weighted = grids.integrate(u, pointwise_map=np.square, weight=w)
    assert weighted == grids.integrate(u.with_values(u.values ** 2 * w))


def test_integrate_rejects_a_field_as_weight():
    # weights are arrays in grid shape; a GridField is not one
    g = grids.build_grid("radial", 5.0, 64)
    u = families.gaussian(g, 1.0)
    with pytest.raises(GridMismatchError):
        grids.integrate(u, weight=u)


@pytest.mark.parametrize("family", [families.gaussian, families.bump])
def test_off_centre_radial_family_raises_a_package_error(family):
    # a radial grid holds centred profiles only
    g = grids.build_grid("radial", 5.0, 64)
    with pytest.raises(LogChoquardError):
        family(g, 1.0, center=(0.5, 0.0))


def test_dirichlet_constant_is_zero():
    g = grids.build_grid("radial", 10.0, 256)
    u = grids.GridField(g, np.full(g.shape, 2.5))
    assert abs(grids.dirichlet_energy(u)) < 1e-9


def test_dirichlet_gaussian_radial():
    # int |grad e^{-r^2}|^2 dx = int 4 r^2 e^{-2 r^2} 2 pi r dr = pi
    g = grids.build_grid("radial", 10.0, 4096)
    u = grids.field_from_radial(g, lambda r: np.exp(-r**2))
    assert abs(grids.dirichlet_energy(u) - np.pi) < 1e-4


def test_dirichlet_refinement_convergence():
    errs = []
    for n in (512, 1024):
        g = grids.build_grid("radial", 10.0, n)
        u = grids.field_from_radial(g, lambda r: np.exp(-r**2))
        errs.append(abs(grids.dirichlet_energy(u) - np.pi))
    assert errs[0] / errs[1] >= 3.0


def test_dirichlet_gaussian_cartesian_converges():
    errs = []
    for n in (64, 128):
        g = grids.build_grid("cartesian", 8.0, n)
        u = grids.field_from_radial(g, lambda r: np.exp(-r**2))
        errs.append(abs(grids.dirichlet_energy(u) - np.pi))
    assert errs[0] / errs[1] >= 3.0


# ---------------------------------------------------------------------------
# radial quadrature and stencils against the per-triple loop rules
# ---------------------------------------------------------------------------

def _loop_ring_moments(a, b):
    two_pi = 2.0 * np.pi
    m0 = two_pi * (b**2 - a**2) / 2.0
    m1 = two_pi * (b**3 - a**3) / 3.0
    m2 = two_pi * (b**4 - a**4) / 4.0
    return m0, m1, m2


def _loop_parabola_weights(x, a, b):
    m0, m1, m2 = _loop_ring_moments(a, b)
    w = np.empty(3)
    for j in range(3):
        xi, xk = np.delete(x, j)
        w[j] = (m2 - (xi + xk) * m1 + xi * xk * m0) / ((x[j] - xi) * (x[j] - xk))
    return w


def _loop_linear_weights(a, b):
    h = b - a
    return np.array([np.pi * h * (b + 2 * a) / 3.0, np.pi * h * (2 * b + a) / 3.0])


def _loop_radial_weights(nodes):
    """Reference rule: one parabola (or two linear segments) per triple."""
    n = len(nodes)
    w = np.zeros(n)
    i = 0
    while i + 2 <= n - 1:
        pw = _loop_parabola_weights(nodes[i:i + 3], nodes[i], nodes[i + 2])
        if np.any(pw < 0):
            w[i:i + 2] += _loop_linear_weights(nodes[i], nodes[i + 1])
            w[i + 1:i + 3] += _loop_linear_weights(nodes[i + 1], nodes[i + 2])
        else:
            w[i:i + 3] += pw
        i += 2
    if i == n - 2:
        pw = _loop_parabola_weights(nodes[n - 3:n], nodes[n - 2], nodes[n - 1])
        if pw.min() < -1e-3 * abs(pw).max():
            w[n - 2:n] += _loop_linear_weights(nodes[n - 2], nodes[n - 1])
        else:
            w[n - 3:n] += pw
    w[0] += np.pi * nodes[0] ** 2
    return w


def _loop_stencil_row(x, j):
    x0, x1, x2 = x
    h1, h2 = x1 - x0, x2 - x1
    if j == 0:
        others = np.array([(h1 + h2) / (h1 * h2), -h1 / (h2 * (h1 + h2))])
        return np.array([-others.sum(), others[0], others[1]])
    if j == 1:
        others = np.array([-h2 / (h1 * (h1 + h2)), h1 / (h2 * (h1 + h2))])
        return np.array([others[0], -others.sum(), others[1]])
    others = np.array([h2 / (h1 * (h1 + h2)), -(h1 + h2) / (h1 * h2)])
    return np.array([others[0], others[1], -others.sum()])


def _loop_radial_derivative_matrix(nodes):
    """Reference stencils: one quadratic through 3 nodes per row."""
    n = len(nodes)
    rows, cols, vals = [], [], []
    for i in range(n):
        base = min(max(i - 1, 0), n - 3)
        coeffs = _loop_stencil_row(nodes[base:base + 3], i - base)
        rows.extend([i, i, i])
        cols.extend([base, base + 1, base + 2])
        vals.extend(coeffs)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _assert_matches_loop(nodes):
    nodes = np.asarray(nodes, dtype=float)
    assert np.array_equal(grids._radial_weights(nodes), _loop_radial_weights(nodes))
    coeffs, base = grids._radial_stencil(nodes)
    ref = _loop_radial_derivative_matrix(nodes)
    assert np.array_equal(coeffs.ravel(), ref.data)
    assert np.array_equal((base[:, None] + np.arange(3)).ravel(), ref.indices)
    assert np.array_equal(ref.indptr, np.arange(0, 3 * len(nodes) + 1, 3))


@pytest.mark.parametrize("n", [8, 9, 512, 513, 2048])
def test_radial_rules_bit_identical_to_loop_on_plain_grids(n):
    for radius in (1.0, 16.0):
        _assert_matches_loop(grids.build_grid("radial", radius, n).nodes)


@pytest.mark.parametrize("rho", [0.5, 0.25, 0.1])
def test_radial_rules_bit_identical_to_loop_on_moser_grids(rho):
    skewed = 0
    for n in (2, 3, 5, 8, 13, 21, 34):
        for resolution in (2048, 2047):
            nodes = energy.moser_grid(n, rho, resolution=resolution).nodes
            _assert_matches_loop(nodes)
            triples = [nodes[i:i + 3] for i in range(0, len(nodes) - 2, 2)]
            skewed += sum(np.any(_loop_parabola_weights(x, x[0], x[2]) < 0)
                          for x in triples)
    assert skewed > 0   # the linear split is exercised


def test_radial_rules_bit_identical_to_loop_on_skewed_triple():
    nodes = np.array([1.0, 1.001, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    assert np.any(_loop_parabola_weights(nodes[:3], 1.0, 2.0) < 0)
    _assert_matches_loop(nodes)
    # even n whose short trailing segment takes the last parabola; the
    # plain grids above all take the linear tail rule
    _assert_matches_loop(np.append(nodes, 8.001))


# a near-coincident last pair: the tail parabola's weights on it are
# rounding noise of opposite signs, about -/+8.9e5
NEAR_COINCIDENT_TAIL = [1.0, 2.0, 3.0, 4.0, 5.0, 99.0, 100.0, 99.99999999999999]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=100.0), min_size=8,
                max_size=300, unique=True))
@example(NEAR_COINCIDENT_TAIL)
def test_radial_rules_bit_identical_to_loop_on_random_nodes(values):
    _assert_matches_loop(np.sort(values))


def _radial_grid_on(nodes):
    nodes = np.array(nodes, dtype=float)
    return grids.Grid("radial", float(nodes[-1]), len(nodes), nodes,
                      grids._radial_weights(nodes))


def radial_stiffness(grid):
    """scipy's D^T W D of the loop stencils: the radial stiffness matrix."""
    d = _loop_radial_derivative_matrix(grid.nodes)
    return (d.T @ sp.diags(grid.weights) @ d).tocsr()


def _assert_matrix_free_matches_sparse_product(grid):
    """The stiffness product, the energy gradient's covector and the Hessian
    product against scipy's D^T W D of the loop stencils, to 1e-13 of
    max(|A| |x|), the rounding scale of the product A x."""
    ref = radial_stiffness(grid)
    n = grid.resolution
    rng = np.random.default_rng(n)

    def close(got, expected, x):
        scale = np.max(abs(ref) @ np.abs(x))
        return np.max(np.abs(got - expected)) <= 1e-13 * scale
    for x in (rng.normal(size=n), np.exp(-grid.nodes ** 2), np.zeros(n)):
        assert close(grids.stiffness_product(grid, x), ref @ x, x)
    spec, potential = nl.NonlinearitySpec(q=2.0), spaces.PeriodicCoefficient(1.0)
    u = grids.GridField(grid, 0.3 * np.exp(-grid.nodes ** 2))
    v = rng.normal(size=n)

    def both():
        lin = energy.linearize(energy.energy_gradient(u, spec, potential),
                               spec, potential)
        return (grid.weights * lin.gradient.field.values,
                energy.hessian_product(lin, v))
    matrix_free = both()
    with mock.patch.object(grids, "stiffness_product", lambda _, x: ref @ x):
        sparse = both()
    assert close(matrix_free[0], sparse[0], u.values)
    assert close(matrix_free[1], sparse[1], v)


@pytest.mark.parametrize("n", [8, 9, 512, 513, 2048])
def test_radial_stiffness_matches_sparse_product_on_plain_grids(n):
    for radius in (1.0, 16.0):
        _assert_matrix_free_matches_sparse_product(
            grids.build_grid("radial", radius, n))


@pytest.mark.parametrize("rho", [0.5, 0.1])
def test_radial_stiffness_matches_sparse_product_on_moser_grids(rho):
    for n in (2, 5, 21, 34):
        for resolution in (2048, 2047):
            _assert_matrix_free_matches_sparse_product(
                energy.moser_grid(n, rho, resolution=resolution))


def test_radial_stiffness_matches_sparse_product_on_skewed_triple():
    # the uniform gaps from 2.0 on give centre coefficients of -0.0
    nodes = np.array([1.0, 1.001, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    for x in (nodes, np.append(nodes, 8.001)):
        _assert_matrix_free_matches_sparse_product(_radial_grid_on(x))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-3, max_value=100.0), min_size=8,
                max_size=300, unique=True))
@example(NEAR_COINCIDENT_TAIL)
def test_radial_stiffness_matches_sparse_product_on_random_nodes(values):
    _assert_matrix_free_matches_sparse_product(_radial_grid_on(np.sort(values)))


def _long_double_dirichlet(grid, values):
    """sum_i w_i (D u)_i^2 of the loop stencils, in long double."""
    d = _loop_radial_derivative_matrix(grid.nodes).tocoo()
    du = np.zeros(grid.resolution, dtype=np.longdouble)
    np.add.at(du, d.row, d.data.astype(np.longdouble)
              * values[d.col].astype(np.longdouble))
    return np.sum(grid.weights.astype(np.longdouble) * du ** 2)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_radial_dirichlet_energy_does_not_cancel_on_moser_caps(n):
    # u @ (A u) read 1.0e-11 to 5.9e-11 off on these caps: the plateau's
    # rows of A u cancel to its rounding
    _, u = energy.moser_cap(n, 0.5, energy.moser_grid(n, 0.5))
    exact = _long_double_dirichlet(u.grid, u.values)
    assert abs(grids.dirichlet_energy(u) - exact) <= 1e-14 * exact


@pytest.mark.parametrize("n", [8, 64, 512])
def test_radial_dirichlet_energy_is_non_negative(n):
    # nearly constant fields are where a cancelling form goes negative
    g = grids.build_grid("radial", 1e-8, n)
    rng = np.random.default_rng(n)
    for scale in (1.0, 1e-8, 1e-12, 0.0):
        for _ in range(20):
            values = 1.0 + scale * rng.normal(size=n)
            energy_value = grids.dirichlet_energy(grids.GridField(g, values))
            assert energy_value >= 0
            assert energy_value > 0 or scale == 0.0


def _rule_integral(grid, coeffs):
    """What the radial rule computes for sum_k c_k r^k: the exact integral
    over [r_0, R] plus the constant value at r_0 over the disc of radius r_0."""
    r0, radius = grid.nodes[0], grid.domain_radius
    antideriv = lambda r: sum(2 * np.pi * c * r ** (k + 2) / (k + 2)
                              for k, c in enumerate(coeffs))
    value_r0 = sum(c * r0 ** k for k, c in enumerate(coeffs))
    return antideriv(radius) - antideriv(r0) + np.pi * r0 ** 2 * value_r0


def _rule_error(grid, coeffs):
    u = grids.field_from_radial(
        grid, lambda r: sum(c * r ** k for k, c in enumerate(coeffs)))
    exact = _rule_integral(grid, coeffs)
    return abs(grids.integrate(u) - exact) / abs(exact)


@pytest.mark.parametrize("n", [33, 65, 513, 2049])
def test_radial_quadrature_exact_to_degree_two_on_odd_plain_grids(n):
    # n = 9 is too coarse: its geometric triples are skewed and split linearly
    g = grids.build_grid("radial", 16.0, n)
    for coeffs in ((1.0,), (0.0, 1.0), (0.0, 0.0, 1.0), (2.0, -0.5, 0.125)):
        assert _rule_error(g, coeffs) < 1e-12


@pytest.mark.parametrize("grid", [
    ("plain", 8), ("plain", 9), ("plain", 512), ("plain", 2048),
    ("moser", 5), ("moser", 21),
])
def test_radial_quadrature_exact_to_degree_one_on_all_grids(grid):
    kind, n = grid
    g = (grids.build_grid("radial", 16.0, n) if kind == "plain"
         else energy.moser_grid(n, 0.5))
    for coeffs in ((1.0,), (0.0, 1.0), (3.0, 0.25)):
        assert _rule_error(g, coeffs) < 1e-12


# ---------------------------------------------------------------------------
# the compact cartesian Dirichlet form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("radius, n", [(4.0, 32), (6.0, 48), (16.0, 128)])
def test_cartesian_checkerboard_rayleigh_quotient_is_mesh_scale(radius, n):
    # 2h central differences left the odd-even mode nearly free
    # (0.60, 0.33 and 0.075 / h^2 here); the edge form charges ~8 / h^2
    g = grids.build_grid("cartesian", radius, n)
    i, j = np.indices(g.shape)
    u = grids.GridField(g, (-1.0) ** (i + j))
    quotient = grids.dirichlet_energy(u) / grids.integrate(u, lambda s: s**2)
    assert quotient >= 1.0 / g.spacing**2


def cartesian_stiffness(n):
    """D^T D summed over both axes, with D the forward differences: the
    edge form of an n x n lattice as a scipy matrix."""
    step = sp.diags([-np.ones(n - 1), np.ones(n - 1)], [0, 1], shape=(n - 1, n))
    dx, dy = sp.kron(step, sp.identity(n)), sp.kron(sp.identity(n), step)
    return (dx.T @ dx + dy.T @ dy).tocsr()


@pytest.mark.parametrize("n", [8, 33, 128])
def test_cartesian_matrix_free_energy_equals_stiffness_form(n):
    g = grids.build_grid("cartesian", 3.0, n)
    a = cartesian_stiffness(n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        u = grids.GridField(g, rng.normal(size=g.shape))
        flat = u.values.ravel()
        product = a @ flat
        quadratic = float(flat @ product)
        assert abs(grids.dirichlet_energy(u) - quadratic) <= 1e-12 * quadratic
        got = grids.stiffness_product(g, u.values).ravel()
        assert np.max(np.abs(got - product)) <= 1e-12 * np.max(np.abs(product))


# ---------------------------------------------------------------------------
# grid identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind, radius, n", [("cartesian", 4.0, 16),
                                             ("radial", 5.0, 64)])
def test_loaded_fields_pair_with_an_equal_grid(tmp_path, kind, radius, n):
    g = grids.build_grid(kind, radius, n)
    rng = np.random.default_rng(5)
    u, v = (families.random_smooth(g, rng) for _ in range(2))
    loaded = []
    for name, field in (("u", u), ("v", v)):
        reports.save_field(field, str(tmp_path / name))
        loaded.append(reports.load_field(str(tmp_path / name)))
    lu, lv = loaded
    assert lu.grid is not lv.grid and lu.grid is not g
    assert kernel.b0_form(lu, lv) == kernel.b0_form(u, v)
    assert kernel.b0_form(lu, v) == kernel.b0_form(u, v)
    assert energy.pair_gradient(lu, lv) == energy.pair_gradient(u, v)
    assert energy.pair_gradient(u, lv) == energy.pair_gradient(u, v)


def test_grids_differing_in_any_defining_value_do_not_pair():
    base = grids.build_grid("cartesian", 4.0, 16)
    nodes, weights = np.array(base.nodes), np.array(base.weights)
    others = [
        grids.build_grid("radial", 4.0, 16),
        grids.build_grid("cartesian", 4.5, 16),
        grids.build_grid("cartesian", 4.0, 18),
        grids.Grid("cartesian", 4.0, 16, nodes + 1e-12, weights),
        grids.Grid("cartesian", 4.0, 16, nodes, weights * (1.0 + 1e-12)),
    ]
    u = grids.GridField(base, np.ones(base.shape))
    for other in others:
        v = grids.GridField(other, np.ones(other.shape))
        with pytest.raises(GridMismatchError):
            grids.require_same_grid(u, v)
        with pytest.raises(GridMismatchError):
            energy.pair_gradient(u, v)


def _scalar_draw_random_smooth(grid, rng, max_center, positive):
    """``random_smooth`` with one Generator.uniform call per bump and
    coordinate, the per-bump loop its one-draw form must match bit for bit."""
    vals = np.zeros(grid.shape)
    for _ in range(families.RANDOM_BUMPS):
        amp = rng.uniform(0.2, 1.0) if positive else rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.2, 1.0) * max(grid.spacing * 4, 0.2)
        if grid.kind == "radial":
            c = rng.uniform(0, max_center)
            vals += amp * np.exp(-((grid.radii() - c) / sigma) ** 2)
        else:
            cx, cy = rng.uniform(-max_center, max_center, size=2)
            x = grid.nodes
            vals += amp * np.outer(np.exp(-((x - cx) / sigma) ** 2),
                                   np.exp(-((x - cy) / sigma) ** 2))
    return vals


@pytest.mark.parametrize("kind, resolution", [("cartesian", 16), ("cartesian", 33),
                                              ("cartesian", 64), ("radial", 512)])
@pytest.mark.parametrize("positive", [False, True])
def test_random_smooth_is_bit_identical_to_scalar_draws(kind, resolution, positive):
    # same values and same stream position, so kernel-bench's pairs for a
    # given seed do not move
    g = grids.build_grid(kind, 4.0, resolution)
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for max_center in (None, 1.5):
            field = families.random_smooth(g, rng, max_center=max_center,
                                           positive=positive)
            ref = _scalar_draw_random_smooth(
                g, ref_rng, 0.5 * g.domain_radius if max_center is None
                else max_center, positive)
            assert np.array_equal(field.values, ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("resolution, positive", [(16, False), (128, False),
                                                  (128, True)])
def test_random_smooth_matches_the_full_grid_gaussians(seed, resolution, positive):
    # the reference evaluates each Gaussian on the whole meshgrid, from the
    # same draws in the same order
    g = grids.build_grid("cartesian", 16.0, resolution)
    rng = np.random.default_rng(seed)
    field = families.random_smooth(g, rng, max_center=6.4, positive=positive)
    ref_rng = np.random.default_rng(seed)
    xx, yy = g.meshgrid()
    reference = np.zeros(g.shape)
    for _ in range(6):
        amp = ref_rng.uniform(0.2, 1.0) if positive else ref_rng.uniform(-1.0, 1.0)
        sigma = ref_rng.uniform(0.2, 1.0) * max(g.spacing * 4, 0.2)
        cx, cy = ref_rng.uniform(-6.4, 6.4, size=2)
        reference += amp * np.exp(-(((xx - cx) ** 2 + (yy - cy) ** 2) / sigma**2))
    assert np.max(np.abs(field.values - reference)) <= 1e-15
    assert rng.uniform() == ref_rng.uniform()
