"""Kernel split and bilinear forms (direct vs fast)."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from logchoquard import families, grids, kernel
from logchoquard.errors import (DomainError, InvalidParameterError,
                                UnsupportedGridError)


def test_kernel_split_values():
    near, far, total = kernel.kernel_split(1.0)
    assert abs(near - np.log(2)) < 1e-15
    assert abs(far - np.log(2)) < 1e-15
    assert total == 0.0
    assert abs(kernel.kernel_split(0.5)[2] - np.log(2)) < 1e-14
    assert abs(kernel.kernel_split(2.0)[2] + np.log(2)) < 1e-14


def test_kernel_split_identity_sampled():
    r = np.geomspace(1e-6, 1e6, 100_000)
    _, _, total = kernel.kernel_split(r)
    eps = np.finfo(float).eps
    assert np.all(np.abs(total - np.log(1.0 / r)) <= 4 * eps * (1 + np.abs(np.log(r))))


def test_kernel_split_rejects_zero():
    with pytest.raises(DomainError):
        kernel.kernel_split(0.0)


def test_cell_average_log_inv_brute_force():
    # midpoint oracle for the cell-pair integral of log(1/|x-y|)
    h = 0.25
    m = 400
    z = (np.arange(m) + 0.5) / m * 2 * h - h
    zz1, zz2 = np.meshgrid(z, z, indexing="ij")
    wgt = (h - np.abs(zz1)) * (h - np.abs(zz2))
    rr = np.hypot(zz1, zz2)
    brute = np.sum(wgt * np.log(1.0 / rr)) * (2 * h / m) ** 2 / h**4
    d0, d1, d2 = kernel.cell_average_log_kernels(h)
    assert abs(d0 - brute) < 5e-3 * abs(brute)
    assert abs(d2 - (d1 + d0)) < 1e-14 * max(1.0, abs(d2))


@pytest.mark.parametrize("n", [16, 32])
def test_fast_matches_direct_cartesian(n):
    g = grids.build_grid("cartesian", 4.0, n)
    rng = np.random.default_rng(n)
    pairs = [(families.random_smooth(g, rng), families.random_smooth(g, rng))
             for _ in range(5)]
    for (u, v), ref in zip(pairs, kernel.bilinear_direct_many(pairs)):
        fast = kernel.bilinear_fast(u, v)
        for which in ("B0", "B1", "B2"):
            err = abs(fast.value(which) - ref.value(which))
            assert err <= 1e-6 * (1 + abs(ref.value(which))), which


def test_near_far_forms_reject_radial_grids():
    # radial grids have B0 alone, through b0_form
    g = grids.build_grid("radial", 10.0, 256)
    u = families.gaussian(g, 1.0)
    with pytest.raises(UnsupportedGridError):
        kernel.bilinear_fast(u, u)
    with pytest.raises(UnsupportedGridError):
        kernel.bilinear_direct_many([(u, u)])
    assert math.isfinite(kernel.b0_form(u, u))


def _row_blocked_pair_sum(grid, a, b, kernels):
    """The node-pair loop that the block-Toeplitz ``kernel._pair_sum``
    replaced, kept as its reference: blocks of rows of the N x N table of
    node distances, each kernel evaluated on every node pair (one hypot per
    pair), paired with all P columns of a and b at once."""
    xx, yy = grid.meshgrid()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    total = len(pts)
    sums = [np.zeros(a.shape[1]) for _ in kernels]
    block = max(1, 2**22 // total)
    for start in range(0, total, block):
        stop = min(start + block, total)
        d = np.hypot(pts[start:stop, 0, None] - pts[None, :, 0],
                     pts[start:stop, 1, None] - pts[None, :, 1])
        zero = d == 0.0
        d[zero] = 1.0
        for i, (kern, diag) in enumerate(kernels):
            k = kern(d)
            k[zero] = diag
            sums[i] += np.einsum("rp,rp->p", a[start:stop], k @ b)
    return sums


RIESZ_MU = 1.0      # the Riesz kernel |x - y|^-mu


def _oracle_kernels(grid):
    """B1's log(1+d), B2's log(1+1/d) and the Riesz d^-mu, each with its
    self-cell average; int_0^R r^(k - mu) dr is the Riesz moment."""
    _, d1, d2 = kernel.cell_average_log_kernels(grid.spacing)
    riesz = kernel._cell_pair_average(
        grid.spacing,
        lambda k, R: R ** (k + 1 - RIESZ_MU) / (k + 1 - RIESZ_MU))
    return [(np.log1p, d1), (lambda d: np.log1p(1.0 / d), d2),
            (lambda d: d ** (-RIESZ_MU), riesz)]


@functools.lru_cache(maxsize=None)
def _pairs_with_reference(n):
    """20 random pairs on an n^2 lattice, their weighted stacks and the
    row-blocked reference sums, (20, kernels)."""
    g = grids.build_grid("cartesian", 4.0, n)
    rng = np.random.default_rng(100 + n)
    pairs = [(families.random_smooth(g, rng), families.random_smooth(g, rng))
             for _ in range(20)]
    a = kernel._weighted_stack(g, [u for u, _ in pairs])
    b = kernel._weighted_stack(g, [v for _, v in pairs])
    ref = np.column_stack(_row_blocked_pair_sum(g, a, b, _oracle_kernels(g)))
    return g, a, b, ref


# n = 33 is odd; 48^2 and 64^2 span two and four of the reference's row blocks
@pytest.mark.parametrize("n", [16, 33, 48, 64])
@pytest.mark.parametrize("batch", [1, 3, 20])
def test_batched_pair_sum_matches_per_pair_loop(n, batch):
    g, a, b, ref = _pairs_with_reference(n)
    kernels = _oracle_kernels(g)
    got = np.column_stack(kernel._pair_sum(g, a[:, :batch], b[:, :batch], kernels))
    assert got.shape == (batch, len(kernels))
    # Both are float64 sums of the same <= 4096^2 = 16.7M terms, up to the
    # rounding of each distance, in another order, so they differ by rounding
    # relative to the sum of the terms' magnitudes (all three kernels are
    # positive); relative to a sum that cancels to near 0 the same rounding
    # can be large.
    magnitude = np.column_stack(kernel._pair_sum(g, np.abs(a[:, :batch]),
                                                 np.abs(b[:, :batch]), kernels))
    assert np.all(np.abs(got - ref[:batch]) <= 1e-13 * magnitude)


@pytest.mark.parametrize("n", [16, 33])
def test_pair_sum_evaluates_each_kernel_on_offsets_not_pairs(n):
    # a translation-invariant kernel takes n^2 values on an n^2 lattice: each
    # kernel is evaluated once, on n^2 offsets, never on the N^2 node pairs
    g, a, b, _ = _pairs_with_reference(n)
    seen = []

    def counted(kern):
        def wrapped(d):
            seen.append((kern, d.size))
            return kern(d)
        return wrapped

    kernels = _oracle_kernels(g)
    kernel._pair_sum(g, a, b, [(counted(k), diag) for k, diag in kernels])
    assert seen == [(k, n * n) for k, _ in kernels]


def test_pair_sum_peak_allocation_is_a_few_stacks():
    # one correlation, its mirror and one gathered block per row offset:
    # the (n, n^2, kernels) table of every block would alone be 6.4 stacks
    g, a, b, _ = _pairs_with_reference(64)
    kernels = _oracle_kernels(g)[:2]
    tracemalloc.start()
    try:
        kernel._pair_sum(g, a, b, kernels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.shape == (64 * 64, 20)
    assert peak <= 6 * a.nbytes


def test_riesz_pair_sum_matches_dense_unblocked_sum():
    # the full 2304 x 2304 Riesz matrix of a 48^2 lattice, one product
    g = grids.build_grid("cartesian", 3.0, 48)
    u = families.gaussian(g, 1.0)
    v = families.gaussian(g, 0.5)
    xx, yy = g.meshgrid()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    d = np.hypot(pts[:, 0, None] - pts[None, :, 0],
                 pts[:, 1, None] - pts[None, :, 1])
    riesz, diag = _oracle_kernels(g)[2]
    kern = np.full(d.shape, diag)
    off = d > 0
    kern[off] = riesz(d[off])
    a = kernel._weighted_stack(g, [u])
    b = kernel._weighted_stack(g, [v])
    (got,) = kernel._pair_sum(g, a, b, [(riesz, diag)])
    assert got[0] == pytest.approx(a[:, 0] @ kern @ b[:, 0], rel=1e-12)


def test_riesz_gaussian_self_energy_converges_to_closed_form():
    # exp(-|x|^2 / s^2) of unit mass: x - y is Gaussian with variance s^2
    # per coordinate, so the Riesz (mu = 1) self-energy E[1/|x - y|] is
    # sqrt(pi / 2) / s.  The node values of 1/d next to the singularity
    # make the error first order in the spacing.
    s = 1.0
    exact = math.sqrt(math.pi / 2) / s
    errors = []
    for n in (48, 96):
        g = grids.build_grid("cartesian", 6.0, n)
        u = families.gaussian(g, s)
        a = kernel._weighted_stack(g, [u.with_values(u.values / grids.integrate(u))])
        (got,) = kernel._pair_sum(g, a, a, [_oracle_kernels(g)[2]])
        errors.append(abs(got[0] - exact))
    assert errors[1] < 0.6 * errors[0]
    assert errors[1] < 0.02 * exact


def test_cartesian_direct_forms_use_no_fft(monkeypatch):
    # the oracle must stay independent of the Parseval route it checks
    import scipy.fft as spfft

    def refuse(*args, **kwargs):
        raise AssertionError("the direct route called an FFT")
    for module in (spfft, np.fft):
        for name in dir(module):
            if not name.startswith("_") and callable(getattr(module, name)):
                monkeypatch.setattr(module, name, refuse)
    g = grids.build_grid("cartesian", 4.0, 16)
    rng = np.random.default_rng(2)
    pairs = [(families.random_smooth(g, rng), families.random_smooth(g, rng))
             for _ in range(3)]
    forms = kernel.bilinear_direct_many(pairs)
    assert all(np.isfinite(f.b0) for f in forms)
    with pytest.raises(AssertionError, match="FFT"):
        kernel.bilinear_fast(*pairs[0])


def test_direct_batch_rejects_empty_and_mixed_grids():
    g1 = grids.build_grid("cartesian", 4.0, 16)
    g2 = grids.build_grid("cartesian", 4.0, 16)
    rng = np.random.default_rng(0)
    u1, v1 = families.random_smooth(g1, rng), families.random_smooth(g1, rng)
    u2, v2 = families.random_smooth(g2, rng), families.random_smooth(g2, rng)
    with pytest.raises(InvalidParameterError):
        kernel.bilinear_direct_many([])
    with pytest.raises(InvalidParameterError):
        kernel.bilinear_direct_many([(u1, v1), (u2, v2)])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(8, 600), radius=st.floats(0.5, 50.0),
       anchor_fracs=st.lists(st.floats(0.001, 0.9), max_size=2),
       seed=st.integers(0, 2**32 - 1))
def test_radial_b0_potential_matches_dense_ring_coupling(n, radius, anchor_fracs,
                                                         seed):
    # Newton's theorem: the ring coupling of log(1/|x-y|) is -log max(r_i, r_j)
    try:
        g = grids.build_grid("radial", radius, n,
                             anchors=tuple(f * radius for f in anchor_fracs))
    except InvalidParameterError:
        assume(False)
    density = np.random.default_rng(seed).standard_normal(n)
    r = g.nodes
    c0 = -np.log(np.maximum(r[:, None], r[None, :]))
    m = g.weights * density
    dense = c0 @ m
    bound = 1e-12 * (np.abs(c0) @ np.abs(m))
    assert np.all(np.abs(kernel.b0_potential(g, density) - dense) <= bound)


RADIAL_FIELDS = {
    "uniform": lambda r: np.random.default_rng(1).random(r.size),
    "normal": lambda r: np.random.default_rng(2).standard_normal(r.size),
    "gaussian-0.5": lambda r: np.exp(-(r / 0.5) ** 2),
    "gaussian-1": lambda r: np.exp(-r**2),
    "gaussian-2": lambda r: np.exp(-(r / 2.0) ** 2),
}


@pytest.mark.parametrize("n, radius", [(512, 16.0), (2048, 20.0)])
@pytest.mark.parametrize("field", sorted(RADIAL_FIELDS))
def test_radial_self_pairing_is_one_prefix_sum(n, radius, field):
    # B0(u, u) = -sum_i log(r_i) m_i (2 M_i - m_i) with m = w u and
    # M = cumsum(m): within 2e-14 of that sum in long double, and equal to
    # rounding to the pairing of u with b0_potential, the route of v != u
    g = grids.build_grid("radial", radius, n)
    u = grids.GridField(g, RADIAL_FIELDS[field](g.nodes))
    value = kernel.b0_form(u, u)
    m = g.weights.astype(np.longdouble) * u.values.astype(np.longdouble)
    log_r = np.log(g.nodes.astype(np.longdouble))
    exact = -np.sum(log_r * m * (2 * np.cumsum(m) - m))
    assert abs(value - exact) <= 2e-14 * abs(exact)
    paired = kernel.b0_form(u, u.with_values(u.values.copy()))
    assert value == pytest.approx(paired, rel=1e-13)


def test_zero_fields_give_zero_forms():
    g = grids.build_grid("cartesian", 2.0, 16)
    z = grids.zero_field(g)
    (form,) = kernel.bilinear_direct_many([(z, z)])
    assert form.b0 == form.b1 == form.b2 == 0.0


def test_symmetry_of_forms():
    g = grids.build_grid("cartesian", 3.0, 24)
    rng = np.random.default_rng(5)
    u = families.random_smooth(g, rng)
    v = families.random_smooth(g, rng)
    d_uv, d_vu = kernel.bilinear_direct_many([(u, v), (v, u)])
    scale = 1 + abs(d_uv.b1) + abs(d_uv.b2)
    assert abs(d_uv.b1 - d_vu.b1) < 1e-12 * scale
    assert abs(d_uv.b2 - d_vu.b2) < 1e-12 * scale
    f_uv = kernel.bilinear_fast(u, v)
    f_vu = kernel.bilinear_fast(v, u)
    assert abs(f_uv.b1 - f_vu.b1) < 1e-10 * scale
    assert abs(f_uv.b2 - f_vu.b2) < 1e-10 * scale


def test_point_mass_limit():
    # two narrow unit-mass bumps at distance 2: B0 ~= log(1/2)
    g = grids.build_grid("cartesian", 3.0, 256)
    u = families.bump(g, radius=0.05, center=(-1.0, 0.0))
    v = families.bump(g, radius=0.05, center=(1.0, 0.0))
    u = u.with_values(u.values / grids.integrate(u))
    v = v.with_values(v.values / grids.integrate(v))
    form = kernel.bilinear_fast(u, v)
    assert abs(form.b0 - np.log(0.5)) < 0.02 * abs(np.log(0.5))


def test_small_support_positive_form():
    # supports inside B_{1/4} force |x-y| < 1/2, hence a positive kernel
    g = grids.build_grid("cartesian", 3.0, 256)
    u = families.bump(g, radius=0.05)
    u = u.with_values(u.values / grids.integrate(u))
    form = kernel.bilinear_fast(u, u)
    assert form.b0 > 0
    mass = grids.integrate(u)
    assert form.b0 >= np.log(2) * mass**2 * (1 - 1e-9)


def test_b2_nonnegative_for_nonnegative_inputs():
    g = grids.build_grid("cartesian", 6.0, 64)
    u = families.gaussian(g, 1.0)
    form = kernel.bilinear_fast(u, u)
    assert form.b2 >= 0
    assert form.b1 >= 0


def test_b1_weighted_l1_bound():
    # B1(u, v) <= ||u||_{L1(w)} ||v||_1 + ||u||_1 ||v||_{L1(w)}, w = log(1+|x|)
    g = grids.build_grid("cartesian", 6.0, 64)
    u = families.gaussian(g, 1.0, center=(1.0, 0.5))
    v = families.gaussian(g, 1.5, center=(-2.0, 1.0))
    w = np.log1p(g.radii())
    b1 = kernel.bilinear_fast(u, v).b1
    bound = (grids.integrate(u, weight=w) * grids.integrate(v)
             + grids.integrate(u) * grids.integrate(v, weight=w))
    assert b1 <= bound * (1 + 1e-9)


def _fast_forms(u, v):
    """{name: value} of the fast forms: B0, B1 and B2 on a cartesian grid,
    B0 alone (``b0_form``, by Newton's theorem) on a radial one."""
    if u.grid.kind == "radial":
        return {"B0": kernel.b0_form(u, v)}
    form = kernel.bilinear_fast(u, v)
    return {name: form.value(name) for name in ("B0", "B1", "B2")}


@pytest.mark.parametrize("kind, radius, n, tol", [
    ("radial", 10.0, 2048, 0.01),
    ("cartesian", 2.0, 192, 0.0125),
], ids=["radial", "cartesian"])
def test_radial_disc_self_energy_oracle(kind, radius, n, tol):
    # uniform unit-mass density on the unit disc: B0 = 1/4 exactly
    anchors = (1.0,) if kind == "radial" else ()
    g = grids.build_grid(kind, radius, n, anchors=anchors)
    vals = np.where(g.radii() <= 1.0, 1.0 / np.pi, 0.0)
    u = grids.GridField(g, vals)
    u = u.with_values(u.values / grids.integrate(u))
    assert abs(_fast_forms(u, u)["B0"] - 0.25) < tol


@pytest.mark.parametrize("kind, radius, n, tol", [
    ("radial", 10.0, 512, 1e-4),
    ("cartesian", 8.0, 128, 2e-3),
], ids=["radial", "cartesian"])
@pytest.mark.parametrize("s", [1.0, 1.5])
def test_gaussian_self_energy_oracle(kind, radius, n, tol, s):
    # exp(-|x|^2 / s^2) of unit mass: |x - y|^2 / s^2 is exponential with
    # mean 2, so B0 = -E[log |x - y|] = (EULER_GAMMA - log(2 s^2)) / 2; a
    # dilation by s shifts B0 by -log(s)
    g = grids.build_grid(kind, radius, n)
    u = families.gaussian(g, s)
    u = u.with_values(u.values / grids.integrate(u))
    exact = (np.euler_gamma - math.log(2.0 * s * s)) / 2.0
    assert abs(_fast_forms(u, u)["B0"] - exact) < tol


@pytest.mark.parametrize("kind, radius, n", [("cartesian", 4.0, 32),
                                             ("radial", 6.0, 128)])
def test_fast_forms_are_bilinear(kind, radius, n):
    g = grids.build_grid(kind, radius, n)
    u, w, v = (families.gaussian(g, s) for s in (0.7, 1.3, 1.0))
    alpha, beta = 3.7, -0.4
    combo = u.with_values(alpha * u.values + beta * w.values)
    lhs = _fast_forms(combo, v)
    fu, fw = _fast_forms(u, v), _fast_forms(w, v)
    for name in lhs:
        scale = abs(alpha * fu[name]) + abs(beta * fw[name])
        expected = alpha * fu[name] + beta * fw[name]
        assert abs(lhs[name] - expected) <= 1e-12 * scale


def test_b1_grows_when_gaussian_translated_outward():
    g = grids.build_grid("cartesian", 8.0, 96)
    u = families.gaussian(g, 0.8)
    b_near = kernel.bilinear_fast(u, families.gaussian(g, 0.8, center=(1.0, 0.0))).b1
    b_far = kernel.bilinear_fast(u, families.gaussian(g, 0.8, center=(3.0, 0.0))).b1
    assert b_far > b_near


@pytest.mark.parametrize("n", [16, 33, 128])
def test_convolve_kernel_bit_identical_to_full_inverse_fft(n):
    # the pruned inverse transform must equal irfft2 cropped to n x n.  The
    # package transforms with numpy.fft and the reference is scipy.fft, so
    # this also guards that the two libraries agree bit for bit
    import scipy.fft as spfft
    grid = grids.build_grid("cartesian", 4.0, n)
    m, k0hat, _ = kernel._fft_kernels(grid)
    rng = np.random.default_rng(n)
    for _ in range(3):
        density = rng.normal(size=grid.shape)
        pad = np.zeros((m, m))
        pad[:n, :n] = grid.weights * density
        dhat = spfft.rfft2(pad)   # named, as in convolve_kernel: the product's
        # operand order (and hence its rounding) changes with an elided temporary
        ref = spfft.irfft2(k0hat * dhat, s=(m, m))[:n, :n]
        assert np.array_equal(kernel.convolve_kernel(grid, density), ref)


def _reference_kernel_spectra(grid):
    """(m, rfft2 of the zero-padded far table log(1+d), of the near table
    log(1+1/d)), built independently of ``kernel._fft_kernels``."""
    import scipy.fft as spfft
    n, h = grid.resolution, grid.spacing
    m = spfft.next_fast_len(2 * n - 1)
    _, d1, d2 = kernel.cell_average_log_kernels(h)
    off = np.arange(-(n - 1), n)
    dist = h * np.hypot(off[:, None], off[None, :])
    hats = []
    for kern, diag in ((np.log1p, d1), (lambda d: np.log1p(1.0 / d), d2)):
        table = np.full(dist.shape, diag)
        table[dist > 0] = kern(dist[dist > 0])
        pad = np.zeros((m, m))
        pad[off[:, None] % m, off[None, :] % m] = table
        hats.append(spfft.rfft2(pad))
    return m, hats[0], hats[1]


def _reference_forms(u, v):
    """(B1, B2, magnitude) by real-space convolution with a full inverse
    FFT, the route that the Parseval pairings replaced.  The magnitude is
    sum |w u| ((K1 + K2) * |v|), which bounds each form's terms."""
    import scipy.fft as spfft
    grid = u.grid
    n = grid.resolution
    m, k1hat, k2hat = _reference_kernel_spectra(grid)

    def convolve(khat, density):
        pad = np.zeros((m, m))
        pad[:n, :n] = grid.weights * density
        return spfft.irfft2(khat * spfft.rfft2(pad), s=(m, m))[:n, :n]

    wu = grid.weights * u.values
    b1 = np.sum(wu * convolve(k1hat, v.values))
    b2 = np.sum(wu * convolve(k2hat, v.values))
    mag = np.sum(np.abs(wu) * convolve(k1hat + k2hat, np.abs(v.values)))
    return b1, b2, mag


@pytest.mark.parametrize("n", [8, 33, 128])
def test_cartesian_fast_forms_match_convolution_route(n):
    grid = grids.build_grid("cartesian", 4.0, n)
    rng = np.random.default_rng(n)
    u = grids.GridField(grid, rng.normal(size=grid.shape))
    v = grids.GridField(grid, rng.normal(size=grid.shape))
    for a, b in ((u, u), (u, v), (v, u)):
        b1, b2, mag = _reference_forms(a, b)
        form = kernel.bilinear_fast(a, b)
        assert abs(form.b1 - b1) <= 1e-13 * mag
        assert abs(form.b2 - b2) <= 1e-13 * mag
        assert abs(form.b0 - (b2 - b1)) <= 1e-13 * mag
        assert form.b0 == form.b2 - form.b1


SPECTRAL_SIZES = [8, 16, 33, 64, 128, 256]   # n = 8 pads to odd m = 15


@pytest.mark.parametrize("n", SPECTRAL_SIZES)
def test_spectrum_bit_identical_to_rfft2_of_zero_pad(n):
    # numpy.fft's pruned passes against scipy.fft's rfft2: this also guards
    # that the two libraries agree bit for bit
    import scipy.fft as spfft
    grid = grids.build_grid("cartesian", 4.0, n)
    m = kernel._fft_kernels(grid)[0]
    density = np.random.default_rng(n).normal(size=grid.shape)
    pad = np.zeros((m, m))
    pad[:n, :n] = grid.weights * density
    assert np.array_equal(kernel._spectrum(grid, density), spfft.rfft2(pad))


def test_fast_len_is_scipy_next_fast_len():
    import scipy.fft as spfft
    for n in range(8, 2049):
        assert kernel._fast_len(2 * n - 1) == spfft.next_fast_len(2 * n - 1), n


@pytest.mark.parametrize("n", SPECTRAL_SIZES)
def test_kernel_tables_bit_identical_to_scipy_rfft2(n):
    # the tables are built by numpy.fft; the reference pads are transformed
    # by scipy.fft.rfft2
    grid = grids.build_grid("cartesian", 4.0, n)
    m, k0hat, tables = kernel._fft_kernels(grid)
    ref_m, k1ref, k2ref = _reference_kernel_spectra(grid)
    assert m == ref_m
    k0ref = k2ref - k1ref
    assert np.array_equal(k0hat, k0ref)
    c = np.full(m // 2 + 1, 2.0)
    c[0] = 1.0
    if m % 2 == 0:
        c[-1] = 1.0
    for name, khat in (("B1", k1ref), ("B2", k2ref), ("B0", k0ref)):
        assert np.array_equal(tables[name], c * khat.real / (m * m)), name


@pytest.mark.parametrize("n", SPECTRAL_SIZES)
def test_b0_kernel_spectrum_is_real(n):
    # the table depends on |offset| only, so its transform is real; the
    # Parseval pairing of b0_form drops the imaginary part
    _, k0, _ = kernel._fft_kernels(grids.build_grid("cartesian", 4.0, n))
    assert np.max(np.abs(k0.imag)) <= 1e-15 * np.max(np.abs(k0))


@pytest.mark.parametrize("n", SPECTRAL_SIZES)
def test_spectral_b0_form_matches_convolution(n):
    # reference: sum w u (K * v) by the real-space convolution.  The bound is
    # 1e-13 of the terms' magnitudes, sum |w u| ((K1 + K2) * |v|) =
    # (B1 + B2)(|u|, |v|) >= the absolute sum, since
    # |log(1/d)| <= log(1+d) + log(1+1/d).
    grid = grids.build_grid("cartesian", 4.0, n)
    rng = np.random.default_rng(n)
    u = grids.GridField(grid, rng.normal(size=grid.shape))
    v = grids.GridField(grid, rng.normal(size=grid.shape))
    for a, b in ((u, u), (u, v), (v, u)):
        wa = grid.weights * a.values
        ref = np.sum(wa * kernel.convolve_kernel(grid, b.values))
        size = kernel.bilinear_fast(a.with_values(np.abs(a.values)),
                                    b.with_values(np.abs(b.values)))
        mag = size.b1 + size.b2
        assert abs(kernel.b0_form(a, b) - ref) <= 1e-13 * mag
    assert kernel.b0_form(u, v) == kernel.b0_form(v, u)


def test_cartesian_total_energy_runs_one_forward_fft_and_no_inverse(monkeypatch):
    from logchoquard import energy, nonlinearity as nl, spaces
    grid = grids.build_grid("cartesian", 6.0, 32)
    u = families.gaussian(grid, 1.0)
    spec = nl.NonlinearitySpec(kind="exp_minus_one", p=1.0, q=2.0)
    calls = []
    for name in ("rfft", "fft", "ifft", "irfft"):
        original = getattr(np.fft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    value = energy.total_energy(u, spec, spaces.PeriodicCoefficient(1.0))
    assert np.isfinite(value)
    assert calls == ["rfft", "fft"]      # B0(cF, cF): one pruned forward pass
    calls.clear()
    kernel.bilinear_fast(u, u)           # all three forms: one forward pass
    assert calls == ["rfft", "fft"]
    calls.clear()
    kernel.bilinear_fast(u, families.gaussian(grid, 0.5))
    assert calls == ["rfft", "fft"] * 2
    calls.clear()
    kernel.convolve_kernel(grid, u.values)    # the counters do see a convolution
    assert calls == ["rfft", "fft", "ifft", "irfft"]


@pytest.mark.parametrize("n", SPECTRAL_SIZES)
def test_cross_spectrum_is_fresh_and_bit_identical_to_rfft2_pair(n):
    # u is not v: two spectra, each filled in place in its own array, must
    # not alias each other or anything a later call returns
    import scipy.fft as spfft
    grid = grids.build_grid("cartesian", 4.0, n)
    m = kernel._fft_kernels(grid)[0]
    rng = np.random.default_rng(n)
    u = grids.GridField(grid, rng.normal(size=grid.shape))
    v = grids.GridField(grid, rng.normal(size=grid.shape))

    def padded_rfft2(f):
        pad = np.zeros((m, m))
        pad[:n, :n] = grid.weights * f.values
        return spfft.rfft2(pad)
    # Re(conj(uhat) vhat), expanded: numpy's complex product rounds otherwise
    uhat, vhat = padded_rfft2(u), padded_rfft2(v)
    ref = uhat.real * vhat.real + uhat.imag * vhat.imag
    cross = kernel._cross_spectrum(u, v)
    assert np.array_equal(cross, ref)
    cross[...] = np.nan
    spectrum = kernel._spectrum(grid, u.values)
    spectrum[...] = np.nan
    assert np.array_equal(kernel._cross_spectrum(u, v), ref)
    assert np.array_equal(kernel._spectrum(grid, u.values), padded_rfft2(u))


@pytest.mark.parametrize("n", [8, 33])
def test_fft_tables_are_read_only(n):
    # a stray out= or in-place product raises instead of corrupting the
    # tables every later call reads
    grid = grids.build_grid("cartesian", 4.0, n)
    _, k0hat, tables = kernel._fft_kernels(grid)
    density = np.random.default_rng(n).normal(size=grid.shape)
    first = kernel.convolve_kernel(grid, density)
    for table in (k0hat, *tables.values()):
        with pytest.raises(ValueError):
            table *= 2.0
        with pytest.raises(ValueError):
            np.multiply(table, table, out=table)
    assert np.array_equal(kernel.convolve_kernel(grid, density), first)
