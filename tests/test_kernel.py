"""Kernel split, bilinear forms (direct vs fast) and HLS evaluators."""

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from logchoquard import families, grids, kernel
from logchoquard.errors import (DomainError, ExponentMismatchError,
                                InvalidParameterError, NegativeInputError,
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


def test_fast_matches_direct_radial():
    g = grids.build_grid("radial", 10.0, 256)
    rng = np.random.default_rng(7)
    u = families.random_smooth(g, rng)
    v = families.random_smooth(g, rng)
    ref = kernel.bilinear_direct(u, v)
    fast = kernel.bilinear_fast(u, v)
    for which in ("B0", "B1", "B2"):
        err = abs(fast.value(which) - ref.value(which))
        assert err <= 1e-6 * (1 + abs(ref.value(which))), which


def _per_pair_sum(u, v, kernels):
    """The one-pair blocked loop that the batched ``kernel._pair_sum``
    replaced, kept as its reference: it rebuilds the distances and kernel
    tables of every row block for each pair."""
    grid = u.grid
    xx, yy = grid.meshgrid()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    a = (grid.weights * u.values).ravel()
    b = (grid.weights * v.values).ravel()
    total = len(pts)
    sums = [0.0] * len(kernels)
    block = max(1, 2**22 // total)
    for start in range(0, total, block):
        stop = min(start + block, total)
        dx = pts[start:stop, 0, None] - pts[None, :, 0]
        dy = pts[start:stop, 1, None] - pts[None, :, 1]
        d = np.hypot(dx, dy)
        zero = d == 0.0
        d[zero] = 1.0
        for i, (kern, diag) in enumerate(kernels):
            k = kern(d)
            k[zero] = diag
            sums[i] += a[start:stop] @ (k @ b)
    return sums


@functools.lru_cache(maxsize=None)
def _pairs_with_reference(n):
    """20 random pairs on an n^2 lattice and their per-pair (b1, b2) sums."""
    g = grids.build_grid("cartesian", 4.0, n)
    rng = np.random.default_rng(100 + n)
    pairs = [(families.random_smooth(g, rng), families.random_smooth(g, rng))
             for _ in range(20)]
    _, d1, d2 = kernel.cell_average_log_kernels(g.spacing)
    kernels = [(np.log1p, d1), (lambda d: np.log1p(1.0 / d), d2)]
    ref = np.array([_per_pair_sum(u, v, kernels) for u, v in pairs])
    return g, pairs, kernels, ref


# 16^2 is one row block, 48^2 two and 64^2 four
@pytest.mark.parametrize("n", [16, 48, 64])
@pytest.mark.parametrize("batch", [1, 3, 20])
def test_batched_pair_sum_matches_per_pair_loop(n, batch):
    g, pairs, kernels, ref = _pairs_with_reference(n)
    a = kernel._weighted_stack(g, [u for u, _ in pairs[:batch]])
    b = kernel._weighted_stack(g, [v for _, v in pairs[:batch]])
    got = np.column_stack(kernel._pair_sum(g, a, b, kernels))
    assert got.shape == (batch, len(kernels))
    # Both are float64 sums of the same <= 4096^2 = 16.7M terms in another
    # order, so they differ by rounding relative to the sum of the terms'
    # magnitudes (both kernels are positive); relative to a sum that cancels
    # to near 0 the same rounding can be large.
    magnitude = np.column_stack(kernel._pair_sum(g, np.abs(a), np.abs(b), kernels))
    assert np.all(np.abs(got - ref[:batch]) <= 1e-13 * magnitude)


@pytest.mark.parametrize("kind, radius, n", [("cartesian", 4.0, 16),
                                             ("radial", 10.0, 256)])
def test_single_pair_direct_is_a_batch_of_one(kind, radius, n):
    g = grids.build_grid(kind, radius, n)
    rng = np.random.default_rng(3)
    u = families.random_smooth(g, rng)
    v = families.random_smooth(g, rng)
    assert kernel.bilinear_direct(u, v) == kernel.bilinear_direct_many([(u, v)])[0]


def test_radial_batch_matches_per_pair_direct():
    g = grids.build_grid("radial", 10.0, 256)
    rng = np.random.default_rng(11)
    pairs = [(families.random_smooth(g, rng), families.random_smooth(g, rng))
             for _ in range(6)]
    for (u, v), form in zip(pairs, kernel.bilinear_direct_many(pairs)):
        ref = kernel.bilinear_direct(u, v)
        for which in ("B0", "B1", "B2"):
            assert abs(form.value(which) - ref.value(which)) \
                <= 1e-13 * abs(ref.value(which)), which


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


def test_zero_fields_give_zero_forms():
    g = grids.build_grid("cartesian", 2.0, 16)
    z = grids.zero_field(g)
    form = kernel.bilinear_direct(z, z)
    assert form.b0 == form.b1 == form.b2 == 0.0


def test_symmetry_of_forms():
    g = grids.build_grid("cartesian", 3.0, 24)
    rng = np.random.default_rng(5)
    u = families.random_smooth(g, rng)
    v = families.random_smooth(g, rng)
    d_uv = kernel.bilinear_direct(u, v)
    d_vu = kernel.bilinear_direct(v, u)
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
    g = grids.build_grid("radial", 10.0, 256)
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


def test_radial_disc_self_energy_oracle():
    # uniform unit-mass density on the unit disc: B0 = 1/4 exactly
    g = grids.build_grid("radial", 10.0, 2048, anchors=(1.0,))
    vals = np.where(g.nodes <= 1.0, 1.0 / np.pi, 0.0)
    u = grids.GridField(g, vals)
    u = u.with_values(u.values / grids.integrate(u))
    form = kernel.bilinear_fast(u, u)
    assert abs(form.b0 - 0.25) < 0.01


def test_b1_grows_when_gaussian_translated_outward():
    g = grids.build_grid("cartesian", 8.0, 96)
    u = families.gaussian(g, 0.8)
    b_near = kernel.bilinear_fast(u, families.gaussian(g, 0.8, center=(1.0, 0.0))).b1
    b_far = kernel.bilinear_fast(u, families.gaussian(g, 0.8, center=(3.0, 0.0))).b1
    assert b_far > b_near


def test_hls_exponent_validation():
    g = grids.build_grid("cartesian", 4.0, 32)
    u = families.gaussian(g, 1.0)
    with pytest.raises(ExponentMismatchError):
        kernel.hls_check(u, u, mu=1.0, s=2.0, r=2.0)


def test_hls_zero_fields():
    g = grids.build_grid("cartesian", 4.0, 32)
    z = grids.zero_field(g)
    rep = kernel.hls_check(z, z, mu=1.0, s=4 / 3, r=4 / 3)
    assert rep.lhs == 0.0 and rep.norm_product == 0.0


def test_hls_scaling_invariance():
    g = grids.build_grid("cartesian", 5.0, 48)
    u = families.gaussian(g, 1.2)
    rep1 = kernel.hls_check(u, u, mu=1.0, s=4 / 3, r=4 / 3)
    u2 = u.with_values(3.7 * u.values)
    rep2 = kernel.hls_check(u2, u2, mu=1.0, s=4 / 3, r=4 / 3)
    assert abs(rep1.ratio - rep2.ratio) < 1e-12 * rep1.ratio


def test_hls_ratio_stable_under_refinement():
    ratios = []
    for n in (48, 96):
        g = grids.build_grid("cartesian", 6.0, n)
        u = families.gaussian(g, 1.0)
        ratios.append(kernel.hls_check(u, u, mu=1.0, s=4 / 3, r=4 / 3).ratio)
    assert abs(ratios[1] - ratios[0]) < 0.02 * abs(ratios[1])


def test_hls_matches_dense_unblocked_sum():
    # 48^2 = 2304 nodes: the blocked pair sum runs in two blocks of rows
    g = grids.build_grid("cartesian", 3.0, 48)
    u = families.gaussian(g, 1.0)
    v = families.gaussian(g, 0.5)
    mu = 1.0
    xx, yy = g.meshgrid()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    d = np.hypot(pts[:, 0, None] - pts[None, :, 0],
                 pts[:, 1, None] - pts[None, :, 1])
    diag = kernel._cell_pair_average(
        g.spacing, lambda k, R: kernel._moment_power(k, R, mu))
    kern = np.full(d.shape, diag)
    off = d > 0
    kern[off] = d[off] ** (-mu)
    a = (g.weights * u.values).ravel()
    b = (g.weights * v.values).ravel()
    rep = kernel.hls_check(u, v, mu=mu, s=4 / 3, r=4 / 3)
    assert rep.lhs == pytest.approx(a @ kern @ b, rel=1e-12)


def test_hls_radial_unsupported():
    g = grids.build_grid("radial", 5.0, 64)
    u = families.gaussian(g, 1.0)
    with pytest.raises(UnsupportedGridError):
        kernel.hls_check(u, u, mu=1.0, s=4 / 3, r=4 / 3)


def test_log_hls_disc_indicator_entropy():
    g = grids.build_grid("cartesian", 2.0, 192)
    vals = np.where(g.radii() <= 1.0, 1.0 / np.pi, 0.0)
    u = grids.GridField(g, vals)
    rep = kernel.log_hls_check(u, u)
    assert abs(rep.entropy_u + np.log(np.pi)) < 0.05
    assert abs(rep.lhs - 1.0) < 0.05   # 4 * B0 = 4 * 1/4 for the unit disc
    assert rep.c_n_required >= rep.lhs - 2 * rep.entropy_u - 1e-12


def test_log_hls_gaussian_stable_under_refinement():
    required = []
    for n in (96, 144):
        g = grids.build_grid("cartesian", 8.0, n)
        u = families.gaussian(g, 1.0)
        u = u.with_values(u.values / grids.integrate(u))
        required.append(kernel.log_hls_check(u, u).c_n_required)
    assert abs(required[1] - required[0]) < 0.01 * abs(required[1])


def test_log_hls_dilation_probe():
    # the fitted constant is dilation invariant in the continuum; the
    # discrete values agree within 2%
    fitted = []
    for sigma in (1.0, 1.5):
        g = grids.build_grid("cartesian", 10.0, 128)
        u = families.gaussian(g, sigma)
        fitted.append(kernel.log_hls_check(u, u).c_n_required)
    assert abs(fitted[1] - fitted[0]) < 0.02 * abs(fitted[0])


def test_log_hls_negative_input():
    g = grids.build_grid("cartesian", 2.0, 16)
    u = grids.GridField(g, -np.ones(g.shape))
    with pytest.raises(NegativeInputError):
        kernel.log_hls_check(u, u)


@pytest.mark.parametrize("n", [16, 33, 128])
def test_convolve_kernel_bit_identical_to_full_inverse_fft(n):
    # the pruned inverse transform must equal irfft2 cropped to n x n
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
    import scipy.fft as spfft
    grid = grids.build_grid("cartesian", 4.0, n)
    m = kernel._fft_kernels(grid)[0]
    density = np.random.default_rng(n).normal(size=grid.shape)
    pad = np.zeros((m, m))
    pad[:n, :n] = grid.weights * density
    assert np.array_equal(kernel._spectrum(grid, density), spfft.rfft2(pad))


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
    import scipy.fft as spfft
    from logchoquard import energy, nonlinearity as nl, spaces
    grid = grids.build_grid("cartesian", 6.0, 32)
    u = families.gaussian(grid, 1.0)
    spec = nl.NonlinearitySpec(kind="exp_minus_one", p=1.0, q=2.0)
    calls = []
    for name in ("rfft", "fft", "ifft", "irfft"):
        original = getattr(spfft, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(spfft, name, counted)
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
