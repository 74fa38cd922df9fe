"""Sign-split logarithmic kernel and its bilinear forms.

The kernel is handled through the elementary split
log(1/r) = log(1 + 1/r) - log(1 + r), giving the three bilinear forms
B1 (far part, log(1+|x-y|)), B2 (near part, log(1+1/|x-y|)) and
B0 = B2 - B1 (the full log kernel).

The near/far forms are cartesian, by two deliberately independent routes:

* ``bilinear_direct_many`` -- O(N^2) double quadrature over node pairs,
  the oracle.  Diagonal (self-cell) entries integrate the kernel exactly
  over the cell pair against constant densities.  The kernel depends on
  the lattice offset of a node pair only, so each kernel is evaluated once
  on the n x n offsets and summed as a block-Toeplitz matrix with Toeplitz
  blocks, by matmuls and without any FFT (``_pair_sum``), for a whole batch
  of P pairs on one grid per pass.  The lagged correlation of the pairs is
  formed once per row offset and shared by B1 and B2: n^4 P multiply-adds
  for both kernels.
* ``bilinear_fast``  -- Parseval pairings of zero-padded spectra (below).

Radial grids have B0 alone: by Newton's theorem the ring coupling of
log(1/|x-y|) is exactly -log max(r_i, r_j), applied by prefix sums
(``b0_potential``).  ``b0_form`` and ``b0_potential`` serve both kinds.

Every cartesian form is paired by Parseval, with no inverse FFT:
B(u, v) = (1/m^2) sum_k c_k K_hat(k) Re(conj(uhat_k) vhat_k) over the
rfft2 half spectrum, and one forward FFT when v is u.  ``b0_form`` (B0
alone, the energy's form) runs the same pairing.  The pad m >= 2n - 1
leaves no wrap-around terms.  ``_spectrum`` fills one zeroed half spectrum
in place, its row pass on the n nonzero rows of the pad only.  The one
convolution is ``convolve_kernel`` (B0), which the energy gradient and the
Hessian products need as a nodal field; its inverse runs in place too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import grids
from .errors import DomainError, InvalidParameterError, UnsupportedGridError


# ---------------------------------------------------------------------------
# kernel split
# ---------------------------------------------------------------------------

def kernel_split(r):
    """(near, far, total) with near = log(1+1/r), far = log(1+r),
    total = near - far = log(1/r)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("kernel split is defined for r > 0")
    near = np.log1p(1.0 / r)
    far = np.log1p(r)
    total = near - far
    if near.ndim == 0:
        return float(near), float(far), float(total)
    return near, far, total


# ---------------------------------------------------------------------------
# exact diagonal (self-cell) kernel integrals, cartesian
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _legendre_rule(order):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, built once
    per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _moment_log_inv(k, R):
    """int_0^R r^k log(1/r) dr."""
    return R ** (k + 1) / (k + 1) ** 2 - R ** (k + 1) * np.log(R) / (k + 1)


def _moment_log1p(k, R):
    """int_0^R r^k log(1+r) dr for k = 1, 2, 3."""
    if k == 1:
        return 0.5 * (R**2 - 1.0) * np.log1p(R) - R**2 / 4.0 + R / 2.0
    if k == 2:
        return (R**3 / 3.0) * np.log1p(R) \
            - (R**3 / 3.0 - R**2 / 2.0 + R - np.log1p(R)) / 3.0
    if k == 3:
        return (R**4 / 4.0) * np.log1p(R) \
            - (R**4 / 4.0 - R**3 / 3.0 + R**2 / 2.0 - R + np.log1p(R)) / 4.0
    raise ValueError(k)


def _cell_pair_average(h: float, moments) -> float:
    """(1/h^4) * double integral of K(x - y) over one cell pair.

    Uses the autocorrelation identity: the pair integral equals
    int_{[-h,h]^2} K(z) (h-|z1|)(h-|z2|) dz, reduced to a polar integral
    over [0, pi/4] whose radial moments are supplied in closed form.
    """
    x, w = _legendre_rule(48)     # mapped to [0, pi/4]
    theta, wt = np.pi / 8.0 + np.pi / 8.0 * x, np.pi / 8.0 * w
    R = h / np.cos(theta)
    c, s = np.cos(theta), np.sin(theta)
    integrand = (h**2 * moments(1, R) - h * (c + s) * moments(2, R)
                 + c * s * moments(3, R))
    return float(8.0 / h**4 * np.sum(wt * integrand))


def cell_average_log_kernels(h: float):
    """(avg log(1/|x-y|), avg log(1+|x-y|), avg log(1+1/|x-y|)) over a
    cell pair of a lattice with spacing h; the log singularity is integrable
    and handled in closed form."""
    d0 = _cell_pair_average(h, _moment_log_inv)
    d1 = _cell_pair_average(h, _moment_log1p)
    return d0, d1, d1 + d0


# ---------------------------------------------------------------------------
# cartesian route
# ---------------------------------------------------------------------------

def _fast_len(target: int) -> int:
    """The least m >= target whose prime factors are all at most 11: the
    lengths pocketfft transforms fastest (``scipy.fft.next_fast_len``)."""
    m = target
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1


def _fft_kernels(grid: grids.Grid):
    """(m, K_B0 hat, Parseval tables): the rfft2 of the zero-padded (2n-1)^2
    displacement table of log(1/d) = log(1+1/d) - log(1+d), whose zero
    displacement holds the exact self-cell average, and for each of "B1",
    "B2" and "B0" the table c_k Re(K hat)_k / m^2 on the rfft2 half spectrum,
    c_k = 1 on column 0 (and on the Nyquist column when m is even), 2
    elsewhere.  Every kernel table depends on |offset| only, so its
    transform is real.  Cached per grid, and read-only."""
    def build():
        n, h = grid.resolution, grid.spacing
        m = _fast_len(2 * n - 1)
        idx = np.arange(n, dtype=float)
        d = h * np.hypot(idx[:, None], idx[None, :])
        with np.errstate(divide="ignore"):
            q1 = np.log1p(d)
            q2 = np.log1p(1.0 / np.where(d > 0, d, 1.0))
        d0, d1, d2 = cell_average_log_kernels(h)
        q1[0, 0] = d1
        q2[0, 0] = d2
        sl = np.arange(-(n - 1), n)
        hats = []
        for q in (q1, q2):
            pad = np.zeros((m, m))
            pad[sl[:, None] % m, sl[None, :] % m] = \
                q[np.abs(sl)[:, None], np.abs(sl)[None, :]]
            hats.append(np.fft.rfft2(pad))
        k1hat, k2hat = hats
        k0hat = k2hat - k1hat
        c = np.full(m // 2 + 1, 2.0)
        c[0] = 1.0
        if m % 2 == 0:
            c[-1] = 1.0
        tables = {name: c * khat.real / (m * m)
                  for name, khat in (("B1", k1hat), ("B2", k2hat), ("B0", k0hat))}
        for table in (k0hat, *tables.values()):
            table.flags.writeable = False
        return m, k0hat, tables
    return grid._cached("fft_kernels", build)


def _spectrum(grid: grids.Grid, density: np.ndarray) -> np.ndarray:
    """rfft2 of the m x m zero pad of the weighted nodal density (bit-identical
    to rfft2), in one fresh zeroed array: the row pass on the n nonzero rows
    writes into it and the column pass runs in place, with no padding copy."""
    m = _fft_kernels(grid)[0]
    n = grid.resolution
    spectrum = np.zeros((m, m // 2 + 1), dtype=complex)
    np.fft.rfft(grid.weights * density, n=m, axis=1, out=spectrum[:n])
    return np.fft.fft(spectrum, axis=0, out=spectrum)


def _cross_spectrum(u: grids.GridField, v: grids.GridField) -> np.ndarray:
    """Re(conj(uhat) vhat) on the rfft2 half spectrum: summed against a
    Parseval table it gives that table's form B(u, v).  One forward
    transform when ``v is u``."""
    uhat = _spectrum(u.grid, u.values)
    vhat = uhat if v is u else _spectrum(v.grid, v.values)
    return uhat.real * vhat.real + uhat.imag * vhat.imag


def convolve_kernel(grid: grids.Grid, density: np.ndarray):
    """(log(1/|.|) * density) sampled at the nodes of a uniform cartesian
    grid, density given as nodal values (weights applied internally); the
    kernel product and the inverse column pass run in place on its spectrum."""
    if grid.kind != "cartesian":
        raise UnsupportedGridError("FFT convolution needs a cartesian grid")
    m, k0hat, _ = _fft_kernels(grid)
    n = grid.resolution
    dhat = _spectrum(grid, density)
    np.multiply(k0hat, dhat, out=dhat)  # operand order sets the rounding
    # irfft2 pruned to the n rows that are kept.  Like irfft2, both passes
    # run unscaled and the 1/m^2 is applied once, so the result is the same.
    np.fft.ifft(dhat, axis=0, norm="forward", out=dhat)
    return np.fft.irfft(dhat[:n], n=m, axis=1, norm="forward")[:, :n] * (1.0 / (m * m))


def _pair_sum(grid: grids.Grid, a: np.ndarray, b: np.ndarray, kernels):
    """O(N^2) node-pair sums sum_ij a_ip K(|x_i - x_j|) b_jp on a cartesian
    grid for every column p of the (N, P) weighted stacks a and b: one (P,)
    array per (K, self-cell average of K) in ``kernels``.

    K depends on the lattice offset (|i1 - j1|, |i2 - j2|) of a node pair
    only, so each K is evaluated once, on the n x n offsets, at positive
    distances; the zero offset holds the self-cell average.  The sum is then
    block-Toeplitz with Toeplitz blocks, and the expensive part is shared
    by every kernel: for each row offset s, one batched matmul over the P
    columns forms the lagged correlation
    G_s[p, i2, j2] = sum_j1 a[j1 + s, i2, p] b[j1, j2, p], plus its mirror
    with a and b shifted the other way when s > 0, and one small
    (P, n^2) @ (n^2, kernels) product contracts it with every kernel's block
    T_s[i2, j2] = table[s, |i2 - j2|].  That is n^4 P multiply-adds however
    many kernels there are, and one block gathered at a time.  No FFT is
    involved."""
    n, cols = grid.resolution, a.shape[1]
    offset = grid.nodes - grid.nodes[0]
    d = np.hypot(offset[:, None], offset[None, :])
    d[0, 0] = 1.0
    # tables[s, |i2 - j2|, kernel]
    tables = np.stack([kern(d) for kern, _ in kernels], axis=-1)
    tables[0, 0] = [diag for _, diag in kernels]
    band = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).ravel()
    # node (i1, i2) is row i1 * n + i2: one (i1, i2) matrix per column p
    a_p = a.T.reshape(cols, n, n)
    b_p = b.T.reshape(cols, n, n)
    total = np.zeros((cols, len(kernels)))
    for s in range(n):
        corr = a_p[:, s:].transpose(0, 2, 1) @ b_p[:, :n - s]
        if s:
            corr += a_p[:, :n - s].transpose(0, 2, 1) @ b_p[:, s:]
        total += corr.reshape(cols, n * n) @ tables[s].take(band, axis=0)
    return list(total.T)


def _weighted_stack(grid: grids.Grid, fields) -> np.ndarray:
    """(N, P) stack of the quadrature-weighted nodal values of ``fields``."""
    return np.column_stack([(grid.weights * f.values).ravel() for f in fields])


# ---------------------------------------------------------------------------
# B0 alone: the energy's form, on both grid kinds
# ---------------------------------------------------------------------------

def b0_potential(grid: grids.Grid, density: np.ndarray) -> np.ndarray:
    """[log(1/|x|) * density](x_i) for nodal density values: one FFT
    convolution on cartesian grids.  On radial grids the ring coupling is
    -log max(r_i, r_j) (Newton's theorem), so with m = w * density it is
    -log(r_i) sum_{j<=i} m_j - sum_{j>i} log(r_j) m_j: two prefix sums."""
    if grid.kind == "cartesian":
        return convolve_kernel(grid, density)
    m = grid.weights * density
    log_r = np.log(grid.nodes)
    outside = np.cumsum((log_r * m)[::-1])[::-1]        # sum_{j >= i}
    return -log_r * np.cumsum(m) - np.append(outside[1:], 0.0)


def b0_form(u: grids.GridField, v: grids.GridField) -> float:
    """B0(u, v) alone, by the cheapest fast route.  On cartesian grids the
    spectra are paired by Parseval, with no inverse transform (one forward
    transform when ``v is u``).  Radial grids pair u with ``b0_potential``;
    when ``v is u`` the pairing is one prefix sum: with m = w * u and
    M = cumsum(m), B0(u, u) = -sum_i log(r_i) m_i (2 M_i - m_i)."""
    grids.require_same_grid(u, v)
    grid = u.grid
    if grid.kind != "cartesian":
        if v is u:
            m = grid.weights * u.values
            return float(-np.sum(np.log(grid.nodes) * m * (2.0 * np.cumsum(m) - m)))
        return float(np.sum(grid.weights * u.values * b0_potential(grid, v.values)))
    return float(np.sum(_fft_kernels(grid)[2]["B0"] * _cross_spectrum(u, v)))


# ---------------------------------------------------------------------------
# public bilinear forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelForm:
    """Evaluated bilinear forms: b1 (far), b2 (near), b0 = b2 - b1."""

    b1: float
    b2: float
    b0: float

    def value(self, name: str) -> float:
        return {"B0": self.b0, "B1": self.b1, "B2": self.b2}[name]


def bilinear_direct_many(pairs) -> list[KernelForm]:
    """O(N^2) double quadrature over node pairs, the oracle route, for every
    (u, v) in ``pairs``, all on one cartesian grid, in one pass over the
    lattice-offset tables."""
    pairs = list(pairs)
    if not pairs:
        raise InvalidParameterError("bilinear_direct_many needs at least one pair")
    grid = pairs[0][0].grid
    for u, v in pairs:
        grids.require_same_grid(u, v)
        if u.grid is not grid:
            raise InvalidParameterError("a batch of pairs must live on one grid")
    if grid.kind != "cartesian":
        raise UnsupportedGridError("the direct forms need a cartesian grid")
    a = _weighted_stack(grid, [u for u, _ in pairs])
    b = _weighted_stack(grid, [v for _, v in pairs])
    d0, d1, d2 = cell_average_log_kernels(grid.spacing)
    b1, b2 = _pair_sum(grid, a, b, [(np.log1p, d1),
                                    (lambda d: np.log1p(1.0 / d), d2)])
    return [KernelForm(b1=float(x1), b2=float(x2), b0=float(x2 - x1))
            for x1, x2 in zip(b1, b2)]


def bilinear_fast(u: grids.GridField, v: grids.GridField) -> KernelForm:
    """Parseval pairings of the spectra on a cartesian grid."""
    grids.require_same_grid(u, v)
    grid = u.grid
    if grid.kind != "cartesian":
        raise UnsupportedGridError("the fast forms need a cartesian grid")
    tables = _fft_kernels(grid)[2]
    cross = _cross_spectrum(u, v)
    b1 = float(np.sum(tables["B1"] * cross))
    b2 = float(np.sum(tables["B2"] * cross))
    return KernelForm(b1=b1, b2=b2, b0=b2 - b1)
