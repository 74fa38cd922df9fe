"""Sign-split logarithmic kernel, bilinear forms and HLS-type evaluators.

The kernel is handled through the elementary split
log(1/r) = log(1 + 1/r) - log(1 + r), giving the three bilinear forms
B1 (far part, log(1+|x-y|)), B2 (near part, log(1+1/|x-y|)) and
B0 = B2 - B1 (the full log kernel).

Two evaluation routes are kept deliberately independent:

* ``bilinear_direct`` -- O(N^2) double quadrature over node pairs, the
  oracle.  Diagonal (self-cell) entries integrate the kernel exactly over
  the cell pair against constant densities; radial grids use high-order
  graded angular panels for the ring-ring coupling.  ``bilinear_direct_many``
  evaluates a batch of pairs on one grid per pass: the node-pair distances
  and kernel tables (cartesian) or the oracle ring coupling (radial) are
  built once for the whole batch.
* ``bilinear_fast``  -- on uniform cartesian grids a Parseval pairing of
  zero-padded spectra for each form; on radial grids a cached
  log(1+|x-y|) ring-coupling matrix for B1, and Newton prefix sums for B0
  (``b0_potential``).

Every cartesian form is paired by Parseval, with no inverse FFT:
B(u, v) = (1/m^2) sum_k c_k K_hat(k) Re(conj(uhat_k) vhat_k) over the
rfft2 half spectrum, and one forward FFT when v is u.  ``b0_form`` (B0
alone, the energy's form) runs the same pairing.  The pad m >= 2n - 1
leaves no wrap-around terms, and every forward transform is pruned to the
n nonzero rows of the pad (``_spectrum``).  The one convolution is
``convolve_kernel`` (B0), which the energy gradient and the Hessian
products need as a nodal field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as spfft

from . import grids
from .errors import (DomainError, ExponentMismatchError, InvalidParameterError,
                     NegativeInputError, UnsupportedGridError)


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

def _gauss_panel(a, b, order=48):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (a + b) + 0.5 * (b - a) * x, 0.5 * (b - a) * w


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


def _moment_power(k, R, mu):
    """int_0^R r^{k - mu} dr (mu < 2 keeps every exponent positive)."""
    return R ** (k + 1 - mu) / (k + 1 - mu)


def _cell_pair_average(h: float, moments) -> float:
    """(1/h^4) * double integral of K(x - y) over one cell pair.

    Uses the autocorrelation identity: the pair integral equals
    int_{[-h,h]^2} K(z) (h-|z1|)(h-|z2|) dz, reduced to a polar integral
    over [0, pi/4] whose radial moments are supplied in closed form.
    """
    theta, wt = _gauss_panel(0.0, np.pi / 4.0)
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

def _fft_kernels(grid: grids.Grid):
    """(m, K_B0 hat, Parseval tables): the rfft2 of the zero-padded (2n-1)^2
    displacement table of log(1/d) = log(1+1/d) - log(1+d), whose zero
    displacement holds the exact self-cell average, and for each of "B1",
    "B2" and "B0" the table c_k Re(K hat)_k / m^2 on the rfft2 half spectrum,
    c_k = 1 on column 0 (and on the Nyquist column when m is even), 2
    elsewhere.  Every kernel table depends on |offset| only, so its
    transform is real.  Cached per grid."""
    def build():
        n, h = grid.resolution, grid.spacing
        m = spfft.next_fast_len(2 * n - 1)
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
            hats.append(spfft.rfft2(pad))
        k1hat, k2hat = hats
        k0hat = k2hat - k1hat
        c = np.full(m // 2 + 1, 2.0)
        c[0] = 1.0
        if m % 2 == 0:
            c[-1] = 1.0
        tables = {name: c * khat.real / (m * m)
                  for name, khat in (("B1", k1hat), ("B2", k2hat), ("B0", k0hat))}
        return m, k0hat, tables
    return grid._cached("fft_kernels", build)


def _spectrum(grid: grids.Grid, density: np.ndarray) -> np.ndarray:
    """rfft2 of the m x m zero pad of the weighted nodal density, with the
    forward pass pruned to the n nonzero rows (bit-identical to rfft2)."""
    m = _fft_kernels(grid)[0]
    rows = spfft.rfft(grid.weights * density, n=m, axis=1)
    return spfft.fft(rows, n=m, axis=0)


def _cross_spectrum(u: grids.GridField, v: grids.GridField) -> np.ndarray:
    """Re(conj(uhat) vhat) on the rfft2 half spectrum: summed against a
    Parseval table it gives that table's form B(u, v).  One forward
    transform when ``v is u``."""
    uhat = _spectrum(u.grid, u.values)
    vhat = uhat if v is u else _spectrum(v.grid, v.values)
    return uhat.real * vhat.real + uhat.imag * vhat.imag


def convolve_kernel(grid: grids.Grid, density: np.ndarray):
    """(log(1/|.|) * density) sampled at the nodes of a uniform cartesian
    grid, density given as nodal values (quadrature weights applied
    internally)."""
    if grid.kind != "cartesian":
        raise UnsupportedGridError("FFT convolution needs a cartesian grid")
    m, k0hat, _ = _fft_kernels(grid)
    n = grid.resolution
    dhat = _spectrum(grid, density)
    # irfft2 pruned to the n rows that are kept.  Like irfft2, both passes
    # run unscaled and the 1/m^2 is applied once, so the result is the same.
    rows = spfft.ifft(k0hat * dhat, axis=0, norm="forward")[:n]
    return spfft.irfft(rows, n=m, axis=1, norm="forward")[:, :n] * (1.0 / (m * m))


def _pair_sum(grid: grids.Grid, a: np.ndarray, b: np.ndarray, kernels):
    """Blocked O(N^2) node-pair sums sum_ij a_ip K(|x_i - x_j|) b_jp on a
    cartesian grid for every column p of the (N, P) weighted stacks a and b:
    one (P,) array per (K, self-cell average of K) in ``kernels``.  Each row
    block's distances and kernel tables are built once for all P columns.
    K is only evaluated at positive distances."""
    xx, yy = grid.meshgrid()
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    total = len(pts)
    sums = [np.zeros(a.shape[1]) for _ in kernels]
    block = max(1, 2**22 // total)
    for start in range(0, total, block):
        stop = min(start + block, total)
        dx = pts[start:stop, 0, None] - pts[None, :, 0]
        d = np.hypot(dx, pts[start:stop, 1, None] - pts[None, :, 1], out=dx)
        zero = d == 0.0
        d[zero] = 1.0
        for i, (kern, diag) in enumerate(kernels):
            k = kern(d)
            k[zero] = diag
            sums[i] += np.einsum("rp,rp->p", a[start:stop], k @ b)
    return sums


def _weighted_stack(grid: grids.Grid, fields) -> np.ndarray:
    """(N, P) stack of the quadrature-weighted nodal values of ``fields``."""
    return np.column_stack([(grid.weights * f.values).ravel() for f in fields])


# ---------------------------------------------------------------------------
# radial route: ring-ring couplings
# ---------------------------------------------------------------------------

_FAST_EDGES = np.pi * np.array([0.0, 1e-4, 1e-3, 1e-2, 0.06, 0.25, 0.6, 1.0])
_ORACLE_EDGES = np.pi * np.array([0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                  0.03, 0.1, 0.25, 0.45, 0.7, 1.0])


def _panel_nodes(edges, order):
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = _gauss_panel(a, b, order)
        nodes.append(x)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


def _ring_log1p_block(r_block, r_all, theta, wt):
    """Angular average of log(1+|x-y|) between circles of radii r_block, r_all.

    The distance is evaluated as sqrt((r-s)^2 + 4 r s sin^2(theta/2)),
    stable near coincident radii.
    """
    diff = (r_block[:, None] - r_all[None, :]) ** 2
    prod = 4.0 * r_block[:, None] * r_all[None, :]
    sin2 = np.sin(theta / 2.0) ** 2
    acc = np.zeros(diff.shape)
    for t2, w in zip(sin2, wt):
        acc += w * np.log1p(np.sqrt(diff + prod * t2))
    return acc / np.pi


def ring_c1(grid: grids.Grid, oracle: bool = False) -> np.ndarray:
    """Angular average of log(1+|x-y|) between circles, by graded
    Gauss-Legendre panels.  The fast variant is cached on the grid; the
    oracle variant uses denser panels and is recomputed on demand."""
    if grid.kind != "radial":
        raise UnsupportedGridError("ring couplings need a radial grid")

    def build():
        edges, order = (_ORACLE_EDGES, 24) if oracle else (_FAST_EDGES, 12)
        theta, wt = _panel_nodes(edges, order)
        r = grid.nodes
        n = len(r)
        c1 = np.empty((n, n))
        block = max(1, 2**21 // (n * len(theta) // 16 + 1))
        for start in range(0, n, block):
            stop = min(start + block, n)
            c1[start:stop] = _ring_log1p_block(r[start:stop], r, theta, wt)
        return c1

    if oracle:
        return build()
    return grid._cached("ring_c1", build)


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
    transform when ``v is u``); radial grids pair u with ``b0_potential``."""
    grids.require_same_grid(u, v)
    grid = u.grid
    if grid.kind != "cartesian":
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


def bilinear_direct(u: grids.GridField, v: grids.GridField) -> KernelForm:
    """O(N^2) double quadrature over node pairs; the oracle route."""
    return bilinear_direct_many([(u, v)])[0]


def bilinear_direct_many(pairs) -> list[KernelForm]:
    """``bilinear_direct`` for every (u, v) in ``pairs``, all on one grid, in
    one pass over the node-pair geometry (cartesian) or with one oracle
    ring coupling (radial)."""
    pairs = list(pairs)
    if not pairs:
        raise InvalidParameterError("bilinear_direct_many needs at least one pair")
    grid = pairs[0][0].grid
    for u, v in pairs:
        grids.require_same_grid(u, v)
        if u.grid is not grid:
            raise InvalidParameterError("a batch of pairs must live on one grid")
    a = _weighted_stack(grid, [u for u, _ in pairs])
    b = _weighted_stack(grid, [v for _, v in pairs])
    if grid.kind == "cartesian":
        d0, d1, d2 = cell_average_log_kernels(grid.spacing)
        b1, b2 = _pair_sum(grid, a, b, [(np.log1p, d1),
                                        (lambda d: np.log1p(1.0 / d), d2)])
    else:
        b1 = np.einsum("rp,rp->p", a, ring_c1(grid, oracle=True) @ b)
        b2 = b1 + np.array([b0_form(u, v) for u, v in pairs])
    return [KernelForm(b1=float(x1), b2=float(x2), b0=float(x2 - x1))
            for x1, x2 in zip(b1, b2)]


def bilinear_fast(u: grids.GridField, v: grids.GridField) -> KernelForm:
    """Parseval pairings of the spectra (cartesian) or cached ring
    couplings (radial)."""
    grids.require_same_grid(u, v)
    grid = u.grid
    if grid.kind == "cartesian":
        tables = _fft_kernels(grid)[2]
        cross = _cross_spectrum(u, v)
        b1 = float(np.sum(tables["B1"] * cross))
        b2 = float(np.sum(tables["B2"] * cross))
    else:
        a = grid.weights * u.values
        b1 = float(a @ (ring_c1(grid) @ (grid.weights * v.values)))
        b2 = b1 + b0_form(u, v)
    return KernelForm(b1=b1, b2=b2, b0=b2 - b1)


# ---------------------------------------------------------------------------
# HLS-type inequality evaluators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HLSReport:
    lhs: float
    norm_product: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.norm_product if self.norm_product else float("nan")


def hls_check(u: grids.GridField, v: grids.GridField, mu: float,
              s: float, r: float) -> HLSReport:
    """Evaluate both sides of the Riesz-kernel inequality
    int int |x-y|^{-mu} u(x) v(y) <= C(s, 2, mu, r) ||u||_s ||v||_r."""
    grids.require_same_grid(u, v)
    if not (0.0 < mu < 2.0) or s <= 1.0 or r <= 1.0:
        raise ExponentMismatchError("need 0 < mu < 2 and s, r > 1")
    if abs(1.0 / s + mu / 2.0 + 1.0 / r - 2.0) > 1e-12:
        raise ExponentMismatchError("exponents must satisfy 1/s + mu/2 + 1/r = 2")
    grid = u.grid
    if grid.kind != "cartesian":
        raise UnsupportedGridError("hls_check runs on cartesian grids")
    diag = _cell_pair_average(grid.spacing,
                              lambda k, R: _moment_power(k, R, mu))
    a, b = (_weighted_stack(grid, [f]) for f in (u, v))
    lhs, = _pair_sum(grid, a, b, [(lambda d: d ** (-mu), diag)])
    norm_u = grids.integrate(u, lambda t: np.abs(t) ** s) ** (1.0 / s)
    norm_v = grids.integrate(v, lambda t: np.abs(t) ** r) ** (1.0 / r)
    return HLSReport(lhs=float(lhs[0]), norm_product=norm_u * norm_v)


@dataclass(frozen=True)
class LogHLSReport:
    lhs: float                 # 2 N * B0(u, v), N = 2
    entropy_u: float
    entropy_v: float
    weight_moment_u: float
    weight_moment_v: float
    c_n_required: float        # lhs - entropy_u - entropy_v
    normalization_u: float     # L1 mass before auto-normalization
    normalization_v: float


def log_hls_check(u: grids.GridField, v: grids.GridField) -> LogHLSReport:
    """Evaluate the logarithmic HLS inequality data for nonnegative unit-mass
    densities; inputs are auto-normalized and the residual constant needed to
    satisfy the inequality is reported."""
    grids.require_same_grid(u, v)
    if np.min(u.values) < -1e-12 or np.min(v.values) < -1e-12:
        raise NegativeInputError("log-HLS needs nonnegative densities")
    uu = np.maximum(u.values, 0.0)
    vv = np.maximum(v.values, 0.0)
    mass_u = float(np.sum(u.grid.weights * uu))
    mass_v = float(np.sum(u.grid.weights * vv))
    if mass_u <= 0 or mass_v <= 0:
        raise NegativeInputError("log-HLS needs nonzero densities")
    un = grids.GridField(u.grid, uu / mass_u)
    vn = grids.GridField(u.grid, vv / mass_v)
    form = bilinear_fast(un, vn)
    lhs = 4.0 * form.b0

    def xlogx(t):
        tt = np.maximum(t, 1e-300)
        return np.where(t > 0, t * np.log(tt), 0.0)

    w = np.log1p(u.grid.radii())
    ent_u = grids.integrate(un, xlogx)
    ent_v = grids.integrate(vn, xlogx)
    mom_u = grids.integrate(un, weight=w)
    mom_v = grids.integrate(vn, weight=w)
    return LogHLSReport(
        lhs=lhs, entropy_u=ent_u, entropy_v=ent_v,
        weight_moment_u=mom_u, weight_moment_v=mom_v,
        c_n_required=lhs - ent_u - ent_v,
        normalization_u=mass_u, normalization_v=mass_v,
    )
