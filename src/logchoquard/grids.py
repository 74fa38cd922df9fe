"""Discretization of the truncated plane and of radial profiles.

Two grid kinds are provided:

* ``radial`` -- nodes on (0, R] with a geometric distribution near the
  origin (first node at R/(10 n)) so that logarithmic kernels and Moser
  plateaus are resolved.  Quadrature weights integrate the piecewise
  parabolic interpolant against the measure 2*pi*r dr on [r_0, R], with
  the field held constant on [0, r_0].  On [r_0, R] polynomials of degree
  <= 1 in r are integrated exactly on every grid, and of degree <= 2 only
  when n is odd and no triple is skewed: for even n the trailing segment
  is linear (r^2 is off by 3.0e-6 relative at n = 512), and a skewed
  triple is split into two linear segments.
* ``cartesian`` -- an n x n lattice of cell centers on the square
  [-R, R]^2, every node with the cell area h^2 as its weight.

All operations are pure functions of immutable inputs; the node and
weight arrays are marked read-only after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (GridMismatchError, InvalidParameterError,
                     ResolutionFailureError)

MIN_RESOLUTION = 8
PLATEAU_MIN_NODES = 4       # nodes a plateau or witness disc must hold


@dataclass(frozen=True, eq=False)
class Grid:
    """A truncated planar (cartesian) or radial grid with quadrature weights."""

    kind: str
    domain_radius: float
    resolution: int
    nodes: np.ndarray      # radial: (n,) radii; cartesian: (n,) axis of cell centers
    weights: np.ndarray    # radial: (n,); cartesian: (n, n), all h^2
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.nodes.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def shape(self):
        if self.kind == "radial":
            return (self.resolution,)
        return (self.resolution, self.resolution)

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def spacing(self) -> float:
        """Cell size (cartesian) or mean node gap (radial)."""
        if self.kind == "cartesian":
            return 2.0 * self.domain_radius / self.resolution
        return float(np.mean(np.diff(self.nodes)))

    def radii(self) -> np.ndarray:
        """Distance of every node from the origin, in grid shape."""
        if self.kind == "radial":
            return self.nodes
        return self._cached("radii", lambda: np.hypot(*self.meshgrid()))

    def meshgrid(self):
        if self.kind != "cartesian":
            raise GridMismatchError("meshgrid is only defined for cartesian grids")
        return np.meshgrid(self.nodes, self.nodes, indexing="ij")

    def _cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]


@dataclass(frozen=True, eq=False)
class GridField:
    """A scalar field sampled at the nodes of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise GridMismatchError(
                f"field shape {values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("field values must be finite")
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray) -> "GridField":
        return GridField(self.grid, values)


def build_grid(kind: str, domain_radius: float, resolution: int,
               anchors: tuple = ()) -> Grid:
    """Construct a grid over the disc (radial) or the square (cartesian) of
    radius ``domain_radius``.

    ``anchors`` (radial grids only) is a tuple of radii in (0, R) that are
    snapped onto exact nodes; used to align nodes with profile corners.
    """
    if not (domain_radius > 0 and math.isfinite(domain_radius)):   # nan fails too
        raise InvalidParameterError(
            f"domain_radius must be positive and finite, got {domain_radius}")
    if resolution < MIN_RESOLUTION:
        raise InvalidParameterError(
            f"resolution must be >= {MIN_RESOLUTION}, got {resolution}"
        )
    # the radial weights take r^4 up to R^4 and the cartesian cell-pair
    # averages divide by h^4, so R and the finest spacing (the first radial
    # node R / 10n, or the cell h = 2R / n) must have normal 4th powers
    spacing = (domain_radius / (10.0 * resolution) if kind == "radial"
               else 2.0 * domain_radius / resolution)
    for scale in (domain_radius, spacing):
        if not -1022 <= 4.0 * math.log2(scale) < 1024:
            raise InvalidParameterError(
                f"domain_radius {domain_radius} at resolution {resolution} "
                f"has a length {scale:.3g} whose 4th power is not a normal float")
    if kind == "radial":
        return _build_radial(float(domain_radius), int(resolution), tuple(anchors))
    if kind == "cartesian":
        if anchors:
            raise InvalidParameterError("anchors are supported on radial grids only")
        return _build_cartesian(float(domain_radius), int(resolution))
    raise InvalidParameterError(f"unknown grid kind {kind!r}")


# ---------------------------------------------------------------------------
# radial grids
# ---------------------------------------------------------------------------

def _build_radial(radius: float, n: int, anchors: tuple) -> Grid:
    r0 = radius / (10.0 * n)
    nodes = np.geomspace(r0, radius, n)
    nodes[-1] = radius
    for a in anchors:
        if not 0.0 < a < radius:
            raise InvalidParameterError(f"anchor {a} outside (0, R)")
        i = int(np.argmin(np.abs(nodes - a)))
        if abs(nodes[i] - a) <= 1e-14 * a:
            continue   # already a node
        i = min(max(i, 1), n - 2)   # keep first node and the boundary intact
        nodes[i] = a
    nodes = np.unique(nodes)
    if len(nodes) != n:
        raise InvalidParameterError("anchor snapping produced duplicate nodes")
    weights = _radial_weights(nodes)
    if np.any(weights <= 0):
        raise InvalidParameterError("radial quadrature produced non-positive weights")
    return Grid("radial", radius, n, nodes, weights)


def _radial_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite parabolic quadrature of the 2 pi r dr measure on [0, R].

    Node triples (i, i+1, i+2), i even, get the Simpson-style parabolic
    rule, or two linear segments when a parabola weight is negative (a
    triple skewed by anchor snapping).  With n even the trailing segment
    reuses the last parabola, or the linear rule when that would give any
    of the nodes n-3, n-2, n-1 it touches a weight below -1e-3 of the
    largest (on a near-coincident last pair the parabola's moments are
    rounding noise, with weights of opposite sign on n-2 and n-1).  The gap
    [0, r_0] treats the field as constant (radial profiles are flat at the
    origin), which keeps every weight positive at the cost of an O(r_0^3)
    defect.

    All triples are evaluated at once.  The ring moments
    m_k = int_a^b r^k 2 pi r dr take their powers of r from ``math.pow``
    (libm ``pow``), element by element: NumPy's array power can differ
    from it by an ulp, which would move the weights in the last digit.
    Only the ends a, b of the rings are raised: the even nodes, and node
    n-1 when n is even.
    """
    n = len(nodes)
    first = np.arange(0, n - 2, 2)
    lo, a, b = first, first, first + 2
    if n % 2 == 0:   # the trailing segment [r_{n-2}, r_{n-1}] on the last parabola
        lo, a, b = np.append(lo, n - 3), np.append(a, n - 2), np.append(b, n - 1)
    ends = np.union1d(a, b)
    power = {}
    for k in (2, 3, 4):
        power[k] = np.full(n, np.nan)   # read at a and b only
        power[k][ends] = [math.pow(r, k) for r in nodes[ends].tolist()]
    m0, m1, m2 = (2.0 * np.pi * (power[k][b] - power[k][a]) / k for k in (2, 3, 4))
    x0, x1, x2 = nodes[lo], nodes[lo + 1], nodes[lo + 2]
    pw = np.array([
        (m2 - (x1 + x2) * m1 + x1 * x2 * m0) / ((x0 - x1) * (x0 - x2)),
        (m2 - (x0 + x2) * m1 + x0 * x2 * m0) / ((x1 - x0) * (x1 - x2)),
        (m2 - (x0 + x1) * m1 + x0 * x1 * m0) / ((x2 - x0) * (x2 - x1)),
    ])
    gap = np.diff(nodes)   # linear rule on every segment: weights of its left/right node
    left = np.pi * gap * (nodes[1:] + 2 * nodes[:-1]) / 3.0
    right = np.pi * gap * (2 * nodes[1:] + nodes[:-1]) / 3.0

    tri = pw[:, :len(first)]
    skewed = np.any(tri < 0, axis=0)
    w = np.zeros(n)
    w[first] = np.where(skewed, left[first], tri[0])
    w[first + 1] = np.where(skewed, right[first] + left[first + 1], tri[1])
    w[first + 2] += np.where(skewed, right[first + 1], tri[2])
    if n % 2 == 0:
        tail = pw[:, -1]
        if tail.min() < -1e-3 * abs(tail).max():
            w[n - 2:] += (left[n - 2], right[n - 2])
        else:
            w[n - 3:] += tail
    w[0] += np.pi * nodes[0] ** 2
    return w


# ---------------------------------------------------------------------------
# cartesian grids
# ---------------------------------------------------------------------------

def _build_cartesian(radius: float, n: int) -> Grid:
    h = 2.0 * radius / n
    axis = -radius + (np.arange(n) + 0.5) * h
    return Grid("cartesian", radius, n, axis, np.full((n, n), h * h))


# ---------------------------------------------------------------------------
# field constructors
# ---------------------------------------------------------------------------

def field_from_radial(grid: Grid, profile) -> GridField:
    """Sample ``profile(r)`` at the node radii of either grid kind."""
    return GridField(grid, np.asarray(profile(grid.radii()), dtype=float))


def zero_field(grid: Grid) -> GridField:
    return GridField(grid, np.zeros(grid.shape))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integrate(u: GridField, pointwise_map=None, weight=None) -> float:
    """Return sum_i w_i * map(u_i) * weight_i over the truncated domain, for
    a ``weight`` array in grid shape."""
    values = u.values if pointwise_map is None else pointwise_map(u.values)
    if weight is not None:
        if np.shape(weight) != u.grid.shape:
            raise GridMismatchError("weight array does not match the grid shape")
        values = values * weight
    return float(np.sum(u.grid.weights * values))


# ---------------------------------------------------------------------------
# Dirichlet energy
# ---------------------------------------------------------------------------

def _radial_stencil(nodes: np.ndarray):
    """First-derivative weights at every node from the quadratic through 3 nodes.

    Row i of the derivative D holds ``coeffs[i]`` at the columns
    ``base[i] + (0, 1, 2)``: the nodes (i-1, i, i+1), one-sided at the two
    ends.  The coefficient at x_i is the negative sum of the other two, so
    that constants differentiate to exactly zero in floating point.
    """
    n = len(nodes)
    gap = np.diff(nodes)
    h1, h2 = gap[:-1], gap[1:]      # left and right gaps of nodes 1 .. n-2
    lo, hi = -h2 / (h1 * (h1 + h2)), h1 / (h2 * (h1 + h2))
    coeffs = np.empty((n, 3))
    coeffs[1:-1] = np.column_stack((lo, -(lo + hi), hi))
    h1, h2 = gap[0], gap[1]
    mid, far = (h1 + h2) / (h1 * h2), -h1 / (h2 * (h1 + h2))
    coeffs[0] = (-(mid + far), mid, far)
    h1, h2 = gap[-2], gap[-1]
    far, mid = h2 / (h1 * (h1 + h2)), -(h1 + h2) / (h1 * h2)
    coeffs[-1] = (far, mid, -(far + mid))
    return coeffs, np.clip(np.arange(n) - 1, 0, n - 3)


def derivative_stencil(grid: Grid):
    """The 3-point derivative D of a radial grid as (coeffs, columns), cached
    on the grid: row i of D holds ``coeffs[i]`` at the nodes ``columns[i]``."""
    def build():
        coeffs, base = _radial_stencil(grid.nodes)
        return coeffs, base[:, None] + np.arange(3)
    return grid._cached("derivative", build)


def radial_derivative(grid: Grid, values: np.ndarray) -> np.ndarray:
    """u' = D u at every node of a radial grid, for u in grid shape."""
    coeffs, columns = derivative_stencil(grid)
    return np.sum(coeffs * values[columns], axis=1)


def stiffness_product(grid: Grid, values: np.ndarray) -> np.ndarray:
    """A v for the stiffness matrix A and v in grid shape, matrix-free.
    Radial grids apply A = D^T W D as D^T (w D v), with D the 3-point
    derivative and W the quadrature weights.  Cartesian ones apply the edge
    form sum_e (v_a - v_b)^2 over the neighbour pairs as D^T D v over both
    axes with D the forward differences (the cell-centred Neumann
    Laplacian)."""
    if grid.kind == "radial":
        coeffs, columns = derivative_stencil(grid)
        flux = grid.weights * radial_derivative(grid, values)
        return np.bincount(columns.ravel(), (coeffs * flux[:, None]).ravel(),
                           grid.resolution)
    out = np.zeros(grid.shape)
    dx, dy = values[1:] - values[:-1], values[:, 1:] - values[:, :-1]
    out[1:] += dx
    out[:-1] -= dx
    out[:, 1:] += dy
    out[:, :-1] -= dy
    return out


def dirichlet_energy(u: GridField) -> float:
    """Quadrature of |grad u|^2 over the truncated domain (radial: (u')^2 2 pi r dr).

    Both grid kinds sum squares with ``np.sum``, so the value is never
    negative, cancels nothing and does not depend on the BLAS thread count.
    Cartesian grids sum the edge form sum_e (u_a - u_b)^2 over the x- and
    y-neighbour pairs.  The form charges the odd-even (checkerboard) mode
    about 8 / h^2 per unit mass, so no lattice mode is nearly free
    (Patankar 1980).  Radial grids sum sum_i w_i (D u)_i^2 with D the
    3-point derivative.
    """
    if u.grid.num_nodes < 3:
        raise GridMismatchError("grid too small for finite differences")
    if u.grid.kind == "cartesian":
        v = u.values
        return float(np.sum((v[1:] - v[:-1]) ** 2)
                     + np.sum((v[:, 1:] - v[:, :-1]) ** 2))
    return float(np.sum(u.grid.weights * radial_derivative(u.grid, u.values) ** 2))


def require_same_grid(u: GridField, v: GridField):
    """Fail unless the two fields share a grid: one object, or two grids
    equal in kind, radius, resolution, nodes and weights (as a field loaded
    from a file and a freshly built grid with the same parameters are)."""
    a, b = u.grid, v.grid
    if a is b or (a.kind == b.kind and a.domain_radius == b.domain_radius
                  and a.resolution == b.resolution
                  and np.array_equal(a.nodes, b.nodes)
                  and np.array_equal(a.weights, b.weights)):
        return
    raise GridMismatchError("fields live on different grids")


def require_plateau_resolution(grid: Grid, radius: float):
    """Fail unless at least PLATEAU_MIN_NODES nodes fall inside |x| <= radius."""
    count = int(np.sum(grid.radii() <= radius))
    if count < PLATEAU_MIN_NODES:
        raise ResolutionFailureError(
            f"grid has {count} node(s) inside radius {radius}; "
            f"needs >= {PLATEAU_MIN_NODES}"
        )
