"""Weights, weighted norms, the radial change of variables and
Trudinger-Moser type functionals.

The map ``T(r) = r sqrt(log(e + r))`` turns the log-weighted Sobolev norm
into an equivalent plain H^1 norm up to the two-sided sandwich
(1/3) ||u||_w0^2 < ||v||_{H^1}^2 < 2 ||u||_w0^2, which this module
realizes numerically on radial profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import grids
from .errors import (DomainError, EmptyFamilyError, GridMismatchError,
                     InvalidParameterError, NonConvergenceError)

EXP_GUARD = 700.0   # exponents above this are clamped and flagged


# ---------------------------------------------------------------------------
# coefficients and weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicCoefficient:
    """A 1-periodic continuous coefficient bounded below by ``floor`` > 0.

    The non-constant profile is floor + amplitude * (1 - cos(2 pi x) cos(2 pi y)) / 2,
    which is 1-periodic in both coordinates and vanishes at the lattice Z^2.
    """

    floor: float
    amplitude: float = 0.0

    def __post_init__(self):
        if not self.floor > 0:
            raise InvalidParameterError("coefficient floor must be positive")
        if not self.amplitude >= 0:
            raise InvalidParameterError("coefficient amplitude must be nonnegative")

    @property
    def is_constant(self) -> bool:
        return self.amplitude == 0.0

    def __call__(self, x, y):
        profile = 0.5 * (1.0 - np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y))
        return self.floor + self.amplitude * profile

    def on_grid(self, grid: grids.Grid) -> np.ndarray:
        """The coefficient at the nodes; cached per grid and read-only."""
        if not self.is_constant and grid.kind == "radial":
            raise GridMismatchError(
                "non-constant periodic coefficients require a cartesian grid"
            )

        def build():
            values = (np.full(grid.shape, self.floor) if self.is_constant
                      else self(*grid.meshgrid()))
            values.flags.writeable = False
            return values
        return grid._cached(("coefficient", self.floor, self.amplitude), build)

    def max_within(self, radius: float) -> float:
        """max of the coefficient over the closed disc |x| <= radius."""
        if self.is_constant:
            return self.floor
        theta = np.linspace(0.0, 2 * np.pi, 4096)
        rr = np.linspace(0.0, radius, 512)[:, None]
        vals = self(rr * np.cos(theta)[None, :], rr * np.sin(theta)[None, :])
        return float(np.max(vals))


def norm_1qw(u: grids.GridField, q: float, weight: np.ndarray,
             potential: Optional[PeriodicCoefficient] = None) -> float:
    """The squared weighted norm
    ||u||^2 = ||grad u||^2 [+ int V u^2] + (int |u|^q w)^{2/q}
    for the nodal weight w; the V term only when ``potential`` is given."""
    if q < 2:
        raise InvalidParameterError("q must be >= 2")
    grad_sq = grids.dirichlet_energy(u)
    pot_mass = 0.0
    if potential is not None:
        pot_mass = grids.integrate(u, lambda s: s**2,
                                   weight=potential.on_grid(u.grid))
    mass = grids.integrate(u, lambda s: np.abs(s) ** q, weight=weight)
    return (grad_sq + pot_mass) + mass ** (2.0 / q)


def norm_1qw_sq(u: grids.GridField, q: float,
                potential: PeriodicCoefficient) -> float:
    """||u||_{1,q(w)}^2 with w = log(1+|x|) and the potential V: the norm of
    the mountain-pass sphere and of the Moser expansion."""
    return norm_1qw(u, q, np.log1p(u.grid.radii()), potential)


def norm_w0_sq(u: grids.GridField, q: float = 2.0) -> float:
    """||u||_{w0}^2 = ||grad u||^2 + (int |u|^q log(e+|x|) dx)^{2/q}; q = 2
    is the w0 norm of the change of variables, q > 2 the q-growth sphere of
    the Orlicz variant."""
    return norm_1qw(u, q, np.log(np.e + u.grid.radii()))


def norm_ruf_sq(u: grids.GridField) -> float:
    """Full Sobolev norm squared ||grad u||^2 + ||u||_2^2."""
    return grids.dirichlet_energy(u) + grids.integrate(u, lambda s: s**2)


def norm_V_sq(u: grids.GridField, potential: PeriodicCoefficient) -> float:
    """||u||_V^2 = ||grad u||^2 + int V u^2 dx."""
    return grids.dirichlet_energy(u) + grids.integrate(
        u, lambda s: s**2, weight=potential.on_grid(u.grid))


# ---------------------------------------------------------------------------
# the radial change of variables
# ---------------------------------------------------------------------------

def radial_map_T(r):
    """s = T(r) = r sqrt(log(e + r)); strictly increasing with T(0) = 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radial map requires r >= 0")
    out = r * np.sqrt(np.log(np.e + r))
    return out if out.ndim else float(out)


def radial_map_T_prime(r):
    """T'(r) = (2 log(e+r) + r/(e+r)) / (2 sqrt(log(e+r))) > 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("radial map requires r >= 0")
    lg = np.log(np.e + r)
    out = (2.0 * lg + r / (np.e + r)) / (2.0 * np.sqrt(lg))
    return out if out.ndim else float(out)


def radial_map_T_inverse(s, tol: float = 1e-13, max_iter: int = 80):
    """Invert T by safeguarded Newton iteration; |T(r) - s| <= tol (1 + s)."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s_arr < 0):
        raise DomainError("radial map inverse requires s >= 0")
    # T(r) >= r, so [0, s] brackets the root; start from s / sqrt(log(e+s))
    lo = np.zeros_like(s_arr)
    hi = s_arr.copy()
    r = s_arr / np.sqrt(np.log(np.e + s_arr))
    target = tol * (1.0 + s_arr)
    for _ in range(max_iter):
        resid = radial_map_T(r) - s_arr
        if np.all(np.abs(resid) <= target):
            break
        lo = np.where(resid < 0, r, lo)
        hi = np.where(resid > 0, r, hi)
        step = resid / radial_map_T_prime(r)
        r_new = r - step
        bad = (r_new <= lo) | (r_new >= hi) | ~np.isfinite(r_new)
        r = np.where(bad, 0.5 * (lo + hi), r_new)
    else:
        resid = radial_map_T(r) - s_arr
        if np.any(np.abs(resid) > target):
            raise NonConvergenceError("radial map inversion failed to converge")
    r = np.where(s_arr == 0.0, 0.0, r)
    return r if np.ndim(s) else float(r[0])


def transform_bound_chains(r):
    """The two pointwise chains controlling the change of variables.

    Returns ((1/3) r^2/T^2, 1/T'^2, r^2/T^2) and (r, r^2 T'/T, 2r) at r > 0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("bound chains require r > 0")
    t = radial_map_T(r)
    tp = radial_map_T_prime(r)
    ratio = r**2 / t**2
    chain1 = (ratio / 3.0, 1.0 / tp**2, ratio)
    chain2 = (r, r**2 * tp / t, 2.0 * r)
    return chain1, chain2


def _augment_origin(nodes: np.ndarray, values: np.ndarray):
    """Prepend r = 0 with the even-extension value (fit a + b r^2)."""
    r1, r2 = nodes[0], nodes[1]
    u0 = (values[0] * r2**2 - values[1] * r1**2) / (r2**2 - r1**2)
    return np.concatenate(([0.0], nodes)), np.concatenate(([u0], values))


def transform_to_unweighted(u: grids.GridField) -> grids.GridField:
    """Push a radial profile through T: returns v with v(T(r)) = u(r).

    The image lives on a fresh radial grid over [0, T(R)]; resampling uses
    monotone cubic interpolation, which preserves positivity.
    """
    if u.grid.kind != "radial":
        raise GridMismatchError("transform_to_unweighted requires a radial profile")
    s_radius = radial_map_T(u.grid.domain_radius)
    image_grid = grids.build_grid("radial", s_radius, u.grid.resolution)
    from scipy.interpolate import PchipInterpolator
    r_nodes, u_vals = _augment_origin(u.grid.nodes, u.values)
    with np.errstate(over="ignore", invalid="ignore"):   # flat segments
        interp = PchipInterpolator(r_nodes, u_vals, extrapolate=False)
        r_back = radial_map_T_inverse(image_grid.nodes)
        v = interp(np.clip(r_back, 0.0, u.grid.domain_radius))
    return grids.GridField(image_grid, np.nan_to_num(v))


def transform_from_unweighted(v: grids.GridField, target_grid: grids.Grid) -> grids.GridField:
    """Inverse resampling: u(r) = v(T(r)) on the given radial grid."""
    if v.grid.kind != "radial" or target_grid.kind != "radial":
        raise GridMismatchError("transform_from_unweighted requires radial grids")
    from scipy.interpolate import PchipInterpolator
    s_nodes, v_vals = _augment_origin(v.grid.nodes, v.values)
    with np.errstate(over="ignore", invalid="ignore"):
        interp = PchipInterpolator(s_nodes, v_vals, extrapolate=False)
        s = radial_map_T(target_grid.nodes)
        u = interp(np.clip(s, 0.0, v.grid.domain_radius))
    return grids.GridField(target_grid, np.nan_to_num(u))


def sandwich_ratio(u: grids.GridField):
    """(||transformed u||_{H^1}^2, ||u||_{w0}^2, ratio); Eq-level check helper."""
    v = transform_to_unweighted(u)
    h1 = norm_ruf_sq(v)
    w0 = norm_w0_sq(u)
    return h1, w0, h1 / w0


# ---------------------------------------------------------------------------
# Trudinger-Moser functionals
# ---------------------------------------------------------------------------

class TMValue(NamedTuple):
    value: float
    saturated: bool


def tm_functional(u: grids.GridField, alpha: float, weighted: bool = True,
                  q_cap: Optional[float] = None) -> TMValue:
    """int (e^{alpha u^2} - 1) w dx with w = log(e+|x|) (weighted) or 1.

    With ``q_cap`` = q >= 2 the integrand becomes the q-growth Orlicz
    function (alpha |u|)^q e^{4 pi alpha^2 u^2}, the one controlled for
    alpha <= 1/sqrt(q).  Exponents above 700 are clamped and flagged.
    """
    if alpha <= 0:
        raise InvalidParameterError("alpha must be positive")
    if q_cap is None:
        expo = alpha * u.values**2
        saturated = bool(np.any(expo > EXP_GUARD))
        integrand = np.expm1(np.minimum(expo, EXP_GUARD))
    else:
        if q_cap < 2:
            raise InvalidParameterError("q_cap must be >= 2")
        t = alpha * np.abs(u.values)
        expo = 4.0 * np.pi * t**2
        saturated = bool(np.any(expo > EXP_GUARD))
        integrand = t**q_cap * np.exp(np.minimum(expo, EXP_GUARD))
    if weighted:
        integrand = integrand * np.log(np.e + u.grid.radii())
    value = float(np.sum(u.grid.weights * integrand))
    return TMValue(value, saturated)


def tm_sup_search(family: Sequence, alpha: float,
                  q_cap: Optional[float] = None):
    """The TM functional (q-growth with ``q_cap``) over a parametric family,
    each member scaled to the unit sphere of ||.||_{w0} with exponent
    ``q_cap`` or 2.

    Returns (the first largest value, its parameters, [(params, value)]
    for every member in order).
    """
    family = list(family)
    if not family:
        raise EmptyFamilyError("tm_sup_search needs a nonempty family")
    rows = []
    for params, field in family:
        norm_sq = norm_w0_sq(field, q_cap or 2.0)
        if norm_sq > 0:
            field = field.with_values(field.values / math.sqrt(norm_sq))
        rows.append((params, tm_functional(field, alpha, q_cap=q_cap).value))
    best_params, best = max(rows, key=lambda row: row[1])
    return best, best_params, rows
