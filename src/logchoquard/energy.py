"""The nonlocal energy, its first variation, Moser sequences and ray
analyses for the mountain-pass level estimates.

The energy of a field u is

    I_V(u) = (1/2) ||u||_V^2 - (1/(4 pi)) B0(c F(u), c F(u)),

where B0 is the full log-kernel bilinear form; its first variation pairs
test fields against

    -Delta u + V u - (1/(2 pi)) [log(1/|x|) * c F(u)] c f(u),

with the convolution prefactor twice the one of the energy (the form is
evaluated twice on the varied slot).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import grids, kernel
from . import nonlinearity as nl
from .brent import minimize_bounded
from .errors import (EmptyFamilyError, InvalidParameterError,
                     NoInteriorMaxError)
from .families import moser_profile
from .spaces import PeriodicCoefficient, norm_1qw_sq, norm_V_sq

FOUR_PI = 4.0 * np.pi
TWO_PI = 2.0 * np.pi
MIN_RAY_SAMPLES = 64


@dataclass(frozen=True)
class EnergyBreakdown:
    """I_V split into its pieces: total = quadratic - frakF / (4 pi)."""

    quadratic: float     # (1/2) ||u||_V^2
    frakF: float         # B0(c F(u), c F(u)) = frakF2 - frakF1
    frakF1: float
    frakF2: float
    total: float


def compose_density(u: grids.GridField, spec: nl.NonlinearitySpec) -> np.ndarray:
    """c(x) F(u(x)) sampled on the grid."""
    return spec.c_profile.on_grid(u.grid) * nl.eval_F(spec, u.values)


def compose_f(u: grids.GridField, spec: nl.NonlinearitySpec) -> np.ndarray:
    return spec.c_profile.on_grid(u.grid) * nl.eval_f(spec, u.values)


def energy_IV(u: grids.GridField, spec: nl.NonlinearitySpec,
              potential: PeriodicCoefficient) -> EnergyBreakdown:
    """Full energy breakdown at u, with the near and far forms of c F(u)."""
    density = grids.GridField(u.grid, compose_density(u, spec))
    form = kernel.bilinear_fast(density, density)
    quadratic = 0.5 * norm_V_sq(u, potential)
    return EnergyBreakdown(quadratic=quadratic, frakF=form.b0,
                           frakF1=form.b1, frakF2=form.b2,
                           total=quadratic - form.b0 / FOUR_PI)


def total_energy(u: grids.GridField, spec: nl.NonlinearitySpec,
                 potential: PeriodicCoefficient) -> float:
    """I_V(u) through the cheapest B0 route (no near/far split); agrees
    with energy_IV(...).total to rounding."""
    density = grids.GridField(u.grid, compose_density(u, spec))
    frak = kernel.b0_form(density, density)
    quadratic = 0.5 * norm_V_sq(u, potential)
    return quadratic - frak / FOUR_PI


def _gradient(u: grids.GridField, spec: nl.NonlinearitySpec,
              potential: PeriodicCoefficient):
    """(I_V'(u), B0 * c F(u), c f(u)): the gradient with the two pieces of
    it that the second variation reuses."""
    grid = u.grid
    a = grids.stiffness_matrix(grid)
    flat = u.values.ravel()
    stiff_term = (a @ flat).reshape(grid.shape)
    w = grid.weights
    grad = np.zeros(grid.shape)
    positive = w > 0
    grad[positive] = stiff_term[positive] / w[positive]
    grad += potential.on_grid(grid) * u.values
    conv = kernel.b0_potential(grid, compose_density(u, spec))
    cf = compose_f(u, spec)
    grad -= conv * cf / TWO_PI
    grad[~positive] = 0.0
    return grids.GridField(grid, grad), conv, cf


def energy_gradient(u: grids.GridField, spec: nl.NonlinearitySpec,
                    potential: PeriodicCoefficient) -> grids.GridField:
    """Grid representation of the first variation of I_V.

    Pairing the result with any test field phi through the quadrature
    weights reproduces the directional derivative of energy_IV; nodes with
    zero quadrature weight (outside the truncation disc) carry zero.
    """
    return _gradient(u, spec, potential)[0]


@dataclass(frozen=True)
class Linearization:
    """I_V'(u) and the pieces of I_V''(u) that do not depend on the
    direction, so that each ``hessian_product`` costs one B0 convolution."""

    gradient: grids.GridField
    mass: np.ndarray            # w V: the potential's mass diagonal
    cf: np.ndarray              # c f(u)
    cf_prime_conv: np.ndarray   # (B0 * c F(u)) c f'(u)


def linearize(u: grids.GridField, spec: nl.NonlinearitySpec,
              potential: PeriodicCoefficient) -> Linearization:
    """I_V'(u) (one B0 convolution, as ``energy_gradient``) together with
    the direction-free parts of the second variation at u."""
    gradient, conv, cf = _gradient(u, spec, potential)
    c = spec.c_profile.on_grid(u.grid)
    return Linearization(
        gradient=gradient, mass=u.grid.weights * potential.on_grid(u.grid),
        cf=cf, cf_prime_conv=conv * c * nl.eval_f_prime(spec, u.values))


def hessian_product(lin: Linearization, v: np.ndarray) -> np.ndarray:
    """The covector of I_V''(u) v, for v on the grid and zero off the disc:

        A v + w V v - (w / 2 pi) [c f(u) (B0 * c f(u) v) + (B0 * c F(u)) c f'(u) v],

    with A the stiffness matrix and w the quadrature weights, so that
    sum(z * hessian_product(lin, v)) is the second variation in the
    directions v and z.  The operator is symmetric in the plain dot
    product.  Nodes with zero weight carry zero."""
    grid = lin.gradient.grid
    w = grid.weights
    out = (grids.stiffness_matrix(grid) @ v.ravel()).reshape(grid.shape)
    conv = kernel.b0_potential(grid, lin.cf * v)
    out += lin.mass * v - w * (lin.cf * conv + lin.cf_prime_conv * v) / TWO_PI
    out[w == 0] = 0.0
    return out


def pair_gradient(gradient: grids.GridField, phi: grids.GridField) -> float:
    """<I_V'(u), phi> through the quadrature weights."""
    grids.require_same_grid(gradient, phi)
    return float(np.sum(gradient.grid.weights * gradient.values * phi.values))


# ---------------------------------------------------------------------------
# Moser sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MoserCap:
    n: int
    rho: float
    normalized: bool
    delta_n: float


def delta_n_closed_form(n: int, rho: float, q: float, V_rho: float) -> float:
    """delta_n = (rho^2 / (4 log n)) * growth_bracket(q, V_rho, rho)."""
    return rho**2 / (4.0 * math.log(n)) * nl.growth_bracket(q, V_rho, rho)


def moser_grid(n: int, rho: float, domain_radius: float = 20.0,
               resolution: int = 2048) -> grids.Grid:
    """Radial grid with nodes anchored at the profile corners rho/n and rho."""
    return grids.build_grid("radial", domain_radius, resolution,
                            anchors=(rho / n, rho))


def moser_cap(n: int, rho: float, grid: grids.Grid, normalized: bool = False,
              q: float = 2.0,
              potential: Optional[PeriodicCoefficient] = None):
    """Sample the Moser cap on the grid.

    Returns (MoserCap, GridField).  The grid must resolve the plateau
    (at least 4 nodes inside |x| <= rho/n).
    """
    if n < 2:
        raise InvalidParameterError("Moser index n must be >= 2")
    if not 0.0 < rho <= 0.5:
        raise InvalidParameterError("rho must lie in (0, 1/2]")
    grids.require_plateau_resolution(grid, rho / n, 4)
    pot = potential if potential is not None else PeriodicCoefficient(1.0)
    delta = delta_n_closed_form(n, rho, q, pot.max_within(rho))
    values = moser_profile(grid.radii(), n, rho)
    if normalized:
        values = values / math.sqrt(1.0 + delta)
    cap = MoserCap(n=n, rho=rho, normalized=normalized, delta_n=delta)
    return cap, grids.GridField(grid, values)


@dataclass(frozen=True)
class MoserDeltaReport:
    delta_n: float
    norm_quadrature_sq: float   # directly quadratured ||w_n||^2_{1,q(w)}


def moser_delta_n(n: int, rho: float, q: float,
                  potential: Optional[PeriodicCoefficient] = None,
                  grid: Optional[grids.Grid] = None) -> MoserDeltaReport:
    """Closed-form delta_n next to the directly quadratured weighted norm."""
    pot = potential if potential is not None else PeriodicCoefficient(1.0)
    if grid is None:
        grid = moser_grid(n, rho)
    cap, field = moser_cap(n, rho, grid, q=q, potential=pot)
    return MoserDeltaReport(delta_n=cap.delta_n,
                            norm_quadrature_sq=norm_1qw_sq(field, q, pot))


# ---------------------------------------------------------------------------
# ray analyses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RayAnalysis:
    direction: grids.GridField
    t_samples: np.ndarray
    energy_samples: np.ndarray
    t_star: float
    max_value: float
    derivative_identities: tuple   # residuals of the two stationarity bounds


def _stationarity_residuals(u: grids.GridField, spec, potential, t_star: float):
    """Residuals of t^2 >= (1/2pi) B0(cF, t u c f) and
    t^2 >= 1 + (1/2pi) B0(cF, cF) at the ray maximum."""
    scaled = u.with_values(t_star * u.values)
    density = grids.GridField(u.grid, compose_density(scaled, spec))
    response = grids.GridField(
        u.grid, compose_f(scaled, spec) * scaled.values)
    res1 = t_star**2 - kernel.b0_form(density, response) / TWO_PI
    res2 = t_star**2 - 1.0 - kernel.b0_form(density, density) / TWO_PI
    return res1, res2


def ray_analysis(u: grids.GridField, spec: nl.NonlinearitySpec,
                 potential: PeriodicCoefficient, t_max: float = 4.0,
                 samples: int = 96) -> RayAnalysis:
    """Sample t -> I_V(t u) on a log-uniform grid, refine the maximum by
    bounded golden-section search and record the stationarity residuals."""
    if samples < MIN_RAY_SAMPLES:
        raise InvalidParameterError(
            f"ray analysis needs at least {MIN_RAY_SAMPLES} samples")
    if t_max <= 0 or not np.any(u.values != 0):
        raise InvalidParameterError("need t_max > 0 and a nonzero direction")
    ts = np.geomspace(1e-3, t_max, samples)
    energies = np.array([
        total_energy(u.with_values(t * u.values), spec, potential)
        for t in ts])
    k = int(np.argmax(energies))
    if k == samples - 1 and energies[-1] > energies[-2]:
        raise NoInteriorMaxError(
            f"I_V(t u) is still increasing at t_max = {t_max}; raise t_max")
    lo = ts[max(k - 1, 0)]
    hi = ts[min(k + 1, samples - 1)]
    t_star, value = minimize_bounded(
        lambda t: -total_energy(u.with_values(t * u.values), spec, potential),
        lo, hi, 1e-10)
    max_val = -value
    if energies[k] > max_val:
        t_star, max_val = float(ts[k]), float(energies[k])
    ts = np.append(ts, t_star)
    energies = np.append(energies, max_val)
    order = np.argsort(ts)
    residuals = _stationarity_residuals(u, spec, potential, t_star)
    return RayAnalysis(direction=u, t_samples=ts[order],
                       energy_samples=energies[order], t_star=t_star,
                       max_value=max_val, derivative_identities=residuals)


def mp_level_upper_bound(spec: nl.NonlinearitySpec,
                         potential: PeriodicCoefficient,
                         directions: Sequence, t_max: float = 4.0,
                         samples: int = 96):
    """min over the family of ray maxima: a certified upper bound for the
    mountain-pass level of the discretized problem.

    ``directions`` is a sequence of (params, GridField).  Returns
    (bound, params of the witness direction).
    """
    directions = list(directions)
    if not directions:
        raise EmptyFamilyError("mp_level_upper_bound needs directions")
    best = None
    witness = None
    for params, field in directions:
        ray = ray_analysis(field, spec, potential, t_max=t_max, samples=samples)
        if best is None or ray.max_value < best:
            best, witness = ray.max_value, params
    return best, witness
