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
from .errors import (EmptyFamilyError, InvalidParameterError,
                     NoInteriorMaxError)
from .families import moser_profile
from .spaces import PeriodicCoefficient, norm_V_sq

FOUR_PI = 4.0 * np.pi
TWO_PI = 2.0 * np.pi
GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
RAY_WALK_STEP = 0.01        # first half-width of a ray search's bracket walk


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
    """Full energy breakdown at u, with the near and far forms of c F(u).
    Cartesian grids only: radial grids have B0 alone (``total_energy``)."""
    density = grids.GridField(u.grid, compose_density(u, spec))
    form = kernel.bilinear_fast(density, density)
    quadratic = 0.5 * norm_V_sq(u, potential)
    return EnergyBreakdown(quadratic=quadratic, frakF=form.b0,
                           frakF1=form.b1, frakF2=form.b2,
                           total=quadratic - form.b0 / FOUR_PI)


def ray_energy(v: grids.GridField, spec: nl.NonlinearitySpec,
               potential: PeriodicCoefficient):
    """t -> I_V(t v) along the ray through v.  The quadratic part is
    t^2 (1/2) ||v||_V^2, computed once per ray, so each level costs one B0
    self-pairing.  Where t v is so large that the pairing overflows (to
    +-inf, or nan where +inf meets -inf), the level is -inf, the rank
    ``ray_max`` gives every non-finite value."""
    quadratic = 0.5 * norm_V_sq(v, potential)

    def level_at(t):
        density = grids.GridField(v.grid, compose_density(
            v.with_values(t * v.values), spec))
        with np.errstate(over="ignore", invalid="ignore"):
            frak = kernel.b0_form(density, density)
        if not math.isfinite(frak):
            return -math.inf
        return t * t * quadratic - frak / FOUR_PI
    return level_at


def total_energy(u: grids.GridField, spec: nl.NonlinearitySpec,
                 potential: PeriodicCoefficient) -> float:
    """I_V(u) through the cheapest B0 route (no near/far split): the level
    at t = 1 of ``ray_energy``, so -inf where the pairing overflows.  It
    agrees with energy_IV(...).total to rounding."""
    return ray_energy(u, spec, potential)(1.0)


@dataclass(frozen=True)
class Gradient:
    """I_V'(u) and what its one B0 convolution gives besides."""
    u: grids.GridField          # the state
    field: grids.GridField      # I_V'(u)
    conv: np.ndarray            # B0 * c F(u): the one convolution
    cf: np.ndarray              # c f(u)
    frak: float                 # B0(c F(u), c F(u)) = sum w conv c F(u)
    pairing: float              # B0(c F(u), c f(u) u) = sum w conv c f(u) u


def energy_gradient(u: grids.GridField, spec: nl.NonlinearitySpec,
                    potential: PeriodicCoefficient) -> Gradient:
    """Grid representation of the first variation of I_V: pairing ``.field``
    with any test field phi through the quadrature weights reproduces the
    directional derivative of energy_IV."""
    grid = u.grid
    density = compose_density(u, spec)
    grad = grids.stiffness_product(grid, u.values) / grid.weights
    grad += potential.on_grid(grid) * u.values
    conv = kernel.b0_potential(grid, density)
    cf = compose_f(u, spec)
    grad -= conv * cf / TWO_PI
    return Gradient(u=u, field=grids.GridField(grid, grad), conv=conv, cf=cf,
                    frak=float(np.sum(grid.weights * conv * density)),
                    pairing=float(np.sum(grid.weights * conv * cf * u.values)))


@dataclass(frozen=True)
class Linearization:
    """I_V'(u) and the pieces of I_V''(u) that do not depend on the
    direction, so that each ``hessian_product`` costs one B0 convolution."""

    gradient: Gradient
    mass: np.ndarray            # w V: the potential's mass diagonal
    cf_prime_conv: np.ndarray   # (B0 * c F(u)) c f'(u)


def linearize(g: Gradient, spec: nl.NonlinearitySpec,
              potential: PeriodicCoefficient) -> Linearization:
    """The gradient g at u (an ``energy_gradient``) together with the
    direction-free parts of the second variation at u; no convolution."""
    grid = g.u.grid
    return Linearization(
        gradient=g, mass=grid.weights * potential.on_grid(grid),
        cf_prime_conv=g.conv * spec.c_profile.on_grid(grid)
        * nl.eval_f_prime(spec, g.u.values))


def hessian_product(lin: Linearization, v: np.ndarray) -> np.ndarray:
    """The covector of I_V''(u) v, for v on the grid:

        A v + w V v - (w / 2 pi) [c f(u) (B0 * c f(u) v) + (B0 * c F(u)) c f'(u) v],

    with A the stiffness matrix and w the quadrature weights, so that
    sum(z * hessian_product(lin, v)) is the second variation in the
    directions v and z.  The operator is symmetric in the plain dot
    product."""
    grid, cf = lin.gradient.field.grid, lin.gradient.cf
    w = grid.weights
    out = grids.stiffness_product(grid, v)
    conv = kernel.b0_potential(grid, cf * v)
    out += lin.mass * v - w * (cf * conv + lin.cf_prime_conv * v) / TWO_PI
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
    delta_n: float


def delta_n_closed_form(n: int, rho: float, q: float, V_rho: float) -> float:
    """delta_n = (rho^2 / (4 log n)) * growth_bracket(q, V_rho, rho)."""
    return rho**2 / (4.0 * math.log(n)) * nl.growth_bracket(q, V_rho, rho)


def moser_grid(n: int, rho: float, domain_radius: float = 20.0,
               resolution: int = 2048) -> grids.Grid:
    """Radial grid with nodes anchored at the profile corners rho/n and rho."""
    return grids.build_grid("radial", domain_radius, resolution,
                            anchors=(rho / n, rho))


def moser_cap(n: int, rho: float, grid: grids.Grid, q: float = 2.0,
              potential: Optional[PeriodicCoefficient] = None):
    """Sample the Moser cap on the grid.

    Returns (MoserCap, GridField).  The grid must resolve the plateau
    (at least 4 nodes inside |x| <= rho/n).
    """
    if n < 2:
        raise InvalidParameterError("Moser index n must be >= 2")
    if not 0.0 < rho <= 0.5:
        raise InvalidParameterError("rho must lie in (0, 1/2]")
    grids.require_plateau_resolution(grid, rho / n)
    pot = potential if potential is not None else PeriodicCoefficient(1.0)
    delta = delta_n_closed_form(n, rho, q, pot.max_within(rho))
    cap = MoserCap(n=n, rho=rho, delta_n=delta)
    return cap, grids.GridField(grid, moser_profile(grid.radii(), n, rho))


# ---------------------------------------------------------------------------
# ray analyses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RayAnalysis:
    """One ray's maximum by ``ray_analysis`` and its stationarity residuals."""

    direction: grids.GridField
    t_star: float
    max_value: float
    derivative_identities: tuple   # residuals of the two stationarity bounds


def ray_max(level_at, t0, lo, hi, xatol):
    """(t*, level) maximizing level_at(t) over t in [lo, hi], searched from
    the predicted scale t0; level is level_at(t*).  It is the package's one
    1D search: on a ray through v, level_at is ``ray_energy(v, spec,
    potential)``, and ``nonlinearity.compute_script_V`` runs it in log rho.

    A walk brackets the maximum: it evaluates t0 - s, t0, t0 + s with
    s = RAY_WALK_STEP and, while an end is higher than the middle, shifts
    the triple that way and doubles s.  When the highest end is lo or hi,
    the gap between it and the middle is halved until a trial beats the
    edge; once the gap is at most xatol the edge is returned, so the caller
    sees an edge maximum.  A non-finite level (I_V overflows where t v
    saturates strongly) ranks below every finite one, and a triple with no
    finite value walks toward lo.  Inside the bracket,
    safeguarded parabolic steps (Brent 1973, ch. 5) refine the best point;
    every trial keeps xatol/2 from the best point and from the ends, and
    the search stops once the bracket is at most 2 xatol wide."""
    def rank(level):
        return level if math.isfinite(level) else -math.inf

    step = min(RAY_WALK_STEP, 0.5 * (hi - lo))
    mid = min(max(t0, lo + step), hi - step)
    ts = [max(mid - step, lo), mid, min(mid + step, hi)]
    levels = [level_at(t) for t in ts]
    while not (rank(levels[1]) > -math.inf
               and rank(levels[1]) >= max(rank(levels[0]), rank(levels[2]))):
        step *= 2.0
        right = rank(levels[2]) > rank(levels[0])
        end = ts[2] if right else ts[0]
        if end in (lo, hi):
            # the highest end is an edge: halve the gap from the middle
            # until a trial beats the edge or the gap is at most xatol
            if abs(end - ts[1]) <= xatol:
                return end, levels[2 if right else 0]
            t = 0.5 * (ts[1] + end)
            ts = [ts[1], t, end] if right else [end, t, ts[1]]
            levels = ([levels[1], level_at(t), levels[2]] if right
                      else [levels[0], level_at(t), levels[1]])
        elif right:
            t = min(ts[2] + step, hi)
            ts, levels = ts[1:] + [t], levels[1:] + [level_at(t)]
        else:
            t = max(ts[0] - step, lo)
            ts, levels = [t] + ts[:2], [level_at(t)] + levels[:2]

    # x is the best point, w the second best and z the third; their ranks
    # are fx, fw and fz
    a, b = ts[0], ts[2]
    x, fx = ts[1], levels[1]
    (fz, z), (fw, w) = sorted([(rank(levels[0]), ts[0]),
                               (rank(levels[2]), ts[2])])
    tol = 0.5 * xatol
    last = before = b - a       # the last step and the one before it
    while b - a > 2.0 * xatol:
        middle = 0.5 * (a + b)
        parabolic = False
        if abs(before) > tol and math.isfinite(fw) and math.isfinite(fz):
            r = (x - w) * (fx - fz)
            q = (x - z) * (fx - fw)
            p = (x - z) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # the vertex lies inside the bracket, and the step is less than
            # half the one before last
            parabolic = (abs(p) < abs(0.5 * q * before)
                         and q * (a - x) < p < q * (b - x))
        if parabolic:
            before, last = last, p / q
            if x + last - a < xatol or b - (x + last) < xatol:
                last = tol if middle >= x else -tol
        else:
            before = (a if x >= middle else b) - x
            last = GOLDEN_MEAN * before
        t = x + math.copysign(max(abs(last), tol), last)
        level = level_at(t)
        if rank(level) >= fx:
            if t >= x:
                a = x
            else:
                b = x
            (fz, z), (fw, w), (fx, x) = (fw, w), (fx, x), (level, t)
        else:
            if t < x:
                a = t
            else:
                b = t
            if rank(level) >= fw or w == x:
                (fz, z), (fw, w) = (fw, w), (rank(level), t)
            elif rank(level) >= fz or z == x or z == w:
                fz, z = rank(level), t
    return x, fx


def ray_analysis(u: grids.GridField, spec: nl.NonlinearitySpec,
                 potential: PeriodicCoefficient,
                 t_max: float = 4.0) -> RayAnalysis:
    """Maximize t -> I_V(t u) (``ray_energy``) over [0, t_max] by one
    ``ray_max`` search from t = 1, the scale of caps normalized onto the
    Moser sphere, to 1e-7 in t; a maximum within 1e-7 of t_max raises
    ``NoInteriorMaxError``.  The search finds the maximum of a ray with one
    interior local maximum, as on caps in |x| <= rho <= 1/2, where the
    kernel -log max(r_i, r_j) is positive and the level rises, then falls.
    On the default Moser rays t* lies within 2.5e-8 of the root of the ray
    slope."""
    if t_max <= 0 or not np.any(u.values != 0):
        raise InvalidParameterError("need t_max > 0 and a nonzero direction")
    t_star, max_val = ray_max(ray_energy(u, spec, potential), 1.0, 0.0,
                              t_max, 1e-7)
    if t_star >= t_max - 1e-7:
        raise NoInteriorMaxError(
            f"I_V(t u) is still increasing at t_max = {t_max}; raise t_max")
    # residuals of t^2 >= (1/2pi) B0(cF, t u cf) and t^2 >= 1 + (1/2pi)
    # B0(cF, cF) at the maximum
    scaled = u.with_values(t_star * u.values)
    density = grids.GridField(u.grid, compose_density(scaled, spec))
    response = grids.GridField(u.grid, compose_f(scaled, spec) * scaled.values)
    residuals = (t_star**2 - kernel.b0_form(density, response) / TWO_PI,
                 t_star**2 - 1.0 - kernel.b0_form(density, density) / TWO_PI)
    return RayAnalysis(direction=u, t_star=t_star, max_value=max_val,
                       derivative_identities=residuals)


def mp_level_upper_bound(spec: nl.NonlinearitySpec,
                         potential: PeriodicCoefficient,
                         directions: Sequence, t_max: float = 4.0):
    """min over the family of ray maxima: an upper bound for the discrete
    mountain-pass level, certified when each ray has one interior maximum.

    ``directions`` is a sequence of (params, GridField).  Returns
    (bound, params of the first witness direction, the RayAnalysis of every
    direction in input order).
    """
    directions = list(directions)
    if not directions:
        raise EmptyFamilyError("mp_level_upper_bound needs directions")
    rays = [ray_analysis(field, spec, potential, t_max=t_max)
            for _, field in directions]
    k = min(range(len(rays)), key=lambda i: rays[i].max_value)
    return rays[k].max_value, directions[k][0], rays
