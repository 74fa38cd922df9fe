"""Numerical mountain-pass solver and Palais-Smale-style diagnostics.

The ray t -> t u from 0 through a negative-energy point is a mountain-pass
path, so the solver keeps a single state u that maximizes I_V along its own
ray and descends that maximum: the local minimax method of Li & Zhou
(2001) with support {0}.  The descent direction solves K d = I_V'(u) where
K is the (positive) quadratic-part Hessian, so the linear physics is
handled exactly.  Each trial u - eta d, projected onto u >= 0, is replaced
by the maximum along its own ray, which is what keeps the state on the
mountain ridge instead of sliding to 0.  Accepted ray scales move slowly,
so each ray search starts from the last one: a walk brackets the maximum
around it and safeguarded parabolic steps refine it (``energy.ray_max``).

Once the residual at the ray maximum falls below NEWTON_SWITCH, inexact
Newton on I_V'(u) = 0 takes over from there: each step solves the second
variation system by preconditioned MINRES with the same K.  The switch
sits just above the band in which the descent starts to zigzag (residual
about 1.6e-2 to 2.4e-2 on the default problem), so Newton takes over where
the descent stops gaining.  A run that does not reach the tolerance is
discarded and the descent goes on; it is tried again when the descent
residual has halved.  K is symmetric positive definite.  On radial grids
it is assembled from the 3-point derivative's stencil and factored once
per grid by an LU with a symmetric minimum-degree ordering and diagonal
pivots, and each solve takes one refinement step against K applied
matrix-free; on cartesian grids, which cover the square with equal
weights, a 2-D cosine transform diagonalizes it for constant V and
preconditions the same MINRES for a periodic one.

Stopping uses a dual-norm estimate of I_V': sqrt(r^T K^{-1} r) with r the
residual covector, which upper-bounds the pairing against every test
direction of weighted norm one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import energy, families, grids
from . import nonlinearity as nl
from .errors import (GeometryFailureError, InvalidParameterError,
                     NonConvergenceError, ResolutionFailureError)
from .spaces import PeriodicCoefficient, norm_1qw_sq, norm_V_sq

TRACE_FIELDS = 32           # field-trace size kept for the PS diagnostics
NEWTON_SWITCH = 2e-2        # descent residual below which Newton is tried
NEWTON_MAX_STEPS = 8        # Newton steps allowed to reach the tolerance
WITNESS_DOUBLINGS = 60      # doublings of the witness bump's amplitude
NEWTON_FORCING = 1e-3       # relative MINRES residual of each Newton step
MINRES_MAX_ITERATIONS = 100
RAY_BRACKET = (0.5, 1.5)    # ray scales searched for a trial's maximum
K_SOLVE_TOLERANCE = 1e-14   # relative residual of a periodic-V K-solve
K_SOLVE_MAX_ITERATIONS = 500
RHO_SPHERE = 1e-2           # norm of the sphere the geometry probes lie on
WITNESS_RADIUS = 0.25       # support radius of the negative-energy witness


@dataclass(frozen=True)
class SolverConfig:
    spec: nl.NonlinearitySpec
    potential: PeriodicCoefficient
    grid_kind: str = "cartesian"
    domain_radius: float = 16.0
    resolution: int = 128
    max_iterations: int = 20000
    residual_tolerance: float = 1e-4

    def __post_init__(self):
        if self.grid_kind not in ("cartesian", "radial"):
            raise InvalidParameterError("grid_kind must be cartesian or radial")
        for name, least in (("resolution", grids.MIN_RESOLUTION),
                            ("max_iterations", 1)):
            if getattr(self, name) < least:
                raise InvalidParameterError(f"{name} must be >= {least}")
        for name in ("domain_radius", "residual_tolerance"):
            if not getattr(self, name) > 0:      # rejects nan as well
                raise InvalidParameterError(f"{name} must be positive")


@dataclass
class SolverResult:
    field: grids.GridField
    level: float                        # I_V at the accepted state
    path_level: float                   # the ray maximum the descent ended on
    residual: float
    iterations: int                     # descent iterations
    newton_steps: int                   # over every Newton run, kept or not
    hessian_products: int
    vanishing_indicator: float
    recentering_shift: tuple
    ps_trace: list                      # (level, residual) per descent iteration
    converged: bool
    status: str                         # "converged" | "budget-exhausted"
    delta0: float
    recentering_energy_delta: float
    field_trace: list = dc_field(default_factory=list)   # a PS sequence


@dataclass(frozen=True)
class TraceState:
    field: grids.GridField   # a state of the PS sequence u
    frak: float              # B0(c F(u), c F(u)) from its own gradient
    pairing: float           # B0(c F(u), c f(u) u) from its own gradient


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _geometry_probes(grid):
    probes = [families.gaussian(grid, s) for s in (0.5, 1.0, 2.0)]
    probes += [families.bump(grid, radius) for radius in (0.5, 1.0)]
    return probes


def check_mp_geometry(spec: nl.NonlinearitySpec, potential: PeriodicCoefficient,
                      grid: grids.Grid):
    """Certify the two mountain-pass conditions on the grid.

    Returns (delta0, e_witness): delta0 > 0 is the minimum of I_V over a
    probe set scaled onto the sphere ||u||_{1,q(w)} = RHO_SPHERE, and
    e_witness is t * bump (support in the witness ball) with I_V < 0,
    found by doubling t.  Raises GeometryFailureError when either part
    cannot be certified (e.g. for an inert nonlinearity).
    """
    # first: on a grid too coarse for the witness disc the probes may vanish
    # at every node
    grids.require_plateau_resolution(grid, WITNESS_RADIUS)
    delta0 = math.inf
    for probe in _geometry_probes(grid):
        nrm_sq = norm_1qw_sq(probe, spec.q, potential)
        if not nrm_sq > 0:
            # the probe is scaled by 1 / sqrt(nrm_sq) onto the sphere
            raise ResolutionFailureError(
                f"a geometry probe has squared norm {nrm_sq:.3g} <= 0 on a "
                f"grid of radius {grid.domain_radius:g}")
        scaled = probe.with_values(probe.values * (RHO_SPHERE / math.sqrt(nrm_sq)))
        delta0 = min(delta0, energy.total_energy(scaled, spec, potential))
    if not delta0 > 0:
        raise GeometryFailureError(
            f"no positive energy floor on the rho = {RHO_SPHERE} sphere")
    seed_bump = families.bump(grid, WITNESS_RADIUS)
    for k in range(WITNESS_DOUBLINGS):
        candidate = seed_bump.with_values(2.0**k * seed_bump.values)
        if energy.total_energy(candidate, spec, potential) < 0:
            return float(delta0), candidate
    raise GeometryFailureError(
        "no negative-energy point found within the doubling budget "
        "(nonlinearity appears inert)")


# ---------------------------------------------------------------------------
# preconditioner and dual estimate
# ---------------------------------------------------------------------------

def _dct(x):
    """The DCT-II along the last axis, y_k = sum_j x_j cos(pi k (2j + 1) / 2n)
    (scipy's ``dct(x, type=2)`` halved), by one real FFT V of x's even
    entries followed by its odd ones reversed (Makhoul 1980): with
    z_k = exp(-i pi k / 2n) V_k, y_k = Re z_k and y_{n-k} = -Im z_k."""
    n = x.shape[-1]
    v = np.concatenate((x[..., ::2], x[..., 1::2][..., ::-1]), axis=-1)
    z = np.exp(-0.5j * np.pi * np.arange(n // 2 + 1) / n) * np.fft.rfft(v)
    return np.concatenate((z.real, -z.imag[..., (n + 1) // 2 - 1:0:-1]), axis=-1)


def _idct(y):
    """The inverse of ``_dct`` along the last axis, by the same steps
    backwards: V_k = exp(i pi k / 2n) (y_k - i y_{n-k}) with y_n = 0."""
    n = y.shape[-1]
    z = y[..., :n // 2 + 1].astype(complex)
    z.imag[..., 1:] = -y[..., :(n - 1) // 2:-1]
    v = np.fft.irfft(np.exp(0.5j * np.pi * np.arange(n // 2 + 1) / n) * z, n)
    x = np.empty_like(v)
    x[..., ::2] = v[..., :(n + 1) // 2]
    x[..., 1::2] = v[..., :(n - 1) // 2:-1]
    return x


def _quadratic_preconditioner(grid, potential):
    """b -> K^{-1} b for K = A + w V (stiffness plus V-mass), b in grid shape.

    Radial: an LU of K = D^T W D + diag(w V), assembled by scipy from the
    3-point derivative D, and one refinement step x + LU^{-1}(b - K x) with
    K x matrix-free, which takes the LU's rounding out of the dual estimate's
    identity.  Cartesian: A is the cell-centred Neumann Laplacian
    and w = h^2, so A + s I is diagonal in the 2-D DCT-II, with eigenvalues
    l_i + l_j + s, l_k = 2 - 2 cos(pi k / n) = 4 sin^2(pi k / 2n) (the form
    exact for small k).  s = w V solves a constant V exactly; a periodic V
    runs MINRES with s = w times V's mean as the preconditioner, spectrally
    equivalent to K with condition <= max V / min V (Concus & Golub 1973),
    and raises NonConvergenceError rather than return a loose solve."""
    key = ("precond", potential.floor, potential.amplitude)

    def build():
        mass = grid.weights * potential.on_grid(grid)

        def apply(x):
            return grids.stiffness_product(grid, x) + mass * x
        if grid.kind == "radial":
            import scipy.sparse as sp
            import scipy.sparse.linalg as spla
            coeffs, columns = grids.derivative_stencil(grid)
            d = sp.csr_matrix((coeffs.ravel(), columns.ravel(),
                               np.arange(0, coeffs.size + 1, 3)))
            k = (d.T @ sp.diags(grid.weights) @ d + sp.diags(mass)).tocsc()
            # K is symmetric positive definite: a symmetric fill-reducing
            # ordering with diagonal pivots needs no pivoting for stability
            lu = spla.splu(k, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True}).solve

            def refined_solve(b):
                x = lu(b)
                return x + lu(b - apply(x))
            return refined_solve
        n = grid.resolution
        eig = 4.0 * np.sin(0.5 * np.pi * np.arange(n) / n) ** 2
        shift = grid.weights[0, 0] * (potential.floor + 0.5 * potential.amplitude)
        divisor = eig[:, None] + eig[None, :] + shift

        def shifted_solve(b):
            # the divisor is symmetric, so the transposes cancel
            return _idct(_idct(_dct(_dct(b).T) / divisor).T)
        if potential.is_constant:
            return shifted_solve

        def solve(b):
            x, _, residual = _minres(apply, shifted_solve, b, K_SOLVE_TOLERANCE,
                                     K_SOLVE_MAX_ITERATIONS)
            if residual > K_SOLVE_TOLERANCE:
                raise NonConvergenceError(
                    f"the quadratic-part solve did not reach {K_SOLVE_TOLERANCE} "
                    f"in {K_SOLVE_MAX_ITERATIONS} MINRES steps")
            return x
        return solve
    return grid._cached(key, build)


def _dual_estimate(grid, potential, gradient_values):
    """sqrt(r^T K^{-1} r) with r the residual covector and K the quadratic
    Hessian: bounds |<I_V'(u), phi>| for every phi with ||phi||_{1,q(w)} <= 1
    by Cauchy-Schwarz in the K inner product (the 1,q(w) norm dominates the
    K norm).  Returns (estimate, descent direction, slope)."""
    direction = _quadratic_preconditioner(grid, potential)(
        grid.weights * gradient_values)
    slope = float(np.sum(grid.weights * gradient_values * direction))
    return math.sqrt(max(slope, 0.0)), direction, slope


# ---------------------------------------------------------------------------
# Newton-MINRES terminal phase
# ---------------------------------------------------------------------------

def _minres(apply, precondition, rhs, rtol, maxiter):
    """Preconditioned MINRES (Paige & Saunders 1975) for the symmetric,
    possibly indefinite system apply(x) = rhs, with a symmetric positive
    definite ``precondition`` (the inverse of M).  Stops once the residual
    in the M^{-1} norm has fallen to ``rtol`` times its start.  Inner
    products are ``np.sum`` so that no BLAS call rounds them.  Returns
    (x, products, relative residual)."""
    def dot(a, b):
        return float(np.sum(a * b))
    x = np.zeros_like(rhs)
    y = precondition(rhs)
    beta1 = math.sqrt(max(dot(rhs, y), 0.0))
    if beta1 == 0.0:
        return x, 0, 0.0
    r1 = r2 = rhs
    beta, old_beta = beta1, 0.0
    dbar = epsilon = 0.0
    phibar = beta1
    cs, sn = -1.0, 0.0
    w = w2 = np.zeros_like(rhs)
    products = 0
    while products < maxiter and phibar > rtol * beta1:
        v = y / beta
        y = apply(v)
        products += 1
        if products > 1:
            y = y - (beta / old_beta) * r1
        alpha = dot(v, y)
        y = y - (alpha / beta) * r2
        r1, r2 = r2, y
        y = precondition(r2)
        old_beta, beta = beta, math.sqrt(max(dot(r2, y), 0.0))
        # the previous rotation, then the one that annihilates beta
        old_epsilon = epsilon
        delta = cs * dbar + sn * alpha
        gbar = sn * dbar - cs * alpha
        epsilon, dbar = sn * beta, -cs * beta
        gamma = max(math.hypot(gbar, beta), np.finfo(float).eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - old_epsilon * w1 - delta * w2) / gamma
        x = x + phi * w
    return x, products, phibar / beta1


@dataclass(frozen=True)
class NewtonRun:
    iterates: tuple     # the TraceState after each step
    level: float        # I_V at the last state, once the tolerance is met
    residual: float
    products: int       # Hessian products of all the MINRES solves
    accepted: bool


def _newton(g, residual, spec, potential, tolerance):
    """Inexact Newton on I_V'(u) = 0 from the gradient g at u and its dual
    residual.  Each step solves the second variation system
    I_V''(u) d = -I_V'(u) by MINRES, preconditioned by the quadratic-part
    solve, to the relative residual NEWTON_FORCING (Dembo, Eisenstat &
    Steihaug 1982), then projects u + d onto u >= 0, as the descent does.

    The run is accepted when it meets the tolerance within NEWTON_MAX_STEPS
    steps, at a state where no node saturates and whose level lies in the
    compactness window (0, 1/2); a non-finite step ends it unaccepted."""
    u = g.u
    grid = u.grid
    precondition = _quadratic_preconditioner(grid, potential)
    iterates = []
    products = 0
    while residual > tolerance and len(iterates) < NEWTON_MAX_STEPS:
        lin = energy.linearize(g, spec, potential)
        rhs = -(grid.weights * g.field.values)
        step, used, _ = _minres(functools.partial(energy.hessian_product, lin),
                                precondition, rhs, NEWTON_FORCING,
                                MINRES_MAX_ITERATIONS)
        products += used
        if not np.all(np.isfinite(step)):
            residual = math.inf
            break
        u = grids.GridField(grid, np.maximum(u.values + step, 0.0))
        if np.any(nl.saturation_mask(spec, u.values)):
            iterates.append(TraceState(u, math.nan, math.nan))
            residual = math.inf
            break
        g = energy.energy_gradient(u, spec, potential)
        iterates.append(TraceState(u, g.frak, g.pairing))
        residual, _, _ = _dual_estimate(grid, potential, g.field.values)
    level = (energy.total_energy(u, spec, potential)
             if residual <= tolerance else math.nan)
    return NewtonRun(tuple(iterates), level, residual, products,
                     accepted=residual <= tolerance and 0.0 < level < 0.5)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def solve_mountain_pass(config: SolverConfig) -> SolverResult:
    """Descent of the ray maximum, finished by the Newton phase.

    Returns the best available state with status "budget-exhausted" when
    the iteration budget runs out before the residual tolerance is met.
    """
    grid = grids.build_grid(config.grid_kind, config.domain_radius,
                            config.resolution)
    spec, potential = config.spec, config.potential
    delta0, witness = check_mp_geometry(spec, potential, grid)
    t, level = energy.ray_max(energy.ray_energy(witness, spec, potential),
                              0.5, 0.0, 1.0, 1e-3)
    u = witness.with_values(t * witness.values)

    ps_trace = []
    field_trace = []
    converged = False
    iterations = 0
    residual = math.inf
    w_flat = grid.weights
    newton = None               # the accepted Newton run
    newton_below = NEWTON_SWITCH
    newton_steps = hessian_products = 0
    trace_residual = math.inf
    lo, hi = RAY_BRACKET
    scale = 1.0                 # the last accepted ray scale predicts the next

    def state_norm(values):
        return math.sqrt(float(np.sum(w_flat * values**2)))

    for iterations in range(1, config.max_iterations + 1):
        g = energy.energy_gradient(u, spec, potential)
        residual, direction, slope = _dual_estimate(grid, potential, g.field.values)
        ps_trace.append((float(level), float(residual)))
        # the field trace is a Palais-Smale sequence: a descent state joins
        # it only when its residual is a new low.  Decimation keeps
        # ~TRACE_FIELDS of them, always retaining the most recent one.
        if residual < trace_residual:
            trace_residual = residual
            field_trace.append(TraceState(u, g.frak, g.pairing))
            if len(field_trace) > 2 * TRACE_FIELDS:
                del field_trace[-2::-2]
        if residual <= config.residual_tolerance:
            converged = True
            break
        if residual < newton_below:
            run = _newton(g, residual, spec, potential,
                          config.residual_tolerance)
            newton_steps += len(run.iterates)
            hessian_products += run.products
            if run.accepted:
                newton, converged = run, True
                break
            # discarded: the descent goes on, and Newton is tried again
            # once the descent residual has halved
            newton_below = residual / 2
        del g       # its B0 potential is not held through the line search
        # trust region: a state may not teleport across the ridge zone
        cap = max(0.2 * state_norm(u.values), 1e-3)
        step_norm = state_norm(direction)
        eta = min(1.0, cap / max(step_norm, 1e-300))
        # the ray maximum is located to a scale error whose slope error is
        # small against the residual
        xatol = min(1e-3, 1e-2 * residual)
        for _ in range(40):
            trial_vals = np.maximum(u.values - eta * direction, 0.0)
            trial = grids.GridField(grid, trial_vals)
            t, trial_level = energy.ray_max(
                energy.ray_energy(trial, spec, potential), scale, lo, hi, xatol)
            scaled = t * trial_vals
            # a maximum on the bracket edge is not a ray maximum, and one
            # that saturates a node is decided by the clamp: Newton rejects
            # such states too
            if (math.isfinite(trial_level) and lo + xatol < t < hi - xatol
                    and trial_level < level - 1e-4 * eta * max(slope, 0.0)
                    and not np.any(nl.saturation_mask(spec, scaled))):
                u = trial.with_values(scaled)
                level, scale = trial_level, t
                break
            eta *= 0.5

    final = u
    level = path_level = float(level)
    if newton is not None:
        final, level, residual = (newton.iterates[-1].field, newton.level,
                                  newton.residual)
        field_trace.extend(newton.iterates)
    if not converged:
        # the last step moved u after its residual was computed
        g = energy.energy_gradient(final, spec, potential)
        residual, _, _ = _dual_estimate(grid, potential, g.field.values)
        if not field_trace or field_trace[-1].field is not final:
            field_trace.append(TraceState(final, g.frak, g.pairing))

    if converged and not (0.0 < level < 0.5):
        raise GeometryFailureError(
            f"accepted level {level} outside the compactness window (0, 1/2)")

    try:
        rec = recenter(final, potential, spec)
    except InvalidParameterError:
        # incommensurate lattice: exact integer shifts are unavailable,
        # leave the field in place
        rec = RecenterResult(final, (0, 0), 0.0, vanishing_check(final, 1.0))
    return SolverResult(
        field=rec.field, level=level, path_level=path_level,
        residual=float(residual), iterations=iterations,
        newton_steps=newton_steps, hessian_products=hessian_products,
        vanishing_indicator=rec.peak_mass,
        recentering_shift=rec.shift, ps_trace=ps_trace,
        converged=converged,
        status="converged" if converged else "budget-exhausted",
        delta0=float(delta0),
        recentering_energy_delta=float(rec.energy_delta),
        field_trace=field_trace,
    )


# ---------------------------------------------------------------------------
# PS diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PSDiagnostics:
    sup_norm_V_sq: float
    sup_abs_frak: float
    sup_abs_pairing: float
    alpha: float
    integrability: np.ndarray    # int [c F(|u_k|)]^alpha along the trace


def ps_diagnostics(trace, spec: nl.NonlinearitySpec,
                   potential: PeriodicCoefficient, level: float) -> PSDiagnostics:
    """Boundedness and improved-integrability probes along a trace of
    ``TraceState``s, whose B0 pairings are read, not recomputed.

    The integrability exponent is alpha = min(1.2, 0.9 / (2 c)) with c the
    level, inside the admissible window [1, 1/(2c))."""
    if not trace:
        raise InvalidParameterError("ps_diagnostics needs a nonempty trace")
    alpha = min(1.2, 0.9 / (2.0 * level)) if level > 0 else 1.2
    sup_v = sup_frak = sup_pair = 0.0
    integ = []
    for state in trace:
        u = state.field
        sup_v = max(sup_v, norm_V_sq(u, potential))
        sup_frak = max(sup_frak, abs(state.frak))
        sup_pair = max(sup_pair, abs(state.pairing))
        dens = energy.compose_density(u.with_values(np.abs(u.values)), spec)
        integ.append(float(np.sum(u.grid.weights * dens**alpha)))
    return PSDiagnostics(
        sup_norm_V_sq=float(sup_v), sup_abs_frak=float(sup_frak),
        sup_abs_pairing=float(sup_pair), alpha=float(alpha),
        integrability=np.array(integ))


# ---------------------------------------------------------------------------
# vanishing and recentering
# ---------------------------------------------------------------------------

def _lattice_centers(radius: float):
    """The integer points of the square [-R, R]^2, in lattice order."""
    k = int(math.floor(radius))
    axis = np.arange(-k, k + 1)
    cx, cy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([cx.ravel(), cy.ravel()])


def _lattice_masses(u: grids.GridField, r: float):
    """(centers, masses): int_{B_r(center)} u^2 dx for every integer-lattice
    center in the square of a cartesian field.  Each center tests only
    the square window of nodes that holds its ball, with a node to spare on
    every side."""
    grid = u.grid
    mass = grid.weights * u.values**2
    axis, h, n = grid.nodes, grid.spacing, grid.resolution
    centers = _lattice_centers(grid.domain_radius)
    width = min(n, math.ceil(2 * r / h) + 4)
    start = np.clip(np.floor((centers - r - axis[0]) / h).astype(int) - 1,
                    0, n - width)
    index = start[:, :, None] + np.arange(width)        # (center, axis, node)
    offset_sq = (axis[index] - centers[:, :, None]) ** 2
    inside = offset_sq[:, 0, :, None] + offset_sq[:, 1, None, :] <= r**2
    window = mass[index[:, 0, :, None], index[:, 1, None, :]]
    return centers, np.sum(np.where(inside, window, 0.0), axis=(1, 2))


def vanishing_check(u: grids.GridField, r: float) -> float:
    """sup over integer-lattice centers y of int_{B_r(y)} u^2 dx; small
    values indicate a vanishing profile."""
    if r <= 0:
        raise InvalidParameterError("r must be positive")
    grid = u.grid
    if grid.kind == "radial":
        mass = grid.weights * u.values**2
        centers = _lattice_centers(grid.domain_radius)
        centers = centers[np.sum(centers**2, axis=1) <= grid.domain_radius**2]
        dists = np.unique(np.hypot(centers[:, 0], centers[:, 1]))
        s = grid.nodes
        best = 0.0
        for d in dists:
            if d == 0.0:
                frac = (s <= r).astype(float)
            else:
                # the ring's share of the ball: arccos(-+1) / pi is 1 and 0
                cosang = (s**2 + d**2 - r**2) / (2 * s * d)
                frac = np.arccos(np.clip(cosang, -1, 1)) / np.pi
            best = max(best, float(np.sum(mass * frac)))
        return best
    return float(np.max(_lattice_masses(u, r)[1]))


@dataclass(frozen=True)
class RecenterResult:
    field: grids.GridField
    shift: tuple
    energy_delta: float
    peak_mass: float        # vanishing_check(u, r): the largest local mass


def recenter(u: grids.GridField, potential: PeriodicCoefficient,
             spec: nl.NonlinearitySpec, r: float = 1.0) -> RecenterResult:
    """Shift by the integer vector that moves the largest local mass (one
    pass of lattice masses gives it and ``peak_mass``) to the origin; a
    zero shift leaves u in place.  On cartesian grids the unit cell must
    divide 1 so that integer shifts are whole-cell rolls (then the shift is
    exactly energy preserving for 1-periodic coefficients and
    interior-supported fields)."""
    grid = u.grid
    if grid.kind == "radial":
        return RecenterResult(u, (0, 0), 0.0, vanishing_check(u, r))
    cells_per_unit = 1.0 / grid.spacing
    if abs(cells_per_unit - round(cells_per_unit)) > 1e-9:
        raise InvalidParameterError(
            "recentering needs a grid whose cell size divides 1 "
            f"(got spacing {grid.spacing})")
    cells_per_unit = int(round(cells_per_unit))
    centers, masses = _lattice_masses(u, r)
    peak = float(np.max(masses))
    best, best_center = -1.0, (0, 0)
    for center, local in zip(centers, masses):
        if local > best + 1e-15:
            best, best_center = local, center
    shift = (-int(best_center[0]), -int(best_center[1]))
    if shift == (0, 0):
        return RecenterResult(u, shift, 0.0, peak)
    rolled = np.roll(u.values, (shift[0] * cells_per_unit,
                                shift[1] * cells_per_unit), axis=(0, 1))
    shifted = grids.GridField(grid, rolled)
    before = energy.total_energy(u, spec, potential)
    after = energy.total_energy(shifted, spec, potential)
    return RecenterResult(field=shifted, shift=shift,
                          energy_delta=float(after - before), peak_mass=peak)
