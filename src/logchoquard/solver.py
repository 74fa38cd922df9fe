"""Numerical mountain-pass solver and Palais-Smale-style diagnostics.

The ray t -> t u from 0 through a negative-energy point is a mountain-pass
path, so the solver keeps a single state u that maximizes I_V along its own
ray and descends that maximum: the local minimax method of Li & Zhou
(2001) with support {0}.  The descent direction solves K d = I_V'(u) where
K is the (positive) quadratic-part Hessian, so the linear physics is
handled exactly (the iteration count still grows as the mesh is refined).
Each trial u - eta d, projected onto u >= 0, is replaced by the maximum
along its own ray, which is what keeps the state on the mountain ridge
instead of sliding to 0.

Once the residual at the ray maximum falls below NEWTON_SWITCH, inexact
Newton on I_V'(u) = 0 takes over from there: each step solves the second
variation system by preconditioned MINRES with the same K.  The switch
sits just above the band in which the descent starts to zigzag (residual
about 1.6e-2 to 2.4e-2 on the default problem), so Newton takes over where
the descent stops gaining.  A run that does not reach the tolerance is
discarded and the descent goes on; it is tried again when the descent
residual has halved.  K is symmetric positive definite, so it is factored
once per grid by an LU with a symmetric minimum-degree ordering and
diagonal pivots.

Stopping uses a dual-norm estimate of I_V': sqrt(r^T K^{-1} r) with r the
residual covector, which upper-bounds the pairing against every test
direction of weighted norm one; a fixed seeded set of 20 such directions
is additionally checked on the accepted state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import energy, families, grids
from . import nonlinearity as nl
from .brent import minimize_bounded
from .errors import GeometryFailureError, InvalidParameterError
from .spaces import PeriodicCoefficient, norm_1qw_sq

N_TEST_DIRECTIONS = 20      # seeded test directions checked on the accepted state
TRACE_FIELDS = 32           # field-trace size kept for the PS diagnostics
NEWTON_SWITCH = 2e-2        # descent residual below which Newton is tried
NEWTON_MAX_STEPS = 8        # Newton steps allowed to reach the tolerance
NEWTON_FORCING = 1e-3       # relative MINRES residual of each Newton step
MINRES_MAX_ITERATIONS = 100
RAY_BRACKET = (0.5, 1.5)    # ray scales searched for a trial's maximum


@dataclass(frozen=True)
class SolverConfig:
    spec: nl.NonlinearitySpec
    potential: PeriodicCoefficient
    grid_kind: str = "cartesian"
    domain_radius: float = 16.0
    resolution: int = 128
    descent_step: float = 1.0
    max_iterations: int = 20000
    residual_tolerance: float = 1e-4
    seed: int = 0
    rho_sphere: float = 1e-2
    witness_radius: float = 0.25

    def __post_init__(self):
        if self.grid_kind not in ("cartesian", "radial"):
            raise InvalidParameterError("grid_kind must be cartesian or radial")
        for name, least in (("resolution", grids.MIN_RESOLUTION),
                            ("max_iterations", 1)):
            if getattr(self, name) < least:
                raise InvalidParameterError(f"{name} must be >= {least}")
        for name in ("domain_radius", "descent_step", "residual_tolerance",
                     "rho_sphere", "witness_radius"):
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


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def _geometry_probes(grid):
    probes = [families.gaussian(grid, s) for s in (0.5, 1.0, 2.0)]
    probes += [families.bump(grid, radius) for radius in (0.5, 1.0)]
    return probes


def check_mp_geometry(spec: nl.NonlinearitySpec, potential: PeriodicCoefficient,
                      grid: grids.Grid, rho_sphere: float = 1e-2,
                      witness_radius: float = 0.25,
                      doubling_budget: int = 60):
    """Certify the two mountain-pass conditions on the grid.

    Returns (delta0, e_witness): delta0 > 0 is the minimum of I_V over a
    probe set scaled onto the sphere ||u||_{1,q(w)} = rho_sphere, and
    e_witness is t * bump (support in the witness ball) with I_V < 0,
    found by doubling t.  Raises GeometryFailureError when either part
    cannot be certified (e.g. for an inert nonlinearity).
    """
    delta0 = math.inf
    for probe in _geometry_probes(grid):
        nrm = math.sqrt(norm_1qw_sq(probe, spec.q, potential))
        scaled = probe.with_values(probe.values * (rho_sphere / nrm))
        delta0 = min(delta0, energy.total_energy(scaled, spec, potential))
    if not delta0 > 0:
        raise GeometryFailureError(
            f"no positive energy floor on the rho = {rho_sphere} sphere")
    seed_bump = families.bump(grid, witness_radius)
    grids.require_plateau_resolution(grid, witness_radius, 4)
    t = 1.0
    for _ in range(doubling_budget):
        candidate = seed_bump.with_values(t * seed_bump.values)
        if energy.total_energy(candidate, spec, potential) < 0:
            return float(delta0), candidate
        t *= 2.0
    raise GeometryFailureError(
        "no negative-energy point found within the doubling budget "
        "(nonlinearity appears inert)")


# ---------------------------------------------------------------------------
# preconditioner and test directions
# ---------------------------------------------------------------------------

def _quadratic_preconditioner(grid, potential):
    """LU factorization of stiffness + V-mass, restricted to nodes with
    positive quadrature weight."""
    key = ("precond", potential.floor, potential.amplitude)

    def build():
        w = grid.weights.ravel()
        interior = np.nonzero(w > 0)[0]
        a = grids.stiffness_matrix(grid)
        mass = sp.diags((w * potential.on_grid(grid).ravel()))
        k = (a + mass).tocsc()[interior][:, interior]
        # K is symmetric positive definite: a symmetric fill-reducing
        # ordering with diagonal pivots needs no pivoting for stability
        return interior, spla.splu(k, permc_spec="MMD_AT_PLUS_A",
                                   diag_pivot_thresh=0.0,
                                   options={"SymmetricMode": True})
    return grid._cached(key, build)


def _apply_preconditioner(grid, potential, values):
    interior, lu = _quadratic_preconditioner(grid, potential)
    w = grid.weights.ravel()
    rhs = (w * values.ravel())[interior]
    out = np.zeros(grid.num_nodes)
    out[interior] = lu.solve(rhs)
    return out.reshape(grid.shape)


def _test_directions(grid, spec, potential, n, seed):
    rng = np.random.default_rng(seed)
    dirs = []
    for _ in range(n):
        phi = families.random_smooth(grid, rng,
                                     max_center=0.4 * grid.domain_radius)
        vals = np.where(grid.weights > 0, phi.values, 0.0)
        phi = grids.GridField(grid, vals)
        nrm = math.sqrt(norm_1qw_sq(phi, spec.q, potential))
        dirs.append(phi.with_values(phi.values / nrm))
    return dirs


def _weak_residual(gradient, directions):
    """max pairing against the fixed normalized test set."""
    return max(abs(energy.pair_gradient(gradient, phi)) for phi in directions)


def _dual_estimate(grid, potential, gradient_values):
    """sqrt(r^T K^{-1} r) with r the residual covector and K the quadratic
    Hessian: bounds |<I_V'(u), phi>| for every phi with ||phi||_{1,q(w)} <= 1
    by Cauchy-Schwarz in the K inner product (the 1,q(w) norm dominates the
    K norm).  Returns (estimate, descent direction, slope)."""
    direction = _apply_preconditioner(grid, potential, gradient_values)
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
    iterates: tuple     # the state after each step
    level: float        # I_V at the last state, once the tolerance is met
    residual: float
    products: int       # Hessian products of all the MINRES solves
    accepted: bool


def _newton(u, spec, potential, tolerance):
    """Inexact Newton on I_V'(u) = 0 from u.  Each step solves the second
    variation system I_V''(u) d = -I_V'(u) on the nodes of positive weight
    by MINRES, preconditioned by the quadratic-part LU, to the relative
    residual NEWTON_FORCING (Dembo, Eisenstat & Steihaug 1982), then
    projects u + d onto u >= 0, as the descent step does.

    The run is accepted when it meets the tolerance within NEWTON_MAX_STEPS
    steps, at a state where no node saturates and whose level lies in the
    compactness window (0, 1/2)."""
    grid = u.grid
    interior, lu = _quadratic_preconditioner(grid, potential)
    iterates = []
    products = 0
    while True:
        lin = energy.linearize(u, spec, potential)
        residual, _, _ = _dual_estimate(grid, potential, lin.gradient.values)
        if residual <= tolerance or len(iterates) == NEWTON_MAX_STEPS:
            break

        def apply(x):
            full = np.zeros(grid.num_nodes)
            full[interior] = x
            return energy.hessian_product(
                lin, full.reshape(grid.shape)).ravel()[interior]
        rhs = -(grid.weights * lin.gradient.values).ravel()[interior]
        step, used, _ = _minres(apply, lu.solve, rhs, NEWTON_FORCING,
                                MINRES_MAX_ITERATIONS)
        products += used
        vals = u.values.ravel().copy()
        vals[interior] += step
        u = grids.GridField(grid, np.maximum(vals, 0.0).reshape(grid.shape))
        iterates.append(u)
        if (not np.all(np.isfinite(u.values))
                or np.any(nl.saturation_mask(spec, u.values))):
            residual = math.inf
            break
    level = (energy.total_energy(u, spec, potential)
             if residual <= tolerance else math.nan)
    return NewtonRun(tuple(iterates), level, residual, products,
                     accepted=residual <= tolerance and 0.0 < level < 0.5)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

def _ray_max(v, lo, hi, xatol, spec, potential):
    """(t*, level) maximizing I_V(t v) over t in [lo, hi] to within xatol.

    I_V overflows to a non-finite value where t v saturates strongly, and a
    search whose first trials all land there never reaches the finite
    part, so a non-finite result halves the interval [lo, top] and searches
    again, while the halved interval is still wider than xatol."""
    def negative(t):
        return -energy.total_energy(v.with_values(t * v.values), spec, potential)
    top = hi
    t, value = minimize_bounded(negative, lo, top, xatol)
    while not math.isfinite(value) and 0.5 * (top - lo) > xatol:
        top = lo + 0.5 * (top - lo)
        t, value = minimize_bounded(negative, lo, top, xatol)
    return t, -value


def solve_mountain_pass(config: SolverConfig) -> SolverResult:
    """Descent of the ray maximum, finished by the Newton phase.

    Deterministic for a fixed seed in serial mode.  Returns the best
    available state with status "budget-exhausted" when the iteration
    budget runs out before the residual tolerance is met.
    """
    grid = grids.build_grid(config.grid_kind, config.domain_radius,
                            config.resolution)
    spec, potential = config.spec, config.potential
    delta0, witness = check_mp_geometry(
        spec, potential, grid, rho_sphere=config.rho_sphere,
        witness_radius=config.witness_radius)
    t, level = _ray_max(witness, 0.0, 1.0, 1e-3, spec, potential)
    u = witness.with_values(t * witness.values)
    directions = _test_directions(grid, spec, potential, N_TEST_DIRECTIONS,
                                  config.seed)

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

    def state_norm(values):
        return math.sqrt(float(np.sum(w_flat * values**2)))

    for iterations in range(1, config.max_iterations + 1):
        grad = energy.energy_gradient(u, spec, potential)
        residual, direction, slope = _dual_estimate(grid, potential, grad.values)
        ps_trace.append((float(level), float(residual)))
        # the field trace is a Palais-Smale sequence: a descent state joins
        # it only when its residual is a new low.  Decimation keeps
        # ~TRACE_FIELDS of them, always retaining the most recent one.
        if residual < trace_residual:
            trace_residual = residual
            field_trace.append(u)
            if len(field_trace) > 2 * TRACE_FIELDS:
                del field_trace[-2::-2]
        if residual <= config.residual_tolerance:
            converged = True
            break
        if residual < newton_below:
            run = _newton(u, spec, potential, config.residual_tolerance)
            newton_steps += len(run.iterates)
            hessian_products += run.products
            if run.accepted:
                newton, converged = run, True
                break
            # discarded: the descent goes on, and Newton is tried again
            # once the descent residual has halved
            newton_below = residual / 2
        # trust region: a state may not teleport across the ridge zone
        cap = max(0.2 * state_norm(u.values), 1e-3)
        step_norm = state_norm(direction)
        eta = min(config.descent_step, cap / max(step_norm, 1e-300))
        # the ray maximum is located to a scale error whose slope error is
        # small against the residual
        xatol = min(1e-3, 1e-2 * residual)
        for _ in range(40):
            trial_vals = np.maximum(u.values - eta * direction, 0.0)
            trial_vals[grid.weights == 0] = 0.0
            trial = grids.GridField(grid, trial_vals)
            t, trial_level = _ray_max(trial, lo, hi, xatol, spec, potential)
            scaled = t * trial_vals
            # a maximum on the bracket edge is not a ray maximum, and one
            # that saturates a node is decided by the clamp: Newton rejects
            # such states too
            if (math.isfinite(trial_level) and lo + xatol < t < hi - xatol
                    and trial_level < level - 1e-4 * eta * max(slope, 0.0)
                    and not np.any(nl.saturation_mask(spec, scaled))):
                u = trial.with_values(scaled)
                level = trial_level
                break
            eta *= 0.5

    final = u
    level = path_level = float(level)
    if newton is not None:
        final, level, residual = (newton.iterates[-1], newton.level,
                                  newton.residual)
        field_trace.extend(newton.iterates)
    final_grad = energy.energy_gradient(final, spec, potential)
    certificate, _, _ = _dual_estimate(grid, potential, final_grad.values)
    if converged and abs(certificate - residual) > 1e-10 * (1 + certificate):
        raise GeometryFailureError("residual certificate mismatch")
    residual = certificate
    weak = _weak_residual(final_grad, directions)
    if converged and weak > config.residual_tolerance * (1 + 1e-9):
        raise GeometryFailureError(
            "weak residual against the test set exceeds the tolerance")

    if converged and not (0.0 < level < 0.5):
        raise GeometryFailureError(
            f"accepted level {level} outside the compactness window (0, 1/2)")

    vanish = vanishing_check(final, 1.0)
    try:
        rec = recenter(final, potential, spec)
    except InvalidParameterError:
        # incommensurate lattice: exact integer shifts are unavailable,
        # leave the field in place
        rec = RecenterResult(field=final, shift=(0, 0), energy_delta=0.0)
    if not field_trace or field_trace[-1] is not final:
        field_trace.append(final)
    return SolverResult(
        field=rec.field, level=level, path_level=path_level,
        residual=float(residual), iterations=iterations,
        newton_steps=newton_steps, hessian_products=hessian_products,
        vanishing_indicator=float(vanish),
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
    """Boundedness and improved-integrability probes along a field trace.

    The integrability exponent is alpha = min(1.2, 0.9 / (2 c)) with c the
    level, inside the admissible window [1, 1/(2c))."""
    if not trace:
        raise InvalidParameterError("ps_diagnostics needs a nonempty trace")
    from . import kernel
    from .spaces import norm_V_sq
    sup_v = sup_frak = sup_pair = 0.0
    for u in trace:
        sup_v = max(sup_v, norm_V_sq(u, potential))
        density = grids.GridField(u.grid, energy.compose_density(u, spec))
        response = grids.GridField(
            u.grid, energy.compose_f(u, spec) * u.values)
        sup_frak = max(sup_frak, abs(kernel.b0_form(density, density)))
        sup_pair = max(sup_pair, abs(kernel.b0_form(density, response)))
    alpha = min(1.2, 0.9 / (2.0 * level)) if level > 0 else 1.2
    integ = []
    for u in trace:
        dens = energy.compose_density(
            u.with_values(np.abs(u.values)), spec)
        integ.append(float(np.sum(u.grid.weights * dens**alpha)))
    return PSDiagnostics(
        sup_norm_V_sq=float(sup_v), sup_abs_frak=float(sup_frak),
        sup_abs_pairing=float(sup_pair), alpha=float(alpha),
        integrability=np.array(integ))


# ---------------------------------------------------------------------------
# vanishing and recentering
# ---------------------------------------------------------------------------

def _lattice_centers(radius: float):
    k = int(math.floor(radius))
    axis = np.arange(-k, k + 1)
    cx, cy = np.meshgrid(axis, axis, indexing="ij")
    keep = cx**2 + cy**2 <= radius**2
    return np.column_stack([cx[keep], cy[keep]])


def _lattice_masses(u: grids.GridField, r: float):
    """(centers, masses): int_{B_r(center)} u^2 dx for every integer-lattice
    center inside the domain of a cartesian field.  Each center tests only
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
        dists = np.unique(np.hypot(centers[:, 0], centers[:, 1]))
        s = grid.nodes
        best = 0.0
        for d in dists:
            if d == 0.0:
                frac = (s <= r).astype(float)
            else:
                cosang = (s**2 + d**2 - r**2) / (2 * s * d)
                frac = np.where(cosang <= -1.0, 1.0,
                                np.where(cosang >= 1.0, 0.0,
                                         np.arccos(np.clip(cosang, -1, 1)) / np.pi))
            best = max(best, float(np.sum(mass * frac)))
        return best
    return float(np.max(_lattice_masses(u, r)[1]))


@dataclass(frozen=True)
class RecenterResult:
    field: grids.GridField
    shift: tuple
    energy_delta: float


def recenter(u: grids.GridField, potential: PeriodicCoefficient,
             spec: nl.NonlinearitySpec, r: float = 1.0) -> RecenterResult:
    """Shift by the integer vector that moves the largest local mass to the
    origin.  On cartesian grids the unit cell must divide 1 so that integer
    shifts are whole-cell rolls (then the shift is exactly energy
    preserving for 1-periodic coefficients and interior-supported fields).
    """
    grid = u.grid
    if grid.kind == "radial":
        return RecenterResult(field=u, shift=(0, 0), energy_delta=0.0)
    cells_per_unit = 1.0 / grid.spacing
    if abs(cells_per_unit - round(cells_per_unit)) > 1e-9:
        raise InvalidParameterError(
            "recentering needs a grid whose cell size divides 1 "
            f"(got spacing {grid.spacing})")
    cells_per_unit = int(round(cells_per_unit))
    best, best_center = -1.0, (0, 0)
    for center, local in zip(*_lattice_masses(u, r)):
        if local > best + 1e-15:
            best, best_center = local, center
    shift = (-int(best_center[0]), -int(best_center[1]))
    rolled = np.roll(u.values, (shift[0] * cells_per_unit,
                                shift[1] * cells_per_unit), axis=(0, 1))
    rolled[grid.weights == 0] = 0.0
    shifted = grids.GridField(grid, rolled)
    before = energy.total_energy(u, spec, potential)
    after = energy.total_energy(shifted, spec, potential)
    return RecenterResult(field=shifted, shift=shift,
                          energy_delta=float(after - before))
