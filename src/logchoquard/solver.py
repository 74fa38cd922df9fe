"""Numerical mountain-pass solver and Palais-Smale-style diagnostics.

The solver discretizes a path from 0 to a negative-energy witness and
alternates (a) locating the path maximum with (b) preconditioned descent
of that node: the descent direction solves K d = I_V'(u) where K is the
(positive) quadratic-part Hessian, so the linear physics is handled
exactly (the iteration count still grows as the mesh is refined).  The
path endpoints pin the node ensemble across the mountain ridge, which is
what makes descent of the maximum converge to the pass instead of
sliding to 0.

A segment [a, b] of the path is searched for an interior hump only when
its endpoint slopes prove one: <I_V'(a), b - a> > 0 > <I_V'(b), b - a>,
with the zero field counted as rising.  The gradients behind the slopes
are computed once per live path node, and the one at the path maximum is
the one the descent step uses.  Slopes at a saturated endpoint (clamped
exponential) decide nothing, so such a segment is always searched.

Once the residual at the path maximum falls below NEWTON_SWITCH, inexact
Newton on I_V'(u) = 0 takes over from there: each step solves the second
variation system by preconditioned MINRES with the same K.  A run that
does not reach the tolerance is discarded and the path phase goes on; it
is tried again when the path residual has halved.

Stopping uses a dual-norm estimate of I_V': sqrt(r^T K^{-1} r) with r the
residual covector, which upper-bounds the pairing against every test
direction of weighted norm one; a fixed seeded set of 20 such directions
is additionally checked on the accepted state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

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
NEWTON_SWITCH = 1e-2        # path residual below which Newton is tried
NEWTON_MAX_STEPS = 8        # Newton steps allowed to reach the tolerance
NEWTON_FORCING = 1e-3       # relative MINRES residual of each Newton step
MINRES_MAX_ITERATIONS = 100


@dataclass(frozen=True)
class SolverConfig:
    spec: nl.NonlinearitySpec
    potential: PeriodicCoefficient
    grid_kind: str = "cartesian"
    domain_radius: float = 16.0
    resolution: int = 128
    path_nodes: int = 16
    descent_step: float = 1.0
    max_iterations: int = 20000
    residual_tolerance: float = 1e-4
    seed: int = 0
    rho_sphere: float = 1e-2
    witness_radius: float = 0.25

    def __post_init__(self):
        if self.grid_kind not in ("cartesian", "radial"):
            raise InvalidParameterError("grid_kind must be cartesian or radial")
        for name, least in (("resolution", grids.MIN_RESOLUTION), ("path_nodes", 8),
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
    path_level: float                   # the path maximum the solve ended on
    residual: float
    iterations: int                     # path iterations
    newton_steps: int                   # over every Newton run, kept or not
    hessian_products: int
    vanishing_indicator: float
    recentering_shift: tuple
    ps_trace: list                      # (level, residual) per path iteration
    converged: bool
    status: str                         # "converged" | "budget-exhausted"
    delta0: float
    recentering_energy_delta: float
    field_trace: list = dc_field(default_factory=list)   # a PS sequence
    restarts: list = dc_field(default_factory=list)


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
        return interior, spla.splu(k)
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

def _segment_max(a, b, spec, potential):
    """(s*, level) maximizing I_V over the segment from a to b.

    I_V overflows to a non-finite value near a saturating endpoint b, and a
    search whose first trials all land there never reaches the finite
    part, so a non-finite result halves the interval [0, top] and searches
    again, while the halved interval still reaches past the s = 1e-3 below
    which no hump is accepted."""
    def negative(s):
        vals = (1.0 - s) * a.values + s * b.values
        return -energy.total_energy(a.with_values(vals), spec, potential)
    top = 1.0
    s, value = minimize_bounded(negative, 0.0, top, 1e-3)
    while not math.isfinite(value) and 0.5 * top > 1e-3:
        top *= 0.5
        s, value = minimize_bounded(negative, 0.0, top, 1e-3)
    return s, -value


def _node_gradient(u, gradients, spec, potential):
    """I_V'(u), computed once per path node: ``gradients`` is keyed by the
    node object (GridField hashes by identity) and holds live nodes only."""
    if u not in gradients:
        gradients[u] = energy.energy_gradient(u, spec, potential)
    return gradients[u]


def _may_have_hump(a, b, spec, potential, gradients):
    """Whether the segment from a to b needs a hump search: an endpoint
    saturates, or the slopes of s -> I_V(a + s (b - a)) at s = 0 and 1 are
    positive and negative, which proves an interior maximum above both
    endpoints.  I_V'(0) = 0, but I_V rises quadratically from the zero
    field, so a zero ``a`` counts as a positive slope."""
    if (np.any(nl.saturation_mask(spec, a.values))
            or np.any(nl.saturation_mask(spec, b.values))):
        return True
    step = b.with_values(b.values - a.values)
    rising = (not np.any(a.values) or energy.pair_gradient(
        _node_gradient(a, gradients, spec, potential), step) > 0)
    return rising and energy.pair_gradient(
        _node_gradient(b, gradients, spec, potential), step) < 0


def _insert_segment_humps(path, levels, segments, spec, potential, gradients):
    """Maximize I_V along the given segments and promote interior humps to
    nodes.  Keeping the piecewise-linear path maximum represented by a node
    is what stops the node ensemble from sliding off the mountain ridge
    into the two basins.  Returns True if a node was inserted."""
    inserted = False
    for seg in sorted(set(segments), reverse=True):
        if seg < 0 or seg + 1 >= len(path):
            continue
        if not _may_have_hump(path[seg], path[seg + 1], spec, potential,
                              gradients):
            continue
        s_star, lvl = _segment_max(path[seg], path[seg + 1], spec, potential)
        floor = max(levels[seg], levels[seg + 1])
        if lvl > floor + 1e-12 * (1 + abs(floor)) and 1e-3 < s_star < 1 - 1e-3:
            vals = (1.0 - s_star) * path[seg].values \
                + s_star * path[seg + 1].values
            path.insert(seg + 1, path[seg].with_values(vals))
            levels.insert(seg + 1, lvl)
            inserted = True
    return inserted


def _scan_all_segments(path, levels, spec, potential, gradients,
                       rounds: int = 4):
    """Insert polyline humps anywhere along the path (used at startup and
    after arclength resampling, which forgets where the ridge was).

    A segment whose two endpoint objects were searched in an earlier round
    is still a segment only because that search found no hump, and it would
    find none again, so each endpoint pair is searched at most once."""
    searched = set()
    for _ in range(rounds):
        fresh = [i for i in range(len(path) - 1)
                 if (path[i], path[i + 1]) not in searched]
        searched.update((path[i], path[i + 1]) for i in fresh)
        if not _insert_segment_humps(path, levels, fresh, spec, potential,
                                     gradients):
            break


def _resample_path(path, target, spec, potential):
    """Arclength (L2-weighted) resampling of the polyline to ``target``
    nodes, endpoints pinned; the last is the nonzero witness, so the
    length is positive."""
    w = path[0].grid.weights
    gaps = [math.sqrt(float(np.sum(w * (b.values - a.values) ** 2)))
            for a, b in zip(path[:-1], path[1:])]
    cum = np.concatenate(([0.0], np.cumsum(gaps)))
    targets = np.linspace(0.0, cum[-1], target)
    new_path, new_levels = [], []
    for t in targets:
        j = min(int(np.searchsorted(cum, t, side="right")) - 1, len(gaps) - 1)
        frac = (t - cum[j]) / gaps[j] if gaps[j] > 0 else 0.0
        vals = (1.0 - frac) * path[j].values + frac * path[j + 1].values
        state = path[0].with_values(vals)
        new_path.append(state)
        new_levels.append(energy.total_energy(state, spec, potential))
    return new_path, new_levels


def solve_mountain_pass(config: SolverConfig) -> SolverResult:
    """Path relaxation + constrained descent of the path maximum, finished
    by the Newton phase.

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

    m = config.path_nodes
    ts = np.linspace(0.0, 1.0, m)
    path = [witness.with_values(t * witness.values) for t in ts]
    levels = [energy.total_energy(u, spec, potential) for u in path]
    gradients = {}
    _scan_all_segments(path, levels, spec, potential, gradients)
    directions = _test_directions(grid, spec, potential, N_TEST_DIRECTIONS,
                                  config.seed)

    ps_trace = []
    restarts = []
    field_trace = []
    converged = False
    iterations = 0
    residual = math.inf
    w_flat = grid.weights
    newton = None               # the accepted Newton run
    newton_below = NEWTON_SWITCH
    newton_steps = hessian_products = 0
    trace_residual = math.inf

    def state_norm(values):
        return math.sqrt(float(np.sum(w_flat * values**2)))

    for iterations in range(1, config.max_iterations + 1):
        if len(path) > 2 * m:
            gradients.clear()
            path, levels = _resample_path(path, m, spec, potential)
            _scan_all_segments(path, levels, spec, potential, gradients)
            restarts.append(iterations)
        k = int(np.argmax(levels))
        u = path[k]
        grad = _node_gradient(u, gradients, spec, potential)
        residual, direction, slope = _dual_estimate(grid, potential, grad.values)
        ps_trace.append((float(levels[k]), float(residual)))
        # the field trace is a Palais-Smale sequence: a path maximum joins
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
            # discarded: the path phase goes on, and Newton is tried again
            # once the path residual has halved
            newton_below = residual / 2
        # trust region: a node may not teleport across the ridge zone
        cap = max(0.2 * state_norm(u.values), 1e-3)
        step_norm = state_norm(direction)
        eta = min(config.descent_step, cap / max(step_norm, 1e-300))
        for _ in range(40):
            trial_vals = np.maximum(u.values - eta * direction, 0.0)
            trial_vals[grid.weights == 0] = 0.0
            trial = grids.GridField(grid, trial_vals)
            trial_level = energy.total_energy(trial, spec, potential)
            if trial_level < levels[k] - 1e-4 * eta * max(slope, 0.0):
                path[k] = trial
                levels[k] = trial_level
                break
            eta *= 0.5
        if path[k] is not u:
            del gradients[u]        # u has left the path
        # re-expose the polyline maximum around the moved node; an insertion
        # refines the path (counted as a restart for trace monotonicity)
        if _insert_segment_humps(path, levels, (k - 1, k), spec, potential,
                                 gradients):
            restarts.append(iterations + 1)

    k = int(np.argmax(levels))
    final = path[k]
    level = path_level = float(levels[k])
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
        restarts=restarts,
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
    """(center, int_{B_r(center)} u^2 dx) for each integer-lattice center
    inside the domain of a cartesian field."""
    grid = u.grid
    mass = grid.weights * u.values**2
    xx, yy = grid.meshgrid()
    for cx, cy in _lattice_centers(grid.domain_radius):
        inside = (xx - cx) ** 2 + (yy - cy) ** 2 <= r**2
        yield (int(cx), int(cy)), float(np.sum(mass[inside]))


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
    return max(0.0, *(local for _, local in _lattice_masses(u, r)))


@dataclass(frozen=True)
class RecenterResult:
    field: grids.GridField
    shift: tuple
    energy_delta: float


def recenter(u: grids.GridField,
             potential: Optional[PeriodicCoefficient] = None,
             spec: Optional[nl.NonlinearitySpec] = None,
             r: float = 1.0) -> RecenterResult:
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
    for center, local in _lattice_masses(u, r):
        if local > best + 1e-15:
            best, best_center = local, center
    shift = (-best_center[0], -best_center[1])
    rolled = np.roll(u.values, (shift[0] * cells_per_unit,
                                shift[1] * cells_per_unit), axis=(0, 1))
    rolled[grid.weights == 0] = 0.0
    shifted = grids.GridField(grid, rolled)
    delta = 0.0
    if spec is not None and potential is not None:
        before = energy.total_energy(u, spec, potential)
        after = energy.total_energy(shifted, spec, potential)
        delta = after - before
    elif potential is not None:
        from .spaces import norm_V_sq
        delta = norm_V_sq(shifted, potential) - norm_V_sq(u, potential)
    return RecenterResult(field=shifted, shift=shift, energy_delta=float(delta))
