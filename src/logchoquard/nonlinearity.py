"""The nonlinearity family (f, F), assumption checkers, the auxiliary
function G and the explicit level-estimate threshold constant.

Built-in kinds (a = 4 pi throughout):

* ``exp_minus_one``  F(s) = e^{a s^2} - 1
* ``power_exp``      F(s) = s^p e^{a s^2}
* ``piecewise``      F(s) = s^q below the splice s0, c s^p e^{a s^2} above,
                     with c solved for continuity of F
* ``custom``         user-supplied f and f'; F by adaptive quadrature

f(s) = 0 for s <= 0 (only positive solutions are sought), F(0) = 0.
Exponents a s^2 > 700 are clamped; query ``saturation_mask`` for the flag.
Evaluations that would overflow (tail checks, envelope fits) run in log
space through the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .brent import minimize_bounded
from .errors import InvalidParameterError, QuadratureFailureError
from .spaces import EXP_GUARD, PeriodicCoefficient

A_CRIT = 4.0 * np.pi

KINDS = ("exp_minus_one", "power_exp", "piecewise", "custom")


@dataclass(frozen=True)
class NonlinearitySpec:
    """Parametric description of (f, F) with growth data (p, q, s0)."""

    kind: str = "exp_minus_one"
    p: float = 1.0
    q: float = 2.0
    s0: float = 1.0
    c_profile: PeriodicCoefficient = field(
        default_factory=lambda: PeriodicCoefficient(1.0))
    f_callable: Optional[Callable] = None
    f_prime_callable: Optional[Callable] = None
    F_callable: Optional[Callable] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown nonlinearity kind {self.kind!r}")
        if not self.p > 0:
            raise InvalidParameterError("p must be positive")
        if not self.q >= 2:
            raise InvalidParameterError("q must be >= 2")
        if not self.s0 > 0:
            raise InvalidParameterError("s0 must be positive")
        if self.kind == "custom" and (self.f_callable is None
                                      or self.f_prime_callable is None):
            raise InvalidParameterError("custom specs need f and f' callables")

    @property
    def log_splice_constant(self) -> float:
        """log c, with c making the piecewise F continuous at s0 (c itself
        underflows to 0 from s0 ~ 7.7 on)."""
        return (self.q - self.p) * math.log(self.s0) - A_CRIT * self.s0 * self.s0


def saturation_mask(spec: NonlinearitySpec, s) -> np.ndarray:
    """True where the exponential growth exceeds the overflow guard."""
    s = np.asarray(s, dtype=float)
    mask = A_CRIT * s**2 > EXP_GUARD
    if spec.kind == "piecewise":
        mask = mask & (s > spec.s0)
    return mask & (s > 0)


# one closed form for the built-ins ------------------------------------------
#
# On each piece a built-in F is c s^p e^{a s^2}, whose k-th derivative is
# c s^{p-k} P_k(s) e^{a s^2}.  exp_minus_one lists f = 2a s e^{a s^2} instead
# (its F = expm1(a s^2) keeps its own form), so its f^(k) is the (k-1)-th.

def _poly(p, a, k, s):
    """P_k with (s^p e^{a s^2})^(k) = s^(p-k) P_k(s) e^{a s^2}, k = 0, 1, 2."""
    if k == 0:
        return 1.0
    if k == 1:
        return p + 2 * a * s**2
    return p * (p - 1) + 2 * a * (2 * p + 1) * s**2 + 4 * a**2 * s**4


def _by_piece(spec: NonlinearitySpec, s, form, log: bool = False):
    """form(c, p, a) on each piece c s^p e^{a s^2} of a built-in kind,
    joined at the splice s0 of piecewise; c is passed as log c if ``log``."""
    if spec.kind == "piecewise":
        with np.errstate(over="ignore"):      # c = inf when log c > 709
            c = spec.log_splice_constant if log else np.exp(spec.log_splice_constant)
        return np.where(s <= spec.s0, form(0.0 if log else 1.0, spec.q, 0.0),
                        form(c, spec.p, A_CRIT))
    c, p = {"power_exp": (1.0, spec.p), "exp_minus_one": (2 * A_CRIT, 1.0)}[spec.kind]
    return form(math.log(c) if log else c, p, A_CRIT)


def _closed_form(spec: NonlinearitySpec, s, k: int, log: bool = False):
    """F^(k)(s) of a built-in kind (its log if ``log``) at s > 0; the value
    form clamps its exponent at the guard."""
    if spec.kind == "exp_minus_one":
        if k == 0:
            x = A_CRIT * s**2
            return x + np.log1p(-np.exp(-x)) if log \
                else np.expm1(np.minimum(x, EXP_GUARD))
        k -= 1
    if log:
        return _by_piece(spec, s, lambda log_c, p, a: log_c + (p - k) * np.log(s)
                         + np.log(_poly(p, a, k, s)) + a * s**2, log=True)
    return _by_piece(spec, s, lambda c, p, a: c * s ** (p - k) * _poly(p, a, k, s)
                     * np.exp(np.minimum(a * s**2, EXP_GUARD)))


def _evaluate(spec: NonlinearitySpec, s, k: int, log: bool = False):
    """F^(k)(s) for k = 0, 1, 2, or its log (overflow-free for the built-ins).
    Values are zero for s <= 0; saturated built-in entries (see
    saturation_mask) are exp(min(log form, EXP_GUARD))."""
    s = np.asarray(s, dtype=float)
    sp = np.maximum(s, 1e-300 if k or log else 0.0)
    if spec.kind == "custom":
        with np.errstate(over="ignore", divide="ignore"):
            out = _custom_F(spec, sp) if k == 0 else np.asarray(
                (spec.f_callable, spec.f_prime_callable)[k - 1](sp), dtype=float)
            return np.log(out) if log else np.where(s > 0, out, 0.0)
    if log:
        return _closed_form(spec, sp, k, log=True)
    with np.errstate(over="ignore"):
        out = _closed_form(spec, sp, k)
    mask = saturation_mask(spec, sp)
    if np.any(mask):
        with np.errstate(divide="ignore"):    # log 0 where s = 0, masked out
            out = np.where(mask, np.exp(np.minimum(
                _evaluate(spec, sp, k, log=True), EXP_GUARD)), out)
    return np.where(s > 0, out, 0.0)


def eval_F(spec: NonlinearitySpec, s):
    """Primitive of f vanishing at zero; zero for s <= 0."""
    return _evaluate(spec, s, 0)


def eval_f(spec: NonlinearitySpec, s):
    return _evaluate(spec, s, 1)


def eval_f_prime(spec: NonlinearitySpec, s):
    return _evaluate(spec, s, 2)


def _custom_F(spec: NonlinearitySpec, sp):
    if spec.F_callable is not None:
        return np.asarray(spec.F_callable(sp), dtype=float)
    from scipy.integrate import quad
    flat = np.atleast_1d(sp).ravel()
    order = np.argsort(flat)
    out = np.empty_like(flat)
    acc, prev = 0.0, 0.0
    for idx in order:
        val, _ = quad(spec.f_callable, prev, flat[idx], epsrel=1e-10,
                      limit=200)
        acc += val
        out[idx] = acc
        prev = flat[idx]
    return out.reshape(np.shape(sp))


# log-space closed forms for overflow-free tail checks ----------------------

def log_F(spec: NonlinearitySpec, s):
    return _evaluate(spec, s, 0, log=True)


def log_f(spec: NonlinearitySpec, s):
    return _evaluate(spec, s, 1, log=True)


def log_s3fF_tail(spec: NonlinearitySpec, s):
    """log of s^3 f(s) F(s) e^{-8 pi s^2}, the liminf quantity of the
    growth-floor assumption, computed without overflow."""
    s = np.asarray(s, dtype=float)
    return 3.0 * np.log(s) + log_f(spec, s) + log_F(spec, s) - 2 * A_CRIT * s**2


# ratios and the auxiliary function G ---------------------------------------

def ratio_Ffprime_f2(spec: NonlinearitySpec, s):
    """F f' / f^2, with cancellation-safe closed forms for the built-ins."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise InvalidParameterError("the ratio is defined for s > 0 only")
    if spec.kind == "exp_minus_one":
        x = A_CRIT * s**2
        out = -np.expm1(-x) * (1.0 + 1.0 / (2.0 * x))
    elif spec.kind == "custom":
        f = eval_f(spec, s)
        if np.any(f == 0):
            raise ZeroDivisionError("f vanishes inside the scan range")
        out = eval_F(spec, s) * eval_f_prime(spec, s) / f**2
    else:
        out = _by_piece(spec, s, lambda c, p, a: _poly(p, a, 2, s)
                        / _poly(p, a, 1, s) ** 2)
    return out if out.ndim else float(out)


def G_auxiliary(spec: NonlinearitySpec, t: float) -> float:
    """G(t) = int_0^t sqrt(F f') / f ds = int_0^t sqrt(F f'/f^2) ds."""
    if t < 0:
        raise InvalidParameterError("G is defined for t >= 0")
    if t == 0:
        return 0.0

    def integrand(s):
        val = ratio_Ffprime_f2(spec, max(s, 1e-12))
        if not np.isfinite(val) or val < 0:
            raise QuadratureFailureError(f"non-finite ratio at s = {s}")
        return math.sqrt(val)

    from scipy.integrate import quad
    val, _ = quad(integrand, 0.0, t, limit=200)
    return float(val)


def G_upper_bound_residual(spec: NonlinearitySpec, t: float) -> float:
    """t^2 - t F(t)/f(t) - G(t)^2; nonnegative up to quadrature tolerance."""
    g = G_auxiliary(spec, t)
    ff = float(np.exp(log_F(spec, t) - log_f(spec, t)))
    return t**2 - t * ff - g**2


# assumption checking --------------------------------------------------------

@dataclass(frozen=True)
class ScanPlan:
    """Sampling plan for assumption checks on (0, s_max]."""

    s_max: float = 10.0
    num: int = 2000
    s_min: float = 1e-4

    def __post_init__(self):
        if not self.s_max >= 10.0:
            raise InvalidParameterError("scan must reach s_max >= 10")
        if self.num < 100:
            raise InvalidParameterError("scan needs at least 100 points")

    def points(self) -> np.ndarray:
        return np.geomspace(self.s_min, self.s_max, self.num)


@dataclass(frozen=True)
class AssumptionReport:
    f1_ok: bool
    f2_ok: bool
    f3_ok: bool
    f4_ok: bool
    delta_estimate: float
    C_estimate: float
    f3_limit_estimate: float
    f4_liminf_estimate: float
    script_V: float
    sample_range: tuple
    ar_improved_ok: bool          # F(s) <= (1 - delta) s f(s) on the scan
    envelope_constant: float      # fitted C of the two-branch growth envelope
    q_limit_estimate: float       # limit of f(s)/s^{q-1} at 0
    s_epsilon: float              # onset of the (1 - eps) lower-bound regime
    epsilon: float

    @property
    def all_ok(self) -> bool:
        return self.f1_ok and self.f2_ok and self.f3_ok and self.f4_ok


def check_assumptions(spec: NonlinearitySpec, scan: ScanPlan = ScanPlan(),
                      potential: Optional[PeriodicCoefficient] = None,
                      epsilon: float = 0.1, f3_tolerance: float = 0.01) -> AssumptionReport:
    """Evaluate the growth assumptions on the scan; failures are reported,
    never raised."""
    s = scan.points()
    ratios = np.asarray(ratio_Ffprime_f2(spec, s))

    # (f1): sign, behaviour at 0, exponential envelope at infinity
    f_vals = eval_f(spec, s)
    nonneg = bool(np.all(f_vals >= 0))
    head = s <= min(10 * scan.s_min, 0.05)
    with np.errstate(over="ignore"):          # inf for a huge q; reported
        small = np.exp(log_f(spec, s[head]) - (spec.q - 1) * np.log(s[head]))
    q_limit = float(small[-1]) if small.size else float("nan")
    small_ok = bool(small.size and np.all(np.isfinite(small)) and np.all(small > 0)
                    and small.max() < 100 * max(small.min(), 1e-12))
    tail = s >= scan.s_max / 2
    log_env = log_f(spec, s[tail]) - spec.p * np.log(s[tail]) - A_CRIT * s[tail]**2
    f1_ok = nonneg and small_ok and bool(np.all(np.isfinite(log_env)))

    # (f2): two-sided bounds of the ratio, with a 1% safety margin
    rmin, rmax = float(ratios.min()), float(ratios.max())
    delta_est = 0.99 * rmin
    c_est = 1.01 * rmax
    f2_ok = rmin > 0 and np.isfinite(rmax)

    # (f3): tail limit by Richardson extrapolation in 1/s^2
    r_half = float(ratio_Ffprime_f2(spec, scan.s_max / 2))
    r_full = float(ratio_Ffprime_f2(spec, scan.s_max))
    f3_limit = (4.0 * r_full - r_half) / 3.0
    f3_ok = abs(f3_limit - 1.0) < f3_tolerance

    # (f4): liminf of s^3 f F e^{-8 pi s^2} compared with the threshold
    pot = potential if potential is not None else PeriodicCoefficient(1.0)
    script_v, _ = compute_script_V(spec.q, pot.max_within(0.5))
    tail_log = log_s3fF_tail(spec, s[tail])
    liminf_est = float(np.exp(min(np.min(tail_log), 690.0)))
    f4_ok = bool(liminf_est > script_v)

    # Ambrosetti-Rabinowitz improvement F <= (1 - delta) s f, in log space
    margin = log_F(spec, s) - (np.log(s) + log_f(spec, s))
    ar_ok = bool(np.all(margin <= math.log(max(1.0 - delta_est, 1e-12)) + 1e-12))

    # two-branch growth envelope constant
    below = s <= spec.s0
    with np.errstate(over="ignore"):          # inf for a huge q; reported
        env_low = np.exp(log_F(spec, s[below]) - spec.q * np.log(s[below])) \
            if np.any(below) else np.array([0.0])
        env_high = np.exp(log_F(spec, s[~below]) - (spec.p - 1) * np.log(s[~below])
                          - A_CRIT * s[~below]**2) \
            if np.any(~below) else np.array([0.0])
    envelope_c = float(max(env_low.max(), env_high.max()))

    # onset of sqrt(ratio) >= 1 - eps (used by the G lower bound)
    good = np.sqrt(np.maximum(ratios, 0.0)) >= 1.0 - epsilon
    idx = np.nonzero(~good)[0]
    s_eps = float(s[idx[-1] + 1]) if idx.size and idx[-1] + 1 < len(s) else float(s[0])

    return AssumptionReport(
        f1_ok=f1_ok, f2_ok=f2_ok, f3_ok=f3_ok, f4_ok=f4_ok,
        delta_estimate=delta_est, C_estimate=c_est,
        f3_limit_estimate=f3_limit, f4_liminf_estimate=liminf_est,
        script_V=script_v, sample_range=(float(s[0]), float(s[-1])),
        ar_improved_ok=ar_ok, envelope_constant=envelope_c,
        q_limit_estimate=q_limit, s_epsilon=s_eps, epsilon=epsilon,
    )


def G_lower_bound_holds(spec: NonlinearitySpec, report: AssumptionReport,
                        s_values) -> bool:
    """Check G(s) >= delta * min(s, s_eps) + (1 - eps) (s - s_eps)_+ on a scan.

    This is the integrated form of the lower bound sqrt(F f')/f >= delta,
    and >= 1 - eps past s_eps.
    """
    s_values = np.asarray(s_values, dtype=float)
    fine = np.geomspace(1e-6, float(s_values.max()), 4000)
    sqrt_ratio = np.sqrt(np.maximum(np.asarray(ratio_Ffprime_f2(spec, fine)), 0.0))
    g_cum = np.concatenate(([0.0], np.cumsum(
        0.5 * (sqrt_ratio[1:] + sqrt_ratio[:-1]) * np.diff(fine))))
    g_at = np.interp(s_values, fine, g_cum)
    delta, eps, s_eps = report.delta_estimate, report.epsilon, report.s_epsilon
    bound = delta * np.minimum(s_values, s_eps) \
        + (1.0 - eps) * np.maximum(s_values - s_eps, 0.0)
    return bool(np.all(g_at >= bound - 1e-6 * (1 + bound)))


# the explicit threshold constant --------------------------------------------

def growth_bracket(q: float, V_bound: float, rho):
    """V + (2 pi)^{2/q-1} log^{2/q}(1+rho) ([q]!/2^{[q]-1}) (1 + ([q]+1)/2),
    the bracket shared by the Moser norm expansion and the threshold constant.
    [q] is the integer floor; half-integer q is admitted.  [q]!/2^{[q]-1}
    is exact while lgamma shows it fits a float, and inf beyond."""
    rho = np.asarray(rho, dtype=float)
    fq = math.floor(q)
    fits = math.lgamma(fq + 1) - (fq - 1) * math.log(2.0) < 709.0
    combinatorial = (math.factorial(fq) / 2 ** (fq - 1) if fits else math.inf) \
        * (1.0 + (fq + 1) / 2.0)
    out = V_bound + (2 * np.pi) ** (2.0 / q - 1.0) \
        * np.log1p(rho) ** (2.0 / q) * combinatorial
    return out if out.ndim else float(out)


def script_V_integrand(rho, q: float, V_half: float):
    """(1/pi^3) rho^-4 exp(rho^2 * growth_bracket(q, V_half, rho))."""
    rho = np.asarray(rho, dtype=float)
    return rho ** (-4.0) * np.exp(rho**2 * growth_bracket(q, V_half, rho)) / np.pi**3


def compute_script_V(q: float, V_half: float, scan_points: int = 200_001):
    """Minimize the threshold expression over rho in (0, 1/2].

    Returns (value, argmin_rho); a dense scan locates the basin and a
    bounded scalar minimization refines it.  The expression diverges like
    rho^-4 at 0, so the minimizer is interior or the right endpoint.
    """
    if q < 2:
        raise InvalidParameterError("q must be >= 2")
    if V_half <= 0:
        raise InvalidParameterError("V_half must be positive")
    rho = np.linspace(0.5 / scan_points, 0.5, scan_points)
    vals = script_V_integrand(rho, q, V_half)
    i = int(np.argmin(vals))
    lo = rho[max(i - 1, 0)]
    hi = rho[min(i + 1, len(rho) - 1)]
    best_rho, best_val = minimize_bounded(
        lambda x: script_V_integrand(x, q, V_half), lo, hi, 1e-14)
    if vals[i] < best_val:
        best_rho, best_val = float(rho[i]), float(vals[i])
    # the endpoint is admissible and often the minimizer
    end_val = float(script_V_integrand(0.5, q, V_half))
    if end_val <= best_val:
        best_rho, best_val = 0.5, end_val
    return best_val, best_rho
