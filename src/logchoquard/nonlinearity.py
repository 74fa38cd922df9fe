"""The nonlinearity family (f, F), assumption checkers and the explicit
level-estimate threshold constant.

The kinds (a = 4 pi throughout):

* ``exp_minus_one``  F(s) = e^{a s^2} - 1
* ``power_exp``      F(s) = s^p e^{a s^2}
* ``piecewise``      F(s) = s^q below the splice s0, c s^p e^{a s^2} above,
                     with c solved for continuity of F

f(s) = 0 for s <= 0 (only positive solutions are sought), F(0) = 0.
Exponents a s^2 > 700 are clamped; query ``saturation_mask`` for the flag.
Evaluations that would overflow (tail checks, envelope fits) run in log
space through the closed forms.  The threshold constant is minimized in
log rho by ``energy.ray_max``, the package's one 1D search.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InvalidParameterError
from .spaces import EXP_GUARD, PeriodicCoefficient

A_CRIT = 4.0 * np.pi
ONSET_EPSILON = 0.1         # s_epsilon: onset of sqrt(F f' / f^2) >= 1 - eps
F3_TOLERANCE = 0.01         # (f3) holds if |tail limit - 1| is below this

KINDS = ("exp_minus_one", "power_exp", "piecewise")


@dataclass(frozen=True)
class NonlinearitySpec:
    """Parametric description of (f, F) with growth data (p, q, s0)."""

    kind: str = "exp_minus_one"
    p: float = 1.0
    q: float = 2.0
    s0: float = 1.0
    c_profile: PeriodicCoefficient = field(
        default_factory=lambda: PeriodicCoefficient(1.0))

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidParameterError(f"unknown nonlinearity kind {self.kind!r}")
        if not self.p > 0:
            raise InvalidParameterError("p must be positive")
        if not self.q >= 2:
            raise InvalidParameterError("q must be >= 2")
        if not self.s0 > 0:
            raise InvalidParameterError("s0 must be positive")

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


# one closed form for every kind ---------------------------------------------
#
# On each piece F is c s^p e^{a s^2}, whose k-th derivative is
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
    """form(c, p, a) on each piece c s^p e^{a s^2} of the kind,
    joined at the splice s0 of piecewise; c is passed as log c if ``log``."""
    if spec.kind == "piecewise":
        with np.errstate(over="ignore"):      # c = inf when log c > 709
            c = spec.log_splice_constant if log else np.exp(spec.log_splice_constant)
        return np.where(s <= spec.s0, form(0.0 if log else 1.0, spec.q, 0.0),
                        form(c, spec.p, A_CRIT))
    c, p = {"power_exp": (1.0, spec.p), "exp_minus_one": (2 * A_CRIT, 1.0)}[spec.kind]
    return form(math.log(c) if log else c, p, A_CRIT)


def _closed_form(spec: NonlinearitySpec, s, k: int, log: bool = False,
                 power: float = 0.0):
    """F^(k)(s) at s > 0; the value form clamps its exponent at the guard.
    With ``log`` it is log(F^(k)(s) / s^power), the powers of s cancelled
    on each piece c s^p e^{a s^2} (not in the F of exp_minus_one): +-inf
    where (p - k - power) log s overflows."""
    if spec.kind == "exp_minus_one":
        if k == 0:
            x = A_CRIT * s**2
            return x + np.log1p(-np.exp(-x)) if log \
                else np.expm1(np.minimum(x, EXP_GUARD))
        k -= 1
    if log:
        with np.errstate(over="ignore"):
            return _by_piece(spec, s, lambda log_c, p, a: log_c
                             + (p - k - power) * np.log(s)
                             + np.log(_poly(p, a, k, s)) + a * s**2, log=True)
    return _by_piece(spec, s, lambda c, p, a: c * s ** (p - k) * _poly(p, a, k, s)
                     * np.exp(np.minimum(a * s**2, EXP_GUARD)))


def _evaluate(spec: NonlinearitySpec, s, k: int, log: bool = False):
    """F^(k)(s) for k = 0, 1, 2, or its log (overflow-free).  Values are
    zero for s <= 0; saturated entries (see saturation_mask) are
    exp(min(log form, EXP_GUARD))."""
    s = np.asarray(s, dtype=float)
    sp = np.maximum(s, 1e-300 if k or log else 0.0)
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


# log-space closed forms for overflow-free tail checks ----------------------

def log_F(spec: NonlinearitySpec, s):
    return _evaluate(spec, s, 0, log=True)


def log_f(spec: NonlinearitySpec, s):
    return _evaluate(spec, s, 1, log=True)


def _log_over_power(spec: NonlinearitySpec, s, k: int, power: float):
    """log(F^(k)(s) / s^power) at s > 0 for k = 0, 1.  The powers of s cancel
    in the closed form, so p = q near 1e308 loses no digit; exp_minus_one
    (p = 1, nothing cancels) divides in log space."""
    if spec.kind == "exp_minus_one":
        return (log_F, log_f)[k](spec, s) - power * np.log(s)
    return _closed_form(spec, s, k, log=True, power=power)


def log_s3fF_tail(spec: NonlinearitySpec, s):
    """log of s^3 f(s) F(s) e^{-8 pi s^2}, the liminf quantity of the
    growth-floor assumption, computed without overflow."""
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore"):          # +inf for p near the float limit
        return 3.0 * np.log(s) + log_f(spec, s) + log_F(spec, s) - 2 * A_CRIT * s**2


# the ratio F f' / f^2 -------------------------------------------------------

def ratio_Ffprime_f2(spec: NonlinearitySpec, s):
    """F f' / f^2 in cancellation-safe closed forms."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise InvalidParameterError("the ratio is defined for s > 0 only")
    if spec.kind == "exp_minus_one":
        x = A_CRIT * s**2
        out = -np.expm1(-x) * (1.0 + 1.0 / (2.0 * x))
    else:
        # P_2 / P_1^2 term by term over P_1 = p + x, x = 2 a s^2: with
        # u = p / P_1 and v = x / P_1 it is u (p - 1) / P_1 + v (2u + 1 / P_1 + v).
        # P_1^2 overflows once p passes ~1e154, and the equal
        # 1 + (x - p) / P_1^2 cancels to rounding noise for p near 1 at small s
        def ratio(c, p, a):
            p1 = _poly(p, a, 1, s)
            u, v = p / p1, 2 * a * s**2 / p1
            return u * ((p - 1) / p1) + v * (2 * u + 1 / p1 + v)
        out = _by_piece(spec, s, ratio)
    return out if out.ndim else float(out)


# assumption checking --------------------------------------------------------

def log_F_over_sf(spec: NonlinearitySpec, s):
    """log(F(s) / (s f(s))) at s > 0 without cancellation: F / (s f) is
    (1 - e^{-x}) / 2x, x = a s^2, for exp_minus_one, 1 / P_1 on a piece."""
    if spec.kind == "exp_minus_one":
        x = A_CRIT * s**2
        return np.log(-np.expm1(-x)) - np.log(2 * x)
    return -np.log(_by_piece(spec, s, lambda c, p, a: _poly(p, a, 1, s)))


@dataclass(frozen=True)
class ScanPlan:
    """Sampling plan for assumption checks on (0, s_max]."""

    s_max: float = 10.0
    num: int = 2000
    s_min: float = 1e-4

    def __post_init__(self):
        if not self.s_max >= 10.0:
            raise InvalidParameterError("scan must reach s_max >= 10")
        # the (f4) tail check forms 8 pi s^2, which overflows from s_max ~ 2.7e153
        if not math.isfinite(8 * math.pi * self.s_max * self.s_max):
            raise InvalidParameterError(
                f"scan needs a finite 8 pi s_max^2, got s_max = {self.s_max:g}")
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
    script_V_argmin: float        # the rho at which script_V is attained
    sample_range: tuple
    ar_improved_ok: bool          # F(s) <= (1 - delta) s f(s) on the scan
    envelope_constant: float      # fitted C of the two-branch growth envelope
    q_limit_estimate: float       # limit of f(s)/s^{q-1} at 0
    s_epsilon: float              # onset of the (1 - eps) regime; nan if unreached
    epsilon: float

    @property
    def all_ok(self) -> bool:
        return self.f1_ok and self.f2_ok and self.f3_ok and self.f4_ok


def check_assumptions(spec: NonlinearitySpec, scan: ScanPlan = ScanPlan(),
                      potential: Optional[PeriodicCoefficient] = None) -> AssumptionReport:
    """Evaluate the growth assumptions on the scan; failures are reported,
    never raised."""
    s = scan.points()
    ratios = np.asarray(ratio_Ffprime_f2(spec, s))

    # (f1): sign, behaviour at 0, exponential envelope at infinity
    f_vals = eval_f(spec, s)
    nonneg = bool(np.all(f_vals >= 0))
    head = s <= min(10 * scan.s_min, 0.05)
    with np.errstate(over="ignore"):          # inf for a huge q; reported
        small = np.exp(_log_over_power(spec, s[head], 1, spec.q - 1))
    q_limit = float(small[0]) if small.size else float("nan")
    small_ok = bool(small.size and np.all(np.isfinite(small)) and np.all(small > 0)
                    and small.max() / max(small.min(), 1e-12) < 100)
    tail = s >= scan.s_max / 2
    log_env = _log_over_power(spec, s[tail], 1, spec.p) - A_CRIT * s[tail]**2
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
    f3_ok = abs(f3_limit - 1.0) < F3_TOLERANCE

    # (f4): liminf of s^3 f F e^{-8 pi s^2} compared with the threshold
    pot = potential if potential is not None else PeriodicCoefficient(1.0)
    script_v, script_v_argmin = compute_script_V(spec.q, pot.max_within(0.5))
    tail_log = log_s3fF_tail(spec, s[tail])
    liminf_est = float(np.exp(min(np.min(tail_log), 690.0)))
    f4_ok = bool(liminf_est > script_v)

    # Ambrosetti-Rabinowitz improvement F <= (1 - delta) s f, in log space
    margin = log_F_over_sf(spec, s)
    ar_ok = bool(np.all(margin <= math.log(max(1.0 - delta_est, 1e-12)) + 1e-12))

    # two-branch growth envelope constant
    below = s <= spec.s0
    with np.errstate(over="ignore"):          # inf for a huge q; reported
        env_low = np.exp(_log_over_power(spec, s[below], 0, spec.q)) \
            if np.any(below) else np.array([0.0])
        env_high = np.exp(_log_over_power(spec, s[~below], 0, spec.p - 1)
                          - A_CRIT * s[~below]**2) \
            if np.any(~below) else np.array([0.0])
    envelope_c = float(max(env_low.max(), env_high.max()))

    # onset of sqrt(ratio) >= 1 - eps: the point after the last failure,
    # s[0] without failures, nan if the last fails
    good = np.sqrt(np.maximum(ratios, 0.0)) >= 1.0 - ONSET_EPSILON
    idx = np.nonzero(~good)[0]
    s_eps = float(np.append(s, np.nan)[idx[-1] + 1]) if idx.size else float(s[0])

    return AssumptionReport(
        f1_ok=f1_ok, f2_ok=f2_ok, f3_ok=f3_ok, f4_ok=f4_ok,
        delta_estimate=delta_est, C_estimate=c_est,
        f3_limit_estimate=f3_limit, f4_liminf_estimate=liminf_est,
        script_V=script_v, script_V_argmin=script_v_argmin,
        sample_range=(float(s[0]), float(s[-1])),
        ar_improved_ok=ar_ok, envelope_constant=envelope_c,
        q_limit_estimate=q_limit, s_epsilon=s_eps, epsilon=ONSET_EPSILON,
    )


# the explicit threshold constant --------------------------------------------

def growth_bracket(q: float, V_bound: float, rho):
    """V + (2 pi)^{2/q-1} log^{2/q}(1+rho) ([q]!/2^{[q]-1}) (1 + ([q]+1)/2),
    the bracket shared by the Moser norm expansion and the threshold constant.
    [q] is the integer floor; half-integer q is admitted.  [q]!/2^{[q]-1}
    is exact while lgamma shows it fits a float, and inf beyond."""
    rho = np.asarray(rho, dtype=float)
    fq = math.floor(q)
    # the first test keeps lgamma clear of its own overflow (from ~2.5e305)
    fits = fq < 1e300 and math.lgamma(fq + 1) - (fq - 1) * math.log(2.0) < 709.0
    combinatorial = (math.factorial(fq) / 2 ** (fq - 1) if fits else math.inf) \
        * (1.0 + (fq + 1) / 2.0)
    out = V_bound + (2 * np.pi) ** (2.0 / q - 1.0) \
        * np.log1p(rho) ** (2.0 / q) * combinatorial
    return out if out.ndim else float(out)


def script_V_integrand(rho, q: float, V_half: float):
    """(1/pi^3) rho^-4 exp(rho^2 * growth_bracket(q, V_half, rho))."""
    rho = np.asarray(rho, dtype=float)
    with np.errstate(over="ignore"):          # +inf where the exponent is huge
        return (rho ** (-4.0) * np.exp(rho**2 * growth_bracket(q, V_half, rho))
                / np.pi**3)


def compute_script_V(q: float, V_half: float):
    """Minimize the threshold expression over rho in (0, 1/2].

    Returns (value, argmin_rho).  log of the expression is
    -4 log rho + rho^2 growth_bracket - 3 log pi, strictly convex in
    s = log rho, so ``energy.ray_max`` maximizes its negative over
    s in [log rho_lo, log 1/2] to 1e-10 in s; below rho_lo, rho^-4 / pi^3
    alone overflows.  The value is ``script_V_integrand`` at the argmin,
    and inf where the minimum overflows.
    """
    from .energy import ray_max
    if q < 2:
        raise InvalidParameterError("q must be >= 2")
    if V_half <= 0:
        raise InvalidParameterError("V_half must be positive")
    lo = -(math.log(sys.float_info.max) + 3.0 * math.log(math.pi)) / 4.0
    hi = math.log(0.5)

    def minus_log(s):
        return 4.0 * s - math.exp(2.0 * s) * growth_bracket(q, V_half, math.exp(s)) \
            + 3.0 * math.log(math.pi)
    rho = math.exp(ray_max(minus_log, hi, lo, hi, 1e-10)[0])  # exp(hi) is 1/2
    return float(script_V_integrand(rho, q, V_half)), rho
