"""The nonlinearity family (f, F), assumption checkers and the explicit
level-estimate threshold constant.

The kinds (a = 4 pi throughout):

* ``exp_minus_one``  F(s) = e^{a s^2} - 1
* ``power_exp``      F(s) = s^p e^{a s^2}
* ``piecewise``      F(s) = s^q below the splice s0, c s^p e^{a s^2} above,
                     with c solved for continuity of F

f(s) = 0 for s <= 0 (only positive solutions are sought), F(0) = 0.
Exponents a s^2 > 700 are clamped; query ``saturation_mask`` for the flag.
Saturated evaluations run in log space through the closed forms.  The
assumption checker decides (f1)-(f4) from closed forms on each piece, and
from two fixed numbers for exp_minus_one; the threshold constant in log rho
is found by ``energy.ray_max``, the package's one 1D search.
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
# exp_minus_one's F f' / f^2 = (1 - e^{-y})(1 + 1/2y), y = a s^2, depends on
# no spec value and has no closed-form extrema: it rises from 1/2 at 0 to its
# maximum at s = 0.50569 and falls to 1, and it reaches (1 - ONSET_EPSILON)^2
# at the onset below.  Both are a 40-digit bisection rounded to a float.
EXP_MINUS_ONE_RATIO_MAX = 1.1091206861354945
EXP_MINUS_ONE_ONSET = 0.21032331725903342

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


def _closed_form(spec: NonlinearitySpec, s, k: int, log: bool = False):
    """F^(k)(s) at s > 0; the value form clamps its exponent at the guard.
    With ``log`` it is log F^(k)(s): +-inf where (p - k) log s overflows."""
    if spec.kind == "exp_minus_one":
        if k == 0:
            x = A_CRIT * s**2
            return x + np.log1p(-np.exp(-x)) if log \
                else np.expm1(np.minimum(x, EXP_GUARD))
        k -= 1
    if log:
        with np.errstate(over="ignore"):
            return _by_piece(spec, s, lambda log_c, p, a: log_c
                             + (p - k) * np.log(s)
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


# the ratio F f' / f^2 -------------------------------------------------------

def _piece_ratio(p, x):
    """F f' / f^2 = 1 + (x - p) / P^2 on a piece c s^p e^{a s^2}, with
    x = 2 a s^2 and P = p + x, term by term over P: with u = p / P and
    v = x / P it is u (p - 1) / P + v (2u + 1 / P + v).  P^2 overflows once
    p passes ~1e154, and the equal 1 + (x - p) / P^2 cancels to rounding
    noise for p near 1 at small x; where P itself overflows the ratio is 1."""
    with np.errstate(invalid="ignore"):       # inf / inf where P overflows
        P = p + x
        u, v = p / P, x / P
        return np.where(P < np.inf, u * ((p - 1) / P) + v * (2 * u + 1 / P + v), 1.0)


def ratio_Ffprime_f2(spec: NonlinearitySpec, s):
    """F f' / f^2 in cancellation-safe closed forms."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise InvalidParameterError("the ratio is defined for s > 0 only")
    if spec.kind == "exp_minus_one":
        x = A_CRIT * s**2
        out = -np.expm1(-x) * (1.0 + 1.0 / (2.0 * x))
    else:
        out = _by_piece(spec, s, lambda c, p, a: _piece_ratio(p, 2 * a * s**2))
    return out if out.ndim else float(out)


# assumption checking --------------------------------------------------------

@dataclass(frozen=True)
class AssumptionReport:
    f1_ok: bool
    f2_ok: bool
    f3_ok: bool
    f4_ok: bool
    delta_estimate: float         # 0.99 inf F f' / f^2
    C_estimate: float             # 1.01 sup F f' / f^2
    f4_tail_power: float          # s^3 f F e^{-8 pi s^2} grows like s^this
    script_V: float
    script_V_argmin: float        # the rho at which script_V is attained
    ar_improved_ok: bool          # F(s) <= (1 - delta) s f(s) for all s > 0
    q_limit: float                # limit of f(s)/s^{q-1} at 0
    s_epsilon: float              # onset of the (1 - eps) regime
    epsilon: float

    @property
    def all_ok(self) -> bool:
        return self.f1_ok and self.f2_ok and self.f3_ok and self.f4_ok


def check_assumptions(spec: NonlinearitySpec,
                      potential: Optional[PeriodicCoefficient] = None) -> AssumptionReport:
    """Decide the growth assumptions from closed forms on each piece
    c s^p e^{a s^2} of F, with x = 2 a s^2; nothing is sampled, and
    failures are reported, never raised.

    * (f1): f >= 0, which every kind with p > 0 meets, and the limit of
      f / s^{q-1} at 0 is finite.
    * (f2): F f' / f^2 = 1 + (x - p) / (p + x)^2 rises from (p - 1)/p at
      x = 0 to 1 + 1/(8p) at x = 3p, then falls to 1; (f2) needs a uniform
      delta > 0, so an infimum 0 fails.
    * (f3): the ratio tends to 1 on every kind.
    * (f4): s^3 f F e^{-8 pi s^2} is c^2 s^{2p+2} (p + x) on a piece and
      2a s^4 (1 - e^{-a s^2}) for exp_minus_one; it grows like s to the
      reported tail power, so its liminf is +inf, above any finite
      threshold script_V.
    * AR: F / (s f) is 1 / (p + x) on a piece and (1 - e^{-y}) / 2y,
      y = a s^2, for exp_minus_one; the improvement needs delta > 0 and
      its sup at most 1 - delta.
    * s_epsilon: the least s past which sqrt(F f' / f^2) >= 1 - eps; on a
      piece the ratio reaches (1 - eps)^2 = 1 - k at
      x = 2p(1 - kp) / (sqrt(1 + 8kp) + 1 + 2kp) if kp < 1, and never
      falls below it otherwise.
    """
    a, eps = A_CRIT, ONSET_EPSILON
    k = 1.0 - (1.0 - eps) ** 2
    if spec.kind == "exp_minus_one":
        lo, ar_sup, tail_power = 0.5, 0.5, 4.0
        hi, s_eps = EXP_MINUS_ONE_RATIO_MAX, EXP_MINUS_ONE_ONSET
        q_limit = 2 * a if spec.q == 2 else math.inf      # f / s = 2a e^{a s^2}
    else:
        # the exponential piece starts at x0: at 0 for power_exp, at the
        # splice for piecewise (s0 * s0, not s0**2, is inf past ~1e154)
        p, q = float(spec.p), float(spec.q)
        x0 = 2 * a * spec.s0 * spec.s0 if spec.kind == "piecewise" else 0.0
        # the piece's inf is min(ratio at x0, 1): at x0 = 0, (p - 1)/p < 1,
        # and a splice adds the power piece's (q - 1)/q < 1
        lo = float(_piece_ratio(p, x0))
        hi = 1 + 1 / (8 * p) if x0 <= 3 * p else lo
        ar_sup, tail_power = 1 / (p + x0), 2 * p + 4
        onset = 2 * p * (1 - k * p) / (math.sqrt(1 + 8 * k * p) + 1 + 2 * k * p) \
            if k * p < 1 else 0.0
        s_eps = math.sqrt(onset / (2 * a)) if onset > x0 else 0.0
        # f / s^{q-1} = s^{p-q} (p + x) e^{a s^2} on power_exp
        q_limit = p if p == q else (0.0 if p > q else math.inf)
        if spec.kind == "piecewise":            # F = s^q below the splice
            # there F / (s f) = 1/q < 1 - 0.99 (q - 1)/q <= 1 - delta
            below = (q - 1) / q
            lo, hi, q_limit = min(lo, below), max(hi, below), q
            if s_eps == 0.0 and below < 1.0 - k:
                s_eps = spec.s0

    # (f2) keeps a 1% safety margin on both bounds
    delta_est, c_est = 0.99 * lo, 1.01 * hi
    pot = potential if potential is not None else PeriodicCoefficient(1.0)
    script_v, script_v_argmin = compute_script_V(spec.q, pot.max_within(0.5))
    return AssumptionReport(
        f1_ok=q_limit < math.inf, f2_ok=lo > 0 and hi < math.inf, f3_ok=True,
        f4_ok=script_v < math.inf,              # the liminf is +inf
        delta_estimate=delta_est, C_estimate=c_est, f4_tail_power=tail_power,
        script_V=script_v, script_V_argmin=script_v_argmin,
        ar_improved_ok=delta_est > 0 and ar_sup <= 1.0 - delta_est,
        q_limit=q_limit, s_epsilon=s_eps, epsilon=eps,
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
