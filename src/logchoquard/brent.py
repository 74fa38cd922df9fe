"""Bounded scalar minimization by Brent's method (Brent 1973, ch. 5).

A port of scipy 1.17's ``minimize_scalar(method="bounded")`` (fminbound):
golden-section steps, parabolic steps where the parabola through the last
three points is acceptable, the same tolerance updates and the same cap of
500 evaluations.  It lives in the package so that no command pays for
importing ``scipy.optimize``.  On finite values it takes scipy's steps in the
same float64 arithmetic, so it returns the same point and value after the
same evaluations.

It departs from scipy in one place: a nan or +inf value is worse than any
finite one and never replaces the best point.  scipy keeps a nan first trial
for good, because ``fu <= nan`` is never true.  Pure-float arithmetic also
raises no RuntimeWarning where inf - inf turns a parabola into nan; the
search then takes a golden-section step, as scipy does.
"""

from __future__ import annotations

import math

from .errors import InvalidParameterError

GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
SQRT_EPS = math.sqrt(2.2e-16)
MAX_EVALUATIONS = 500


def _value(func, x):
    """func(x) as a float, with nan read as +inf."""
    f = float(func(x))
    return math.inf if f != f else f


def minimize_bounded(func, lo, hi, xatol):
    """(x, func(x)) with x in [lo, hi] minimizing ``func`` to within
    ``xatol``.  The value is +inf when every trial was nan or +inf."""
    lo, hi, xatol = float(lo), float(hi), float(xatol)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise InvalidParameterError(
            f"bounds must be finite with lo <= hi, got ({lo}, {hi})")
    if not 0.0 < xatol < math.inf:
        raise InvalidParameterError(f"xatol must be positive, got {xatol}")
    a, b = lo, hi
    # xf: best point; nfc: second best; fulc: the previous nfc
    fulc = a + GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = _value(func, xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = GOLDEN_MEAN * e

        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = _value(func, x)
        num += 1

        if fu <= fx and fu < math.inf:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= MAX_EVALUATIONS:
            break
    return xf, fx
