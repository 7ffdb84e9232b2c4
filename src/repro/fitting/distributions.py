"""The two distribution functions the fitting layer needs, in closed form.

A captured model answers "with error bounds" (Figure 2, step 5) and is judged
by "an F-test against a model with fewer parameters" (§3).  Those are exactly
two scalar distribution functions — the Student-t quantile behind a prediction
interval and the F survival function behind the F-test's p-value — and both
reduce to the regularised incomplete beta function ``I_x(a, b)``.  Evaluating
it here, on ``math`` alone, keeps a statistics library out of every process
that serves queries.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = ["regularized_incomplete_beta", "f_survival", "student_t_quantile"]

#: Relative change of the continued fraction's value at which it has converged.
_CF_TOLERANCE = 1e-15
#: The fraction needs O(sqrt(max(a, b))) terms; this bounds a = 1e9 ten times over.
_CF_MAX_TERMS = 1_000_000
#: Stand-in for a zero denominator in the modified Lentz recurrence.
_TINY = 1e-300


def _beta_continued_fraction(x: float, a: float, b: float) -> float:
    """Continued fraction of ``I_x(a, b)`` by the modified Lentz method.

    Converges quickly for ``x < (a + 1) / (a + b + 2)``; the caller picks the
    side of the symmetry ``I_x(a, b) = 1 - I_{1-x}(b, a)`` that satisfies it.
    """
    a_plus_b, a_plus_1, a_minus_1 = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - a_plus_b * x / a_plus_1
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    value = d
    for m in range(1, _CF_MAX_TERMS):
        m2 = 2.0 * m
        for term in (
            m * (b - m) * x / ((a_minus_1 + m2) * (a + m2)),
            -(a + m) * (a_plus_b + m) * x / ((a + m2) * (a_plus_1 + m2)),
        ):
            d = 1.0 + term * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + term / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            value *= delta
        if abs(delta - 1.0) < _CF_TOLERANCE:
            break
    return value


def _incomplete_beta(x: float, y: float, a: float, b: float) -> float:
    """``I_x(a, b)`` given both ``x`` and ``y = 1 - x``.

    Callers that know ``x`` as a ratio pass the complement computed from the
    same ratio, so neither tail loses digits to ``1 - x``.
    """
    if math.isnan(x) or math.isnan(y):
        return math.nan  # the fraction below would never converge
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    # log of the argument nearer 1 from its small complement: a rounding error
    # in x itself would be multiplied by a (half the degrees of freedom).
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    # The log-gamma terms are large and cancel; summed apart they leave an
    # error that depends on (a, b) only, so the result stays smooth in x.
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    log_front = a * log_x + b * log_y - log_beta
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_continued_fraction(x, a, b) / a
    return 1.0 - math.exp(log_front) * _beta_continued_fraction(y, b, a) / b


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """The regularised incomplete beta function ``I_x(a, b)`` for ``0 <= x <= 1``."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"a and b must be positive, got a={a!r}, b={b!r}")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    return _incomplete_beta(x, 1.0 - x, a, b)


def f_survival(f: float, d1: float, d2: float) -> float:
    """``P(F > f)`` for an F distribution with ``(d1, d2)`` degrees of freedom.

    ``I_{d2 / (d2 + d1 f)}(d2 / 2, d1 / 2)``.  A NaN statistic gives NaN,
    ``f <= 0`` gives 1 and ``f = inf`` gives 0.
    """
    if not (d1 > 0.0 and d2 > 0.0):
        raise ValueError(f"degrees of freedom must be positive, got d1={d1!r}, d2={d2!r}")
    if f <= 0.0:
        return 1.0
    scaled = d1 * f
    if scaled == math.inf:
        return 0.0
    total = d2 + scaled
    return _incomplete_beta(d2 / total, scaled / total, 0.5 * d2, 0.5 * d1)


def _normal_quantile_start(q: float) -> float:
    """Upper-tail normal quantile to ~4.5e-4 (Abramowitz & Stegun 26.2.23).

    Clamped at zero: just below ``q = 0.5`` the approximation's error exceeds
    the quantile itself, and the iteration it seeds works on ``t >= 0``.
    """
    w = math.sqrt(-2.0 * math.log(q))
    z = w - (2.515517 + w * (0.802853 + w * 0.010328)) / (
        1.0 + w * (1.432788 + w * (0.189269 + w * 0.001308))
    )
    return max(z, 0.0)


@lru_cache(maxsize=1024)
def student_t_quantile(p: float, dof: float) -> float:
    """The ``p``-quantile of Student's t with ``dof`` degrees of freedom.

    Closed forms for ``dof`` 1 and 2; otherwise Newton's iteration on the
    upper-tail probability, started from the Cornish-Fisher expansion about
    the normal quantile and kept inside a bracket of the root.  ``dof`` may be
    fractional.  A pure function of two constants of a fitted model
    (confidence level, residual degrees of freedom), hence memoised: the
    serving path pays a dictionary lookup per query, not an iteration.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p!r}")
    if not dof > 0.0:
        raise ValueError(f"dof must be positive, got {dof!r}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_quantile(1.0 - p, dof)
    if dof == 1:
        return math.tan(math.pi * (p - 0.5))
    if dof == 2:
        return (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))

    q = 1.0 - p  # the upper-tail probability the quantile must leave
    z = _normal_quantile_start(q)
    z2 = z * z
    t = z + z * (z2 + 1.0) / (4.0 * dof) + z * ((5.0 * z2 + 16.0) * z2 + 3.0) / (96.0 * dof * dof)
    log_density_scale = (
        math.lgamma(0.5 * (dof + 1.0)) - math.lgamma(0.5 * dof) - 0.5 * math.log(dof * math.pi)
    )
    low, high = 0.0, math.inf  # tail(low) > q > tail(high)
    for _ in range(200):  # Newton needs ~5; doubling out of a heavy tail, tens
        tail = 0.5 * f_survival(t * t, 1.0, dof)
        if tail > q:
            low = t
        else:
            high = t
        density = math.exp(log_density_scale - 0.5 * (dof + 1.0) * math.log1p(t * t / dof))
        step = (tail - q) / density if density > 0.0 else math.inf
        # Converged, or the bracket has closed on the evaluation's own noise.
        if abs(step) <= 1e-13 * t or high - low <= 1e-13 * t:
            break
        t += step
        if not low < t < high:
            t = 2.0 * low + 1.0 if high == math.inf else 0.5 * (low + high)
    return t
