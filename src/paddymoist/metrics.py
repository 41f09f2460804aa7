"""Agreement metrics between observed and estimated series.

``r_squared`` is the squared Pearson correlation, which is guaranteed to
fall in [0, 1]; ``nash_sutcliffe`` is the 1 - SSE/SST variant familiar from
hydrology, which can go negative for a poor model and is reported alongside
for transparency.

Every sum is ``math.fsum``, which rounds the exact sum once, whatever the
order of its terms: a mean is that sum over n, and each sum of products is
taken over the deviations from such means (or over the differences).  So a
cell depends neither on the machine nor on the Python version.  A series is
constant when all its values are equal, as counted.  All three cells sum
their squares through ``_squares``, which scales each deviation by a power
of two into [0.5, 1) where their sum is not a normal double (as ``_mean``
scales a mean's values where their sum overflows).  A cell refuses, with
:class:`UndefinedMetricError` naming the metric: a value that is not finite;
a constant observed series; in ``r_squared`` and ``nash_sutcliffe``, a sum
of squared deviations below the least normal double (2^-1022); and
``nash_sutcliffe``'s SSE/SST, or ``rmse``'s result, past the largest double.
"""

from __future__ import annotations

import math
import sys
from operator import mul, sub

from .errors import DimensionError, UndefinedMetricError


def _paired(metric: str, obs, est, min_len: int) -> tuple[list[float], list[float]]:
    a = list(map(float, obs))
    b = list(map(float, est))
    if len(a) != len(b):
        raise DimensionError(f"series lengths differ: {len(a)} vs {len(b)}")
    if len(a) < min_len:
        raise DimensionError(f"need at least {min_len} points, got {len(a)}")
    if not all(map(math.isfinite, a + b)):
        bad = next(v for v in a + b if not math.isfinite(v))
        raise UndefinedMetricError(f"{metric}: a value is {bad!r}, not finite")
    return a, b


def _constant(a: list[float]) -> bool:
    """Whether ``a``'s values are all equal (118 of 0.3 have a mean that is not)."""
    return a.count(a[0]) == len(a)


def _mean(a: list[float]) -> float:
    """fsum(a) / n; where that sum overflows, over the values scaled by 2^-s
    so that it stays below 2^1023, and scaled back."""
    try:
        return math.fsum(a) / len(a)
    except OverflowError:
        s = math.frexp(max(map(abs, a)))[1] + len(a).bit_length() - 1023
        return math.ldexp(math.fsum([math.ldexp(v, -s) for v in a]) / len(a), s)


def _squares(a: list[float], b: list[float]) -> tuple[list[float], float, int]:
    """``(d, s, e)``: d_i is (a_i - b_i) 2^-e, and s is the sum of the d_i
    squared.  e is 0 where that sum is a normal double; otherwise each
    difference (of halves, where it would pass the largest double) is scaled
    into [0.5, 1) before it is squared."""
    d = list(map(sub, a, b))
    try:
        s = math.fsum(map(mul, d, d))
    except OverflowError:
        s = math.inf
    if sys.float_info.min <= s < math.inf:
        return d, s, 0
    if half := math.inf in map(abs, d):
        d = [x / 2 - y / 2 for x, y in zip(a, b)]
    e = math.frexp(max(map(abs, d)))[1]
    d = [math.ldexp(v, -e) for v in d]
    return d, math.fsum(map(mul, d, d)), e + half


def r_squared(obs, est) -> float:
    """Squared Pearson correlation between the two series; in [0, 1]."""
    a, b = _paired("r_squared", obs, est, 2)
    if _constant(a):
        raise UndefinedMetricError("observed series is constant; correlation undefined")
    if _constant(b):
        return 0.0
    da, ssa, ea = _squares(a, [_mean(a)] * len(a))
    db, ssb, eb = _squares(b, [_mean(b)] * len(b))
    if min(math.frexp(ssa)[1] + 2 * ea, math.frexp(ssb)[1] + 2 * eb) <= -1022:
        raise UndefinedMetricError("r_squared: a sum of squared deviations underflows")
    # sab / sqrt(ssa * ssb), each sum scaled by a power of two (exactly) into
    # [0.5, 2), so that the product neither overflows nor underflows (the
    # scales 2^-ea and 2^-eb that _squares gave da and db cancel in the ratio)
    i, j = math.frexp(ssa)[1] // 2, math.frexp(ssb)[1] // 2
    r = (math.ldexp(math.fsum(map(mul, da, db)), -i - j)
         / math.sqrt(math.ldexp(ssa, -2 * i) * math.ldexp(ssb, -2 * j)))
    return min(r * r, 1.0)  # rounding can carry it an ulp or two past 1


def nash_sutcliffe(obs, est) -> float:
    """1 - SSE/SST against the observed mean; 1 is perfect, can be negative."""
    a, b = _paired("nash_sutcliffe", obs, est, 2)
    if _constant(a):
        raise UndefinedMetricError("observed series is constant; SST is zero")
    _, sst, i = _squares(a, [_mean(a)] * len(a))
    if math.frexp(sst)[1] + 2 * i <= -1022:  # below 2^-1022
        raise UndefinedMetricError("nash_sutcliffe: SST underflows")
    _, sse, j = _squares(a, b)
    ratio = sse / sst
    if ratio == math.inf or math.frexp(ratio)[1] + 2 * (j - i) > 1024:  # or once scaled back
        raise UndefinedMetricError("nash_sutcliffe: SSE/SST overflows a double")
    return 1.0 - math.ldexp(ratio, 2 * (j - i))


def rmse(obs, est) -> float:
    """Root mean squared difference between the two series."""
    a, b = _paired("rmse", obs, est, 1)
    _, sse, e = _squares(a, b)
    try:
        return math.ldexp(math.sqrt(sse / len(a)), e)
    except OverflowError:
        raise UndefinedMetricError("rmse: the result overflows a double") from None
