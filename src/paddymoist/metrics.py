"""Agreement metrics between observed and estimated series.

``r_squared`` is the squared Pearson correlation, which is guaranteed to
fall in [0, 1]; ``nash_sutcliffe`` is the 1 - SSE/SST variant familiar from
hydrology, which can go negative for a poor model and is reported alongside
for transparency.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, UndefinedMetricError


def _paired(obs, est, min_len: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(obs, dtype=float)
    b = np.asarray(est, dtype=float)
    if a.shape != b.shape:
        raise DimensionError(f"series lengths differ: {a.size} vs {b.size}")
    if a.size < min_len:
        raise DimensionError(f"need at least {min_len} points, got {a.size}")
    return a, b


def _constant(a: np.ndarray) -> bool:
    """Whether ``a``'s values are all equal (118 of 0.3 have a mean that is not)."""
    return bool(a[0] == a[-1] and a.min() == a.max())


def r_squared(obs, est) -> float:
    """Squared Pearson correlation between the two series; in [0, 1]."""
    a, b = _paired(obs, est, 2)
    da = a - a.mean()
    db = b - b.mean()
    ssa = float(da @ da)
    ssb = float(db @ db)
    if _constant(a) or ssa == 0.0:
        raise UndefinedMetricError("observed series is constant; correlation undefined")
    if _constant(b) or ssb == 0.0:
        return 0.0
    r = float(da @ db) / math.sqrt(ssa * ssb)
    return r * r


def nash_sutcliffe(obs, est) -> float:
    """1 - SSE/SST against the observed mean; 1 is perfect, can be negative."""
    a, b = _paired(obs, est, 2)
    da = a - a.mean()
    sst = float(da @ da)
    if _constant(a) or sst == 0.0:
        raise UndefinedMetricError("observed series is constant; SST is zero")
    sse = float(np.sum((a - b) ** 2))
    return 1.0 - sse / sst


def rmse(obs, est) -> float:
    """Root mean squared difference between the two series."""
    a, b = _paired(obs, est, 1)
    return float(np.sqrt(np.mean((a - b) ** 2)))
