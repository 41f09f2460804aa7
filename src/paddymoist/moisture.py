"""Lagged-output soil moisture estimator.

The estimator is a small sigmoid network whose inputs for day t are the
day's forcing (ET0, precipitation, crop coefficient) plus the previous
``lag`` soil moisture values, so the trained net is iterated like an
autoregressive model.  Two ways of supplying the lagged values are
implemented:

* teacher forced - lags come from the observed series (training always
  works this way, since targets require observations anyway);
* closed loop - lags are the model's own previous estimates, the stricter
  deployment analog where no moisture sensor is available.

Because every estimate is a denormalized sigmoid output, closed-loop
trajectories are confined to the moisture normalizer's bounds and cannot
diverge, whatever the weights.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import add, attrgetter
from typing import NamedTuple

from . import ann
from .ann import Mlp, MlpTopology, Normalizer, Pattern, TrainConfig
from .errors import DimensionError, InsufficientHistoryError
from .evapo import DEFAULT_ET0_NORM

DEFAULT_PRECIP_NORM = Normalizer(0.0, 100.0)  # mm/day
DEFAULT_KC_NORM = Normalizer(0.0, 1.5)       # dimensionless
DEFAULT_THETA_NORM = Normalizer(0.0, 1.0)    # m3/m3, full physical range

_INF = math.inf
_FORCING = attrgetter("et0", "precip", "kc")  # by name, so a ledger row serves too


class SimMode(enum.Enum):
    """Where simulated lagged inputs come from."""

    TEACHER_FORCED = "teacher_forced"
    CLOSED_LOOP = "closed_loop"


class _ForcingFields(NamedTuple):
    et0: float
    precip: float
    kc: float


class ForcingDay(_ForcingFields):
    """One day of moisture-model forcing.

    A tuple ``(et0, precip, kc)``, built by position or keyword.  A
    non-finite value, a negative ``et0`` or ``precip`` or a ``kc`` not > 0
    is rejected when it is built, by ``_make`` and ``_replace`` too.
    """

    __slots__ = ()

    def __new__(cls, et0, precip, kc):
        # one chained test per day, false for NaN too; the checks below name the fault
        if not (0.0 <= et0 < _INF and 0.0 <= precip < _INF and 0.0 < kc < _INF):
            for name, value in (("et0", et0), ("precip", precip), ("kc", kc)):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
            if et0 < 0.0:
                raise ValueError(f"et0 must be >= 0, got {et0}")
            if precip < 0.0:
                raise ValueError(f"precip must be >= 0, got {precip}")
            raise ValueError(f"kc must be > 0, got {kc}")
        return tuple.__new__(cls, (et0, precip, kc))

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


@dataclass(frozen=True)
class MoistureNormalizers:
    """Fixed normalization bounds for the four input kinds."""

    et0: Normalizer = DEFAULT_ET0_NORM
    precip: Normalizer = DEFAULT_PRECIP_NORM
    kc: Normalizer = DEFAULT_KC_NORM
    theta: Normalizer = DEFAULT_THETA_NORM


@dataclass
class MoistureModel:
    """Trained estimator: (3 + lag)-n-1 network plus normalizers."""

    net: Mlp
    lag: int = 1
    norms: MoistureNormalizers = field(default_factory=MoistureNormalizers)

    def __post_init__(self):
        if self.lag < 1:
            raise ValueError(f"lag must be >= 1, got {self.lag}")
        t = self.net.topology
        if t.n_inputs != 3 + self.lag or t.n_outputs != 1:
            raise ValueError(
                f"moisture net must be ({3 + self.lag})-n-1 for lag {self.lag}, got {t}"
            )


def _input_norms(norms: MoistureNormalizers, lag: int) -> "list[Normalizer]":
    """The normalizer of each input: et0, precip, kc, then ``lag`` theta lags."""
    return [norms.et0, norms.precip, norms.kc, *[norms.theta] * lag]


def _teacher_forced_rows(forcing: "list[ForcingDay]", theta: "list[float]", lag: int):
    """Day t's raw inputs (et0_t, precip_t, kc_t, theta_{t-1} .. theta_{t-lag}),
    the lags newest first, for each day of ``forcing``, where ``theta[i]`` is
    theta_{i - lag}.  The forcing is read by name, so a ledger row serves too."""
    n = len(forcing)
    return map(add, map(_FORCING, forcing),
               zip(*(theta[lag - k:lag - k + n] for k in range(1, lag + 1))))


def _training_rows(forcing: "list[ForcingDay]", theta_obs: "list[float]", lag: int,
                   norms: MoistureNormalizers) -> "list[list[float]]":
    """The normalized ``(*inputs, target)`` row of each :func:`build_patterns` pair."""
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    n = len(forcing)
    if len(theta_obs) != n:
        raise DimensionError(
            f"forcing has {n} days but theta_obs has {len(theta_obs)}"
        )
    if n <= lag:
        raise InsufficientHistoryError(
            f"{n} days cannot supply lag-{lag} patterns (need at least {lag + 1})"
        )
    scale = [*_input_norms(norms, lag), norms.theta]
    return [ann.normalize_row((*row, theta), scale)
            for row, theta in zip(_teacher_forced_rows(forcing[lag:], theta_obs, lag),
                                  theta_obs[lag:])]


def build_patterns(forcing: "list[ForcingDay]", theta_obs: "list[float]", lag: int = 1,
                   norms: MoistureNormalizers = MoistureNormalizers()) -> list[Pattern]:
    """Teacher-forced training pairs, one per day from ``lag`` onward.

    Day t's inputs are (et0_t, precip_t, kc_t, theta_{t-1} .. theta_{t-lag})
    and its target theta_t, all normalized against the fixed bounds.
    """
    return [Pattern(row[:-1], row[-1:])
            for row in _training_rows(forcing, theta_obs, lag, norms)]


def train_moisture_model(forcing: "list[ForcingDay]", theta_obs: "list[float]",
                         cfg: TrainConfig, lag: int = 1,
                         norms: MoistureNormalizers = MoistureNormalizers(),
                         trace: "list[ann.GainTrace] | None" = None,
                         ) -> tuple[MoistureModel, list[float]]:
    """Train on the teacher-forced :func:`build_patterns` pairs; deterministic
    per seed."""
    net, losses = ann._train_rows(MlpTopology(3 + lag, 8, 1),
                                  _training_rows(forcing, theta_obs, lag, norms), cfg, trace)
    return MoistureModel(net, lag, norms), losses


def simulate_moisture(m: MoistureModel, forcing: "list[ForcingDay]",
                      theta_init: "list[float]", mode: SimMode,
                      theta_obs: "list[float] | None" = None) -> list[float]:
    """One moisture estimate per forcing day.

    ``theta_init`` seeds the ``lag`` values preceding day 0, oldest first.
    In TEACHER_FORCED mode lagged inputs are taken from ``theta_obs``
    (required, same length as forcing); in CLOSED_LOOP they are the model's
    own previous estimates.
    """
    if len(theta_init) != m.lag:
        raise DimensionError(
            f"theta_init must hold {m.lag} value(s), got {len(theta_init)}"
        )
    rows, feedback, init = map(_FORCING, forcing), m.lag, theta_init
    if mode is SimMode.TEACHER_FORCED:
        if theta_obs is None:
            raise ValueError("TEACHER_FORCED simulation requires theta_obs")
        if len(theta_obs) != len(forcing):
            raise DimensionError(
                f"theta_obs has {len(theta_obs)} days but forcing has {len(forcing)}"
            )
        rows = _teacher_forced_rows(forcing, [*theta_init, *theta_obs], m.lag)
        feedback, init = 0, ()
    return ann.series(m.net, rows, _input_norms(m.norms, m.lag), m.norms.theta,
                      feedback, init)
