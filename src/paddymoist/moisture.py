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

from . import ann
from .ann import Mlp, MlpTopology, Normalizer, Pattern, TrainConfig
from .errors import DimensionError, InsufficientHistoryError
from .evapo import DEFAULT_ET0_NORM

DEFAULT_PRECIP_NORM = Normalizer(0.0, 100.0)  # mm/day
DEFAULT_KC_NORM = Normalizer(0.0, 1.5)       # dimensionless
DEFAULT_THETA_NORM = Normalizer(0.0, 1.0)    # m3/m3, full physical range


class SimMode(enum.Enum):
    """Where simulated lagged inputs come from."""

    TEACHER_FORCED = "teacher_forced"
    CLOSED_LOOP = "closed_loop"


@dataclass(frozen=True)
class ForcingDay:
    """One day of moisture-model forcing."""

    et0: float
    precip: float
    kc: float

    def __post_init__(self):
        isfinite = math.isfinite
        # one chained test per day; the loop only finds the field to name
        if not (isfinite(self.et0) and isfinite(self.precip) and isfinite(self.kc)):
            for name in ("et0", "precip", "kc"):
                value = getattr(self, name)
                if not isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
        if self.et0 < 0.0:
            raise ValueError(f"et0 must be >= 0, got {self.et0}")
        if self.precip < 0.0:
            raise ValueError(f"precip must be >= 0, got {self.precip}")
        if self.kc <= 0.0:
            raise ValueError(f"kc must be > 0, got {self.kc}")


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


def _input_vector(f: ForcingDay, lags: "list[float]", norms: MoistureNormalizers) -> list[float]:
    """One day's normalized inputs: et0, precip, kc, then ``lags`` newest first."""
    normalize, n_theta = ann.normalize, norms.theta
    x = [normalize(f.et0, norms.et0), normalize(f.precip, norms.precip),
         normalize(f.kc, norms.kc)]
    for v in lags:
        x.append(normalize(v, n_theta))
    return x


def build_patterns(forcing: "list[ForcingDay]", theta_obs: "list[float]", lag: int = 1,
                   norms: MoistureNormalizers = MoistureNormalizers()) -> list[Pattern]:
    """Teacher-forced training pairs, one per day from ``lag`` onward.

    Day t's inputs are (et0_t, precip_t, kc_t, theta_{t-1} .. theta_{t-lag})
    and its target theta_t, all normalized against the fixed bounds.
    """
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
    patterns = []
    for t in range(lag, n):
        lags = [theta_obs[t - k] for k in range(1, lag + 1)]
        patterns.append(Pattern(
            _input_vector(forcing[t], lags, norms),
            [ann.normalize(theta_obs[t], norms.theta)],
        ))
    return patterns


def train_moisture_model(forcing: "list[ForcingDay]", theta_obs: "list[float]",
                         cfg: TrainConfig, lag: int = 1,
                         norms: MoistureNormalizers = MoistureNormalizers(),
                         trace: "list[ann.GainTrace] | None" = None,
                         ) -> tuple[MoistureModel, list[float]]:
    """Train on the teacher-forced patterns; deterministic per seed."""
    patterns = build_patterns(forcing, theta_obs, lag, norms)
    net, losses = ann.train(Mlp.zeros(MlpTopology(3 + lag, 8, 1)), patterns, cfg,
                            trace=trace)
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
    if mode is SimMode.TEACHER_FORCED:
        if theta_obs is None:
            raise ValueError("TEACHER_FORCED simulation requires theta_obs")
        if len(theta_obs) != len(forcing):
            raise DimensionError(
                f"theta_obs has {len(theta_obs)} days but forcing has {len(forcing)}"
            )
    fwd = ann.bind(m.net)
    norms, n_theta = m.norms, m.norms.theta
    teacher = mode is SimMode.TEACHER_FORCED
    # theta_{t-1} .. theta_{t-lag}, newest first, as build_patterns orders them
    lags = list(reversed(theta_init))
    estimates: list[float] = []
    for t, f in enumerate(forcing):
        (u,) = fwd(_input_vector(f, lags, norms))
        estimate = ann.denormalize(u, n_theta)
        estimates.append(estimate)
        lags = [theta_obs[t] if teacher else estimate] + lags[:-1]
    return estimates
