"""Four-stage crop-coefficient curve (FAO-56 style).

Kc is constant through the initial stage, ramps linearly to its mid-season
plateau across the development stage, and ramps linearly again to the
end-of-season value across the late stage.  Defaults are the FAO-56
tabulated values for paddy rice.  A :class:`KcSchedule` rejects, when
built, a stage shorter than one day and an anchor Kc not > 0 (NaN too), so a
config fails at parse; :func:`validate_schedule` fits the stages to a season.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import OutOfSeasonError, ScheduleMismatchError


@dataclass(frozen=True)
class KcSchedule:
    """Stage lengths (days) and the three anchor Kc values."""

    len_ini: int = 20
    len_dev: int = 30
    len_mid: int = 40
    len_late: int = 30
    kc_ini: float = 1.05
    kc_mid: float = 1.20
    kc_end: float = 0.90

    def __post_init__(self):
        for name in ("len_ini", "len_dev", "len_mid", "len_late"):
            if getattr(self, name) < 1:
                raise ValueError(f"stage length {name} must be >= 1, got {getattr(self, name)}")
        for name in ("kc_ini", "kc_mid", "kc_end"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    @property
    def total_days(self) -> int:
        return self.len_ini + self.len_dev + self.len_mid + self.len_late


def validate_schedule(s: KcSchedule, season_days: int, source: str = "") -> None:
    """Raise :class:`ScheduleMismatchError`, naming the config key and any
    ``source`` of the season, unless the stages sum to ``season_days``."""
    if s.total_days != season_days:
        raise ScheduleMismatchError(
            f"{source}: " * bool(source)
            + f"kc.stage_lengths: {s.len_ini}+{s.len_dev}+{s.len_mid}+{s.len_late} "
            f"= {s.total_days} days, but the season has {season_days}")


def kc_at(s: KcSchedule, dap: float) -> float:
    """Crop coefficient for a day after planting (0-based).

    Accepts fractional days; the curve is continuous across stage
    boundaries.  Days at or beyond the season end raise
    :class:`OutOfSeasonError`.
    """
    if dap < 0 or dap >= s.total_days:
        raise OutOfSeasonError(
            f"day {dap} is outside the {s.total_days}-day season"
        )
    if dap < s.len_ini:
        return s.kc_ini
    if dap < s.len_ini + s.len_dev:
        f = (dap - s.len_ini) / s.len_dev
        return s.kc_ini + f * (s.kc_mid - s.kc_ini)
    if dap < s.len_ini + s.len_dev + s.len_mid:
        return s.kc_mid
    f = (dap - s.len_ini - s.len_dev - s.len_mid) / s.len_late
    return s.kc_mid + f * (s.kc_end - s.kc_mid)


@functools.lru_cache(maxsize=64)
def kc_table(s: KcSchedule) -> tuple[float, ...]:
    """:func:`kc_at` for each whole day of the season, 0 .. total_days - 1.

    A season steps through its calendar one whole day at a time, so one
    table per schedule serves every season; its entries come from
    :func:`kc_at`, bit for bit.
    """
    return tuple(kc_at(s, d) for d in range(s.total_days))
