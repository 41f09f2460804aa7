"""Synthetic tropical weather and bucket water balance.

This module is the ground-truth side of the package: a seeded weather
generator shaped like a West-Java paddy season (its knobs are a
:class:`Climate` that any season shares, and a :class:`WeatherGenParams`
that adds one season's seed, length and first date), and a single-bucket root
zone whose storage changes by

    precipitation + irrigation - crop ET - runoff - deep percolation

with crop ET taken first within a step, percolation capped at a fixed daily
rate, and runoff as the overflow above a ponding threshold.  Every step
reports the fluxes it actually took, and :func:`generate_truth` returns them
with each day's inputs as a ledger of :class:`LedgerDay` rows, so each
day's storage change can be audited from its row alone to floating-point
precision.  All parameter defaults are synthetic placeholders, not
measurements of any real field.

This module depends on the weather and crop layers only, never on the
moisture model it provides targets for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date, timedelta
from typing import NamedTuple

import numpy as np

from .crop import KcSchedule, kc_table, validate_schedule
from .evapo import DailyWeather, SiteLocation, day_of_year, hargreaves_series

# Generator constants: day-to-day scatter of the mean temperature (deg C),
# lognormal sigma of the diurnal-range jitter, and the day-of-year where the
# seasonal temperature cycle peaks (late November, matching the wet-season
# onset at the default site).
_TAVG_NOISE_SD = 0.5
_RANGE_JITTER_SIGMA = 0.55
_SEASON_PEAK_DOY = 330
_INF = math.inf


@dataclass(frozen=True)
class FieldParams:
    """Bucket parameters for the synthetic paddy root zone.

    Volumetric contents are m3/m3; ``perc_rate`` is mm/day; ``irrigation``
    lists (day_index, mm) applications.
    """

    root_depth: float = 0.2
    theta_sat: float = 0.55
    theta_res: float = 0.15
    theta_init: float = 0.45
    runoff_threshold: float = 0.52
    perc_rate: float = 3.0
    irrigation: tuple = ()

    def __post_init__(self):
        if self.root_depth <= 0.0:
            raise ValueError(f"root_depth must be > 0, got {self.root_depth}")
        if not (self.theta_res < self.theta_init <= self.theta_sat):
            raise ValueError(
                f"need theta_res < theta_init <= theta_sat, got "
                f"{self.theta_res}/{self.theta_init}/{self.theta_sat}"
            )
        if not (self.theta_res < self.runoff_threshold <= self.theta_sat):
            raise ValueError(
                f"runoff_threshold must lie in (theta_res, theta_sat], got "
                f"{self.runoff_threshold}"
            )
        if self.perc_rate < 0.0:
            raise ValueError(f"perc_rate must be >= 0, got {self.perc_rate}")
        for ev in self.irrigation:
            if len(ev) != 2 or ev[1] < 0:
                raise ValueError(f"irrigation events must be (day_index, mm >= 0), got {ev}")


class _FluxFields(NamedTuple):
    etc_mm: float
    runoff_mm: float
    perc_mm: float


class WaterFluxes(_FluxFields):
    """Outflows actually taken during one water-balance step, in mm.

    A tuple ``(etc_mm, runoff_mm, perc_mm)``, built by position or keyword.
    An outflow that is not a finite number >= 0 is rejected when it is
    built, by ``_make`` and ``_replace`` too.
    """

    __slots__ = ()

    def __new__(cls, etc_mm, runoff_mm, perc_mm):
        # one chained test per day, false for NaN too; the loop names the fault
        if not (0.0 <= etc_mm < _INF and 0.0 <= runoff_mm < _INF and 0.0 <= perc_mm < _INF):
            for name, value in (("etc_mm", etc_mm), ("runoff_mm", runoff_mm),
                                ("perc_mm", perc_mm)):
                if not 0.0 <= value < _INF:
                    raise ValueError(f"{name} must be finite and >= 0, got {value}")
        return tuple.__new__(cls, (etc_mm, runoff_mm, perc_mm))

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


class LedgerDay(NamedTuple):
    """One day of ground truth: what went into the bucket and what it gave up.

    ``precip`` and ``irrig_mm`` are the day's inflows in mm, ``et0`` the
    Hargreaves ET0 (mm/day) and ``kc`` the crop coefficient whose product
    was the crop ET demand, and ``fluxes`` the outflows actually taken.  A
    row also serves as moisture-model forcing: it has the ``et0``,
    ``precip`` and ``kc`` a :class:`~paddymoist.moisture.ForcingDay` has.
    """

    precip: float
    irrig_mm: float
    et0: float
    kc: float
    fluxes: WaterFluxes


@dataclass(frozen=True, kw_only=True)
class Climate:
    """The season-independent knobs of :func:`generate_weather`, by keyword.

    Defaults give monthly mean temperatures near 24 deg C and wet-season
    monthly precipitation totals of roughly 250-450 mm.
    """

    tavg_mean: float = 24.0
    tavg_amplitude: float = 0.5
    diurnal_range_mean: float = 10.0
    wet_day_prob: float = 0.55
    precip_mean_wet: float = 15.0

    def __post_init__(self):
        if not 0.0 <= self.wet_day_prob <= 1.0:
            raise ValueError(f"wet_day_prob must be in [0, 1], got {self.wet_day_prob}")
        if self.diurnal_range_mean <= 0.0:
            raise ValueError(
                f"diurnal_range_mean must be > 0, got {self.diurnal_range_mean}"
            )
        if self.precip_mean_wet < 0.0:
            raise ValueError(f"precip_mean_wet must be >= 0, got {self.precip_mean_wet}")


@dataclass(frozen=True)
class WeatherGenParams(Climate):
    """A :class:`Climate` plus one season: the generator's seed, its length
    and its first date.  The season's three fields may be given by position,
    the climate's five only by keyword."""

    seed: int
    n_days: int
    start_date: Date = Date(2010, 10, 14)

    def __post_init__(self):
        if self.n_days < 1:
            raise ValueError(f"n_days must be >= 1, got {self.n_days}")
        super().__post_init__()


def water_balance_step(theta: float, p: FieldParams, precip_mm: float,
                       irrig_mm: float, etc_mm: float) -> tuple[float, WaterFluxes]:
    """Advance the bucket one day; returns (new theta, fluxes taken).

    Crop ET is extracted first (never below residual), then percolation
    (capped at ``perc_rate``, never below residual), then runoff of any
    excess above the ponding threshold.
    """
    # one chained test per day, false for NaN too; the loop names the input
    if not (0.0 <= precip_mm < _INF and 0.0 <= irrig_mm < _INF and 0.0 <= etc_mm < _INF):
        for name, v in (("precip_mm", precip_mm), ("irrig_mm", irrig_mm), ("etc_mm", etc_mm)):
            if v < 0.0:
                raise ValueError(f"{name} must be >= 0, got {v}")
            if not v < _INF:
                raise ValueError(f"{name} must be finite, got {v}")
    if not (p.theta_res <= theta <= p.theta_sat):
        raise ValueError(
            f"theta {theta} outside [{p.theta_res}, {p.theta_sat}]"
        )
    depth_mm = p.root_depth * 1000.0
    res_mm = p.theta_res * depth_mm
    thr_mm = p.runoff_threshold * depth_mm

    storage = theta * depth_mm + precip_mm + irrig_mm
    etc_taken = min(etc_mm, max(storage - res_mm, 0.0))
    storage -= etc_taken
    perc = min(p.perc_rate, max(storage - res_mm, 0.0))
    storage -= perc
    runoff = max(storage - thr_mm, 0.0)
    storage -= runoff

    theta_next = storage / depth_mm
    theta_next = min(max(theta_next, p.theta_res), p.theta_sat)
    return theta_next, WaterFluxes(etc_taken, runoff, perc)


def generate_weather(g: WeatherGenParams) -> list[DailyWeather]:
    """Seeded synthetic daily weather; same seed, same series, bit for bit.

    Mean temperature follows a shallow seasonal sinusoid plus Gaussian
    scatter; the diurnal range is the configured mean scaled by independent
    mean-one lognormal jitters above and below, which keeps
    tmin < tavg < tmax by construction.  Precipitation is a Bernoulli
    wet/dry process with exponential wet-day amounts.
    """
    rng = np.random.default_rng(g.seed)
    # numpy's own formulas for normal(0, s), lognormal(mu, s), uniform() and
    # exponential(m) over the standard draws, without the argument parsing:
    # the same values from the same stream
    normal, rand, expo = rng.standard_normal, rng.random, rng.standard_exponential
    mu = -0.5 * _RANGE_JITTER_SIGMA ** 2  # mean-one lognormal
    days = []
    one_day = timedelta(days=1)
    day_date = g.start_date
    for d in range(g.n_days):
        if d:
            day_date += one_day
        doy = day_of_year(day_date)
        # one call, in draw order: a Generator fills an array draw by draw
        noise, up, down = normal(3).tolist()
        tavg = (g.tavg_mean
                + g.tavg_amplitude * math.cos(2.0 * math.pi * (doy - _SEASON_PEAK_DOY) / 365.0)
                + (0.0 + _TAVG_NOISE_SD * noise))
        j_up = math.exp(mu + _RANGE_JITTER_SIGMA * up)
        j_down = math.exp(mu + _RANGE_JITTER_SIGMA * down)
        tmax = tavg + 0.5 * g.diurnal_range_mean * j_up
        tmin = tavg - 0.5 * g.diurnal_range_mean * j_down
        wet = rand() < g.wet_day_prob
        precip = g.precip_mean_wet * expo() if wet else 0.0
        days.append(DailyWeather(d, day_date, tmax, tavg, tmin, precip))
    return days


def generate_truth(weather: "list[DailyWeather]", site: SiteLocation,
                   kc: KcSchedule, p: FieldParams,
                   ) -> tuple[list[float], list[LedgerDay]]:
    """Run the water balance over a season of weather.

    Per day: Hargreaves ET0 from the day's temperatures and date, crop ET
    as Kc * ET0, then one bucket step.  Returns the end-of-day soil
    moisture trajectory and the season's ledger, one :class:`LedgerDay` per
    day.  Day ``d``'s row closes the balance on its own::

        precip + irrig_mm - fluxes.etc_mm - fluxes.runoff_mm - fluxes.perc_mm
            == (theta[d] - theta[d - 1]) * root depth in mm

    with ``p.theta_init`` before day 0.  The rows' ``et0`` are
    :func:`~paddymoist.evapo.hargreaves_series` of the weather.
    """
    if not weather:
        raise ValueError("weather series is empty")
    validate_schedule(kc, len(weather))
    kcs = kc_table(kc)
    irrig = {}
    for day_index, mm in p.irrigation:
        irrig[day_index] = irrig.get(day_index, 0.0) + mm
    theta = p.theta_init
    theta_series: list[float] = []
    ledger: list[LedgerDay] = []
    for d, (day, et0, kc_d) in enumerate(zip(weather, hargreaves_series(weather, site), kcs)):
        irrig_mm = irrig.get(d, 0.0)
        theta, fluxes = water_balance_step(theta, p, day.precip, irrig_mm, kc_d * et0)
        theta_series.append(theta)
        ledger.append(LedgerDay(day.precip, irrig_mm, et0, kc_d, fluxes))
    return theta_series, ledger
