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

Both loops run as C where :mod:`._cbuild` builds and loads them, on the
first season, and as the Python loops below otherwise; the two give the
same bits.  The C weather loop draws from the season's own ``numpy``
Generator: it calls numpy's ``random_standard_normal``,
``random_standard_uniform`` and ``random_standard_exponential``, linked from
the installed numpy's ``numpy/random/lib/libnpyrandom.a``, on the
Generator's ``bitgen_t`` (``rng.bit_generator.ctypes.bit_generator``) while
holding the bit generator's lock.  Those are the functions ``standard_normal``, ``random``
and ``standard_exponential`` call, so the stream and every draw are
numpy's, in the same order.  The C loops then do the Python loops'
arithmetic in the same order, under the flags :mod:`._cbuild` explains, with
libm's ``cos``, ``exp`` and ``sqrt`` as ``math`` calls them; the bucket keeps
the tie rules of Python's ``min(a, b)`` (``a`` unless ``b < a``) and
``max(a, b)`` (``a`` unless ``b > a``), which decide the sign of a zero.
Both make the checks of :class:`~paddymoist.evapo.DailyWeather`,
:func:`~paddymoist.evapo.hargreaves_et0`, :func:`water_balance_step` and
:class:`WaterFluxes`, and build the same rows.  ``tests/test_properties.py``
checks the two renderings against each other bit for bit.

The Python loops are the reference: a C loop declines a season at the first
value a check rejects, and the Python loop runs it again from its seed and
raises, as :mod:`._cbuild`'s contract says.  They also run every season
whose numbers are not all ``float`` (an ``int`` or a numpy scalar could
change a result's type), and every season where the C loops cannot be
built, ``libnpyrandom.a`` missing among the reasons.

This module depends on the weather and crop layers only, never on the
moisture model it provides targets for.
"""

from __future__ import annotations

import functools
import math
import os
from array import array
from dataclasses import dataclass
from datetime import date as Date, timedelta
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import _cbuild
from .crop import KcSchedule, kc_table, validate_schedule
from .evapo import DailyWeather, SiteLocation, day_of_year, hargreaves_series, ra_table

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
    wet/dry process with exponential wet-day amounts.  Runs as C where it
    can, giving the same days (see the module docstring).
    """
    lib = _c_loops()
    days = None if lib is None else _c_weather(lib[0], g)
    return _python_weather(g) if days is None else days


def _python_weather(g: WeatherGenParams) -> list[DailyWeather]:
    """:func:`generate_weather` as Python: the reference, and the fallback."""
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
    :func:`~paddymoist.evapo.hargreaves_series` of the weather.  Runs as C
    where it can, giving the same lists (see the module docstring).
    """
    if not weather:
        raise ValueError("weather series is empty")
    validate_schedule(kc, len(weather))
    lib = _c_loops()
    made = None if lib is None else _c_truth(lib[1], weather, site, kc, p)
    return _python_truth(weather, site, kc, p) if made is None else made


def _python_truth(weather: "list[DailyWeather]", site: SiteLocation, kc: KcSchedule,
                  p: FieldParams) -> tuple[list[float], list[LedgerDay]]:
    """:func:`generate_truth` as Python, past its checks: the reference, and
    the fallback."""
    kcs = kc_table(kc)
    irrig = _irrigation_by_day(p)
    theta = p.theta_init
    theta_series: list[float] = []
    ledger: list[LedgerDay] = []
    for d, (day, et0, kc_d) in enumerate(zip(weather, hargreaves_series(weather, site), kcs)):
        irrig_mm = irrig.get(d, 0.0)
        theta, fluxes = water_balance_step(theta, p, day.precip, irrig_mm, kc_d * et0)
        theta_series.append(theta)
        ledger.append(LedgerDay(day.precip, irrig_mm, et0, kc_d, fluxes))
    return theta_series, ledger


def _irrigation_by_day(p: FieldParams) -> dict:
    """``p.irrigation`` as mm per day index, events on one day added in order."""
    irrig = {}
    for day_index, mm in p.irrigation:
        irrig[day_index] = irrig.get(day_index, 0.0) + mm
    return irrig


# The C loops.  ``weather`` is _python_weather's loop from day 0, whose date
# has the proleptic Gregorian ordinal ``first``; ``truth`` is _python_truth's,
# with each day's date as its ordinal and the field as ``field[6]`` =
# (root_depth, theta_sat, theta_res, theta_init, runoff_threshold,
# perc_rate).  Each writes one value per day to each output array and
# returns n_days, or -1 at the first day that a check rejects.
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* numpy's bitgen_t (numpy/random/bitgen.h) and three of its distributions
   (numpy/random/distributions.h), linked from libnpyrandom.a */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;
double random_standard_normal(bitgen_t *bitgen_state);
double random_standard_uniform(bitgen_t *bitgen_state);
double random_standard_exponential(bitgen_t *bitgen_state);

/* The day of the year of an ordinal, found as CPython's _ord2ymd does */
static long day_of_year(long ordinal)
{
    long n = (ordinal - 1) % 146097, n100 = n / 36524, n1;
    n = n % 36524 % 1461;
    n1 = n / 365;
    if (n1 == 4 || n100 == 4)  /* 31 December of a leap year */
        return 366;
    return n % 365 + 1;
}

long weather(bitgen_t *rng, long n_days, long first, double tavg_mean,
             double tavg_amplitude, double range_mean, double wet_day_prob,
             double precip_mean_wet, double *tmax, double *tavg, double *tmin,
             double *precip)
{
    long d;
    for (d = 0; d < n_days; d++) {
        double noise, up, down, t, hi, lo, p = 0.0;
        long doy = day_of_year(first + d);
        noise = random_standard_normal(rng);
        up = random_standard_normal(rng);
        down = random_standard_normal(rng);
        t = tavg_mean + tavg_amplitude * cos(TWO_PI * (double)(doy - PEAK_DOY) / 365.0)
            + (0.0 + NOISE_SD * noise);
        hi = t + 0.5 * range_mean * exp(MU + SIGMA * up);
        lo = t - 0.5 * range_mean * exp(MU + SIGMA * down);
        if (random_standard_uniform(rng) < wet_day_prob)
            p = precip_mean_wet * random_standard_exponential(rng);
        if (!(-INFINITY < lo && lo <= t && t <= hi && hi < INFINITY && 0.0 <= p && p < INFINITY))
            return -1;
        tmax[d] = hi;
        tavg[d] = t;
        tmin[d] = lo;
        precip[d] = p;
    }
    return n_days;
}

/* Python's min(a, b) and max(a, b): a, unless b is less, or greater */
static double py_min(double a, double b) { return b < a ? b : a; }
static double py_max(double a, double b) { return b > a ? b : a; }

long truth(long n_days, const double *tmax, const double *tavg, const double *tmin,
           const long *ordinal, const double *precip, const double *irrig,
           const double *kc, const double *ra, const double *field, double *et0,
           double *etc, double *runoff, double *perc, double *theta)
{
    double depth = field[0] * 1000.0, sat = field[1], res = field[2], th = field[3];
    double res_mm = res * depth, thr_mm = field[4] * depth, rate = field[5];
    long d;
    for (d = 0; d < n_days; d++) {
        double e, demand, storage, taken, down, off;
        if (tmax[d] < tmin[d])
            return -1;
        e = HARG_K * (tavg[d] + HARG_T) * sqrt(tmax[d] - tmin[d])
            * (HARG_RA * ra[day_of_year(ordinal[d]) - 1]);
        e = e <= 0.0 ? 0.0 : e;  /* hargreaves_et0's floor: +0.0, a NaN passes */
        demand = kc[d] * e;
        if (!(0.0 <= precip[d] && precip[d] < INFINITY && 0.0 <= irrig[d]
              && irrig[d] < INFINITY && 0.0 <= demand && demand < INFINITY)
            || !(res <= th && th <= sat))
            return -1;
        storage = th * depth + precip[d] + irrig[d];
        taken = py_min(demand, py_max(storage - res_mm, 0.0));
        storage -= taken;
        down = py_min(rate, py_max(storage - res_mm, 0.0));
        storage -= down;
        off = py_max(storage - thr_mm, 0.0);
        storage -= off;
        th = py_min(py_max(storage / depth, res), sat);
        if (!(0.0 <= taken && taken < INFINITY && 0.0 <= off && off < INFINITY
              && 0.0 <= down && down < INFINITY))
            return -1;
        et0[d] = e;
        etc[d] = taken;
        runoff[d] = off;
        perc[d] = down;
        theta[d] = th;
    }
    return n_days;
}
"""
# the Python loops' constants, floats exactly, in hex; the Hargreaves ones
# are evapo.hargreaves_et0's literals
_C_SOURCE = "".join(
    f"#define {name} ({value.hex() if isinstance(value, float) else value})\n"
    for name, value in (("TWO_PI", 2.0 * math.pi), ("PEAK_DOY", _SEASON_PEAK_DOY),
                        ("NOISE_SD", _TAVG_NOISE_SD), ("SIGMA", _RANGE_JITTER_SIGMA),
                        ("MU", -0.5 * _RANGE_JITTER_SIGMA ** 2), ("HARG_K", 0.0023),
                        ("HARG_T", 17.8), ("HARG_RA", 0.408))) + _C_SOURCE

# numpy's distributions, as the static library numpy installs for C extensions
_NPYRANDOM = os.path.join(os.path.dirname(np.random.__file__), "lib", "libnpyrandom.a")
_LAST_ORDINAL = Date.max.toordinal()


@functools.cache
def _c_loops():
    """The C loops' ``(weather, truth)``, built and loaded on the first season;
    None, logged once, where they cannot be."""
    return _cbuild.load("hydro", _C_SOURCE,
                        {"weather": "lPlldddddPPPP", "truth": "ll" + "P" * 14},
                        "synthetic seasons run the Python loops, the C loops did not build",
                        (_NPYRANDOM,))


def _all_float(values) -> bool:
    return {*map(type, values)} <= {float}


def _c_weather(fn, g: WeatherGenParams) -> "list[DailyWeather] | None":
    """:func:`generate_weather`'s days from the C loop ``fn``; None where the
    Python loop must run: a number that is not a float, a date past
    :data:`datetime.date.max`, or a day that ``DailyWeather`` rejects."""
    n, start = g.n_days, g.start_date
    if not (type(n) is int and type(start) is Date
            and _all_float((g.tavg_mean, g.tavg_amplitude, g.diurnal_range_mean,
                            g.wet_day_prob, g.precip_mean_wet))
            and start.toordinal() + n - 1 <= _LAST_ORDINAL):
        return None
    rng = np.random.default_rng(g.seed)
    out = [array("d", bytes(8 * n)) for _ in range(4)]
    bits, first = rng.bit_generator, start.toordinal()
    with bits.lock:
        made = fn(bits.ctypes.bit_generator, n, first, g.tavg_mean, g.tavg_amplitude,
                  g.diurnal_range_mean, g.wet_day_prob, g.precip_mean_wet,
                  *(a.buffer_info()[0] for a in out))
    if made < 0:
        return None
    dates = map(Date.fromordinal, range(first, first + n))
    # each row built past the constructor's check, which the C loop made
    return list(map(tuple.__new__, repeat(DailyWeather), zip(range(n), dates, *out)))


@functools.lru_cache(maxsize=64)
def _c_tables(latitude: float, kc: KcSchedule) -> "tuple[array, array | None]":
    """The Ra table at ``latitude`` and ``kc``'s Kc table as arrays of doubles;
    the Kc one None unless all its entries are floats."""
    kcs = kc_table(kc)
    return array("d", ra_table(latitude)), array("d", kcs) if _all_float(kcs) else None


def _c_truth(fn, weather: "list[DailyWeather]", site: SiteLocation, kc: KcSchedule,
             p: FieldParams) -> "tuple[list[float], list[LedgerDay]] | None":
    """:func:`generate_truth`'s lists from the C loop ``fn``, past its checks;
    None where the Python loop must run: a day that is not a
    ``DailyWeather``, a number that is not a float, or a fault."""
    ra, kcs = _c_tables(site.latitude, kc)
    field = (p.root_depth, p.theta_sat, p.theta_res, p.theta_init, p.runoff_threshold,
             p.perc_rate)
    irrig = _irrigation_by_day(p)
    if not ({*map(type, weather)} == {DailyWeather} and kcs is not None
            and _all_float(field) and _all_float(irrig.values())):
        return None
    n = len(weather)
    _, dates, tmax, tavg, tmin, precip = zip(*weather)
    if not _all_float(tmax + tavg + tmin + precip):
        return None
    irrigs = list(map(irrig.get, range(n), repeat(0.0))) if irrig else [0.0] * n
    inputs = [array("d", column) for column in (tmax, tavg, tmin)]
    inputs += [array("l", map(Date.toordinal, dates)), array("d", precip), array("d", irrigs),
               kcs, ra, array("d", field)]
    et0, etc, runoff, perc, theta = out = [array("d", bytes(8 * n)) for _ in range(5)]
    if fn(n, *(a.buffer_info()[0] for a in inputs + out)) < 0:
        return None
    # each row built past the constructor's check, which the C loop made
    fluxes = map(tuple.__new__, repeat(WaterFluxes), zip(etc, runoff, perc))
    rows = zip(precip, irrigs, et0, kcs, fluxes)
    return theta.tolist(), list(map(tuple.__new__, repeat(LedgerDay), rows))
