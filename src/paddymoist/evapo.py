"""Reference evapotranspiration: Hargreaves oracle and its ANN surrogate.

The Hargreaves equation (Hargreaves & Samani 1985, in the FAO-56
formulation of Allen et al. 1998) estimates ET0 from air temperature and
top-of-atmosphere solar radiation alone:

    ET0 = 0.0023 * (Tavg + 17.8) * sqrt(Tmax - Tmin) * 0.408 * Ra   [mm/day]

The surrogate is a 3-8-1 sigmoid network mapping normalized
(Tmax, Tavg, Tmin) to normalized ET0, trained against the Hargreaves
values, so ET0 can be produced where only temperature is recorded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from datetime import date as Date
from operator import itemgetter
from typing import NamedTuple

from . import ann
from .ann import Mlp, MlpTopology, Normalizer, TrainConfig

# FAO-56 fixed-bound defaults: generous tropical ranges so the validation
# period can never fall outside the training normalization.
DEFAULT_TEMP_NORM = Normalizer(0.0, 50.0)    # deg C
DEFAULT_ET0_NORM = Normalizer(0.0, 10.0)     # mm/day

#: Default site: a humid-tropics paddy station at 6.85 deg S, 536 m a.s.l.
DEFAULT_LATITUDE_RAD = -0.11955

_GSC = 0.0820  # solar constant, MJ m-2 min-1 (FAO-56 eq. 21)
_INF = math.inf
_TEMPS = itemgetter(slice(2, 5))  # the surrogate's raw row: a DailyWeather's (tmax, tavg, tmin)


@dataclass(frozen=True)
class SiteLocation:
    """Geographic site; latitude in radians, south negative.  ``altitude_m``
    is recorded and echoed in the report; Hargreaves ET0 does not use it."""

    latitude: float = DEFAULT_LATITUDE_RAD
    altitude_m: float = 536.0

    def __post_init__(self):
        if not abs(self.latitude) < math.pi / 2:
            raise ValueError(f"latitude must satisfy |lat| < pi/2 rad, got {self.latitude}")


class _DailyWeatherFields(NamedTuple):
    day_index: int
    date: Date
    tmax: float
    tavg: float
    tmin: float
    precip: float


class DailyWeather(_DailyWeatherFields):
    """One day of weather forcing.

    A tuple ``(day_index, date, tmax, tavg, tmin, precip)``, built by
    position or keyword: a season builds one per day, and a tuple is cheaper
    to build than a frozen dataclass.  A non-finite value, broken
    ``tmin <= tavg <= tmax`` or a negative ``precip`` is rejected when it is
    built, by ``_make`` and ``_replace`` too.
    """

    __slots__ = ()

    def __new__(cls, day_index, date, tmax, tavg, tmin, precip):
        # one chained test per day, false for NaN too; the checks below name the fault
        if not (-_INF < tmin <= tavg <= tmax < _INF and 0.0 <= precip < _INF):
            for name, value in (("tmax", tmax), ("tavg", tavg), ("tmin", tmin),
                                ("precip", precip)):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value} on {date}")
            if not (tmin <= tavg <= tmax):
                raise ValueError(f"need tmin <= tavg <= tmax, got {tmin}/{tavg}/{tmax} "
                                 f"on {date}")
            raise ValueError(f"precip must be >= 0, got {precip} on {date}")
        return tuple.__new__(cls, (day_index, date, tmax, tavg, tmin, precip))

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


@dataclass
class Et0Model:
    """Trained ET0 surrogate: 3-8-1 network plus its fixed normalizers."""

    net: Mlp
    temp_norm: Normalizer = DEFAULT_TEMP_NORM
    et0_norm: Normalizer = DEFAULT_ET0_NORM

    def __post_init__(self):
        t = self.net.topology
        if (t.n_inputs, t.n_outputs) != (3, 1):
            raise ValueError(f"ET0 surrogate must be 3-n-1, got {t}")


@functools.lru_cache(maxsize=None)  # one entry per year seen, and years run 1..9999
def _jan1_ordinal(year: int) -> int:
    return Date(year, 1, 1).toordinal()


def day_of_year(day: Date) -> int:
    """Day of the year, 1 on 1 January; ``day.timetuple().tm_yday`` without the tuple."""
    return day.toordinal() - _jan1_ordinal(day.year) + 1


def extraterrestrial_radiation(site: SiteLocation, doy: int) -> float:
    """Daily top-of-atmosphere radiation Ra in MJ m-2 day-1 (FAO-56 eq. 21).

    ``doy`` is the day of year, 1..366.  The sunset-hour-angle arccos is
    clamped so polar night yields Ra = 0 instead of a domain error.
    """
    if not 1 <= doy <= 366:
        raise ValueError(f"day of year must be in 1..366, got {doy}")
    phi = site.latitude
    dr = 1.0 + 0.033 * math.cos(2.0 * math.pi * doy / 365.0)
    delta = 0.409 * math.sin(2.0 * math.pi * doy / 365.0 - 1.39)
    ws = math.acos(min(1.0, max(-1.0, -math.tan(phi) * math.tan(delta))))
    ra = (24.0 * 60.0 / math.pi) * _GSC * dr * (
        ws * math.sin(phi) * math.sin(delta)
        + math.cos(phi) * math.cos(delta) * math.sin(ws)
    )
    return max(ra, 0.0)


@functools.lru_cache(maxsize=64)
def ra_table(latitude: float) -> tuple[float, ...]:
    """:func:`extraterrestrial_radiation` at ``latitude`` for each day of year.

    Entry ``doy - 1`` is Ra for day of year ``doy``, 1..366.  Ra depends on
    the site only through its latitude, so one table serves every season
    there; its entries come from the same function, bit for bit.
    """
    site = SiteLocation(latitude)
    return tuple(extraterrestrial_radiation(site, doy) for doy in range(1, 367))


def hargreaves_et0(tmax: float, tavg: float, tmin: float, ra: float) -> float:
    """Hargreaves reference evapotranspiration in mm/day, floored at 0.

    ``ra`` is extraterrestrial radiation in MJ m-2 day-1; the 0.408 factor
    converts it to its evaporation equivalent in mm/day.
    """
    if tmax < tmin:
        raise ValueError(f"tmax ({tmax}) must be >= tmin ({tmin})")
    et0 = 0.0023 * (tavg + 17.8) * math.sqrt(tmax - tmin) * (0.408 * ra)
    # not max(et0, 0.0), which keeps the -0.0 of a polar night below -17.8 C;
    # a NaN still passes
    return 0.0 if et0 <= 0.0 else et0


def hargreaves_series(days: "list[DailyWeather]", site: SiteLocation) -> list[float]:
    """Hargreaves ET0 for each day, with Ra from the day's calendar date."""
    ra = ra_table(site.latitude)
    # each day unpacked once: a NamedTuple field read is slow on 3.11
    return [hargreaves_et0(tmax, tavg, tmin, ra[day_of_year(date) - 1])
            for _, date, tmax, tavg, tmin, _ in days]


def _input_norms(temp_norm: Normalizer) -> "list[Normalizer]":
    """The normalizer of each input in a ``_TEMPS`` row."""
    return [temp_norm] * 3


def train_et0_model(days: "list[DailyWeather]", site: SiteLocation, cfg: TrainConfig,
                    temp_norm: Normalizer = DEFAULT_TEMP_NORM,
                    et0_norm: Normalizer = DEFAULT_ET0_NORM,
                    trace: "list[ann.GainTrace] | None" = None,
                    ) -> tuple[Et0Model, list[float]]:
    """Fit the surrogate to the Hargreaves values of a weather series, which
    it computes; returns the trained model and the per-epoch loss history."""
    return _train_et0(days, hargreaves_series(days, site), cfg, temp_norm, et0_norm, trace)


def _train_et0(days: "list[DailyWeather]", targets: "list[float]", cfg: TrainConfig,
               temp_norm: Normalizer, et0_norm: Normalizer,
               trace=None) -> tuple[Et0Model, list[float]]:
    """:func:`train_et0_model` on ``targets``, the days' Hargreaves series, for
    a caller that already holds it, as a synthetic period's ledger does."""
    if not days:
        raise ValueError("cannot train the ET0 surrogate on an empty series")
    norms = [*_input_norms(temp_norm), et0_norm]
    rows = [ann.normalize_row((*_TEMPS(d), et0), norms) for d, et0 in zip(days, targets)]
    net, losses = ann._train_rows(MlpTopology(3, 8, 1), rows, cfg, trace)
    return Et0Model(net, temp_norm, et0_norm), losses


def predict_et0(model: Et0Model, tmax: float, tavg: float, tmin: float) -> float:
    """Surrogate ET0 in mm/day; always inside the model's ET0 bounds."""
    if tmax < tmin:
        raise ValueError(f"tmax ({tmax}) must be >= tmin ({tmin})")
    (u,) = ann.bind(model.net)(ann.normalize_row((tmax, tavg, tmin),
                                                 _input_norms(model.temp_norm)))
    return ann.denormalize(u, model.et0_norm)


def predict_et0_series(model: Et0Model, days: "list[DailyWeather]") -> list[float]:
    """:func:`predict_et0` for each day, in one :func:`ann.series` call."""
    return ann.series(model.net, map(_TEMPS, days), _input_norms(model.temp_norm),
                      model.et0_norm)
