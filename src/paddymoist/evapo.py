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

from . import ann
from .ann import Mlp, MlpTopology, Normalizer, Pattern, TrainConfig

# FAO-56 fixed-bound defaults: generous tropical ranges so the validation
# period can never fall outside the training normalization.
DEFAULT_TEMP_NORM = Normalizer(0.0, 50.0)    # deg C
DEFAULT_ET0_NORM = Normalizer(0.0, 10.0)     # mm/day

#: Default site: a humid-tropics paddy station at 6.85 deg S, 536 m a.s.l.
DEFAULT_LATITUDE_RAD = -0.11955

_GSC = 0.0820  # solar constant, MJ m-2 min-1 (FAO-56 eq. 21)


@dataclass(frozen=True)
class SiteLocation:
    """Geographic site; latitude in radians, south negative."""

    latitude: float = DEFAULT_LATITUDE_RAD
    altitude_m: float = 536.0

    def __post_init__(self):
        if not abs(self.latitude) < math.pi / 2:
            raise ValueError(f"latitude must satisfy |lat| < pi/2 rad, got {self.latitude}")


@dataclass(frozen=True)
class DailyWeather:
    """One day of weather forcing."""

    day_index: int
    date: Date
    tmax: float
    tavg: float
    tmin: float
    precip: float

    def __post_init__(self):
        isfinite = math.isfinite
        # one chained test per day; the loop only finds the field to name
        if not (isfinite(self.tmax) and isfinite(self.tavg) and isfinite(self.tmin)
                and isfinite(self.precip)):
            for name in ("tmax", "tavg", "tmin", "precip"):
                value = getattr(self, name)
                if not isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value} on {self.date}")
        if not (self.tmin <= self.tavg <= self.tmax):
            raise ValueError(
                f"need tmin <= tavg <= tmax, got {self.tmin}/{self.tavg}/{self.tmax} "
                f"on {self.date}"
            )
        if self.precip < 0.0:
            raise ValueError(f"precip must be >= 0, got {self.precip} on {self.date}")


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


def day_of_year(day: Date) -> int:
    """Day of the year, 1 on 1 January; ``day.timetuple().tm_yday`` without the tuple."""
    return day.toordinal() - Date(day.year, 1, 1).toordinal() + 1


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
    return max(et0, 0.0)


def hargreaves_series(days: "list[DailyWeather]", site: SiteLocation) -> list[float]:
    """Hargreaves ET0 for each day, with Ra from the day's calendar date."""
    ra = ra_table(site.latitude)
    return [hargreaves_et0(d.tmax, d.tavg, d.tmin, ra[day_of_year(d.date) - 1])
            for d in days]


def train_et0_model(days: "list[DailyWeather]", site: SiteLocation, cfg: TrainConfig,
                    temp_norm: Normalizer = DEFAULT_TEMP_NORM,
                    et0_norm: Normalizer = DEFAULT_ET0_NORM,
                    trace: "list[ann.GainTrace] | None" = None,
                    ) -> tuple[Et0Model, list[float]]:
    """Fit the surrogate to the Hargreaves values for a weather series.

    Returns the trained model and the per-epoch loss history.
    """
    if not days:
        raise ValueError("cannot train the ET0 surrogate on an empty series")
    targets = hargreaves_series(days, site)
    patterns = [
        Pattern(
            [ann.normalize(d.tmax, temp_norm),
             ann.normalize(d.tavg, temp_norm),
             ann.normalize(d.tmin, temp_norm)],
            [ann.normalize(et0, et0_norm)],
        )
        for d, et0 in zip(days, targets)
    ]
    net, losses = ann.train(Mlp.zeros(MlpTopology(3, 8, 1)), patterns, cfg, trace=trace)
    return Et0Model(net, temp_norm, et0_norm), losses


def _predict(fwd, model: Et0Model, tmax: float, tavg: float, tmin: float) -> float:
    """Surrogate ET0 for one day through ``fwd``, the model's bound net."""
    if tmax < tmin:
        raise ValueError(f"tmax ({tmax}) must be >= tmin ({tmin})")
    tn = model.temp_norm
    (u,) = fwd([ann.normalize(tmax, tn), ann.normalize(tavg, tn), ann.normalize(tmin, tn)])
    return ann.denormalize(u, model.et0_norm)


def predict_et0(model: Et0Model, tmax: float, tavg: float, tmin: float) -> float:
    """Surrogate ET0 in mm/day; always inside the model's ET0 bounds."""
    return _predict(ann.bind(model.net), model, tmax, tavg, tmin)


def predict_et0_series(model: Et0Model, days: "list[DailyWeather]") -> list[float]:
    """:func:`predict_et0` for each day, binding the net once for the series."""
    fwd = ann.bind(model.net)
    return [_predict(fwd, model, d.tmax, d.tavg, d.tmin) for d in days]
