"""Half-hourly station records and their aggregation to daily weather.

Station files carry one row per 30-minute interval:

    timestamp_iso8601,temp_c,precip_mm[,theta_vwc]

and daily files one row per day:

    date,day_index,tmax_c,tavg_c,tmin_c,precip_mm[,theta_vwc]

Both are comma-separated UTF-8 with a mandatory header row and dot
decimals, and rows in strictly increasing time order.  Aggregation never
fills gaps: a day with fewer than the required number of intervals is
dropped and reported, so missing data stays visible all the way to the
experiment report.  A daily file may therefore skip dates; a consumer that
steps day by day (the crop calendar, lagged moisture) rejects it with
:func:`check_consecutive`.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import date as Date, datetime, timedelta

from .errors import DataFormatError, OrderingError
from .evapo import DailyWeather

logger = logging.getLogger(__name__)

INTERVALS_PER_DAY = 48

_HALF_HOURLY_COLUMNS = ("timestamp_iso8601", "temp_c", "precip_mm")
_DAILY_COLUMNS = ("date", "day_index", "tmax_c", "tavg_c", "tmin_c", "precip_mm")
_THETA_COLUMN = "theta_vwc"


@dataclass(frozen=True)
class HalfHourRecord:
    """One 30-minute station reading; ``theta`` is present only where measured."""

    timestamp: datetime
    temp: float
    precip: float
    theta: "float | None" = None

    def __post_init__(self):
        if self.precip < 0.0:
            raise ValueError(f"precip must be >= 0, got {self.precip} at {self.timestamp}")


@dataclass(frozen=True)
class DayGap:
    """An excluded day and how many of the 48 intervals it actually had."""

    date: Date
    n_records: int


@dataclass
class DailyAggregation:
    """Aggregation result: kept days, their mean theta (or None), and gaps."""

    days: list
    theta: list
    gaps: list


def daily_aggregate(records: "list[HalfHourRecord]",
                    min_coverage: int = 40) -> DailyAggregation:
    """Collapse half-hourly records into daily weather.

    Per calendar day: tmax/tavg/tmin are the max/mean/min of the interval
    temperatures, precipitation is summed, and theta is the mean of the
    values present.  Days with fewer than ``min_coverage`` of the 48
    intervals are excluded and reported in ``gaps`` (and logged).
    Timestamps must be strictly increasing.
    """
    for prev, cur in zip(records, records[1:]):
        if cur.timestamp <= prev.timestamp:
            raise OrderingError(
                f"timestamps must be strictly increasing; {cur.timestamp} "
                f"follows {prev.timestamp}"
            )
    by_day: dict[Date, list[HalfHourRecord]] = {}
    for rec in records:
        by_day.setdefault(rec.timestamp.date(), []).append(rec)

    days: list[DailyWeather] = []
    theta: list = []
    gaps: list[DayGap] = []
    first_date = records[0].timestamp.date() if records else None
    for day in sorted(by_day):
        recs = by_day[day]
        if len(recs) < min_coverage:
            gaps.append(DayGap(day, len(recs)))
            logger.warning("excluding %s: only %d of %d intervals present",
                           day, len(recs), INTERVALS_PER_DAY)
            continue
        temps = [r.temp for r in recs]
        thetas = [r.theta for r in recs if r.theta is not None]
        days.append(DailyWeather(
            day_index=(day - first_date).days,
            date=day,
            tmax=max(temps),
            tavg=sum(temps) / len(temps),
            tmin=min(temps),
            precip=sum(r.precip for r in recs),
        ))
        theta.append(sum(thetas) / len(thetas) if thetas else None)
    return DailyAggregation(days=days, theta=theta, gaps=gaps)


def _parse_float(text: str, what: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(f"line {line_no}: cannot parse {what} from {text!r}") from None
    if not math.isfinite(value):
        raise DataFormatError(f"line {line_no}: {what} must be finite, got {text!r}")
    return value


def read_half_hourly_csv(path) -> list[HalfHourRecord]:
    """Read a half-hourly station file; raises DataFormatError with line context."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, header row required") from None
        if tuple(header[:3]) != _HALF_HOURLY_COLUMNS:
            raise DataFormatError(
                f"{path}: header must start with {','.join(_HALF_HOURLY_COLUMNS)}, "
                f"got {','.join(header)}"
            )
        has_theta = len(header) > 3 and header[3] == _THETA_COLUMN
        records = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 3:
                raise DataFormatError(f"line {line_no}: expected at least 3 fields, got {len(row)}")
            try:
                ts = datetime.fromisoformat(row[0])
            except ValueError:
                raise DataFormatError(
                    f"line {line_no}: cannot parse timestamp from {row[0]!r}"
                ) from None
            theta = None
            if has_theta and len(row) > 3 and row[3] != "":
                theta = _parse_float(row[3], "theta_vwc", line_no)
            records.append(HalfHourRecord(
                timestamp=ts,
                temp=_parse_float(row[1], "temp_c", line_no),
                precip=_parse_float(row[2], "precip_mm", line_no),
                theta=theta,
            ))
    return records


def write_half_hourly_csv(path, records: "list[HalfHourRecord]") -> None:
    any_theta = any(r.theta is not None for r in records)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(_HALF_HOURLY_COLUMNS) + ([_THETA_COLUMN] if any_theta else [])
        writer.writerow(header)
        for r in records:
            row = [r.timestamp.isoformat(), repr(r.temp), repr(r.precip)]
            if any_theta:
                row.append("" if r.theta is None else repr(r.theta))
            writer.writerow(row)


def read_daily_csv(path) -> tuple[list[DailyWeather], list]:
    """Read a daily file; returns (days, theta list aligned with days).

    Dates must be strictly increasing: a repeated or earlier date raises
    :class:`OrderingError` with its line number.  Skipped dates are allowed.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file, header row required") from None
        if tuple(header[:6]) != _DAILY_COLUMNS:
            raise DataFormatError(
                f"{path}: header must start with {','.join(_DAILY_COLUMNS)}, "
                f"got {','.join(header)}"
            )
        has_theta = len(header) > 6 and header[6] == _THETA_COLUMN
        days, theta = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 6:
                raise DataFormatError(f"line {line_no}: expected at least 6 fields, got {len(row)}")
            try:
                day = Date.fromisoformat(row[0])
            except ValueError:
                raise DataFormatError(f"line {line_no}: cannot parse date from {row[0]!r}") from None
            if days and day <= days[-1].date:
                raise OrderingError(
                    f"line {line_no}: dates must be strictly increasing; {day} "
                    f"follows {days[-1].date}"
                )
            try:
                day_index = int(row[1])
            except ValueError:
                raise DataFormatError(f"line {line_no}: cannot parse day_index from {row[1]!r}") from None
            days.append(DailyWeather(
                day_index=day_index,
                date=day,
                tmax=_parse_float(row[2], "tmax_c", line_no),
                tavg=_parse_float(row[3], "tavg_c", line_no),
                tmin=_parse_float(row[4], "tmin_c", line_no),
                precip=_parse_float(row[5], "precip_mm", line_no),
            ))
            if has_theta and len(row) > 6 and row[6] != "":
                theta.append(_parse_float(row[6], "theta_vwc", line_no))
            else:
                theta.append(None)
    return days, theta


def check_consecutive(days: "list[DailyWeather]", source: str) -> None:
    """Raise DataFormatError naming the first missing date in a strictly
    increasing series of days (as :func:`read_daily_csv` returns)."""
    for prev, cur in zip(days, days[1:]):
        if cur.date.toordinal() - prev.date.toordinal() != 1:
            raise DataFormatError(
                f"{source}: no row for {(prev.date + timedelta(days=1)).isoformat()}; "
                f"the days must be consecutive"
            )


def write_daily_csv(path, days: "list[DailyWeather]", theta: "list | None" = None) -> None:
    """Write a daily file; theta, if given, must align with days."""
    if theta is not None and len(theta) != len(days):
        raise DataFormatError(
            f"theta has {len(theta)} entries for {len(days)} days"
        )
    any_theta = theta is not None and any(v is not None for v in theta)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = list(_DAILY_COLUMNS) + ([_THETA_COLUMN] if any_theta else [])
        writer.writerow(header)
        for i, d in enumerate(days):
            row = [d.date.isoformat(), str(d.day_index), repr(d.tmax),
                   repr(d.tavg), repr(d.tmin), repr(d.precip)]
            if any_theta:
                v = theta[i]
                row.append("" if v is None else repr(v))
            writer.writerow(row)
