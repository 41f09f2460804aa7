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

A :class:`HalfHourRecord` is a ``NamedTuple``: a two-year station file is
some 35000 of them, and a tuple is several times cheaper to build than a
frozen dataclass.  The reader checks each row's values inline and builds
the record straight from them, without the constructor's second check.  A
row that fails a check is parsed again by a slow path that names the fault.

Every fault in a station or daily file is a :class:`DataFormatError` naming
its line (an :class:`OrderingError` for a repeated or earlier timestamp or
date), which the CLI maps to exit code 4: a missing or wrong header, too few
fields, an unparseable or non-finite number, a negative precipitation, a
``theta_vwc`` outside [0, 1], and, in a daily file, a day with
``tmin <= tavg <= tmax`` broken.  The line is the physical one in the file:
a record whose quoted field holds a line break is named by its last line.

Daily means and totals are summed left to right (:func:`ann.left_sum`), so
the aggregated bits do not depend on the Python version.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import date as Date, datetime, timedelta
from typing import NamedTuple

from .ann import left_sum
from .errors import DataFormatError, OrderingError
from .evapo import DailyWeather

logger = logging.getLogger(__name__)

INTERVALS_PER_DAY = 48

_HALF_HOURLY_COLUMNS = ("timestamp_iso8601", "temp_c", "precip_mm")
_DAILY_COLUMNS = ("date", "day_index", "tmax_c", "tavg_c", "tmin_c", "precip_mm")
_THETA_COLUMN = "theta_vwc"


class _HalfHourFields(NamedTuple):
    timestamp: datetime
    temp: float
    precip: float
    theta: "float | None" = None


class HalfHourRecord(_HalfHourFields):
    """One 30-minute station reading; ``theta`` is present only where measured.

    A tuple ``(timestamp, temp, precip, theta)``; a negative ``precip`` is
    rejected on construction.  :func:`read_half_hourly_csv` checks every
    value itself and builds records with ``tuple.__new__``, past this check.
    """

    __slots__ = ()

    def __new__(cls, timestamp, temp, precip, theta=None):
        if precip < 0.0:
            raise ValueError(f"precip must be >= 0, got {precip} at {timestamp}")
        return tuple.__new__(cls, (timestamp, temp, precip, theta))

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


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


def _day_runs(records: "list[HalfHourRecord]"):
    """Yield (date, that date's records) for each calendar day present.

    One pass that also checks the timestamps strictly increase, so each day
    is one contiguous run of the list.
    """
    if not records:
        return
    prev = records[0][0]
    day, start = prev.date(), 0
    for i in range(1, len(records)):
        ts = records[i][0]
        if ts <= prev:
            raise OrderingError(
                f"timestamps must be strictly increasing; {ts} follows {prev}"
            )
        prev = ts
        date = ts.date()
        if date != day:
            if date < day:  # a later instant at an earlier UTC offset
                raise OrderingError(f"local dates must not go backwards; {ts} "
                                    f"follows a record dated {day}")
            yield day, records[start:i]
            day, start = date, i
    yield day, records[start:]


def daily_aggregate(records: "list[HalfHourRecord]",
                    min_coverage: int = 40) -> DailyAggregation:
    """Collapse half-hourly records into daily weather.

    Per calendar day: tmax/tavg/tmin are the max/mean/min of the interval
    temperatures, precipitation is summed, and theta is the mean of the
    values present.  Days with fewer than ``min_coverage`` of the 48
    intervals are excluded and reported in ``gaps`` (and logged).
    Timestamps must be strictly increasing.
    """
    days: list[DailyWeather] = []
    theta: list = []
    gaps: list[DayGap] = []
    first_date = records[0][0].date() if records else None
    for day, run in _day_runs(records):
        n = len(run)
        if n < min_coverage:
            gaps.append(DayGap(day, n))
            continue
        _, temps, precips, thetas = zip(*run)
        present = [v for v in thetas if v is not None]
        days.append(DailyWeather(
            day_index=(day - first_date).days,
            date=day,
            tmax=max(temps),
            tavg=left_sum(temps) / n,
            tmin=min(temps),
            precip=left_sum(precips),
        ))
        theta.append(left_sum(present) / len(present) if present else None)
    # logged once the whole series is known to be ordered
    for gap in gaps:
        logger.warning("excluding %s: only %d of %d intervals present",
                       gap.date, gap.n_records, INTERVALS_PER_DAY)
    return DailyAggregation(days=days, theta=theta, gaps=gaps)


def _parse_float(text: str, what: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataFormatError(f"line {line_no}: cannot parse {what} from {text!r}") from None
    if not math.isfinite(value):
        raise DataFormatError(f"line {line_no}: {what} must be finite, got {text!r}")
    return value


def _parse_theta(text: str, line_no: int) -> float:
    value = _parse_float(text, _THETA_COLUMN, line_no)
    if not 0.0 <= value <= 1.0:
        raise DataFormatError(f"line {line_no}: {_THETA_COLUMN} must be in [0, 1], got {text!r}")
    return value


def _checked_record(row: list, line_no: int, has_theta: bool,
                    prev: "datetime | None") -> HalfHourRecord:
    """Parse one station row with every check, raising DataFormatError
    with its line number at the first fault."""
    if len(row) < 3:
        raise DataFormatError(f"line {line_no}: expected at least 3 fields, got {len(row)}")
    try:
        ts = datetime.fromisoformat(row[0])
    except ValueError:
        raise DataFormatError(f"line {line_no}: cannot parse timestamp from {row[0]!r}") from None
    theta = None
    if has_theta and len(row) > 3 and row[3] != "":
        theta = _parse_theta(row[3], line_no)
    temp = _parse_float(row[1], "temp_c", line_no)
    precip = _parse_float(row[2], "precip_mm", line_no)
    if precip < 0.0:
        raise DataFormatError(f"line {line_no}: precip_mm must be >= 0, got {row[2]!r}")
    try:
        ordered = prev is None or prev < ts
    except TypeError:  # one timestamp has a UTC offset, the other has none
        raise DataFormatError(f"line {line_no}: timestamp {row[0]!r} cannot be ordered "
                              f"after {prev}: mixed UTC offset and none") from None
    if not ordered:
        raise OrderingError(
            f"line {line_no}: timestamps must be strictly increasing; {ts} follows {prev}"
        )
    return HalfHourRecord(ts, temp, precip, theta)


def read_half_hourly_csv(path) -> list[HalfHourRecord]:
    """Read a half-hourly station file; raises DataFormatError with line context.

    Rejects, naming the line, a row :class:`HalfHourRecord` would reject,
    a repeated or earlier timestamp, and a ``theta_vwc`` outside [0, 1].
    """
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
        append, make = records.append, tuple.__new__
        parse_ts, inf = datetime.fromisoformat, math.inf
        prev = None
        for row in reader:
            if not row:
                continue
            # The same checks as _checked_record, inlined; any fault sends the
            # row there for its error message.
            try:
                ts = parse_ts(row[0])
                temp = float(row[1])
                precip = float(row[2])
                theta = (float(row[3]) if has_theta and len(row) > 3 and row[3] != ""
                         else None)
                ok = (-inf < temp < inf and 0.0 <= precip < inf
                      and (theta is None or 0.0 <= theta <= 1.0)
                      and (prev is None or prev < ts))
            except (ValueError, IndexError, TypeError):
                ok = False
            if ok:
                append(make(HalfHourRecord, (ts, temp, precip, theta)))
            else:
                append(_checked_record(row, reader.line_num, has_theta, prev))
                ts = records[-1][0]
            prev = ts
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
    A day :class:`DailyWeather` rejects, or a ``theta_vwc`` outside [0, 1],
    raises :class:`DataFormatError` with its line number.
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
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
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
            tmax = _parse_float(row[2], "tmax_c", line_no)
            tavg = _parse_float(row[3], "tavg_c", line_no)
            tmin = _parse_float(row[4], "tmin_c", line_no)
            precip = _parse_float(row[5], "precip_mm", line_no)
            try:
                days.append(DailyWeather(day_index=day_index, date=day, tmax=tmax,
                                         tavg=tavg, tmin=tmin, precip=precip))
            except ValueError as exc:
                raise DataFormatError(f"line {line_no}: {exc}") from None
            if has_theta and len(row) > 6 and row[6] != "":
                theta.append(_parse_theta(row[6], line_no))
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
