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
frozen dataclass.  The Python pass checks each row once, cell by cell in
column order, and raises at the row's leftmost fault (a timestamp out of
order only when every cell is sound); a sound row's record is built
straight from the checked values, without the constructor's second check.
The daily reader checks its cells in column order too.

Every fault in a station or daily file (and in :func:`read_columns`' file)
is a :class:`DataFormatError` naming the file and, in a row, its line, as
``<path>: line N: ...``, whichever pass meets it (an
:class:`OrderingError` for a repeated or earlier timestamp or date), which
the CLI maps to exit code 4: a missing or wrong header, a
header that starts with a byte order mark, a byte that is not UTF-8, a
field longer than ``csv.field_size_limit()``, too few fields, an
unparseable or non-finite number, a negative precipitation, a
``theta_vwc`` outside [0, 1], and, in a daily file, a day with
``tmin <= tavg <= tmax`` broken.  The line is the physical one in the file:
a record whose quoted field holds a line break is named by its last line.
The byte that is not UTF-8 is the file's first, named even where an
earlier line has another fault: the file is decoded a block at a time.

Daily means and totals are summed left to right (:func:`ann.left_sum`), so
the aggregated bits do not depend on the Python version.

A plain station file is read by a small C scanner, built and loaded by
:mod:`._cbuild` on the first read.  Plain means: ASCII text with no ``"``,
no carriage return and no control character but the line feed; every field
no longer than ``csv.field_size_limit()`` and every line shorter than a
block (a longer one is read where it ends within the chunk); each timestamp
``YYYY-MM-DDTHH:MM:SS`` with an optional ``.ffffff`` and ``T`` or a space
between date and time, as ``datetime.isoformat`` writes a naive instant;
each number written as ``[+-]?(d+[.d*]|.d+)([eE][+-]?d+)?``; and no
fault.  The scanner reads each timestamp as its date's ordinal and
microsecond of the day, checks the calendar (leap years, month lengths,
hours 0-23, minutes and seconds 0-59) and that the timestamps strictly
increase, across chunks too, and converts ``temp_c``, ``precip_mm`` and
``theta_vwc`` to ``float()``'s bits (by Clinger's fast path or Eisel and
Lemire's algorithm where a number has at most 19 digits, else by
``strtod``), checking what the Python pass checks: every value finite,
precipitation >= 0 and theta in [0, 1].  Under a locale whose decimal point
is not ``.``, only ``strtod`` declines a number.  The file is scanned a
chunk at a time: a block of 64 KiB (``_BLOCK``) and the rest of its last
line, at most another block, into five columns sized once from the file's
length, which take memory only as far as the rows written.  The columns
are the :class:`HalfHourRecords` the reader returns, which builds a record
only where one is indexed or iterated, and :func:`daily_aggregate` sums
their days in C in the Python loop's order: each sum from 0.0, left to
right, and the first of equal maxima and minima, so ``-0.0`` and ``0.0``
keep their order.  Any other file, and a plain one with any fault, is
declined and read again, whole, by the Python pass above, the reference of
:mod:`._cbuild`'s contract: it accepts what ``csv``,
``datetime.fromisoformat`` and ``float()`` accept, and it names the fault,
with its file and line.  Where the scanner cannot be built, the Python pass
reads every file and the Python loop sums its days.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date as Date, datetime, timedelta
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import _cbuild
from .ann import left_sum
from .errors import DataFormatError, OrderingError, not_utf8, tagged
from .evapo import DailyWeather

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


class HalfHourRecords(Sequence):
    """The records of a station file, as :func:`read_half_hourly_csv` returns
    them: a read-only sequence of :class:`HalfHourRecord`, equal to the list
    of its records.  One the C scanner read holds its columns (date ordinal,
    microsecond of the day, temp, precip, and theta with NaN for no reading)
    and builds a record only where one is indexed or iterated."""

    __slots__ = ("_records", "_columns")

    def __init__(self, records=(), columns=None):
        self._records, self._columns = list(records), columns

    def __len__(self):
        return len(self._records) if self._columns is None else len(self._columns[0])

    def __getitem__(self, i):
        if self._columns is None:
            return self._records[i]
        if isinstance(i, slice):
            return list(_built([column[i] for column in self._columns]))
        i = range(len(self))[i]  # an IndexError past either end
        return next(_built([column[i:i + 1] for column in self._columns]))

    def __iter__(self):
        return iter(self._records) if self._columns is None else _built(self._columns)

    def __eq__(self, other):
        if isinstance(other, (list, HalfHourRecords)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self):
        return f"HalfHourRecords({list(self)!r})"


_UNIX_DAY = Date(1970, 1, 1).toordinal()


def _built(columns):
    """The records of scanned columns, built as they are iterated; numpy
    makes the timestamps from microseconds since 1970, which it converts
    to ``datetime`` for every year 1-9999."""
    day, micros, temp, precip, theta = columns
    stamps = ((day - _UNIX_DAY) * 86_400_000_000 + micros).astype("datetime64[us]").tolist()
    thetas = [None if v != v else v for v in theta.tolist()]
    return map(tuple.__new__, repeat(HalfHourRecord),
               zip(stamps, temp.tolist(), precip.tolist(), thetas))


def _day_runs(records: "Sequence[HalfHourRecord]"):
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


def _day_sums(records: "Sequence[HalfHourRecord]"):
    """Per day present: (date, rows, tmax, temp sum, tmin, precip sum, theta
    sum, theta readings).  Summed in C for scanned columns, else by the
    Python loop, the reference."""
    if not isinstance(records, HalfHourRecords):
        return _python_day_sums(records)
    columns = records._columns
    c = None if columns is None else _scanner()
    if c is not None:
        n = len(columns[0])
        counts, sums = np.empty((n, 3), "l"), np.empty((n, 5))
        k = c[1](n, *(a.__array_interface__["data"][0]
                      for a in (columns[0], *columns[2:], counts, sums)))
        if k >= 0:
            return ((Date.fromordinal(day), rows, tmax, tsum, tmin, psum, thsum, n_theta)
                    for (day, rows, n_theta), (tmax, tsum, tmin, psum, thsum)
                    in zip(counts[:k].tolist(), sums[:k].tolist()))
    return _python_day_sums(records._records if columns is None else list(records))


def _python_day_sums(records):
    for day, run in _day_runs(records):
        _, temps, precips, thetas = zip(*run)
        present = [v for v in thetas if v is not None]
        yield (day, len(run), max(temps), left_sum(temps), min(temps), left_sum(precips),
               left_sum(present), len(present))


def daily_aggregate(records: "Sequence[HalfHourRecord]",
                    min_coverage: int = 40) -> DailyAggregation:
    """Collapse half-hourly records into daily weather.

    Per calendar day: tmax/tavg/tmin are the max/mean/min of the interval
    temperatures, precipitation is summed, and theta is the mean of the
    values present.  Days with fewer than ``min_coverage`` of the 48
    intervals are excluded and reported in ``gaps``.
    Timestamps must be strictly increasing.  A ``min_coverage`` outside
    1..48 raises ValueError: above 48 it would drop every day.
    """
    if not 1 <= min_coverage <= INTERVALS_PER_DAY:
        raise ValueError(f"min_coverage must be in 1..{INTERVALS_PER_DAY}, got {min_coverage}")
    days: list[DailyWeather] = []
    theta: list = []
    gaps: list[DayGap] = []
    first_date = None
    for day, n, tmax, tsum, tmin, psum, thsum, n_theta in _day_sums(records):
        first_date = first_date or day
        if n < min_coverage:
            gaps.append(DayGap(day, n))
            continue
        days.append(DailyWeather(day_index=(day - first_date).days, date=day, tmax=tmax,
                                 tavg=tsum / n, tmin=tmin, precip=psum))
        theta.append(thsum / n_theta if n_theta else None)
    return DailyAggregation(days=days, theta=theta, gaps=gaps)


def _parse_cell(text: str, what: str, line_no: int, parse=float):
    """``parse(text)``, or a DataFormatError naming the line and column; a
    float must also be finite."""
    try:
        value = parse(text)
    except ValueError:
        raise DataFormatError(f"line {line_no}: cannot parse {what} from {text!r}") from None
    if parse is float and not math.isfinite(value):
        raise DataFormatError(f"line {line_no}: {what} must be finite, got {text!r}")
    return value


def _parse_theta(text: str, line_no: int) -> float:
    value = _parse_cell(text, _THETA_COLUMN, line_no)
    if not 0.0 <= value <= 1.0:
        raise DataFormatError(f"line {line_no}: {_THETA_COLUMN} must be in [0, 1], got {text!r}")
    return value


@contextlib.contextmanager
def _csv_reader(path):
    """A ``csv.reader`` over the UTF-8 file ``path``, whose every error once
    it is open names the file.  A byte that is not UTF-8, or a field longer
    than ``csv.field_size_limit()``, raises :class:`DataFormatError` naming
    its line."""
    with open(path, newline="", encoding="utf-8") as fh, tagged(f"{path}:"):
        reader = csv.reader(fh)
        try:
            yield reader
        except UnicodeDecodeError:
            raise DataFormatError(not_utf8(path)) from None
        except csv.Error as exc:  # a field over the limit
            raise DataFormatError(f"line {reader.line_num}: {exc}") from None


def _check_header_start(header: list) -> None:
    """Name a byte order mark, which spreadsheets' "CSV UTF-8" puts before the
    header and which would otherwise print as nothing."""
    if header and header[0].startswith("\ufeff"):
        raise DataFormatError("the header starts with a byte order mark (U+FEFF); "
                              "save the file as UTF-8 without one")


def _read_header(reader, columns: "tuple[str, ...]") -> bool:
    """Read the header row, which must start with ``columns``; returns
    whether ``theta_vwc`` follows them."""
    header = next(reader, None)
    if header is None:
        raise DataFormatError("empty file, header row required")
    _check_header_start(header)
    n = len(columns)
    if tuple(header[:n]) != columns:
        raise DataFormatError(f"header must start with {','.join(columns)}, "
                              f"got {','.join(header)}")
    return len(header) > n and header[n] == _THETA_COLUMN


def read_half_hourly_csv(path) -> HalfHourRecords:
    """Read a half-hourly station file; raises DataFormatError with line context.

    Rejects, naming the line, a row :class:`HalfHourRecord` would reject,
    a repeated or earlier timestamp, and a ``theta_vwc`` outside [0, 1].
    A plain file is read by the C scanner where it builds, any other file,
    and every file with a fault, by the Python pass (see the module
    docstring); both give the same records.
    """
    c = _scanner()
    records = None if c is None else _scan_plain(c, path)
    return HalfHourRecords(_read_rows(path)) if records is None else records


def _read_rows(path) -> list[HalfHourRecord]:
    """The Python pass of :func:`read_half_hourly_csv`: every file it accepts,
    and each row's leftmost fault named, its order checked only once every
    cell is sound."""
    with _csv_reader(path) as reader:
        has_theta = _read_header(reader, _HALF_HOURLY_COLUMNS)
        records, prev = [], None
        append, make, parse_ts = records.append, tuple.__new__, datetime.fromisoformat
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
            if len(row) < 3:
                raise DataFormatError(f"line {line_no}: expected at least 3 fields, got {len(row)}")
            ts = _parse_cell(row[0], "timestamp", line_no, parse_ts)
            temp = _parse_cell(row[1], "temp_c", line_no)
            precip = _parse_cell(row[2], "precip_mm", line_no)
            if precip < 0.0:
                raise DataFormatError(f"line {line_no}: precip_mm must be >= 0, got {row[2]!r}")
            theta = (_parse_theta(row[3], line_no) if has_theta and len(row) > 3 and row[3] != ""
                     else None)
            try:
                ordered = prev is None or prev < ts
            except TypeError:  # one timestamp has a UTC offset, the other has none
                raise DataFormatError(f"line {line_no}: timestamp {row[0]!r} cannot be ordered "
                                      f"after {prev}: mixed UTC offset and none") from None
            if not ordered:
                raise OrderingError(f"line {line_no}: timestamps must be strictly increasing; "
                                    f"{ts} follows {prev}")
            append(make(HalfHourRecord, (ts, temp, precip, theta)))
            prev = ts
    return records


# The scanner: the C half of the plain-file reader.  ``scan`` reads the lines
# of ``buf[0:len]``, which ends at the end of a line, skipping blank lines.
# Per row it writes the timestamp's date ordinal and microsecond of the day,
# temp_c, precip_mm and theta_vwc (NaN for no reading) to the five columns,
# at most ``room`` rows.  ``last`` holds the ordinal and microsecond of the
# row before, {0, 0} for none, so order is checked across calls.  It returns
# the rows read, or -1 for a line outside the plain subset, a value the Python
# pass would reject or a row out of order.  ``sum_days`` adds up the scanned
# columns per day.
_SCAN_SOURCE = r"""
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__SIZEOF_INT128__) && FLT_EVAL_METHOD == 0
static const double tens[] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
                              1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
@POW5@

/* w 10^q, for a w of at most 19 digits, to the nearest double, ties to even;
   0 for a subnormal or overflowing result, or a q outside pow5.  A w <= 2^53
   and |q| <= 22 are exact doubles, so one IEEE operation rounds it (Clinger);
   else Eisel-Lemire, as fast_float's compute_float (Lemire 2021), whose
   128-bit product always suffices (Mushtak and Lemire 2023). */
static int nearest(uint64_t w, long q, double *value)
{
    unsigned __int128 product;
    uint64_t hi, lo, m, second;
    int lz = __builtin_clzll(w), upper, shift;
    long power2;
    if (w <= (uint64_t)1 << 53 && q >= -22 && q <= 22) {
        *value = q < 0 ? (double)w / tens[-q] : (double)w * tens[q];
        return 1;
    }
    if (q < POW5_MIN || q > POW5_MAX) return 0;
    product = (unsigned __int128)(w <<= lz) * pow5[q - POW5_MIN][0];
    hi = (uint64_t)(product >> 64), lo = (uint64_t)product;
    if ((hi & 0x1ff) == 0x1ff) {  /* the truncated low words may carry into hi */
        second = (uint64_t)(((unsigned __int128)w * pow5[q - POW5_MIN][1]) >> 64);
        hi += (lo += second) < second;
    }
    upper = (int)(hi >> 63);
    shift = upper + 9;  /* keep 55 bits: 53 and two to round with */
    m = hi >> shift;
    power2 = ((217706 * q) >> 16) + 63 + upper - lz + 1023;  /* floor(q log2 10), shifts, bias */
    if (power2 <= 0) return 0;
    if (lo <= 1 && q >= -4 && q <= 23 && (m & 3) == 1 && m << shift == hi)
        m &= ~(uint64_t)1;  /* exactly halfway: round to even, down */
    m = (m + (m & 1)) >> 1;
    if (m >= (uint64_t)2 << 52) m = (uint64_t)1 << 52, power2++;
    if (power2 >= 0x7ff) return 0;
    m = (m & ~((uint64_t)1 << 52)) | (uint64_t)power2 << 52;
    memcpy(value, &m, sizeof m);
    return 1;
}
#endif

/* Whether s[0..n) is [+-]?(d+[.d*]|.d+)([eE][+-]?d+)?, and if so its value,
   rounded as float() rounds it.  One pass checks the text and gathers its
   significant digits into w and their decimal exponent into q; strtod reads
   what nearest() cannot, and numbers of more than 19 digits.  Only strtod
   declines a text where LC_NUMERIC's decimal point is not '.'. */
static int number(const char *s, long n, double *value)
{
    const char *p = s, *e = s + n;
    char *end;
    uint64_t w = 0;
    long n_digits = 0, q = 0, x = 0;
    int negative = 0, any = 0, x_negative = 0;
    if (p < e && (*p == '+' || *p == '-')) negative = *p++ == '-';
    for (; p < e && *p >= '0' && *p <= '9'; p++, any = 1)
        if ((w || *p != '0') && ++n_digits <= 19) w = 10 * w + (uint64_t)(*p - '0');
    if (p < e && *p == '.')
        for (p++; p < e && *p >= '0' && *p <= '9'; p++, any = 1, q--)
            if ((w || *p != '0') && ++n_digits <= 19) w = 10 * w + (uint64_t)(*p - '0');
    if (!any) return 0;
    if (p < e && (*p == 'e' || *p == 'E')) {
        if (++p < e && (*p == '+' || *p == '-')) x_negative = *p++ == '-';
        if (p == e || *p < '0' || *p > '9') return 0;
        for (; p < e && *p >= '0' && *p <= '9'; p++)
            if (x < 100000000) x = 10 * x + (*p - '0');  /* beyond, strtod reads it */
    }
    if (p != e) return 0;
    if (w == 0)
        return *value = negative ? -0.0 : 0.0, 1;
    q += x_negative ? -x : x;
#if defined(__SIZEOF_INT128__) && FLT_EVAL_METHOD == 0
    if (n_digits <= 19 && x < 100000000 && nearest(w, q, value)) {
        if (negative) *value = -*value;
        return 1;
    }
#endif
    *value = strtod(s, &end);  /* the field ends at ',' or '\n', where strtod stops */
    return end == s + n;
}

/* The n digits at s as a number, or -1 if one is not a digit. */
static long digits(const char *s, int n)
{
    long v = 0;
    for (; n > 0; n--, s++) {
        if (*s < '0' || *s > '9') return -1;
        v = 10 * v + (*s - '0');
    }
    return v;
}

/* The stamp s[0..n), YYYY-MM-DD[T ]HH:MM:SS[.ffffff] naming a real naive
   instant, as its date's ordinal (0001-01-01 is 1, as date.toordinal) and
   its microsecond of the day; 0 for any other text. */
static long stamp(const char *s, long n, long *micros)
{
    static const int before[] = {0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365};
    long y, mo, d, h, mi, sec, us = 0, leap;
    if (!(n == 19 || (n == 26 && s[19] == '.')) || s[4] != '-' || s[7] != '-'
        || (s[10] != 'T' && s[10] != ' ') || s[13] != ':' || s[16] != ':')
        return 0;
    y = digits(s, 4), mo = digits(s + 5, 2), d = digits(s + 8, 2);
    h = digits(s + 11, 2), mi = digits(s + 14, 2), sec = digits(s + 17, 2);
    if (n == 26 && (us = digits(s + 20, 6)) < 0) return 0;
    if (y < 1 || mo < 1 || mo > 12 || h < 0 || h > 23 || mi < 0 || mi > 59 || sec < 0
        || sec > 59)
        return 0;
    leap = y % 4 == 0 && (y % 100 != 0 || y % 400 == 0);
    if (d < 1 || d > before[mo] - before[mo - 1] + (mo == 2 && leap)) return 0;
    *micros = ((h * 60 + mi) * 60 + sec) * 1000000 + us;
    y--;
    return y * 365 + y / 4 - y / 100 + y / 400 + before[mo - 1] + (mo > 2 && leap) + d;
}

long scan(const char *buf, long len, long has_theta, long field_limit, long room, long *day,
          long *micros, double *temp, double *precip, double *theta, long *last)
{
    const unsigned char *line = (const unsigned char *)buf, *end = line + len;
    long rows = 0;
    for (; line < end; line++) {  /* line moves to the next line's start */
        const unsigned char *nl = memchr(line, '\n', (size_t)(end - line)), *c, *start;
        const char *field[4];
        long width[4], n_fields = 0, t = 0, o;
        double v;
        if (nl == NULL) return -1;  /* a last line cut off: not a whole line */
        if (nl == line) continue;  /* a blank line */
        for (c = start = line; ; c++) {
            if (c == nl || *c == ',') {
                if (c - start > field_limit) return -1;
                if (n_fields < 4) {
                    field[n_fields] = (const char *)start;
                    width[n_fields] = c - start;
                }
                n_fields++;
                if (c == nl) break;
                start = c + 1;
            } else if (*c < 0x20 || *c > 0x7e || *c == '"') {
                return -1;
            }
        }
        if (n_fields < 3 || rows == room) return -1;
        o = stamp(field[0], width[0], &t);
        if (o == 0 || o < last[0] || (o == last[0] && t <= last[1])) return -1;
        day[rows] = last[0] = o;
        micros[rows] = last[1] = t;
        if (!number(field[1], width[1], &v) || !isfinite(v)) return -1;
        temp[rows] = v;
        if (!number(field[2], width[2], &v) || !(v >= 0.0 && v < INFINITY)) return -1;
        precip[rows] = v;
        if (has_theta && n_fields > 3 && width[3] > 0) {
            if (!number(field[3], width[3], &v) || !(v >= 0.0 && v <= 1.0)) return -1;
            theta[rows] = v;
        } else {
            theta[rows] = NAN;
        }
        rows++;
        line = nl;
    }
    return rows;
}

/* Per day of the n rows, in order, {ordinal, rows, theta readings} to counts
   and {tmax, temp sum, tmin, precip sum, theta sum} to sums: each sum from
   0.0 in row order, and tmax and tmin the first of equal values, as Python's
   left_sum, max and min give them.  Returns the days, or -1 where a day goes
   backwards. */
long sum_days(long n, const long *day, const double *temp, const double *precip,
              const double *theta, long *counts, double *sums)
{
    long i, k = -1, *c = counts;
    double *s = sums;
    for (i = 0; i < n; i++) {
        if (k < 0 || day[i] != c[0]) {
            if (k >= 0 && day[i] < c[0]) return -1;
            k++;
            c = counts + 3 * k, s = sums + 5 * k;
            c[0] = day[i], c[1] = c[2] = 0;
            s[0] = s[2] = temp[i], s[1] = s[3] = s[4] = 0.0;
        }
        c[1]++;
        if (temp[i] > s[0]) s[0] = temp[i];
        if (temp[i] < s[2]) s[2] = temp[i];
        s[1] += temp[i];
        s[3] += precip[i];
        if (theta[i] == theta[i]) s[4] += theta[i], c[2]++;
    }
    return k + 1;
}
"""

_BLOCK = 1 << 16  # bytes read at a time by the plain-file reader
# the shortest plain row: a 19-byte stamp, two 1-byte numbers, two commas, a newline
_MIN_ROW = 24


def _powers_of_five() -> str:
    """C for fast_float's table: ``pow5[q - POW5_MIN]`` is 5^q, q in [-342, 308],
    truncated to its leading 128 bits, for q < 0 from 2^b // 5^-q + 1."""
    lo, hi, rows = -342, 308, []
    for q in range(lo, hi + 1):
        z = (5 ** -q).bit_length() if q < 0 else 0
        c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // 5 ** -q + 1 if q < 0 else 5 ** q
        c = c >> max(c.bit_length() - 128, 0) << max(128 - c.bit_length(), 0)
        rows.append(f"{{{c >> 64:#x}u, {c & (1 << 64) - 1:#x}u}}")
    table = ",\n".join(rows)
    return (f"#define POW5_MIN ({lo})\n#define POW5_MAX {hi}\n"
            f"static const uint64_t pow5[][2] = {{\n{table}\n}};")


@functools.cache
def _scanner():
    """The scanner's ``(scan, sum_days)``, built and loaded on the first read;
    None, logged once, where it cannot be."""
    return _cbuild.load("ingest", _SCAN_SOURCE.replace("@POW5@", _powers_of_five()),
                        {"scan": "lPllllPPPPPP", "sum_days": "llPPPPPP"},
                        "station files are read by the Python pass, the C scanner did "
                        "not build")


def _scan_plain(c, path) -> "HalfHourRecords | None":
    """The columns of a plain station file, scanned by ``c``'s ``scan`` a chunk
    at a time: a ``_BLOCK`` and the rest of its last line.  None for any other
    file, and for one with a fault."""
    scan = c[0]
    limit = csv.field_size_limit()
    with open(path, "rb") as fh:
        line = fh.readline(_BLOCK).decode("latin-1")
        header = line[:-1]
        if not (line.endswith("\n") and header.isascii() and header.isprintable()
                and '"' not in header):
            return None
        fields = header.split(",")
        if max(map(len, fields)) > limit:
            return None
        try:
            has_theta = _read_header(iter([fields]), _HALF_HOURLY_COLUMNS)
        except DataFormatError:
            return None
        # room for the rows of the file's size; numpy's empty arrays take
        # memory only where the scanner writes
        room = os.fstat(fh.fileno()).st_size // _MIN_ROW + 1
        columns = [np.empty(room, "l"), np.empty(room, "l"), *(np.empty(room) for _ in range(3))]
        addresses = [a.__array_interface__["data"][0] for a in columns]
        last, rows = array("l", [0, 0]), 0
        while chunk := fh.read(_BLOCK) + fh.readline(_BLOCK):
            if not chunk.endswith(b"\n"):
                if fh.read(1):  # a line running on a block past the chunk's block
                    return None
                chunk += b"\n"  # the last line lacks its newline
            n = scan(chunk, len(chunk), has_theta, limit, room - rows,
                     *(a + 8 * rows for a in addresses), last.buffer_info()[0])
            if n < 0:
                return None
            rows += n
    return HalfHourRecords(columns=tuple(a[:rows] for a in columns))


def write_half_hourly_csv(path, records: "Sequence[HalfHourRecord]") -> None:
    """Write a station file; a scanned record is built once, to be written."""
    columns = records._columns if isinstance(records, HalfHourRecords) else None
    any_theta = (any(r.theta is not None for r in records) if columns is None
                 else not np.isnan(columns[4]).all())
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
    with _csv_reader(path) as reader:
        has_theta = _read_header(reader, _DAILY_COLUMNS)
        days, theta = [], []
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
            if len(row) < 6:
                raise DataFormatError(f"line {line_no}: expected at least 6 fields, got {len(row)}")
            day = _parse_cell(row[0], "date", line_no, Date.fromisoformat)
            if days and day <= days[-1].date:
                raise OrderingError(
                    f"line {line_no}: dates must be strictly increasing; {day} "
                    f"follows {days[-1].date}"
                )
            day_index = _parse_cell(row[1], "day_index", line_no, int)
            tmax = _parse_cell(row[2], "tmax_c", line_no)
            tavg = _parse_cell(row[3], "tavg_c", line_no)
            tmin = _parse_cell(row[4], "tmin_c", line_no)
            precip = _parse_cell(row[5], "precip_mm", line_no)
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


def read_columns(path, names: "tuple[str, ...]") -> list[list[float]]:
    """Read the named columns of a CSV with a header row, one list per name.

    Every cell must be a finite number; a blank or unparseable cell, one a
    short row lacks, or a ``nan`` or ``inf`` raises :class:`DataFormatError`
    naming its line and column.
    """
    with _csv_reader(path) as reader:
        header = next(reader, None)
        if header is None:
            raise DataFormatError("empty file")
        _check_header_start(header)
        for name in names:
            if name not in header:
                raise DataFormatError(f"no column {name!r} (have {header})")
        where = [(name, header.index(name), []) for name in names]
        for row in filter(None, reader):  # blank lines are skipped
            for name, i, column in where:
                text = row[i] if i < len(row) else ""  # a short row's missing cell is blank
                column.append(_parse_cell(text, name, reader.line_num))
    return [column for _, _, column in where]


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
    # each day unpacked once: a NamedTuple field read is slow on 3.11
    rows = ([date.isoformat(), str(day_index), repr(tmax), repr(tavg), repr(tmin), repr(precip)]
            for day_index, date, tmax, tavg, tmin, precip in days)
    if any_theta:
        rows = ([*row, "" if v is None else repr(v)] for row, v in zip(rows, theta))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(_DAILY_COLUMNS) + ([_THETA_COLUMN] if any_theta else []))
        writer.writerows(rows)
