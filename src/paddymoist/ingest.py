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
the CLI maps to exit code 4: a missing or wrong header, a header that
starts with a byte order mark, a byte that is not UTF-8, a field longer
than ``csv.field_size_limit()``, too few fields, an unparseable or
non-finite number (one holding ``_`` or a character that is not ASCII
does not parse, though ``float()`` reads it), a negative precipitation, a
``theta_vwc`` outside [0, 1], and, in a daily file, a day with
``tmin <= tavg <= tmax`` broken.  The line is the physical one in the file:
a record whose quoted field holds a line break is named by its last line.
The byte that is not UTF-8 is the file's first, named even where an
earlier line has another fault: the file is decoded a block at a time.

Daily means and totals are summed left to right (:func:`ann.left_sum`), so
the aggregated bits do not depend on the Python version; a day's mean
temperature is bounded by its extremes, which only its rounding can leave.

A plain station or daily file is read by a small C scanner, built and
loaded by :mod:`._cbuild` on the first read.  Plain means: ASCII text with
no ``"``, no carriage return and no control character but the line feed;
every field no longer than ``csv.field_size_limit()`` and every line shorter
than a block (a longer one is read where it ends within the chunk); each
timestamp ``YYYY-MM-DDTHH:MM:SS`` with an optional ``.ffffff`` and ``T`` or a
space between date and time, as ``datetime.isoformat`` writes a naive
instant; each date ``YYYY-MM-DD``; each ``day_index`` ``[+-]?d+`` of at most
18 digits; each number ``[+-]?(d+[.d*]|.d+)([eE][+-]?d+)?``; and no fault.
The scanner reads each byte once: it parses a stamp, date or number where
its field starts, and checks byte by byte only the fields it does not parse.
It checks the calendar (leap years, month lengths, hours 0-23, minutes and
seconds 0-59), that the stamps or dates strictly increase, across chunks
too, and what the Python pass checks of each value, and reads each number
to ``float()``'s bits (by Clinger's fast path or Eisel and Lemire's
algorithm for at most 19 digits, taken eight at a step by fast_float's SWAR
test once one is significant, else by ``strtod``, which alone declines a
number under a locale whose decimal point is not ``.``).  The file is
scanned a chunk at a time, never read past its end: a block of 64 KiB
(``_BLOCK``) and the rest of its last line, at most another block, into
columns sized once from the file's length, which take memory only as far as
the rows written.  A station file's columns are the
:class:`HalfHourRecords` the reader returns, which builds a record only
where one is indexed or iterated, and :func:`daily_aggregate` sums their
days in C in the Python loop's order: each sum from 0.0, left to right, and
the first of equal maxima and minima, so ``-0.0`` and ``0.0`` keep their
order.  Any other file, and a plain one with any fault, is declined and read
again, whole, by the Python pass above, the reference of :mod:`._cbuild`'s
contract, which names the fault with its file and line.  Where the scanner
cannot be built, the Python pass reads every file and the Python loop sums
its days.  The writers format each row as one line (no cell needs ``csv``
quoting), each real as ``repr(float(v))``; the same object writes a daily
file's lines to those bytes (696 days in 0.85 ms, not 2.9 ms): Ryu's shortest
digits (Adams 2018), positional for 1e-4 <= |v| < 1e16, else ``d[.ddd]e+XX``.
A block holding a real not finite, a year outside 1-9999 or a cell not an
``int``, ``date`` or real is declined, and written by the Python lines.
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
from itertools import islice, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import _cbuild
from .ann import ascii_number, left_sum
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
    1..48 raises ValueError: above 48 it would drop every day.  tavg is
    bounded by tmin and tmax, which only its rounding can leave (48 readings
    of 23.3 average to 23.29999999999998).
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
                                 tavg=min(max(tsum / n, tmin), tmax), tmin=tmin, precip=psum))
        theta.append(thsum / n_theta if n_theta else None)
    return DailyAggregation(days=days, theta=theta, gaps=gaps)


def _parse_cell(text: str, what: str, line_no: int, parse=float):
    """``ascii_number(text, parse)``, or a DataFormatError naming the line and
    column; a float must also be finite."""
    try:
        value = ascii_number(text, parse)
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


# The scanner: the C half of the plain-file readers.  ``scan`` reads the lines
# of ``buf[0:len]``, which ends at the end of a line, skipping blank lines.
# Per row it writes the timestamp's date ordinal and microsecond of the day,
# temp_c, precip_mm and theta_vwc (NaN for no reading) to the five columns,
# at most ``room`` rows.  ``last`` holds the ordinal and microsecond of the
# row before, {0, 0} for none, so order is checked across calls.  It returns
# the rows read, or -1 for a line outside the plain subset, a value the Python
# pass would reject or a row out of order.  ``scan_daily`` does the same for a
# daily file, ``sum_days`` adds up the scanned station columns per day, and
# ``format_daily`` writes a daily file's lines.
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

/* The end of the digits at p, before end, which w takes as far as its first
   19 significant ones, counted in *n: once one is seen and while at most 11
   are, eight at a step by fast_float's SWAR test and multiply (Lemire 2021). */
static const char *run(const char *p, const char *end, uint64_t *w, long *n)
{
    uint64_t v;
    for (;;) {
        if (*w && *n <= 11 && end - p >= 8) {
            memcpy(&v, p, sizeof v);
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
            v = __builtin_bswap64(v);
#endif
            if (!(((v + 0x4646464646464646u) | (v - 0x3030303030303030u)) & 0x8080808080808080u)) {
                v -= 0x3030303030303030u, v = v * 10 + (v >> 8);
                v = ((v & 0xff000000ffu) * 0xf424000000064u
                     + (v >> 16 & 0xff000000ffu) * 0x271000000001u) >> 32;
                *w = *w * 100000000 + (uint32_t)v, *n += 8, p += 8;
                continue;
            }
        }
        if (*p < '0' || *p > '9') return p;
        if ((*w || *p != '0') && ++*n <= 19) *w = 10 * *w + (uint64_t)(*p - '0');
        p++;
    }
}

/* The end of the field at s, [+-]?(d+[.d*]|.d+)([eE][+-]?d+)? of at most limit
   bytes ending at ',' or '\n' before end, and its value as float() rounds it;
   NULL for any other field.  One pass checks the text and gathers its
   significant digits into w and their decimal exponent into q (the line's
   '\n' stops each loop); strtod reads what nearest() cannot, and numbers of
   more than 19 digits.  Only strtod declines a text where LC_NUMERIC's
   decimal point is not '.'. */
static const char *number(const char *s, const char *end, long limit, double *value)
{
    const char *p = s, *digits, *point = NULL;
    char *stop;
    uint64_t w = 0;
    long n_digits = 0, q = 0, x = 0;
    int negative = 0, x_negative = 0;
    if (*p == '+' || *p == '-') negative = *p++ == '-';
    p = run(digits = p, end, &w, &n_digits);
    if (*p == '.')
        point = p + 1, p = run(point, end, &w, &n_digits), q = point - p;
    if (p - digits == (point != NULL)) return NULL;  /* no digit */
    if (*p == 'e' || *p == 'E') {
        if (*++p == '+' || *p == '-') x_negative = *p++ == '-';
        if (*p < '0' || *p > '9') return NULL;
        for (; *p >= '0' && *p <= '9'; p++)
            if (x < 100000000) x = 10 * x + (*p - '0');  /* beyond, strtod reads it */
    }
    if (p - s > limit || (*p != ',' && *p != '\n')) return NULL;
    if (w == 0)
        return *value = negative ? -0.0 : 0.0, p;
    q += x_negative ? -x : x;
#if defined(__SIZEOF_INT128__) && FLT_EVAL_METHOD == 0
    if (n_digits <= 19 && x < 100000000 && nearest(w, q, value)) {
        if (negative) *value = -*value;
        return p;
    }
#endif
    *value = strtod(s, &stop);
    return stop == p ? p : NULL;
}

/* Whether the fields from p, the end of a parsed field, to nl are printable
   ASCII but '"', each of at most limit bytes: the only bytes checked singly. */
static int rest(const char *p, const char *nl, long limit)
{
    const char *comma = p;
    for (; p < nl; p++) {
        unsigned char b = (unsigned char)*p;
        if (b == ',') comma = p;
        else if (b < 0x20 || b > 0x7e || b == '"' || p - comma > limit) return 0;
    }
    return 1;
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

/* The date at s, YYYY-MM-DD naming a real day, as its ordinal (0001-01-01 is
   1, as date.toordinal); 0 for any other text.  s[0..10) must be readable. */
static long ordinal(const char *s)
{
    static const int before[] = {0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365};
    long y = digits(s, 4), mo = digits(s + 5, 2), d = digits(s + 8, 2), leap;
    if (s[4] != '-' || s[7] != '-' || y < 1 || mo < 1 || mo > 12) return 0;
    leap = y % 4 == 0 && (y % 100 != 0 || y % 400 == 0);
    if (d < 1 || d > before[mo] - before[mo - 1] + (mo == 2 && leap)) return 0;
    y--;
    return y * 365 + y / 4 - y / 100 + y / 400 + before[mo - 1] + (mo > 2 && leap) + d;
}

/* The stamp at the start of the line s..nl, YYYY-MM-DD[T ]HH:MM:SS[.ffffff]
   naming a real naive instant, as its date's ordinal and its microsecond of
   the day, with *end just after it; 0 for any other text. */
static long stamp(const char *s, const char *nl, long *micros, const char **end)
{
    long o, h, mi, sec, us = 0;
    if (nl - s < 19 || (s[10] != 'T' && s[10] != ' ') || s[13] != ':' || s[16] != ':'
        || (o = ordinal(s)) == 0)
        return 0;
    h = digits(s + 11, 2), mi = digits(s + 14, 2), sec = digits(s + 17, 2);
    if (s[19] == '.' && (us = digits(s + 20, 6)) < 0) return 0;
    *end = s + (s[19] == '.' ? 26 : 19);
    if (h < 0 || h > 23 || mi < 0 || mi > 59 || sec < 0 || sec > 59) return 0;
    *micros = ((h * 60 + mi) * 60 + sec) * 1000000 + us;
    return o;
}

/* The end of theta_vwc after p, the end of the field before it: NaN where
   there is no reading, else a number in [0, 1]; NULL for any other. */
static const char *reading(const char *p, const char *end, long has_theta, long limit,
                           double *theta)
{
    *theta = NAN;
    if (!has_theta || *p != ',') return p;  /* no theta column, or no more fields */
    if (p[1] == ',' || p[1] == '\n') return p + 1;  /* an empty cell */
    p = number(p + 1, end, limit, theta);
    return p != NULL && *theta >= 0.0 && *theta <= 1.0 ? p : NULL;
}

long scan(const char *buf, long len, long has_theta, long field_limit, long room, long *day,
          long *micros, double *temp, double *precip, double *theta, long *last)
{
    const char *line = buf, *end = buf + len, *p;
    long rows = 0, o, t;
    for (; line < end; line++) {  /* line moves to the next line's start */
        const char *nl = memchr(line, '\n', (size_t)(end - line));
        if (nl == NULL) return -1;  /* a last line cut off: not a whole line */
        if (nl == line) continue;  /* a blank line */
        if (rows == room || (o = stamp(line, nl, &t, &p)) == 0 || p - line > field_limit
            || *p != ',' || o < last[0] || (o == last[0] && t <= last[1]))
            return -1;
        day[rows] = last[0] = o;
        micros[rows] = last[1] = t;
        if ((p = number(p + 1, end, field_limit, &temp[rows])) == NULL || *p != ','
            || !isfinite(temp[rows]))
            return -1;
        if ((p = number(p + 1, end, field_limit, &precip[rows])) == NULL
            || !(precip[rows] >= 0.0 && precip[rows] < INFINITY))
            return -1;
        if ((p = reading(p, end, has_theta, field_limit, &theta[rows])) == NULL
            || !rest(p, nl, field_limit))
            return -1;
        rows++;
        line = nl;
    }
    return rows;
}

/* scan for a daily file: per row the date's ordinal, day_index ([+-]?d+ of at
   most 18 digits), tmax_c, tavg_c, tmin_c, precip_mm and theta_vwc, where
   last[0] is the ordinal of the row before, 0 for none; -1 also for a date
   not after it and for tmin <= tavg <= tmax broken. */
long scan_daily(const char *buf, long len, long has_theta, long field_limit, long room,
                long *day, long *index, double *tmax, double *tavg, double *tmin,
                double *precip, double *theta, long *last)
{
    const char *line = buf, *end = buf + len, *p, *first;
    long rows = 0, o, k;
    for (; line < end; line++) {
        const char *nl = memchr(line, '\n', (size_t)(end - line));
        double *value[] = {tmax + rows, tavg + rows, tmin + rows, precip + rows};
        if (nl == NULL) return -1;
        if (nl == line) continue;
        if (rows == room || nl - line < 10 || (o = ordinal(line)) <= last[0] || line[10] != ','
            || field_limit < 10)
            return -1;
        day[rows] = last[0] = o;
        first = p = line + 11 + (line[11] == '+' || line[11] == '-');
        for (index[rows] = 0; *p >= '0' && *p <= '9' && p - first < 18; p++)
            index[rows] = 10 * index[rows] + (*p - '0');
        if (p == first || *p != ',' || p - (line + 11) > field_limit) return -1;
        if (line[11] == '-') index[rows] = -index[rows];
        for (k = 0; k < 4; k++)
            if ((p = number(p + 1, end, field_limit, value[k])) == NULL || (k < 3 && *p != ',')
                || !isfinite(*value[k]))
                return -1;
        if (!(tmin[rows] <= tavg[rows] && tavg[rows] <= tmax[rows] && precip[rows] >= 0.0))
            return -1;
        if ((p = reading(p, end, has_theta, field_limit, &theta[rows])) == NULL
            || !rest(p, nl, field_limit))
            return -1;
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

#ifdef __SIZEOF_INT128__
@RYU@
#define POW5_BITS(e) ((int)(((uint32_t)(e) * 1217359) >> 19) + 1)  /* of 5^e, e <= 3528 */

/* m a table row {high, low} >> j, m < 2^56 and j >= 64 */
static uint64_t mul_shift(uint64_t m, const uint64_t *row, int j)
{
    unsigned __int128 high = (unsigned __int128)m * row[0], low = (unsigned __int128)m * row[1];
    return (uint64_t)(((low >> 64) + high) >> (j - 64));
}

/* Whether 5^p divides v > 0. */
static int fives(uint64_t v, int p)
{
    for (; v % 5 == 0; v /= 5) p--;
    return p <= 0;
}

/* The digits repr gives the finite nonzero double of these bits, as Ryu
   finds them (Adams 2018, d2s.c's general case): the fewest that read back
   as it, and of those the closest, ties to even; *e takes the last digit's
   decimal exponent. */
static uint64_t shortest(uint64_t bits, int *e)
{
    int biased = (int)(bits >> 52), e2 = (biased ? biased : 1) - 1077, q, j, removed = 0, last = 0;
    uint64_t fraction = bits << 12 >> 12, m2 = fraction | (uint64_t)!!biased << 52, mv = 4 * m2;
    int even = !(m2 & 1), shift = fraction || biased <= 1, vm_zeros = 0, vr_zeros = 0, vp_cut = 0;
    uint64_t vr, vp, vm;
    const uint64_t *row;
    if (e2 >= 0) {
        q = (int)((e2 * 78913L) >> 18) - (e2 > 3);  /* floor(e2 log10 2), less one past 3 */
        row = ryu_inv[q], j = -e2 + q + 124 + POW5_BITS(q);
        if (q <= 21) {
            if (mv % 5 == 0) vr_zeros = fives(mv, q);
            else if (even) vm_zeros = fives(mv - 1 - shift, q);
            else vp_cut = fives(mv + 2, q);
        }
        *e = q;
    } else {
        q = (int)((-e2 * 732923L) >> 20) - (-e2 > 1);  /* floor(-e2 log10 5), less one past 1 */
        row = ryu_pow5[-e2 - q], j = q - POW5_BITS(-e2 - q) + 125;
        if (q <= 1)
            vr_zeros = 1, vm_zeros = even && shift, vp_cut = !even;
        else if (q < 63)
            vr_zeros = (mv & (((uint64_t)1 << q) - 1)) == 0;
        *e = q + e2;
    }
    vr = mul_shift(mv, row, j), vp = mul_shift(mv + 2, row, j) - vp_cut;
    vm = mul_shift(mv - 1 - shift, row, j);
    /* shorter while the interval holds a shorter decimal, then while vm, an
       accepted bound, ends in 0 (once vp / 10 == vm / 10 it stays so) */
    for (; vp / 10 > vm / 10 || (vm_zeros && vm % 10 == 0); removed++) {
        vm_zeros &= vm % 10 == 0;
        vr_zeros &= last == 0;
        last = (int)(vr % 10);
        vr /= 10, vp /= 10, vm /= 10;
    }
    if (vr_zeros && last == 5 && vr % 2 == 0) last = 4;  /* exactly halfway: to even */
    *e += removed;
    return vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
}

/* The n bytes at s at out; returns their end there. */
static char *put(char *out, const char *s, long n)
{
    return (char *)memcpy(out, s, (size_t)n) + n;
}

/* u in decimal at out, in at least width digits; returns the end. */
static char *decimal(char *out, uint64_t u, int width)
{
    char digits[20], *d = digits + 20;
    do *--d = (char)('0' + u % 10); while ((u /= 10) || digits + 20 - d < width);
    return put(out, d, digits + 20 - d);
}

/* The finite v as repr(v) writes it, at out; returns the end.  With the
   digits 0.ddd 10^point, positional for -4 < point <= 16, else d[.ddd]e+XX
   or e-XX, as float_repr_style 'short'. */
static char *real(char *out, double v)
{
    char d[20];
    uint64_t bits, w;
    int e, n, point;
    memcpy(&bits, &v, sizeof bits);
    if (bits >> 63) *out++ = '-';
    if (!(bits << 1)) return put(out, "0.0", 3);
    for (w = shortest(bits << 1 >> 1, &e); w % 10 == 0; w /= 10) e++;
    n = (int)(decimal(d, w, 1) - d), point = n + e;
    if (point <= -4 || point > 16) {
        *out++ = d[0];
        if (n > 1) *out++ = '.', out = put(out, d + 1, n - 1);
        *out++ = 'e', *out++ = point > 0 ? '+' : '-';
        return decimal(out, (uint64_t)(point > 0 ? point - 1 : 1 - point), 2);
    }
    if (point <= 0) return put(put(out, "0.000", 2 - point), d, n);  /* 0.000ddd */
    out = put(out, d, point < n ? point : n);
    if (point < n) return *out = '.', put(out + 1, d + point, n - point);  /* dd.ddd */
    for (; n < point; n++) *out++ = '0';  /* ddd000.0 */
    return put(out, ".0", 2);
}
#endif

/* write_daily_csv's lines for n days into out, which holds ROW_BYTES a row:
   per row the date of the ordinal day (years 1-9999, by Hinnant's
   civil_from_days), the day_index, tmax_c, tavg_c, tmin_c, precip_mm and,
   where theta is not NULL, theta_vwc (NaN for an empty cell), each real as
   repr writes it.  Returns the bytes written, or -1 for another year or a
   real that is not finite. */
long format_daily(long n, const long *day, const long *index, const double *tmax,
                  const double *tavg, const double *tmin, const double *precip,
                  const double *theta, char *out)
{
#ifdef __SIZEOF_INT128__
    char *p = out;
    long i, k, z, era, doe, yoe, doy, mp, m, y;
    for (i = 0; i < n; i++) {
        const double value[] = {tmax[i], tavg[i], tmin[i], precip[i]};
        if (day[i] < 1 || day[i] > 3652059) return -1;
        z = day[i] + 305, era = z / 146097, doe = z - era * 146097;  /* days since 0000-03-01 */
        yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
        doy = doe - (365 * yoe + yoe / 4 - yoe / 100), mp = (5 * doy + 2) / 153;
        m = mp < 10 ? mp + 3 : mp - 9, y = era * 400 + yoe + (m <= 2);
        z = doy - (153 * mp + 2) / 5 + 1;  /* the day of the month */
        p = decimal(p, (uint64_t)y, 4), *p++ = '-';
        p = decimal(p, (uint64_t)m, 2), *p++ = '-';
        p = decimal(p, (uint64_t)z, 2), *p++ = ',';
        if (index[i] < 0) *p++ = '-';
        p = decimal(p, index[i] < 0 ? 0 - (uint64_t)index[i] : (uint64_t)index[i], 1);
        for (k = 0; k < 4; k++) {
            if (!isfinite(value[k])) return -1;
            *p++ = ',', p = real(p, value[k]);
        }
        if (theta != NULL) {
            if (isinf(theta[i])) return -1;
            *p++ = ',';
            if (theta[i] == theta[i]) p = real(p, theta[i]);
        }
        *p++ = '\n';
    }
    return p - out;
#else
    return -1;
#endif
}
"""

_BLOCK = 1 << 16  # bytes read at a time by the plain-file reader
_BLOCK_ROWS = 1024  # rows formatted at a time by the writers
# the longest daily line: date, day_index, five reals, six commas and newline
_ROW_BYTES = 10 + len(str(-2 ** 63)) + 5 * len("-2.2250738585072014e-308") + 6 + 1
# header -> index of its C function in _scanner(), its columns of doubles, and
# the shortest plain row ("YYYY-MM-DDTHH:MM:SS,1,1\n", "YYYY-MM-DD,1,1,1,1,1\n")
_KINDS = {_HALF_HOURLY_COLUMNS: (0, 3, 24), _DAILY_COLUMNS: (2, 5, 21)}


def _table(name: str, values) -> str:
    """C for the array ``name`` of 128-bit ``values``, each row {high, low}."""
    rows = ",\n".join(f"{{{v >> 64:#x}u, {v & (1 << 64) - 1:#x}u}}" for v in values)
    return f"static const uint64_t {name}[][2] = {{\n{rows}\n}};"


def _powers_of_five() -> str:
    """C for fast_float's table: ``pow5[q - POW5_MIN]`` is 5^q, q in [-342, 308],
    truncated to its leading 128 bits, for q < 0 from 2^b // 5^-q + 1."""
    lo, hi, rows = -342, 308, []
    for q in range(lo, hi + 1):
        z = (5 ** -q).bit_length() if q < 0 else 0
        c = (1 << (z + 127 if q >= -27 else 2 * z + 128)) // 5 ** -q + 1 if q < 0 else 5 ** q
        rows.append(c >> max(c.bit_length() - 128, 0) << max(128 - c.bit_length(), 0))
    return f"#define POW5_MIN ({lo})\n#define POW5_MAX {hi}\n" + _table("pow5", rows)


def _ryu_tables() -> str:
    """C for Ryu's tables (d2s_full_table.h): ``ryu_pow5[i]`` is 5^i cut to its
    leading 125 bits, ``ryu_inv[q]`` 2^(b + 124) // 5^q + 1 for 5^q of b bits."""
    powers = [5 ** i for i in range(326)]
    return "\n".join([
        _table("ryu_pow5", [p >> max(p.bit_length() - 125, 0) << max(125 - p.bit_length(), 0)
                            for p in powers]),
        _table("ryu_inv", [(1 << p.bit_length() + 124) // p + 1 for p in powers[:291]])])


@functools.cache
def _scanner():
    """The scanner's ``(scan, sum_days, scan_daily, format_daily)``, built and
    loaded on first use; None, logged once, where it cannot be."""
    source = _SCAN_SOURCE.replace("@POW5@", _powers_of_five()).replace("@RYU@", _ryu_tables())
    return _cbuild.load("ingest", source,
                        {"scan": "lPllllPPPPPP", "sum_days": "llPPPPPP",
                         "scan_daily": "lPllllPPPPPPPP", "format_daily": "llPPPPPPPP"},
                        "station and daily files are read and written by the Python "
                        "passes, the C scanner did not build")


def _scan_plain(c, path, columns=_HALF_HOURLY_COLUMNS):
    """The :class:`HalfHourRecords` of a plain station file, or with the daily
    ``columns`` the ``(days, theta)`` of a plain daily file, scanned by ``c`` a
    ``_BLOCK`` and the rest of its last line at a time; None for any other file."""
    function, n_doubles, min_row = _KINDS[columns]
    scan = c[function]
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
            has_theta = _read_header(iter([fields]), columns)
        except DataFormatError:
            return None
        # room for the rows of the file's size; numpy's empty arrays take
        # memory only where the scanner writes
        room = os.fstat(fh.fileno()).st_size // min_row + 1
        arrays = [np.empty(room, "l"), np.empty(room, "l"), *map(np.empty, [room] * n_doubles)]
        addresses = [a.__array_interface__["data"][0] for a in arrays]
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
    if columns != _DAILY_COLUMNS:
        return HalfHourRecords(columns=tuple(a[:rows] for a in arrays))
    # the days are built past DailyWeather's check, which the scanner made
    day, index, *values, theta = (a[:rows].tolist() for a in arrays)
    days = list(map(tuple.__new__, repeat(DailyWeather),
                    zip(index, map(Date.fromordinal, day), *values)))
    return days, [None if v != v else v for v in theta]


def write_half_hourly_csv(path, records: "Sequence[HalfHourRecord]") -> None:
    """Write a station file, one formatted line per record (no cell needs
    quoting), each real as ``repr(float(v))``; a scanned record is built
    once, to be written."""
    columns = records._columns if isinstance(records, HalfHourRecords) else None
    any_theta = (any(r.theta is not None for r in records) if columns is None
                 else not np.isnan(columns[4]).all())
    header = _HALF_HOURLY_COLUMNS + ((_THETA_COLUMN,) if any_theta else ())
    if any_theta:
        lines = (f"{ts.isoformat()},{float(temp)!r},{float(precip)!r},"
                 f"{'' if theta is None else repr(float(theta))}\n"
                 for ts, temp, precip, theta in records)
    else:
        lines = (f"{ts.isoformat()},{float(temp)!r},{float(precip)!r}\n"
                 for ts, temp, precip, _ in records)
    _write_lines(path, header, iter(lambda: "".join(islice(lines, _BLOCK_ROWS)).encode(), b""))


def _write_lines(path, header, blocks) -> None:
    """Write a CSV file: the header's names, then each block of lines (bytes)."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for block in blocks:
            fh.write(block)


def read_daily_csv(path) -> tuple[list[DailyWeather], list]:
    """Read a daily file; returns (days, theta list aligned with days).

    Dates must be strictly increasing: a repeated or earlier date raises
    :class:`OrderingError` with its line number.  Skipped dates are allowed.
    A day :class:`DailyWeather` rejects, or a ``theta_vwc`` outside [0, 1],
    raises :class:`DataFormatError` with its line number.  The C scanner or
    the Python pass reads it, as a station file (see the module docstring).
    """
    c = _scanner()
    scanned = None if c is None else _scan_plain(c, path, _DAILY_COLUMNS)
    return _read_daily_rows(path) if scanned is None else scanned


def _read_daily_rows(path) -> tuple[list[DailyWeather], list]:
    """The Python pass of :func:`read_daily_csv`, which names each fault."""
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
    """Write a daily file, one formatted line per day (no cell needs quoting);
    theta, if given, must align with days.  Raises DataFormatError, writing
    nothing, for what :func:`read_daily_csv` would reject: a day_index not an
    ``int`` or a date not a ``datetime.date`` (a bool or a datetime is neither),
    dates that do not strictly increase, or a theta that is not in [0, 1]."""
    if theta is not None and len(theta) != len(days):
        raise DataFormatError(
            f"theta has {len(theta)} entries for {len(days)} days"
        )
    any_theta = theta is not None and any(v is not None for v in theta)
    dates = list(map(itemgetter(1), days))
    if not ({*map(type, dates)} <= {Date} and {*map(type, map(itemgetter(0), days))} <= {int}):
        day = next(d for d in days if (type(d[0]), type(d[1])) != (int, Date))
        raise DataFormatError(f"a day needs an int day_index and a datetime.date date, got "
                              f"{day[0]!r} and {day[1]!r}")
    for prev, date in zip(dates, dates[1:]):
        if date <= prev:
            raise OrderingError(f"dates must be strictly increasing; {date} follows {prev}")
    for day, v in zip(days, theta if any_theta else ()):
        if v is not None and not 0.0 <= v <= 1.0:
            raise DataFormatError(f"{_THETA_COLUMN} must be in [0, 1], got {v!r} on {day.date}")
    theta = theta if any_theta else None
    c, out = _scanner(), np.empty(min(len(days), _BLOCK_ROWS) * _ROW_BYTES, np.uint8)
    _write_lines(path, _DAILY_COLUMNS + ((_THETA_COLUMN,) if any_theta else ()),
                 (_daily_block(c, days[i:i + _BLOCK_ROWS], theta and theta[i:i + _BLOCK_ROWS], out)
                  for i in range(0, len(days), _BLOCK_ROWS)))


def _daily_block(c, days, theta, out):
    """The lines of ``days``, with a ``theta`` column unless it is None: the
    bytes ``format_daily`` of ``c`` writes into ``out``, or where there is no
    ``c`` or it declines the block, the Python lines, its reference."""
    index, dates, *reals = zip(*days)
    n = -1
    if c is not None:  # write_daily_csv has refused a bool or float index and a datetime
        with contextlib.suppress(TypeError, OverflowError):  # a cell no long or double holds
            columns = [array("l", map(Date.toordinal, dates)), array("l", index),
                       *(array("d", column) for column in reals),
                       None if theta is None else array("d", [math.nan if v is None else v
                                                              for v in theta])]
            n = c[3](len(days), *(a if a is None else a.buffer_info()[0] for a in columns),
                     out.__array_interface__["data"][0])
    if n >= 0:
        return out[:n]
    cells = repeat("") if theta is None else (f",{'' if v is None else repr(float(v))}"
                                              for v in theta)
    # each day unpacked once: a NamedTuple field read is slow on 3.11
    return "".join(f"{date.isoformat()},{i},{float(tmax)!r},{float(tavg)!r},"
                   f"{float(tmin)!r},{float(precip)!r}{cell}\n"
                   for (i, date, tmax, tavg, tmin, precip), cell in zip(days, cells)).encode()
