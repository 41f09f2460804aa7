"""Half-hourly ingestion, gap handling, and CSV round trips."""

import logging
import random
from datetime import date, datetime, timedelta

import pytest

from paddymoist.ann import left_sum
from paddymoist.errors import DataFormatError, OrderingError
from paddymoist.evapo import DailyWeather
from paddymoist.ingest import (INTERVALS_PER_DAY, DailyAggregation, DayGap, HalfHourRecord,
                               check_consecutive, daily_aggregate, read_daily_csv,
                               read_half_hourly_csv, write_daily_csv, write_half_hourly_csv)


def _day_records(day, temps, precip=0.0, theta=None, n=48):
    start = datetime(day.year, day.month, day.day)
    out = []
    for i in range(n):
        out.append(HalfHourRecord(
            timestamp=start + timedelta(minutes=30 * i),
            temp=temps[i] if hasattr(temps, "__len__") else temps,
            precip=precip,
            theta=theta,
        ))
    return out


class TestDailyAggregate:

    def test_constant_temperature_collapses(self):
        agg = daily_aggregate(_day_records(date(2011, 1, 5), 20.0))
        day = agg.days[0]
        assert (day.tmax, day.tavg, day.tmin) == (20.0, 20.0, 20.0)

    def test_precip_sums(self):
        agg = daily_aggregate(_day_records(date(2011, 1, 5), 20.0, precip=0.5))
        assert agg.days[0].precip == pytest.approx(24.0, abs=1e-12)

    def test_hand_computed_fixture(self):
        # temps 15.00, 15.25, ... 26.75; precip 0.3 per interval
        temps = [15.0 + 0.25 * i for i in range(48)]
        agg = daily_aggregate(_day_records(date(2011, 1, 5), temps, precip=0.3))
        day = agg.days[0]
        assert day.tmin == 15.0
        assert day.tmax == 26.75
        assert day.tavg == pytest.approx(20.875, abs=1e-12)
        assert day.precip == pytest.approx(14.4, abs=1e-12)

    def test_theta_mean_of_present_values(self):
        recs = _day_records(date(2011, 1, 5), 20.0)
        recs = [HalfHourRecord(r.timestamp, r.temp, r.precip,
                               theta=0.4 if i < 24 else None)
                for i, r in enumerate(recs)]
        agg = daily_aggregate(recs)
        assert agg.theta[0] == pytest.approx(0.4, abs=1e-12)

    def test_day_without_theta_yields_none(self):
        agg = daily_aggregate(_day_records(date(2011, 1, 5), 20.0))
        assert agg.theta == [None]

    def test_short_day_excluded_and_reported(self):
        full = _day_records(date(2011, 1, 5), 20.0)
        short = _day_records(date(2011, 1, 6), 21.0, n=39)
        agg = daily_aggregate(full + short)
        assert len(agg.days) == 1
        assert len(agg.gaps) == 1
        assert agg.gaps[0].date == date(2011, 1, 6)
        assert agg.gaps[0].n_records == 39

    def test_boundary_coverage_kept(self):
        agg = daily_aggregate(_day_records(date(2011, 1, 5), 20.0, n=40))
        assert len(agg.days) == 1 and not agg.gaps

    def test_day_index_counts_calendar_days(self):
        d1 = _day_records(date(2011, 1, 5), 20.0)
        d3 = _day_records(date(2011, 1, 7), 22.0)  # gap day absent entirely
        agg = daily_aggregate(d1 + d3)
        assert [d.day_index for d in agg.days] == [0, 2]

    def test_unsorted_rejected(self):
        recs = _day_records(date(2011, 1, 5), 20.0)
        recs[5], recs[6] = recs[6], recs[5]
        with pytest.raises(OrderingError):
            daily_aggregate(recs)

    def test_duplicate_timestamp_rejected(self):
        recs = _day_records(date(2011, 1, 5), 20.0)
        recs[7] = recs[6]
        with pytest.raises(OrderingError):
            daily_aggregate(recs)

    def test_empty_input(self):
        agg = daily_aggregate([])
        assert agg.days == [] and agg.theta == [] and agg.gaps == []


class TestHalfHourlyCsv:

    def test_round_trip(self, tmp_path):
        recs = _day_records(date(2011, 1, 5), 20.0, precip=0.25, theta=0.41)
        path = tmp_path / "hh.csv"
        write_half_hourly_csv(path, recs)
        assert read_half_hourly_csv(path) == recs

    def test_missing_header(self, tmp_path):
        path = tmp_path / "hh.csv"
        path.write_text("2011-01-05T00:00:00,20.0,0.0\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            read_half_hourly_csv(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "hh.csv"
        path.write_text("timestamp_iso8601,temp_c,precip_mm\n"
                        "2011-01-05T00:00:00,20.0,0.0\n"
                        "2011-01-05T00:30:00,oops,0.0\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as exc:
            read_half_hourly_csv(path)
        assert "line 3" in str(exc.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "hh.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataFormatError):
            read_half_hourly_csv(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_reports_line(self, tmp_path, bad):
        path = tmp_path / "hh.csv"
        path.write_text("timestamp_iso8601,temp_c,precip_mm\n"
                        "2011-01-05T00:00:00,20.0,0.0\n"
                        f"2011-01-05T00:30:00,20.0,{bad}\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3: precip_mm must be finite"):
            read_half_hourly_csv(path)


class TestDailyCsv:

    def _days(self):
        return [
            DailyWeather(0, date(2011, 1, 5), tmax=30.25, tavg=24.5, tmin=20.125,
                         precip=12.75),
            DailyWeather(1, date(2011, 1, 6), tmax=29.0, tavg=23.0, tmin=19.0,
                         precip=0.0),
        ]

    def test_round_trip_with_theta(self, tmp_path):
        path = tmp_path / "daily.csv"
        write_daily_csv(path, self._days(), [0.41, 0.435])
        days, theta = read_daily_csv(path)
        assert days == self._days()
        assert theta == [0.41, 0.435]

    def test_round_trip_without_theta(self, tmp_path):
        path = tmp_path / "daily.csv"
        write_daily_csv(path, self._days())
        days, theta = read_daily_csv(path)
        assert days == self._days()
        assert theta == [None, None]

    def test_column_order(self, tmp_path):
        path = tmp_path / "daily.csv"
        write_daily_csv(path, self._days(), [0.41, None])
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "date,day_index,tmax_c,tavg_c,tmin_c,precip_mm,theta_vwc"

    def test_theta_length_mismatch(self, tmp_path):
        with pytest.raises(DataFormatError):
            write_daily_csv(tmp_path / "daily.csv", self._days(), [0.4])

    @pytest.mark.parametrize("column", [2, 3, 4, 5, 6])
    def test_non_finite_cell_rejected(self, tmp_path, column):
        path = tmp_path / "daily.csv"
        write_daily_csv(path, self._days(), [0.41, 0.435])
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[2].split(",")
        cells[column] = "nan"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3: .* must be finite"):
            read_daily_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_text("a,b,c\n", encoding="utf-8")
        with pytest.raises(DataFormatError):
            read_daily_csv(path)

    def _rewrite_dates(self, path, dates):
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, day in enumerate(dates, start=1):
            lines[i] = day + lines[i][10:]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _three_days(self, tmp_path, dates):
        days = [DailyWeather(i, date(2011, 1, 5 + i), tmax=30.0, tavg=25.0, tmin=20.0,
                             precip=0.0) for i in range(3)]
        path = tmp_path / "daily.csv"
        write_daily_csv(path, days, [0.4, 0.41, 0.42])
        self._rewrite_dates(path, dates)
        return path

    @pytest.mark.parametrize("dates, line, follows", [
        (["2011-01-05", "2011-01-05", "2011-01-06"], 3, "2011-01-05 follows 2011-01-05"),
        (["2011-01-05", "2011-01-07", "2011-01-06"], 4, "2011-01-06 follows 2011-01-07"),
        (["2011-01-06", "2011-01-05", "2011-01-07"], 3, "2011-01-05 follows 2011-01-06"),
    ])
    def test_repeated_or_earlier_date_rejected(self, tmp_path, dates, line, follows):
        path = self._three_days(tmp_path, dates)
        with pytest.raises(OrderingError, match=f"line {line}: .*{follows}"):
            read_daily_csv(path)

    def test_gapped_increasing_dates_read(self, tmp_path):
        # aggregation drops under-covered days, so a daily file may skip dates
        path = self._three_days(tmp_path, ["2011-01-05", "2011-01-08", "2011-01-09"])
        days, theta = read_daily_csv(path)
        assert [d.date for d in days] == [date(2011, 1, 5), date(2011, 1, 8),
                                          date(2011, 1, 9)]
        assert theta == [0.4, 0.41, 0.42]

    def test_check_consecutive_names_first_missing_date(self, tmp_path):
        path = self._three_days(tmp_path, ["2011-01-05", "2011-01-06", "2011-01-07"])
        check_consecutive(read_daily_csv(path)[0], "ok")
        path = self._three_days(tmp_path, ["2011-01-05", "2011-01-08", "2011-01-10"])
        with pytest.raises(DataFormatError, match="^src: no row for 2011-01-06;"):
            check_consecutive(read_daily_csv(path)[0], "src")
        assert check_consecutive([], "empty") is None

    def test_write_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_daily_csv(p1, self._days(), [0.41, 0.435])
        write_daily_csv(p2, self._days(), [0.41, 0.435])
        assert p1.read_bytes() == p2.read_bytes()


class TestHalfHourRecord:

    def test_negative_precip_rejected(self):
        with pytest.raises(ValueError):
            HalfHourRecord(datetime(2011, 1, 5), temp=20.0, precip=-0.1)

    def test_keyword_and_positional_construction_agree(self):
        ts = datetime(2011, 1, 5, 0, 30)
        by_keyword = HalfHourRecord(timestamp=ts, temp=20.5, precip=0.25, theta=0.4)
        assert by_keyword == HalfHourRecord(ts, 20.5, 0.25, 0.4)
        assert (by_keyword.timestamp, by_keyword.temp, by_keyword.precip,
                by_keyword.theta) == (ts, 20.5, 0.25, 0.4)
        assert HalfHourRecord(ts, 20.5, 0.25).theta is None
        assert HalfHourRecord._fields == ("timestamp", "temp", "precip", "theta")

    def test_replace_and_make_check_precip(self):
        record = HalfHourRecord(datetime(2011, 1, 5), 20.0, 0.5)
        assert record._replace(precip=0.0) == HalfHourRecord(datetime(2011, 1, 5), 20.0, 0.0)
        with pytest.raises(ValueError):
            record._replace(precip=-0.1)
        with pytest.raises(ValueError):
            HalfHourRecord._make([datetime(2011, 1, 5), 20.0, -0.1, None])


# The aggregation that preceded the one-pass version, kept verbatim as the
# reference it must equal, except that it sums with _plain_sum: on Python
# 3.11 and earlier that is the float the builtin sum() gave, and on 3.12
# and later, whose sum() is compensated, it is still the float daily_aggregate
# must give.
_reference_logger = logging.getLogger("paddymoist.ingest")


def _plain_sum(values):
    acc = 0.0
    for v in values:
        acc += v
    return acc


def _reference_daily_aggregate(records, min_coverage=40):
    for prev, cur in zip(records, records[1:]):
        if cur.timestamp <= prev.timestamp:
            raise OrderingError(
                f"timestamps must be strictly increasing; {cur.timestamp} "
                f"follows {prev.timestamp}"
            )
    by_day = {}
    for rec in records:
        by_day.setdefault(rec.timestamp.date(), []).append(rec)

    days = []
    theta = []
    gaps = []
    first_date = records[0].timestamp.date() if records else None
    for day in sorted(by_day):
        recs = by_day[day]
        if len(recs) < min_coverage:
            gaps.append(DayGap(day, len(recs)))
            _reference_logger.warning("excluding %s: only %d of %d intervals present",
                                      day, len(recs), INTERVALS_PER_DAY)
            continue
        temps = [r.temp for r in recs]
        thetas = [r.theta for r in recs if r.theta is not None]
        days.append(DailyWeather(
            day_index=(day - first_date).days,
            date=day,
            tmax=max(temps),
            tavg=_plain_sum(temps) / len(temps),
            tmin=min(temps),
            precip=_plain_sum(r.precip for r in recs),
        ))
        theta.append(_plain_sum(thetas) / len(thetas) if thetas else None)
    return DailyAggregation(days=days, theta=theta, gaps=gaps)


def _station(seed, n_days=60):
    """Random half-hourly records: whole days missing, short days, partly
    covered days, days without theta, and rain on some intervals."""
    rng = random.Random(seed)
    out = []
    for k in range(n_days):
        fate = rng.random()
        if fate < 0.05:
            continue
        keep = (rng.randint(1, 39) if fate < 0.2 else rng.randint(40, 47) if fate < 0.35
                else 48)
        sensed = rng.random()
        midnight = datetime(2010, 1, 1) + timedelta(days=k)
        for slot in sorted(rng.sample(range(48), keep)):
            out.append(HalfHourRecord(
                midnight + timedelta(minutes=30 * slot),
                temp=rng.uniform(15.0, 35.0),
                precip=rng.expovariate(2.0) if rng.random() < 0.2 else 0.0,
                theta=rng.uniform(0.2, 0.5) if rng.random() < sensed else None))
    return out


class TestOnePassAggregate:

    @pytest.mark.parametrize("min_coverage", [1, 40, 48])
    @pytest.mark.parametrize("records", [
        _station(1), _station(2), _station(3, n_days=400),
        _day_records(date(2011, 1, 5), [15.0 + 0.25 * i for i in range(48)], 0.3, 0.41)
        + _day_records(date(2011, 1, 6), 20.0),
        [],
    ], ids=["gapped-1", "gapped-2", "gapped-400-days", "full", "empty"])
    def test_equals_the_reference(self, records, min_coverage, caplog):
        with caplog.at_level(logging.WARNING, logger="paddymoist.ingest"):
            expected = _reference_daily_aggregate(records, min_coverage)
            reference_log = caplog.messages[:]
            caplog.clear()
            agg = daily_aggregate(records, min_coverage)
        assert agg == expected
        assert repr(agg) == repr(expected)  # bit for bit, the sign of zero too
        assert caplog.messages == reference_log

    def test_inputs_cover_gaps_and_missing_theta(self):
        agg = daily_aggregate(_station(3, n_days=400))
        assert len(agg.gaps) > 20 and None in agg.theta and len(agg.days) > 300
        assert any(b.day_index - a.day_index > 1 for a, b in zip(agg.days, agg.days[1:]))

    @pytest.mark.parametrize("i, j", [(5, 6), (0, 1), (47, 48), (100, 400)])
    def test_ordering_error_equals_the_reference(self, i, j):
        records = _station(1)
        records[i], records[j] = records[j], records[i]
        with pytest.raises(OrderingError) as expected:
            _reference_daily_aggregate(records)
        with pytest.raises(OrderingError, match=f"^{expected.value}$"):
            daily_aggregate(records)

    def test_local_date_going_backwards_rejected(self):
        # instants increase, but the last record's local date is a day earlier
        stamps = ["2011-01-05T23:30:00+00:00", "2011-01-06T00:10:00+00:00",
                  "2011-01-05T23:50:00-01:00"]
        records = [HalfHourRecord(datetime.fromisoformat(s), 20.0, 0.0) for s in stamps]
        with pytest.raises(OrderingError, match="local dates must not go backwards"):
            daily_aggregate(records, min_coverage=1)


def _compensated_sum(values):
    """The builtin sum() of floats on Python 3.12 and later (Neumaier)."""
    total = compensation = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


class TestVersionIndependentSums:

    VALUES = [1e16, 1.0, -1e16]

    def test_left_sum_adds_left_to_right(self):
        assert left_sum(self.VALUES) == 0.0 == _plain_sum(self.VALUES)
        assert _compensated_sum(self.VALUES) == 1.0
        assert left_sum([]) == 0.0 and left_sum(iter([0.5, 0.25])) == 0.75

    def test_daily_mean_and_total_are_summed_left_to_right(self):
        temps = self.VALUES * 16
        precip = [1e16 if i % 3 == 0 else 1.0 for i in range(48)]
        start = datetime(2011, 1, 5)
        records = [HalfHourRecord(start + timedelta(minutes=30 * i), temps[i], precip[i])
                   for i in range(48)]
        day = daily_aggregate(records).days[0]
        assert day.tavg == 0.0 != _compensated_sum(temps) / 48
        assert day.precip == _plain_sum(precip) != _compensated_sum(precip)


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestBoundaryErrors:

    HEADER = "timestamp_iso8601,temp_c,precip_mm,theta_vwc"

    @pytest.mark.parametrize("row, error, message", [
        ("2011-01-05T00:30:00,20.0,-0.5,0.4", DataFormatError,
         "line 3: precip_mm must be >= 0, got '-0.5'"),
        ("2011-01-05T00:30:00,20.0,0.0,7.5", DataFormatError,
         "line 3: theta_vwc must be in [0, 1], got '7.5'"),
        ("2011-01-05T00:30:00,20.0,0.0,-0.1", DataFormatError,
         "line 3: theta_vwc must be in [0, 1], got '-0.1'"),
        ("2011-01-05T00:00:00,20.0,0.0,0.4", OrderingError,
         "line 3: timestamps must be strictly increasing; "
         "2011-01-05 00:00:00 follows 2011-01-05 00:00:00"),
        ("2011-01-04T23:30:00,20.0,0.0,0.4", OrderingError,
         "line 3: timestamps must be strictly increasing; "
         "2011-01-04 23:30:00 follows 2011-01-05 00:00:00"),
        ("2011-01-05T00:30:00+07:00,20.0,0.0,0.4", DataFormatError,
         "line 3: timestamp '2011-01-05T00:30:00+07:00' cannot be ordered"),
    ])
    def test_half_hourly_row_rejected_with_its_line(self, tmp_path, row, error, message):
        path = _write(tmp_path / "hh.csv", [self.HEADER, "2011-01-05T00:00:00,20.0,0.0,0.4",
                                            row, "2011-01-05T01:00:00,20.0,0.0,0.4"])
        with pytest.raises(error) as exc:
            read_half_hourly_csv(path)
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row, what", [("2011-01-05T00:30:00,{},0.0,0.4", "temp_c"),
                                           ("2011-01-05T00:30:00,20.0,0.0,{}", "theta_vwc")])
    def test_non_finite_temp_or_theta_reports_line(self, tmp_path, row, what, bad):
        path = _write(tmp_path / "hh.csv", [self.HEADER, "2011-01-05T00:00:00,20.0,0.0,0.4",
                                            row.format(bad)])
        with pytest.raises(DataFormatError, match=f"^line 3: {what} must be finite"):
            read_half_hourly_csv(path)

    def test_half_hourly_theta_bounds_and_negative_zero_read(self, tmp_path):
        path = _write(tmp_path / "hh.csv", [self.HEADER, "2011-01-05T00:00:00,20.0,-0.0,0",
                                            "2011-01-05T00:30:00,20.0,0.0,1.0",
                                            "2011-01-05T01:00:00,20.0,0.0,"])
        assert [r.theta for r in read_half_hourly_csv(path)] == [0.0, 1.0, None]

    @pytest.mark.parametrize("cells, message", [
        ("30.0,18.0,19.0,0.0,0.4", "line 3: need tmin <= tavg <= tmax, got 19.0/18.0/30.0"),
        ("30.0,25.0,19.0,-2.5,0.4", "line 3: precip must be >= 0, got -2.5"),
        ("30.0,25.0,19.0,0.0,7.5", "line 3: theta_vwc must be in [0, 1], got '7.5'"),
    ])
    def test_daily_row_rejected_with_its_line(self, tmp_path, cells, message):
        path = _write(tmp_path / "daily.csv", [
            "date,day_index,tmax_c,tavg_c,tmin_c,precip_mm,theta_vwc",
            "2011-01-05,0,30.0,25.0,19.0,0.0,0.4", f"2011-01-06,1,{cells}"])
        with pytest.raises(DataFormatError) as exc:
            read_daily_csv(path)
        assert str(exc.value).startswith(message)


class TestPhysicalLineNumbers:
    """A quoted field may hold a line break; errors name the physical line."""

    def test_half_hourly_fault_after_a_multi_line_record(self, tmp_path):
        path = _write(tmp_path / "hh.csv", [
            "timestamp_iso8601,temp_c,precip_mm,note",
            '2011-01-05T00:00:00,20.0,0.0,"two', 'lines"',
            "2011-01-05T00:30:00,oops,0.0,x"])
        with pytest.raises(DataFormatError) as exc:
            read_half_hourly_csv(path)
        assert str(exc.value) == "line 4: cannot parse temp_c from 'oops'"

    def test_half_hourly_ordering_fault_after_a_multi_line_value(self, tmp_path):
        path = _write(tmp_path / "hh.csv", [
            "timestamp_iso8601,temp_c,precip_mm,theta_vwc",
            '2011-01-05T00:00:00,20.0,"0.5', '",0.4',
            "2011-01-05T00:30:00,21.0,0.0,0.4",
            "2011-01-05T00:00:00,22.0,0.0,0.4"])
        with pytest.raises(OrderingError, match="^line 5: timestamps must be strictly"):
            read_half_hourly_csv(path)

    def test_daily_fault_after_a_multi_line_record(self, tmp_path):
        path = _write(tmp_path / "daily.csv", [
            "date,day_index,tmax_c,tavg_c,tmin_c,precip_mm,note",
            '2011-01-05,0,30.0,25.0,19.0,0.0,"a', "b", 'c"',
            "2011-01-06,1,30.0,oops,19.0,0.0,x"])
        with pytest.raises(DataFormatError) as exc:
            read_daily_csv(path)
        assert str(exc.value) == "line 5: cannot parse tavg_c from 'oops'"
