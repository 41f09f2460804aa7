"""Half-hourly ingestion, gap handling, and CSV round trips."""

import csv
import hashlib
import logging
import math
import random
import re
import shutil
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from conftest import quick_config
from paddymoist import ingest, run_experiment
from paddymoist.ann import left_sum
from paddymoist.errors import DataFormatError, OrderingError, not_utf8
from paddymoist.evapo import DailyWeather
from paddymoist.hydro import WeatherGenParams, generate_weather
from paddymoist.ingest import (DailyAggregation, DayGap, HalfHourRecord, HalfHourRecords,
                               check_consecutive, daily_aggregate, read_columns, read_daily_csv,
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


@pytest.mark.usefixtures("station_reader")
class TestHalfHourlyCsv:

    def test_round_trip(self, tmp_path):
        recs = _day_records(date(2011, 1, 5), 20.0, precip=0.25, theta=0.41)
        path = tmp_path / "hh.csv"
        write_half_hourly_csv(path, recs)
        assert read_half_hourly_csv(path) == recs

    @pytest.mark.parametrize("theta", ["some", "none"])
    def test_writes_a_read_sequence_as_its_list(self, tmp_path, monkeypatch, theta):
        """The bytes of the list, each scanned record built once."""
        recs = _station(6, n_days=3)
        if theta == "none":
            recs = [r._replace(theta=None) for r in recs]
        write_half_hourly_csv(tmp_path / "hh.csv", recs)
        back = read_half_hourly_csv(tmp_path / "hh.csv")
        write_half_hourly_csv(tmp_path / "list.csv", list(back))
        built, build = [], ingest._built
        monkeypatch.setattr(ingest, "_built", lambda columns: built.append(1) or build(columns))
        write_half_hourly_csv(tmp_path / "back.csv", back)
        assert (tmp_path / "back.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()
        assert len(built) == (back._columns is not None)

    def test_read_only_sequence_of_records(self, tmp_path, station_reader):
        recs = _station(4, n_days=3)
        path = tmp_path / "hh.csv"
        write_half_hourly_csv(path, recs)
        back = read_half_hourly_csv(path)
        assert isinstance(back, HalfHourRecords) and len(back) == len(recs)
        assert (back._columns is not None) is (station_reader == "scanner")
        for i in (0, 5, -1, -len(recs)):
            assert back[i] == recs[i] and type(back[i]) is HalfHourRecord
        for cut in (slice(2, 9, 3), slice(None, None, -1), slice(-4, None), slice(5, 2)):
            assert back[cut] == recs[cut]
        for i in (len(recs), -len(recs) - 1):
            with pytest.raises(IndexError):
                back[i]
        assert back == recs == back and back == read_half_hourly_csv(path)
        assert back != recs[1:] and back != tuple(recs)
        assert back.index(recs[7]) == 7 and recs[-1] in back
        with pytest.raises(TypeError):
            back[0] = recs[0]

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

    @pytest.mark.parametrize("theta, dates, error, message", [
        ([0.4, math.nan], (5, 6), DataFormatError,
         r"^theta_vwc must be in \[0, 1\], got nan on 2011-01-06$"),
        ([1.5, 0.4], (5, 6), DataFormatError,
         r"^theta_vwc must be in \[0, 1\], got 1.5 on 2011-01-05$"),
        ([None, -0.1], (5, 6), DataFormatError,
         r"^theta_vwc must be in \[0, 1\], got -0.1 on 2011-01-06$"),
        ([0.4, 0.41], (6, 5), OrderingError,
         "^dates must be strictly increasing; 2011-01-05 follows 2011-01-06$"),
        (None, (5, 5), OrderingError,
         "^dates must be strictly increasing; 2011-01-05 follows 2011-01-05$"),
    ])
    def test_write_refuses_what_the_reader_rejects(self, tmp_path, theta, dates, error,
                                                   message):
        """Named with its value and date, before the file is opened."""
        days = [DailyWeather(i, date(2011, 1, d), tmax=30.0, tavg=25.0, tmin=20.0, precip=0.0)
                for i, d in enumerate(dates)]
        path = tmp_path / "daily.csv"
        with pytest.raises(error, match=message):
            write_daily_csv(path, days, theta)
        assert not path.exists()

    @pytest.mark.parametrize("index, day, named", [
        (1, datetime(2011, 1, 6), "1 and datetime.datetime(2011, 1, 6, 0, 0)"),
        (0.5, date(2011, 1, 6), "0.5 and datetime.date(2011, 1, 6)"),
        (True, date(2011, 1, 6), "True and datetime.date(2011, 1, 6)"),
    ])
    def test_write_refuses_a_date_or_index_the_reader_cannot_parse(self, tmp_path, index, day,
                                                                   named):
        """A datetime would be written with its time, a float or bool index as
        its text; neither reads back."""
        days = [DailyWeather(0, date(2011, 1, 5), 30.0, 25.0, 20.0, 0.0),
                DailyWeather(index, day, 30.0, 25.0, 20.0, 0.0)]
        path = tmp_path / "daily.csv"
        with pytest.raises(DataFormatError, match=re.escape(
                f"a day needs an int day_index and a datetime.date date, got {named}")):
            write_daily_csv(path, days, [0.4, 0.41])
        assert not path.exists()

    def test_write_refuses_a_season_generated_from_a_datetime(self, tmp_path):
        days = generate_weather(WeatherGenParams(seed=1, n_days=3,
                                                 start_date=datetime(2011, 1, 5)))
        path = tmp_path / "daily.csv"
        with pytest.raises(DataFormatError, match="got 0 and datetime.datetime"):
            write_daily_csv(path, days)
        assert not path.exists()

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
# reference it must equal, except that it sums with _plain_sum (on Python
# 3.11 and earlier that is the float the builtin sum() gave, and on 3.12
# and later, whose sum() is compensated, it is still the float daily_aggregate
# must give) and no longer logs the days it excludes: they are in ``gaps``.


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
    def test_equals_the_reference(self, records, min_coverage):
        expected = _reference_daily_aggregate(records, min_coverage)
        agg = daily_aggregate(records, min_coverage)
        assert agg == expected
        assert repr(agg) == repr(expected)  # bit for bit, the sign of zero too

    @pytest.mark.parametrize("min_coverage", [0, 49, -3])
    def test_coverage_outside_a_day_rejected(self, min_coverage):
        with pytest.raises(ValueError, match=rf"^min_coverage must be in 1\.\.48, "
                                             rf"got {min_coverage}$"):
            daily_aggregate(_station(1), min_coverage)

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


class TestMeanOfEqualReadings:
    """A day of equal readings keeps tmin <= tavg <= tmax: its left-to-right
    mean can round off them (48 readings of 23.3 give 23.29999999999998), so
    tavg is bounded by the day's tmin and tmax, on either sum path."""

    @pytest.mark.parametrize("n", [40, 47, 48])
    @pytest.mark.parametrize("sums", ["Python loop", "sum_days"])
    def test_every_day_keeps_its_value(self, tmp_path, n, sums):
        # k / 100 on day k: 868, 894 and 898 of these 999 days rounded off
        records = [r for k in range(1, 1000)
                   for r in _day_records(date(2011, 1, 1) + timedelta(days=k), k / 100, n=n)]
        if sums == "sum_days":
            if ingest._scanner() is None:
                pytest.skip("the C station-file scanner did not build")
            write_half_hourly_csv(tmp_path / "hh.csv", records)
            records = read_half_hourly_csv(tmp_path / "hh.csv")
            assert records._columns is not None
        agg = daily_aggregate(records)
        assert [(d.tmin, d.tavg, d.tmax) for d in agg.days] == [(k / 100,) * 3
                                                               for k in range(1, 1000)]

    def test_ingest_writes_the_day(self, tmp_path, capsys):
        from paddymoist.cli import main
        station, daily = tmp_path / "hh.csv", tmp_path / "daily.csv"
        write_half_hourly_csv(station, _day_records(date(2011, 1, 1), 23.3))
        assert main(["ingest", "--input", str(station), "--output", str(daily)]) == 0
        assert capsys.readouterr().err == ""
        assert daily.read_text().splitlines()[1] == "2011-01-01,0,23.3,23.3,23.3,0.0"


class TestNumpyScalars:
    """The writers write a numpy scalar as its float's repr, which reads back."""

    def test_daily_file(self, tmp_path):
        f = np.float64
        days = [DailyWeather(0, date(2011, 1, 1), f(30.5), f(25.25), f(20.0), f(0.0)),
                DailyWeather(1, date(2011, 1, 2), f(31.0), f(26.0), f(21.0), 3)]
        path = tmp_path / "daily.csv"
        write_daily_csv(path, days, [f(0.25), None])
        assert path.read_text().splitlines()[1:] == ["2011-01-01,0,30.5,25.25,20.0,0.0,0.25",
                                                     "2011-01-02,1,31.0,26.0,21.0,3.0,"]
        assert read_daily_csv(path) == (days, [0.25, None])

    def test_station_file(self, tmp_path):
        records = [HalfHourRecord(datetime(2011, 1, 1, 0, 30), np.float64(20.5), np.float64(0.0),
                                  np.float64(0.5)), HalfHourRecord(datetime(2011, 1, 1, 1), 21, 0)]
        path = tmp_path / "hh.csv"
        write_half_hourly_csv(path, records)
        assert path.read_text().splitlines()[1:] == ["2011-01-01T00:30:00,20.5,0.0,0.5",
                                                     "2011-01-01T01:00:00,21.0,0.0,"]
        assert read_half_hourly_csv(path) == records


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


@pytest.mark.usefixtures("station_reader")
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
        ("2011-01-05T00:30:00,20.0", DataFormatError,
         "line 3: expected at least 3 fields, got 2"),
        ("05/01/2011 00:30,20.0,0.0,0.4", DataFormatError,
         "line 3: cannot parse timestamp from '05/01/2011 00:30'"),
        # float() reads these, the C scanner's grammar does not
        ("2011-01-05T00:30:00,2_3.5,0.0,0.4", DataFormatError,
         "line 3: cannot parse temp_c from '2_3.5'"),
        ("2011-01-05T00:30:00,٣٠,0.0,0.4", DataFormatError,
         "line 3: cannot parse temp_c from '٣٠'"),
        ("2011-01-05T00:30:00,20.0,0.0,0.4\u00a0", DataFormatError,
         "line 3: cannot parse theta_vwc from '0.4\\xa0'"),
        # several faults: the leftmost is named
        ("2011-01-05T00:30:00,oops,0.0,7.5", DataFormatError,
         "line 3: cannot parse temp_c from 'oops'"),
        ("2011-01-05T00:30:00,20.0,-0.5,7.5", DataFormatError,
         "line 3: precip_mm must be >= 0, got '-0.5'"),
    ])
    def test_half_hourly_row_rejected_with_its_line(self, tmp_path, row, error, message):
        path = _write(tmp_path / "hh.csv", [self.HEADER, "2011-01-05T00:00:00,20.0,0.0,0.4",
                                            row, "2011-01-05T01:00:00,20.0,0.0,0.4"])
        with pytest.raises(error) as exc:
            read_half_hourly_csv(path)
        assert str(exc.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("row, what", [("2011-01-05T00:30:00,{},0.0,0.4", "temp_c"),
                                           ("2011-01-05T00:30:00,20.0,0.0,{}", "theta_vwc")])
    def test_non_finite_temp_or_theta_reports_line(self, tmp_path, row, what, bad):
        path = _write(tmp_path / "hh.csv", [self.HEADER, "2011-01-05T00:00:00,20.0,0.0,0.4",
                                            row.format(bad)])
        with pytest.raises(DataFormatError,
                           match=f"^{re.escape(str(path))}: line 3: {what} must be finite"):
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
        assert str(exc.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("row, message", [
        ("2011-01-06,1,30.0", "line 3: expected at least 6 fields, got 3"),
        ("06/01/2011,1,30.0,25.0,19.0,0.0,0.4", "line 3: cannot parse date from '06/01/2011'"),
        ("2011-01-06,one,30.0,25.0,19.0,0.0,0.4", "line 3: cannot parse day_index from 'one'"),
        ("2011-01-06,1.0,30.0,25.0,19.0,0.0,0.4", "line 3: cannot parse day_index from '1.0'"),
        # int() and float() read these, the C scanner's grammar does not
        ("2011-01-06,1_0,30.0,25.0,19.0,0.0,0.4", "line 3: cannot parse day_index from '1_0'"),
        ("2011-01-06,1,3_0.5,25.0,19.0,0.0,0.4", "line 3: cannot parse tmax_c from '3_0.5'"),
        ("2011-01-06,1,30.0,25.0,١٩,0.0,0.4", "line 3: cannot parse tmin_c from '١٩'"),
        ("2011-01-06,1,30.0,25.0,19.0,1_0,0.4", "line 3: cannot parse precip_mm from '1_0'"),
    ])
    def test_daily_row_that_does_not_parse(self, tmp_path, row, message):
        path = _write(tmp_path / "daily.csv", [
            "date,day_index,tmax_c,tavg_c,tmin_c,precip_mm,theta_vwc",
            "2011-01-05,0,30.0,25.0,19.0,0.0,0.4", row])
        with pytest.raises(DataFormatError) as exc:
            read_daily_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_blank_rows_are_skipped(self, tmp_path):
        hh = _write(tmp_path / "hh.csv", [self.HEADER, "", "2011-01-05T00:00:00,20.0,0.0,0.4",
                                          "", "", "2011-01-05T00:30:00,21.0,0.0,"])
        assert [r.temp for r in read_half_hourly_csv(hh)] == [20.0, 21.0]
        daily = _write(tmp_path / "daily.csv", [
            "date,day_index,tmax_c,tavg_c,tmin_c,precip_mm", "",
            "2011-01-05,0,30.0,25.0,19.0,0.0", "", "2011-01-06,1,31.0,25.0,19.0,0.0"])
        days, theta = read_daily_csv(daily)
        assert [d.tmax for d in days] == [30.0, 31.0] and theta == [None, None]

    def test_fault_after_blank_rows_names_its_physical_line(self, tmp_path):
        hh = _write(tmp_path / "hh.csv", [self.HEADER, "", "2011-01-05T00:00:00,20.0,0.0,0.4",
                                          "", "2011-01-05T00:30:00,oops,0.0,0.4"])
        with pytest.raises(DataFormatError) as exc:
            read_half_hourly_csv(hh)
        assert str(exc.value) == f"{hh}: line 5: cannot parse temp_c from 'oops'"
        daily = _write(tmp_path / "daily.csv", [
            "date,day_index,tmax_c,tavg_c,tmin_c,precip_mm", "", "",
            "2011-01-05,zero,30.0,25.0,19.0,0.0"])
        with pytest.raises(DataFormatError) as exc:
            read_daily_csv(daily)
        assert str(exc.value) == f"{daily}: line 4: cannot parse day_index from 'zero'"


@pytest.mark.usefixtures("station_reader")
class TestPhysicalLineNumbers:
    """A quoted field may hold a line break; errors name the physical line."""

    def test_half_hourly_fault_after_a_multi_line_record(self, tmp_path):
        path = _write(tmp_path / "hh.csv", [
            "timestamp_iso8601,temp_c,precip_mm,note",
            '2011-01-05T00:00:00,20.0,0.0,"two', 'lines"',
            "2011-01-05T00:30:00,oops,0.0,x"])
        with pytest.raises(DataFormatError) as exc:
            read_half_hourly_csv(path)
        assert str(exc.value) == f"{path}: line 4: cannot parse temp_c from 'oops'"

    def test_half_hourly_ordering_fault_after_a_multi_line_value(self, tmp_path):
        path = _write(tmp_path / "hh.csv", [
            "timestamp_iso8601,temp_c,precip_mm,theta_vwc",
            '2011-01-05T00:00:00,20.0,"0.5', '",0.4',
            "2011-01-05T00:30:00,21.0,0.0,0.4",
            "2011-01-05T00:00:00,22.0,0.0,0.4"])
        with pytest.raises(OrderingError,
                           match=f"^{re.escape(str(path))}: line 5: timestamps must be strictly"):
            read_half_hourly_csv(path)

    def test_daily_fault_after_a_multi_line_record(self, tmp_path):
        path = _write(tmp_path / "daily.csv", [
            "date,day_index,tmax_c,tavg_c,tmin_c,precip_mm,note",
            '2011-01-05,0,30.0,25.0,19.0,0.0,"a', "b", 'c"',
            "2011-01-06,1,30.0,oops,19.0,0.0,x"])
        with pytest.raises(DataFormatError) as exc:
            read_daily_csv(path)
        assert str(exc.value) == f"{path}: line 5: cannot parse tavg_c from 'oops'"


class TestTextFaults:
    """Bytes that are not UTF-8, a field over the csv limit and a byte order
    mark are data errors in every CSV reader, each naming its line."""

    HH = "timestamp_iso8601,temp_c,precip_mm,note"
    DAILY = "date,day_index,tmax_c,tavg_c,tmin_c,precip_mm,note"

    def _readers(self, tmp_path, cells):
        """(reader, path) for a station, a daily and a column file whose third
        line, a row after one sound row, ends with ``cells``."""
        hh = tmp_path / "hh.csv"
        hh.write_bytes(f"{self.HH}\n2011-01-05T00:00:00,20.0,0.0,a\n"
                       f"2011-01-05T00:30:00,20.0,0.0,".encode() + cells + b"\n")
        daily = tmp_path / "daily.csv"
        daily.write_bytes(f"{self.DAILY}\n2011-01-05,0,30.0,25.0,19.0,0.0,a\n"
                          f"2011-01-06,1,30.0,25.0,19.0,0.0,".encode() + cells + b"\n")
        columns = tmp_path / "est.csv"
        columns.write_bytes(b"obs,est,note\n0.4,0.41,a\n0.5,0.52," + cells + b"\n")
        return [(read_half_hourly_csv, hh), (read_daily_csv, daily),
                (lambda path: read_columns(path, ("obs", "est")), columns)]

    @pytest.mark.usefixtures("station_reader")
    @pytest.mark.parametrize("cells, message", [
        (b"\xff", "line 3: byte 0xff is not UTF-8"),
        (b"caf\xc3", "line 3: byte 0xc3 is not UTF-8"),  # cut off inside a character
        (b"x" * 40, "line 3: field larger than field limit (30)"),
    ])
    def test_named_with_its_line(self, tmp_path, cells, message):
        old = csv.field_size_limit(30)
        try:
            for read, path in self._readers(tmp_path, cells):
                with pytest.raises(DataFormatError) as exc:
                    read(path)
                assert str(exc.value) == f"{path}: {message}", read
        finally:
            csv.field_size_limit(old)

    @pytest.mark.usefixtures("station_reader")
    @pytest.mark.parametrize("fault", ["header", "row", "not utf-8", "field limit"])
    def test_each_fault_names_the_file_once(self, tmp_path, fault):
        cells = {"not utf-8": b"\xff", "field limit": b"x" * 40}.get(fault, b"a")
        old = csv.field_size_limit(30)
        try:
            for read, path in self._readers(tmp_path, cells):
                lines = path.read_bytes().split(b"\n")
                if fault == "header":
                    lines[0] = b"a,b,c"
                elif fault == "row":  # the first sound row's second cell
                    lines[1] = lines[1].replace(b",", b",oops", 1)
                path.write_bytes(b"\n".join(lines))
                with pytest.raises(DataFormatError) as exc:
                    read(path)
                message = str(exc.value)
                assert message.startswith(f"{path}: ") and message.count(str(path)) == 1, read
        finally:
            csv.field_size_limit(old)

    def test_first_bad_byte_is_counted_as_csv_counts_lines(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_bytes(b"obs,est\r\n0.4,0.41\r0.5,0.52\n\n0.6,\xe9\xff\n")
        with pytest.raises(DataFormatError,
                           match=f"^{re.escape(str(path))}: line 5: byte 0xe9 is not UTF-8$"):
            read_columns(path, ("obs", "est"))

    @pytest.mark.usefixtures("station_reader")
    def test_byte_order_mark_is_named(self, tmp_path):
        (hh, daily, columns) = (tmp_path / name for name in ("hh.csv", "d.csv", "e.csv"))
        hh.write_text("\ufeff" + self.HH + "\n2011-01-05T00:00:00,20.0,0.0,a\n",
                      encoding="utf-8")
        daily.write_text("\ufeff" + self.DAILY + "\n", encoding="utf-8")
        columns.write_text("\ufeffobs,est\n0.4,0.41\n", encoding="utf-8")
        for read, path in ((read_half_hourly_csv, hh), (read_daily_csv, daily),
                           (lambda path: read_columns(path, ("obs", "est")), columns)):
            with pytest.raises(DataFormatError) as exc:
                read(path)
            assert str(exc.value) == (f"{path}: the header starts with a byte order mark "
                                      f"(U+FEFF); save the file as UTF-8 without one")

    def test_cli_exit_code(self, tmp_path, capsys):
        from paddymoist.cli import main
        (_, hh), _, (_, columns) = self._readers(tmp_path, b"\xff")
        assert main(["ingest", "--input", str(hh), "--output", str(tmp_path / "o.csv")]) == 4
        assert capsys.readouterr().err == f"error: {hh}: line 3: byte 0xff is not UTF-8\n"
        assert main(["evaluate", "--file", str(columns), "--obs-col", "obs",
                     "--est-col", "est"]) == 4
        assert capsys.readouterr().err == f"error: {columns}: line 3: byte 0xff is not UTF-8\n"


def _outcome(path):
    """What ``read_half_hourly_csv`` gives for ``path``: each record's bits,
    or the type and message of the exception it raises."""
    try:
        records = read_half_hourly_csv(path)
    except Exception as exc:  # noqa: BLE001  any exception must match too
        return type(exc), str(exc)
    assert all(type(r) is HalfHourRecord for r in records)
    return [(r.timestamp.isoformat(), *(None if v is None else v.hex() for v in r[1:]))
            for r in records]


def _both_outcomes(path, monkeypatch):
    """(with the scanner, with the Python pass alone) for ``path``."""
    scanned = _outcome(path)
    with monkeypatch.context() as mp:
        mp.setattr(ingest, "_scanner", lambda: None)
        return scanned, _outcome(path)


@pytest.fixture
def scan():
    found = ingest._scanner()
    if found is None:
        pytest.skip("the C station-file scanner did not build")
    return found


class TestScanner:
    """The C scanner reads exactly the plain station files, and gives the
    Python pass's records for them; it declines every other file, which the
    Python pass then reads or rejects."""

    HEADER = "timestamp_iso8601,temp_c,precip_mm,theta_vwc"
    BEFORE = "2011-01-05T00:00:00,20.0,0.0,0.4"
    AFTER = "2011-01-05T01:00:00,20.0,0.0,0.4"

    def _check(self, scan, monkeypatch, path, plain):
        assert (ingest._scan_plain(scan, path) is not None) is plain
        scanned, python = _both_outcomes(path, monkeypatch)
        assert scanned == python
        return python

    @pytest.mark.parametrize("temp, precip, theta", [
        ("+1", "+1", "+1"), (".5", ".5", ".5"), ("5.", "5.", "1."), ("-0.0", "-0.0", "-0.0"),
        ("5e-324", "4.9406564584124654e-324", "2.2250738585072011e-308"),  # subnormals
        ("1e-400", "-1e-400", "0e999"),  # underflow to (signed) zero
        ("0.30000000000000004441", "123456789012345678901234567890",
         "0.999999999999999999999999"),  # more digits than a double holds
        ("1.7976931348623157e308", "1E+2", "1e-0"),
        ("20.0", "0.0", ""),  # no theta reading
    ])
    def test_plain_numbers_are_scanned(self, scan, monkeypatch, tmp_path, temp, precip, theta):
        path = _write(tmp_path / "hh.csv", [
            self.HEADER, self.BEFORE, f"2011-01-05T00:30:00,{temp},{precip},{theta}", self.AFTER])
        assert len(self._check(scan, monkeypatch, path, True)) == 3

    @pytest.mark.parametrize("row", [
        "2011-01-05T00:30:00,1e400,0.0,0.4",  # overflows: Python names it
        "2011-01-05T00:30:00,20.0,1e400,0.4",
        "2011-01-05T00:30:00,1_0,0.0,0.4",
        "2011-01-05T00:30:00, 1.5,0.0,0.4",  # Python reads these two
        "2011-01-05T00:30:00,20.0 ,0.0,0.4",
        "2011-01-05T00:30:00,nan,0.0,0.4",
        "2011-01-05T00:30:00,20.0,inf,0.4",
        "2011-01-05T00:30:00,0x1p3,0.0,0.4",
        "2011-01-05T00:30:00,1e,0.0,0.4",
        "2011-01-05T00:30:00,.,0.0,0.4",
        "2011-01-05T00:30:00,+,0.0,0.4",
        "2011-01-05T00:30:00,1.5.,0.0,0.4",
        "2011-01-05T00:30:00,20.0,-0.5,0.4",
        "2011-01-05T00:30:00,20.0,0.0,1.0000000000000002",
        "2011-01-05T00:30:00,20.0,0.0,-1e-300",
        "2011-01-05T00:30:00,20.0,0.0,nan",
        "2011-01-05T00:30:00,20.0",
        ",20.0,0.0,0.4",
        "2011-01-05T00:30:00,,0.0,0.4",
        "2011-01-05T00:30:00,20.0,,0.4",
        "2011-01-05T00:30:00+07:00,20.0,0.0,0.4",  # cannot be ordered after a naive stamp
        "2011-01-05T00:00:00,20.0,0.0,0.4",  # repeated
        "2011-01-05 00:30:00\t,20.0,0.0,0.4",
        '2011-01-05T00:30:00,"20.0",0.0,0.4',  # quoted
        "2011-01-05T00:30:00,20.0,0.0,0.4,été",  # non-ASCII in an extra column
        "2011-01-05T00:30:00,20.0,0.0,0.4,\x00",
        "2011-01-05T00:30:00,20.0,0.0,0.4,a\rb",  # csv ends a row at a lone CR
    ])
    def test_other_rows_are_declined(self, scan, monkeypatch, tmp_path, row):
        path = _write(tmp_path / "hh.csv", [self.HEADER, self.BEFORE, row, self.AFTER])
        self._check(scan, monkeypatch, path, False)

    @pytest.mark.parametrize("text, plain", [
        (HEADER + "\n" + BEFORE + "\n\n\n" + AFTER + "\n\n", True),  # blank lines
        (HEADER + "\n" + BEFORE + "\n" + AFTER, True),  # no final newline
        (HEADER + "\n", True),  # a header alone
        (HEADER, False),
        ("", False),
        ("timestamp_iso8601,temp_c,precip_mm\n" + BEFORE + ",x,y\n" + AFTER + "\n", True),
        (HEADER + ",note\n" + BEFORE + ",a note\n" + AFTER + "\n", True),  # extra columns
        (HEADER + "\n" + BEFORE + "\n2011-01-05T00:30:00,21.0,0.0\n" + AFTER + "\n", True),
        # a quoted note holding a line break, whose second line reads as a row
        (HEADER + ",note\n" + BEFORE + ',"two\n' + AFTER + ',lines"\n', False),
        (HEADER + "\r\n" + BEFORE + "\r\n" + AFTER + "\r\n", False),  # CRLF
        (HEADER + "\n" + BEFORE + "\r\n" + AFTER + "\n", False),
        ("﻿" + HEADER + "\n" + BEFORE + "\n", False),  # a UTF-8 byte order mark
        ('"timestamp_iso8601",temp_c,precip_mm\n' + BEFORE + "\n", False),
        ("timestamp_iso8601,temp_c,rain_mm\n" + BEFORE + "\n", False),
        ("\n" + HEADER + "\n" + BEFORE + "\n", False),
    ])
    def test_whole_files(self, scan, monkeypatch, tmp_path, text, plain):
        path = tmp_path / "hh.csv"
        path.write_bytes(text.encode("utf-8"))
        self._check(scan, monkeypatch, path, plain)

    def test_non_utf8_bytes_are_declined(self, scan, monkeypatch, tmp_path):
        path = tmp_path / "hh.csv"
        path.write_bytes(f"{self.HEADER}\n{self.BEFORE},\xff\n".encode("latin-1"))
        assert self._check(scan, monkeypatch, path, False) == (
            DataFormatError, f"{path}: line 2: byte 0xff is not UTF-8")

    @pytest.mark.parametrize("where", ["header", "row"])
    def test_field_over_the_csv_limit_is_declined(self, scan, monkeypatch, tmp_path, where):
        limit = 30
        old = csv.field_size_limit(limit)
        try:
            for width, plain in ((limit, True), (limit + 1, False)):
                header, row = self.HEADER, self.BEFORE
                if where == "header":
                    header += "," + "n" * width
                else:
                    row += "," + "x" * width
                path = _write(tmp_path / "hh.csv", [header, row, self.AFTER])
                outcome = self._check(scan, monkeypatch, path, plain)
                assert (outcome[0] is DataFormatError) is not plain
        finally:
            csv.field_size_limit(old)

    @pytest.mark.parametrize("block", [100, 128, 173])
    def test_rows_straddle_block_boundaries(self, scan, monkeypatch, tmp_path, block):
        records = _station(5, n_days=3)
        path = tmp_path / "hh.csv"
        write_half_hourly_csv(path, records)
        monkeypatch.setattr(ingest, "_BLOCK", block)
        assert read_half_hourly_csv(path) == records
        self._check(scan, monkeypatch, path, True)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))  # and without a final newline
        self._check(scan, monkeypatch, path, True)

    def test_line_longer_than_a_block_is_declined(self, scan, monkeypatch, tmp_path):
        # the chunk holds a block and at most a block more of its last line
        path = _write(tmp_path / "hh.csv", [self.HEADER, self.BEFORE + "," + "x" * 200,
                                            self.AFTER])
        monkeypatch.setattr(ingest, "_BLOCK", 64)
        assert len(self._check(scan, monkeypatch, path, False)) == 2

    @pytest.mark.parametrize("at", [0, 1, 5, 6, 7, 30])
    def test_order_is_checked_across_scanner_calls(self, scan, monkeypatch, tmp_path, at):
        records = _station(7, n_days=2)
        records[at + 1] = records[at + 1]._replace(timestamp=records[at].timestamp)
        path = tmp_path / "hh.csv"
        write_half_hourly_csv(path, records)
        monkeypatch.setattr(ingest, "_BLOCK", 300)
        assert ingest._scan_plain(scan, path) is None
        scanned, python = _both_outcomes(path, monkeypatch)
        assert scanned == python and scanned[0] is OrderingError

    @pytest.mark.parametrize("block", [100, 128, 1 << 16])  # lines of up to 83 bytes
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_digit_runs_at_a_chunks_end(self, scan, monkeypatch, tmp_path, block,
                                        final_newline):
        """Runs of 8, 16, 19 and 20 digits, after leading zeros or not, end
        each line, so each chunk (a block and the rest of its last line): the
        eight-digit step reads no byte past it, and each value is float()'s."""
        cells = []
        for n in (8, 16, 19, 20):
            run = "".join(str(1 + i % 9) for i in range(n))
            for zeros in ("", "0", "00000000"):
                cells += [zeros + run, f"{zeros}{run[:3]}.{run[3:]}", f"{zeros}.{run}",
                          f"0.{zeros}{run}", f"{zeros}{run}.", f"{zeros}{run}e-7"]
        stamps = [datetime(2011, 1, 5) + timedelta(minutes=30 * i) for i in range(len(cells))]
        lines = ["timestamp_iso8601,temp_c,precip_mm"] + [
            f"{ts.isoformat()},{cell},{cell}" for ts, cell in zip(stamps, cells)]
        path = tmp_path / "hh.csv"
        path.write_text("\n".join(lines) + ("\n" if final_newline else ""))
        monkeypatch.setattr(ingest, "_BLOCK", block)
        self._check(scan, monkeypatch, path, True)
        assert [(r.temp, r.precip) for r in read_half_hourly_csv(path)] == [
            (float(c), float(c)) for c in cells]


class TestScannerBuild:

    @pytest.fixture
    def fresh(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        ingest._scanner.cache_clear()
        yield tmp_path / "xdg" / "paddymoist"
        ingest._scanner.cache_clear()

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler 'cc' on PATH")
    def test_built_once_under_its_own_name(self, fresh, tmp_path):
        records = _station(8, n_days=4)
        write_half_hourly_csv(tmp_path / "hh.csv", records)
        assert read_half_hourly_csv(tmp_path / "hh.csv") == records
        (built,) = [p.name for p in fresh.iterdir()]
        assert built.startswith("ingest-") and built.endswith(".so")
        assert ingest._scanner() is not None

    @pytest.mark.parametrize("broken", ["no cc on PATH", "compile error"])
    def test_falls_back_to_the_python_pass(self, broken, fresh, tmp_path, monkeypatch,
                                           caplog):
        records = _station(9, n_days=4)
        path = tmp_path / "hh.csv"
        write_half_hourly_csv(path, records)
        bad = _write(tmp_path / "bad.csv", [TestScanner.HEADER, TestScanner.BEFORE,
                                            "2011-01-05T00:30:00,oops,0.0,0.4"])
        if broken == "no cc on PATH":
            monkeypatch.setenv("PATH", str(tmp_path))
        else:
            monkeypatch.setattr(ingest, "_SCAN_SOURCE", "this is not C\n")
        with caplog.at_level(logging.WARNING, logger="paddymoist.ingest"):
            assert read_half_hourly_csv(path) == records
            assert read_half_hourly_csv(path) == records
            with pytest.raises(DataFormatError,
                               match=f"^{re.escape(str(bad))}: line 3: cannot parse temp_c from"):
                read_half_hourly_csv(bad)
        assert len(caplog.records) == 1
        assert "the C scanner did not build" in caplog.records[0].getMessage()
        assert not fresh.exists() or list(fresh.iterdir()) == []

    def test_experiment_never_reads_a_station_file(self, monkeypatch):
        def no_scanner():
            raise AssertionError("the experiment built or loaded the station-file scanner")
        monkeypatch.setattr(ingest, "_scanner", no_scanner)
        run_experiment(quick_config(2, 2))


# write_daily_csv as it was before it unpacked each day once, kept as the
# reference its bytes must equal
def _reference_write_daily_csv(path, days, theta=None):
    any_theta = theta is not None and any(v is not None for v in theta)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "day_index", "tmax_c", "tavg_c", "tmin_c", "precip_mm"]
                        + (["theta_vwc"] if any_theta else []))
        for i, d in enumerate(days):
            row = [d.date.isoformat(), str(d.day_index), repr(d.tmax),
                   repr(d.tavg), repr(d.tmin), repr(d.precip)]
            if any_theta:
                v = theta[i]
                row.append("" if v is None else repr(v))
            writer.writerow(row)


class TestDailyBytes:
    """Two years of aggregated station days, as perfbench's station_io writes
    them, give the same bytes as before."""

    # SHA-256 of the bytes the writer gave before it unpacked each day once
    PINNED = {
        (3, True): "e79049e9cc38ed87b70fda31d5ee6d88fc0c111816ad63f694abf1f2884453f5",
        (3, False): "f3b35e3953415929e2871ac408d35a1e412dec9a8126ca868109c6ccefaf35d3",
        (4, True): "3a61d92a1cbfa4ae7d7ea3c7d0637ddbec1c5b3bdc27233af9930e29ea174f4a",
        (4, False): "8c8c9c9d838135dbcb924acd1c5a10abae08c17a8fcac79deac48db7f9d20d77",
    }

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("theta", ["aggregated", "absent", "all none"])
    def test_same_bytes_as_before(self, tmp_path, seed, theta):
        agg = daily_aggregate(_station(seed, n_days=730))
        values = {"aggregated": agg.theta, "absent": None,
                  "all none": [None] * len(agg.days)}[theta]
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        write_daily_csv(new, agg.days, values)
        _reference_write_daily_csv(old, agg.days, values)
        assert new.read_bytes() == old.read_bytes()
        digest = hashlib.sha256(new.read_bytes()).hexdigest()
        assert digest == self.PINNED[seed, theta == "aggregated"]


class TestUncoveredRefusals:

    def test_read_columns_of_an_empty_file(self, tmp_path):
        path = tmp_path / "est.csv"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError) as exc:
            read_columns(path, ("observed_theta_vwc",))
        assert str(exc.value) == f"{path}: empty file"

    def test_repr_of_half_hour_records(self):
        record = HalfHourRecord(datetime(2011, 1, 5), 20.5, 0.0, None)
        assert repr(HalfHourRecords([record])) == f"HalfHourRecords([{record!r}])"

    def test_not_utf8_on_a_file_that_decodes(self, tmp_path):
        """The message for a file that changed between its failed read and this look."""
        path = _write(tmp_path / "hh.csv", ["timestamp_iso8601,temp_c,precip_mm"])
        assert not_utf8(path) == "not UTF-8"
