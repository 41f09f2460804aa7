"""Half-hourly ingestion, gap handling, and CSV round trips."""

from datetime import date, datetime, timedelta

import pytest

from paddymoist.errors import DataFormatError, OrderingError
from paddymoist.evapo import DailyWeather
from paddymoist.ingest import (HalfHourRecord, check_consecutive, daily_aggregate,
                               read_daily_csv, read_half_hourly_csv, write_daily_csv,
                               write_half_hourly_csv)


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
