"""Weather generator and bucket water balance tests."""

import ast
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from paddymoist import _cbuild, hydro
from paddymoist.crop import KcSchedule, kc_at
from paddymoist.errors import ScheduleMismatchError
from paddymoist.evapo import (DailyWeather, SiteLocation, extraterrestrial_radiation,
                              hargreaves_et0, hargreaves_series)
from paddymoist.hydro import (Climate, FieldParams, LedgerDay, WaterFluxes, WeatherGenParams,
                              generate_truth, generate_weather, water_balance_step)

SEASON_KC = KcSchedule(len_ini=20, len_dev=30, len_mid=40, len_late=28)  # 118 days


class TestWaterBalanceStep:

    def test_zero_fluxes_zero_percolation_leave_theta_alone(self):
        p = FieldParams(perc_rate=0.0)
        theta, fluxes = water_balance_step(0.30, p, 0.0, 0.0, 0.0)
        assert theta == 0.30
        assert (fluxes.etc_mm, fluxes.runoff_mm, fluxes.perc_mm) == (0.0, 0.0, 0.0)

    def test_unit_conversion(self):
        # 5 mm over a 0.2 m root zone is 0.025 m3/m3, nothing else active
        p = FieldParams(perc_rate=0.0)
        theta, _ = water_balance_step(0.30, p, 5.0, 0.0, 0.0)
        assert theta == pytest.approx(0.325, abs=1e-12)

    def test_runoff_threshold_clamp(self):
        p = FieldParams(perc_rate=0.0)
        theta, fluxes = water_balance_step(0.50, p, 80.0, 0.0, 0.0)
        assert theta == pytest.approx(p.runoff_threshold, abs=1e-12)
        assert fluxes.runoff_mm > 0.0

    def test_et_demand_floored_at_residual(self):
        p = FieldParams(perc_rate=0.0)
        theta, fluxes = water_balance_step(0.20, p, 0.0, 0.0, 50.0)
        assert theta == pytest.approx(p.theta_res, abs=1e-12)
        assert fluxes.etc_mm == pytest.approx((0.20 - p.theta_res) * 200.0, abs=1e-9)

    def test_percolation_capped_at_rate(self):
        p = FieldParams(perc_rate=3.0)
        _, fluxes = water_balance_step(0.40, p, 0.0, 0.0, 0.0)
        assert fluxes.perc_mm == pytest.approx(3.0, abs=1e-12)

    def test_negative_flux_rejected(self):
        p = FieldParams()
        with pytest.raises(ValueError):
            water_balance_step(0.3, p, -1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            water_balance_step(0.3, p, 0.0, 0.0, -0.5)

    @pytest.mark.parametrize("precip, irrig, etc, message", [
        (math.nan, 0.0, 0.0, "precip_mm must be finite, got nan"),
        (math.inf, 0.0, 0.0, "precip_mm must be finite, got inf"),
        (0.0, math.nan, 0.0, "irrig_mm must be finite, got nan"),
        (0.0, math.inf, 0.0, "irrig_mm must be finite, got inf"),
        (0.0, 0.0, math.inf, "etc_mm must be finite, got inf"),
        (0.0, 0.0, math.nan, "etc_mm must be finite, got nan"),
        (-1.0, math.nan, 0.0, "precip_mm must be >= 0, got -1.0"),
        (math.nan, -1.0, 0.0, "precip_mm must be finite, got nan"),
        (0.0, 0.0, -math.inf, "etc_mm must be >= 0, got -inf"),
    ])
    def test_bad_input_is_named(self, precip, irrig, etc, message):
        with pytest.raises(ValueError) as exc:
            water_balance_step(0.3, FieldParams(), precip, irrig, etc)
        assert str(exc.value) == message

    def test_theta_out_of_bounds_rejected(self):
        p = FieldParams()
        with pytest.raises(ValueError):
            water_balance_step(0.10, p, 0.0, 0.0, 0.0)

    def test_mass_conservation_randomized(self):
        rng = np.random.default_rng(42)
        p = FieldParams()
        depth_mm = p.root_depth * 1000.0
        theta = p.theta_init
        for _ in range(2000):
            precip = float(rng.exponential(8.0)) if rng.uniform() < 0.5 else 0.0
            irrig = float(rng.uniform(0, 20)) if rng.uniform() < 0.1 else 0.0
            etc = float(rng.uniform(0, 8))
            theta_next, fx = water_balance_step(theta, p, precip, irrig, etc)
            delta = (theta_next - theta) * depth_mm
            budget = precip + irrig - fx.etc_mm - fx.runoff_mm - fx.perc_mm
            assert abs(delta - budget) <= 1e-9
            assert p.theta_res <= theta_next <= p.theta_sat
            theta = theta_next

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FieldParams(theta_res=0.5, theta_init=0.4)
        with pytest.raises(ValueError):
            FieldParams(root_depth=0.0)
        with pytest.raises(ValueError):
            FieldParams(runoff_threshold=0.6)  # above theta_sat


class TestWaterFluxes:

    def test_keyword_and_positional_construction_agree(self):
        by_keyword = WaterFluxes(etc_mm=4.0, runoff_mm=0.0, perc_mm=3.0)
        assert by_keyword == WaterFluxes(4.0, 0.0, 3.0) == (4.0, 0.0, 3.0)
        assert (by_keyword.etc_mm, by_keyword.runoff_mm, by_keyword.perc_mm) == (4.0, 0.0, 3.0)
        assert WaterFluxes._fields == ("etc_mm", "runoff_mm", "perc_mm")
        assert WaterFluxes(-0.0, 0.0, 1e308) == (0.0, 0.0, 1e308)

    @pytest.mark.parametrize("field", ["etc_mm", "runoff_mm", "perc_mm"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_rejected(self, field, bad):
        values = dict(etc_mm=4.0, runoff_mm=0.0, perc_mm=3.0)
        values[field] = bad
        with pytest.raises(ValueError) as exc:
            WaterFluxes(**values)
        assert str(exc.value) == f"{field} must be finite and >= 0, got {bad}"

    def test_first_bad_field_is_named(self):
        with pytest.raises(ValueError, match="^runoff_mm must be"):
            WaterFluxes(1.0, -1.0, math.nan)

    def test_replace_and_make_recheck(self):
        fluxes = WaterFluxes(4.0, 0.0, 3.0)
        assert fluxes._replace(runoff_mm=2.5) == WaterFluxes(4.0, 2.5, 3.0)
        with pytest.raises(ValueError, match="^perc_mm must be finite and >= 0, got -0.5$"):
            fluxes._replace(perc_mm=-0.5)
        with pytest.raises(ValueError, match="^etc_mm must be finite and >= 0, got nan$"):
            WaterFluxes._make([math.nan, 0.0, 3.0])

    def test_step_returns_the_record(self):
        _, fluxes = water_balance_step(0.30, FieldParams(), 5.0, 0.0, 4.0)
        assert type(fluxes) is WaterFluxes


def _reference_weather(g: WeatherGenParams) -> list:
    """The generator written with numpy's normal, lognormal, uniform-range
    random and exponential calls, one date computed per day."""
    rng = np.random.default_rng(g.seed)
    sigma = hydro._RANGE_JITTER_SIGMA
    mu = -0.5 * sigma ** 2
    days = []
    for d in range(g.n_days):
        day_date = g.start_date + timedelta(days=d)
        doy = day_date.timetuple().tm_yday
        tavg = (g.tavg_mean
                + g.tavg_amplitude
                * math.cos(2.0 * math.pi * (doy - hydro._SEASON_PEAK_DOY) / 365.0)
                + rng.normal(0.0, hydro._TAVG_NOISE_SD))
        j_up = rng.lognormal(mu, sigma)
        j_down = rng.lognormal(mu, sigma)
        tmax = tavg + 0.5 * g.diurnal_range_mean * j_up
        tmin = tavg - 0.5 * g.diurnal_range_mean * j_down
        wet = rng.random() < g.wet_day_prob
        precip = float(rng.exponential(g.precip_mean_wet)) if wet else 0.0
        days.append(DailyWeather(d, day_date, tmax, tavg, tmin, precip))
    return days


class TestGenerateWeather:

    @pytest.mark.parametrize("wet_day_prob", [0.0, 0.55, 1.0])
    def test_equals_the_numpy_distribution_calls(self, wet_day_prob):
        for seed in range(24):
            g = WeatherGenParams(seed=seed, n_days=150, wet_day_prob=wet_day_prob,
                                 start_date=date(2011, 11, 1))  # across a leap day
            got, ref = generate_weather(g), _reference_weather(g)
            assert got == ref, seed
            assert [(d.tmax.hex(), d.tavg.hex(), d.tmin.hex(), d.precip.hex())
                    for d in got] == [(d.tmax.hex(), d.tavg.hex(), d.tmin.hex(),
                                       d.precip.hex()) for d in ref], seed

    def test_deterministic_per_seed(self):
        g = WeatherGenParams(seed=101, n_days=118)
        assert generate_weather(g) == generate_weather(g)

    def test_different_seeds_differ(self):
        a = generate_weather(WeatherGenParams(seed=101, n_days=30))
        b = generate_weather(WeatherGenParams(seed=102, n_days=30))
        assert a != b

    def test_day_invariants(self):
        for day in generate_weather(WeatherGenParams(seed=7, n_days=200)):
            assert day.tmin <= day.tavg <= day.tmax
            assert day.precip >= 0.0

    def test_dates_and_indices(self):
        days = generate_weather(WeatherGenParams(seed=1, n_days=5,
                                                 start_date=date(2010, 10, 14)))
        assert [d.day_index for d in days] == [0, 1, 2, 3, 4]
        assert days[0].date == date(2010, 10, 14)
        assert days[4].date == date(2010, 10, 18)

    def test_wettest_window_in_calibration_band(self):
        days = generate_weather(WeatherGenParams(seed=101, n_days=118))
        precip = [d.precip for d in days]
        wettest = max(sum(precip[i:i + 30]) for i in range(len(precip) - 29))
        assert 150.0 <= wettest <= 600.0

    def test_mean_temperature_near_target(self):
        days = generate_weather(WeatherGenParams(seed=101, n_days=118))
        mean = sum(d.tavg for d in days) / len(days)
        assert abs(mean - 24.0) < 1.0

    def test_wet_day_draw_is_the_uniform_draw(self):
        # the generator draws the wet-day test with random(), which must give
        # what uniform() gives and leave the stream where uniform() leaves it
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(200):
                assert a.normal(0.0, 0.5) == b.normal(0.0, 0.5)
                assert a.lognormal(-0.15, 0.55) == b.lognormal(-0.15, 0.55)
                assert a.random() == b.uniform()
                assert a.exponential(15.0) == b.exponential(15.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            WeatherGenParams(seed=1, n_days=0)
        with pytest.raises(ValueError):
            WeatherGenParams(seed=1, n_days=10, wet_day_prob=1.5)
        with pytest.raises(ValueError):
            WeatherGenParams(seed=1, n_days=10, diurnal_range_mean=0.0)

    @pytest.mark.parametrize("knob, value, message", [
        ("wet_day_prob", 1.5, "wet_day_prob must be in [0, 1], got 1.5"),
        ("diurnal_range_mean", 0.0, "diurnal_range_mean must be > 0, got 0.0"),
        ("precip_mean_wet", -2.0, "precip_mean_wet must be >= 0, got -2.0"),
    ])
    def test_climate_checks_its_knobs(self, knob, value, message):
        for make in (Climate, lambda **kw: WeatherGenParams(seed=1, n_days=10, **kw)):
            with pytest.raises(ValueError) as exc:
                make(**{knob: value})
            assert str(exc.value) == message

    def test_season_by_position_climate_by_keyword(self):
        assert WeatherGenParams(101, 118) == WeatherGenParams(seed=101, n_days=118)
        assert WeatherGenParams(101, 118, date(2011, 8, 20), wet_day_prob=0.4) == (
            WeatherGenParams(seed=101, n_days=118, start_date=date(2011, 8, 20),
                             wet_day_prob=0.4))
        with pytest.raises(TypeError):
            WeatherGenParams(101, 118, date(2011, 8, 20), 24.0)


class TestGenerateTruth:

    def setup_method(self):
        self.site = SiteLocation()
        self.weather = generate_weather(WeatherGenParams(seed=101, n_days=118))
        self.params = FieldParams()

    def test_etc_composition(self):
        theta, ledger = generate_truth(self.weather, self.site, SEASON_KC, self.params)
        assert len(ledger) == len(theta) == len(self.weather)
        for d, (day, row) in enumerate(zip(self.weather, ledger)):
            assert isinstance(row, LedgerDay)
            ra = extraterrestrial_radiation(self.site, day.date.timetuple().tm_yday)
            assert row.et0 == hargreaves_et0(day.tmax, day.tavg, day.tmin, ra)
            assert row.kc == kc_at(SEASON_KC, d)
            assert (row.precip, row.irrig_mm) == (day.precip, 0.0)

    def test_ledger_et0_is_the_hargreaves_series(self):
        _, ledger = generate_truth(self.weather, self.site, SEASON_KC, self.params)
        assert [row.et0 for row in ledger] == hargreaves_series(self.weather, self.site)

    def test_ledger_replay_conserves_mass(self):
        theta_series, ledger = generate_truth(self.weather, self.site, SEASON_KC,
                                              self.params)
        depth_mm = self.params.root_depth * 1000.0
        theta = self.params.theta_init
        for row, theta_reported in zip(ledger, theta_series):
            theta_next, fx = water_balance_step(theta, self.params, row.precip, row.irrig_mm,
                                                row.kc * row.et0)
            delta = (theta_next - theta) * depth_mm
            budget = row.precip - fx.etc_mm - fx.runoff_mm - fx.perc_mm
            assert abs(delta - budget) <= 1e-9
            assert theta_next == theta_reported  # same pure code path, bit-identical
            assert fx == row.fluxes
            theta = theta_next

    def test_ledger_closes_from_each_row_alone(self):
        events = ((5, 20.0), (40, 35.0), (40, 5.0), (90, 12.5))
        p = replace(self.params, irrigation=events)
        theta_series, ledger = generate_truth(self.weather, self.site, SEASON_KC, p)
        assert [(d, row.irrig_mm) for d, row in enumerate(ledger) if row.irrig_mm] == [
            (5, 20.0), (40, 40.0), (90, 12.5)]
        depth_mm = p.root_depth * 1000.0
        before = p.theta_init
        for d, (row, after) in enumerate(zip(ledger, theta_series)):
            fx = row.fluxes
            budget = row.precip + row.irrig_mm - fx.etc_mm - fx.runoff_mm - fx.perc_mm
            assert abs((after - before) * depth_mm - budget) <= 1e-9, d
            assert fx.etc_mm <= row.kc * row.et0
            before = after
        assert sum(row.fluxes.runoff_mm for row in ledger) > 0.0
        assert sum(row.fluxes.perc_mm for row in ledger) > 0.0

    def test_dry_season_monotone_nonincreasing(self):
        dry = [d._replace(precip=0.0) for d in self.weather]
        theta, _ = generate_truth(dry, self.site, SEASON_KC, self.params)
        assert all(b <= a for a, b in zip(theta, theta[1:]))

    def test_theta_stays_physical(self):
        theta, _ = generate_truth(self.weather, self.site, SEASON_KC, self.params)
        assert all(self.params.theta_res <= v <= self.params.theta_sat for v in theta)

    def test_irrigation_events_add_water(self):
        dry = [d._replace(precip=0.0) for d in self.weather]
        base, _ = generate_truth(dry, self.site, SEASON_KC, self.params)
        irrigated = replace(self.params, irrigation=((10, 30.0),))
        wet, _ = generate_truth(dry, self.site, SEASON_KC, irrigated)
        assert wet[10] > base[10]
        assert wet[:10] == base[:10]

    def test_schedule_mismatch_propagates(self):
        with pytest.raises(ScheduleMismatchError):
            generate_truth(self.weather[:100], self.site, SEASON_KC, self.params)

    def test_deterministic(self):
        a = generate_truth(self.weather, self.site, SEASON_KC, self.params)
        b = generate_truth(self.weather, self.site, SEASON_KC, self.params)
        assert a == b


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler 'cc' on PATH")


@pytest.fixture
def fresh(tmp_path, monkeypatch):
    """An empty cache directory in place of the user's, and no C loops built yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    hydro._c_loops.cache_clear()
    yield tmp_path / "xdg" / "paddymoist"
    hydro._c_loops.cache_clear()


def _season(**climate):
    """A season's weather settings and its truth's arguments, with irrigation
    on a repeated day and past the season's end."""
    g = WeatherGenParams(seed=303, n_days=118, start_date=date(2011, 12, 20), **climate)
    p = FieldParams(irrigation=((3, 10.0), (3, 2.5), (60, 30.0), (400, 5.0)))
    return g, SiteLocation(), SEASON_KC, p


class TestCLoops:
    """Building, caching and falling back from the C weather and bucket loops."""

    @needs_cc
    def test_built_once_under_its_own_name(self, fresh):
        g, site, kc, p = _season()
        weather = generate_weather(g)
        truth = generate_truth(weather, site, kc, p)
        (built,) = [path.name for path in fresh.iterdir()]
        assert built.startswith("hydro-") and built.endswith(".so")
        assert hydro._c_loops() is not None
        assert repr(weather) == repr(hydro._python_weather(g))
        assert repr(truth) == repr(hydro._python_truth(weather, site, kc, p))

    @pytest.mark.parametrize("broken", ["no cc on PATH", "no libnpyrandom.a", "compile error"])
    def test_falls_back_to_the_python_loops(self, broken, fresh, tmp_path, monkeypatch, caplog):
        g, site, kc, p = _season()
        weather = hydro._python_weather(g)
        expected = repr((weather, hydro._python_truth(weather, site, kc, p)))
        if broken == "no cc on PATH":
            monkeypatch.setenv("PATH", str(tmp_path))
        elif broken == "no libnpyrandom.a":
            monkeypatch.setattr(hydro, "_NPYRANDOM", str(tmp_path / "libnpyrandom.a"))
        else:
            monkeypatch.setattr(hydro, "_C_SOURCE", "this is not C\n")
        with caplog.at_level(logging.WARNING, logger="paddymoist.hydro"):
            for _ in range(2):
                made = generate_weather(g)
                assert repr((made, generate_truth(made, site, kc, p))) == expected
        assert hydro._c_loops() is None
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert message.startswith("synthetic seasons run the Python loops, the C loops "
                                  "did not build: ")
        if broken == "no libnpyrandom.a" and shutil.which("cc"):
            assert "libnpyrandom.a" in message
        assert not fresh.exists() or list(fresh.iterdir()) == []

    @pytest.mark.parametrize("rendering", ["python", "c"])
    def test_polar_night_et0_is_positive_zero(self, rendering):
        # Ra == 0 below -17.8 deg C makes Hargreaves' product -0.0
        assert math.copysign(1.0, hargreaves_et0(10.0, -20.0, 0.0, 0.0)) == 1.0
        g = WeatherGenParams(7, 118, date(2011, 11, 20), tavg_mean=-30.0)
        site, p = SiteLocation(1.4), FieldParams()
        weather = hydro._python_weather(g)
        if rendering == "python":
            _, ledger = hydro._python_truth(weather, site, SEASON_KC, p)
        else:
            loops = hydro._c_loops()
            if loops is None:
                pytest.skip("the C weather and bucket loops did not build")
            _, ledger = hydro._c_truth(loops[1], weather, site, SEASON_KC, p)
        zeros = [row for row in ledger if row.et0 == 0.0]
        assert len(zeros) > 50
        signs = {math.copysign(1.0, v) for row in zeros for v in (row.et0, row.fluxes.etc_mm)}
        assert signs == {1.0}

    def test_season_past_the_last_date_raises_as_python(self):
        g = WeatherGenParams(seed=1, n_days=3, start_date=date(9999, 12, 30))
        with pytest.raises(OverflowError, match="date value out of range"):
            generate_weather(g)

    @needs_cc
    def test_overflowing_climate_gets_the_python_error(self):
        loops = hydro._c_loops()
        assert loops is not None
        g = WeatherGenParams(seed=1, n_days=10, tavg_mean=1e308, diurnal_range_mean=1e308)
        assert hydro._c_weather(loops[0], g) is None  # the C loop found the fault
        with pytest.raises(ValueError) as python:
            hydro._python_weather(g)
        with pytest.raises(ValueError) as made:
            generate_weather(g)
        assert str(made.value) == str(python.value)
        assert str(made.value) == "tmax must be finite, got inf on 2010-10-20"  # day 6

    @needs_cc
    def test_bucket_fault_gets_the_python_error(self):
        loops = hydro._c_loops()
        g, site, kc, p = _season()
        weather = generate_weather(g)
        weather[7] = weather[7]._replace(tmax=1e308, tmin=-1e308)  # an infinite ET0
        assert hydro._c_truth(loops[1], weather, site, kc, p) is None
        with pytest.raises(ValueError, match="^etc_mm must be finite, got inf$"):
            generate_truth(weather, site, kc, p)

    @needs_cc
    @pytest.mark.parametrize("change", [
        "int temperature", "numpy temperature", "int field", "int Kc", "numpy irrigation",
        "int climate", "datetime start"])
    def test_numbers_that_are_not_floats_run_the_python_loops(self, change):
        loops = hydro._c_loops()
        g, site, kc, p = _season()
        weather = generate_weather(g)
        if change == "int temperature":
            weather[5] = weather[5]._replace(tmin=int(weather[5].tmin))
        elif change == "numpy temperature":
            weather[5] = weather[5]._replace(tmax=np.float64(weather[5].tmax))
        elif change == "int field":
            p = replace(p, perc_rate=3)
        elif change == "int Kc":
            kc = replace(kc, kc_ini=1)
        elif change == "numpy irrigation":  # an int is added to 0.0, a numpy scalar is not
            p = replace(p, irrigation=((3, np.float64(10.0)),))
        elif change == "int climate":
            g = replace(g, wet_day_prob=1)
        else:
            from datetime import datetime
            g = replace(g, start_date=datetime(2011, 12, 20, 6))
        if change.endswith(("climate", "start")):
            assert hydro._c_weather(loops[0], g) is None
            assert repr(generate_weather(g)) == repr(hydro._python_weather(g))
        else:
            assert hydro._c_truth(loops[1], weather, site, kc, p) is None
            assert (repr(generate_truth(weather, site, kc, p))
                    == repr(hydro._python_truth(weather, site, kc, p)))

    def test_key_covers_the_link_inputs(self, tmp_path):
        compiler, library = tmp_path / "cc", tmp_path / "libnpyrandom.a"
        compiler.write_bytes(b"cc")
        library.write_bytes(b"v1")
        os.utime(library, ns=(10**18, 10**18))

        def key(*inputs):
            return _cbuild.cache_key("int f;", _cbuild.CFLAGS, str(compiler), inputs)
        first = key(str(library))
        assert key(str(library)) == first != key()
        os.utime(library, ns=(10**18, 10**18 + 1))  # numpy was upgraded
        assert key(str(library)) != first
        library.write_bytes(b"v22")
        os.utime(library, ns=(10**18, 10**18))  # same time, another size
        assert key(str(library)) != first
        library.write_bytes(b"v1")
        os.utime(library, ns=(10**18, 10**18))
        assert key(str(library)) == first
        with pytest.raises(FileNotFoundError):
            key(str(tmp_path / "missing.a"))

    def test_import_builds_nothing(self, tmp_path):
        # the loops are built on the first season, not at import: with ctypes
        # blocked, the package imports and a season runs the Python loops
        code = ("import sys; sys.modules['ctypes'] = None\n"
                "from paddymoist import hydro\n"
                "g = hydro.WeatherGenParams(seed=5, n_days=3)\n"
                "assert hydro.generate_weather(g) == hydro._python_weather(g)\n"
                "assert sys.modules['ctypes'] is None\n")
        src = os.path.dirname(os.path.dirname(hydro.__file__))
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr
        assert "synthetic seasons run the Python loops" in done.stderr
        assert list(tmp_path.iterdir()) == []


def test_hydro_imports_nothing_from_moisture():
    # the ground truth must not depend on the model it provides targets for
    tree = ast.parse(Path(hydro.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported
    assert not [name for name in imported if "moisture" in name.split(".")]


class TestRefusedArguments:

    def test_negative_percolation_rate(self):
        with pytest.raises(ValueError, match="^perc_rate must be >= 0, got -1.0$"):
            FieldParams(perc_rate=-1.0)

    @pytest.mark.parametrize("event", [(3,), (3, -1.0), (3, 1.0, 2.0)])
    def test_malformed_irrigation_event(self, event):
        with pytest.raises(ValueError, match=re.escape(
                f"irrigation events must be (day_index, mm >= 0), got {event}")):
            FieldParams(irrigation=(event,))

    def test_empty_weather(self):
        with pytest.raises(ValueError, match="^weather series is empty$"):
            generate_truth([], SiteLocation(), SEASON_KC, FieldParams())
