"""Weather generator and bucket water balance tests."""

import ast
import math
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from paddymoist import hydro
from paddymoist.crop import KcSchedule, kc_at
from paddymoist.errors import ScheduleMismatchError
from paddymoist.evapo import (DailyWeather, SiteLocation, extraterrestrial_radiation,
                              hargreaves_et0, hargreaves_series)
from paddymoist.hydro import (FieldParams, LedgerDay, WeatherGenParams, generate_truth,
                              generate_weather, water_balance_step)

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
        dry = [replace(d, precip=0.0) for d in self.weather]
        theta, _ = generate_truth(dry, self.site, SEASON_KC, self.params)
        assert all(b <= a for a, b in zip(theta, theta[1:]))

    def test_theta_stays_physical(self):
        theta, _ = generate_truth(self.weather, self.site, SEASON_KC, self.params)
        assert all(self.params.theta_res <= v <= self.params.theta_sat for v in theta)

    def test_irrigation_events_add_water(self):
        dry = [replace(d, precip=0.0) for d in self.weather]
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
