"""Weather generator and bucket water balance tests."""

from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from paddymoist.crop import KcSchedule, kc_at
from paddymoist.errors import ScheduleMismatchError
from paddymoist.evapo import (SiteLocation, extraterrestrial_radiation,
                              hargreaves_et0)
from paddymoist.hydro import (FieldParams, WeatherGenParams, generate_truth,
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


class TestGenerateWeather:

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
        theta, forcing = generate_truth(self.weather, self.site, SEASON_KC, self.params)
        for d, (day, f) in enumerate(zip(self.weather, forcing)):
            ra = extraterrestrial_radiation(self.site, day.date.timetuple().tm_yday)
            assert f.et0 == hargreaves_et0(day.tmax, day.tavg, day.tmin, ra)
            assert f.kc == kc_at(SEASON_KC, d)

    def test_ledger_replay_conserves_mass(self):
        theta_series, forcing = generate_truth(self.weather, self.site, SEASON_KC,
                                               self.params)
        depth_mm = self.params.root_depth * 1000.0
        theta = self.params.theta_init
        for day, f, theta_reported in zip(self.weather, forcing, theta_series):
            theta_next, fx = water_balance_step(theta, self.params, day.precip, 0.0,
                                                f.kc * f.et0)
            delta = (theta_next - theta) * depth_mm
            budget = day.precip - fx.etc_mm - fx.runoff_mm - fx.perc_mm
            assert abs(delta - budget) <= 1e-9
            assert theta_next == theta_reported  # same pure code path, bit-identical
            theta = theta_next

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
