"""Hargreaves oracle, extraterrestrial radiation, and the ET0 surrogate."""

import functools
import math
from datetime import date, timedelta

import numpy as np
import pytest

from paddymoist import ann, evapo
from paddymoist.ann import (Mlp, MlpTopology, Normalizer, TrainConfig, denormalize, forward,
                            normalize, normalize_row)
from paddymoist.errors import DimensionError
from paddymoist.evapo import (DEFAULT_ET0_NORM, DailyWeather, Et0Model, SiteLocation,
                              day_of_year, extraterrestrial_radiation, hargreaves_et0,
                              hargreaves_series, predict_et0, predict_et0_series,
                              ra_table, train_et0_model)
from paddymoist.experiment import default_config, weather_params_for
from paddymoist.hydro import generate_weather
from paddymoist.metrics import r_squared


class TestExtraterrestrialRadiation:

    def test_equator_near_equinox_frozen_value(self):
        # closed form hand-evaluated at phi = 0, doy 80 (recorded oracle)
        ra = extraterrestrial_radiation(SiteLocation(latitude=0.0), 80)
        assert ra == pytest.approx(37.824213107626, abs=1e-9)
        # with sin(delta) ~ 0 and ws = pi/2 the expression collapses to
        # (1440/pi) * Gsc * dr * cos(delta) ~ (1440/pi) * Gsc * dr
        dr = 1 + 0.033 * math.cos(2 * math.pi * 80 / 365)
        assert ra == pytest.approx((1440 / math.pi) * 0.0820 * dr, rel=1e-3)

    def test_independent_closed_form(self):
        # re-derive the formula inline for a handful of sites and days
        for lat_deg, doy in [(-6.85, 287), (0.0, 1), (45.0, 172), (-30.0, 355)]:
            phi = math.radians(lat_deg)
            dr = 1 + 0.033 * math.cos(2 * math.pi * doy / 365)
            dec = 0.409 * math.sin(2 * math.pi * doy / 365 - 1.39)
            ws = math.acos(max(-1.0, min(1.0, -math.tan(phi) * math.tan(dec))))
            expected = (1440 / math.pi) * 0.0820 * dr * (
                ws * math.sin(phi) * math.sin(dec)
                + math.cos(phi) * math.cos(dec) * math.sin(ws))
            got = extraterrestrial_radiation(SiteLocation(latitude=phi), doy)
            assert got == pytest.approx(max(expected, 0.0), abs=1e-9)

    def test_polar_night_is_zero(self):
        # 70 deg S at the austral winter solstice: the arccos clamp drives
        # the sunset hour angle to zero
        site = SiteLocation(latitude=math.radians(-70.0))
        assert extraterrestrial_radiation(site, 172) == 0.0

    def test_hemispheric_symmetry_spot_check(self):
        a = extraterrestrial_radiation(SiteLocation(latitude=math.radians(35.0)), 100)
        b = extraterrestrial_radiation(SiteLocation(latitude=math.radians(-35.0)),
                                       (100 + 182 - 1) % 365 + 1)
        assert abs(a - b) / max(a, b) < 0.02

    def test_nonnegative_and_finite_everywhere(self):
        for lat_deg in (-89, -70, -45, -6.85, 0, 23.5, 45, 70, 89):
            site = SiteLocation(latitude=math.radians(lat_deg))
            values = [extraterrestrial_radiation(site, doy) for doy in range(1, 367)]
            assert all(v >= 0.0 and math.isfinite(v) for v in values)

    @pytest.mark.parametrize("lat", [0.0, -0.0, 0.12, -0.12, 1.5, -1.5])
    def test_ra_table_is_the_function_bit_for_bit(self, lat):
        # -0.0 shares 0.0's cached table, so this also shows the two agree
        site = SiteLocation(latitude=lat)
        table = ra_table(lat)
        assert len(table) == 366
        assert [v.hex() for v in table] == [
            extraterrestrial_radiation(site, doy).hex() for doy in range(1, 367)]

    def test_hargreaves_series_uses_each_days_ra(self):
        site = SiteLocation(latitude=math.radians(-30.0))
        # across a year end and a leap day
        days = [DailyWeather(i, date(2011, 12, 1) + timedelta(days=i), tmax=31.0 - i % 7,
                             tavg=24.0, tmin=18.5 + i % 3, precip=0.0) for i in range(120)]
        assert hargreaves_series(days, site) == [
            hargreaves_et0(d.tmax, d.tavg, d.tmin,
                           extraterrestrial_radiation(site, day_of_year(d.date)))
            for d in days]

    def test_doy_out_of_range(self):
        with pytest.raises(ValueError):
            extraterrestrial_radiation(SiteLocation(), 0)
        with pytest.raises(ValueError):
            extraterrestrial_radiation(SiteLocation(), 367)

    def test_latitude_bound(self):
        with pytest.raises(ValueError):
            SiteLocation(latitude=math.pi / 2)


class TestDayOfYear:

    def test_matches_timetuple_every_day_1999_to_2030(self):
        day = date(1999, 1, 1)
        while day <= date(2030, 12, 31):
            assert day_of_year(day) == day.timetuple().tm_yday, day
            day += timedelta(days=1)


class TestHargreaves:

    def test_zero_diurnal_range(self):
        assert hargreaves_et0(25.0, 25.0, 25.0, 38.0) == 0.0

    def test_offset_temperature_vanishes(self):
        assert hargreaves_et0(-10.0, -17.8, -20.0, 30.0) == 0.0

    def test_arithmetic_oracle(self):
        # 0.0023 * (24 + 17.8) * sqrt(10) * 0.408 * 35, recorded to 6 decimals
        assert hargreaves_et0(30.0, 24.0, 20.0, 35.0) == pytest.approx(4.341425, abs=1e-6)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            hargreaves_et0(20.0, 24.0, 30.0, 35.0)

    def test_monotone_in_tavg_and_range(self):
        base = hargreaves_et0(30.0, 24.0, 20.0, 35.0)
        assert hargreaves_et0(30.0, 25.0, 20.0, 35.0) > base
        assert hargreaves_et0(31.0, 24.0, 19.0, 35.0) > base


class TestDailyWeather:

    def test_ordering_invariant(self):
        with pytest.raises(ValueError):
            DailyWeather(0, date(2011, 1, 1), tmax=20.0, tavg=25.0, tmin=18.0, precip=0.0)

    def test_negative_precip(self):
        with pytest.raises(ValueError):
            DailyWeather(0, date(2011, 1, 1), tmax=30.0, tavg=25.0, tmin=18.0, precip=-1.0)

    @pytest.mark.parametrize("field", ["tmax", "tavg", "tmin", "precip"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, bad):
        values = dict(tmax=30.0, tavg=25.0, tmin=18.0, precip=1.0)
        values[field] = bad
        with pytest.raises(ValueError, match=field):
            DailyWeather(0, date(2011, 1, 1), **values)

    @pytest.mark.parametrize("field", ["tmax", "tavg", "tmin", "precip"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_message(self, field, bad):
        values = dict(tmax=30.0, tavg=25.0, tmin=18.0, precip=1.0)
        values[field] = bad
        with pytest.raises(ValueError) as exc:
            DailyWeather(0, date(2011, 1, 1), **values)
        assert str(exc.value) == f"{field} must be finite, got {bad} on 2011-01-01"

    def test_first_non_finite_field_is_named(self):
        with pytest.raises(ValueError, match="^tavg must be finite, got nan"):
            DailyWeather(0, date(2011, 1, 1), tmax=30.0, tavg=math.nan, tmin=math.inf,
                         precip=-math.inf)

    def test_keyword_and_positional_construction_agree(self):
        day = date(2011, 1, 1)
        by_keyword = DailyWeather(day_index=3, date=day, tmax=30.0, tavg=25.0, tmin=18.0,
                                  precip=1.5)
        assert by_keyword == DailyWeather(3, day, 30.0, 25.0, 18.0, 1.5)
        assert by_keyword == (3, day, 30.0, 25.0, 18.0, 1.5)
        assert (by_keyword.date, by_keyword.tmax, by_keyword.precip) == (day, 30.0, 1.5)
        assert DailyWeather._fields == ("day_index", "date", "tmax", "tavg", "tmin", "precip")

    def test_replace_and_make_recheck(self):
        day = DailyWeather(0, date(2011, 1, 1), 30.0, 25.0, 18.0, 1.0)
        assert day._replace(precip=0.0) == DailyWeather(0, date(2011, 1, 1), 30.0, 25.0,
                                                        18.0, 0.0)
        for changes, message in (
                ({"precip": -1.0}, "precip must be >= 0, got -1.0 on 2011-01-01"),
                ({"tavg": 31.0}, "need tmin <= tavg <= tmax, got 18.0/31.0/30.0 on 2011-01-01"),
                ({"tmin": math.nan}, "tmin must be finite, got nan on 2011-01-01")):
            with pytest.raises(ValueError) as exc:
                day._replace(**changes)
            assert str(exc.value) == message
        with pytest.raises(ValueError, match="^tmax must be finite"):
            DailyWeather._make([0, date(2011, 1, 1), math.inf, 25.0, 18.0, 1.0])

    def test_boundaries_accepted(self):
        day = DailyWeather(0, date(2011, 1, 1), 25.0, 25.0, 25.0, -0.0)
        assert day.tmin == day.tavg == day.tmax and day.precip == 0.0
        big = DailyWeather(0, date(2011, 1, 1), 1e308, 0.0, -1e308, 1e308)
        assert big.tmax == 1e308


def _unmemoized_predict(model, tmax, tavg, tmin):
    """``predict_et0`` as it ran before binds were memoized: a fresh flattening
    of the weights and a normalizer list on every call."""
    net = model.net
    fwd = functools.partial(ann._kernel(net.topology)[1], net.w_hidden.ravel().tolist(),
                            net.w_output.ravel().tolist(), net.gain)
    (u,) = fwd(normalize_row((tmax, tavg, tmin), evapo._input_norms(model.temp_norm)))
    return denormalize(u, model.et0_norm)


class TestPredictEt0Bind:
    """``predict_et0`` through the memoized bind against the unmemoized path."""

    def test_equals_the_unmemoized_path_bit_for_bit(self, rendering):
        rng = np.random.default_rng(36)
        temps = [(30.0, 24.0, 20.0), (60.0, 55.0, 51.0), (-2.0, -5.0, -9.0),
                 (58.0, 20.0, -4.0), (50.0, 0.0, 0.0), (-0.0, -0.0, -0.0)]
        for half_width in (0.5, 20.0):
            for k in range(8):
                net = Mlp.random(MlpTopology(3, 8, 1), rng, half_width)
                net.gain = float(rng.uniform(0.05, 1.0))
                net.w_hidden[k % 8, k % 4] = -0.0
                net.w_output[0, k] = -0.0
                model = Et0Model(net, Normalizer(-1.0, 52.0), Normalizer(0.0, 11.0))
                days = temps + [tuple(sorted(rng.uniform(-10.0, 60.0, 3), reverse=True))
                                for _ in range(10)]
                for tmax, tavg, tmin in days:
                    got = predict_et0(model, tmax, tavg, tmin)
                    assert repr(got) == repr(_unmemoized_predict(model, tmax, tavg, tmin))

    def test_a_changed_net_is_bound_afresh(self):
        rng = np.random.default_rng(37)
        model = Et0Model(Mlp.random(MlpTopology(3, 8, 1), rng, 2.0))
        day = (31.0, 25.0, 20.0)
        seen = [predict_et0(model, *day)]
        for change in ("in place", "gain", "swap"):
            if change == "in place":
                model.net.w_hidden[2, 1] += 0.5
            elif change == "gain":
                model.net.gain = 0.4
            else:
                model.net = Mlp.random(MlpTopology(3, 8, 1), rng, 2.0)
            got = predict_et0(model, *day)
            assert got == _unmemoized_predict(model, *day) and got not in seen
            seen.append(got)

    @pytest.mark.parametrize("tmax, tavg, tmin, bad", [
        (math.nan, 25.0, 20.0, "nan"), (30.0, math.inf, 20.0, "inf"),
        (30.0, 25.0, -math.inf, "-inf"), (math.inf, math.nan, -math.inf, "inf"),
        (30.0, math.nan, -math.inf, "nan"), (math.nan, math.nan, 20.0, "nan"),
    ])
    def test_the_first_non_finite_temperature_is_named(self, tmax, tavg, tmin, bad):
        model = Et0Model(Mlp.random(MlpTopology(3, 8, 1), np.random.default_rng(38)))
        message = f"^cannot normalize the non-finite value {bad}$"
        with pytest.raises(ValueError, match=message):
            predict_et0(model, tmax, tavg, tmin)
        with pytest.raises(ValueError, match=message):
            _unmemoized_predict(model, tmax, tavg, tmin)


class TestEt0Surrogate:

    def test_untrained_model_predicts_midpoint(self):
        model = Et0Model(Mlp.zeros(MlpTopology(3, 8, 1)))
        # sigmoid(0) = 0.5 denormalized to the midpoint of the 0..10 bounds
        assert predict_et0(model, 31.0, 25.0, 20.0) == 5.0

    def test_edge_inputs_stay_inside_bounds(self):
        rng = np.random.default_rng(42)
        model = Et0Model(Mlp.random(MlpTopology(3, 8, 1), rng, 3.0))
        for tmax, tavg, tmin in [(50.0, 50.0, 50.0), (0.0, 0.0, 0.0),
                                 (90.0, 70.0, 60.0), (-5.0, -10.0, -12.0)]:
            out = predict_et0(model, tmax, tavg, tmin)
            assert DEFAULT_ET0_NORM.lo < out < DEFAULT_ET0_NORM.hi

    def test_inverted_range_rejected(self):
        model = Et0Model(Mlp.zeros(MlpTopology(3, 8, 1)))
        with pytest.raises(ValueError):
            predict_et0(model, 20.0, 25.0, 30.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            train_et0_model([], SiteLocation(), TrainConfig(seed=1))

    @pytest.mark.parametrize("tmax", [math.nan, math.inf])
    def test_non_finite_temperature_is_rejected_by_normalize(self, tmax):
        cfg = default_config()
        days = generate_weather(weather_params_for(cfg, cfg.period1))[:5]
        days[3] = tuple.__new__(DailyWeather, (*days[3][:2], tmax, *days[3][3:]))  # unchecked
        with pytest.raises(ValueError, match=f"^cannot normalize the non-finite value {tmax}$"):
            train_et0_model(days, cfg.site, TrainConfig(seed=1, epochs=2))

    def test_series_equals_per_day_and_numpy_forward(self, rendering):
        rng = np.random.default_rng(17)
        net = Mlp.random(MlpTopology(3, 8, 1), rng, 3.0)
        net.gain = 0.7
        model = Et0Model(net)
        cfg = default_config()
        days = generate_weather(weather_params_for(cfg, cfg.period2))
        days.append(DailyWeather(len(days), date(2012, 1, 1), tmax=60.0, tavg=-1.0,
                                 tmin=-5.0, precip=0.0))  # clamped on both sides
        series = predict_et0_series(model, days)
        assert series == [predict_et0(model, d.tmax, d.tavg, d.tmin) for d in days]
        # the per-day path through numpy that the bound net replaced
        tn = model.temp_norm
        assert series == [
            denormalize(float(forward(model.net, [normalize(d.tmax, tn), normalize(d.tavg, tn),
                                                  normalize(d.tmin, tn)])[0]),
                        model.et0_norm)
            for d in days]
        assert predict_et0_series(model, []) == []

    def test_loss_history_has_epochs_entries(self):
        cfg = default_config()
        weather = generate_weather(weather_params_for(cfg, cfg.period1))[:40]
        _, losses = train_et0_model(weather, cfg.site, TrainConfig(seed=1, epochs=25))
        assert len(losses) == 25


class TestCrossPeriodProtocol:
    """Cross-period agreement of the surrogate on the default experiment."""

    def test_training_period_agreement(self, default_report):
        assert default_report.cells["et0_train"].r_squared >= 0.95

    def test_held_out_period_agreement(self, default_report):
        assert default_report.cells["et0_val"].r_squared >= 0.93

    def test_training_residuals_have_no_systematic_sign(self, default_report):
        assert abs(default_report.et0_mean_residual) <= 0.1

    def test_representative_day_close_to_hargreaves(self, default_report):
        p1 = default_report.period1
        mid = len(p1.days) // 2
        assert abs(p1.et0_pred[mid] - p1.hargreaves[mid]) <= 0.5

    def test_predictions_inside_bounds(self, default_report):
        for period in (default_report.period1, default_report.period2):
            assert all(0.0 <= v <= 10.0 for v in period.et0_pred)


def test_et0_model_refuses_a_net_that_is_not_3_n_1():
    with pytest.raises(ValueError, match=r"^ET0 surrogate must be 3-n-1, got MlpTopology\("
                                         r"n_inputs=4, n_hidden=8, n_outputs=1\)$"):
        Et0Model(Mlp.zeros(MlpTopology(4, 8, 1)))
