"""Config document, two-period experiment, report and plot-data files."""

import errno
import functools
import hashlib
import math
from collections import Counter
from dataclasses import fields, is_dataclass, replace
from datetime import date, timedelta
from operator import attrgetter

import numpy as np
import pytest

from conftest import quick_config
from paddymoist import ann
from paddymoist.ann import Mlp, MlpTopology, Normalizer, TrainConfig
from paddymoist.crop import KcSchedule, kc_at
from paddymoist.errors import (DataFormatError, OrderingError, OutOfSeasonError,
                               ScheduleMismatchError, tagged)
from paddymoist.evapo import Et0Model, SiteLocation, hargreaves_series, predict_et0_series
from paddymoist.experiment import (_SCHEMA, ExperimentConfig, PeriodSpec, _keys_of,
                                   build_forcing, default_config, export_plot_data,
                                   format_config, format_metrics_csv, format_report_text,
                                   load_period, parse_config, run_experiment,
                                   weather_params_for, write_report_files,
                                   write_synth_periods)
from paddymoist.hydro import Climate, FieldParams, WeatherGenParams, generate_truth
from paddymoist.ingest import read_daily_csv
from paddymoist.moisture import SimMode


class TestConfigDocument:

    def test_default_round_trips(self):
        cfg = default_config()
        assert parse_config(format_config(cfg)) == cfg

    def test_every_key_echoed(self):
        text = format_config(default_config())
        for key in ("site.latitude_deg", "normalizer.theta_vwc", "kc.values",
                    "train.et0.seed", "train.moisture.learning_rate", "moisture.lag",
                    "moisture.sim_mode", "period1.planting", "period2.seed",
                    "weather.wet_day_prob", "field.percolation_mm_day"):
            assert any(line.startswith(key + " =") for line in text.splitlines()), key

    def test_no_key_set_is_the_default_run(self):
        assert parse_config("") == default_config() == ExperimentConfig()
        # the run departs from two library defaults, which keep their values
        assert (KcSchedule().len_late, TrainConfig(seed=0).learning_rate) == (30, 0.2)
        assert (ExperimentConfig().kc, ExperimentConfig().et0_train) == (
            KcSchedule(len_late=28), TrainConfig(seed=42, learning_rate=0.5))

    @pytest.mark.parametrize("text, message", [
        # a value no kind parses is reported before any part's own check
        ("weather.wet_day_prob = x\ntrain.et0.seed = y\n",
         "train.et0.seed: invalid literal for int() with base 10: 'y'"),
        ("normalizer.kc = 2 1\nfield.root_depth_m = x\n",
         "field.root_depth_m: could not convert string to float: 'x'"),
        ("field.root_depth_m = 0\nnormalizer.kc = 2 1\n",
         "normalizer.kc: normalizer needs hi > lo, got [2.0, 1.0]"),
        ("moisture.lag = 500\nperiod1.days = 0\n",
         "period1.days: period needs n_days >= 1, got 0"),
    ], ids=["two-values", "value-after-part", "two-parts", "part-before-cross-check"])
    def test_of_two_bad_keys_the_first_in_the_table_is_reported(self, text, message):
        with pytest.raises(DataFormatError) as exc:
            parse_config(text)
        assert str(exc.value) == message

    def test_override_replaces_a_bad_document_value_unparsed(self):
        cfg = parse_config("train.et0.seed = -1\nkc.values = 1 1.1 0.8\n",
                           {"train.et0.seed": "3", "kc.values": "1.05 1.2 0.9"})
        assert cfg == replace(default_config(), et0_train=replace(
            default_config().et0_train, seed=3))

    def test_unknown_key_rejected(self):
        with pytest.raises(DataFormatError):
            parse_config("no.such.key = 1\n")

    def test_repeated_key_rejected_naming_its_line(self):
        with pytest.raises(DataFormatError) as exc:
            parse_config("train.et0.seed = 1\n# again\ntrain.et0.seed = 2\n")
        assert str(exc.value) == ("config line 3: key 'train.et0.seed' is already set "
                                  "on line 1")

    def test_override_is_set_over_the_document(self):
        text = "train.et0.seed = 1\nmoisture.lag = 2\n"
        cfg = parse_config(text, {"train.et0.seed": "3"})
        assert (cfg.et0_train.seed, cfg.lag) == (3, 2)
        assert cfg == parse_config("train.et0.seed = 3\nmoisture.lag = 2\n")
        with pytest.raises(DataFormatError, match=r"^train\.et0\.seed: "):
            parse_config(text, {"train.et0.seed": "-1"})
        with pytest.raises(DataFormatError, match="unknown config key 'no.such.key'"):
            parse_config(text, {"no.such.key": "1"})

    def test_overrides_and_comments(self):
        cfg = parse_config("# comment line\n"
                           "moisture.lag = 2   # trailing comment\n"
                           "moisture.sim_mode = teacher_forced\n")
        assert cfg.lag == 2
        assert cfg.sim_mode is SimMode.TEACHER_FORCED

    def test_malformed_line(self):
        with pytest.raises(DataFormatError):
            parse_config("just some words\n")

    def test_bad_value_wrapped(self):
        with pytest.raises(DataFormatError):
            parse_config("moisture.lag = banana\n")

    def test_bad_sim_mode(self):
        with pytest.raises(DataFormatError):
            parse_config("moisture.sim_mode = sideways\n")

    @pytest.mark.parametrize("text", ["moisture.lag = 0\n", "moisture.lag = -1\n",
                                      "moisture.lag = 118\n", "moisture.lag = 200\n",
                                      "moisture.lag = 5\nperiod1.days = 5\n"])
    def test_lag_without_a_training_day_rejected(self, text):
        with pytest.raises(DataFormatError, match=r"^moisture.lag: need 1 <= lag < period1\.days"):
            parse_config(text)

    @pytest.mark.parametrize("text", ["moisture.theta_init = 5\n",
                                      "moisture.theta_init = -0.01\n",
                                      "normalizer.theta_vwc = 0.5 0.6\n"])
    def test_theta_init_outside_the_theta_normalizer_rejected(self, text):
        with pytest.raises(DataFormatError, match=r"^moisture\.theta_init, "
                                                  r"normalizer\.theta_vwc: need theta_init in"):
            parse_config(text)

    @pytest.mark.parametrize("change, message", [
        ({"lag": 118}, "moisture.lag: need 1 <= lag < period1.days (118), got 118"),
        ({"theta_init_sim": 1.5}, "moisture.theta_init, normalizer.theta_vwc: need "
                                  "theta_init in [0.0, 1.0], got 1.5"),
        ({"theta_norm": Normalizer(0.5, 0.6)}, "moisture.theta_init, normalizer.theta_vwc: "
                                               "need theta_init in [0.5, 0.6], got 0.45"),
    ], ids=["lag", "theta-init", "theta-normalizer"])
    def test_replace_runs_the_cross_key_checks(self, change, message):
        # a config built in code is checked as a parsed one is, so the
        # experiment never clamps theta_init or trains on no day
        with pytest.raises(DataFormatError) as exc:
            replace(default_config(), **change)
        assert str(exc.value) == message

    def test_theta_init_on_a_theta_normalizer_bound_accepted(self):
        assert parse_config("normalizer.theta_vwc = 0.45 0.9\n").theta_init_sim == 0.45

    def test_lag_one_below_period1_days_accepted(self):
        assert parse_config("moisture.lag = 117\n").lag == 117

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key, text", [("field.percolation_mm_day", "{}"),
                                           ("normalizer.temp_c", "0 {}")])
    def test_non_finite_number_rejected(self, key, text, value):
        with pytest.raises(DataFormatError, match=f"^{key}: must be finite"):
            parse_config(f"{key} = {text.format(value)}\n")

    @pytest.mark.parametrize("key, text, bad", [
        ("train.et0.epochs", "1_0", "1_0"), ("field.percolation_mm_day", "٣", "٣"),
        ("normalizer.temp_c", "0 5_0", "5_0"), ("period1.seed", "\u0661", "\u0661"),
    ])
    def test_number_float_reads_but_the_schema_does_not(self, key, text, bad):
        """float() and int() read a '_' between digits and other scripts'
        digits; a config number is plain ASCII, as format_config writes it."""
        with pytest.raises(DataFormatError) as exc:
            parse_config(f"{key} = {text}\n")
        assert str(exc.value) == f"{key}: not a plain ASCII number: {bad!r}"

    def test_data_path_the_echo_cannot_carry_rejected(self):
        cfg = default_config()
        for path in ("data/field#2.csv", "data/a\nb.csv", "data/a\rb.csv",
                     " data/field.csv", "data/field.csv "):
            with pytest.raises(DataFormatError):
                replace(cfg.period1, data_path=path)
        cfg = replace(cfg, period1=replace(cfg.period1, data_path="data/field 2.csv"))
        assert parse_config(format_config(cfg)) == cfg

    @pytest.mark.parametrize("text, message", [
        ("field.theta_res = 0.5", "field.theta_res, field.theta_init, field.theta_sat: "
                                  "need theta_res < theta_init <= theta_sat, got 0.5/0.45/0.55"),
        ("field.runoff_threshold = 0.1", "field.runoff_threshold, field.theta_res, "
                                         "field.theta_sat: runoff_threshold must lie in"),
        ("field.root_depth_m = 0", "field.root_depth_m: root_depth must be > 0"),
        ("normalizer.kc = 2 1", "normalizer.kc: normalizer needs hi > lo, got [2.0, 1.0]"),
        ("normalizer.temp_c = -1e308 1e308", "normalizer.temp_c: normalizer span hi - lo "
                                             "must be finite, got [-1e+308, 1e+308]"),
        ("train.moisture.epochs = 0", "train.moisture.epochs: epochs must be >= 1"),
        ("site.latitude_deg = 90", "site.latitude_deg: latitude must satisfy"),
        ("period2.source = ftp", "period2.source: period source must be synth or csv"),
        # an echoed value that spells another attribute names no extra key
        ("period2.source = seed", "period2.source: period source must be synth or csv, "
                                  "got 'seed'"),
        ("period1.source = planting", "period1.source: period source must be synth or csv"),
        ("period2.days = 0", "period2.days: period needs n_days >= 1, got 0"),
        ("period1.seed = -3", "period1.seed: period seed must be >= 0, got -3"),
        ("weather.wet_day_prob = 1.5",
         "weather.wet_day_prob: wet_day_prob must be in [0, 1], got 1.5"),
        ("weather.diurnal_range_c = -1",
         "weather.diurnal_range_c: diurnal_range_mean must be > 0, got -1.0"),
        ("weather.precip_mean_wet_mm = -2",
         "weather.precip_mean_wet_mm: precip_mean_wet must be >= 0, got -2.0"),
    ])
    def test_part_error_names_its_keys(self, text, message):
        with pytest.raises(DataFormatError) as exc:
            parse_config(text + "\n")
        assert str(exc.value).startswith(message)

    def test_part_error_naming_no_attribute_names_every_key_of_the_part(self):
        assert _keys_of("period1", "something is wrong") == (
            "period1.planting, period1.days, period1.source, period1.seed, period1.data")
        assert _keys_of("temp_norm", "hi and lo, then hi") == "normalizer.temp_c"

    def test_weather_error_naming_no_knob_names_every_weather_key(self):
        assert _keys_of("weather", "something is wrong") == (
            "weather.tavg_mean_c, weather.tavg_amplitude_c, weather.diurnal_range_c, "
            "weather.wet_day_prob, weather.precip_mean_wet_mm")

    def test_echoed_value_names_no_key(self):
        assert _keys_of("period1", "period data_path cannot hold '#', a line break or "
                                   "leading or trailing space, got 'seed #2.csv'") == (
            "period1.data")

    @pytest.mark.parametrize("key", ["period1.seed", "period2.seed"])
    def test_blank_period_seed_rejected(self, key):
        with pytest.raises(DataFormatError, match=rf"^{key}: "):
            parse_config(f"{key} =\n")

    def test_table_shaped_defaults(self):
        cfg = default_config()
        assert cfg.period1.planting.isoformat() == "2010-10-14"
        assert cfg.period2.planting.isoformat() == "2011-08-20"
        assert cfg.period1.n_days == cfg.period2.n_days == 118
        assert cfg.kc.total_days == 118
        assert cfg.et0_train.epochs == 1000


# Every key at a value unlike its default and unlike the other keys' values,
# and the object it means, written without the schema table.
_EVERY_KEY = """\
site.latitude_deg = 10.0
site.altitude_m = 12.5
normalizer.temp_c = -5.0 45.0
normalizer.et0_mm = 0.5 12.0
normalizer.precip_mm = 1.0 150.0
normalizer.kc = 0.25 1.75
normalizer.theta_vwc = 0.05 0.95
kc.stage_lengths = 10 20 30 40
kc.values = 1.1 1.3 0.8
train.et0.epochs = 11
train.et0.learning_rate = 0.25
train.et0.seed = 12
train.et0.init_half_width = 0.75
train.moisture.epochs = 13
train.moisture.learning_rate = 0.125
train.moisture.seed = 14
train.moisture.init_half_width = 0.375
moisture.lag = 3
moisture.sim_mode = teacher_forced
moisture.theta_init = 0.35
period1.planting = 2001-02-03
period1.days = 100
period1.source = csv
period1.seed = 15
period1.data = a.csv
period2.planting = 2004-05-06
period2.days = 101
period2.source = synth
period2.seed = 16
period2.data = b.csv
weather.tavg_mean_c = 20.5
weather.tavg_amplitude_c = 1.5
weather.diurnal_range_c = 8.5
weather.wet_day_prob = 0.45
weather.precip_mean_wet_mm = 12.75
field.root_depth_m = 0.3
field.theta_sat = 0.6
field.theta_res = 0.1
field.theta_init = 0.4
field.runoff_threshold = 0.5
field.percolation_mm_day = 2.5
"""
_EVERY_KEY_CONFIG = ExperimentConfig(
    site=SiteLocation(latitude=math.radians(10.0), altitude_m=12.5),
    temp_norm=Normalizer(-5.0, 45.0), et0_norm=Normalizer(0.5, 12.0),
    precip_norm=Normalizer(1.0, 150.0), kc_norm=Normalizer(0.25, 1.75),
    theta_norm=Normalizer(0.05, 0.95),
    kc=KcSchedule(len_ini=10, len_dev=20, len_mid=30, len_late=40,
                  kc_ini=1.1, kc_mid=1.3, kc_end=0.8),
    et0_train=TrainConfig(seed=12, epochs=11, learning_rate=0.25, init_half_width=0.75),
    moisture_train=TrainConfig(seed=14, epochs=13, learning_rate=0.125,
                               init_half_width=0.375),
    lag=3, sim_mode=SimMode.TEACHER_FORCED, theta_init_sim=0.35,
    period1=PeriodSpec(planting=date(2001, 2, 3), n_days=100, source="csv", seed=15,
                       data_path="a.csv"),
    period2=PeriodSpec(planting=date(2004, 5, 6), n_days=101, source="synth", seed=16,
                       data_path="b.csv"),
    weather=Climate(tavg_mean=20.5, tavg_amplitude=1.5, diurnal_range_mean=8.5,
                    wet_day_prob=0.45, precip_mean_wet=12.75),
    field=FieldParams(root_depth=0.3, theta_sat=0.6, theta_res=0.1, theta_init=0.4,
                      runoff_threshold=0.5, perc_rate=2.5),
)


def _leaves(obj, prefix=""):
    """Every non-dataclass attribute under ``obj``, by dotted path."""
    if not is_dataclass(obj):
        return {prefix: obj}
    leaves = {}
    for f in fields(obj):
        leaves.update(_leaves(getattr(obj, f.name), prefix + "." * bool(prefix) + f.name))
    return leaves


def _moved(word: str, kind) -> str:
    """A valid config word other than ``word``, of the same kind."""
    parse, fmt = kind
    value = parse(word)
    if isinstance(value, str):
        return {"synth": "csv", "": "elsewhere.csv"}[value]
    if isinstance(value, SimMode):
        return fmt(next(m for m in SimMode if m is not value))
    return fmt(value + {int: 1, float: 0.001, date: timedelta(days=1)}[type(value)])


class TestConfigSchema:

    def test_every_field_set_by_exactly_one_key(self):
        keys = [key for key, _, _ in _SCHEMA]
        assert len(set(keys)) == len(keys)
        attrs = Counter(name for _, names, _ in _SCHEMA for name in names.split())
        assert set(attrs.values()) == {1}
        leaves = set(_leaves(default_config()))
        assert set(attrs) <= leaves
        assert leaves - set(attrs) == {"field.irrigation"}

    @pytest.mark.parametrize("cfg, which, expected", [
        (default_config(), "period1",
         WeatherGenParams(seed=101, n_days=118, start_date=date(2010, 10, 14), tavg_mean=24.0,
                          tavg_amplitude=0.5, diurnal_range_mean=10.0, wet_day_prob=0.55,
                          precip_mean_wet=15.0)),
        (default_config(), "period2",
         WeatherGenParams(seed=202, n_days=118, start_date=date(2011, 8, 20), tavg_mean=24.0,
                          tavg_amplitude=0.5, diurnal_range_mean=10.0, wet_day_prob=0.55,
                          precip_mean_wet=15.0)),
        (_EVERY_KEY_CONFIG, "period2",
         WeatherGenParams(seed=16, n_days=101, start_date=date(2004, 5, 6), tavg_mean=20.5,
                          tavg_amplitude=1.5, diurnal_range_mean=8.5, wet_day_prob=0.45,
                          precip_mean_wet=12.75)),
    ], ids=["default-period1", "default-period2", "every-key-period2"])
    def test_weather_params_for_a_period(self, cfg, which, expected):
        assert weather_params_for(cfg, getattr(cfg, which)) == expected

    def test_every_key_sets_the_field_it_names(self):
        # the table checked against a hand-built config: this catches two
        # rows whose attributes are swapped, which no check on the table can
        assert parse_config(_EVERY_KEY) == _EVERY_KEY_CONFIG
        assert format_config(_EVERY_KEY_CONFIG) == _EVERY_KEY

    def test_each_word_sets_its_own_field_and_echo_line(self):
        base = default_config()
        base_leaves = _leaves(base)
        base_lines = format_config(base).splitlines()
        for line_no, (key, names, kind) in enumerate(_SCHEMA):
            echoed_key, default = base_lines[line_no].split(" = ", 1)
            assert echoed_key == key
            words = default.split() or [""]
            for i, name in enumerate(names.split()):
                moved = words[:i] + [_moved(words[i], kind)] + words[i + 1:]
                cfg = parse_config(f"{key} = {' '.join(moved)}\n")
                leaves = _leaves(cfg)
                assert {n for n in leaves if leaves[n] != base_leaves[n]} == {name}, key
                assert attrgetter(name)(cfg) != attrgetter(name)(base), key
                lines = format_config(cfg).splitlines()
                assert [n for n, (a, b) in enumerate(zip(lines, base_lines))
                        if a != b] == [line_no], key


class TestRunExperiment:

    def test_report_has_four_cells(self, default_report):
        assert set(default_report.cells) == {"et0_train", "et0_val",
                                             "theta_train", "theta_val"}
        for cell in default_report.cells.values():
            assert cell.n == 118
            assert 0.0 <= cell.r_squared <= 1.0
            assert cell.rmse >= 0.0

    def test_default_analog_thresholds(self, default_report):
        assert default_report.cells["et0_train"].r_squared >= 0.95
        assert default_report.cells["et0_val"].r_squared >= 0.93
        assert default_report.cells["theta_train"].r_squared >= 0.75
        assert default_report.cells["theta_val"].r_squared >= 0.70

    def test_deterministic_reports(self):
        cfg = quick_config(et0_epochs=60, moisture_epochs=60)
        from paddymoist.experiment import format_metrics_csv, format_report_text
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert format_report_text(r1) == format_report_text(r2)
        assert format_metrics_csv(r1) == format_metrics_csv(r2)

    def test_csv_periods_flow_through_same_path(self, tmp_path):
        cfg = quick_config(et0_epochs=40, moisture_epochs=40)
        write_synth_periods(cfg, tmp_path)
        text = format_config(cfg)
        text = text.replace("period1.source = synth", "period1.source = csv")
        text = text.replace("period2.source = synth", "period2.source = csv")
        text = text.replace("period1.data = ", f"period1.data = {tmp_path}/period1_daily.csv")
        text = text.replace("period2.data = ", f"period2.data = {tmp_path}/period2_daily.csv")
        csv_cfg = parse_config(text)
        report = run_experiment(csv_cfg)
        # identical inputs by construction, so identical metric cells
        synth_report = run_experiment(cfg)
        for name in report.cells:
            assert report.cells[name].r_squared == pytest.approx(
                synth_report.cells[name].r_squared, abs=1e-12)

    @pytest.mark.parametrize("days", [50, 117, 119])
    def test_csv_period_length_must_match_the_config(self, tmp_path, days):
        cfg = quick_config()
        write_synth_periods(cfg, tmp_path)
        path = tmp_path / "period1_daily.csv"
        spec = replace(cfg.period1, source="csv", data_path=str(path), n_days=days)
        with pytest.raises(DataFormatError) as exc:
            run_experiment(replace(cfg, period1=spec))
        assert str(exc.value) == (f"[stage: load period1] period1: {path} holds 118 days, "
                                  f"but period1.days is {days}")

    def test_csv_period_requires_theta(self, tmp_path):
        cfg = quick_config()
        from paddymoist.hydro import generate_weather
        from paddymoist.experiment import weather_params_for
        from paddymoist.ingest import write_daily_csv
        weather = generate_weather(weather_params_for(cfg, cfg.period1))
        path = tmp_path / "no_theta.csv"
        write_daily_csv(path, weather)  # no theta column
        spec = replace(cfg.period1, source="csv", data_path=str(path))
        with pytest.raises(DataFormatError) as exc:
            load_period(cfg, spec, "period1")
        assert str(exc.value) == (f"period1: {path}: no theta_vwc on 2010-10-14; "
                                  f"a config csv period needs it on every day")

    def _edited_period(self, tmp_path, edit):
        cfg = quick_config()
        write_synth_periods(cfg, tmp_path)
        path = tmp_path / "period1_daily.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return cfg, replace(cfg.period1, source="csv", data_path=str(path))

    def test_csv_period_with_missing_days_rejected(self, tmp_path):
        # lines[i] is day i - 1 from 2010-10-14: drop 2010-10-25 and 2010-10-26
        cfg, spec = self._edited_period(tmp_path, lambda lines: lines.__delitem__(slice(12, 14)))
        with pytest.raises(DataFormatError, match="no row for 2010-10-25"):
            load_period(cfg, spec, "period1")
        with pytest.raises(DataFormatError, match=r"\[stage: load period1\] period1: .*"
                                                  r"no row for 2010-10-25"):
            run_experiment(replace(cfg, period1=spec))

    def test_csv_period_names_its_first_day_without_theta(self, tmp_path):
        def blank(lines):  # lines[i] is day i - 1 from 2010-10-14
            for i in (5, 9):
                lines[i] = lines[i].rsplit(",", 1)[0] + ","
        cfg, spec = self._edited_period(tmp_path, blank)
        with pytest.raises(DataFormatError) as exc:
            run_experiment(replace(cfg, period1=spec))
        assert str(exc.value) == (f"[stage: load period1] period1: {spec.data_path}: no "
                                  f"theta_vwc on 2010-10-18; a config csv period needs it "
                                  f"on every day")

    def test_csv_period_with_swapped_days_rejected(self, tmp_path):
        def swap(lines):
            lines[12], lines[13] = lines[13], lines[12]
        cfg, spec = self._edited_period(tmp_path, swap)
        with pytest.raises(OrderingError, match="line 14: .*2010-10-25 follows 2010-10-26"):
            load_period(cfg, spec, "period1")

    _NARROW_THETA = "normalizer.theta_vwc = 0.5 0.6\nmoisture.theta_init = 0.55\n"

    def _first_theta_outside(self, lo, hi):
        p = load_period(default_config(), default_config().period1, "period1")
        i = next(i for i, v in enumerate(p.theta_obs) if not lo <= v <= hi)
        return p.theta_obs[i], p.days[i].date.isoformat()

    def test_synthetic_theta_outside_the_normalizer_rejected(self):
        cfg = parse_config(self._NARROW_THETA)
        value, day = self._first_theta_outside(0.5, 0.6)
        with pytest.raises(DataFormatError) as exc:
            load_period(cfg, cfg.period1, "period1")
        assert str(exc.value) == (f"period1: observed theta_vwc {value!r} on {day} is "
                                  f"outside normalizer.theta_vwc [0.5, 0.6]")
        with pytest.raises(DataFormatError, match=r"^\[stage: load period1\] period1: "
                                                  r"observed theta_vwc"):
            run_experiment(cfg)

    def test_csv_theta_outside_the_normalizer_rejected(self, tmp_path):
        cfg = parse_config(self._NARROW_THETA)
        write_synth_periods(default_config(), tmp_path)
        path = tmp_path / "period1_daily.csv"
        spec = replace(cfg.period1, source="csv", data_path=str(path))
        value, day = self._first_theta_outside(0.5, 0.6)
        with pytest.raises(DataFormatError) as exc:
            load_period(cfg, spec, "period1")
        assert str(exc.value) == (f"period1: {path}: observed theta_vwc {value!r} on {day} "
                                  f"is outside normalizer.theta_vwc [0.5, 0.6]")

    def test_teacher_forced_validation_mode(self):
        cfg = quick_config(et0_epochs=40, moisture_epochs=40)
        cfg = replace(cfg, sim_mode=SimMode.TEACHER_FORCED)
        report = run_experiment(cfg)
        assert report.sim_mode is SimMode.TEACHER_FORCED
        assert len(report.period2.theta_est) == 118

    def test_stage_failures_are_tagged(self):
        from paddymoist.errors import ScheduleMismatchError
        cfg = parse_config("kc.stage_lengths = 20 30 40 30\n")  # 120 vs 118 days
        with pytest.raises(ScheduleMismatchError) as exc:
            run_experiment(cfg)
        assert "[stage: " in str(exc.value)

    def test_stage_keeps_os_error_intact(self, tmp_path):
        missing = tmp_path / "missing.csv"
        cfg = replace(quick_config(), period1=replace(quick_config().period1, source="csv",
                                                      data_path=str(missing)))
        with pytest.raises(FileNotFoundError) as exc:
            run_experiment(cfg)
        assert exc.value.errno == errno.ENOENT
        assert exc.value.filename == str(missing)
        assert exc.value.stage_tag == "[stage: load period1]"

    def test_tags_nest_outer_first(self):
        with pytest.raises(DataFormatError, match=r"^\[stage: s\] f\.csv: line 2: bad$"):
            with tagged("[stage: s]"), tagged("f.csv:"):
                raise DataFormatError("line 2: bad")

    def test_default_report_is_pinned(self, default_report):
        # the bit-level trajectory of the default experiment: a change that
        # moves any of these has to say so
        cells = {name: c.r_squared for name, c in default_report.cells.items()}
        assert cells == {"et0_train": 0.9872494396757201, "et0_val": 0.9638270366423608,
                         "theta_train": 0.9854966253204755,
                         "theta_val": 0.9618766947332293}
        digest = hashlib.sha256(format_report_text(default_report).encode()).hexdigest()
        assert digest == "80fe823d95b2cec74908acef70053d0eb0f667ac44ba91cdede7522862a38555"

    def test_default_metrics_csv_is_pinned(self, default_report):
        # every cell's repr: its sums are correctly rounded (math.fsum), so
        # these bits depend on neither the CPU nor the Python version
        digest = hashlib.sha256(format_metrics_csv(default_report).encode()).hexdigest()
        assert digest == "b3c84b24364634f427cd7db3bea6a35076b95c2232ecec47f188a0a2c1609b0d"

    def test_python_fallback_gives_the_same_report(self, default_report, monkeypatch):
        # every train and series loop on the Python rendering, as when no C
        # compiler builds them: the whole default report, byte for byte
        monkeypatch.setattr(ann, "_kernel", functools.cache(ann._python_kernel))
        report = run_experiment(default_config())
        assert format_report_text(report) == format_report_text(default_report)
        assert format_metrics_csv(report) == format_metrics_csv(default_report)


class TestCropCalendar:
    """The crop calendar is checked where it is built and where a period is loaded."""

    @pytest.mark.parametrize("text, message", [
        ("kc.values = -1 1 1", "kc.values: kc_ini must be > 0, got -1.0"),
        ("kc.values = 1 nan 1", "kc.values: must be finite, got 'nan'"),
        ("kc.stage_lengths = 0 50 40 28", "kc.stage_lengths: stage length len_ini must be "
                                          ">= 1, got 0"),
    ])
    def test_bad_calendar_fails_at_parse(self, text, message):
        with pytest.raises(DataFormatError) as exc:
            parse_config(text + "\n")
        assert str(exc.value) == message

    def test_csv_period_must_fit_the_calendar(self, tmp_path):
        cfg = quick_config()
        write_synth_periods(cfg, tmp_path)
        path = tmp_path / "period1_daily.csv"
        spec = replace(cfg.period1, source="csv", data_path=str(path))
        cfg = replace(cfg, period1=spec, kc=replace(cfg.kc, len_late=30))  # 120 days
        with pytest.raises(ScheduleMismatchError) as exc:
            run_experiment(cfg)
        assert isinstance(exc.value, DataFormatError)
        assert str(exc.value) == (f"[stage: load period1] period1: {path}: kc.stage_lengths: "
                                  f"20+30+40+30 = 120 days, but the season has 118")

    def test_synthetic_period_must_fit_the_calendar(self):
        cfg = replace(quick_config(), kc=KcSchedule(20, 30, 40, 30))
        with pytest.raises(ScheduleMismatchError, match=r"^\[stage: load period1\] "):
            run_experiment(cfg)

    def test_synthetic_misfit_names_its_period_before_drawing_weather(self, monkeypatch):
        def no_weather(*args, **kwargs):
            raise AssertionError("a season that misfits the calendar must draw no weather")
        monkeypatch.setattr("paddymoist.experiment.generate_weather", no_weather)
        cfg = replace(quick_config(), kc=KcSchedule(20, 30, 40, 30))
        with pytest.raises(ScheduleMismatchError) as exc:
            load_period(cfg, cfg.period2, "period2")
        assert str(exc.value) == ("period2: kc.stage_lengths: 20+30+40+30 = 120 days, "
                                  "but the season has 118")


class TestSurrogatePasses:

    def test_one_surrogate_pass_per_period(self, monkeypatch):
        import paddymoist.experiment as experiment
        calls = []

        def counted(model, days):
            calls.append(len(days))
            return predict_et0_series(model, days)
        monkeypatch.setattr(experiment, "predict_et0_series", counted)
        report = run_experiment(quick_config(et0_epochs=5, moisture_epochs=5))
        assert calls == [118, 118]
        # the reported predictions are the forcing's ET0, the same floats
        for period in (report.period1, report.period2):
            assert period.et0_pred == predict_et0_series(report.et0_model, period.days)

    def test_forcing_failure_is_tagged_predict_et0(self, monkeypatch):
        import paddymoist.experiment as experiment

        def broken(cfg, model, period):
            raise ValueError("forcing refused")
        monkeypatch.setattr(experiment, "build_forcing", broken)
        with pytest.raises(ValueError) as exc:
            run_experiment(quick_config(et0_epochs=2, moisture_epochs=2))
        assert str(exc.value) == "[stage: predict et0] forcing refused"


class TestHargreavesPasses:

    def test_a_synthetic_period_keeps_its_ledger_and_a_csv_period_has_none(self, tmp_path):
        cfg = quick_config()
        period = load_period(cfg, cfg.period1, "period1")
        theta, ledger = generate_truth(period.days, cfg.site, cfg.kc, cfg.field)
        assert (period.theta_obs, period.ledger) == (theta, ledger)
        write_synth_periods(cfg, tmp_path)
        spec = replace(cfg.period1, source="csv", data_path=str(tmp_path / "period1_daily.csv"))
        assert load_period(cfg, spec, "period1").ledger is None

    @pytest.mark.parametrize("csv_periods, passes", [((), []), (("period2",), [118])])
    def test_only_a_csv_period_computes_its_report_series(self, tmp_path, monkeypatch,
                                                           csv_periods, passes):
        import paddymoist.experiment as experiment
        calls = []

        def counted(days, site):
            calls.append(len(days))
            return hargreaves_series(days, site)
        cfg = quick_config(et0_epochs=2, moisture_epochs=2)
        write_synth_periods(cfg, tmp_path)
        for name in csv_periods:
            spec = replace(getattr(cfg, name), source="csv",
                           data_path=str(tmp_path / f"{name}_daily.csv"))
            cfg = replace(cfg, **{name: spec})
        monkeypatch.setattr(experiment, "hargreaves_series", counted)
        report = run_experiment(cfg)
        assert calls == passes
        for period in (report.period1, report.period2):
            assert period.hargreaves == hargreaves_series(period.days, cfg.site)

    @pytest.mark.parametrize("csv_periods, c_loops, passes", [
        ((), True, 0), (("period1",), True, 1),
        # without the C season loops, each synthetic period's truth loop makes one
        ((), False, 2), (("period1",), False, 2),
    ])
    def test_one_series_serves_the_targets_and_the_report(self, tmp_path, monkeypatch,
                                                          csv_periods, c_loops, passes):
        """Every pass in the run, the truth loop's and the trainer's too, is
        counted: period 1's one series trains the surrogate and scores it."""
        import paddymoist.evapo as evapo
        import paddymoist.experiment as experiment
        import paddymoist.hydro as hydro
        if c_loops and hydro._c_loops() is None:
            pytest.skip("the C season loops did not build")
        if not c_loops:
            monkeypatch.setattr(hydro, "_c_loops", lambda: None)
        cfg = quick_config(et0_epochs=2, moisture_epochs=2)
        write_synth_periods(cfg, tmp_path)
        for name in csv_periods:
            cfg = replace(cfg, **{name: replace(getattr(cfg, name), source="csv",
                                                data_path=str(tmp_path / f"{name}_daily.csv"))})
        calls = []

        def counted(days, site):
            calls.append(len(days))
            return hargreaves_series(days, site)
        for module in (evapo, experiment, hydro):
            monkeypatch.setattr(module, "hargreaves_series", counted)
        report = run_experiment(cfg)
        assert len(calls) == passes
        model, losses = evapo.train_et0_model(report.period1.days, cfg.site, cfg.et0_train,
                                              temp_norm=cfg.temp_norm, et0_norm=cfg.et0_norm)
        assert report.period1.hargreaves == hargreaves_series(report.period1.days, cfg.site)
        np.testing.assert_array_equal(report.et0_model.net.w_hidden, model.net.w_hidden)
        np.testing.assert_array_equal(report.et0_model.net.w_output, model.net.w_output)
        assert (report.et0_model.net.gain, report.et0_final_loss) == (model.net.gain, losses[-1])


class TestBuildForcing:

    def test_calendar_kc_and_surrogate_et0_per_day(self):
        cfg = quick_config()
        period = load_period(cfg, cfg.period1, "period1")
        model = Et0Model(Mlp.random(MlpTopology(3, 8, 1), np.random.default_rng(5)))
        forcing = build_forcing(cfg, model, period)
        assert [f.kc for f in forcing] == [kc_at(cfg.kc, d) for d in range(118)]
        assert [f.et0 for f in forcing] == predict_et0_series(model, period.days)
        assert [f.precip for f in forcing] == [d.precip for d in period.days]

    def test_period_past_the_calendar_is_out_of_season(self):
        cfg = quick_config()
        period = load_period(cfg, cfg.period1, "period1")
        model = Et0Model(Mlp.zeros(MlpTopology(3, 8, 1)))
        assert len(build_forcing(cfg, model, replace(period, days=period.days[:100]))) == 100
        longer = replace(period, days=period.days + period.days[:1])
        with pytest.raises(OutOfSeasonError, match=r"^day 118 is outside the 118-day season$"):
            build_forcing(cfg, model, longer)


class TestReportFiles:

    def test_written_files_are_deterministic(self, tmp_path, default_report):
        a, b = tmp_path / "a", tmp_path / "b"
        write_report_files(default_report, a)
        write_report_files(default_report, b)
        for name in ("report.txt", "metrics.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_report_text_echoes_config(self, tmp_path, default_report):
        write_report_files(default_report, tmp_path)
        text = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert "train.et0.seed = 42" in text
        assert "et0_train" in text and "theta_val" in text

    def test_metrics_csv_shape(self, tmp_path, default_report):
        write_report_files(default_report, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "cell,n,r_squared,nash_sutcliffe,rmse"
        assert len(lines) == 5


class TestPlotData:

    def test_files_and_row_counts(self, tmp_path, default_report):
        files = export_plot_data(default_report, tmp_path)
        names = {p.name for p in files}
        assert names == {"monthly_temperature.csv", "monthly_precipitation.csv",
                         "scatter_et0_period1.csv", "scatter_et0_period2.csv",
                         "scatter_theta_period1.csv", "scatter_theta_period2.csv"}
        for scatter in ("scatter_et0_period1.csv", "scatter_theta_period2.csv"):
            lines = (tmp_path / scatter).read_text(encoding="utf-8").splitlines()
            assert len(lines) == 1 + 118  # header plus one row per valid day

    def test_monthly_rows_span_four_or_five_months(self, tmp_path, default_report):
        export_plot_data(default_report, tmp_path)
        lines = (tmp_path / "monthly_temperature.csv").read_text(encoding="utf-8").splitlines()
        per_period = {}
        for line in lines[1:]:
            period = line.split(",")[0]
            per_period[period] = per_period.get(period, 0) + 1
        assert set(per_period) == {"period1", "period2"}
        for count in per_period.values():
            assert count in (4, 5)

    def test_default_plot_files_are_pinned(self, tmp_path, default_report):
        # the bytes of every plot file of the default report: a change that
        # moves any of them has to say so
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in export_plot_data(default_report, tmp_path)}
        assert digests == {
            "monthly_precipitation.csv":
                "23d56c9e1c204ecb70126995e1127fbd18452dd476188801b0b7bbd93c947688",
            "monthly_temperature.csv":
                "201d3d33344a9ec3e8828074d9dcb90a20e55b11459f9bbf4aebdbbd216d56ad",
            "scatter_et0_period1.csv":
                "0b81e6d03fb83466ff647ff0164c929d13cf0ca81e27317e5a75bb467d58bc32",
            "scatter_et0_period2.csv":
                "ba2f215b4328e9fab9680db71905c56ecf45a171a7256c9e1680f824558328f2",
            "scatter_theta_period1.csv":
                "588c03be7b31b3c76cde37cafc4034bfd18a42be6a0575549a2470f5361278ac",
            "scatter_theta_period2.csv":
                "01006140e16fe733aafd634d2aed2123aaa89030072a16c92b4f7bb37f066f97",
        }

    def test_month_keys_are_iso_months_in_date_order(self, tmp_path, default_report):
        # a season across the year 1000: "%Y" would write "999" and sort it last
        start = date(999, 12, 30)
        days = [d._replace(date=start + timedelta(days=i))
                for i, d in enumerate(default_report.period1.days[:4])]
        report = replace(default_report,
                         period1=replace(default_report.period1, days=days,
                                         hargreaves=[], et0_pred=[], theta_obs=[],
                                         theta_est=[]))
        export_plot_data(report, tmp_path)
        lines = (tmp_path / "monthly_temperature.csv").read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[:2] for line in lines[1:3]] == [["period1", "0999-12"],
                                                                 ["period1", "1000-01"]]

    def test_reexport_byte_identical(self, tmp_path, default_report):
        a, b = tmp_path / "a", tmp_path / "b"
        export_plot_data(default_report, a)
        export_plot_data(default_report, b)
        for p in a.iterdir():
            assert p.read_bytes() == (b / p.name).read_bytes()


class TestSynthOutput:

    def test_synth_periods_written_with_theta(self, tmp_path):
        cfg = default_config()
        files = write_synth_periods(cfg, tmp_path)
        assert [p.name for p in files] == ["period1_daily.csv", "period2_daily.csv"]
        days, theta = read_daily_csv(files[0])
        assert len(days) == 118
        assert all(v is not None for v in theta)

    def test_synth_periods_ignore_the_configured_source(self, tmp_path):
        cfg = default_config()
        csv_cfg = replace(cfg, period1=replace(cfg.period1, source="csv"))
        a, b = write_synth_periods(cfg, tmp_path / "a"), write_synth_periods(csv_cfg, tmp_path / "b")
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]


class TestUncoveredRefusals:

    def test_two_word_key_given_one_word(self):
        with pytest.raises(DataFormatError) as exc:
            parse_config("normalizer.temp_c = 0\n")
        assert str(exc.value) == "normalizer.temp_c: expected 2 values, got '0'"

    def test_csv_period_whose_file_holds_only_a_header(self, tmp_path):
        path = tmp_path / "period1.csv"
        path.write_text("date,day_index,tmax_c,tavg_c,tmin_c,precip_mm,theta_vwc\n",
                        encoding="utf-8")
        cfg = default_config()
        spec = replace(cfg.period1, source="csv", data_path=str(path))
        with pytest.raises(DataFormatError) as exc:
            load_period(cfg, spec, "period1")
        assert str(exc.value) == f"period1: {path} holds no days"

    def test_csv_period_with_no_data_path(self):
        cfg = default_config()
        with pytest.raises(DataFormatError) as exc:
            load_period(cfg, replace(cfg.period1, source="csv"), "period1")
        assert str(exc.value) == "period1: source is csv but no data path was given"
