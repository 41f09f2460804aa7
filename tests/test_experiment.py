"""Config document, two-period experiment, report and plot-data files."""

import errno
import hashlib
import math
from collections import Counter
from dataclasses import fields, is_dataclass, replace
from datetime import date, timedelta
from operator import attrgetter

import pytest

from conftest import quick_config
from paddymoist.ann import Normalizer, TrainConfig
from paddymoist.crop import KcSchedule
from paddymoist.errors import DataFormatError, OrderingError
from paddymoist.evapo import SiteLocation
from paddymoist.experiment import (_SCHEMA, ExperimentConfig, PeriodSpec, _keys_of,
                                   default_config, export_plot_data, format_config,
                                   format_report_text, load_period, parse_config,
                                   run_experiment, write_report_files,
                                   write_synth_periods)
from paddymoist.hydro import FieldParams
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

    def test_unknown_key_rejected(self):
        with pytest.raises(DataFormatError):
            parse_config("no.such.key = 1\n")

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

    def test_lag_one_below_period1_days_accepted(self):
        assert parse_config("moisture.lag = 117\n").lag == 117

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key, text", [("field.percolation_mm_day", "{}"),
                                           ("normalizer.temp_c", "0 {}")])
    def test_non_finite_number_rejected(self, key, text, value):
        with pytest.raises(DataFormatError, match=f"^{key}: must be finite"):
            parse_config(f"{key} = {text.format(value)}\n")

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
        ("train.moisture.epochs = 0", "train.moisture.epochs: epochs must be >= 1"),
        ("site.latitude_deg = 90", "site.latitude_deg: latitude must satisfy"),
        ("period2.source = ftp", "period2.source: period source must be synth or csv"),
        # an echoed value that spells another attribute names no extra key
        ("period2.source = seed", "period2.source: period source must be synth or csv, "
                                  "got 'seed'"),
        ("period1.source = planting", "period1.source: period source must be synth or csv"),
        ("period2.days = 0", "period2.days: period needs n_days >= 1, got 0"),
    ])
    def test_part_error_names_its_keys(self, text, message):
        with pytest.raises(DataFormatError) as exc:
            parse_config(text + "\n")
        assert str(exc.value).startswith(message)

    def test_part_error_naming_no_attribute_names_every_key_of_the_part(self):
        assert _keys_of("period1", "something is wrong") == (
            "period1.planting, period1.days, period1.source, period1.seed, period1.data")
        assert _keys_of("temp_norm", "hi and lo, then hi") == "normalizer.temp_c"

    def test_echoed_value_names_no_key(self):
        assert _keys_of("period1", "period data_path cannot hold '#', a line break or "
                                   "leading or trailing space, got 'seed #2.csv'") == (
            "period1.data")

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
    weather_tavg_mean=20.5, weather_tavg_amplitude=1.5, weather_diurnal_range=8.5,
    weather_wet_day_prob=0.45, weather_precip_mean_wet=12.75,
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
        keys = [key for key, _, _, _ in _SCHEMA]
        assert len(set(keys)) == len(keys)
        attrs = Counter(name for _, _, names, _ in _SCHEMA for name in names.split())
        assert set(attrs.values()) == {1}
        leaves = set(_leaves(default_config()))
        assert set(attrs) <= leaves
        assert leaves - set(attrs) == {"field.irrigation"}

    def test_every_key_sets_the_field_it_names(self):
        # the table checked against a hand-built config: this catches two
        # rows whose attributes are swapped, which no check on the table can
        assert parse_config(_EVERY_KEY) == _EVERY_KEY_CONFIG
        assert format_config(_EVERY_KEY_CONFIG) == _EVERY_KEY

    def test_each_word_sets_its_own_field_and_echo_line(self):
        base = default_config()
        base_leaves = _leaves(base)
        base_lines = format_config(base).splitlines()
        for line_no, (key, default, names, kind) in enumerate(_SCHEMA):
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
        with pytest.raises(DataFormatError):
            load_period(cfg, spec, "period1")

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

    def test_csv_period_with_swapped_days_rejected(self, tmp_path):
        def swap(lines):
            lines[12], lines[13] = lines[13], lines[12]
        cfg, spec = self._edited_period(tmp_path, swap)
        with pytest.raises(OrderingError, match="line 14: .*2010-10-25 follows 2010-10-26"):
            load_period(cfg, spec, "period1")

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

    def test_default_report_is_pinned(self, default_report):
        # the bit-level trajectory of the default experiment: a change that
        # moves any of these has to say so
        cells = {name: c.r_squared for name, c in default_report.cells.items()}
        assert cells == {"et0_train": 0.9872494396757201, "et0_val": 0.9638270366423602,
                         "theta_train": 0.9854966253204749,
                         "theta_val": 0.9618766947332298}
        digest = hashlib.sha256(format_report_text(default_report).encode()).hexdigest()
        assert digest == "80fe823d95b2cec74908acef70053d0eb0f667ac44ba91cdede7522862a38555"


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
