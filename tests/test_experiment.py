"""Config document, two-period experiment, report and plot-data files."""

import errno
import hashlib
from dataclasses import replace

import pytest

from conftest import quick_config
from paddymoist.errors import DataFormatError, OrderingError
from paddymoist.experiment import (default_config, export_plot_data, format_config,
                                   format_report_text, load_period, parse_config,
                                   run_experiment, write_report_files,
                                   write_synth_periods)
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

    def test_table_shaped_defaults(self):
        cfg = default_config()
        assert cfg.period1.planting.isoformat() == "2010-10-14"
        assert cfg.period2.planting.isoformat() == "2011-08-20"
        assert cfg.period1.n_days == cfg.period2.n_days == 118
        assert cfg.kc.total_days == 118
        assert cfg.et0_train.epochs == 1000


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
