"""CLI verbs, wired through main(argv), and the exit-code contract."""

from datetime import date, datetime, timedelta
from pathlib import Path

import pytest

from conftest import quick_config
from paddymoist.cli import main
from paddymoist.experiment import format_config
from paddymoist.ingest import read_daily_csv
from paddymoist.persist import load_model


@pytest.fixture
def quick_config_path(tmp_path):
    path = tmp_path / "quick.cfg"
    path.write_text(format_config(quick_config(et0_epochs=40, moisture_epochs=40)),
                    encoding="utf-8")
    return str(path)


def _write_half_hourly(path, n_short=39):
    lines = ["timestamp_iso8601,temp_c,precip_mm,theta_vwc"]
    for day, count in ((date(2011, 1, 5), 48), (date(2011, 1, 6), n_short)):
        start = datetime(day.year, day.month, day.day)
        for i in range(count):
            ts = start + timedelta(minutes=30 * i)
            lines.append(f"{ts.isoformat()},{20 + 0.1 * i},0.5,0.40")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestVerbs:

    def test_synth(self, tmp_path, quick_config_path, capsys):
        rc = main(["synth", "--config", quick_config_path, "--out", str(tmp_path / "d")])
        assert rc == 0
        days, theta = read_daily_csv(tmp_path / "d" / "period1_daily.csv")
        assert len(days) == 118 and all(v is not None for v in theta)

    def test_synth_seed_overrides(self, tmp_path, quick_config_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--config", quick_config_path, "--out", str(a)]) == 0
        assert main(["synth", "--config", quick_config_path, "--out", str(b),
                     "--seed1", "777"]) == 0
        assert (a / "period1_daily.csv").read_bytes() != (b / "period1_daily.csv").read_bytes()
        assert (a / "period2_daily.csv").read_bytes() == (b / "period2_daily.csv").read_bytes()

    def test_ingest_reports_gaps(self, tmp_path, capsys):
        src = tmp_path / "hh.csv"
        _write_half_hourly(src)
        out = tmp_path / "daily.csv"
        rc = main(["ingest", "--input", str(src), "--output", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "excluded 1 day(s)" in captured
        assert "2011-01-06: 39 intervals" in captured
        days, theta = read_daily_csv(out)
        assert len(days) == 1
        assert theta[0] == pytest.approx(0.40)

    def test_train_simulate_evaluate_chain(self, tmp_path, quick_config_path, capsys):
        et0_path = tmp_path / "et0.model"
        moist_path = tmp_path / "moisture.model"
        est_path = tmp_path / "estimates.csv"

        assert main(["train-et0", "--config", quick_config_path,
                     "--out", str(et0_path)]) == 0
        art = load_model(et0_path)
        assert art.kind == "et0"
        assert art.provenance["epochs"] == "40"

        assert main(["train-moisture", "--config", quick_config_path,
                     "--et0-model", str(et0_path), "--out", str(moist_path)]) == 0
        assert load_model(moist_path).kind == "moisture"

        assert main(["simulate", "--config", quick_config_path,
                     "--model", str(moist_path), "--et0-model", str(et0_path),
                     "--out", str(est_path)]) == 0
        lines = est_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "date,estimated_theta_vwc,observed_theta_vwc"
        assert len(lines) == 1 + 118

        assert main(["evaluate", "--file", str(est_path),
                     "--obs-col", "observed_theta_vwc",
                     "--est-col", "estimated_theta_vwc"]) == 0
        out = capsys.readouterr().out
        assert "r_squared" in out and "rmse" in out

    def test_run_writes_report_and_plot_data(self, tmp_path, quick_config_path):
        out = tmp_path / "exp"
        assert main(["run", "--config", quick_config_path, "--out", str(out)]) == 0
        for name in ("report.txt", "metrics.csv", "monthly_temperature.csv",
                     "monthly_precipitation.csv", "scatter_et0_period1.csv",
                     "scatter_et0_period2.csv", "scatter_theta_period1.csv",
                     "scatter_theta_period2.csv"):
            assert (out / name).exists(), name

    def test_run_deterministic(self, tmp_path, quick_config_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", quick_config_path, "--out", str(a)]) == 0
        assert main(["run", "--config", quick_config_path, "--out", str(b)]) == 0
        for p in a.iterdir():
            assert p.read_bytes() == (b / p.name).read_bytes(), p.name

    def test_default_config_available(self, tmp_path):
        # no --config falls back to built-in defaults (smoke: synth only)
        assert main(["synth", "--out", str(tmp_path / "d")]) == 0


class TestExitCodes:

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense.key = 1\n", encoding="utf-8")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")]) == 4

    def test_non_finite_config_value_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("train.et0.learning_rate = inf\n", encoding="utf-8")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 4
        assert "train.et0.learning_rate: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "out.csv")]) == 6

    def test_invalid_value_is_domain_error(self, tmp_path, quick_config_path):
        assert main(["train-et0", "--config", quick_config_path,
                     "--out", str(tmp_path / "m"), "--seed", "-5"]) == 3

    def test_unsupported_artifact_version(self, tmp_path, quick_config_path):
        et0_path = tmp_path / "et0.model"
        assert main(["train-et0", "--config", quick_config_path,
                     "--out", str(et0_path)]) == 0
        text = et0_path.read_text(encoding="utf-8").replace("paddymoist-model 1",
                                                            "paddymoist-model 99")
        et0_path.write_text(text, encoding="utf-8")
        assert main(["simulate", "--config", quick_config_path,
                     "--model", str(et0_path), "--et0-model", str(et0_path),
                     "--out", str(tmp_path / "est.csv")]) == 5

    def test_non_finite_daily_cell_is_data_error(self, tmp_path, quick_config_path, capsys):
        data = tmp_path / "d"
        assert main(["synth", "--config", quick_config_path, "--out", str(data)]) == 0
        path = data / "period1_daily.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[5].split(",")
        cells[5] = "nan"  # precip_mm
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["train-et0", "--config", quick_config_path, "--data", str(path),
                     "--out", str(tmp_path / "et0.model")]) == 4
        assert "line 6: precip_mm must be finite" in capsys.readouterr().err

    def test_unordered_or_gapped_daily_file_is_data_error(self, tmp_path,
                                                          quick_config_path, capsys):
        data = tmp_path / "d"
        assert main(["synth", "--config", quick_config_path, "--out", str(data)]) == 0
        path = data / "period1_daily.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        swapped = lines[:]
        swapped[5], swapped[6] = swapped[6], swapped[5]
        path.write_text("\n".join(swapped) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["train-et0", "--config", quick_config_path, "--data", str(path),
                     "--out", str(tmp_path / "et0.model")]) == 4
        assert ("line 7: dates must be strictly increasing; 2010-10-18 follows 2010-10-19"
                in capsys.readouterr().err)

        del lines[5]  # 2010-10-18
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(Path(quick_config_path).read_text(encoding="utf-8")
                       .replace("period1.source = synth", "period1.source = csv")
                       .replace("period1.data = ", f"period1.data = {path}"),
                       encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: [stage: load period1]")
        assert "no row for 2010-10-18" in err
        assert main(["simulate", "--config", quick_config_path, "--data", str(path),
                     "--model", "unused", "--et0-model", "unused",
                     "--out", str(tmp_path / "est.csv")]) == 4
        assert "no row for 2010-10-18" in capsys.readouterr().err

    def test_stage_tag_kept_on_os_errors(self, tmp_path, capsys):
        cfg = tmp_path / "csv.cfg"
        missing = tmp_path / "missing.csv"
        cfg.write_text(f"period1.source = csv\nperiod1.data = {missing}\n",
                       encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 6
        err = capsys.readouterr().err
        assert err.startswith("error: [stage: load period1] [Errno 2]")
        assert str(missing) in err

    def test_malformed_csv_is_data_error(self, tmp_path):
        src = tmp_path / "hh.csv"
        src.write_text("wrong,header,row\n1,2,3\n", encoding="utf-8")
        assert main(["ingest", "--input", str(src),
                     "--output", str(tmp_path / "out.csv")]) == 4

    @pytest.mark.parametrize("row, message", [
        ("2011-01-05T00:30:00,20.0,-0.5,0.4", "line 3: precip_mm must be >= 0, got '-0.5'"),
        ("2011-01-05T00:00:00,20.0,0.0,0.4", "line 3: timestamps must be strictly increasing"),
        ("2011-01-05T00:30:00,20.0,0.0,7.5", "line 3: theta_vwc must be in [0, 1], got '7.5'"),
    ], ids=["negative-precip", "repeated-timestamp", "theta-out-of-range"])
    def test_bad_half_hourly_row_is_data_error(self, tmp_path, capsys, row, message):
        src = tmp_path / "hh.csv"
        src.write_text("timestamp_iso8601,temp_c,precip_mm,theta_vwc\n"
                       f"2011-01-05T00:00:00,20.0,0.0,0.4\n{row}\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["ingest", "--input", str(src), "--output", str(out)]) == 4
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cells, message", [
        ("30.0,18.0,19.0,0.0,0.4", "line 3: need tmin <= tavg <= tmax"),
        ("30.0,25.0,19.0,-2.5,0.4", "line 3: precip must be >= 0"),
        ("30.0,25.0,19.0,0.0,7.5", "line 3: theta_vwc must be in [0, 1]"),
    ], ids=["tmin-above-tavg", "negative-precip", "theta-out-of-range"])
    def test_bad_daily_row_is_data_error(self, tmp_path, capsys, cells, message):
        data = tmp_path / "daily.csv"
        data.write_text("date,day_index,tmax_c,tavg_c,tmin_c,precip_mm,theta_vwc\n"
                        f"2011-01-05,0,30.0,25.0,19.0,0.0,0.4\n2011-01-06,1,{cells}\n",
                        encoding="utf-8")
        assert main(["train-et0", "--data", str(data),
                     "--out", str(tmp_path / "et0.model")]) == 4
        assert f"error: {message}" in capsys.readouterr().err

    def test_csv_period_of_another_length_is_data_error(self, tmp_path, quick_config_path,
                                                        capsys):
        data = tmp_path / "d"
        assert main(["synth", "--config", quick_config_path, "--out", str(data)]) == 0
        path = data / "period2_daily.csv"
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(Path(quick_config_path).read_text(encoding="utf-8")
                       .replace("period2.days = 118", "period2.days = 100")
                       .replace("period2.source = synth", "period2.source = csv")
                       .replace("period2.data = ", f"period2.data = {path}"),
                       encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert (f"error: [stage: load period2] period2: {path} holds 118 days, "
                f"but period2.days is 100") in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_part_error_names_its_keys(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("field.theta_res = 0.5\n", encoding="utf-8")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 4
        assert ("error: field.theta_res, field.theta_init, field.theta_sat: need theta_res "
                "< theta_init <= theta_sat" in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_lag_without_a_training_day_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("moisture.lag = 0\n", encoding="utf-8")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 4
        assert "error: moisture.lag: need 1 <= lag < period1.days (118), got 0" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
