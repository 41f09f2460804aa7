"""CLI verbs, wired through main(argv), and the exit-code contract."""

import logging
from datetime import date, datetime, timedelta
from pathlib import Path

import pytest

from conftest import quick_config
from paddymoist import ann, cli
from paddymoist.cli import main
from paddymoist.experiment import format_config
from paddymoist.ingest import read_daily_csv
from paddymoist.metrics import nash_sutcliffe, r_squared, rmse
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

    @pytest.mark.usefixtures("station_reader")
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

    @pytest.mark.usefixtures("station_reader")
    def test_ingest_reports_each_gap_once(self, tmp_path, capsys, caplog):
        src = tmp_path / "hh.csv"
        _write_half_hourly(src, n_short=36)
        with caplog.at_level(logging.DEBUG, logger="paddymoist"):
            assert main(["ingest", "--input", str(src), "--output", str(tmp_path / "d.csv")]) == 0
        captured = capsys.readouterr()
        assert (captured.out + captured.err).count("2011-01-06") == 1
        assert not any("2011-01-06" in r.getMessage() for r in caplog.records)

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

    def test_normalizer_span_overflow_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("normalizer.temp_c = -1e308 1e308\n", encoding="utf-8")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 4
        assert ("error: normalizer.temp_c: normalizer span hi - lo must be finite"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "nope.csv"),
                     "--output", str(tmp_path / "out.csv")]) == 6

    def test_invalid_value_is_domain_error(self, tmp_path, quick_config_path, capsys):
        assert main(["train-et0", "--config", quick_config_path,
                     "--out", str(tmp_path / "m"), "--seed", "-5"]) == 4
        assert ("error: train.et0.seed: seed must be a non-negative integer"
                in capsys.readouterr().err)

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
        assert f"{path}: line 6: precip_mm must be finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize("min_coverage", ["0", "49", "-3"])
    def test_coverage_outside_a_day_is_domain_error(self, tmp_path, capsys, min_coverage):
        src, out = tmp_path / "hh.csv", tmp_path / "daily.csv"
        _write_half_hourly(src)
        assert main(["ingest", "--input", str(src), "--output", str(out),
                     "--min-coverage", min_coverage]) == 3
        assert (f"error: min_coverage must be in 1..48, got {min_coverage}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("key", ["period1.seed", "period2.seed"])
    def test_blank_period_seed_is_data_error(self, tmp_path, capsys, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{key} =\n", encoding="utf-8")
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "d")]) == 4
        assert f"error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_malformed_csv_is_data_error(self, tmp_path):
        src = tmp_path / "hh.csv"
        src.write_text("wrong,header,row\n1,2,3\n", encoding="utf-8")
        assert main(["ingest", "--input", str(src),
                     "--output", str(tmp_path / "out.csv")]) == 4

    @pytest.mark.parametrize("row, message", [
        ("2011-01-05T00:30:00,20.0,-0.5,0.4", "line 3: precip_mm must be >= 0, got '-0.5'"),
        ("2011-01-05T00:00:00,20.0,0.0,0.4", "line 3: timestamps must be strictly increasing"),
        ("2011-01-05T00:30:00,20.0,0.0,7.5", "line 3: theta_vwc must be in [0, 1], got '7.5'"),
        ("2011-01-05T00:30:00,20.0", "line 3: expected at least 3 fields, got 2"),
        ("half past midnight,20.0,0.0,0.4",
         "line 3: cannot parse timestamp from 'half past midnight'"),
    ], ids=["negative-precip", "repeated-timestamp", "theta-out-of-range", "too-few-fields",
            "bad-timestamp"])
    @pytest.mark.usefixtures("station_reader")
    def test_bad_half_hourly_row_is_data_error(self, tmp_path, capsys, row, message):
        src = tmp_path / "hh.csv"
        src.write_text("timestamp_iso8601,temp_c,precip_mm,theta_vwc\n"
                       f"2011-01-05T00:00:00,20.0,0.0,0.4\n{row}\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["ingest", "--input", str(src), "--output", str(out)]) == 4
        assert f"error: {src}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cells, message", [
        ("30.0,18.0,19.0,0.0,0.4", "line 3: need tmin <= tavg <= tmax"),
        ("30.0,25.0,19.0,-2.5,0.4", "line 3: precip must be >= 0"),
        ("30.0,25.0,19.0,0.0,7.5", "line 3: theta_vwc must be in [0, 1]"),
        ("30.0,25.0", "line 3: expected at least 6 fields, got 4"),
    ], ids=["tmin-above-tavg", "negative-precip", "theta-out-of-range", "too-few-fields"])
    def test_bad_daily_row_is_data_error(self, tmp_path, capsys, cells, message):
        data = tmp_path / "daily.csv"
        data.write_text("date,day_index,tmax_c,tavg_c,tmin_c,precip_mm,theta_vwc\n"
                        f"2011-01-05,0,30.0,25.0,19.0,0.0,0.4\n2011-01-06,1,{cells}\n",
                        encoding="utf-8")
        assert main(["train-et0", "--data", str(data),
                     "--out", str(tmp_path / "et0.model")]) == 4
        assert f"error: {data}: {message}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("value", ["0.3", "0.1"])
    def test_constant_observed_theta_is_data_error_before_training(
            self, tmp_path, quick_config_path, capsys, monkeypatch, value):
        data = tmp_path / "d"
        assert main(["synth", "--config", quick_config_path, "--out", str(data)]) == 0
        path = tmp_path / "constant.csv"
        lines = (data / "period2_daily.csv").read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([lines[0]] + [line.rsplit(",", 1)[0] + f",{value}"
                                                for line in lines[1:]]) + "\n",
                        encoding="utf-8")
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(Path(quick_config_path).read_text(encoding="utf-8")
                       .replace("period2.source = synth", "period2.source = csv")
                       .replace("period2.data = ", f"period2.data = {path}"),
                       encoding="utf-8")

        def no_training(*args, **kwargs):
            raise AssertionError("a net trained on a run whose metrics are undefined")
        for name in ("train", "_train_rows"):  # the public loop, and the one both nets use
            monkeypatch.setattr(ann, name, no_training)
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == (
            f"error: [stage: load period2] period2: observed theta_vwc is {value} on every "
            f"day\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb", ["run", "synth"])
    @pytest.mark.parametrize("line, fault", [
        ("weather.precip_mean_wet_mm = 1e308", "precip must be finite, got inf on 2010-10-15"),
        ("kc.values = 1e308 1e308 1e308", "etc_mm must be finite, got inf"),
    ], ids=["weather", "kc"])
    def test_a_season_that_cannot_be_built_names_the_period_and_settings(
            self, tmp_path, capsys, verb, line, fault):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main([verb, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        stage = "[stage: load period1] " if verb == "run" else ""
        assert capsys.readouterr() == ("", (
            f"error: {stage}period1: no synthetic season can be built from the weather.*, "
            f"kc.* and field.* settings: {fault}\n"))
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


def _zero_models(tmp_path):
    """An ET0 surrogate and a lag-1 moisture estimator with zero weights, saved."""
    from paddymoist.ann import Mlp, MlpTopology
    from paddymoist.evapo import Et0Model
    from paddymoist.moisture import MoistureModel
    from paddymoist.persist import et0_artifact, moisture_artifact, save_model
    et0_path, moist_path = tmp_path / "et0.model", tmp_path / "moisture.model"
    save_model(et0_artifact(Et0Model(Mlp.zeros(MlpTopology(3, 8, 1)))), et0_path)
    save_model(moisture_artifact(MoistureModel(Mlp.zeros(MlpTopology(4, 8, 1)))), moist_path)
    return et0_path, moist_path


def _drop_line(path, prefix):
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.remove(next(line for line in lines if line.startswith(prefix)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestEvaluateInput:

    @pytest.mark.parametrize("row, message", [
        ("0.3,nan", "line 3: estimated_theta_vwc must be finite, got 'nan'"),
        ("inf,0.3", "line 3: observed_theta_vwc must be finite, got 'inf'"),
        ("0.3,", "line 3: cannot parse estimated_theta_vwc from ''"),
        ("0.3", "line 3: cannot parse estimated_theta_vwc from ''"),
        ("6_0,0.3", "line 3: cannot parse observed_theta_vwc from '6_0'"),
        ("0.3,٠.٣", "line 3: cannot parse estimated_theta_vwc from '٠.٣'"),
    ], ids=["nan", "inf", "blank", "short-row", "underscore", "non-ascii"])
    def test_bad_cell_is_data_error(self, tmp_path, capsys, row, message):
        path = tmp_path / "est.csv"
        path.write_text("observed_theta_vwc,estimated_theta_vwc\n0.4,0.41\n"
                        f"{row}\n0.5,0.52\n", encoding="utf-8")
        assert main(["evaluate", "--file", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""

    def test_missing_column_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "est.csv"
        path.write_text("observed_theta_vwc,estimate\n0.4,0.41\n", encoding="utf-8")
        assert main(["evaluate", "--file", str(path)]) == 4
        assert (f"error: {path}: no column 'estimated_theta_vwc' "
                f"(have ['observed_theta_vwc', 'estimate'])") in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0.3", "0.1"])
    def test_constant_column(self, tmp_path, capsys, value):
        """A constant observed column is undefined, a constant estimate r² 0."""
        path = tmp_path / "est.csv"
        rows = [f"{value},{0.2 + i / 1000}" for i in range(118)]
        path.write_text("observed_theta_vwc,estimated_theta_vwc\n" + "\n".join(rows) + "\n",
                        encoding="utf-8")
        assert main(["evaluate", "--file", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""  # a refusal prints no partial output
        assert captured.err == "error: observed series is constant; correlation undefined\n"
        assert main(["evaluate", "--file", str(path), "--obs-col", "estimated_theta_vwc",
                     "--est-col", "observed_theta_vwc"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "r_squared 0.0"

    def test_sum_that_overflows_is_scored(self, tmp_path, capsys):
        """Finite cells whose sums of squares overflow a double are scored
        from scaled deviations, where numpy printed nan."""
        path = tmp_path / "est.csv"
        path.write_text("observed_theta_vwc,estimated_theta_vwc\n1e308,1e308\n"
                        "1.5e308,1.2e308\n1.7e308,1.1e308\n", encoding="utf-8")
        assert main(["evaluate", "--file", str(path)]) == 0
        obs, est = [1e308, 1.5e308, 1.7e308], [1e308, 1.2e308, 1.1e308]
        assert capsys.readouterr().out.splitlines() == [
            "n 3", f"r_squared {r_squared(obs, est)!r}",
            f"nash_sutcliffe {nash_sutcliffe(obs, est)!r}", f"rmse {rmse(obs, est)!r}"]

    def test_result_that_overflows_is_a_value_error(self, tmp_path, capsys):
        """A cell whose result passes the largest double exits 3, where numpy
        printed nan and exited 0, and prints nothing before it refuses."""
        path = tmp_path / "est.csv"
        path.write_text("observed_theta_vwc,estimated_theta_vwc\n-1.7e308,1.7e308\n"
                        "1.7e308,-1.7e308\n", encoding="utf-8")
        assert main(["evaluate", "--file", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rmse: the result overflows a double\n"

    def test_columns_read_in_any_order(self, tmp_path, capsys):
        path = tmp_path / "est.csv"
        path.write_text("date,estimated_theta_vwc,observed_theta_vwc\n"
                        "2011-01-05,0.5,0.4\n\n2011-01-06,0.25,0.2\n", encoding="utf-8")
        assert main(["evaluate", "--file", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n 2"
        # nash_sutcliffe is not symmetric, so it shows which column is which
        assert out[2] == f"nash_sutcliffe {nash_sutcliffe([0.4, 0.2], [0.5, 0.25])!r}"
        assert out[3] == f"rmse {rmse([0.4, 0.2], [0.5, 0.25])!r}"


class TestConfigOption:

    @pytest.mark.parametrize("verb", [
        ["ingest", "--input", "hh.csv", "--output", "daily.csv"],
        ["evaluate", "--file", "est.csv"],
    ], ids=["ingest", "evaluate"])
    def test_verbs_without_a_config_refuse_it(self, capsys, verb):
        with pytest.raises(SystemExit) as exc:
            main(verb + ["--config", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config x" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("kc.values = -1 1 1", "kc.values: kc_ini must be > 0, got -1.0"),
        ("kc.stage_lengths = 0 50 40 28",
         "kc.stage_lengths: stage length len_ini must be >= 1, got 0"),
        ("period1.seed = -3", "period1.seed: period seed must be >= 0, got -3"),
        ("weather.wet_day_prob = 1.5",
         "weather.wet_day_prob: wet_day_prob must be in [0, 1], got 1.5"),
        ("weather.diurnal_range_c = -1",
         "weather.diurnal_range_c: diurnal_range_mean must be > 0, got -1.0"),
        ("weather.precip_mean_wet_mm = -2",
         "weather.precip_mean_wet_mm: precip_mean_wet must be >= 0, got -2.0"),
    ], ids=["kc-values", "stage-lengths", "period-seed", "wet-day-prob", "diurnal-range",
            "precip-mean-wet"])
    @pytest.mark.parametrize("verb", ["run", "train-et0"])
    def test_bad_calendar_fails_at_parse(self, tmp_path, capsys, monkeypatch, text, message,
                                         verb):
        def no_training(*args, **kwargs):
            raise AssertionError("a config that fails to parse must train nothing")
        monkeypatch.setattr("paddymoist.ann.train", no_training)
        bad = tmp_path / "bad.cfg"
        bad.write_text(text + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([verb, "--config", str(bad), "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_train_et0_config_csv_period_must_fit_the_calendar(self, tmp_path,
                                                               quick_config_path, capsys):
        data = tmp_path / "d"
        assert main(["synth", "--config", quick_config_path, "--out", str(data)]) == 0
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(Path(quick_config_path).read_text(encoding="utf-8")
                       .replace("kc.stage_lengths = 20 30 40 28", "kc.stage_lengths = 20 30 40 30")
                       .replace("period1.source = synth", "period1.source = csv")
                       .replace("period1.data = ", f"period1.data = {data}/period1_daily.csv"),
                       encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "et0.model"
        assert main(["train-et0", "--config", str(cfg), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (f"error: period1: {data}/period1_daily.csv: "
                                           f"kc.stage_lengths: 20+30+40+30 = 120 days, "
                                           f"but the season has 118\n")
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "synth"])
    def test_calendar_misfit_exits_4_before_training_or_writing(self, tmp_path, capsys,
                                                                monkeypatch, verb):
        def no_training(*args, **kwargs):
            raise AssertionError("a season that misfits the calendar must train nothing")
        monkeypatch.setattr("paddymoist.ann.train", no_training)
        cfg = tmp_path / "misfit.cfg"
        cfg.write_text("kc.stage_lengths = 20 30 40 30\n", encoding="utf-8")  # 120 vs 118
        out = tmp_path / "out"
        assert main([verb, "--config", str(cfg), "--out", str(out)]) == 4
        tag = "[stage: load period1] " if verb == "run" else ""
        assert capsys.readouterr().err == (f"error: {tag}period1: kc.stage_lengths: "
                                           f"20+30+40+30 = 120 days, but the season has 118\n")
        assert not out.exists()


class TestArtifactNorms:

    @pytest.mark.parametrize("verb", ["simulate", "train-moisture"])
    def test_et0_artifact_without_a_norm_line(self, tmp_path, capsys, verb):
        et0_path, moist_path = _zero_models(tmp_path)
        _drop_line(et0_path, "norm temp ")
        args = [verb, "--et0-model", str(et0_path), "--out", str(tmp_path / "out")]
        if verb == "simulate":
            args += ["--model", str(moist_path)]
        assert main(args) == 4
        assert capsys.readouterr().err == (
            f"error: {et0_path}: line 6: expected 'norm temp' followed by 2 value(s), "
            f"got 'norm et0 0.0 10.0'\n")
        assert not (tmp_path / "out").exists()

    def test_moisture_artifact_without_a_norm_line(self, tmp_path, capsys):
        et0_path, moist_path = _zero_models(tmp_path)
        out = tmp_path / "est.csv"
        assert main(["simulate", "--model", str(moist_path), "--et0-model", str(et0_path),
                     "--out", str(out)]) == 0  # the intact pair runs
        _drop_line(moist_path, "norm kc ")
        out.unlink()
        assert main(["simulate", "--model", str(moist_path), "--et0-model", str(et0_path),
                     "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: {moist_path}: line 8: expected 'norm kc' followed by 2 value(s), "
            f"got 'norm theta 0.0 1.0'\n")
        assert not out.exists()


    @pytest.mark.parametrize("after, extra", [
        ("gain ", "gain 0.25"),
        ("norm et0 ", "norm temp -40.0 90.0"),
        ("norm et0 ", "norm wind 0 1"),
        ("w_hidden 0 ", "w_hidden 0" + " 9.0" * 4),
        ("end", "end"),
    ], ids=["repeated-gain", "repeated-norm", "unknown-norm", "repeated-row", "after-end"])
    def test_malformed_et0_artifact_names_its_line(self, tmp_path, capsys, after, extra):
        et0_path, moist_path = _zero_models(tmp_path)
        lines = et0_path.read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(after)) + 1
        lines.insert(at, extra)
        et0_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "est.csv"
        assert main(["simulate", "--model", str(moist_path), "--et0-model", str(et0_path),
                     "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {et0_path}: line {at + 1}: ")
        assert repr(extra) in err
        assert not out.exists()

class TestDataFileCalendar:

    @pytest.mark.parametrize("verb", ["simulate", "train-moisture"])
    def test_data_file_must_fit_the_calendar(self, tmp_path, quick_config_path, capsys, verb):
        et0_path, moist_path = _zero_models(tmp_path)
        data = tmp_path / "d"
        assert main(["synth", "--config", quick_config_path, "--out", str(data)]) == 0
        path = data / "period1_daily.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")  # 117 days
        capsys.readouterr()
        args = [verb, "--config", quick_config_path, "--data", str(path),
                "--et0-model", str(et0_path), "--out", str(tmp_path / "out")]
        if verb == "simulate":
            args += ["--model", str(moist_path)]
        assert main(args) == 4
        which = "period2" if verb == "simulate" else "period1"
        assert capsys.readouterr().err == (f"error: {which}: {path}: kc.stage_lengths: "
                                           f"20+30+40+28 = 118 days, but the season has 117\n")
        assert not (tmp_path / "out").exists()


class TestDataFileRows:
    """A bad row in a daily file is named by its file and line, whichever
    reader of a season meets it."""

    @pytest.fixture
    def bad_row(self, tmp_path, quick_config_path, capsys):
        data = tmp_path / "d"
        assert main(["synth", "--config", quick_config_path, "--out", str(data)]) == 0
        capsys.readouterr()
        path = data / "period1_daily.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        cells = lines[5].split(",")
        cells[5] = "nan"  # precip_mm
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path, f"{path}: line 6: precip_mm must be finite, got 'nan'"

    def test_read_period(self, bad_row):
        from paddymoist.errors import DataFormatError
        from paddymoist.experiment import read_period
        path, message = bad_row
        with pytest.raises(DataFormatError) as exc:
            read_period(quick_config(), path, "period1")
        assert str(exc.value) == message

    @pytest.mark.parametrize("verb, models", [("train-moisture", ["--et0-model"]),
                                              ("simulate", ["--et0-model", "--model"])])
    def test_data_flag(self, bad_row, tmp_path, quick_config_path, capsys, verb, models):
        path, message = bad_row
        args = [verb, "--config", quick_config_path, "--data", str(path),
                "--out", str(tmp_path / "out")]
        for flag in models:  # never read: the data file fails first
            args += [flag, "unused"]
        assert main(args) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_run_config_csv_period(self, bad_row, tmp_path, quick_config_path, capsys):
        path, message = bad_row
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(Path(quick_config_path).read_text(encoding="utf-8")
                       .replace("period1.source = synth", "period1.source = csv")
                       .replace("period1.data = ", f"period1.data = {path}"),
                       encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err == f"error: [stage: load period1] {message}\n"
        assert not (tmp_path / "out").exists()


class TestThetaNormalizer:

    def test_theta_init_outside_the_normalizer_exits_4_at_parse(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("moisture.theta_init = 5\n", encoding="utf-8")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        assert capsys.readouterr().err.startswith(
            "error: moisture.theta_init, normalizer.theta_vwc: need theta_init in [0.0, 1.0]")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("verb, args, where", [
        ("run", [], "[stage: load period1] period1"),
        ("synth", [], "period1"),
        ("train-et0", ["--data"], "period1: {data}"),
        ("train-moisture", ["--data", "--et0-model"], "period1: {data}"),
        ("simulate", ["--data", "--et0-model", "--model"], "period2: {data}"),
    ])
    def test_observed_theta_outside_the_normalizer_exits_4(self, tmp_path, capsys, verb,
                                                           args, where):
        et0_path, moist_path = _zero_models(tmp_path)
        assert main(["synth", "--out", str(tmp_path / "d")]) == 0  # default normalizer
        data = tmp_path / "d" / "period1_daily.csv"
        paths = {"--data": data, "--et0-model": et0_path, "--model": moist_path}
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text("normalizer.theta_vwc = 0.5 0.6\nmoisture.theta_init = 0.55\n",
                       encoding="utf-8")
        capsys.readouterr()
        argv = [verb, "--config", str(cfg), "--out", str(tmp_path / "out")]
        for flag in args:
            argv += [flag, str(paths[flag])]
        assert main(argv) == 4
        assert capsys.readouterr().err.startswith(
            f"error: {where.format(data=data)}: observed theta_vwc ")
        assert not (tmp_path / "out").exists()

    def test_theta_init_outside_the_models_normalizer_exits_4(self, tmp_path, capsys):
        # the config allows theta_init = 1.5, but the lag-1 model's norm theta
        # is 0 1 and would clamp it
        et0_path, moist_path = _zero_models(tmp_path)
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("normalizer.theta_vwc = 0 2\nmoisture.theta_init = 1.5\n",
                       encoding="utf-8")
        out = tmp_path / "est.csv"
        argv = ["simulate", "--config", str(cfg), "--model", str(moist_path),
                "--et0-model", str(et0_path), "--out", str(out)]
        for mode in ("closed_loop", "teacher_forced"):
            assert main(argv + ["--mode", mode]) == 4
            assert capsys.readouterr().err == (
                f"error: moisture.theta_init: need theta_init in {moist_path} norm theta "
                f"[0.0, 1.0], got 1.5\n")
            assert not out.exists()

    def test_observed_theta_outside_the_models_normalizer_exits_4(self, tmp_path, capsys):
        from paddymoist.ann import Mlp, MlpTopology, Normalizer
        from paddymoist.experiment import default_config, load_period
        from paddymoist.moisture import MoistureModel, MoistureNormalizers
        from paddymoist.persist import moisture_artifact, save_model
        et0_path, _ = _zero_models(tmp_path)
        narrow = tmp_path / "narrow.model"
        save_model(moisture_artifact(MoistureModel(
            Mlp.zeros(MlpTopology(4, 8, 1)),
            norms=MoistureNormalizers(theta=Normalizer(0.0, 0.5)))), narrow)
        cfg = default_config()
        period = load_period(cfg, cfg.period2, "period2")
        day, value = next((d, v) for d, v in zip(period.days, period.theta_obs) if v > 0.5)
        out = tmp_path / "est.csv"
        argv = ["simulate", "--model", str(narrow), "--et0-model", str(et0_path),
                "--out", str(out)]
        assert main(argv + ["--mode", "teacher_forced"]) == 4
        assert capsys.readouterr().err == (
            f"error: period2: observed theta_vwc {value!r} on {day.date} is outside "
            f"{narrow} norm theta [0.0, 0.5]\n")
        assert not out.exists()
        # closed loop takes no observed lag, so observed theta is only scored
        assert main(argv + ["--mode", "closed_loop"]) == 0


class TestArtifactValues:
    """A weight, bound or gain the model cannot use exits 4 naming the file and line."""

    @pytest.mark.parametrize("model, prefix, new, message", [
        ("moisture", "w_hidden 3 ", None, "must be finite, got 'nan'"),
        ("et0", "norm et0 ", "norm et0 0.0 inf", "must be finite, got 'inf'"),
        ("et0", "gain ", "gain inf", "must be finite, got 'inf'"),
        ("moisture", "gain ", "gain 1.5", "gain must be in (0, 1], got 1.5"),
    ], ids=["nan-weight", "inf-bound", "inf-gain", "gain-above-one"])
    def test_simulate_refuses_the_artifact(self, tmp_path, capsys, model, prefix, new,
                                           message):
        et0_path, moist_path = _zero_models(tmp_path)
        path = et0_path if model == "et0" else moist_path
        lines = path.read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        if new is None:  # one weight of the row becomes nan
            words = lines[at].split()
            words[3] = "nan"
            new = " ".join(words)
        lines[at] = new
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "est.csv"
        assert main(["simulate", "--mode", "teacher_forced", "--model", str(moist_path),
                     "--et0-model", str(et0_path), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: {path}: line {at + 1}: cannot parse {new!r}: {message}\n")
        assert not out.exists()


    def test_simulate_refuses_words_not_single_spaced(self, tmp_path, capsys):
        et0_path, moist_path = _zero_models(tmp_path)
        lines = et0_path.read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("gain "))
        lines[at] = lines[at].replace(" ", "\t")
        et0_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "est.csv"
        assert main(["simulate", "--mode", "teacher_forced", "--model", str(moist_path),
                     "--et0-model", str(et0_path), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: {et0_path}: line {at + 1}: words must be separated by single spaces, "
            f"got {lines[at]!r}\n")
        assert not out.exists()

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A quick config file, its synthetic periods and both models trained on period 1."""
    d = tmp_path_factory.mktemp("trained")
    paths = {"config": d / "quick.cfg", "data": d, "et0": d / "et0.model",
             "moisture": d / "moisture.model"}
    paths["config"].write_text(format_config(quick_config(et0_epochs=40, moisture_epochs=40)),
                               encoding="utf-8")
    config = ["--config", str(paths["config"])]
    assert main(["synth", *config, "--out", str(d)]) == 0
    assert main(["train-et0", *config, "--out", str(paths["et0"])]) == 0
    assert main(["train-moisture", *config, "--et0-model", str(paths["et0"]),
                 "--out", str(paths["moisture"])]) == 0
    return paths


def _model_args(trained, verb):
    """The saved models ``verb`` needs."""
    et0 = ["--et0-model", str(trained["et0"])]
    return {"train-moisture": et0, "simulate": et0 + ["--model", str(trained["moisture"])]
            }.get(verb, [])


def _written(out: Path) -> dict:
    """The bytes of the file ``out``, or of each file in the directory ``out``."""
    return ({p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir()
            else {"": out.read_bytes()})


class TestOverrideFlags:
    """Each override flag sets one config key, after the --config file."""

    @pytest.mark.parametrize("verb, flag, key, value", [
        ("synth", "--seed1", "period1.seed", "11"),
        ("synth", "--seed2", "period2.seed", "22"),
        ("train-et0", "--seed", "train.et0.seed", "3"),
        ("train-moisture", "--seed", "train.moisture.seed", "5"),
        ("simulate", "--mode", "moisture.sim_mode", "teacher_forced"),
    ], ids=["synth-seed1", "synth-seed2", "train-et0-seed", "train-moisture-seed",
            "simulate-mode"])
    def test_flag_writes_what_its_config_key_writes(self, tmp_path, trained, verb, flag,
                                                    key, value):
        base = trained["config"].read_text(encoding="utf-8")
        assert f"\n{key} = " in base and f"\n{key} = {value}\n" not in base
        by_key = tmp_path / "key.cfg"  # the file's one line for the key, changed
        by_key.write_text("".join(f"{key} = {value}\n" if line.startswith(f"{key} = ")
                                  else line for line in base.splitlines(keepends=True)),
                          encoding="utf-8")
        models = _model_args(trained, verb)
        runs = {"key": ["--config", str(by_key)],
                "flag": ["--config", str(trained["config"]), flag, value],
                "file": ["--config", str(trained["config"])]}
        for name, args in runs.items():
            assert main([verb, *args, *models, "--out", str(tmp_path / name)]) == 0
        # the flag wins over the file's own line for its key
        assert _written(tmp_path / "flag") == _written(tmp_path / "key")
        assert _written(tmp_path / "flag") != _written(tmp_path / "file")

    def test_a_key_set_twice_in_the_file_exits_4_naming_its_line(self, tmp_path, capsys):
        # a flag is the one way to set a key over the file's line for it
        twice = tmp_path / "twice.cfg"
        twice.write_text("period1.seed = 11\nperiod2.seed = 22\nperiod1.seed = 12\n",
                         encoding="utf-8")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(twice), "--out", str(out)]) == 4
        assert capsys.readouterr().err == ("error: config line 3: key 'period1.seed' is "
                                           "already set on line 1\n")
        assert not out.exists()

    def test_flags_follow_a_file_without_a_final_newline(self, tmp_path):
        bare, by_key = tmp_path / "bare.cfg", tmp_path / "key.cfg"
        bare.write_text("moisture.lag = 1", encoding="utf-8")
        by_key.write_text("moisture.lag = 1\nperiod1.seed = 11\nperiod2.seed = 22\n",
                          encoding="utf-8")
        assert main(["synth", "--config", str(bare), "--seed1", "11", "--seed2", "22",
                     "--out", str(tmp_path / "flag")]) == 0
        assert main(["synth", "--config", str(by_key), "--out", str(tmp_path / "key")]) == 0
        assert _written(tmp_path / "flag") == _written(tmp_path / "key")

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--seed1", "-3"], "period1.seed: period seed must be >= 0, got -3"),
        (["synth", "--seed2", "-3"], "period2.seed: period seed must be >= 0, got -3"),
        (["train-moisture", "--seed", "-1", "--et0-model", "unused"],
         "train.moisture.seed: seed must be a non-negative integer"),
    ], ids=["seed1", "seed2", "train-moisture-seed"])
    def test_bad_flag_value_exits_4_naming_its_key(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train-et0", "--seed", "three"],
        ["synth", "--seed1", "1.5"],
        ["simulate", "--mode", "open_loop", "--model", "m", "--et0-model", "e"],
    ], ids=["seed-not-int", "seed1-not-int", "unknown-mode"])
    def test_malformed_flag_is_a_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestDataFlag:
    """Stage verbs fed a daily file through --data."""

    def _period(self, trained, which, tmp_path, keep=None):
        """A copy of the synthetic ``which`` daily file, cut to the columns in ``keep``."""
        lines = (trained["data"] / f"{which}_daily.csv").read_text(encoding="utf-8").splitlines()
        if keep is not None:
            lines = [",".join(line.split(",")[:keep]) for line in lines]
        path = tmp_path / f"{which}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_train_et0_accepts_a_gap(self, tmp_path, trained, capsys):
        path = self._period(trained, "period1", tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        del lines[10:13]  # three days missing
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "et0.model"
        assert main(["train-et0", "--config", str(trained["config"]), "--data", str(path),
                     "--out", str(out)]) == 0
        assert "trained et0 surrogate on 115 days" in capsys.readouterr().out
        assert load_model(out).kind == "et0"

    def test_train_moisture_on_a_data_file(self, tmp_path, trained):
        # the synthetic period 1 as a file trains the model the config period trains
        out = tmp_path / "moisture.model"
        assert main(["train-moisture", "--config", str(trained["config"]),
                     "--data", str(self._period(trained, "period1", tmp_path)),
                     *_model_args(trained, "train-moisture"), "--out", str(out)]) == 0
        assert out.read_bytes() == trained["moisture"].read_bytes()

    def test_simulate_closed_loop_without_theta(self, tmp_path, trained, capsys):
        path = self._period(trained, "period2", tmp_path, keep=6)
        out = tmp_path / "est.csv"
        assert main(["simulate", "--config", str(trained["config"]), "--data", str(path),
                     *_model_args(trained, "simulate"), "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "date,estimated_theta_vwc"
        assert len(lines) == 1 + 118 and all(len(line.split(",")) == 2 for line in lines)
        printed = capsys.readouterr().out
        assert "(closed_loop)" in printed and "r_squared" not in printed

    def test_simulate_teacher_forced(self, tmp_path, trained, capsys):
        out = tmp_path / "est.csv"
        assert main(["simulate", "--config", str(trained["config"]),
                     "--mode", "teacher_forced", *_model_args(trained, "simulate"),
                     "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "date,estimated_theta_vwc,observed_theta_vwc"
        assert len(lines) == 1 + 118
        printed = capsys.readouterr().out
        assert "(teacher_forced)" in printed and "r_squared" in printed

    @pytest.mark.parametrize("verb, argv, use", [
        ("train-moisture", [], "training"),
        ("simulate", ["--mode", "teacher_forced"], "teacher-forced simulation"),
    ], ids=["train-moisture", "simulate-teacher-forced"])
    def test_missing_theta_exits_4(self, tmp_path, trained, capsys, verb, argv, use):
        which = "period1" if verb == "train-moisture" else "period2"
        path = self._period(trained, which, tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[20] = lines[20].rsplit(",", 1)[0] + ","  # one day without theta
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([verb, "--config", str(trained["config"]), "--data", str(path), *argv,
                     *_model_args(trained, verb), "--out", str(out)]) == 4
        day = lines[20].split(",")[0]
        assert capsys.readouterr().err == (f"error: {which}: {path}: no theta_vwc on {day}; "
                                           f"{use} needs it on every day\n")
        assert not out.exists()


class TestUncoveredRefusals:

    def test_train_et0_on_a_file_that_holds_only_a_header(self, tmp_path, quick_config_path,
                                                         capsys):
        path = tmp_path / "daily.csv"
        path.write_text("date,day_index,tmax_c,tavg_c,tmin_c,precip_mm\n", encoding="utf-8")
        assert main(["train-et0", "--config", quick_config_path, "--data", str(path),
                     "--out", str(tmp_path / "et0.model")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: period1: {path} holds no days\n"

    def test_unexpected_exception_in_a_verb(self, tmp_path, monkeypatch, capsys):
        def fail(cfg):
            raise RuntimeError("something broke")
        monkeypatch.setattr(cli, "run_experiment", fail)
        assert main(["run", "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: something broke\n"
