"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the criteria carry their tolerances and runtime budgets inline.
"""

import math
import time
from datetime import date, datetime, timedelta
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import quick_config
from paddymoist.ann import (Mlp, MlpTopology, Pattern, TrainConfig, adaptive_gain,
                            backprop_step, forward, train)
from paddymoist.crop import kc_at
from paddymoist.evapo import (SiteLocation, extraterrestrial_radiation,
                              hargreaves_et0, hargreaves_series, predict_et0,
                              train_et0_model)
from paddymoist.experiment import (default_config, format_metrics_csv,
                                   format_report_text, run_experiment,
                                   weather_params_for)
from paddymoist.hydro import generate_truth, generate_weather, water_balance_step
from paddymoist.ingest import HalfHourRecord, daily_aggregate
from paddymoist.metrics import r_squared, rmse
from paddymoist.moisture import (ForcingDay, SimMode, simulate_moisture,
                                 train_moisture_model)
from paddymoist.persist import (et0_artifact, et0_from_artifact, load_model,
                                moisture_artifact, moisture_from_artifact,
                                save_model)


def _verdict(num: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


@pytest.fixture(scope="module")
def protocol():
    """The cross-period protocol on the default config, with phase timings."""
    cfg = default_config()
    weather1 = generate_weather(weather_params_for(cfg, cfg.period1))
    weather2 = generate_weather(weather_params_for(cfg, cfg.period2))
    theta1, _ = generate_truth(weather1, cfg.site, cfg.kc, cfg.field)
    theta2, _ = generate_truth(weather2, cfg.site, cfg.kc, cfg.field)

    t0 = time.perf_counter()
    et0_model, _ = train_et0_model(weather1, cfg.site, cfg.et0_train,
                                   temp_norm=cfg.temp_norm, et0_norm=cfg.et0_norm)
    harg1 = hargreaves_series(weather1, cfg.site)
    harg2 = hargreaves_series(weather2, cfg.site)
    pred1 = [predict_et0(et0_model, d.tmax, d.tavg, d.tmin) for d in weather1]
    pred2 = [predict_et0(et0_model, d.tmax, d.tavg, d.tmin) for d in weather2]
    et0_r2_train = r_squared(harg1, pred1)
    et0_r2_val = r_squared(harg2, pred2)
    et0_elapsed = time.perf_counter() - t0

    t1 = time.perf_counter()
    forcing1 = [ForcingDay(et0=pred1[d], precip=w.precip, kc=kc_at(cfg.kc, d))
                for d, w in enumerate(weather1)]
    forcing2 = [ForcingDay(et0=pred2[d], precip=w.precip, kc=kc_at(cfg.kc, d))
                for d, w in enumerate(weather2)]
    moisture_model, _ = train_moisture_model(forcing1, theta1, cfg.moisture_train,
                                             lag=cfg.lag, norms=cfg.moisture_norms)
    theta_init = [cfg.theta_init_sim] * cfg.lag
    est1 = simulate_moisture(moisture_model, forcing1, theta_init,
                             SimMode.TEACHER_FORCED, theta_obs=theta1)
    est2 = simulate_moisture(moisture_model, forcing2, theta_init,
                             SimMode.CLOSED_LOOP)
    theta_r2_train = r_squared(theta1, est1)
    theta_r2_val = r_squared(theta2, est2)
    moisture_elapsed = time.perf_counter() - t1

    return SimpleNamespace(
        cfg=cfg, weather1=weather1, weather2=weather2, theta1=theta1, theta2=theta2,
        et0_model=et0_model, moisture_model=moisture_model,
        et0_r2_train=et0_r2_train, et0_r2_val=et0_r2_val, et0_elapsed=et0_elapsed,
        theta_r2_train=theta_r2_train, theta_r2_val=theta_r2_val,
        moisture_elapsed=moisture_elapsed,
    )


def test_c1_gradient_fidelity(rendering):
    """Backprop gradients vs central finite differences on 100 random cases."""
    failures = []
    rng = np.random.default_rng(1234)
    topo = MlpTopology(3, 8, 1)
    h = 1e-6
    started = time.perf_counter()
    for case in range(100):
        net = Mlp.random(topo, rng)
        p = Pattern(rng.uniform(0, 1, 3), rng.uniform(0, 1, 1))
        updated, _ = backprop_step(net, p, lr=1.0)
        gain = updated.gain
        analytic = {"w_hidden": net.w_hidden - updated.w_hidden,
                    "w_output": net.w_output - updated.w_output}
        for which in ("w_hidden", "w_output"):
            w = getattr(net, which)
            fd = np.zeros_like(w)
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    vals = []
                    for sign in (+1.0, -1.0):
                        wp = w.copy()
                        wp[i, j] += sign * h
                        mats = {"w_hidden": net.w_hidden, "w_output": net.w_output,
                                which: wp}
                        probe = Mlp(topo, mats["w_hidden"], mats["w_output"], gain=gain)
                        out = forward(probe, p.input)
                        vals.append(0.5 * float(np.sum((p.target - out) ** 2)))
                    fd[i, j] = (vals[0] - vals[1]) / (2.0 * h)
            scale = max(float(np.max(np.abs(fd))), 1e-12)
            rel = float(np.max(np.abs(analytic[which] - fd))) / scale
            if rel > 1e-5:
                failures.append(f"case {case} {which}: relative error {rel:.2e}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _verdict(1, "gradient fidelity", failures)


def test_c2_gain_rule_conformance(rendering):
    """Applied gain equals the error-scaled rule, grid and live trace."""
    failures = []
    for k in range(11):  # e_p in {0.0, 0.1, ..., 1.0}, boundary 0.5 included
        e_p = k / 10.0
        ap = 2.0 * e_p
        expected = 1.0 / ap if ap > 1.0 else 1.0
        got = adaptive_gain(e_p)
        if got != expected:
            failures.append(f"grid e_p={e_p}: gain {got!r} != {expected!r}")

    rng = np.random.default_rng(99)
    patterns = [Pattern(rng.uniform(0, 1, 3), rng.uniform(0, 1, 1)) for _ in range(25)]
    trace = []
    train(Mlp.zeros(MlpTopology(3, 8, 1)), patterns,
          TrainConfig(seed=4, epochs=40), trace=trace)
    if len(trace) != 40 * 25:
        failures.append(f"trace has {len(trace)} entries, expected 1000")
    for entry in trace:
        ap = 2.0 * entry.pattern_error
        expected = 1.0 / ap if ap > 1.0 else 1.0
        if entry.gain != expected:
            failures.append(
                f"epoch {entry.epoch} pattern {entry.pattern_index}: "
                f"gain {entry.gain!r} != {expected!r} for e_p {entry.pattern_error!r}"
            )
            break
    _verdict(2, "gain-rule conformance", failures)


def test_c3_et0_surrogate_cross_period(protocol):
    """Two synthetic seasons, 1000-epoch training, cross-period agreement."""
    failures = []
    if protocol.et0_r2_train < 0.95:
        failures.append(f"train R^2 {protocol.et0_r2_train:.4f} < 0.95")
    if protocol.et0_r2_val < 0.93:
        failures.append(f"validation R^2 {protocol.et0_r2_val:.4f} < 0.93")
    if protocol.et0_elapsed >= 30.0:
        failures.append(f"runtime {protocol.et0_elapsed:.1f}s exceeds 30s")
    print(f"  et0 R^2 train {protocol.et0_r2_train:.4f} val {protocol.et0_r2_val:.4f} "
          f"({protocol.et0_elapsed:.1f}s)")
    _verdict(3, "ET0 surrogate cross-period", failures)


def test_c4_moisture_estimator_cross_period(protocol):
    """Teacher-forced training, closed-loop held-out simulation."""
    failures = []
    if protocol.theta_r2_train < 0.75:
        failures.append(f"train R^2 {protocol.theta_r2_train:.4f} < 0.75")
    if protocol.theta_r2_val < 0.70:
        failures.append(f"validation R^2 {protocol.theta_r2_val:.4f} < 0.70")
    if protocol.moisture_elapsed >= 60.0:
        failures.append(f"runtime {protocol.moisture_elapsed:.1f}s exceeds 60s")
    print(f"  theta R^2 train {protocol.theta_r2_train:.4f} val {protocol.theta_r2_val:.4f} "
          f"({protocol.moisture_elapsed:.1f}s)")
    _verdict(4, "moisture estimator cross-period", failures)


def test_c5_water_balance_conservation(protocol):
    """Per-step ledger closure within 1e-9 mm over a full season."""
    failures = []
    cfg = protocol.cfg
    depth_mm = cfg.field.root_depth * 1000.0
    theta = cfg.field.theta_init
    theta_series, forcing = generate_truth(protocol.weather1, cfg.site, cfg.kc,
                                           cfg.field)
    for d, (day, f) in enumerate(zip(protocol.weather1, forcing)):
        theta_next, fx = water_balance_step(theta, cfg.field, day.precip, 0.0,
                                            f.kc * f.et0)
        delta = (theta_next - theta) * depth_mm
        budget = day.precip - fx.etc_mm - fx.runoff_mm - fx.perc_mm
        if abs(delta - budget) > 1e-9:
            failures.append(f"day {d}: ledger gap {abs(delta - budget):.3e} mm")
        if not (cfg.field.theta_res <= theta_next <= cfg.field.theta_sat):
            failures.append(f"day {d}: theta {theta_next} left physical bounds")
        if theta_next != theta_series[d]:
            failures.append(f"day {d}: replay diverged from generate_truth")
        theta = theta_next
        if failures:
            break
    _verdict(5, "water-balance conservation", failures)


def test_c6_hargreaves_edge_cases():
    """Zero diurnal range, the -17.8 offset, and polar-night radiation."""
    failures = []
    if hargreaves_et0(25.0, 25.0, 25.0, 38.0) != 0.0:
        failures.append("Tmax = Tmin did not give ET0 = 0")
    if hargreaves_et0(-10.0, -17.8, -20.0, 30.0) != 0.0:
        failures.append("Tavg = -17.8 did not give ET0 = 0")
    site = SiteLocation(latitude=math.radians(-70.0))
    if extraterrestrial_radiation(site, 172) != 0.0:
        failures.append("polar night did not give Ra = 0")
    _verdict(6, "Hargreaves edge cases", failures)


def test_c7_determinism_and_persistence(protocol, tmp_path):
    """Bit-identical histories and reports; bit-exact artifact round trips."""
    failures = []

    patterns = [Pattern([float(x)], [0.3 * float(x) + 0.2])
                for x in np.linspace(0, 1, 30)]
    cfg = TrainConfig(seed=21, epochs=100)
    _, h1 = train(Mlp.zeros(MlpTopology(1, 8, 1)), patterns, cfg)
    _, h2 = train(Mlp.zeros(MlpTopology(1, 8, 1)), patterns, cfg)
    if h1 != h2:
        failures.append("loss histories differ between identical runs")

    quick = quick_config(et0_epochs=60, moisture_epochs=60)
    r1 = run_experiment(quick)
    r2 = run_experiment(quick)
    if format_report_text(r1) != format_report_text(r2):
        failures.append("report text differs between identical runs")
    if format_metrics_csv(r1) != format_metrics_csv(r2):
        failures.append("metrics csv differs between identical runs")

    rng = np.random.default_rng(77)
    et0_path = tmp_path / "et0.model"
    save_model(et0_artifact(protocol.et0_model), et0_path)
    loaded_et0 = et0_from_artifact(load_model(et0_path))
    for _ in range(100):
        tmin = float(rng.uniform(15, 25))
        tmax = tmin + float(rng.uniform(0, 12))
        tavg = float(rng.uniform(tmin, tmax))
        if predict_et0(loaded_et0, tmax, tavg, tmin) != predict_et0(
                protocol.et0_model, tmax, tavg, tmin):
            failures.append("et0 predictions changed across save/load")
            break

    moist_path = tmp_path / "moisture.model"
    save_model(moisture_artifact(protocol.moisture_model), moist_path)
    loaded_m = moisture_from_artifact(load_model(moist_path))
    forcing = [ForcingDay(float(rng.uniform(1, 8)), float(rng.uniform(0, 50)),
                          float(rng.uniform(0.9, 1.3))) for _ in range(100)]
    a = simulate_moisture(protocol.moisture_model, forcing, [0.4], SimMode.CLOSED_LOOP)
    b = simulate_moisture(loaded_m, forcing, [0.4], SimMode.CLOSED_LOOP)
    if a != b:
        failures.append("moisture predictions changed across save/load")
    _verdict(7, "determinism and persistence", failures)


def test_c8_metric_oracle_equivalence():
    """r_squared and rmse vs direct-formula oracles on 1000 random pairs."""
    failures = []
    rng = np.random.default_rng(55)
    for case in range(1000):
        n = int(rng.integers(2, 40))
        obs = list(rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), n))
        est = list(rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3), n))

        mo = math.fsum(obs) / n
        me = math.fsum(est) / n
        cov = math.fsum((o - mo) * (e - me) for o, e in zip(obs, est))
        vo = math.fsum((o - mo) ** 2 for o in obs)
        ve = math.fsum((e - me) ** 2 for e in est)
        r2_direct = cov * cov / (vo * ve)
        if abs(r_squared(obs, est) - r2_direct) > 1e-12:
            failures.append(f"case {case}: r_squared off by "
                            f"{abs(r_squared(obs, est) - r2_direct):.2e}")
            break
        rmse_direct = math.sqrt(math.fsum((o - e) ** 2 for o, e in zip(obs, est)) / n)
        if abs(rmse(obs, est) - rmse_direct) > 1e-12:
            failures.append(f"case {case}: rmse off by "
                            f"{abs(rmse(obs, est) - rmse_direct):.2e}")
            break
    _verdict(8, "metric oracle equivalence", failures)


def test_c9_ingestion():
    """Coverage rule and hand-computed aggregation on crafted fixtures."""
    failures = []

    def day_records(day, temps, precip, n):
        start = datetime(day.year, day.month, day.day)
        return [HalfHourRecord(start + timedelta(minutes=30 * i),
                               temp=temps[i], precip=precip) for i in range(n)]

    temps_full = [15.0 + 0.25 * i for i in range(48)]   # 15.00 .. 26.75
    temps_short = [18.0] * 39
    records = (day_records(date(2011, 1, 5), temps_full, 0.3, 48)
               + day_records(date(2011, 1, 6), temps_short, 1.0, 39))
    agg = daily_aggregate(records, min_coverage=40)

    if len(agg.days) != 1:
        failures.append(f"kept {len(agg.days)} days, expected 1")
    if len(agg.gaps) != 1 or agg.gaps[0].date != date(2011, 1, 6) \
            or agg.gaps[0].n_records != 39:
        failures.append(f"gap report wrong: {agg.gaps}")
    day = agg.days[0]
    # hand-computed: min 15.0, max 26.75, mean 15 + 0.25 * 47/2 = 20.875, sum 14.4
    if day.tmin != 15.0:
        failures.append(f"tmin {day.tmin} != 15.0")
    if day.tmax != 26.75:
        failures.append(f"tmax {day.tmax} != 26.75")
    if abs(day.tavg - 20.875) > 1e-12:
        failures.append(f"tavg {day.tavg} != 20.875")
    if abs(day.precip - 14.4) > 1e-12:
        failures.append(f"precip {day.precip} != 14.4")

    boundary = daily_aggregate(day_records(date(2011, 1, 7), [20.0] * 40, 0.0, 40),
                               min_coverage=40)
    if len(boundary.days) != 1 or boundary.gaps:
        failures.append("40/48 coverage day was not kept")
    _verdict(9, "ingestion", failures)
