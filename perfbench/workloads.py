"""The benchmark's three workloads: set-up, one operation, and output checks.

Every workload is a closed loop from one process: the next operation starts
when the previous one has returned.  ``setup`` builds the inputs from the
workload seed in an existing directory (and warms up, so the first timed
operation is not a cold one); ``op`` is the timed unit of work; ``check`` lists what is wrong with
an operation's output.  ``op`` takes a tracer: the untraced run passes a
``NullTracer`` and the traced run a ``Tracer``, which records one span per
call into a package layer.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from datetime import date as Date, datetime, timedelta
from pathlib import Path

import numpy as np

from paddymoist.ann import Mlp, MlpTopology
from paddymoist.crop import kc_at, validate_schedule
from paddymoist.evapo import (Et0Model, hargreaves_series, predict_et0,
                              train_et0_model)
from paddymoist.experiment import (ExperimentReport, MetricCell, PeriodData,
                                   PeriodResult, PeriodSpec, build_forcing,
                                   default_config, export_plot_data, format_config,
                                   format_report_text, load_period, parse_config,
                                   run_experiment,
                                   weather_params_for, write_report_files)
from paddymoist.hydro import WeatherGenParams, generate_truth, generate_weather
from paddymoist.ingest import (HalfHourRecord, daily_aggregate, read_daily_csv,
                               read_half_hourly_csv, write_daily_csv,
                               write_half_hourly_csv)
from paddymoist.metrics import nash_sutcliffe, r_squared, rmse
from paddymoist.moisture import (MoistureModel, SimMode, build_patterns,
                                 simulate_moisture, train_moisture_model)
from paddymoist.persist import (et0_artifact, et0_from_artifact, load_model,
                                moisture_artifact, moisture_from_artifact,
                                save_model)

from spans import NullTracer

CELLS = ("et0_train", "et0_val", "theta_train", "theta_val")
# Acceptance floors on the default experiment's R^2 cells.
R2_FLOORS = {"et0_train": 0.95, "et0_val": 0.93, "theta_train": 0.75, "theta_val": 0.70}
# The default experiment cut to two epochs per network: the warm-up and the
# probe run the whole pipeline with it in a fraction of a second.
SHORT_CONFIG = "train.et0.epochs = 2\ntrain.moisture.epochs = 2\n"


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def cell(tr, obs, est) -> MetricCell:
    with tr.span("metrics.cell"):
        return MetricCell(n=len(obs), r_squared=r_squared(obs, est),
                          nash_sutcliffe=nash_sutcliffe(obs, est), rmse=rmse(obs, est))


def spanned_load_period(tr, cfg, spec: PeriodSpec, name: str) -> PeriodData:
    """``load_period`` for a synthetic period; traced, its two hydro calls get spans."""
    if isinstance(tr, NullTracer):
        return load_period(cfg, spec, name)
    with tr.span("experiment.load_period"):
        with tr.span("hydro.generate_weather", n=spec.n_days):
            weather = generate_weather(weather_params_for(cfg, spec))
        with tr.span("hydro.generate_truth", n=spec.n_days):
            theta, _ = generate_truth(weather, cfg.site, cfg.kc, cfg.field)
        return PeriodData(name=name, days=weather, theta_obs=theta)


def time_kc(tr, cfg, n_days: int) -> None:
    """Times the crop layer alone; its calls otherwise run inside
    ``build_forcing`` and ``generate_truth``."""
    if not isinstance(tr, NullTracer):
        with tr.span("crop.kc_at", n=n_days):
            for d in range(n_days):
                kc_at(cfg.kc, d)


# --------------------------------------------------------------- experiment


@dataclass
class ExperimentCtx:
    out: Path
    digest: "str | None" = None
    last: "ExperimentReport | None" = None
    counts: dict = field(default_factory=dict)


def traced_run_experiment(tr, config_text: str, counts: dict) -> ExperimentReport:
    """``run_experiment(parse_config(config_text))`` stage by stage, one span
    per call, in the same order.

    Adds the visit counts read from the public ``trace=`` argument of the
    two training functions to ``counts``.
    """
    with tr.span("experiment.parse_config"):
        cfg = parse_config(config_text)
    p1 = spanned_load_period(tr, cfg, cfg.period1, "period1")
    p2 = spanned_load_period(tr, cfg, cfg.period2, "period2")
    with tr.span("crop.validate_schedule", n=2):
        validate_schedule(cfg.kc, len(p1.days))
        validate_schedule(cfg.kc, len(p2.days))
    et0_trace: list = []
    with tr.span("evapo.train_et0_model") as sp:
        et0_model, et0_losses = train_et0_model(
            p1.days, cfg.site, cfg.et0_train,
            temp_norm=cfg.temp_norm, et0_norm=cfg.et0_norm, trace=et0_trace)
        sp["n"] = len(et0_trace)
    harg, pred = [], []
    for p in (p1, p2):
        with tr.span("evapo.hargreaves_series", n=len(p.days)):
            harg.append(hargreaves_series(p.days, cfg.site))
    for p in (p1, p2):
        with tr.span("evapo.predict_et0", n=len(p.days)):
            pred.append([predict_et0(et0_model, d.tmax, d.tavg, d.tmin) for d in p.days])
    forcing = []
    for p in (p1, p2):
        with tr.span("experiment.build_forcing", n=len(p.days)):
            forcing.append(build_forcing(cfg, et0_model, p))
        time_kc(tr, cfg, len(p.days))
    with tr.span("moisture.build_patterns"):
        build_patterns(forcing[0], p1.theta_obs, cfg.lag, cfg.moisture_norms)
    m_trace: list = []
    with tr.span("moisture.train_moisture_model") as sp:
        moisture_model, m_losses = train_moisture_model(
            forcing[0], p1.theta_obs, cfg.moisture_train, lag=cfg.lag,
            norms=cfg.moisture_norms, trace=m_trace)
        sp["n"] = len(m_trace)
    theta_init = [cfg.theta_init_sim] * cfg.lag
    with tr.span("moisture.simulate_teacher_forced", n=len(p1.days)):
        est1 = simulate_moisture(moisture_model, forcing[0], theta_init,
                                 SimMode.TEACHER_FORCED, theta_obs=p1.theta_obs)
    mode_span = ("moisture.simulate_closed_loop" if cfg.sim_mode is SimMode.CLOSED_LOOP
                 else "moisture.simulate_teacher_forced")
    with tr.span(mode_span, n=len(p2.days)):
        est2 = simulate_moisture(
            moisture_model, forcing[1], theta_init, cfg.sim_mode,
            theta_obs=p2.theta_obs if cfg.sim_mode is SimMode.TEACHER_FORCED else None)
    cells = {
        "et0_train": cell(tr, harg[0], pred[0]),
        "et0_val": cell(tr, harg[1], pred[1]),
        "theta_train": cell(tr, p1.theta_obs, est1),
        "theta_val": cell(tr, p2.theta_obs, est2),
    }
    with tr.span("experiment.format_config"):
        echoed = format_config(cfg)
    # The report's summary lines, as run_experiment derives them.
    residuals = [p - h for p, h in zip(pred[0], harg[0])]
    order = sorted(range(len(harg[0])), key=lambda i: harg[0][i])
    top = order[-max(1, len(order) // 4):]
    for n_in, visits in ((3, et0_trace), (3 + cfg.lag, m_trace)):
        gains = [1.0] + [v.gain for v in visits]
        for key, value in (
                (f"visits_{n_in}", len(visits)),
                ("shrunk", sum(1 for v in visits if v.gain < 1.0)),
                # A visit runs a second forward pass when its gain differs
                # from the one the network carries; training starts at 1.0.
                (f"second_forwards_{n_in}", sum(a != b for a, b in zip(gains, gains[1:])))):
            counts[key] = counts.get(key, 0) + value
    return ExperimentReport(
        config_text=echoed,
        period1=PeriodResult(name="period1", days=p1.days, theta_obs=p1.theta_obs,
                             hargreaves=harg[0], et0_pred=pred[0], theta_est=est1,
                             kc_series=[f.kc for f in forcing[0]]),
        period2=PeriodResult(name="period2", days=p2.days, theta_obs=p2.theta_obs,
                             hargreaves=harg[1], et0_pred=pred[1], theta_est=est2,
                             kc_series=[f.kc for f in forcing[1]]),
        cells=cells, sim_mode=cfg.sim_mode,
        et0_final_loss=et0_losses[-1], moisture_final_loss=m_losses[-1],
        et0_mean_residual=sum(residuals) / len(residuals),
        et0_mean_residual_top_quartile=sum(residuals[i] for i in top) / len(top),
        et0_model=et0_model, moisture_model=moisture_model,
    )


def write_outputs(tr, report: ExperimentReport, out: Path) -> None:
    with tr.span("experiment.write_outputs"):
        write_report_files(report, out)
        export_plot_data(report, out)


def report_digest(report: ExperimentReport) -> str:
    return hashlib.sha256(format_report_text(report).encode()).hexdigest()


def cells_key(report: ExperimentReport) -> tuple:
    return tuple((c, report.cells[c].n, report.cells[c].r_squared,
                  report.cells[c].nash_sutcliffe, report.cells[c].rmse) for c in CELLS)


class Experiment:
    """What ``paddymoist run`` does on the default config; the seed is unused."""

    name = "experiment"
    min_ops = 1

    def setup(self, seed: int, tmp: Path) -> ExperimentCtx:
        text = format_config(default_config())
        if format_config(parse_config(text)) != text:
            raise RuntimeError("default config does not round-trip")
        # Warm-up: the whole pipeline at two epochs, outputs written.
        warm = run_experiment(parse_config(SHORT_CONFIG))
        write_outputs(NullTracer(), warm, tmp / "warm-up")
        return ExperimentCtx(out=tmp / "run")

    def op(self, ctx: ExperimentCtx, i: int, tr) -> ExperimentReport:
        if isinstance(tr, NullTracer):
            report = run_experiment(default_config())
        else:
            report = traced_run_experiment(tr, "", ctx.counts)
        write_outputs(tr, report, ctx.out)
        return report

    def check(self, ctx: ExperimentCtx, i: int, report: ExperimentReport) -> list:
        problems = [f"{c} R^2 {report.cells[c].r_squared:.4f} < {floor}"
                    for c, floor in R2_FLOORS.items() if report.cells[c].r_squared < floor]
        d = report_digest(report)
        if ctx.digest is None:
            ctx.digest = d
        elif d != ctx.digest:
            problems.append("report text differs from the first operation's")
        if ctx.last is not None and cells_key(report) != cells_key(ctx.last):
            problems.append("metric cells differ from the previous operation's")
        ctx.last = report
        return problems

    def accuracy(self, ctx: ExperimentCtx) -> tuple[float, float]:
        return ctx.last.cells["et0_val"].r_squared, ctx.last.cells["theta_val"].r_squared


# ------------------------------------------------------------------ seasons


@dataclass
class SeasonsCtx:
    cfg: object
    et0_model: Et0Model
    moisture_model: MoistureModel
    pool: list
    digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


@dataclass
class Season:
    spec: PeriodSpec
    pred: list
    est: list
    cells: tuple


class Seasons:
    """A trained pair validated on many held-out synthetic seasons; no training."""

    name = "seasons"
    EPOCHS = 50         # lowered: forward cost does not depend on the weights
    # Distinct seasons per run, visited in turn.  Odd, so that the traced run,
    # which alternates untraced and traced operations, runs each both ways.
    POOL = 201
    WARMUP = 20         # seasons run in set-up before timing starts
    min_ops = POOL

    def setup(self, seed: int, tmp: Path) -> SeasonsCtx:
        cfg = parse_config(f"train.et0.epochs = {self.EPOCHS}\n"
                           f"train.moisture.epochs = {self.EPOCHS}\n")
        p1 = load_period(cfg, cfg.period1, "period1")
        et0_model, _ = train_et0_model(p1.days, cfg.site, cfg.et0_train,
                                       temp_norm=cfg.temp_norm, et0_norm=cfg.et0_norm)
        forcing = build_forcing(cfg, et0_model, p1)
        moisture_model, _ = train_moisture_model(forcing, p1.theta_obs, cfg.moisture_train,
                                                 lag=cfg.lag, norms=cfg.moisture_norms)
        save_model(et0_artifact(et0_model), tmp / "et0.model")
        save_model(moisture_artifact(moisture_model), tmp / "moisture.model")
        loaded_et0 = et0_from_artifact(load_model(tmp / "et0.model"))
        loaded_m = moisture_from_artifact(load_model(tmp / "moisture.model"))
        for a, b in ((et0_model.net, loaded_et0.net), (moisture_model.net, loaded_m.net)):
            if not same_weights(a, b):
                raise RuntimeError("trained weights do not survive save/load bit-exactly")
        # Held-out season seeds start at 1000, clear of the protocol's 101 and 202.
        rng = np.random.default_rng(seed)
        pool = [PeriodSpec(planting=Date(2010, 1, 1) + timedelta(days=int(o)),
                           n_days=cfg.period2.n_days, source="synth", seed=int(s))
                for s, o in zip(rng.integers(1000, 2**31, self.POOL),
                                rng.integers(0, 365, self.POOL))]
        ctx = SeasonsCtx(cfg=cfg, et0_model=loaded_et0, moisture_model=loaded_m, pool=pool)
        for i in range(self.WARMUP):
            self.op(ctx, i, NullTracer())
        return ctx

    def op(self, ctx: SeasonsCtx, i: int, tr) -> Season:
        cfg, spec = ctx.cfg, ctx.pool[i % len(ctx.pool)]
        with tr.span("bench.season"):
            p = spanned_load_period(tr, cfg, spec, "season")
            with tr.span("evapo.hargreaves_series", n=len(p.days)):
                harg = hargreaves_series(p.days, cfg.site)
            with tr.span("evapo.predict_et0", n=len(p.days)):
                pred = [predict_et0(ctx.et0_model, d.tmax, d.tavg, d.tmin) for d in p.days]
            with tr.span("experiment.build_forcing", n=len(p.days)):
                forcing = build_forcing(cfg, ctx.et0_model, p)
            time_kc(tr, cfg, len(p.days))
            with tr.span("moisture.simulate_closed_loop", n=len(p.days)):
                est = simulate_moisture(ctx.moisture_model, forcing,
                                        [cfg.theta_init_sim] * cfg.lag, SimMode.CLOSED_LOOP)
            cells = (cell(tr, harg, pred), cell(tr, p.theta_obs, est))
        return Season(spec, pred, est, cells)

    def check(self, ctx: SeasonsCtx, i: int, s: Season) -> list:
        problems = []
        nz = ctx.cfg.theta_norm
        if len(s.est) != s.spec.n_days:
            problems.append(f"{len(s.est)} estimates for {s.spec.n_days} days")
        if not all(math.isfinite(v) and nz.lo <= v <= nz.hi for v in s.est):
            problems.append("estimate not finite or outside the theta normalizer")
        if not all(math.isfinite(v) for v in s.pred):
            problems.append("non-finite ET0 estimate")
        d = digest(s.pred, s.est, s.cells)
        if ctx.digests.setdefault(s.spec, d) != d:
            problems.append(f"season {s.spec} gave a different digest")
        return problems

    def accuracy(self, ctx: SeasonsCtx) -> tuple[float, float]:
        """R^2 on the default validation season (period 2), as in ``experiment``.

        The held-out seasons differ from seed to seed, and so would their
        R^2; one fixed season makes the figure repeat exactly.
        """
        s = self.op(replace(ctx, pool=[ctx.cfg.period2]), 0, NullTracer())
        return s.cells[0].r_squared, s.cells[1].r_squared


def same_weights(a: Mlp, b: Mlp) -> bool:
    return (a.topology == b.topology and a.gain == b.gain
            and a.w_hidden.tobytes() == b.w_hidden.tobytes()
            and a.w_output.tobytes() == b.w_output.tobytes())


# --------------------------------------------------------------- station_io


@dataclass
class StationCtx:
    half_hourly: Path
    daily: Path
    artifact_paths: tuple
    artifacts: tuple
    source_days: dict           # date -> (DailyWeather, theta) the file was made from
    gap_dates: list
    rows: int
    last: object = None
    counts: dict = field(default_factory=lambda: {"gap_days": 0, "bytes_read": 0})


@dataclass
class StationResult:
    agg: object
    days: list
    theta: list
    loaded: list


def synth_station(seed: int, n_days: int, start: Date):
    """A half-hourly station series drawn from synthetic daily weather.

    Returns (records, source days, daily theta, dates of injected gap days).
    About one day in twenty keeps fewer than 40 of its 48 intervals, so the
    aggregator must exclude it; as many again lose 1-8 intervals and stay.
    """
    rng = np.random.default_rng(seed)
    weather = generate_weather(WeatherGenParams(seed=int(rng.integers(1000, 2**31)),
                                                n_days=n_days, start_date=start))
    theta = np.clip(0.35 + np.cumsum(rng.normal(0.0, 0.01, n_days)), 0.2, 0.52)
    # Diurnal cycle with its minimum at 02:00 (slot 4) and maximum at 14:00
    # (slot 28), symmetric about tavg so a full day averages back to it.
    shape = -np.cos(2.0 * np.pi * (np.arange(48) - 4) / 48.0)
    records, gaps = [], []
    for day, th in zip(weather, theta):
        fate = rng.uniform()
        if fate < 0.05:
            keep = int(rng.integers(8, 40))
            gaps.append(day.date)
        elif fate < 0.10:
            keep = int(rng.integers(40, 48))
        else:
            keep = 48
        amplitude = min(day.tmax - day.tavg, day.tavg - day.tmin)
        profile = day.tavg + amplitude * shape
        profile[4], profile[28] = day.tmin, day.tmax
        slots = np.sort(rng.choice(48, keep, replace=False))
        temps = profile[slots]
        rain = np.zeros(keep)
        if day.precip > 0.0:
            wet = rng.choice(keep, min(6, keep), replace=False)
            rain[wet] = day.precip * rng.dirichlet(np.ones(len(wet)))
        th_slots = np.clip(th + rng.normal(0.0, 0.003, keep), 0.0, 1.0)
        sensed = rng.uniform(size=keep) > 0.1
        midnight = datetime(day.date.year, day.date.month, day.date.day)
        for k in range(keep):
            records.append(HalfHourRecord(
                timestamp=midnight + timedelta(minutes=30 * int(slots[k])),
                temp=float(temps[k]), precip=float(rain[k]),
                theta=float(th_slots[k]) if sensed[k] else None))
    return records, weather, [float(v) for v in theta], gaps


class StationIO:
    """Half-hourly station file -> daily file and back, plus artifact round trips."""

    name = "station_io"
    ROUNDTRIPS = 10     # save_model/load_model round trips of each artifact per op
    min_ops = 1

    def __init__(self, n_days: int = 2 * 365):
        self.n_days = n_days

    def setup(self, seed: int, tmp: Path) -> StationCtx:
        records, weather, theta, gaps = synth_station(seed, self.n_days, Date(2010, 1, 1))
        hh = tmp / "station.csv"
        write_half_hourly_csv(hh, records)
        rng = np.random.default_rng(seed + 1)
        artifacts = (
            et0_artifact(Et0Model(Mlp.random(MlpTopology(3, 8, 1), rng)), {"seed": seed}),
            moisture_artifact(MoistureModel(Mlp.random(MlpTopology(4, 8, 1), rng))),
        )
        ctx = StationCtx(half_hourly=hh, daily=tmp / "daily.csv",
                         artifact_paths=(tmp / "et0.model", tmp / "moisture.model"),
                         artifacts=artifacts,
                         source_days={d.date: (d, t) for d, t in zip(weather, theta)},
                         gap_dates=gaps, rows=len(records))
        self.op(ctx, 0, NullTracer())   # warm-up
        return ctx

    def op(self, ctx: StationCtx, i: int, tr) -> StationResult:
        with tr.span("bench.station"):
            with tr.span("ingest.read_half_hourly_csv", n=ctx.rows):
                records = read_half_hourly_csv(ctx.half_hourly)
            with tr.span("ingest.daily_aggregate", n=ctx.rows):
                agg = daily_aggregate(records)
            with tr.span("ingest.write_daily_csv", n=len(agg.days)):
                write_daily_csv(ctx.daily, agg.days, agg.theta)
            with tr.span("ingest.read_daily_csv", n=len(agg.days)):
                days, theta = read_daily_csv(ctx.daily)
            loaded = []
            for _ in range(self.ROUNDTRIPS):
                for art, path in zip(ctx.artifacts, ctx.artifact_paths):
                    with tr.span("persist.save_model"):
                        save_model(art, path)
                    with tr.span("persist.load_model"):
                        loaded.append(load_model(path))
        if not isinstance(tr, NullTracer):
            ctx.counts["gap_days"] += len(agg.gaps)
            ctx.counts["bytes_read"] += ctx.half_hourly.stat().st_size + ctx.daily.stat().st_size
        return StationResult(agg, days, theta, loaded)

    def check(self, ctx: StationCtx, i: int, r: StationResult) -> list:
        problems = []
        if [g.date for g in r.agg.gaps] != ctx.gap_dates:
            problems.append(f"{len(r.agg.gaps)} gap days, {len(ctx.gap_dates)} injected")
        if r.days != r.agg.days or r.theta != r.agg.theta:
            problems.append("daily CSV does not round-trip exactly")
        for art, back in zip(ctx.artifacts * self.ROUNDTRIPS, r.loaded):
            if not (back.kind == art.kind and back.lag == art.lag and back.gain == art.gain
                    and back.norms == art.norms and back.provenance == {
                        k: str(v) for k, v in art.provenance.items()}
                    and back.w_hidden.tobytes() == art.w_hidden.tobytes()
                    and back.w_output.tobytes() == art.w_output.tobytes()):
                problems.append(f"{art.kind} artifact does not round-trip bit-exactly")
                break
        ctx.last = r
        return problems

    def accuracy(self, ctx: StationCtx) -> tuple[float, float]:
        """Ingested daily series against the source the station file was made from."""
        days, theta = ctx.last.days, ctx.last.theta
        src = [ctx.source_days[d.date] for d in days]
        site = default_config().site
        et0_r2 = r_squared(hargreaves_series([d for d, _ in src], site),
                           hargreaves_series(days, site))
        sensed = [(t_src, t) for (_, t_src), t in zip(src, theta) if t is not None]
        return et0_r2, r_squared([a for a, _ in sensed], [b for _, b in sensed])


def probe(tr, tmp: Path) -> tuple[dict, list]:
    """Every layer once, on small inputs, traced as operation ``"probe"``.

    The traced run ends with it, so each per-layer metric has a measured
    value on every workload; a layer the workload's own operations reach
    is reported from those operations instead.  Also checks that the
    stage-by-stage experiment reproduces ``run_experiment`` bit-exactly.
    Returns the probe's training visit counts and any problems found.
    """
    tr.op_id = "probe"
    counts: dict = {}
    report = traced_run_experiment(tr, SHORT_CONFIG, counts)
    write_outputs(tr, report, tmp / "probe")
    reference = run_experiment(parse_config(SHORT_CONFIG))
    problems = []
    if (cells_key(report) != cells_key(reference)
            or report_digest(report) != report_digest(reference)):
        problems.append("stage-by-stage experiment differs from run_experiment")
    station = StationIO(n_days=31)
    (tmp / "probe-station").mkdir()
    ctx = station.setup(0, tmp / "probe-station")
    problems += station.check(ctx, 0, station.op(ctx, 0, tr))
    tr.op_id = None
    return counts, problems


WORKLOADS = {w.name: w for w in (Experiment(), Seasons(), StationIO())}
