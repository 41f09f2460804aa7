"""Command-line interface.

Verbs mirror the pipeline stages: ``synth`` writes two synthetic seasons,
``ingest`` collapses half-hourly station files to daily, ``train-et0`` /
``train-moisture`` fit and save the two models, ``simulate`` runs a saved
moisture model over a season, ``evaluate`` scores two CSV columns,
and ``run`` executes the whole two-period experiment, writing the report,
the metrics and the tidy plot CSVs.

The override flags are set over the ``--config`` file's lines in one parse;
a stepping verb reads ``--data`` as a config ``csv`` period is read.

Exit codes: 0 success, 2 usage, 3 invalid values or dimensions, 4 malformed
data or config (and a season that misfits the crop calendar), 5 unsupported
artifact version, 6 I/O failure, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import persist
from .errors import (ArtifactParseError, ArtifactVersionError, DataFormatError,
                     PaddymoistError)
from .evapo import train_et0_model
from .experiment import (CELLS, build_forcing, check_theta_every_day, check_theta_obs,
                         export_plot_data, load_period, parse_config, read_period,
                         run_experiment, write_report_files, write_synth_periods)
from .ingest import (daily_aggregate, read_columns, read_daily_csv, read_half_hourly_csv,
                     write_daily_csv)
from .metrics import nash_sutcliffe, r_squared, rmse
from .moisture import SimMode, simulate_moisture, train_moisture_model


def _load_config(args):
    """The ``--config`` file (or the defaults) with each override flag given
    set over it, so one parse checks the flag's value and it wins over the
    file's own line for its key."""
    text = "" if args.config is None else Path(args.config).read_text(encoding="utf-8")
    return parse_config(text, {key: str(value) for key, value in vars(args).items()
                               if "." in key and value is not None})


def _forcing(cfg, which: str, args):
    """A stepping verb's season, from ``--data`` or else the config period
    ``which``, its forcing through the surrogate saved at ``args.et0_model``,
    and the name its errors go by."""
    period = (load_period(cfg, getattr(cfg, which), which) if args.data is None
              else read_period(cfg, args.data, which))
    et0_model = persist.et0_from_artifact(persist.load_model(args.et0_model))
    where = which if args.data is None else f"{which}: {args.data}"
    return period.days, period.theta_obs, build_forcing(cfg, et0_model, period), where


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    for p in write_synth_periods(cfg, args.out):
        print(p)
    return 0


def cmd_ingest(args) -> int:
    records = read_half_hourly_csv(args.input)
    agg = daily_aggregate(records, min_coverage=args.min_coverage)
    write_daily_csv(args.output, agg.days, agg.theta)
    print(f"wrote {len(agg.days)} days to {args.output}")
    if agg.gaps:
        print(f"excluded {len(agg.gaps)} day(s) under {args.min_coverage}/48 coverage:")
        for gap in agg.gaps:
            print(f"  {gap.date}: {gap.n_records} intervals")
    return 0


def cmd_train_et0(args) -> int:
    cfg = _load_config(args)
    if args.data is None:
        days = load_period(cfg, cfg.period1, "period1").days
    else:  # the surrogate sees one day at a time: no calendar, gaps and any length
        days, theta = read_daily_csv(args.data)
        if not days:
            raise DataFormatError(f"period1: {args.data} holds no days")
        check_theta_obs(days, theta, cfg.theta_norm, f"period1: {args.data}")
    model, losses = train_et0_model(days, cfg.site, cfg.et0_train,
                                    temp_norm=cfg.temp_norm, et0_norm=cfg.et0_norm)
    digest = persist.data_digest([d.tmax for d in days], [d.tavg for d in days],
                                 [d.tmin for d in days])
    persist.save_model(persist.et0_artifact(model, {
        "seed": str(cfg.et0_train.seed), "epochs": str(cfg.et0_train.epochs),
        "data_digest": digest,
    }), args.out)
    print(f"trained et0 surrogate on {len(days)} days; "
          f"final epoch loss {losses[-1]!r}; saved to {args.out}")
    return 0


def cmd_train_moisture(args) -> int:
    cfg = _load_config(args)
    days, theta, forcing, where = _forcing(cfg, "period1", args)
    check_theta_every_day(days, theta, where, "training")
    model, losses = train_moisture_model(forcing, theta, cfg.moisture_train, lag=cfg.lag,
                                         norms=cfg.moisture_norms)
    digest = persist.data_digest([f.et0 for f in forcing], [f.precip for f in forcing],
                                 theta)
    persist.save_model(persist.moisture_artifact(model, {
        "seed": str(cfg.moisture_train.seed), "epochs": str(cfg.moisture_train.epochs),
        "data_digest": digest,
    }), args.out)
    print(f"trained moisture estimator on {len(days)} days; "
          f"final epoch loss {losses[-1]!r}; saved to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    days, theta, forcing, where = _forcing(cfg, "period2", args)
    moisture_model = persist.moisture_from_artifact(persist.load_model(args.model))
    # the model clamps its theta inputs to its own normalizer, not the config's
    norm, norm_name = moisture_model.norms.theta, f"{args.model} norm theta"
    if not norm.lo <= cfg.theta_init_sim <= norm.hi:
        raise DataFormatError(f"moisture.theta_init: need theta_init in {norm_name} "
                              f"[{norm.lo!r}, {norm.hi!r}], got {cfg.theta_init_sim!r}")
    theta_obs = None
    if cfg.sim_mode is SimMode.TEACHER_FORCED:
        check_theta_every_day(days, theta, where, "teacher-forced simulation")
        check_theta_obs(days, theta, norm, where, norm_name)
        theta_obs = theta
    theta_init = [cfg.theta_init_sim] * moisture_model.lag
    estimates = simulate_moisture(moisture_model, forcing, theta_init, cfg.sim_mode,
                                  theta_obs=theta_obs)
    has_obs = all(v is not None for v in theta)
    lines = ["date,estimated_theta_vwc" + ",observed_theta_vwc" * has_obs]
    lines += [f"{d.date.isoformat()},{e!r}" + f",{t!r}" * has_obs
              for d, e, t in zip(days, estimates, theta)]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"simulated {len(estimates)} days ({cfg.sim_mode.value}); wrote {args.out}")
    if has_obs:
        print(f"r_squared {r_squared(theta, estimates)!r}  rmse {rmse(theta, estimates)!r}")
    return 0


def cmd_evaluate(args) -> int:
    obs, est = read_columns(args.file, (args.obs_col, args.est_col))
    print(f"n {len(obs)}")
    print(f"r_squared {r_squared(obs, est)!r}")
    print(f"nash_sutcliffe {nash_sutcliffe(obs, est)!r}")
    print(f"rmse {rmse(obs, est)!r}")
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    report = run_experiment(cfg)
    written = write_report_files(report, args.out)
    written += export_plot_data(report, args.out)
    for p in written:
        print(p)
    for name in CELLS:
        c = report.cells[name]
        print(f"{name}: r_squared {c.r_squared:.4f}  rmse {c.rmse:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paddymoist",
        description="Paddy-field soil moisture estimation from limited weather data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # An override flag's dest is the config key it sets: a dotted name, as no
    # other dest is.  The key's own check applies; see _load_config.

    def add(name, fn, help_text, config=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if config:
            p.add_argument("--config", help="experiment config file (defaults built in)")
        return p

    p = add("synth", cmd_synth, "generate the two synthetic periods as daily CSVs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed1", type=int, dest="period1.seed", help="period 1 weather seed")
    p.add_argument("--seed2", type=int, dest="period2.seed", help="period 2 weather seed")

    p = add("ingest", cmd_ingest, "aggregate a half-hourly CSV to daily", config=False)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--min-coverage", type=int, default=40,
                   help="min intervals of 48 to keep a day, 1..48 (default 40)")

    p = add("train-et0", cmd_train_et0, "train and save the ET0 surrogate")
    p.add_argument("--data", help="daily CSV of any length, gaps allowed: no crop calendar "
                                  "(default: config period 1)")
    p.add_argument("--out", required=True, help="model artifact path")
    p.add_argument("--seed", type=int, dest="train.et0.seed", help="training seed")

    p = add("train-moisture", cmd_train_moisture, "train and save the moisture estimator")
    p.add_argument("--data", help="daily CSV with theta_vwc (default: config period 1)")
    p.add_argument("--et0-model", required=True, help="saved ET0 surrogate")
    p.add_argument("--out", required=True, help="model artifact path")
    p.add_argument("--seed", type=int, dest="train.moisture.seed", help="training seed")

    p = add("simulate", cmd_simulate, "run a saved moisture model over a season")
    p.add_argument("--data", help="daily CSV (default: config period 2)")
    p.add_argument("--model", required=True, help="saved moisture estimator")
    p.add_argument("--et0-model", required=True, help="saved ET0 surrogate")
    p.add_argument("--mode", choices=[m.value for m in SimMode], dest="moisture.sim_mode",
                   help="lag source (moisture.sim_mode)")
    p.add_argument("--out", required=True, help="estimates CSV path")

    p = add("evaluate", cmd_evaluate, "score two columns of a CSV against each other",
            config=False)
    p.add_argument("--file", required=True)
    p.add_argument("--obs-col", default="observed_theta_vwc")
    p.add_argument("--est-col", default="estimated_theta_vwc")

    p = add("run", cmd_run, "full two-period experiment: report, metrics, plot data")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, ArtifactVersionError):
        return 5
    if isinstance(exc, (DataFormatError, ArtifactParseError)):
        return 4
    if isinstance(exc, (PaddymoistError, ValueError)):
        return 3
    if isinstance(exc, OSError):
        return 6
    return 1


def main(argv: "list[str] | None" = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # mapped to stable exit codes for scripting
        code = exit_code_for(exc)
        tag = getattr(exc, "stage_tag", None)
        print(f"error: {tag} {exc}" if tag else f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
