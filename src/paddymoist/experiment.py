"""Two-period experiment: train on season one, validate on season two.

The experiment mirrors a cross-period protocol: the ET0 surrogate is
trained against Hargreaves on the first cultivation period and validated on
the second; the moisture estimator is trained teacher-forced on the first
period (driven by the surrogate's ET0) and then simulated on the second in
the configured mode (closed loop by default).  Four metric cells come out:
ET0 train/validation and moisture train/validation, each carrying the
squared Pearson correlation, the 1 - SSE/SST variant, and the RMSE.

Everything is driven by a flat ``key = value`` config document.  Any key
left out falls back to the library default, and the report echoes every
effective value, so a written report never depends on hidden state.  With
fixed seeds the whole run, including the written files, is byte-for-byte
reproducible.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import date as Date
from operator import attrgetter
from pathlib import Path
from typing import get_type_hints

from .ann import Normalizer, TrainConfig, left_sum
from .crop import KcSchedule, kc_at, validate_schedule
from .errors import DataFormatError
from .evapo import (DEFAULT_LATITUDE_RAD, DailyWeather, Et0Model, SiteLocation,
                    hargreaves_series, predict_et0_series, train_et0_model)
from .hydro import FieldParams, WeatherGenParams, generate_truth, generate_weather
from .ingest import check_consecutive, read_daily_csv, write_daily_csv
from .metrics import nash_sutcliffe, r_squared, rmse
from .moisture import (ForcingDay, MoistureModel, MoistureNormalizers, SimMode,
                       simulate_moisture, train_moisture_model)


@dataclass(frozen=True)
class PeriodSpec:
    """Where one cultivation period's data comes from."""

    planting: Date
    n_days: int
    source: str = "synth"          # "synth" or "csv"
    seed: int = 0                  # used when source == "synth"
    data_path: str = ""            # used when source == "csv"

    def __post_init__(self):
        if self.source not in ("synth", "csv"):
            raise DataFormatError(f"period source must be synth or csv, got {self.source!r}")
        if self.n_days < 1:
            raise ValueError(f"period needs n_days >= 1, got {self.n_days}")
        # A config line ends at a newline and its value at "#", and is stripped.
        if (any(c in self.data_path for c in "#\n\r")
                or self.data_path != self.data_path.strip()):
            raise DataFormatError(f"period data_path cannot hold '#', a line break or "
                                  f"leading or trailing space, got {self.data_path!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    site: SiteLocation
    temp_norm: Normalizer
    et0_norm: Normalizer
    precip_norm: Normalizer
    kc_norm: Normalizer
    theta_norm: Normalizer
    kc: KcSchedule
    et0_train: TrainConfig
    moisture_train: TrainConfig
    lag: int
    sim_mode: SimMode
    theta_init_sim: float
    period1: PeriodSpec
    period2: PeriodSpec
    weather_tavg_mean: float
    weather_tavg_amplitude: float
    weather_diurnal_range: float
    weather_wet_day_prob: float
    weather_precip_mean_wet: float
    field: FieldParams

    @property
    def moisture_norms(self) -> MoistureNormalizers:
        return MoistureNormalizers(et0=self.et0_norm, precip=self.precip_norm,
                                   kc=self.kc_norm, theta=self.theta_norm)


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {raw!r}")
    return value


def _sim_mode(raw: str) -> SimMode:
    try:
        return SimMode(raw)
    except ValueError:
        raise ValueError(f"must be one of {[m.value for m in SimMode]}, "
                         f"got {raw!r}") from None


def _latitude_text(rad: float) -> str:
    """Degrees text that parses back to exactly ``rad`` radians.

    ``math.degrees`` does not invert ``math.radians`` exactly (3.0 comes back
    as 3.0000000000000004), so the neighbouring float is tried too.  Any
    latitude that ``parse_config`` produced is one of the two; for other
    radian values that no float in degrees maps to, the nearest degrees are
    written.
    """
    deg = math.degrees(rad)
    if math.radians(deg) != rad:
        near = math.nextafter(deg, math.inf if math.radians(deg) < rad else -math.inf)
        if math.radians(near) == rad:
            deg = near
    return repr(deg)


# Value kinds: the (parse, format) pair for a value, or for each word of a
# value that sets several attributes.
_INT = (int, str)
_FLOAT = (_finite_float, repr)
_TEXT = (str, str)
_DATE = (Date.fromisoformat, Date.isoformat)
_SEED = (lambda raw: int(raw or 0), str)  # an empty period seed reads as 0
_MODE = (_sim_mode, attrgetter("value"))
_LATITUDE = (lambda raw: math.radians(_finite_float(raw)), _latitude_text)

# Every config key: its default text, the ExperimentConfig attribute each of
# its space-separated words sets, and its value kind.  The defaults are
# Table-like planting dates two cultivation periods apart, 118-day seasons,
# and generator/bucket values chosen so the synthetic analog lands near the
# protocol's expected agreement levels.
_SCHEMA = (
    ("site.latitude_deg", repr(math.degrees(DEFAULT_LATITUDE_RAD)), "site.latitude", _LATITUDE),
    ("site.altitude_m", "536.0", "site.altitude_m", _FLOAT),
    ("normalizer.temp_c", "0 50", "temp_norm.lo temp_norm.hi", _FLOAT),
    ("normalizer.et0_mm", "0 10", "et0_norm.lo et0_norm.hi", _FLOAT),
    ("normalizer.precip_mm", "0 100", "precip_norm.lo precip_norm.hi", _FLOAT),
    ("normalizer.kc", "0 1.5", "kc_norm.lo kc_norm.hi", _FLOAT),
    ("normalizer.theta_vwc", "0 1", "theta_norm.lo theta_norm.hi", _FLOAT),
    ("kc.stage_lengths", "20 30 40 28", "kc.len_ini kc.len_dev kc.len_mid kc.len_late", _INT),
    ("kc.values", "1.05 1.2 0.9", "kc.kc_ini kc.kc_mid kc.kc_end", _FLOAT),
    ("train.et0.epochs", "1000", "et0_train.epochs", _INT),
    ("train.et0.learning_rate", "0.5", "et0_train.learning_rate", _FLOAT),
    ("train.et0.seed", "42", "et0_train.seed", _INT),
    ("train.et0.init_half_width", "0.5", "et0_train.init_half_width", _FLOAT),
    ("train.moisture.epochs", "1000", "moisture_train.epochs", _INT),
    ("train.moisture.learning_rate", "0.5", "moisture_train.learning_rate", _FLOAT),
    ("train.moisture.seed", "7", "moisture_train.seed", _INT),
    ("train.moisture.init_half_width", "0.5", "moisture_train.init_half_width", _FLOAT),
    ("moisture.lag", "1", "lag", _INT),
    ("moisture.sim_mode", "closed_loop", "sim_mode", _MODE),
    ("moisture.theta_init", "0.45", "theta_init_sim", _FLOAT),
    ("period1.planting", "2010-10-14", "period1.planting", _DATE),
    ("period1.days", "118", "period1.n_days", _INT),
    ("period1.source", "synth", "period1.source", _TEXT),
    ("period1.seed", "101", "period1.seed", _SEED),
    ("period1.data", "", "period1.data_path", _TEXT),
    ("period2.planting", "2011-08-20", "period2.planting", _DATE),
    ("period2.days", "118", "period2.n_days", _INT),
    ("period2.source", "synth", "period2.source", _TEXT),
    ("period2.seed", "202", "period2.seed", _SEED),
    ("period2.data", "", "period2.data_path", _TEXT),
    ("weather.tavg_mean_c", "24.0", "weather_tavg_mean", _FLOAT),
    ("weather.tavg_amplitude_c", "0.5", "weather_tavg_amplitude", _FLOAT),
    ("weather.diurnal_range_c", "10.0", "weather_diurnal_range", _FLOAT),
    ("weather.wet_day_prob", "0.55", "weather_wet_day_prob", _FLOAT),
    ("weather.precip_mean_wet_mm", "15.0", "weather_precip_mean_wet", _FLOAT),
    ("field.root_depth_m", "0.2", "field.root_depth", _FLOAT),
    ("field.theta_sat", "0.55", "field.theta_sat", _FLOAT),
    ("field.theta_res", "0.15", "field.theta_res", _FLOAT),
    ("field.theta_init", "0.45", "field.theta_init", _FLOAT),
    ("field.runoff_threshold", "0.52", "field.runoff_threshold", _FLOAT),
    ("field.percolation_mm_day", "3.0", "field.perc_rate", _FLOAT),
)

# The class each dotted attribute's first part is built as.
_PART_TYPES = get_type_hints(ExperimentConfig)


def _keys_of(part: str, message: str) -> str:
    """The keys behind an error from ``part``'s constructor: those whose
    attribute the message names, in the order it names them, or else every
    key that feeds the part."""
    fed = [(name.partition(".")[2], key) for key, _, attrs, _ in _SCHEMA
           for name in attrs.split() if name.partition(".")[0] == part]
    # only the text before the echoed value, which may spell any word
    named_part = message.partition(", got")[0]
    named = sorted((m.start(), key) for leaf, key in fed
                   for m in [re.search(rf"\b{leaf}\b", named_part)] if m)
    return ", ".join(dict.fromkeys(key for _, key in named or fed))


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document; unknown keys are rejected, missing ones default."""
    values = {key: default for key, default, _, _ in _SCHEMA}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise DataFormatError(f"config line {line_no}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in values:
            raise DataFormatError(f"config line {line_no}: unknown key {key!r}")
        values[key] = raw.strip()

    parts: dict = {}
    for key, _, attrs, (parse, _) in _SCHEMA:
        names = attrs.split()
        raw = values[key]
        words = raw.split() if len(names) > 1 else [raw]
        if len(words) != len(names):
            raise DataFormatError(f"{key}: expected {len(names)} values, got {raw!r}")
        for name, word in zip(names, words):
            try:
                value = parse(word)
            except ValueError as exc:
                raise DataFormatError(f"{key}: {exc}") from exc
            part, _, leaf = name.partition(".")
            if leaf:
                parts.setdefault(part, {})[leaf] = value
            else:
                parts[part] = value
    for part, value in parts.items():
        if isinstance(value, dict):
            try:
                parts[part] = _PART_TYPES[part](**value)
            except ValueError as exc:
                raise DataFormatError(f"{_keys_of(part, str(exc))}: {exc}") from exc
    cfg = ExperimentConfig(**parts)
    # moisture training needs at least one day after the lagged ones
    if not 1 <= cfg.lag < cfg.period1.n_days:
        raise DataFormatError(f"moisture.lag: need 1 <= lag < period1.days "
                              f"({cfg.period1.n_days}), got {cfg.lag}")
    return cfg


def default_config() -> ExperimentConfig:
    return parse_config("")


def format_config(cfg: ExperimentConfig) -> str:
    """Echo every effective setting as a canonical config document.

    Parsing the document gives back ``cfg`` exactly when ``cfg`` came from
    :func:`parse_config`.
    """
    lines = []
    for key, _, attrs, (_, fmt) in _SCHEMA:
        words = [fmt(attrgetter(name)(cfg)) for name in attrs.split()]
        lines.append(f"{key} = {' '.join(words)}\n")
    return "".join(lines)


def weather_params_for(cfg: ExperimentConfig, spec: PeriodSpec) -> WeatherGenParams:
    return WeatherGenParams(
        seed=spec.seed,
        n_days=spec.n_days,
        start_date=spec.planting,
        tavg_mean=cfg.weather_tavg_mean,
        tavg_amplitude=cfg.weather_tavg_amplitude,
        diurnal_range_mean=cfg.weather_diurnal_range,
        wet_day_prob=cfg.weather_wet_day_prob,
        precip_mean_wet=cfg.weather_precip_mean_wet,
    )


@dataclass
class PeriodData:
    """One period's loaded series."""

    name: str
    days: list
    theta_obs: list


def load_period(cfg: ExperimentConfig, spec: PeriodSpec, name: str) -> PeriodData:
    """Generate a synthetic period or read a daily CSV with observed theta.

    A CSV period must hold ``spec.n_days`` consecutive days: the crop
    calendar and the moisture lags step one list entry per day, and the
    report echoes the configured length as the one the run used.
    """
    if spec.source == "synth":
        weather = generate_weather(weather_params_for(cfg, spec))
        theta, _ = generate_truth(weather, cfg.site, cfg.kc, cfg.field)
        return PeriodData(name=name, days=weather, theta_obs=theta)
    if not spec.data_path:
        raise DataFormatError(f"{name}: source is csv but no data path was given")
    days, theta = read_daily_csv(spec.data_path)
    if not days:
        raise DataFormatError(f"{name}: {spec.data_path} holds no days")
    check_consecutive(days, f"{name}: {spec.data_path}")
    if len(days) != spec.n_days:
        raise DataFormatError(f"{name}: {spec.data_path} holds {len(days)} days, "
                              f"but {name}.days is {spec.n_days}")
    if any(v is None for v in theta):
        raise DataFormatError(
            f"{name}: {spec.data_path} must carry theta_vwc on every day"
        )
    return PeriodData(name=name, days=days, theta_obs=theta)


@dataclass
class MetricCell:
    n: int
    r_squared: float
    nash_sutcliffe: float
    rmse: float


@dataclass
class PeriodResult:
    name: str
    days: list
    theta_obs: list
    hargreaves: list
    et0_pred: list
    theta_est: list
    kc_series: list


@dataclass
class ExperimentReport:
    config_text: str
    period1: PeriodResult
    period2: PeriodResult
    cells: "dict[str, MetricCell]"
    sim_mode: SimMode
    et0_final_loss: float
    moisture_final_loss: float
    et0_mean_residual: float
    et0_mean_residual_top_quartile: float
    et0_model: Et0Model
    moisture_model: MoistureModel


def _cell(obs, est) -> MetricCell:
    return MetricCell(n=len(obs), r_squared=r_squared(obs, est),
                      nash_sutcliffe=nash_sutcliffe(obs, est), rmse=rmse(obs, est))


def build_forcing(cfg: ExperimentConfig, model: Et0Model, period: PeriodData) -> list[ForcingDay]:
    """Moisture forcing with the surrogate's (not Hargreaves') ET0, as deployed."""
    et0 = predict_et0_series(model, period.days)
    return [ForcingDay(et0=e, precip=day.precip, kc=kc_at(cfg.kc, d))
            for d, (e, day) in enumerate(zip(et0, period.days))]


@contextmanager
def _stage(name: str):
    """Tag any failure with the pipeline stage it came from.

    The original exception object is re-raised, so its type and attributes
    (an OSError's errno and filename, say) survive.  When the message is the
    exception's only argument, ``[stage: name]`` is prefixed to it in place;
    any other exception, such as an OSError whose text is built from errno
    and filename, keeps its arguments and carries the tag as ``stage_tag``,
    which the CLI prints before the message.
    """
    try:
        yield
    except Exception as exc:
        tag = f"[stage: {name}]"
        if exc.args == (str(exc),):
            exc.args = (f"{tag} {exc}",)
        else:
            exc.stage_tag = tag
        raise


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the full two-period pipeline; deterministic for a fixed config.

    Any stage failure aborts with the stage name prefixed to the error.
    """
    with _stage("load period1"):
        p1 = load_period(cfg, cfg.period1, "period1")
    with _stage("load period2"):
        p2 = load_period(cfg, cfg.period2, "period2")
    with _stage("crop schedule"):
        validate_schedule(cfg.kc, len(p1.days))
        validate_schedule(cfg.kc, len(p2.days))

    with _stage("train et0"):
        et0_model, et0_losses = train_et0_model(
            p1.days, cfg.site, cfg.et0_train,
            temp_norm=cfg.temp_norm, et0_norm=cfg.et0_norm,
        )
    with _stage("predict et0"):
        harg1 = hargreaves_series(p1.days, cfg.site)
        harg2 = hargreaves_series(p2.days, cfg.site)
        pred1 = predict_et0_series(et0_model, p1.days)
        pred2 = predict_et0_series(et0_model, p2.days)

    with _stage("train moisture"):
        forcing1 = build_forcing(cfg, et0_model, p1)
        forcing2 = build_forcing(cfg, et0_model, p2)
        moisture_model, m_losses = train_moisture_model(
            forcing1, p1.theta_obs, cfg.moisture_train, lag=cfg.lag,
            norms=cfg.moisture_norms,
        )
    with _stage("simulate moisture"):
        theta_init = [cfg.theta_init_sim] * cfg.lag
        theta_est1 = simulate_moisture(moisture_model, forcing1, theta_init,
                                       SimMode.TEACHER_FORCED, theta_obs=p1.theta_obs)
        theta_est2 = simulate_moisture(
            moisture_model, forcing2, theta_init, cfg.sim_mode,
            theta_obs=p2.theta_obs if cfg.sim_mode is SimMode.TEACHER_FORCED else None,
        )

    residuals = [p - h for p, h in zip(pred1, harg1)]
    order = sorted(range(len(harg1)), key=lambda i: harg1[i])
    top = order[-max(1, len(order) // 4):]
    cells = {
        "et0_train": _cell(harg1, pred1),
        "et0_val": _cell(harg2, pred2),
        "theta_train": _cell(p1.theta_obs, theta_est1),
        "theta_val": _cell(p2.theta_obs, theta_est2),
    }
    return ExperimentReport(
        config_text=format_config(cfg),
        period1=PeriodResult(name="period1", days=p1.days, theta_obs=p1.theta_obs,
                             hargreaves=harg1, et0_pred=pred1, theta_est=theta_est1,
                             kc_series=[f.kc for f in forcing1]),
        period2=PeriodResult(name="period2", days=p2.days, theta_obs=p2.theta_obs,
                             hargreaves=harg2, et0_pred=pred2, theta_est=theta_est2,
                             kc_series=[f.kc for f in forcing2]),
        cells=cells,
        sim_mode=cfg.sim_mode,
        et0_final_loss=et0_losses[-1],
        moisture_final_loss=m_losses[-1],
        et0_mean_residual=left_sum(residuals) / len(residuals),
        et0_mean_residual_top_quartile=left_sum(residuals[i] for i in top) / len(top),
        et0_model=et0_model,
        moisture_model=moisture_model,
    )


def format_report_text(report: ExperimentReport) -> str:
    lines = [
        "paddymoist experiment report",
        "============================",
        "",
        "Protocol: ET0 surrogate and moisture estimator trained on period 1;",
        f"period 2 held out for validation (moisture simulated {report.sim_mode.value}).",
        "",
        "Metric cells (observed vs estimated, daily):",
        "",
        f"{'cell':<14} {'n':>4} {'r_squared':>12} {'nash_sutcliffe':>15} {'rmse':>12}",
    ]
    for name in ("et0_train", "et0_val", "theta_train", "theta_val"):
        c = report.cells[name]
        lines.append(f"{name:<14} {c.n:>4} {c.r_squared:>12.6f} "
                     f"{c.nash_sutcliffe:>15.6f} {c.rmse:>12.6f}")
    lines += [
        "",
        "ET0 rows compare the surrogate to the Hargreaves reference (mm/day);",
        "theta rows compare estimates to observed soil moisture (m3/m3).",
        "",
        f"final training loss: et0 {report.et0_final_loss!r}, "
        f"moisture {report.moisture_final_loss!r}",
        f"et0 mean residual, training period: {report.et0_mean_residual!r} mm/day",
        f"et0 mean residual, top-quartile days: {report.et0_mean_residual_top_quartile!r} mm/day",
        "",
        "Effective configuration (every value explicit):",
        "",
    ]
    lines.append(report.config_text.rstrip("\n"))
    return "\n".join(lines) + "\n"


def format_metrics_csv(report: ExperimentReport) -> str:
    lines = ["cell,n,r_squared,nash_sutcliffe,rmse"]
    for name in ("et0_train", "et0_val", "theta_train", "theta_val"):
        c = report.cells[name]
        lines.append(f"{name},{c.n},{c.r_squared!r},{c.nash_sutcliffe!r},{c.rmse!r}")
    return "\n".join(lines) + "\n"


def write_report_files(report: ExperimentReport, out_dir) -> list:
    """Write report.txt and metrics.csv; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in (("report.txt", format_report_text(report)),
                       ("metrics.csv", format_metrics_csv(report))):
        p = out / name
        p.write_text(text, encoding="utf-8")
        paths.append(p)
    return paths


def _monthly_rows(period: PeriodResult):
    by_month: dict = {}
    for d in period.days:
        by_month.setdefault(d.date.strftime("%Y-%m"), []).append(d)
    for month in sorted(by_month):
        yield month, by_month[month]


def export_plot_data(report: ExperimentReport, out_dir) -> list:
    """Write tidy per-figure CSVs; byte-identical for the same report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = []

    lines = ["period,month,tavg_mean_c,n_days"]
    for period in (report.period1, report.period2):
        for month, days in _monthly_rows(period):
            mean = left_sum(d.tavg for d in days) / len(days)
            lines.append(f"{period.name},{month},{mean!r},{len(days)}")
    files.append(("monthly_temperature.csv", lines))

    lines = ["period,month,precip_total_mm,n_days"]
    for period in (report.period1, report.period2):
        for month, days in _monthly_rows(period):
            total = left_sum(d.precip for d in days)
            lines.append(f"{period.name},{month},{total!r},{len(days)}")
    files.append(("monthly_precipitation.csv", lines))

    for period in (report.period1, report.period2):
        lines = ["date,hargreaves_et0_mm,estimated_et0_mm"]
        for d, h, e in zip(period.days, period.hargreaves, period.et0_pred):
            lines.append(f"{d.date.isoformat()},{h!r},{e!r}")
        files.append((f"scatter_et0_{period.name}.csv", lines))

        lines = ["date,observed_theta_vwc,estimated_theta_vwc"]
        for d, o, e in zip(period.days, period.theta_obs, period.theta_est):
            lines.append(f"{d.date.isoformat()},{o!r},{e!r}")
        files.append((f"scatter_theta_{period.name}.csv", lines))

    written = []
    for name, lines in files:
        p = out / name
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(p)
    return written


def write_synth_periods(cfg: ExperimentConfig, out_dir) -> list:
    """Generate both synthetic periods and write their daily CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for spec, name in ((cfg.period1, "period1"), (cfg.period2, "period2")):
        period = load_period(cfg, replace(spec, source="synth"), name)
        p = out / f"{name}_daily.csv"
        write_daily_csv(p, period.days, period.theta_obs)
        written.append(p)
    return written
