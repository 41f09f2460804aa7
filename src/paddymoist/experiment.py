"""Two-period experiment: train on season one, validate on season two.

The experiment mirrors a cross-period protocol: the ET0 surrogate is
trained against Hargreaves on the first cultivation period and validated on
the second; the moisture estimator is trained teacher-forced on the first
period (driven by the surrogate's ET0) and then simulated on the second in
the configured mode (closed loop by default).  Four metric cells come out:
ET0 train/validation and moisture train/validation, each carrying the
squared Pearson correlation, the 1 - SSE/SST variant, and the RMSE.

Everything is driven by a flat ``key = value`` config document.  Any key
left out keeps its :class:`ExperimentConfig` default, and the report echoes every
effective value, so a written report never depends on hidden state.  With
fixed seeds the whole run, including the written files, is byte-for-byte
reproducible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from datetime import date as Date
from operator import attrgetter
from pathlib import Path

from .ann import Normalizer, TrainConfig, ascii_number, finite_float, left_sum
from .crop import KcSchedule, kc_at, kc_table, validate_schedule
from .errors import DataFormatError, tagged
from .evapo import (DEFAULT_ET0_NORM, DEFAULT_TEMP_NORM, Et0Model, SiteLocation, _train_et0,
                    hargreaves_series, predict_et0_series)
from .hydro import (Climate, FieldParams, LedgerDay, WeatherGenParams, generate_truth,
                    generate_weather)
from .ingest import check_consecutive, read_daily_csv, write_daily_csv
from .metrics import nash_sutcliffe, r_squared, rmse
from .moisture import (DEFAULT_KC_NORM, DEFAULT_PRECIP_NORM, DEFAULT_THETA_NORM, ForcingDay,
                       MoistureModel, MoistureNormalizers, SimMode, simulate_moisture,
                       train_moisture_model)


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
        if self.seed < 0:
            raise ValueError(f"period seed must be >= 0, got {self.seed}")
        # A config line ends at a newline and its value at "#", and is stripped.
        if (any(c in self.data_path for c in "#\n\r")
                or self.data_path != self.data_path.strip()):
            raise DataFormatError(f"period data_path cannot hold '#', a line break or "
                                  f"leading or trailing space, got {self.data_path!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of a run; ``ExperimentConfig()`` is the default run: Table-like planting
    dates two cultivation periods apart, 118-day seasons, and the library's generator/bucket
    values, chosen so the synthetic analog lands near the protocol's agreement levels.  Two
    library defaults differ: a 28-day Kc late stage (118 days in all) and learning rate 0.5."""

    site: SiteLocation = SiteLocation()
    temp_norm: Normalizer = DEFAULT_TEMP_NORM
    et0_norm: Normalizer = DEFAULT_ET0_NORM
    precip_norm: Normalizer = DEFAULT_PRECIP_NORM
    kc_norm: Normalizer = DEFAULT_KC_NORM
    theta_norm: Normalizer = DEFAULT_THETA_NORM
    kc: KcSchedule = KcSchedule(len_late=28)
    et0_train: TrainConfig = TrainConfig(seed=42, learning_rate=0.5)
    moisture_train: TrainConfig = TrainConfig(seed=7, learning_rate=0.5)
    lag: int = 1
    sim_mode: SimMode = SimMode.CLOSED_LOOP
    theta_init_sim: float = 0.45
    period1: PeriodSpec = PeriodSpec(Date(2010, 10, 14), 118, seed=101)
    period2: PeriodSpec = PeriodSpec(Date(2011, 8, 20), 118, seed=202)
    weather: Climate = Climate()
    field: FieldParams = FieldParams()

    def __post_init__(self):
        # moisture training needs at least one day after the lagged ones
        if not 1 <= self.lag < self.period1.n_days:
            raise DataFormatError(f"moisture.lag: need 1 <= lag < period1.days "
                                  f"({self.period1.n_days}), got {self.lag}")
        norm = self.theta_norm
        if not norm.lo <= self.theta_init_sim <= norm.hi:
            raise DataFormatError(f"moisture.theta_init, normalizer.theta_vwc: need theta_init "
                                  f"in [{norm.lo!r}, {norm.hi!r}], got {self.theta_init_sim!r}")

    @property
    def moisture_norms(self) -> MoistureNormalizers:
        return MoistureNormalizers(et0=self.et0_norm, precip=self.precip_norm,
                                   kc=self.kc_norm, theta=self.theta_norm)


def _sim_mode(raw: str) -> SimMode:
    try:
        return SimMode(raw)
    except ValueError:
        raise ValueError(f"must be one of {[m.value for m in SimMode]}, got {raw!r}") from None


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
_INT = (lambda raw: ascii_number(raw, int), str)
_FLOAT = (finite_float, repr)
_TEXT = (str, str)
_DATE = (Date.fromisoformat, Date.isoformat)
_MODE = (_sim_mode, attrgetter("value"))
_LATITUDE = (lambda raw: math.radians(finite_float(raw)), _latitude_text)

# Every config key: the ExperimentConfig attribute each of its space-separated
# words sets, and its value kind.
_SCHEMA = (
    ("site.latitude_deg", "site.latitude", _LATITUDE),
    ("site.altitude_m", "site.altitude_m", _FLOAT),
    ("normalizer.temp_c", "temp_norm.lo temp_norm.hi", _FLOAT),
    ("normalizer.et0_mm", "et0_norm.lo et0_norm.hi", _FLOAT),
    ("normalizer.precip_mm", "precip_norm.lo precip_norm.hi", _FLOAT),
    ("normalizer.kc", "kc_norm.lo kc_norm.hi", _FLOAT),
    ("normalizer.theta_vwc", "theta_norm.lo theta_norm.hi", _FLOAT),
    ("kc.stage_lengths", "kc.len_ini kc.len_dev kc.len_mid kc.len_late", _INT),
    ("kc.values", "kc.kc_ini kc.kc_mid kc.kc_end", _FLOAT),
    ("train.et0.epochs", "et0_train.epochs", _INT),
    ("train.et0.learning_rate", "et0_train.learning_rate", _FLOAT),
    ("train.et0.seed", "et0_train.seed", _INT),
    ("train.et0.init_half_width", "et0_train.init_half_width", _FLOAT),
    ("train.moisture.epochs", "moisture_train.epochs", _INT),
    ("train.moisture.learning_rate", "moisture_train.learning_rate", _FLOAT),
    ("train.moisture.seed", "moisture_train.seed", _INT),
    ("train.moisture.init_half_width", "moisture_train.init_half_width", _FLOAT),
    ("moisture.lag", "lag", _INT),
    ("moisture.sim_mode", "sim_mode", _MODE),
    ("moisture.theta_init", "theta_init_sim", _FLOAT),
    ("period1.planting", "period1.planting", _DATE),
    ("period1.days", "period1.n_days", _INT),
    ("period1.source", "period1.source", _TEXT),
    ("period1.seed", "period1.seed", _INT),
    ("period1.data", "period1.data_path", _TEXT),
    ("period2.planting", "period2.planting", _DATE),
    ("period2.days", "period2.n_days", _INT),
    ("period2.source", "period2.source", _TEXT),
    ("period2.seed", "period2.seed", _INT),
    ("period2.data", "period2.data_path", _TEXT),
    ("weather.tavg_mean_c", "weather.tavg_mean", _FLOAT),
    ("weather.tavg_amplitude_c", "weather.tavg_amplitude", _FLOAT),
    ("weather.diurnal_range_c", "weather.diurnal_range_mean", _FLOAT),
    ("weather.wet_day_prob", "weather.wet_day_prob", _FLOAT),
    ("weather.precip_mean_wet_mm", "weather.precip_mean_wet", _FLOAT),
    ("field.root_depth_m", "field.root_depth", _FLOAT),
    ("field.theta_sat", "field.theta_sat", _FLOAT),
    ("field.theta_res", "field.theta_res", _FLOAT),
    ("field.theta_init", "field.theta_init", _FLOAT),
    ("field.runoff_threshold", "field.runoff_threshold", _FLOAT),
    ("field.percolation_mm_day", "field.perc_rate", _FLOAT),
)
_KEYS = frozenset(key for key, _, _ in _SCHEMA)


def _keys_of(part: str, message: str) -> str:
    """The keys behind an error from the constructor of ``part``, an
    ExperimentConfig attribute: those whose attribute the message names, in
    the order it names them, or else every key that feeds the part."""
    fed = [(name.partition(".")[2], key) for key, attrs, _ in _SCHEMA
           for name in attrs.split() if name.partition(".")[0] == part]
    # only the text before the echoed value, which may spell any word
    named_part = message.partition(", got")[0]
    named = sorted((m.start(), key) for leaf, key in fed
                   for m in [re.search(rf"\b{leaf}\b", named_part)] if m)
    return ", ".join(dict.fromkeys(key for _, key in named or fed))


def parse_config(text: str, overrides: "dict[str, str] | None" = None) -> ExperimentConfig:
    """Parse a config document, then set each key of ``overrides`` to its
    value text over it.  A key may appear once in the document; unknown keys
    are rejected, and a key not set keeps its :class:`ExperimentConfig` default."""
    values: dict = {}
    set_on: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise DataFormatError(f"config line {line_no}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise DataFormatError(f"config line {line_no}: unknown key {key!r}")
        if key in set_on:
            raise DataFormatError(f"config line {line_no}: key {key!r} is already set "
                                  f"on line {set_on[key]}")
        set_on[key] = line_no
        values[key] = raw.strip()
    for key, raw in (overrides or {}).items():
        if key not in _KEYS:
            raise DataFormatError(f"unknown config key {key!r}")
        values[key] = raw

    changes: dict = {}
    for key, attrs, (parse, _) in (row for row in _SCHEMA if row[0] in values):
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
                changes.setdefault(part, {})[leaf] = value
            else:
                changes[part] = value
    for part, value in changes.items():
        if isinstance(value, dict):  # the default part rebuilt, so its checks run
            try:
                changes[part] = replace(getattr(ExperimentConfig, part), **value)
            except ValueError as exc:
                raise DataFormatError(f"{_keys_of(part, str(exc))}: {exc}") from exc
    return ExperimentConfig(**changes)


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def format_config(cfg: ExperimentConfig) -> str:
    """Echo every effective setting as a canonical config document, which
    :func:`parse_config` reads back as ``cfg`` when ``cfg`` came from it."""
    lines = []
    for key, attrs, (_, fmt) in _SCHEMA:
        words = [fmt(attrgetter(name)(cfg)) for name in attrs.split()]
        lines.append(f"{key} = {' '.join(words)}\n")
    return "".join(lines)


def weather_params_for(cfg: ExperimentConfig, spec: PeriodSpec) -> WeatherGenParams:
    return WeatherGenParams(seed=spec.seed, n_days=spec.n_days, start_date=spec.planting,
                            **vars(cfg.weather))


@dataclass
class PeriodData:
    """One period's loaded series; ``ledger`` is the :func:`~paddymoist.hydro.generate_truth`
    ledger of a synthetic period, whose rows carry its Hargreaves ET0, else ``None``."""

    name: str
    days: list
    theta_obs: list
    ledger: "list[LedgerDay] | None" = None


def read_period(cfg: ExperimentConfig, path, name: str) -> PeriodData:
    """Read the daily CSV at ``path`` as the season ``name``: at least one
    day, consecutive and as many as the crop calendar has (the calendar and
    the moisture lags step one list entry per day), every observed theta
    inside the theta normalizer.  Each error names ``"{name}: {path}"``."""
    where = f"{name}: {path}"
    days, theta = read_daily_csv(path)
    if not days:
        raise DataFormatError(f"{where} holds no days")
    check_consecutive(days, where)
    validate_schedule(cfg.kc, len(days), where)
    check_theta_obs(days, theta, cfg.theta_norm, where)
    return PeriodData(name=name, days=days, theta_obs=theta)


def load_period(cfg: ExperimentConfig, spec: PeriodSpec, name: str) -> PeriodData:
    """Generate a synthetic period, which keeps its ground-truth ledger, or
    read a :func:`read_period` CSV that holds ``spec.n_days`` days (the
    report echoes that length as the one the run used) and theta on every
    day.  Either way the season fits the calendar and its theta the normalizer;
    a synthetic one that cannot be built is a DataFormatError naming its settings."""
    if spec.source == "synth":
        validate_schedule(cfg.kc, spec.n_days, name)
        try:
            days = generate_weather(weather_params_for(cfg, spec))
            theta, ledger = generate_truth(days, cfg.site, cfg.kc, cfg.field)
        except ValueError as exc:
            raise DataFormatError(f"{name}: no synthetic season can be built from the "
                                  f"weather.*, kc.* and field.* settings: {exc}") from exc
        check_theta_obs(days, theta, cfg.theta_norm, name)
        return PeriodData(name=name, days=days, theta_obs=theta, ledger=ledger)
    if not spec.data_path:
        raise DataFormatError(f"{name}: source is csv but no data path was given")
    period = read_period(cfg, spec.data_path, name)
    if len(period.days) != spec.n_days:
        raise DataFormatError(f"{name}: {spec.data_path} holds {len(period.days)} days, "
                              f"but {name}.days is {spec.n_days}")
    check_theta_every_day(period.days, period.theta_obs, f"{name}: {spec.data_path}",
                          "a config csv period")
    return period


def check_theta_obs(days: list, theta: list, norm: Normalizer, source: str,
                    norm_name: str = "normalizer.theta_vwc") -> None:
    """Raise DataFormatError naming the first day whose observed theta lies
    outside ``norm`` (called ``norm_name``), which would clamp it as a
    training target or a lag."""
    for day, value in zip(days, theta):
        if value is not None and not norm.lo <= value <= norm.hi:
            raise DataFormatError(f"{source}: observed theta_vwc {value!r} on {day.date} is "
                                  f"outside {norm_name} [{norm.lo!r}, {norm.hi!r}]")


def check_theta_every_day(days: list, theta: list, source: str, use: str) -> None:
    """Raise DataFormatError naming the first day without observed theta."""
    for day, value in zip(days, theta):
        if value is None:
            raise DataFormatError(f"{source}: no theta_vwc on {day.date}; "
                                  f"{use} needs it on every day")


#: The report's metric cells, in report order.
CELLS = ("et0_train", "et0_val", "theta_train", "theta_val")


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
    kcs = kc_table(cfg.kc)
    if len(period.days) > len(kcs):
        kc_at(cfg.kc, len(kcs))  # raises OutOfSeasonError for the first day past the calendar
    return [ForcingDay(e, day.precip, kc) for e, day, kc in zip(et0, period.days, kcs)]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute the full two-period pipeline; deterministic for a fixed config.

    Any stage failure aborts with the stage name prefixed to the error.  Each
    period's Hargreaves series is computed once: a synthetic period's is read
    from its ledger, a csv period's from its days.  Period 1's serves both as
    the ET0 training targets and in the report.  A period whose observed
    theta or Hargreaves series is constant, which no metric cell can score,
    is rejected as it is loaded, before any training.
    """
    loaded = []
    for spec, name in ((cfg.period1, "period1"), (cfg.period2, "period2")):
        with tagged(f"[stage: load {name}]"):
            period = load_period(cfg, spec, name)
            harg = (hargreaves_series(period.days, cfg.site) if period.ledger is None
                    else [row.et0 for row in period.ledger])
            for what, s in (("observed theta_vwc", period.theta_obs), ("Hargreaves ET0", harg)):
                if min(s) == max(s):  # its metric cells would be undefined
                    raise DataFormatError(f"{name}: {what} is {s[0]!r} on every day")
        loaded.append((period, harg))
    (p1, harg1), (p2, harg2) = loaded

    with tagged("[stage: train et0]"):
        et0_model, et0_losses = _train_et0(p1.days, harg1, cfg.et0_train, cfg.temp_norm,
                                           cfg.et0_norm)
    with tagged("[stage: predict et0]"):
        forcing1 = build_forcing(cfg, et0_model, p1)
        forcing2 = build_forcing(cfg, et0_model, p2)
        pred1 = [f.et0 for f in forcing1]
        pred2 = [f.et0 for f in forcing2]

    with tagged("[stage: train moisture]"):
        moisture_model, m_losses = train_moisture_model(
            forcing1, p1.theta_obs, cfg.moisture_train, lag=cfg.lag,
            norms=cfg.moisture_norms,
        )
    with tagged("[stage: simulate moisture]"):
        theta_init = [cfg.theta_init_sim] * cfg.lag
        theta_est1 = simulate_moisture(moisture_model, forcing1, theta_init,
                                       SimMode.TEACHER_FORCED, theta_obs=p1.theta_obs)
        theta_est2 = simulate_moisture(
            moisture_model, forcing2, theta_init, cfg.sim_mode,
            theta_obs=p2.theta_obs if cfg.sim_mode is SimMode.TEACHER_FORCED else None,
        )

    with tagged("[stage: metrics]"):
        residuals = [p - h for p, h in zip(pred1, harg1)]
        order = sorted(range(len(harg1)), key=lambda i: harg1[i])
        top = order[-max(1, len(order) // 4):]
        pairs = ((harg1, pred1), (harg2, pred2), (p1.theta_obs, theta_est1),
                 (p2.theta_obs, theta_est2))
        cells = {name: _cell(obs, est) for name, (obs, est) in zip(CELLS, pairs)}
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
    for name in CELLS:
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
    for name in CELLS:
        c = report.cells[name]
        lines.append(f"{name},{c.n},{c.r_squared!r},{c.nash_sutcliffe!r},{c.rmse!r}")
    return "\n".join(lines) + "\n"


def _write_files(out_dir, files) -> list:
    """Write each ``(name, text)`` into ``out_dir``; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in files:
        p = out / name
        p.write_text(text, encoding="utf-8")
        paths.append(p)
    return paths


def write_report_files(report: ExperimentReport, out_dir) -> list:
    """Write report.txt and metrics.csv; returns the written paths."""
    return _write_files(out_dir, (("report.txt", format_report_text(report)),
                                  ("metrics.csv", format_metrics_csv(report))))


def _monthly_rows(period: PeriodResult):
    """``("YYYY-MM", days)`` for each calendar month of the period, in order."""
    by_month: dict = {}
    for d in period.days:
        date = d.date
        by_month.setdefault((date.year, date.month), []).append(d)
    for year, month in sorted(by_month):
        yield f"{year:04d}-{month:02d}", by_month[year, month]


def export_plot_data(report: ExperimentReport, out_dir) -> list:
    """Write tidy per-figure CSVs; byte-identical for the same report."""
    temps = ["period,month,tavg_mean_c,n_days"]
    precips = ["period,month,precip_total_mm,n_days"]
    scatters = []
    for period in (report.period1, report.period2):
        for month, days in _monthly_rows(period):
            mean = left_sum(d.tavg for d in days) / len(days)
            total = left_sum(d.precip for d in days)
            temps.append(f"{period.name},{month},{mean!r},{len(days)}")
            precips.append(f"{period.name},{month},{total!r},{len(days)}")
        for kind, columns, obs, est in (
                ("et0", "hargreaves_et0_mm,estimated_et0_mm", period.hargreaves, period.et0_pred),
                ("theta", "observed_theta_vwc,estimated_theta_vwc", period.theta_obs,
                 period.theta_est)):
            lines = [f"date,{columns}"]
            for d, o, e in zip(period.days, obs, est):
                lines.append(f"{d.date.isoformat()},{o!r},{e!r}")
            scatters.append((f"scatter_{kind}_{period.name}.csv", lines))
    files = [("monthly_temperature.csv", temps), ("monthly_precipitation.csv", precips)]
    return _write_files(out_dir, ((name, "\n".join(lines) + "\n")
                                  for name, lines in files + scatters))


def write_synth_periods(cfg: ExperimentConfig, out_dir) -> list:
    """Generate both synthetic periods and write their daily CSVs; nothing
    is written unless both periods load."""
    periods = [load_period(cfg, replace(spec, source="synth"), name)
               for spec, name in ((cfg.period1, "period1"), (cfg.period2, "period2"))]
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    paths = [Path(out_dir) / f"{period.name}_daily.csv" for period in periods]
    for path, period in zip(paths, periods):
        write_daily_csv(path, period.days, period.theta_obs)
    return paths
