"""Paddy-field soil moisture estimation from limited meteorological data.

Two chained sigmoid networks do the work: a 3-8-1 surrogate maps daily
air-temperature extremes to Hargreaves reference evapotranspiration, and a
lagged-output estimator maps (ET0, precipitation, crop coefficient,
previous moisture) to the day's soil moisture.  A seeded synthetic weather
generator plus a bucket water balance provide ground truth for end-to-end
validation, and a small CLI wraps ingestion, training, simulation, and the
full cross-period experiment.
"""

from .ann import (GainTrace, Mlp, MlpTopology, Normalizer, Pattern, TrainConfig,
                  adaptive_gain, backprop_step, denormalize, forward, normalize,
                  pattern_error, sigmoid_gain, train)
from .crop import KcSchedule, kc_at, validate_schedule
from .errors import (ArtifactParseError, ArtifactVersionError, DataFormatError,
                     DimensionError, InsufficientHistoryError, OrderingError,
                     OutOfSeasonError, PaddymoistError, ScheduleMismatchError,
                     UndefinedMetricError)
from .evapo import (DailyWeather, Et0Model, SiteLocation, extraterrestrial_radiation,
                    hargreaves_et0, hargreaves_series, predict_et0, predict_et0_series,
                    train_et0_model)
from .experiment import (ExperimentConfig, ExperimentReport, default_config,
                         export_plot_data, format_config, parse_config,
                         run_experiment, write_report_files)
from .hydro import (Climate, FieldParams, LedgerDay, WaterFluxes, WeatherGenParams,
                    generate_truth, generate_weather, water_balance_step)
from .ingest import (DailyAggregation, DayGap, HalfHourRecord, HalfHourRecords,
                     daily_aggregate, read_daily_csv, read_half_hourly_csv, write_daily_csv,
                     write_half_hourly_csv)
from .metrics import nash_sutcliffe, r_squared, rmse
from .moisture import (ForcingDay, MoistureModel, MoistureNormalizers, SimMode,
                       build_patterns, simulate_moisture, train_moisture_model)
from .persist import (ModelArtifact, data_digest, et0_artifact, et0_from_artifact,
                      load_model, moisture_artifact, moisture_from_artifact,
                      save_model)

__version__ = "0.1.0"
