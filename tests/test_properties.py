"""Property tests over random inputs: the bucket's ledger, the weather and
bucket loops on each rendering, closed-loop bounds, series inference on each
rendering, the config document's round trip, the half-hourly file's round
trip, its day sums, the daily file's scanner, both writers' bytes, the
model artifact's round trip and the metric cells against exact rational
ones."""

import csv
import functools
import math
import operator
import shutil
import string
import struct
import sys
import tempfile
from dataclasses import replace
from datetime import date, datetime, timedelta, timezone
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from conftest import rendering_kernel  # noqa: E402
from test_hydro import _reference_weather  # noqa: E402  the scalar-draw generator
from test_ingest import _reference_write_daily_csv  # noqa: E402  the csv.writer loop
from paddymoist import ann, hydro, ingest  # noqa: E402
from paddymoist.ann import (Mlp, MlpTopology, Normalizer, bind, denormalize,  # noqa: E402
                            normalize)
from paddymoist.crop import KcSchedule  # noqa: E402
from paddymoist.evapo import (DailyWeather, Et0Model, SiteLocation,  # noqa: E402
                              predict_et0_series)
from paddymoist.experiment import format_config, parse_config  # noqa: E402
from paddymoist.hydro import (FieldParams, WeatherGenParams, generate_truth,  # noqa: E402
                              generate_weather, water_balance_step)
from paddymoist.errors import DataFormatError, UndefinedMetricError  # noqa: E402
from paddymoist.ingest import (HalfHourRecord, daily_aggregate, read_daily_csv,  # noqa: E402
                               read_half_hourly_csv, write_daily_csv, write_half_hourly_csv)
from paddymoist.metrics import nash_sutcliffe, r_squared, rmse  # noqa: E402
from paddymoist.moisture import (ForcingDay, MoistureModel, MoistureNormalizers,  # noqa: E402
                                 SimMode, simulate_moisture)
from paddymoist.persist import ModelArtifact, load_model, save_model  # noqa: E402


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def field_params(draw):
    res = draw(_floats(0.0, 0.5))
    sat = draw(_floats(res, 0.9, exclude_min=True))
    return FieldParams(
        root_depth=draw(_floats(0.05, 2.0)),
        theta_sat=sat,
        theta_res=res,
        theta_init=draw(_floats(res, sat, exclude_min=True)),
        runoff_threshold=draw(_floats(res, sat, exclude_min=True)),
        perc_rate=draw(_floats(0.0, 50.0)),
    )


class TestWaterBalanceProperties:

    @settings(max_examples=300, deadline=None)
    @given(p=field_params(), data=st.data(),
           precip=_floats(0.0, 500.0), irrig=_floats(0.0, 100.0), etc=_floats(0.0, 30.0))
    def test_ledger_closes_and_theta_stays_physical(self, p, data, precip, irrig, etc):
        theta = data.draw(_floats(p.theta_res, p.theta_sat), label="theta")
        theta_next, fx = water_balance_step(theta, p, precip, irrig, etc)
        delta = (theta_next - theta) * (p.root_depth * 1000.0)
        budget = precip + irrig - fx.etc_mm - fx.runoff_mm - fx.perc_mm
        assert abs(delta - budget) <= 1e-9
        assert p.theta_res <= theta_next <= p.theta_sat
        assert min(fx.etc_mm, fx.runoff_mm, fx.perc_mm) >= 0.0
        assert fx.etc_mm <= etc and fx.perc_mm <= p.perc_rate


class TestWeatherProperties:

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**63), n_days=st.integers(1, 400),
           wet_day_prob=st.one_of(st.sampled_from([0.0, 1.0]), _floats(0.0, 1.0)),
           offset=st.integers(0, 3000))
    def test_one_draw_call_per_day_is_the_scalar_draw_stream(self, seed, n_days,
                                                              wet_day_prob, offset):
        g = WeatherGenParams(seed=seed, n_days=n_days, wet_day_prob=wet_day_prob,
                             start_date=date(2000, 1, 1) + timedelta(days=offset))
        assert generate_weather(g) == _reference_weather(g)


# start dates a few days before 31 December and 29 February, of leap and
# common years and of the century years 1900 (common) and 2000 (leap)
_EDGE_STARTS = [date(y, m, d) for y in (1899, 1900, 1999, 2000, 2011, 2012, 2100)
                for m, d in ((12, 27), (2, 25))]


@st.composite
def seasons(draw):
    """Weather settings, a crop calendar and a field for one season."""
    lengths = draw(st.lists(st.integers(1, 40), min_size=4, max_size=4))
    kc = KcSchedule(*lengths, kc_ini=draw(_floats(0.1, 2.0)), kc_mid=draw(_floats(0.1, 2.0)),
                    kc_end=draw(_floats(0.1, 2.0)))
    start = draw(st.one_of(st.sampled_from(_EDGE_STARTS),
                           st.dates(date(1, 1, 1), date(9000, 12, 31))))
    g = WeatherGenParams(
        draw(st.integers(0, 2**63)), kc.total_days, start,
        tavg_mean=draw(_floats(-20.0, 45.0)), tavg_amplitude=draw(_floats(0.0, 10.0)),
        diurnal_range_mean=draw(_floats(0.1, 30.0)),
        wet_day_prob=draw(st.one_of(st.sampled_from([0.0, 1.0]), _floats(0.0, 1.0))),
        precip_mean_wet=draw(st.one_of(st.just(0.0), _floats(0.0, 80.0))))
    # events on repeated days and past the season's end, of 0 mm too
    irrigation = draw(st.lists(st.tuples(st.integers(0, kc.total_days + 5),
                                         st.one_of(st.just(0.0), _floats(0.0, 60.0))),
                               max_size=6))
    p = replace(draw(field_params()), irrigation=tuple(irrigation))
    return g, SiteLocation(draw(_floats(-1.5, 1.5))), kc, p


class TestHydroRenderings:
    """The C and Python loops of ``generate_weather`` and ``generate_truth``
    give the same lists of the same types, bit for bit (compared by
    ``repr``, which shows each row's type and each float's exact value)."""

    @settings(max_examples=150, deadline=None)
    @given(season=seasons())
    # polar night (Ra == 0) below -17.8 deg C: Hargreaves' product is -0.0,
    # which the floor must turn into +0.0 in both renderings (max(et0, 0.0)
    # would keep it, and min(etc, ...) pass it on into the ledger)
    @example(season=(WeatherGenParams(7, 118, date(2011, 11, 20), tavg_mean=-30.0),
                     SiteLocation(1.4), KcSchedule(20, 30, 40, 28), FieldParams()))
    # a dry season that empties the bucket, at a percolation rate of -0.0:
    # min(-0.0, 0.0) keeps the -0.0
    @example(season=(WeatherGenParams(8, 60, tavg_mean=35.0, wet_day_prob=0.0),
                     SiteLocation(), KcSchedule(10, 20, 20, 10),
                     FieldParams(theta_init=0.2, perc_rate=-0.0)))
    def test_c_loops_give_the_python_loops_lists(self, season):
        loops = hydro._c_loops()
        if loops is None:
            pytest.skip("the C weather and bucket loops did not build")
        g, site, kc, p = season
        weather = hydro._c_weather(loops[0], g)
        assert weather is not None
        assert repr(weather) == repr(hydro._python_weather(g))
        truth = hydro._c_truth(loops[1], weather, site, kc, p)
        assert truth is not None
        assert repr(truth) == repr(hydro._python_truth(weather, site, kc, p))
        assert truth == generate_truth(weather, site, kc, p)


@st.composite
def normalizers(draw):
    lo = draw(_floats(-1e3, 1e3))
    return Normalizer(lo, draw(_floats(lo, 2e3, exclude_min=True)))


class TestClosedLoopProperties:

    # ``rendering`` is set once per test and holds for every example
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), half_width=_floats(0.01, 200.0),
           lag=st.integers(1, 3), theta_norm=normalizers(), data=st.data())
    def test_estimates_stay_inside_theta_normalizer(self, seed, half_width, lag,
                                                    theta_norm, data, rendering):
        rng = np.random.default_rng(seed)
        net = Mlp.random(MlpTopology(3 + lag, 8, 1), rng, half_width)
        model = MoistureModel(net, lag, MoistureNormalizers(theta=theta_norm))
        forcing = data.draw(st.lists(
            st.builds(ForcingDay, et0=_floats(0.0, 20.0), precip=_floats(0.0, 300.0),
                      kc=_floats(0.01, 2.0)),
            min_size=1, max_size=40), label="forcing")
        theta_init = data.draw(st.lists(_floats(-1e4, 1e4), min_size=lag, max_size=lag),
                               label="theta_init")
        est = simulate_moisture(model, forcing, theta_init, SimMode.CLOSED_LOOP)
        assert len(est) == len(forcing)
        assert all(theta_norm.lo <= v <= theta_norm.hi for v in est)


# The per-day loops that predict_et0_series and simulate_moisture ran before
# each became one series call, kept as they were, with the inline input
# scaling they used: both renderings of the series loop must give their
# results bit for bit.

def _per_day_et0(model, days):
    fwd = bind(model.net)
    tn = model.temp_norm
    out = []
    for d in days:
        lo = tn.lo
        span = tn.hi - lo
        a, b, c = (d.tmax - lo) / span, (d.tavg - lo) / span, (d.tmin - lo) / span
        if 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= c <= 1.0:
            x = [a, b, c]
        else:
            x = [normalize(d.tmax, tn), normalize(d.tavg, tn), normalize(d.tmin, tn)]
        (u,) = fwd(x)
        out.append(denormalize(u, model.et0_norm))
    return out


def _input_vector(f, lags, norms):
    n_et0, n_precip, n_kc, n_theta = norms.et0, norms.precip, norms.kc, norms.theta
    lo = n_theta.lo
    span = n_theta.hi - lo
    x = [(f.et0 - n_et0.lo) / (n_et0.hi - n_et0.lo),
         (f.precip - n_precip.lo) / (n_precip.hi - n_precip.lo),
         (f.kc - n_kc.lo) / (n_kc.hi - n_kc.lo)]
    for v in lags:
        x.append((v - lo) / span)
    for u in x:
        if not 0.0 <= u <= 1.0:
            return [normalize(f.et0, n_et0), normalize(f.precip, n_precip),
                    normalize(f.kc, n_kc), *(normalize(v, n_theta) for v in lags)]
    return x


def _per_day_moisture(m, forcing, theta_init, mode, theta_obs):
    fwd = bind(m.net)
    norms, n_theta = m.norms, m.norms.theta
    teacher = mode is SimMode.TEACHER_FORCED
    # theta_{t-1} .. theta_{t-lag}, newest first, as build_patterns orders them
    lags = list(reversed(theta_init))
    estimates = []
    for t, f in enumerate(forcing):
        (u,) = fwd(_input_vector(f, lags, norms))
        estimate = denormalize(u, n_theta)
        estimates.append(estimate)
        lags = [theta_obs[t] if teacher else estimate] + lags[:-1]
    return estimates


# each rendering's kernel, built once per topology for every example
_KERNELS = [functools.cache(rendering_kernel(name))
            for name in ("python", "c") if name == "python" or shutil.which("cc")]


def _on_each_rendering(fn):
    """``repr`` of each value ``fn()`` gives with each rendering's series loop."""
    results = []
    for kernel in _KERNELS:
        with mock.patch.object(ann, "_kernel", kernel):
            results.append([repr(v) for v in fn()])
    return results


def _signed(lo, hi):
    """Floats in [lo, hi], zeros of either sign among them."""
    return st.one_of(st.sampled_from([-0.0, 0.0]), _floats(lo, hi))


@st.composite
def nets(draw, n_inputs):
    topo = MlpTopology(n_inputs, 8, 1)
    weight = _signed(-20.0, 20.0)
    return Mlp(topo, np.array(draw(st.lists(weight, min_size=8 * (n_inputs + 1),
                                            max_size=8 * (n_inputs + 1)))).reshape(8, -1),
               np.array([draw(st.lists(weight, min_size=9, max_size=9))]),
               gain=draw(_floats(0.0, 1.0, exclude_min=True)))


class TestSeriesRenderings:
    """C series == Python series == the per-day loop, compared by ``repr``,
    on inputs inside and outside their normalizers."""

    @settings(max_examples=100, deadline=None)
    @given(net=nets(3), data=st.data())
    def test_et0_series(self, net, data):
        temps = data.draw(st.lists(st.lists(_signed(-20.0, 70.0), min_size=3, max_size=3),
                                   max_size=30), label="temps")
        days = [DailyWeather(i, date(2010, 1, 1) + timedelta(days=i), *sorted(t, reverse=True),
                             0.0) for i, t in enumerate(temps)]
        model = Et0Model(net)
        results = _on_each_rendering(lambda: predict_et0_series(model, days))
        assert results == [[repr(v) for v in _per_day_et0(model, days)]] * len(_KERNELS)

    @settings(max_examples=100, deadline=None)
    @given(lag=st.integers(1, 3), mode=st.sampled_from(SimMode), data=st.data())
    def test_moisture_series(self, lag, mode, data):
        model = MoistureModel(data.draw(nets(3 + lag), label="net"), lag)
        forcing = data.draw(st.lists(
            st.builds(ForcingDay, et0=_signed(0.0, 20.0), precip=_signed(0.0, 300.0),
                      kc=_floats(0.01, 2.0)), max_size=30), label="forcing")
        theta = _signed(-0.5, 1.5)
        theta_init = data.draw(st.lists(theta, min_size=lag, max_size=lag), label="theta_init")
        theta_obs = data.draw(st.lists(theta, min_size=len(forcing), max_size=len(forcing)),
                              label="theta_obs")
        results = _on_each_rendering(
            lambda: simulate_moisture(model, forcing, theta_init, mode, theta_obs))
        ref = _per_day_moisture(model, forcing, theta_init, mode, theta_obs)
        assert results == [[repr(v) for v in ref]] * len(_KERNELS)


def _real(lo, hi):
    return _floats(lo, hi).map(repr)


def _pair(lo, hi):
    return st.tuples(_floats(lo, hi), _floats(lo, hi)).filter(
        lambda p: p[0] < p[1]).map(lambda p: f"{p[0]!r} {p[1]!r}")


# "#" starts a comment and a newline ends the line, so no config value holds them
_PATH_CHARS = string.ascii_letters + string.digits + "/._-= "


@st.composite
def config_texts(draw):
    """A config document setting every key to a random valid value."""
    res = draw(_floats(0.0, 0.5))
    lag = draw(st.integers(1, 5))
    theta_lo, theta_hi = draw(st.tuples(_floats(0.0, 1.0), _floats(0.0, 1.0)).filter(
        lambda p: p[0] < p[1]))
    sat = draw(_floats(res, 0.9, exclude_min=True))
    above_res = _floats(res, sat, exclude_min=True).map(repr)
    values = {
        "site.latitude_deg": _real(-89.9, 89.9),
        "site.altitude_m": _real(-400.0, 5000.0),
        "normalizer.temp_c": _pair(-60.0, 80.0),
        "normalizer.et0_mm": _pair(0.0, 30.0),
        "normalizer.precip_mm": _pair(0.0, 500.0),
        "normalizer.kc": _pair(0.0, 3.0),
        "normalizer.theta_vwc": st.just(f"{theta_lo!r} {theta_hi!r}"),
        "kc.stage_lengths": st.lists(st.integers(1, 200), min_size=4, max_size=4).map(
            lambda xs: " ".join(map(str, xs))),
        "kc.values": st.lists(_floats(0.01, 2.0), min_size=3, max_size=3).map(
            lambda xs: " ".join(map(repr, xs))),
        "moisture.lag": st.just(str(lag)),
        "moisture.sim_mode": st.sampled_from([m.value for m in SimMode]),
        "moisture.theta_init": _real(theta_lo, theta_hi),  # inside the normalizer
        "weather.tavg_mean_c": _real(-10.0, 40.0),
        "weather.tavg_amplitude_c": _real(0.0, 10.0),
        "weather.diurnal_range_c": _real(0.1, 30.0),
        "weather.wet_day_prob": _real(0.0, 1.0),
        "weather.precip_mean_wet_mm": _real(0.0, 60.0),
        "field.root_depth_m": _real(0.05, 2.0),
        "field.theta_sat": st.just(repr(sat)),
        "field.theta_res": st.just(repr(res)),
        "field.theta_init": above_res,
        "field.runoff_threshold": above_res,
        "field.percolation_mm_day": _real(0.0, 50.0),
    }
    for model in ("et0", "moisture"):
        values[f"train.{model}.epochs"] = st.integers(1, 10**6).map(str)
        values[f"train.{model}.learning_rate"] = _real(1e-6, 10.0)
        values[f"train.{model}.seed"] = st.integers(0, 2**63).map(str)
        values[f"train.{model}.init_half_width"] = _real(1e-6, 100.0)
    for period in ("period1", "period2"):
        values[f"{period}.planting"] = st.dates().map(lambda d: d.isoformat())
        values[f"{period}.days"] = st.integers(1, 10**4).map(str)
        values[f"{period}.source"] = st.sampled_from(["synth", "csv"])
        values[f"{period}.seed"] = st.integers(0, 2**63).map(str)
        values[f"{period}.data"] = st.text(_PATH_CHARS, max_size=30).map(str.strip)
    values["period1.days"] = st.integers(lag + 1, 10**4).map(str)  # a day past the lag
    return "".join(f"{key} = {draw(strategy)}\n" for key, strategy in values.items())


class TestConfigRoundTrip:

    @settings(max_examples=100, deadline=None)
    @given(text=config_texts())
    def test_format_then_parse_gives_the_same_config(self, text):
        cfg = parse_config(text)
        echoed = format_config(cfg)
        assert parse_config(echoed) == cfg
        assert format_config(parse_config(echoed)) == echoed

    @settings(max_examples=300, deadline=None)
    @given(lat_deg=_floats(-89.99, 89.99))
    @example(lat_deg=3.0)  # math.degrees(math.radians(3.0)) == 3.0000000000000004
    def test_latitude_round_trips_exactly(self, lat_deg):
        cfg = parse_config(f"site.latitude_deg = {lat_deg!r}\n")
        assert parse_config(format_config(cfg)).site.latitude == cfg.site.latitude
        assert math.isfinite(cfg.site.latitude)


@st.composite
def station_records(draw):
    """Finite records in strictly increasing time order, theta present on
    some, all or none of them."""
    stamps = sorted(draw(st.lists(st.datetimes(), unique=True, max_size=40)))
    theta = st.none() | _floats(0.0, 1.0) if draw(st.booleans()) else st.none()
    return [HalfHourRecord(ts, draw(st.floats(allow_nan=False, allow_infinity=False)),
                           draw(_floats(0.0, None)), draw(theta))
            for ts in stamps]


def _bits(record):
    return [record.timestamp.isoformat(),
            *(None if v is None else v.hex() for v in record[1:])]


class TestHalfHourlyRoundTrip:

    # the fixture's patch holds for every example of the test
    @pytest.mark.usefixtures("station_reader")
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(records=station_records())
    def test_write_then_read_gives_the_same_records(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "station.csv"
            write_half_hourly_csv(path, records)
            back = read_half_hourly_csv(path)
        assert back == records
        assert [_bits(r) for r in back] == [_bits(r) for r in records]
        assert all(type(r) is HalfHourRecord for r in back)


# Cells the C scanner must read as float() does, or decline: signs, bare
# points, subnormals, more digits than a double holds, overflow, underflow,
# and what float() accepts or rejects outside the scanner's number syntax.
_ODD_NUMBERS = ["+1", ".5", "5.", "-0.0", "-0", "0e0", "5e-324", "4.9406564584124654e-324",
                "2.2250738585072011e-308", "0.30000000000000004441",
                "123456789012345678901234567890", "1e400", "-1e400", "1e-400", "1_0",
                " 1.5", "1.5 ", "nan", "inf", "-Infinity", "0x1p3", "1e", ".", "+", "",
                "1.0.0", "1e+", "١"]


def _written(values):
    """A cell's text: a value of ``values`` written one of several ways."""
    return values.flatmap(lambda v: st.sampled_from(
        [repr(v), f"{v:.3f}", f"{v:+.17e}", f"{v:.25g}", f"{v:E}"]))


def _number(values):
    """A cell's text: a value of ``values`` written one of several ways, or
    an odd cell."""
    written = _written(values)
    return st.one_of(written, written, st.sampled_from(_ODD_NUMBERS))


@st.composite
def station_texts(draw):
    """The text of a station file: mostly well-formed, with blank lines,
    extra columns, missing or empty theta and no final newline, and in most
    files one kind of fault: a timestamp that is not plain, numbers of
    ``_ODD_NUMBERS``, a negative precipitation, a theta outside [0, 1], a
    repeated, earlier or offset timestamp, a quoted or non-ASCII cell, a
    quote running on to the next line too, or CRLF line ends."""
    odd = draw(st.sampled_from([None, None, "stamp", "number", "precip", "theta", "order",
                                "quote", "crlf"]))
    theta = odd == "theta" or draw(st.booleans())
    header = ["timestamp_iso8601", "temp_c", "precip_mm"] + (["theta_vwc"] if theta else [])
    extra = draw(st.sampled_from([0, 0, 1, 2]))
    header += ["note"] * extra
    stamps = sorted(draw(st.lists(st.datetimes(), unique=True, max_size=30)))
    if stamps and odd == "order":  # repeated, earlier, or offset
        i = draw(st.integers(0, len(stamps) - 1))
        stamps[i] = draw(st.sampled_from([stamps[0], stamps[-1],
                                          stamps[i].replace(tzinfo=timezone.utc)]))
    lines = [",".join(header)]
    for ts in stamps:
        wild = draw(st.integers(0, 2)) == 0 and odd
        texts = [ts.isoformat(), ts.isoformat(" ")]
        if wild == "stamp":
            texts = [ts.isoformat(timespec="milliseconds"), ts.isoformat(timespec="minutes"),
                     ts.date().isoformat(), ts.strftime("%Y%m%dT%H%M%S"), ts.isoformat() + "Z",
                     ts.isoformat() + " ", ts.isoformat().replace("-", "/")]
        number = _number if wild == "number" else _written
        cells = [draw(st.sampled_from(texts)), draw(number(_floats(-60.0, 60.0))),
                 draw(number(_floats(-1.0, 0.0) if wild == "precip" else _floats(0.0, None)))]
        reading = draw(number(_floats(-0.5, 1.5) if wild == "theta" else _floats(0.0, 1.0)))
        # a row leaves its theta cell out only where no extra cell would take its place
        if wild == "theta" or extra or draw(st.integers(0, 3)):
            cells.append(reading if wild == "theta" or draw(st.integers(0, 5)) else "")
        cells += draw(st.lists(st.sampled_from(["x", "", "a b"]), max_size=extra))
        if wild == "quote":
            cells.append(draw(st.sampled_from(['"a', '"a', 'b"', '"q,uoted"', '""', "é"])))
        lines.append(",".join(cells))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    end = "\r\n" if odd == "crlf" else "\n"
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _read_once_lf(text, columns):
    """Whether the C scanner reads ``text``, a file drawn with CRLF line ends
    and so with no other fault, once its line ends are LF."""
    if ingest._scanner() is None:
        pytest.skip("the C station-file scanner did not build")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plain.csv"
        path.write_bytes(text.replace("\r\n", "\n").encode("utf-8"))
        return ingest._scan_plain(ingest._scanner(), path, columns) is not None


class TestStationScanner:

    @settings(max_examples=200, deadline=None)
    @given(text=station_texts())
    def test_crlf_is_the_only_fault_of_its_file(self, text):
        assert "\r\n" not in text or _read_once_lf(text, ingest._HALF_HOURLY_COLUMNS)

    @settings(max_examples=400, deadline=None)
    @given(text=station_texts(), block=st.sampled_from([128, 1 << 18]))
    def test_scanner_and_python_pass_agree(self, text, block):
        """Bit-identical records, or the same exception type and message."""
        if ingest._scanner() is None:
            pytest.skip("the C station-file scanner did not build")

        def outcome():
            try:
                return [_bits(r) for r in read_half_hourly_csv(path)]
            except Exception as exc:  # noqa: BLE001  any exception must match too
                return type(exc), str(exc)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "station.csv"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.object(ingest, "_BLOCK", block):
                scanned = outcome()
                with mock.patch.object(ingest, "_scanner", lambda: None):
                    python = outcome()
        assert scanned == python


def _halfway(x: float, digits: int) -> str:
    """The point halfway between ``x`` and the next double up, its exact
    decimal expansion cut to ``digits`` significant digits."""
    mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    k = mid.denominator.bit_length() - 1  # mid is n / 2^k = n 5^k / 10^k
    n = str(mid.numerator * 5 ** k)
    return f"{n[0]}.{n[1:digits]}e{len(n) - 1 - k}"


@st.composite
def decimal_texts(draw):
    """A number in the scanner's grammar: ``repr`` of any bit pattern, a
    halfway point between neighbouring doubles cut at 17-40 digits, a
    subnormal, or a mantissa of up to 25 digits with leading zeros and an
    exponent in [-400, 400]."""
    kind = draw(st.sampled_from(["bits", "halfway", "subnormal", "digits"]))
    if kind == "bits":
        return repr(struct.unpack("<d", struct.pack("<Q", draw(st.integers(0, 2**64 - 1))))[0])
    if kind in ("halfway", "subnormal"):
        x = (draw(st.floats(0.0, 2.2250738585072014e-308, exclude_max=True)) if kind == "subnormal"
             else draw(st.floats(0.0, sys.float_info.max, exclude_max=True)))
        return draw(st.sampled_from(["", "-"])) + draw(st.sampled_from([
            repr(x), _halfway(x, draw(st.integers(17, 40)))]))
    n = draw(st.integers(1, 25) | st.sampled_from([19, 20, 25]))
    mantissa = draw(st.sampled_from("123456789")) + draw(st.text("0123456789", min_size=n - 1,
                                                                 max_size=n - 1))
    point = draw(st.integers(0, n + 1))  # n + 1: no point
    text = draw(st.sampled_from(["", "0", "000"])) + (
        mantissa if point > n else f"{mantissa[:point]}.{mantissa[point:]}")
    exponent = draw(st.none() | st.integers(-400, 400))
    if exponent is not None:
        text += draw(st.sampled_from("eE")) + (draw(st.sampled_from(["", "+"])) if exponent >= 0
                                                else "") + str(exponent)
    return draw(st.sampled_from(["", "-", "+"])) + text


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# named cases: the least subnormal, the least normal and the largest double,
# signed zeros, powers of two, integers about 2^53, and decimal points 4 and 5
# places before the first digit, and 16 and 17 after it
_NAMED_REALS = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0,
                *(math.ldexp(1.0, k) for k in (-1074, -1060, -1023, -1022, -1, 0, 52, 53, 1023)),
                *(2.0 ** 53 + k for k in (-2, -1, 0, 2, 4)), -(2.0 ** 53),
                1e-4, 1.2345e-4, 9.999999999999999e-5, 1e-5, 1.25e-5, -0.000123456789012345,
                1e15, 9999999999999998.0, 1234567890123456.8, 1e16, 1.2345678901234568e16,
                12345678901234567.0, 1e17, 1e22, 1e23, 0.1, 1 / 3, 123.456]


class TestFormattedReals:

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.integers(0, 2 ** 64 - 1).map(_double).filter(math.isfinite)
                           | st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k))
                           | st.integers(1, 2 ** 52 - 1).map(_double)  # subnormals
                           | st.sampled_from(_NAMED_REALS), min_size=1, max_size=60),
           dates=st.lists(st.dates(), min_size=1, max_size=12),
           index=st.integers(-2 ** 63, 2 ** 63 - 1))
    @example(values=_NAMED_REALS, dates=[date(1, 1, 1), date(9999, 12, 31)], index=-2 ** 63)
    def test_each_real_is_its_repr(self, values, dates, index):
        """format_daily writes each finite double as repr does, dates in every
        year, and any day_index a long holds; five reals a row, the fifth as
        theta_vwc (NaN for an empty cell)."""
        c = ingest._scanner()
        if c is None:
            pytest.skip("the C station-file scanner did not build")
        values = values + [0.0] * (-len(values) % 5)
        rows = [(index + i, dates[i % len(dates)], *values[5 * i:5 * i + 4])
                for i in range(len(values) // 5) if -2 ** 63 <= index + i < 2 ** 63]
        theta = [None if i % 3 == 2 else v for i, v in enumerate(values[4::5])][:len(rows)]
        out = np.empty(len(rows) * ingest._ROW_BYTES, np.uint8)
        block = ingest._daily_block(c, rows, theta, out)
        assert isinstance(block, np.ndarray)  # formatted in C, not by the Python lines
        assert bytes(block).decode().splitlines() == [
            f"{day.isoformat()},{i}," + ",".join(map(repr, reals)) + ","
            + ("" if v is None else repr(v)) for (i, day, *reals), v in zip(rows, theta)]


class TestScannedNumbers:

    @settings(max_examples=800, deadline=None)
    @given(text=decimal_texts())
    @example(text="9007199254740993")
    @example(text="1e23")
    @example(text="2.2250738585072011e-308")
    @example(text="0.30000000000000004441")
    def test_scanned_value_is_float(self, text):
        """The scanner stores float(text)'s bits, or declines a non-finite
        value."""
        c = ingest._scanner()
        if c is None:
            pytest.skip("the C station-file scanner did not build")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "station.csv"
            path.write_text(f"timestamp_iso8601,temp_c,precip_mm\n2011-01-01T00:00:00,{text},0\n")
            records = ingest._scan_plain(c, path)
        value = float(text)
        if math.isfinite(value):
            assert records is not None and records._columns[2][0].hex() == value.hex()
        else:
            assert records is None


@st.composite
def station_days(draw):
    """``(text, plain)``: a station file over a few consecutive days, each
    with any of its 48 intervals, at the ends of the calendar too; some days
    only ``-0.0`` and ``0.0`` in either order, theta on some rows, huge
    precipitation now and then, and in one file in ten a repeated row.  It
    is ``plain`` when it has no repeated row."""
    first = draw(st.sampled_from([date(1, 1, 1), date(9999, 12, 28)])
                 | st.dates(max_value=date(9999, 12, 28)))
    theta = draw(st.booleans())
    lines = ["timestamp_iso8601,temp_c,precip_mm" + (",theta_vwc" if theta else "")]
    for k in range(draw(st.integers(1, 4))):
        midnight = datetime.combine(first + timedelta(days=k), datetime.min.time())
        temps = st.sampled_from([-0.0, 0.0]) if draw(st.booleans()) else _floats(-60.0, 60.0)
        precip = _floats(0.0, None) if draw(st.integers(0, 9)) == 0 else _floats(0.0, 50.0)
        for slot in sorted(draw(st.lists(st.integers(0, 47), unique=True, max_size=48))):
            ts = midnight + timedelta(minutes=30 * slot,
                                      microseconds=draw(st.sampled_from([0, 0, 1, 999999])))
            cells = [ts.isoformat(draw(st.sampled_from("T "))), repr(draw(temps)),
                     repr(draw(precip))]
            if theta and draw(st.booleans()):
                cells.append(repr(draw(_floats(0.0, 1.0))))
            lines.append(",".join(cells))
    plain = len(lines) < 3 or draw(st.integers(0, 9)) > 0
    if not plain:
        lines.insert(draw(st.integers(2, len(lines) - 1)), lines[1])
    return "\n".join(lines) + "\n", plain


class TestDaySums:

    @settings(max_examples=300, deadline=None)
    @given(file=station_days(), min_coverage=st.integers(1, 48))
    def test_scanned_days_are_the_python_loops(self, file, min_coverage):
        """The same float bits, theta, gaps and exceptions with the scanner's
        columns summed in C as with the records summed by the Python loop."""
        if ingest._scanner() is None:
            pytest.skip("the C station-file scanner did not build")
        text, plain = file

        def outcome():
            try:
                records = read_half_hourly_csv(path)
                assert (records._columns is not None) is (plain and ingest._scanner() is not None)
                agg = daily_aggregate(records, min_coverage)
            except (DataFormatError, ValueError) as exc:
                return type(exc), str(exc)
            return ([(d.day_index, d.date, *(v.hex() for v in d[2:])) for d in agg.days],
                    [None if v is None else v.hex() for v in agg.theta], agg.gaps)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "station.csv"
            path.write_text(text, encoding="utf-8")
            scanned = outcome()
            with mock.patch.object(ingest, "_scanner", lambda: None):
                python = outcome()
        assert scanned == python


@st.composite
def daily_texts(draw):
    """The text of a daily file: mostly well-formed, with blank lines, extra
    columns, missing or blank theta and no final newline, and in most files
    one kind of fault: a date or day index that is not plain, temperatures
    of ``_ODD_NUMBERS`` or out of order, a negative precipitation, a theta
    outside [0, 1], a repeated or earlier date, a quoted cell, one running
    on to the next line too, or CRLF line ends."""
    odd = draw(st.sampled_from([None, None, "date", "index", "number", "temps", "precip",
                                "theta", "order", "quote", "crlf"]))
    theta = odd == "theta" or draw(st.booleans())
    header = list(ingest._DAILY_COLUMNS) + (["theta_vwc"] if theta else [])
    extra = draw(st.sampled_from([0, 0, 1, 2]))
    header += ["note"] * extra
    dates = sorted(draw(st.lists(st.dates(), unique=True, max_size=30)))
    if dates and odd == "order":
        i = draw(st.integers(0, len(dates) - 1))
        dates[i] = draw(st.sampled_from([dates[0], dates[-1]]))
    lines = [",".join(header)]
    for k, day in enumerate(dates):
        wild = draw(st.integers(0, 2)) == 0 and odd
        texts, indices = [day.isoformat()], [str(k), f"+{k}", f"-{k}", f"00{k}", "9" * 18]
        if wild == "date":
            texts = [f"{day.year:04d}{day.month:02d}{day.day:02d}", f"{day.year}-02-29",
                     day.isoformat() + " ", f"{day.year:04d}-{day.month}-{day.day:02d}"]
        if wild == "index":
            indices = ["9" * 19, "1" * 30, "1_0", f" {k}", "", "x", "+", "0x1"]
        temps = [draw((_number if wild == "number" else _written)(st.just(v)))
                 for v in sorted((draw(_floats(-60.0, 60.0)) for _ in range(3)), reverse=True)]
        if wild != "number":  # a value written to fewer digits may pass its neighbour
            temps.sort(key=float, reverse=True)
        if wild == "temps":
            temps = draw(st.permutations(temps))
        cells = [draw(st.sampled_from(texts)), draw(st.sampled_from(indices)), *temps,
                 draw(_written(_floats(-1.0 if wild == "precip" else 0.0, None)))]
        reading = draw(_written(_floats(-0.5, 1.5) if wild == "theta" else _floats(0.0, 1.0)))
        # a row leaves its theta cell out only where no extra cell would take its place
        if wild == "theta" or extra or draw(st.integers(0, 3)):
            cells.append(reading if wild == "theta" or draw(st.integers(0, 5)) else "")
        cells += draw(st.lists(st.sampled_from(["x", "", "a b"]), max_size=extra))
        if wild == "quote":
            cells.append(draw(st.sampled_from(['"a', '"a', 'b"', '"q,uoted"', '""'])))
        lines.append(",".join(cells))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    end = "\r\n" if odd == "crlf" else "\n"
    return end.join(lines) + draw(st.sampled_from([end, ""]))


class TestDailyScanner:

    HEADER = "date,day_index,tmax_c,tavg_c,tmin_c,precip_mm,theta_vwc,note\n"

    @settings(max_examples=200, deadline=None)
    @given(text=daily_texts())
    def test_crlf_is_the_only_fault_of_its_file(self, text):
        assert "\r\n" not in text or _read_once_lf(text, ingest._DAILY_COLUMNS)

    @settings(max_examples=400, deadline=None)
    @given(text=daily_texts(), block=st.sampled_from([128, 1 << 18]))
    @example(text=HEADER + '2011-01-05,0,3,2,1,0,,"a\n2011-01-06,1,3,2,1,0,,b"\n', block=128)
    @example(text=HEADER + "2011-01-05,0,3,2,1,0,1.5\n", block=128)
    @example(text=HEADER + "2011-01-05,0,3,2,1,-1,0.5\n", block=128)
    @example(text=HEADER + "2011-01-05,0,3,1,2,0,0.5\n", block=128)
    @example(text=HEADER + "2011-01-05," + "9" * 19 + ",3,2,1,0,0.5\n", block=128)
    def test_scanner_and_python_pass_agree(self, text, block):
        """Bit-identical days and theta, or the same exception type and
        message."""
        if ingest._scanner() is None:
            pytest.skip("the C station-file scanner did not build")

        def outcome():
            try:
                days, theta = read_daily_csv(path)
            except Exception as exc:  # noqa: BLE001  any exception must match too
                return type(exc), str(exc)
            assert all(type(d) is DailyWeather for d in days)
            return ([(d.day_index, d.date, *(v.hex() for v in d[2:])) for d in days],
                    [None if v is None else v.hex() for v in theta])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "daily.csv"
            path.write_bytes(text.encode("utf-8"))
            with mock.patch.object(ingest, "_BLOCK", block):
                scanned = outcome()
                with mock.patch.object(ingest, "_scanner", lambda: None):
                    python = outcome()
        assert scanned == python


# write_half_hourly_csv as a csv.writer loop, the reference its bytes must equal
def _reference_write_half_hourly_csv(path, records):
    any_theta = any(r.theta is not None for r in records)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp_iso8601", "temp_c", "precip_mm"]
                        + (["theta_vwc"] if any_theta else []))
        for r in records:
            row = [r.timestamp.isoformat(), repr(r.temp), repr(r.precip)]
            if any_theta:
                row.append("" if r.theta is None else repr(r.theta))
            writer.writerow(row)


@st.composite
def daily_series(draw):
    """``(days, theta)`` that :func:`write_daily_csv` writes: increasing
    dates, any finite ordered temperatures and precipitation, and theta
    absent, all None, or in [0, 1] on some days."""
    dates = sorted(draw(st.lists(st.dates(), unique=True, max_size=30)))
    days = []
    for k, day in enumerate(dates):
        tmin, tavg, tmax = sorted(draw(st.floats(allow_nan=False, allow_infinity=False))
                                  for _ in range(3))
        days.append(DailyWeather(draw(st.integers(-10**6, 10**6) | st.just(k)), day, tmax,
                                 tavg, tmin, draw(_floats(0.0, None))))
    theta = draw(st.none() | st.lists(st.none() | _floats(0.0, 1.0), min_size=len(days),
                                      max_size=len(days)))
    return days, theta


class TestWriterBytes:

    @settings(max_examples=200, deadline=None)
    @given(series=daily_series())
    def test_daily_file_is_the_csv_writers(self, series):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
            write_daily_csv(new, *series)
            _reference_write_daily_csv(old, *series)
            assert new.read_bytes() == old.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(records=station_records())
    def test_station_file_is_the_csv_writers(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
            write_half_hourly_csv(new, records)
            _reference_write_half_hourly_csv(old, records)
            assert new.read_bytes() == old.read_bytes()


# one word of a provenance entry: no whitespace, no line break, no control character
_WORDS = st.text(st.characters(exclude_categories=("Z", "C")), min_size=1, max_size=8)


def _matrix(draw, n_rows, n_cols):
    return np.array([draw(st.lists(_floats(None, None), min_size=n_cols, max_size=n_cols))
                     for _ in range(n_rows)])


@st.composite
def model_artifacts(draw):
    """An artifact of either kind with random hidden size, lag, weights and
    provenance, and the net its kind's model takes: 3-n-1 with lag 0 for et0,
    (3 + lag)-n-1 for moisture."""
    kind, keys = draw(st.sampled_from([("et0", ("temp", "et0")),
                                       ("moisture", ("et0", "precip", "kc", "theta"))]))
    lag = 0 if kind == "et0" else draw(st.integers(1, 10))
    topo = MlpTopology(3 + lag, draw(st.integers(1, 9)), 1)
    return ModelArtifact(
        kind=kind, topology=topo, lag=lag,
        gain=draw(_floats(0.0, 1.0, exclude_min=True)),
        norms={key: draw(normalizers()) for key in keys},
        provenance=draw(st.dictionaries(_WORDS, st.lists(_WORDS, min_size=1, max_size=3).map(
            " ".join), max_size=4)),
        w_hidden=_matrix(draw, topo.n_hidden, topo.n_inputs + 1),
        w_output=_matrix(draw, topo.n_outputs, topo.n_hidden + 1),
    )


def _norm_bits(norms):
    return {key: (nz.lo.hex(), nz.hi.hex()) for key, nz in norms.items()}


class TestModelArtifactRoundTrip:

    @settings(max_examples=100, deadline=None)
    @given(art=model_artifacts())
    def test_save_then_load_gives_the_same_artifact(self, art):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.model"
            save_model(art, path)
            saved = path.read_bytes()
            back = load_model(path)
            save_model(back, path)
            assert path.read_bytes() == saved
        assert (back.kind, back.topology, back.lag) == (art.kind, art.topology, art.lag)
        assert back.gain.hex() == art.gain.hex()
        assert list(back.norms) == list(art.norms)
        assert _norm_bits(back.norms) == _norm_bits(art.norms)
        assert back.provenance == art.provenance
        assert back.w_hidden.shape == art.w_hidden.shape
        assert back.w_hidden.tobytes() == art.w_hidden.tobytes()
        assert back.w_output.shape == art.w_output.shape
        assert back.w_output.tobytes() == art.w_output.tobytes()


_U = Fraction(1, 2 ** 53)  # the unit roundoff
_ETA = Fraction(1, 2 ** 1075)  # half the least subnormal
_GAMMA = (1 + _U) ** 4 - 1
_OVERFLOW = Fraction(2 ** 1024 - 2 ** 970)  # the least real that rounds to inf
_LEAST_NORMAL = Fraction(1, 2 ** 1022)


def _ulps(x: float, k: int) -> float:
    """``x`` moved ``k`` doubles up (k > 0) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def metric_pairs(draw):
    """Observed and estimated series of 1 to 200 values with |x| <= 1e308 (a
    nearly constant one may step a few doubles past 1e150): any values up to
    1e150, huge ones up to 1e308 (whose squares, sums and differences may
    overflow), tiny ones (whose squares underflow), nearly constant ones (one
    value, up to three of them moved a few doubles), or an estimate a few
    doubles off the observation."""
    n = draw(st.integers(1, 200))

    def series():
        kind = draw(st.sampled_from(["any", "huge", "tiny", "near"]))
        if kind in ("any", "huge"):
            bound = 1e150 if kind == "any" else 1e308
            return draw(st.lists(_floats(-bound, bound), min_size=n, max_size=n))
        if kind == "tiny":
            scale = draw(st.integers(-560, -480))  # squares normal, subnormal or 0
            return [math.ldexp(v, scale)
                    for v in draw(st.lists(_floats(-1.0, 1.0), min_size=n, max_size=n))]
        values = [draw(_floats(-1e150, 1e150))] * n
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, n - 1))
            values[i] = _ulps(values[i], draw(st.integers(-3, 3)))
        return values
    obs = series()
    if draw(st.booleans()):
        return obs, series()
    return obs, list(map(_ulps, obs, draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))))


def _scaled(v: float) -> int:
    """``v`` times 2^1074, an integer: every double is a multiple of 2^-1074."""
    p, q = v.as_integer_ratio()
    return p * (2 ** 1074 // q)


def _sum_bounds(d, e):
    """Where fsum(fl(d_i) * fl(e_i)) may fall, for exact d and e given as
    integer multiples of 2^-1074, where each of the d_i may be scaled by 2^-j
    and each of the e_i by 2^-k before they are multiplied, j and k the
    exponents of the largest (so an underflow costs up to eta 2^(max(0, j) +
    max(0, k)), j and k here being at most one more)."""
    total = Fraction(sum(map(operator.mul, d, e)), 2 ** 2148)
    k = sum(max(0, max(map(abs, v)).bit_length() - 1074 + 1) for v in (d, e))
    slack = (_GAMMA * Fraction(sum(abs(x * y) for x, y in zip(d, e)), 2 ** 2148)
             + (1 + _U) * len(d) * _ETA * Fraction(2) ** k)
    return total - slack, total + slack


def _mean(x) -> float:
    """The cells' mean of ``x``: fl(fl(sum x) / n) from the exact sum, or
    where fsum overflows, that of the values scaled by 2^-s, scaled back."""
    try:
        math.fsum(x)
        s = 0
    except OverflowError:
        s = math.frexp(max(map(abs, x)))[1] + len(x).bit_length() - 1023
    total = Fraction(sum(_scaled(math.ldexp(v, -s)) for v in x), 2 ** 1074)
    return math.ldexp(float(total) / len(x), s)


def _grow(lo, hi, rel, absolute=0):
    """[lo, hi] with each end moved out by ``rel`` of its size plus ``absolute``."""
    return lo - abs(lo) * rel - absolute, hi + abs(hi) * rel + absolute


class TestMetricCells:

    @settings(max_examples=200, deadline=None)
    @given(pair=metric_pairs())
    @example(pair=([0.3] * 117 + [math.nextafter(0.3, 1.0)], [0.2 + i / 1000 for i in range(118)]))
    @example(pair=([0.2 + i / 1000 for i in range(118)], [0.3] * 117 + [math.nextafter(0.3, 1.0)]))
    def test_cells_within_the_rounding_bound_of_the_exact_ones(self, pair):
        """Each cell against the same formula in exact rational arithmetic.

        With u = 2^-53 and eta = 2^-1075, a rounded product or quotient is
        z(1 + e) + t with |e| <= u and |t| <= eta (underflow); a rounded
        difference, a correctly rounded sum (fsum) and a sqrt are z(1 + e),
        exact in the subnormal range; scaling by a power of two is exact
        away from underflow.  Then, step by step:

        - the mean of x is m = fl(fl(sum x) / n), each x first scaled by 2^-s
          and m by 2^s where fsum overflows (_mean); it is computed
          here from the exact sum with the same two roundings (float() of a
          Fraction rounds correctly), so the deviations d_i = x_i - m are
          exact rationals.
          They differ from those about the exact mean by delta = m - mean,
          so sum d_i^2 = A + n delta^2 and sum d_i e_i = C + n delta_x
          delta_y, where A and C are the exact cell's sums; that is all the
          mean's rounding costs, which for a nearly constant series is a
          large part of A;
        - the code's sum of products, fsum(fl(d_i) * fl(e_i)), is
          (1 + s) sum(d_i e_i (1 + r_i)(1 + r'_i)(1 + p_i) + t_i), so it is
          within g sum|d_i e_i| + (1 + u) n eta of sum d_i e_i, with
          g = (1 + u)^4 - 1 (_sum_bounds).  Every sum of squares (r^2's Sxx
          and Syy, NSE's SST, and both cells' SSE, with d_i = e_i = x_i - y_i
          exactly) scales each fl(d_i), a difference of halves where one
          would overflow, by 2^-k into [0.5, 1) before squaring it where its
          plain sum is not a normal double, so t_i is eta max(1, 4^k) in
          unscaled units; r^2's Sxy multiplies the deviations so scaled, so
          its t_i is eta 2^(max(0, j) + max(0, k));
        - r^2 is fl(r * r) with r = fl(Sxy / fl(sqrt(fl(Sxx * Syy)))), the
          power-of-two scaling that keeps the product in range being exact:
          Sxy^2 / (Sxx Syy) times a factor in [((1-u)/(1+u))^3,
          ((1+u)/(1-u))^3].  Where the scaled Sxy underflows, r is below
          2^-1021 and r * r rounds to 0, within eta.  The cap at 1 keeps r^2
          in the interval, whose lower end is at most 1 (Cauchy-Schwarz on
          the d_i and e_i);
        - NSE is fl(1 - fl(See / Sxx)), RMSE is fl(sqrt(fl(See / n))), so
          RMSE^2 is fl(See / n) times a factor in [(1-u)^2, (1+u)^2], the
          scalings exact; RMSE refuses only a result past the threshold.

        So each cell lies in an interval computed here exactly from the
        exact sums (and each cell's distance from the exact one is at most
        that interval's reach from it).  The code refuses a sum of squared
        deviations below 2^-1022, so only a sum interval that reaches below
        it allows that refusal, and a sum it did not refuse is at least
        2^-1022; only a ratio interval that reaches the overflow threshold
        allows SSE/SST to overflow.
        """
        x, y = pair
        n = len(x)
        ix, iy = list(map(_scaled, x)), list(map(_scaled, y))
        # the float means, and their distances from the exact ones
        mean_x, mean_y = _mean(x), _mean(y)
        delta_x = Fraction(mean_x) - Fraction(sum(ix), n * 2 ** 1074)
        delta_y = Fraction(mean_y) - Fraction(sum(iy), n * 2 ** 1074)
        d = [v - _scaled(mean_x) for v in ix]
        e = [v - _scaled(mean_y) for v in iy]
        diff = list(map(operator.sub, ix, iy))
        # every cell's sums, of squares or products, each possibly scaled
        sxx, syy, sxy = _sum_bounds(d, d), _sum_bounds(e, e), _sum_bounds(d, e)
        sst, see = sxx, _sum_bounds(diff, diff)
        # the exact cell's sums: about the exact means, sum d_i e_i - n delta_x delta_y
        a_sum = (sxx[0] + sxx[1]) / 2 - n * delta_x ** 2
        b_sum = (syy[0] + syy[1]) / 2 - n * delta_y ** 2
        c_sum = (sxy[0] + sxy[1]) / 2 - n * delta_x * delta_y
        e_sum = (see[0] + see[1]) / 2

        def within(got, exact, lo, hi):
            got = Fraction(got)
            reach = max(hi - exact, exact - lo)
            assert lo <= got <= hi, (float(got), float(exact), float(reach))

        # RMSE: its square against SSE / n
        lo, hi = _grow(see[0] / n, see[1] / n, _U, _ETA)
        try:
            got = rmse(x, y)
        except UndefinedMetricError as exc:
            assert str(exc) == "rmse: the result overflows a double"
            assert hi * (1 + _U) ** 2 >= _OVERFLOW ** 2
        else:
            within(Fraction(got) ** 2, e_sum / n, max(lo, 0) * (1 - _U) ** 2,
                   hi * (1 + _U) ** 2)
        if n < 2:
            return

        if x.count(x[0]) == n:
            assert a_sum == 0
            for metric in (r_squared, nash_sutcliffe):
                with pytest.raises(UndefinedMetricError, match="^observed series is constant"):
                    metric(x, y)
            return

        xx_lo, yy_lo = max(sxx[0], _LEAST_NORMAL), max(syy[0], _LEAST_NORMAL)
        try:
            got = r_squared(x, y)
        except UndefinedMetricError as exc:
            assert str(exc) == "r_squared: a sum of squared deviations underflows"
            assert min(sxx[0], syy[0]) < _LEAST_NORMAL
        else:
            if y.count(y[0]) == n:
                assert got == 0.0 and b_sum == 0
            else:
                c_lo = max(sxy[0], -sxy[1], 0)
                c_hi = max(abs(sxy[0]), abs(sxy[1]))
                slack = ((1 + _U) / (1 - _U)) ** 3
                within(got, c_sum ** 2 / (a_sum * b_sum),
                       c_lo ** 2 / (sxx[1] * syy[1]) / slack - _ETA,
                       c_hi ** 2 / (xx_lo * yy_lo) * slack + _ETA)

        q = _grow(max(see[0], 0) / sst[1], see[1] / max(sst[0], _LEAST_NORMAL), _U, _ETA)
        try:
            got = nash_sutcliffe(x, y)
        except UndefinedMetricError as exc:
            assert (str(exc) == "nash_sutcliffe: SST underflows" and sst[0] < _LEAST_NORMAL
                    or str(exc) == "nash_sutcliffe: SSE/SST overflows a double"
                    and q[1] >= _OVERFLOW)
        else:
            within(got, 1 - e_sum / a_sum, *_grow(1 - q[1], 1 - q[0], _U))
