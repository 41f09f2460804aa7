"""Lagged moisture estimator: pattern construction, both simulation modes."""

import math

import numpy as np
import pytest

from paddymoist.ann import (Mlp, MlpTopology, Normalizer, TrainConfig, denormalize,
                            forward, normalize)
from paddymoist.errors import DimensionError, InsufficientHistoryError
from paddymoist.moisture import (ForcingDay, MoistureModel, MoistureNormalizers,
                                 SimMode, build_patterns, simulate_moisture,
                                 train_moisture_model)


def _forcing(rng, n):
    return [ForcingDay(et0=float(rng.uniform(2, 6)), precip=float(rng.uniform(0, 30)),
                       kc=float(rng.uniform(0.9, 1.3))) for _ in range(n)]


def _theta(rng, n):
    return [float(v) for v in rng.uniform(0.2, 0.5, n)]


class TestBuildPatterns:

    def test_pattern_count(self):
        rng = np.random.default_rng(42)
        patterns = build_patterns(_forcing(rng, 118), _theta(rng, 118), lag=1)
        assert len(patterns) == 117

    def test_first_pattern_lag_is_first_observation(self):
        rng = np.random.default_rng(42)
        forcing, theta = _forcing(rng, 10), _theta(rng, 10)
        patterns = build_patterns(forcing, theta, lag=1)
        # theta normalizer is 0..1, so normalized values equal the raw ones
        assert patterns[0].input[3] == theta[0]
        assert patterns[0].target[0] == theta[1]

    def test_higher_lag_counts_and_ordering(self):
        rng = np.random.default_rng(1)
        forcing, theta = _forcing(rng, 30), _theta(rng, 30)
        patterns = build_patterns(forcing, theta, lag=3)
        assert len(patterns) == 27
        # lags are most recent first: theta_{t-1}, theta_{t-2}, theta_{t-3}
        np.testing.assert_allclose(patterns[0].input[3:], [theta[2], theta[1], theta[0]])

    def test_every_target_matches_observation(self):
        rng = np.random.default_rng(9)
        forcing, theta = _forcing(rng, 40), _theta(rng, 40)
        patterns = build_patterns(forcing, theta, lag=2)
        for t, p in enumerate(patterns, start=2):
            assert p.target[0] == theta[t]

    def test_insufficient_history(self):
        rng = np.random.default_rng(42)
        with pytest.raises(InsufficientHistoryError):
            build_patterns(_forcing(rng, 1), _theta(rng, 1), lag=1)

    def test_length_mismatch(self):
        rng = np.random.default_rng(42)
        with pytest.raises(DimensionError):
            build_patterns(_forcing(rng, 10), _theta(rng, 9), lag=1)


class TestTrainMoistureModel:

    def test_same_seed_identical_weights(self):
        rng = np.random.default_rng(42)
        forcing, theta = _forcing(rng, 30), _theta(rng, 30)
        cfg = TrainConfig(seed=7, epochs=20)
        m1, _ = train_moisture_model(forcing, theta, cfg)
        m2, _ = train_moisture_model(forcing, theta, cfg)
        np.testing.assert_array_equal(m1.net.w_hidden, m2.net.w_hidden)
        np.testing.assert_array_equal(m1.net.w_output, m2.net.w_output)

    def test_empty_forcing_rejected(self):
        with pytest.raises(InsufficientHistoryError):
            train_moisture_model([], [], TrainConfig(seed=1))

    def test_topology_follows_lag(self):
        rng = np.random.default_rng(42)
        forcing, theta = _forcing(rng, 30), _theta(rng, 30)
        model, _ = train_moisture_model(forcing, theta, TrainConfig(seed=1, epochs=2),
                                        lag=2)
        assert model.net.topology.n_inputs == 5


class TestSimulateMoisture:

    def _random_model(self, rng, lag=1, spread=4.0):
        net = Mlp.random(MlpTopology(3 + lag, 8, 1), rng, spread)
        return MoistureModel(net, lag=lag)

    def test_output_length(self):
        rng = np.random.default_rng(42)
        model = self._random_model(rng)
        est = simulate_moisture(model, _forcing(rng, 25), [0.4], SimMode.CLOSED_LOOP)
        assert len(est) == 25

    def test_closed_loop_bounded_for_any_weights(self):
        rng = np.random.default_rng(42)
        norm = MoistureNormalizers()
        for _ in range(10):
            model = self._random_model(rng, spread=15.0)
            est = simulate_moisture(model, _forcing(rng, 60), [0.4], SimMode.CLOSED_LOOP)
            assert all(norm.theta.lo <= v <= norm.theta.hi for v in est)

    def test_teacher_forced_needs_observations(self):
        rng = np.random.default_rng(42)
        model = self._random_model(rng)
        with pytest.raises(ValueError):
            simulate_moisture(model, _forcing(rng, 10), [0.4], SimMode.TEACHER_FORCED)

    def test_teacher_forced_length_mismatch(self):
        rng = np.random.default_rng(42)
        model = self._random_model(rng)
        with pytest.raises(DimensionError):
            simulate_moisture(model, _forcing(rng, 10), [0.4], SimMode.TEACHER_FORCED,
                              theta_obs=[0.3] * 9)

    def test_theta_init_length_checked(self):
        rng = np.random.default_rng(42)
        model = self._random_model(rng, lag=2)
        with pytest.raises(DimensionError):
            simulate_moisture(model, _forcing(rng, 10), [0.4], SimMode.CLOSED_LOOP)

    def test_teacher_forced_reproduces_training_predictions(self):
        # simulating with the observed series must give, day by day, the
        # network's one-step outputs on the teacher-forced patterns
        rng = np.random.default_rng(5)
        forcing, theta = _forcing(rng, 40), _theta(rng, 40)
        model, _ = train_moisture_model(forcing, theta, TrainConfig(seed=3, epochs=30))
        est = simulate_moisture(model, forcing, [theta[0]], SimMode.TEACHER_FORCED,
                                theta_obs=theta)
        patterns = build_patterns(forcing, theta, lag=1)
        for t, p in enumerate(patterns, start=1):
            one_step = float(forward(model.net, p.input)[0])  # theta norm is identity
            assert est[t] == one_step

    @pytest.mark.parametrize("lag", [1, 2])
    @pytest.mark.parametrize("mode", list(SimMode))
    def test_matches_per_day_numpy_forward(self, lag, mode):
        # the net is bound once per call; the estimates must be those of the
        # per-day numpy forward pass it replaced, bit for bit
        rng = np.random.default_rng(20 + lag)
        norms = MoistureNormalizers(theta=Normalizer(0.1, 0.6))
        net = Mlp.random(MlpTopology(3 + lag, 8, 1), rng, 4.0)
        net.gain = 0.6
        model = MoistureModel(net, lag, norms)
        forcing, theta = _forcing(rng, 30), _theta(rng, 30)
        init = _theta(rng, lag)
        est = simulate_moisture(model, forcing, init, mode,
                                theta_obs=theta if mode is SimMode.TEACHER_FORCED else None)
        ref: list = []
        source = theta if mode is SimMode.TEACHER_FORCED else ref
        for t, f in enumerate(forcing):
            lags = [source[t - k] if t >= k else init[lag + t - k] for k in range(1, lag + 1)]
            x = [normalize(f.et0, norms.et0), normalize(f.precip, norms.precip),
                 normalize(f.kc, norms.kc), *(normalize(v, norms.theta) for v in lags)]
            ref.append(denormalize(float(forward(model.net, x)[0]), norms.theta))
        assert est == ref

    def test_closed_loop_matches_scalar_iteration_oracle(self):
        # hand-set weights so the output depends only on the lagged theta;
        # the closed loop is then a scalar sigmoid map iterated from u0
        b_hid, w_theta, b_out, v = -0.3, 2.1, 0.4, -1.7
        w_hidden = np.zeros((8, 5))
        w_hidden[0, 0] = b_hid
        w_hidden[0, 4] = w_theta
        w_output = np.zeros((1, 9))
        w_output[0, 0] = b_out
        w_output[0, 1] = v
        model = MoistureModel(Mlp(MlpTopology(4, 8, 1), w_hidden, w_output), lag=1)

        rng = np.random.default_rng(11)
        forcing = _forcing(rng, 30)
        est = simulate_moisture(model, forcing, [0.37], SimMode.CLOSED_LOOP)

        half = 1.0 / (1.0 + math.exp(0.0))  # idle hidden nodes contribute nothing
        assert half == 0.5
        u = 0.37
        for value in est:
            hidden = 1.0 / (1.0 + math.exp(-(b_hid + w_theta * u)))
            u = 1.0 / (1.0 + math.exp(-(b_out + v * hidden)))
            assert value == pytest.approx(u, abs=1e-12)


class TestForcingDay:

    def test_invariants(self):
        with pytest.raises(ValueError):
            ForcingDay(et0=-1.0, precip=0.0, kc=1.0)
        with pytest.raises(ValueError):
            ForcingDay(et0=1.0, precip=-0.1, kc=1.0)
        with pytest.raises(ValueError):
            ForcingDay(et0=1.0, precip=0.0, kc=0.0)

    @pytest.mark.parametrize("field", ["et0", "precip", "kc"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, bad):
        values = dict(et0=1.0, precip=0.0, kc=1.0)
        values[field] = bad
        with pytest.raises(ValueError, match=field):
            ForcingDay(**values)

    @pytest.mark.parametrize("field", ["et0", "precip", "kc"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_message(self, field, bad):
        values = dict(et0=1.0, precip=0.0, kc=1.0)
        values[field] = bad
        with pytest.raises(ValueError) as exc:
            ForcingDay(**values)
        assert str(exc.value) == f"{field} must be finite, got {bad}"

    def test_first_non_finite_field_is_named(self):
        with pytest.raises(ValueError, match="^precip must be finite, got inf"):
            ForcingDay(et0=1.0, precip=math.inf, kc=math.nan)


class TestCrossPeriodProtocol:
    """Moisture agreement cells on the default experiment."""

    def test_training_period_agreement(self, default_report):
        assert default_report.cells["theta_train"].r_squared >= 0.75

    def test_closed_loop_validation_agreement(self, default_report):
        assert default_report.cells["theta_val"].r_squared >= 0.70

    def test_estimates_inside_theta_bounds(self, default_report):
        for period in (default_report.period1, default_report.period2):
            assert all(0.0 <= v <= 1.0 for v in period.theta_est)
