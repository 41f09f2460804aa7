"""Metric implementations against independent direct-formula oracles."""

import math

import numpy as np
import pytest

from paddymoist.errors import DimensionError, UndefinedMetricError
from paddymoist.metrics import nash_sutcliffe, r_squared, rmse


def _r_squared_oracle(obs, est):
    """Two-pass squared Pearson correlation written out longhand."""
    n = len(obs)
    mo = math.fsum(obs) / n
    me = math.fsum(est) / n
    cov = math.fsum((o - mo) * (e - me) for o, e in zip(obs, est))
    vo = math.fsum((o - mo) ** 2 for o in obs)
    ve = math.fsum((e - me) ** 2 for e in est)
    return cov * cov / (vo * ve)


def _rmse_oracle(obs, est):
    return math.sqrt(math.fsum((o - e) ** 2 for o, e in zip(obs, est)) / len(obs))


class TestRSquared:

    def test_perfect_agreement(self):
        obs = [1.0, 2.0, 3.0, 5.0]
        assert r_squared(obs, obs) == pytest.approx(1.0, abs=1e-15)

    def test_identical_series_give_exactly_one(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            obs = list(rng.normal(0, 10.0 ** rng.integers(-100, 100), int(rng.integers(2, 60))))
            assert r_squared(obs, obs) == 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(42)
        obs = rng.uniform(0, 10, 50)
        est = 2.5 * obs + 1.0
        assert r_squared(obs, est) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            obs = list(rng.normal(5, 2, n))
            est = list(rng.normal(5, 2, n))
            assert abs(r_squared(obs, est) - _r_squared_oracle(obs, est)) <= 1e-12

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            obs = rng.normal(0, 1, 30)
            est = rng.normal(0, 1, 30)
            assert 0.0 <= r_squared(obs, est) <= 1.0

    def test_never_above_one(self):
        # the sums of this perfectly anti-correlated pair round r * r to 1 + 2 ulps
        assert r_squared([0.0, 1e-150], [1e150, 0.0]) == 1.0

    def test_constant_estimate_gives_zero(self):
        assert r_squared([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) == 0.0

    def test_errors(self):
        with pytest.raises(DimensionError):
            r_squared([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            r_squared([1.0], [1.0])
        with pytest.raises(UndefinedMetricError):
            r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestConstantSeries:
    """A series is constant when its values are equal, also where their mean
    does not round back to them (that of 118 values of 0.3 or 0.1)."""

    @pytest.mark.parametrize("value", [0.3, 0.1, 0.5])
    def test_constant_obs_is_undefined_and_constant_est_is_zero(self, value):
        constant = [value] * 118
        assert np.mean(constant) != value or value == 0.5
        varying = list(np.random.default_rng(3).uniform(0.2, 0.5, 118))
        with pytest.raises(UndefinedMetricError, match="observed series is constant"):
            r_squared(constant, varying)
        with pytest.raises(UndefinedMetricError, match="observed series is constant"):
            nash_sutcliffe(constant, varying)
        assert r_squared(varying, constant) == 0.0

    def test_one_unequal_value_is_not_constant(self):
        series = [0.3] * 117 + [math.nextafter(0.3, 1.0)]
        assert nash_sutcliffe(series, series) == r_squared(series, series) == 1.0


class TestRefusals:
    """What a cell cannot score faithfully raises UndefinedMetricError naming
    the metric, where numpy returned nan, inf or a wrong 0.0."""

    OBS, EST = [1e308, 1.5e308, 1.7e308], [1e308, 1.2e308, 1.1e308]

    @pytest.mark.parametrize("metric", [r_squared, nash_sutcliffe, rmse])
    def test_sum_that_overflows(self, metric):
        """r_squared refuses series whose sums of squared deviations overflow;
        nash_sutcliffe and rmse scale each difference before squaring it, so
        they score a finite result (past the largest double, the differences
        of halves) and refuse only one that is not finite."""
        if metric is r_squared:
            with pytest.raises(UndefinedMetricError,
                               match="^r_squared: a sum overflows a double$"):
                metric(self.OBS, self.EST)
            return
        huge, flipped = [-1.7e308, 1.7e308], [1.7e308, -1.7e308]  # differences overflow
        if metric is rmse:
            assert rmse(self.OBS, self.EST) == pytest.approx(math.sqrt(0.15) * 1e308, rel=1e-15)
            assert rmse(huge + [0.0] * 6, flipped + [0.0] * 6) == 1.7e308
            with pytest.raises(UndefinedMetricError,
                               match="^rmse: the result overflows a double$"):
                rmse(huge, flipped)
        else:
            assert nash_sutcliffe(self.OBS, self.EST) == pytest.approx(-19 / 26, rel=1e-15)
            assert nash_sutcliffe(huge, flipped) == -3.0
            with pytest.raises(UndefinedMetricError,
                               match="^nash_sutcliffe: SSE/SST overflows a double$"):
                nash_sutcliffe([1.0, 2.0], flipped)

    @pytest.mark.parametrize("metric", [r_squared, nash_sutcliffe, rmse])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["obs", "est"])
    def test_value_that_is_not_finite(self, metric, bad, side):
        good, odd = [1.0, 2.0, 4.0], [1.0, bad, 4.0]
        obs, est = (odd, good) if side == "obs" else (good, odd)
        with pytest.raises(UndefinedMetricError,
                           match=rf"^{metric.__name__}: a value is {bad!r}, not finite$"):
            metric(obs, est)

    def test_constant_estimate_that_is_not_finite(self):
        with pytest.raises(UndefinedMetricError, match="^r_squared: a value is nan"):
            r_squared([1.0, 2.0, 4.0], [math.nan] * 3)

    @pytest.mark.parametrize("scale", [1e-200, 1e-160])  # squares that are 0, or subnormal
    @pytest.mark.parametrize("tiny, varying", [(0, 1), (1, 0)])
    def test_squared_deviations_that_underflow(self, scale, tiny, varying):
        series = ([0.0, scale, 2 * scale], [1.0, 2.0, 4.0])
        with pytest.raises(UndefinedMetricError, match="^r_squared: a sum of squared "
                                                       "deviations underflows$"):
            r_squared(series[tiny], series[varying])
        if tiny == 0:
            with pytest.raises(UndefinedMetricError, match="^nash_sutcliffe: SST underflows$"):
                nash_sutcliffe(series[tiny], series[varying])

    def test_ratio_that_overflows(self):
        with pytest.raises(UndefinedMetricError,
                           match="^nash_sutcliffe: SSE/SST overflows a double$"):
            nash_sutcliffe([0.0, 1e-150], [1e150, 0.0])

    @pytest.mark.parametrize("scale", [500, -300])
    def test_correlation_of_huge_and_tiny_series(self, scale):
        # r is exact under a power-of-two scaling, where the product of the
        # two sums of squares overflows (2^500) or underflows (2^-300)
        obs, est = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
        scaled = r_squared([math.ldexp(v, scale) for v in obs], [math.ldexp(v, scale) for v in est])
        assert scaled == r_squared(obs, est) == pytest.approx(27 / 28, rel=1e-15)


class TestNashSutcliffe:

    def test_perfect_agreement(self):
        obs = [1.0, 2.0, 3.0]
        assert nash_sutcliffe(obs, obs) == 1.0

    def test_can_go_negative(self):
        assert nash_sutcliffe([1.0, 2.0, 3.0], [30.0, -10.0, 99.0]) < 0.0

    def test_agrees_with_pearson_on_fitted_values(self):
        # when est is the least-squares affine fit of obs on some base
        # series, 1 - SSE/SST provably equals the squared correlation
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            base = rng.normal(0, 1, n)
            obs = 1.5 * base + rng.normal(0, 0.5, n)
            beta, alpha = np.polyfit(base, obs, 1)
            est = alpha + beta * base
            assert abs(r_squared(obs, est) - nash_sutcliffe(obs, est)) <= 1e-9

    def test_constant_obs_rejected(self):
        with pytest.raises(UndefinedMetricError):
            nash_sutcliffe([2.0, 2.0], [1.0, 2.0])


class TestRmse:

    def test_identity_is_zero(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_constant_offset(self):
        obs = [1.0, 2.0, 3.0]
        est = [v + 0.7 for v in obs]
        assert rmse(obs, est) == pytest.approx(0.7, abs=1e-12)

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            obs = list(rng.normal(0, 3, n))
            est = list(rng.normal(0, 3, n))
            assert abs(rmse(obs, est) - _rmse_oracle(obs, est)) <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            rmse([1.0], [1.0, 2.0])
