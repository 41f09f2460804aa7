"""Core network tests: activation, gain rule, gradients, training contract."""

import functools
import hashlib
import logging
import math
import os
import shutil
import subprocess
import sys
from math import exp
from operator import mul

import numpy as np
import pytest

from paddymoist import _cbuild, ann
from paddymoist.ann import (GainTrace, Mlp, MlpTopology, Normalizer, Pattern,
                            TrainConfig, adaptive_gain, backprop_step, bind,
                            denormalize, forward, normalize, normalize_row,
                            pattern_error, sigmoid_gain, train)
from paddymoist.ann import _kernel_source
from paddymoist.errors import DimensionError


class TestSigmoidGain:

    def test_zero_is_half(self):
        assert sigmoid_gain(0.0, 1.0) == 0.5

    def test_ln3_is_three_quarters(self):
        assert sigmoid_gain(math.log(3.0), 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_gain_irrelevant_at_zero(self):
        assert sigmoid_gain(0.0, 0.37) == 0.5

    def test_open_interval_for_extreme_finite_inputs(self):
        for y in (-1e308, -1e4, -50.0, 50.0, 1e4, 1e308):
            for g in (1e-6, 0.5, 1.0, 7.3):
                out = sigmoid_gain(y, g)
                assert 0.0 < out < 1.0

    def test_strictly_increasing_in_y(self):
        ys = np.linspace(-30, 30, 500)
        outs = [sigmoid_gain(float(y), 0.8) for y in ys]
        assert all(b > a for a, b in zip(outs, outs[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sigmoid_gain(float("nan"), 1.0)
        with pytest.raises(ValueError):
            sigmoid_gain(float("inf"), 1.0)
        with pytest.raises(ValueError):
            sigmoid_gain(0.0, 0.0)
        with pytest.raises(ValueError):
            sigmoid_gain(0.0, -1.0)


class TestForward:

    def test_zero_weights_give_half_everywhere(self):
        net = Mlp.zeros(MlpTopology(3, 8, 2))
        out = forward(net, [0.1, 0.9, 0.4])
        np.testing.assert_array_equal(out, [0.5, 0.5])

    def test_hand_chained_1_1_1(self):
        # all weights 1 (biases included), g = 1, input 0.5:
        # h = sigma(1 + 0.5), o = sigma(1 + h); value recorded to 12 decimals
        net = Mlp(MlpTopology(1, 1, 1), np.ones((1, 2)), np.ones((1, 2)))
        out = forward(net, [0.5])
        assert abs(float(out[0]) - 0.860274828805) < 1e-12

    def test_wrong_length_raises(self):
        net = Mlp.zeros(MlpTopology(3, 8, 1))
        with pytest.raises(DimensionError):
            forward(net, [0.1, 0.2])

    def test_outputs_in_open_interval(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            net = Mlp.random(MlpTopology(4, 8, 3), rng, half_width=20.0)
            out = forward(net, rng.uniform(0, 1, 4))
            assert np.all(out > 0.0) and np.all(out < 1.0)


class TestPatternError:

    def test_identical_series(self):
        assert pattern_error([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_max_componentwise(self):
        assert pattern_error([0.9, 0.2], [0.4, 0.1]) == pytest.approx(0.5, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            pattern_error([0.1, 0.2], [0.1, 0.2, 0.3])


class TestAdaptiveGain:

    def test_small_error_keeps_unit_gain(self):
        assert adaptive_gain(0.2) == 1.0  # Ap = 0.4

    def test_large_error_shrinks_gain(self):
        assert adaptive_gain(0.75) == pytest.approx(2.0 / 3.0, abs=1e-15)  # Ap = 1.5

    def test_branch_boundary(self):
        assert adaptive_gain(0.5) == 1.0  # Ap = 1.0 lands in the <= branch

    def test_exhaustive_grid(self):
        for k in range(11):
            e_p = k / 10.0
            ap = 2.0 * e_p
            expected = 1.0 / ap if ap > 1.0 else 1.0
            assert adaptive_gain(e_p) == expected

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(42)
        for e_p in rng.uniform(0, 50, 1000):
            g = adaptive_gain(float(e_p))
            assert 0.0 < g <= 1.0
            assert (g == 1.0) == (e_p <= 0.5)

    def test_continuous_at_half(self):
        eps = 1e-9
        assert adaptive_gain(0.5 - eps) == 1.0
        assert adaptive_gain(0.5 + eps) == pytest.approx(1.0, abs=1e-8)

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            adaptive_gain(-0.1)

    def test_nan_error_rejected(self):
        with pytest.raises(ValueError):
            adaptive_gain(float("nan"))


def _loss_at(topology, w_hidden, w_output, gain, pattern):
    """0.5 * SSE of the network at a pinned gain (the differentiated loss)."""
    net = Mlp(topology, w_hidden, w_output, gain=gain)
    out = forward(net, pattern.input)
    return 0.5 * float(np.sum((pattern.target - out) ** 2))


def _fd_gradients(net, pattern, gain, h=1e-6):
    """Central finite differences of the loss w.r.t. every weight."""
    grads = []
    for which in ("w_hidden", "w_output"):
        w = getattr(net, which)
        grad = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                for sign in (+1.0, -1.0):
                    wp = w.copy()
                    wp[i, j] += sign * h
                    mats = {"w_hidden": net.w_hidden, "w_output": net.w_output}
                    mats[which] = wp
                    loss = _loss_at(net.topology, mats["w_hidden"], mats["w_output"],
                                    gain, pattern)
                    grad[i, j] += sign * loss
                grad[i, j] /= 2.0 * h
        grads.append(grad)
    return grads


@pytest.mark.usefixtures("rendering")
class TestBackpropStep:

    def test_zero_error_means_zero_update(self):
        net = Mlp.zeros(MlpTopology(2, 8, 1))
        p = Pattern([0.3, 0.6], [0.5])  # zero net outputs exactly 0.5
        updated, err = backprop_step(net, p, lr=0.7)
        assert err == 0.0
        np.testing.assert_array_equal(updated.w_hidden, net.w_hidden)
        np.testing.assert_array_equal(updated.w_output, net.w_output)

    def test_zero_learning_rate_changes_nothing(self):
        rng = np.random.default_rng(3)
        net = Mlp.random(MlpTopology(3, 8, 1), rng)
        p = Pattern(rng.uniform(0, 1, 3), rng.uniform(0, 1, 1))
        updated, err = backprop_step(net, p, lr=0.0)
        np.testing.assert_array_equal(updated.w_hidden, net.w_hidden)
        np.testing.assert_array_equal(updated.w_output, net.w_output)
        out = forward(Mlp(net.topology, net.w_hidden, net.w_output, updated.gain),
                      p.input)
        assert err == pytest.approx(float(np.sum((p.target - out) ** 2)), abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        topo = MlpTopology(3, 8, 1)
        for _ in range(10):
            net = Mlp.random(topo, rng)
            p = Pattern(rng.uniform(0, 1, 3), rng.uniform(0, 1, 1))
            updated, _ = backprop_step(net, p, lr=1.0)
            analytic = [net.w_hidden - updated.w_hidden, net.w_output - updated.w_output]
            fd = _fd_gradients(net, p, updated.gain)
            for a, f in zip(analytic, fd):
                scale = max(float(np.max(np.abs(f))), 1e-12)
                assert float(np.max(np.abs(a - f))) / scale <= 1e-5

    def test_applied_gain_follows_the_rule(self):
        rng = np.random.default_rng(7)
        net = Mlp.random(MlpTopology(3, 8, 1), rng)
        p = Pattern(rng.uniform(0, 1, 3), rng.uniform(0, 1, 1))
        preliminary = forward(net, p.input)
        expected_gain = adaptive_gain(pattern_error(p.target, preliminary))
        updated, _ = backprop_step(net, p, lr=0.2)
        assert updated.gain == expected_gain

    def test_dimension_mismatch(self):
        net = Mlp.zeros(MlpTopology(3, 8, 1))
        with pytest.raises(DimensionError):
            backprop_step(net, Pattern([0.1, 0.2], [0.5]), lr=0.2)

    def test_nan_output_rejected_by_gain_rule(self):
        # a NaN output must reach adaptive_gain, not be skipped by the max
        message = r"^pattern error must be a number >= 0, got nan$"
        net = Mlp(MlpTopology(2, 8, 1), np.full((8, 3), np.nan), np.zeros((1, 9)))
        with pytest.raises(ValueError, match=message):
            backprop_step(net, Pattern([0.3, 0.6], [0.5]), lr=0.2)
        # also when it is not the first output
        w_output = np.zeros((2, 9))
        w_output[1] = np.nan
        net = Mlp(MlpTopology(2, 8, 2), np.zeros((8, 3)), w_output)
        with pytest.raises(ValueError, match=message):
            backprop_step(net, Pattern([0.3, 0.6], [0.9, 0.5]), lr=0.2)


@pytest.mark.usefixtures("rendering")
class TestTrain:

    def _linear_patterns(self):
        xs = np.linspace(0, 1, 50)
        return [Pattern([float(x)], [0.3 * float(x) + 0.2]) for x in xs]

    def test_loss_history_length(self):
        net = Mlp.zeros(MlpTopology(1, 8, 1))
        _, losses = train(net, self._linear_patterns(),
                          TrainConfig(seed=1, epochs=1000))
        assert len(losses) == 1000

    def test_noiseless_linear_target_improves(self):
        net = Mlp.zeros(MlpTopology(1, 8, 1))
        _, losses = train(net, self._linear_patterns(),
                          TrainConfig(seed=1, epochs=200))
        assert losses[-1] < losses[0]

    def test_bit_deterministic(self):
        net = Mlp.zeros(MlpTopology(1, 8, 1))
        cfg = TrainConfig(seed=11, epochs=50)
        m1, h1 = train(net, self._linear_patterns(), cfg)
        m2, h2 = train(net, self._linear_patterns(), cfg)
        assert h1 == h2
        np.testing.assert_array_equal(m1.w_hidden, m2.w_hidden)
        np.testing.assert_array_equal(m1.w_output, m2.w_output)

    def test_empty_patterns_rejected(self):
        with pytest.raises(ValueError):
            train(Mlp.zeros(MlpTopology(1, 8, 1)), [], TrainConfig(seed=1))

    def test_inconsistent_dimensions_rejected(self):
        patterns = [Pattern([0.1], [0.2]), Pattern([0.1, 0.2], [0.2])]
        with pytest.raises(DimensionError, match=r"^pattern 1 dims \(2 in, 1 out\) do not "
                                                 r"match topology \(1 in, 1 out\)$"):
            train(Mlp.zeros(MlpTopology(1, 8, 1)), patterns, TrainConfig(seed=1))

    def test_trace_matches_gain_rule(self):
        trace: list[GainTrace] = []
        net = Mlp.zeros(MlpTopology(1, 8, 1))
        patterns = self._linear_patterns()
        train(net, patterns, TrainConfig(seed=5, epochs=3), trace=trace)
        assert len(trace) == 3 * len(patterns)
        for entry in trace:
            ap = 2.0 * entry.pattern_error
            assert entry.gain == (1.0 / ap if ap > 1.0 else 1.0)

    def test_trace_matches_replayed_steps(self):
        # the recorded gain must be the gain the updated network carries
        patterns = self._linear_patterns()[:5]
        trace: list[GainTrace] = []
        trained, _ = train(Mlp.zeros(MlpTopology(1, 8, 1)), patterns,
                           TrainConfig(seed=5, epochs=1), trace=trace)
        rng = np.random.default_rng(5)
        current = Mlp.random(MlpTopology(1, 8, 1), rng, 0.5)
        for i, p in enumerate(patterns):
            current, _ = backprop_step(current, p, 0.2)
            assert current.gain == trace[i].gain
        np.testing.assert_array_equal(current.w_hidden, trained.w_hidden)


class TestTrainRows:
    """``ann._train_rows``, which ``train`` wraps and the ET0 and moisture
    trainers call, refuses an empty set as ``train`` does."""

    TOPO = MlpTopology(2, 3, 1)
    CFG = TrainConfig(seed=3, epochs=2)

    def test_no_rows_rejected_as_by_train(self):
        for call in (lambda: train(Mlp.zeros(self.TOPO), [], self.CFG),
                     lambda: ann._train_rows(self.TOPO, [], self.CFG)):
            with pytest.raises(ValueError, match="^cannot train on an empty pattern set$"):
                call()


class TestNormalizer:

    def test_endpoints_and_midpoint(self):
        nz = Normalizer(10.0, 30.0)
        assert normalize(10.0, nz) == 0.0
        assert normalize(30.0, nz) == 1.0
        assert normalize(20.0, nz) == 0.5

    def test_out_of_range_clamped(self):
        nz = Normalizer(0.0, 50.0)
        assert normalize(-10.0, nz) == 0.0
        assert normalize(99.0, nz) == 1.0

    def test_round_trip_identity(self):
        rng = np.random.default_rng(42)
        nz = Normalizer(-3.0, 47.0)
        for x in rng.uniform(-3.0, 47.0, 200):
            assert denormalize(normalize(float(x), nz), nz) == pytest.approx(x, abs=1e-12)
        for u in rng.uniform(0.0, 1.0, 200):
            assert normalize(denormalize(float(u), nz), nz) == pytest.approx(u, abs=1e-12)

    def test_non_finite_rejected(self):
        nz = Normalizer(0.0, 10.0)
        for x in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                normalize(x, nz)

    def test_span_must_be_finite(self):
        # -1e308..1e308 would scale every ordinary value to 0.0 and 1e308 to nan
        with pytest.raises(ValueError, match=r"^normalizer span hi - lo must be finite, "
                                             r"got \[-1e\+308, 1e\+308\]$"):
            Normalizer(-1e308, 1e308)
        assert normalize(0.0, Normalizer(-8e307, 8e307)) == 0.5  # a finite span still scales

    def test_denormalize_not_clamped(self):
        nz = Normalizer(0.0, 10.0)
        assert denormalize(1.5, nz) == 15.0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Normalizer(5.0, 5.0)
        with pytest.raises(ValueError):
            Normalizer(5.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0),
                                        (-math.inf, math.inf), (math.nan, 1.0)])
    def test_non_finite_bounds(self, lo, hi):
        with pytest.raises(ValueError, match=r"^normalizer (needs hi > lo|bounds must be finite)"):
            Normalizer(lo, hi)


class TestTypes:

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            MlpTopology(0, 8, 1)
        assert MlpTopology(3).n_hidden == 8  # default hidden size

    def test_weight_shape_validation(self):
        with pytest.raises(DimensionError):
            Mlp(MlpTopology(3, 8, 1), np.zeros((8, 3)), np.zeros((1, 9)))
        with pytest.raises(DimensionError):
            Mlp(MlpTopology(3, 8, 1), np.zeros((8, 4)), np.zeros((1, 8)))

    def test_gain_bounds(self):
        with pytest.raises(ValueError):
            Mlp(MlpTopology(1, 1, 1), np.zeros((1, 2)), np.zeros((1, 2)), gain=0.0)
        with pytest.raises(ValueError):
            Mlp(MlpTopology(1, 1, 1), np.zeros((1, 2)), np.zeros((1, 2)), gain=1.5)

    def test_pattern_component_range(self):
        with pytest.raises(ValueError):
            Pattern([0.5, 1.2], [0.5])
        with pytest.raises(ValueError):
            Pattern([0.5], [-0.1])

    def test_pattern_non_finite_rejected(self):
        nan, inf = float("nan"), float("inf")
        for inp, tgt in (([nan, 0.5, 0.5], [0.5]), ([0.5], [nan]),
                         ([0.5, inf], [0.5]), ([0.5], [-inf])):
            with pytest.raises(ValueError):
                Pattern(inp, tgt)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(seed=1, epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(seed=1, learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(seed=-1)


# Reference implementation: the original numpy forward pass and online
# update (BLAS matrix-vector products, vectorised clamps).  The list kernel
# in paddymoist.ann sums in a fixed order instead, so the two agree to
# rounding, not bit for bit.

_SIG_LO = math.nextafter(0.0, 1.0)
_SIG_HI = math.nextafter(1.0, 0.0)
_EXP_CAP = 709.0


def _ref_sigmoid_vec(z):
    z = np.clip(z, -_EXP_CAP, _EXP_CAP)
    return np.clip(1.0 / (1.0 + np.exp(-z)), _SIG_LO, _SIG_HI)


def _ref_forward_full(net, x, gain):
    xa = np.empty(x.size + 1)
    xa[0] = 1.0
    xa[1:] = x
    h = _ref_sigmoid_vec(gain * (net.w_hidden @ xa))
    ha = np.empty(h.size + 1)
    ha[0] = 1.0
    ha[1:] = h
    o = _ref_sigmoid_vec(gain * (net.w_output @ ha))
    return xa, h, ha, o


def _ref_step(net, p, lr):
    """Returns (new net, sse, e_p, applied gain)."""
    xa, h, ha, o = _ref_forward_full(net, p.input, net.gain)
    e_p = float(np.max(np.abs(p.target - o)))
    ap = 2.0 * e_p
    g = 1.0 / ap if ap > 1.0 else 1.0
    if g != net.gain:
        xa, h, ha, o = _ref_forward_full(net, p.input, g)
    sse = float(np.sum((p.target - o) ** 2))
    d_out = (o - p.target) * (g * o * (1.0 - o))
    d_hid = (net.w_output[:, 1:].T @ d_out) * (g * h * (1.0 - h))
    w_output = net.w_output - lr * np.outer(d_out, ha)
    w_hidden = net.w_hidden - lr * np.outer(d_hid, xa)
    return Mlp(net.topology, w_hidden, w_output, gain=g), sse, e_p, g


def _ref_train(topology, patterns, cfg):
    current = Mlp.random(topology, np.random.default_rng(cfg.seed), cfg.init_half_width)
    gains = []
    for _ in range(cfg.epochs):
        for p in patterns:
            current, _, _, g = _ref_step(current, p, cfg.learning_rate)
            gains.append(g)
    return current, gains


class TestReferenceEquivalence:
    """The list kernel against the original numpy implementation."""

    @pytest.mark.parametrize("half_width", [0.5, 20.0])
    @pytest.mark.parametrize("shape", [(3, 8, 1), (4, 8, 1), (4, 8, 3)])
    def test_train_matches_reference(self, shape, half_width, rendering):
        topo = MlpTopology(*shape)
        rng = np.random.default_rng(sum(shape) + int(half_width))
        patterns = [Pattern(rng.uniform(0, 1, topo.n_inputs),
                            rng.uniform(0, 1, topo.n_outputs)) for _ in range(30)]
        cfg = TrainConfig(seed=3, epochs=6, init_half_width=half_width)
        trace: list[GainTrace] = []
        trained, _ = train(Mlp.zeros(topo), patterns, cfg, trace=trace)
        ref, ref_gains = _ref_train(topo, patterns, cfg)
        gains = np.array([e.gain for e in trace])
        ref_gains = np.array(ref_gains)
        np.testing.assert_array_equal(gains < 1.0, ref_gains < 1.0)
        np.testing.assert_allclose(gains, ref_gains, rtol=1e-12, atol=0.0)
        assert float(np.max(np.abs(trained.w_hidden - ref.w_hidden))) <= 1e-12
        assert float(np.max(np.abs(trained.w_output - ref.w_output))) <= 1e-12
        assert trained.gain == trace[-1].gain
        if half_width == 20.0:
            # wide initial weights miss often enough to run the shrink branch
            assert int(np.sum(gains < 1.0)) >= 10

    @pytest.mark.parametrize("shape", [(3, 8, 1), (4, 8, 1), (4, 8, 3), (3, 8, 2)])
    def test_forward_matches_reference(self, shape):
        topo = MlpTopology(*shape)
        rng = np.random.default_rng(sum(shape))
        for half_width in (0.5, 20.0):
            for _ in range(25):
                net = Mlp.random(topo, rng, half_width)
                net.gain = float(rng.uniform(0.1, 1.0))
                x = rng.uniform(0, 1, topo.n_inputs)
                ref = _ref_forward_full(net, x, net.gain)[3]
                assert float(np.max(np.abs(forward(net, x) - ref))) <= 1e-13


# Second reference: the plain-float list kernel that preceded the generated
# one, kept verbatim.  The generated kernel performs the same floating-point
# operations in the same order, so the two must agree bit for bit.

def _sigma(z: float) -> float:
    """Logistic of an already-gained input, with both clamps applied."""
    if z > _EXP_CAP:
        z = _EXP_CAP
    elif z < -_EXP_CAP:
        z = -_EXP_CAP
    y = 1.0 / (1.0 + exp(-z))
    if y < _SIG_LO:
        return _SIG_LO
    if y > _SIG_HI:
        return _SIG_HI
    return y


def _layer(rows: "list[list[float]]", a: "list[float]", g: float,
           out: "list[float]") -> "list[float]":
    """Append sigma(g * row . a) for every weight row to ``out``.

    Each dot product is accumulated left to right, so the result does not
    depend on the BLAS build or on the Python version.
    """
    for row in rows:
        s = 0.0
        for p in map(mul, row, a):
            s += p
        out.append(_sigma(g * s))
    return out


def _forward(wh: "list[list[float]]", wo: "list[list[float]]", xa: "list[float]",
             g: float) -> "tuple[list[float], list[float]]":
    """Forward pass on list weights; ``xa`` and the returned hidden activations
    ``ha`` both lead with the constant bias input 1.0.  Returns (ha, o)."""
    ha = _layer(wh, xa, g, [1.0])
    return ha, _layer(wo, ha, g, [])


def _update(wh: "list[list[float]]", wo: "list[list[float]]", xa: "list[float]",
            target: "list[float]", lr: float, gain: float):
    """One online update of ``wh``/``wo`` in place.  Returns (sse, e_p, g).

    A first forward pass at the network's current gain measures how far the
    pattern is off; that error fixes the gain applied to this update.  The
    loss differentiated is 0.5 * sum((t - o)^2) at the applied gain, so the
    weights take an exact gradient step; the reported error is the plain
    summed square sum((t - o)^2) before the update.
    """
    ha, o = _forward(wh, wo, xa, gain)
    e_p = 0.0
    for ok, tk in zip(o, target):
        d = abs(tk - ok)
        if d > e_p or d != d:  # a NaN error is kept, and adaptive_gain rejects it
            e_p = d
    g = adaptive_gain(e_p)
    if g != gain:
        ha, o = _forward(wh, wo, xa, g)
    sse = 0.0
    d_out = []
    for ok, tk in zip(o, target):
        r = tk - ok
        sse += r * r
        d_out.append((ok - tk) * (g * ok * (1.0 - ok)))
    # back[j] = sum over k of w_output[k][j] * d_out[k], summed in k order
    # from the output weights as they were before this update.  Weights are
    # updated element by element: on Python 3.11 a list comprehension per row
    # costs a function call, which made the whole step a third slower.
    back = [0.0] * len(ha)
    for row, dk in zip(wo, d_out):
        for j, a in enumerate(ha):
            w = row[j]
            back[j] += w * dk
            row[j] = w - lr * (dk * a)
    for j, row in enumerate(wh, 1):
        h = ha[j]
        dj = back[j] * (g * h * (1.0 - h))
        for i, v in enumerate(xa):
            row[i] -= lr * (dj * v)
    return sse, e_p, g


def _list_train(topology, patterns, cfg):
    """The list kernel's train loop.  Returns (wh, wo, gain, losses, trace)."""
    init = Mlp.random(topology, np.random.default_rng(cfg.seed), cfg.init_half_width)
    wh, wo, gain = init.w_hidden.tolist(), init.w_output.tolist(), init.gain
    losses, trace = [], []
    for epoch in range(cfg.epochs):
        total = 0.0
        for i, p in enumerate(patterns):
            sse, e_p, gain = _update(wh, wo, [1.0, *p.input.tolist()], p.target.tolist(),
                                     cfg.learning_rate, gain)
            total += sse
            trace.append(GainTrace(epoch, i, e_p, gain))
        losses.append(total / len(patterns))
    return wh, wo, gain, losses, trace


_EXACT_SHAPES = [(1, 1, 1), (3, 8, 1), (4, 8, 1), (4, 8, 3), (3, 8, 2)]


def _random_patterns(topo, rng, count=30):
    return [Pattern(rng.uniform(0, 1, topo.n_inputs), rng.uniform(0, 1, topo.n_outputs))
            for _ in range(count)]


def _signed_zero_net(topo, rng, gain):
    """A random net whose first hidden and output rows are all -0.0 and whose
    second hidden row is all +0.0, so those pre-activation sums are signed
    zeros: -0.0 in the generated kernel, which does not start them at 0.0,
    and +0.0 in the list kernel, which does."""
    net = Mlp.random(topo, rng)
    net.w_hidden[0] = -0.0
    net.w_output[0] = -0.0
    if topo.n_hidden > 1:
        net.w_hidden[1] = 0.0
    net.gain = gain
    return net


def _bits(values) -> "list[str]":
    """``repr`` of each float in a nested list, so a sign of zero counts too."""
    return [_bits(v) if isinstance(v, list) else repr(v) for v in values]


class TestListKernelBitExact:
    """Each rendering of the generated kernel against the list kernel, compared
    with ==; the forward pass is the Python rendering's in both."""

    @pytest.mark.parametrize("half_width", [0.5, 20.0])
    @pytest.mark.parametrize("shape", _EXACT_SHAPES)
    def test_train_bit_exact(self, shape, half_width, rendering):
        topo = MlpTopology(*shape)
        rng = np.random.default_rng(sum(shape) + int(half_width))
        patterns = _random_patterns(topo, rng)
        cfg = TrainConfig(seed=3, epochs=6, init_half_width=half_width)
        trace: list[GainTrace] = []
        trained, losses = train(Mlp.zeros(topo), patterns, cfg, trace=trace)
        wh, wo, gain, ref_losses, ref_trace = _list_train(topo, patterns, cfg)
        assert trained.w_hidden.tolist() == wh
        assert trained.w_output.tolist() == wo
        assert losses == ref_losses
        assert trained.gain == gain
        assert trace == ref_trace
        if half_width == 20.0:
            # wide initial weights miss often enough to run the shrink branch
            assert sum(1 for e in trace if e.gain < 1.0) >= 10

    @pytest.mark.parametrize("shape", _EXACT_SHAPES)
    def test_backprop_step_bit_exact(self, shape, rendering):
        topo = MlpTopology(*shape)
        rng = np.random.default_rng(100 + sum(shape))
        for half_width in (0.5, 20.0):
            for _ in range(25):
                net = Mlp.random(topo, rng, half_width)
                net.gain = float(rng.uniform(0.1, 1.0))
                p = _random_patterns(topo, rng, 1)[0]
                updated, sse = backprop_step(net, p, lr=0.2)
                wh, wo = net.w_hidden.tolist(), net.w_output.tolist()
                ref_sse, _, ref_gain = _update(wh, wo, [1.0, *p.input.tolist()],
                                               p.target.tolist(), 0.2, net.gain)
                assert (updated.w_hidden.tolist(), updated.w_output.tolist()) == (wh, wo)
                assert (sse, updated.gain) == (ref_sse, ref_gain)

    @pytest.mark.parametrize("shape", _EXACT_SHAPES)
    def test_forward_bit_exact(self, shape):
        topo = MlpTopology(*shape)
        rng = np.random.default_rng(200 + sum(shape))
        for half_width in (0.5, 20.0):
            for _ in range(25):
                net = Mlp.random(topo, rng, half_width)
                net.gain = float(rng.uniform(0.1, 1.0))
                x = rng.uniform(0, 1, topo.n_inputs)
                _, ref = _forward(net.w_hidden.tolist(), net.w_output.tolist(),
                                  [1.0, *x.tolist()], net.gain)
                assert forward(net, x).tolist() == ref

    @pytest.mark.parametrize("shape", _EXACT_SHAPES)
    def test_signed_zero_weights_bit_exact(self, shape, rendering):
        # The kernel's pre-activation sums and squared error leave out the
        # list kernel's leading 0.0, which only turns a -0.0 sum into 0.0.
        # Outputs, errors and updated weights must still match, zero signs too.
        topo = MlpTopology(*shape)
        rng = np.random.default_rng(400 + sum(shape))
        for gain in (1.0, 0.3):
            net = _signed_zero_net(topo, rng, gain)
            for x in (rng.uniform(0, 1, topo.n_inputs), np.zeros(topo.n_inputs)):
                _, ref = _forward(net.w_hidden.tolist(), net.w_output.tolist(),
                                  [1.0, *x.tolist()], gain)
                assert ref[0] == 0.5  # output 0 sums signed zeros only
                assert _bits(forward(net, x).tolist()) == _bits(ref)
                assert _bits(bind(net)(x.tolist())) == _bits(ref)
                # a target equal to the output leaves a zero residual
                for target in (ref, rng.uniform(0, 1, topo.n_outputs).tolist()):
                    p = Pattern(x, target)
                    updated, sse = backprop_step(net, p, lr=0.2)
                    wh, wo = net.w_hidden.tolist(), net.w_output.tolist()
                    ref_sse, _, ref_gain = _update(wh, wo, [1.0, *x.tolist()], target,
                                                   0.2, gain)
                    assert _bits(updated.w_hidden.tolist()) == _bits(wh)
                    assert _bits(updated.w_output.tolist()) == _bits(wo)
                    assert (repr(sse), updated.gain) == (repr(ref_sse), ref_gain)

    def test_long_dot_products_sum_in_order(self, rendering):
        # sums longer than one generated expression continue left to right
        topo = MlpTopology(150, 3, 1)
        rng = np.random.default_rng(9)
        patterns = _random_patterns(topo, rng, 5)
        cfg = TrainConfig(seed=4, epochs=2)
        trained, losses = train(Mlp.zeros(topo), patterns, cfg)
        wh, wo, _, ref_losses, _ = _list_train(topo, patterns, cfg)
        assert (trained.w_hidden.tolist(), trained.w_output.tolist()) == (wh, wo)
        assert losses == ref_losses

    def test_trace_stops_at_a_nan_error(self, rendering):
        # the visits before the one that raises are traced, as the list kernel does
        topo = MlpTopology(2, 3, 1)
        rng = np.random.default_rng(12)
        net = Mlp.random(topo, rng)
        net.w_hidden[0, 1] = math.inf  # inf * 0.0 is NaN at the pattern with x1 = 0
        patterns = _random_patterns(topo, rng, 7)
        patterns[3] = Pattern([0.0, 0.5], [0.5])
        wh, wo, gain, ref = net.w_hidden.tolist(), net.w_output.tolist(), net.gain, []
        with pytest.raises(ValueError):
            for i, p in enumerate(patterns):
                _, e_p, gain = _update(wh, wo, [1.0, *p.input.tolist()], p.target.tolist(),
                                       0.2, gain)
                ref.append(GainTrace(0, i, e_p, gain))
        trace: list[GainTrace] = []
        with pytest.raises(ValueError, match=r"^pattern error must be a number >= 0, got nan$"):
            ann._kernel(topo)[0](net.w_hidden.ravel().tolist(), net.w_output.ravel().tolist(),
                                 net.gain, [ann._row(p) for p in patterns], 0.2, 2, trace)
        assert len(ref) == 3
        assert trace == ref


class TestPythonRendering:

    # SHA-256 of the generated Python source, recorded when the kernel was
    # still written straight to text: the step list rendered to Python must
    # give those bytes exactly.
    @pytest.mark.parametrize("shape, digest", [
        ((3, 8, 1), "1f3b6ec70920e3c443f031eae8d83f56238623d6f4e711b172ac4b323ef2d033"),
        ((4, 8, 1), "4766f74e3d22be520711008492d0bb4707a7792adc79ebe783862fcb219f7a25"),
        ((4, 8, 3), "b00e28b1aee4532862d9075f69f1219c527c62ea476249c0634b975665af4819"),
    ])
    def test_source_is_pinned(self, shape, digest):
        assert hashlib.sha256(_kernel_source(*shape).encode()).hexdigest() == digest


class TestBind:
    """The bound forward pass against forward(), compared with ==."""

    @pytest.mark.parametrize("shape", _EXACT_SHAPES)
    def test_bound_equals_forward(self, shape):
        topo = MlpTopology(*shape)
        rng = np.random.default_rng(300 + sum(shape))
        for half_width in (0.5, 20.0):
            for _ in range(10):
                net = Mlp.random(topo, rng, half_width)
                net.gain = float(rng.uniform(0.1, 1.0))
                fwd = bind(net)
                for _ in range(5):
                    x = rng.uniform(0, 1, topo.n_inputs)
                    out = fwd(x.tolist())
                    assert type(out) is list and all(type(v) is float for v in out)
                    assert out == forward(net, x).tolist()

    def test_weights_are_a_snapshot(self):
        rng = np.random.default_rng(8)
        net = Mlp.random(MlpTopology(3, 8, 1), rng)
        x = [0.2, 0.5, 0.7]
        fwd = bind(net)
        before = fwd(x)
        net.w_hidden[0, 1] += 1.0
        net.w_output[0, 0] -= 1.0
        net.gain = 0.5
        assert fwd(x) == before
        assert bind(net)(x) == forward(net, x).tolist() != before

    def test_wrong_length_raises(self):
        fwd = bind(Mlp.zeros(MlpTopology(3, 8, 1)))
        for x in ([0.1, 0.2], [0.1, 0.2, 0.3, 0.4]):
            with pytest.raises(ValueError):
                fwd(x)


@pytest.mark.usefixtures("rendering")
class TestSeries:
    """``series`` against ``forward`` day by day, compared with ==."""

    @pytest.mark.parametrize("shape, feedback", [((4, 8, 3), 0), ((4, 8, 3), 2), ((1, 2, 1), 0)])
    def test_output_zero_day_by_day(self, shape, feedback):
        topo = MlpTopology(*shape)
        rng = np.random.default_rng(500 + sum(shape) + feedback)
        net = Mlp.random(topo, rng, 4.0)
        net.gain = 0.8
        norms = [Normalizer(-1.0, 2.0 + i) for i in range(topo.n_inputs)]
        out_norm = Normalizer(0.5, 3.0)
        rows = [tuple(rng.uniform(-3.0, 6.0, topo.n_inputs - feedback)) for _ in range(20)]
        init = rng.uniform(0.0, 4.0, feedback).tolist()
        ref, fed = [], init[::-1]
        for row in rows:
            x = [normalize(v, nz) for v, nz in zip([*row, *fed], norms)]
            ref.append(denormalize(forward(net, x)[0], out_norm))
            fed = [ref[-1], *fed][:feedback]
        assert ann.series(net, rows, norms, out_norm, feedback, init) == ref
        assert ann.series(net, [], norms, out_norm, feedback, init) == []

    def test_arguments_must_fit_the_net(self):
        net, nz = Mlp.zeros(MlpTopology(3, 2, 1)), Normalizer(0.0, 1.0)
        with pytest.raises(DimensionError, match="^3 inputs need as many normalizers, got 2$"):
            ann.series(net, [(0.5, 0.5, 0.5)], [nz, nz], nz)
        for feedback, init in ((3, [0.1] * 3), (-1, []), (1, []), (1, [0.1, 0.2])):
            with pytest.raises(DimensionError, match="^cannot feed back"):
                ann.series(net, [(0.5, 0.5)], [nz] * 3, nz, feedback, init)

    def test_a_ragged_row_is_named(self, rendering):
        net, nz = Mlp.zeros(MlpTopology(3, 8, 1)), Normalizer(0.0, 50.0)
        rows = [(30.0, 24.0, 18.0), (30.0, 24.0), (18.0, 31.0, 25.0, 20.0)]
        with pytest.raises(DimensionError, match="^row 1 holds 2 value[(]s[)], not 3$"):
            ann.series(net, rows, [nz] * 3, nz)
        with pytest.raises(DimensionError, match="^row 0 holds 2 value[(]s[)], not 3$"):
            ann.series(net, [(30.0, 24.0), (18.0, 31.0, 25.0, 20.0)], [nz] * 3, nz)
        with pytest.raises(DimensionError, match="^row 2 holds 3 value[(]s[)], not 2$"):
            ann.series(net, [(30.0, 24.0)] * 2 + [(30.0, 24.0, 18.0)], [nz] * 3, nz, 1, [0.3])

    def test_first_non_finite_input_is_named(self):
        net, nz = Mlp.zeros(MlpTopology(3, 2, 1)), Normalizer(0.0, 1.0)
        rows = [(0.1, 0.2), (0.3, math.inf), (math.nan, 0.4)]
        with pytest.raises(ValueError, match="^cannot normalize the non-finite value inf$"):
            ann.series(net, rows, [nz] * 3, nz, 1, [0.5])
        with pytest.raises(ValueError, match="^cannot normalize the non-finite value -inf$"):
            ann.series(net, rows[:1], [nz] * 3, nz, 1, [-math.inf])


# gained inputs on both sides of the -709 clamp, past exp's overflow, and at
# the ends of the float range
_EXTREME_Z = [709.5, -709.5, 800.0, -800.0, 1e308, -1e308]


class TestExtremePreActivations:
    """The two remaining clamps give what the four clamps of the list kernel
    gave, compared with == at pre-activations far outside the usual range."""

    def test_sigmoid_gain(self):
        for y in _EXTREME_Z:
            for g in (1.0, 0.5, 7.3, 1e-300):  # 7.3 * 1e308 overflows to inf
                assert sigmoid_gain(y, g) == _sigma(g * y)
                assert 0.0 < sigmoid_gain(y, g) < 1.0

    @pytest.mark.parametrize("gain", [1.0, 0.25])
    def test_forward(self, gain):
        # hidden node 1 sees z through its input weight; hidden node 2 sums
        # two huge weights to +inf or -inf; the output node sees z as its bias
        cases = []
        for z in _EXTREME_Z:
            cases.append(([[0.0, z], [0.0, 0.0]], [[0.0, 1.0, 1.0]]))
            cases.append(([[0.0, 0.0], [0.0, 0.0]], [[z, 0.0, 0.0]]))
        for big in (1e308, -1e308):
            cases.append(([[0.0, 0.0], [big, big]], [[0.0, 1.0, -1.0]]))
            cases.append(([[big, big], [0.0, 0.0]], [[big, big, 0.0]]))
        for wh, wo in cases:
            net = Mlp(MlpTopology(1, 2, 1), np.array(wh), np.array(wo), gain=gain)
            _, ref = _forward(wh, wo, [1.0, 1.0], gain)
            assert forward(net, [1.0]).tolist() == ref
            assert bind(net)([1.0]) == ref
            assert 0.0 < ref[0] < 1.0


class TestNormalizeClamp:

    def test_same_value_as_min_max(self):
        nz = Normalizer(0.0, 50.0)
        for x in (-1e300, -3.5, -0.0, 0.0, 12.25, 50.0, 50.5, 1e300):
            u = (x - nz.lo) / (nz.hi - nz.lo)
            expected = min(max(u, 0.0), 1.0)
            got = normalize(x, nz)
            assert got == expected
            assert math.copysign(1.0, got) == math.copysign(1.0, expected)

    def test_keeps_the_sign_of_negative_zero(self):
        got = normalize(-0.0, Normalizer(0.0, 1.0))
        assert got == 0.0 and math.copysign(1.0, got) == -1.0


_TEMP_NORMS = [Normalizer(0.0, 50.0)] * 3  # the ET0 surrogate's: tmax, tavg, tmin


def _moisture_norms(lag):
    """The moisture net's defaults for et0, precip, kc and ``lag`` theta lags,
    with precip bounded below by -0.0 and theta by [0.1, 0.6]."""
    return [Normalizer(0.0, 10.0), Normalizer(-0.0, 100.0), Normalizer(0.0, 1.5),
            *[Normalizer(0.1, 0.6)] * lag]


class TestNormalizeRow:
    """``normalize_row`` is ``normalize`` of each value, on the rows of both
    nets: the same bits, the sign of zero too, and the same rejection."""

    @pytest.mark.parametrize("row, norms", [
        ((30.0, 24.0, 18.0), _TEMP_NORMS),
        ((50.0, 0.0, -0.0), _TEMP_NORMS),
        ((60.0, 24.0, -5.0), _TEMP_NORMS),  # a clamp at each end
        ((1e300, 1e300, -1e300), _TEMP_NORMS),
        ((-0.0, -0.0, -0.0), _TEMP_NORMS),
        *(((30.0, bad, 18.0), _TEMP_NORMS) for bad in (math.nan, math.inf, -math.inf)),
        ((4.0, 20.0, 1.1, 0.3), _moisture_norms(1)),
        ((12.0, 150.0, 1.6, 0.05, 0.7, 0.6, 0.1), _moisture_norms(4)),  # every kind clamps
        ((-0.0, -0.0, 1.5, 0.1, 0.6), _moisture_norms(2)),
        ((0.0, 0.0, 1e-300), _moisture_norms(0)),
        *(((4.0, 20.0, 1.1, 0.3, bad), _moisture_norms(2))
          for bad in (math.nan, math.inf, -math.inf)),
    ])
    def test_is_normalize_of_each_value(self, row, norms):
        bad = [v for v in row if not math.isfinite(v)]
        if bad:
            with pytest.raises(ValueError,
                               match=f"^cannot normalize the non-finite value {bad[0]}$"):
                normalize_row(row, norms)
        else:
            expected = [normalize(v, nz) for v, nz in zip(row, norms, strict=True)]
            assert [repr(v) for v in normalize_row(row, norms)] == [repr(v) for v in expected]

    def test_length_must_match(self):
        with pytest.raises(DimensionError, match=r"^2 value\(s\) against 3 normalizer\(s\)$"):
            normalize_row((30.0, 24.0), _TEMP_NORMS)


_CC = shutil.which("cc")
needs_cc = pytest.mark.skipif(_CC is None, reason="no C compiler 'cc' on PATH")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An empty cache directory in place of the user's, and no kernel built yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    ann._kernel.cache_clear()
    yield tmp_path / "xdg" / "paddymoist"
    ann._kernel.cache_clear()


def _is_c(kernel) -> bool:
    """Whether a ``_kernel`` triple runs the C train and series loops."""
    train_loop, _, series = kernel
    return (isinstance(train_loop, functools.partial) and isinstance(series, functools.partial)
            and (train_loop.func, series.func) == (ann._run_c_train_loop, ann._run_c_series))


class TestCBuild:
    """Choosing, caching and falling back from the C train loop."""

    TOPO = MlpTopology(2, 3, 1)

    def _trains_like_list_kernel(self) -> bool:
        rng = np.random.default_rng(21)
        patterns = _random_patterns(self.TOPO, rng, 10)
        cfg = TrainConfig(seed=2, epochs=3, init_half_width=5.0)
        trace: list[GainTrace] = []
        trained, losses = train(Mlp.zeros(self.TOPO), patterns, cfg, trace=trace)
        wh, wo, gain, ref_losses, ref_trace = _list_train(self.TOPO, patterns, cfg)
        return ((trained.w_hidden.tolist(), trained.w_output.tolist(), trained.gain, losses,
                 trace) == (wh, wo, gain, ref_losses, ref_trace))

    def _series_like_forward(self) -> bool:
        rng = np.random.default_rng(22)
        net = Mlp.random(self.TOPO, rng, 3.0)
        nz = Normalizer(0.0, 2.0)
        rows = [tuple(rng.uniform(-1.0, 3.0, 2)) for _ in range(10)]
        return ann.series(net, rows, [nz, nz], nz) == [
            denormalize(forward(net, [normalize(v, nz) for v in row])[0], nz) for row in rows]

    @needs_cc
    def test_cache_hit_starts_no_compiler(self, cache_dir, monkeypatch, caplog):
        assert _is_c(ann._kernel(self.TOPO))
        built = [p.name for p in cache_dir.iterdir()]
        # one object per topology, holding both loops
        assert len(built) == 1 and built[0].startswith("ann-") and built[0].endswith(".so")
        import ctypes
        lib = ctypes.CDLL(str(cache_dir / built[0]))
        assert hasattr(lib, "train_loop") and hasattr(lib, "series")
        ann._kernel.cache_clear()

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran on a cache hit")
        monkeypatch.setattr(subprocess, "run", no_compiler)
        with caplog.at_level(logging.WARNING, logger="paddymoist.ann"):
            assert _is_c(ann._kernel(self.TOPO))
            assert self._trains_like_list_kernel()
            assert self._series_like_forward()
        assert caplog.records == []
        assert [p.name for p in cache_dir.iterdir()] == built

    def test_key_covers_source_flags_and_compiler(self, tmp_path):
        source = ann._c_source(2, 3, 1)
        compiler = tmp_path / "cc"
        compiler.write_bytes(b"v1")
        os.utime(compiler, ns=(10**18, 10**18))

        def key(src=source, flags=_cbuild.CFLAGS):
            return _cbuild.cache_key(src, flags, str(compiler))
        first = key()
        assert key() == first and len(first) == 64
        assert key(src=ann._c_source(2, 4, 1)) != first
        assert key(src=source + "\n") != first
        assert key(flags=_cbuild.CFLAGS[1:]) != first
        assert key(flags=(*_cbuild.CFLAGS, "-ffast-math")) != first
        os.utime(compiler, ns=(10**18, 10**18 + 1))  # the compiler was replaced
        assert key() != first
        compiler.write_bytes(b"v22")
        os.utime(compiler, ns=(10**18, 10**18))  # same time, another size
        assert key() != first

    @pytest.mark.parametrize("broken", ["unwritable cache", "no cc on PATH", "compile error"])
    def test_falls_back_to_python(self, broken, cache_dir, tmp_path, monkeypatch, caplog):
        if broken == "unwritable cache":
            # no directory can be made under a regular file, not even by root
            (tmp_path / "file").write_text("")
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        elif broken == "no cc on PATH":
            monkeypatch.setenv("PATH", str(tmp_path))
        else:
            monkeypatch.setattr(ann, "_c_source", lambda n, h, o: "this is not C\n")
        with caplog.at_level(logging.WARNING, logger="paddymoist.ann"):
            kernel = ann._kernel(self.TOPO)
            assert not _is_c(kernel) and kernel[2].func is ann._py_series
            assert self._trains_like_list_kernel()
            assert self._series_like_forward()
        assert len(caplog.records) == 1
        assert "training runs the Python loop" in caplog.records[0].getMessage()
        # neither a partial object nor a temporary file is left behind
        assert not cache_dir.exists() or list(cache_dir.iterdir()) == []

    @needs_cc
    def test_leftover_temporary_file_is_harmless(self, cache_dir):
        source = ann._c_source(2, 3, 1)
        name = f"ann-{_cbuild.cache_key(source, _cbuild.CFLAGS, os.path.realpath(_CC))}.so"
        cache_dir.mkdir(parents=True)
        leftover = cache_dir / f"{name}.x1y2z3.tmp"  # a build cut off before its rename
        leftover.write_bytes(b"\x7fELF cut off")
        assert _is_c(ann._kernel(self.TOPO))
        assert self._trains_like_list_kernel()
        assert sorted(p.name for p in cache_dir.iterdir()) == sorted([name, leftover.name])

    @needs_cc
    def test_buffers_must_fit_the_topology(self, cache_dir):
        train_loop = ann._c_kernel(self.TOPO)[0]
        wh, wo, row = [0.0] * 9, [0.0] * 4, (0.1, 0.2, 0.3)
        for args in ((wh[:-1], wo, [row]), (wh, wo + [0.0], [row]), (wh, wo, [row[:-1]])):
            with pytest.raises(ValueError, match=r"do not fit topology 2-3-1$"):
                train_loop(*args[:2], 1.0, args[2], 0.2, 1, None)
        series, nz = ann._c_kernel(self.TOPO)[2], Normalizer(0.0, 1.0)
        for args in ((wh[:-1], wo, [(0.1, 0.2)]), (wh, wo + [0.0], [(0.1, 0.2)]),
                     (wh, wo, [(0.1, 0.2), (0.3,)])):
            with pytest.raises(ValueError, match=r"do not fit topology 2-3-1$"):
                series(*args[:2], 1.0, args[2], [nz, nz], nz, 0, [])


def _cpu_has_fma() -> bool:
    """Whether the CPU lists the x86 FMA instructions; False where it cannot be read."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            return any(line.startswith("flags") and "fma" in line.split() for line in f)
    except OSError:
        return False


@pytest.mark.skipif(_CC is None or not _cpu_has_fma(),
                    reason="needs a C compiler 'cc' and a CPU with FMA")
class TestFlagBitGuards:
    """Where the compiler may emit FMA instructions, the shipped flags still
    give the Python rendering's bits on period-1 ET0 training, and it is
    ``-ffp-contract=off`` among them that keeps them."""

    @pytest.fixture(scope="class")
    def train_period1(self):
        from paddymoist.evapo import train_et0_model
        from paddymoist.experiment import default_config, weather_params_for
        from paddymoist.hydro import generate_weather
        cfg = default_config()
        days = generate_weather(weather_params_for(cfg, cfg.period1))

        def run(kernel):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ann, "_kernel", functools.cache(kernel))
                model, losses = train_et0_model(days, cfg.site, cfg.et0_train)
            net = model.net
            return net.w_hidden.tolist(), net.w_output.tolist(), net.gain, losses
        return run, run(ann._python_kernel)

    @pytest.mark.usefixtures("cache_dir")
    def test_shipped_flags_with_fma_keep_the_bits(self, train_period1, monkeypatch):
        run, python = train_period1
        monkeypatch.setattr(_cbuild, "CFLAGS", (*_cbuild.CFLAGS, "-mfma"))
        assert run(ann._c_kernel) == python

    @pytest.mark.usefixtures("cache_dir")
    def test_contracted_fma_moves_the_bits(self, train_period1, monkeypatch):
        run, python = train_period1
        monkeypatch.setattr(_cbuild, "CFLAGS", (*_cbuild.CFLAGS, "-mfma", "-ffp-contract=fast"))
        assert run(ann._c_kernel) != python


def test_import_needs_no_ctypes(tmp_path):
    # ctypes loads with the first C build, not with the package: with it
    # blocked, numpy still imports, and so does paddymoist, whose training
    # then falls back to the Python loop
    code = ("import sys; sys.modules['ctypes'] = None\n"
            "from paddymoist import ann\n"
            "net, _ = ann.train(ann.Mlp.zeros(ann.MlpTopology(1, 1, 1)),\n"
            "                   [ann.Pattern([0.5], [0.25])], ann.TrainConfig(seed=0, epochs=2))\n"
            "assert sys.modules['ctypes'] is None\n"
            "assert ann._kernel(net.topology)[0].__name__ == 'train_loop'\n")
    src = os.path.dirname(os.path.dirname(ann.__file__))
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "training runs the Python loop" in done.stderr


class TestRefusedArguments:

    def test_pattern_vector_that_is_not_one_dimensional(self):
        with pytest.raises(DimensionError, match="^pattern input must be one-dimensional$"):
            Pattern([[0.1, 0.2, 0.3]], [0.5])

    def test_zero_init_half_width(self):
        with pytest.raises(ValueError, match="^init_half_width must be > 0$"):
            TrainConfig(seed=0, init_half_width=0.0)

    def test_negative_learning_rate(self):
        net = Mlp.zeros(MlpTopology(3, 8, 1))
        with pytest.raises(ValueError, match="^learning rate must be >= 0, got -0.1$"):
            backprop_step(net, Pattern([0.1, 0.2, 0.3], [0.5]), -0.1)
