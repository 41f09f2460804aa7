"""Three-layer perceptron with an error-adaptive sigmoid gain.

The network is deliberately small and self-contained: one hidden layer,
logistic activation, online (per-pattern) backpropagation.  What sets it
apart from a textbook MLP is the gain parameter ``g`` inside the
activation, ``f(y) = 1 / (1 + exp(-g * y))``, which is re-adjusted before
every weight update from how far the current output is from the target:

    e_p = max |t_p - o_p|        worst-component error for pattern p
    Ap  = 2 * e_p
    g   = 1 / Ap   if Ap > 1.0   (shrink the gain on badly-missed patterns)
    g   = 1.0      otherwise

Shrinking the gain flattens the sigmoid, which keeps badly-off nodes out of
their saturated tails and the gradient alive.  The gain is shared by every
node and enters the backprop derivative (d sigma/dy = g * sigma * (1 -
sigma)) so the computed gradient is the exact gradient of the loss at the
applied gain.

The arithmetic runs on plain Python floats.  At this size (an 8 x 4 hidden
matrix) numpy's per-call overhead costs far more than the arithmetic, so one
list kernel, ``_forward`` plus the in-place ``_update``, serves every caller:
:func:`train`, :func:`backprop_step`, :func:`forward` and
:func:`sigmoid_gain`.  Each dot product is summed left to right in an explicit
loop, never through BLAS or the builtin ``sum`` (whose float algorithm changed
in Python 3.12), so results do not depend on the BLAS build or the Python
version.

The kernel mutates only lists it owns: :func:`train` copies the weights into
lists of rows once and builds one :class:`Mlp` at the end.  All public types
are still value types: training and update steps return new objects and
never mutate their inputs, so models can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import exp
from operator import mul

import numpy as np

from .errors import DimensionError

# Open-interval bounds for the activation output.  float64 saturates the
# logistic to exactly 0.0 / 1.0 for |g*y| > ~37; clamping keeps the
# documented (0, 1) range without measurable effect elsewhere.
_SIG_LO = math.nextafter(0.0, 1.0)
_SIG_HI = math.nextafter(1.0, 0.0)
_EXP_CAP = 709.0  # largest |z| before exp overflows


@dataclass(frozen=True)
class MlpTopology:
    """Layer sizes of a three-layer perceptron."""

    n_inputs: int
    n_hidden: int = 8
    n_outputs: int = 1

    def __post_init__(self):
        for name in ("n_inputs", "n_hidden", "n_outputs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class Mlp:
    """Weights plus gain state.

    ``w_hidden`` has shape (n_hidden, n_inputs + 1) and ``w_output``
    (n_outputs, n_hidden + 1); column 0 of each matrix is the bias weight,
    fed by a constant input of 1.
    """

    topology: MlpTopology
    w_hidden: np.ndarray
    w_output: np.ndarray
    gain: float = 1.0

    def __post_init__(self):
        self.w_hidden = np.asarray(self.w_hidden, dtype=float)
        self.w_output = np.asarray(self.w_output, dtype=float)
        t = self.topology
        if self.w_hidden.shape != (t.n_hidden, t.n_inputs + 1):
            raise DimensionError(
                f"w_hidden shape {self.w_hidden.shape} does not match topology "
                f"({t.n_hidden}, {t.n_inputs + 1})"
            )
        if self.w_output.shape != (t.n_outputs, t.n_hidden + 1):
            raise DimensionError(
                f"w_output shape {self.w_output.shape} does not match topology "
                f"({t.n_outputs}, {t.n_hidden + 1})"
            )
        if not (0.0 < self.gain <= 1.0):
            raise ValueError(f"gain must be in (0, 1], got {self.gain}")

    @classmethod
    def zeros(cls, topology: MlpTopology) -> "Mlp":
        """All-zero weights; every node then outputs exactly 0.5."""
        return cls(
            topology,
            np.zeros((topology.n_hidden, topology.n_inputs + 1)),
            np.zeros((topology.n_outputs, topology.n_hidden + 1)),
        )

    @classmethod
    def random(cls, topology: MlpTopology, rng: np.random.Generator,
               half_width: float = 0.5) -> "Mlp":
        """Weights drawn uniformly from [-half_width, +half_width]."""
        return cls(
            topology,
            rng.uniform(-half_width, half_width,
                        (topology.n_hidden, topology.n_inputs + 1)),
            rng.uniform(-half_width, half_width,
                        (topology.n_outputs, topology.n_hidden + 1)),
        )


@dataclass
class Pattern:
    """One normalized training pair; every component must lie in [0, 1]."""

    input: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        self.input = np.asarray(self.input, dtype=float)
        self.target = np.asarray(self.target, dtype=float)
        for name, vec in (("input", self.input), ("target", self.target)):
            if vec.ndim != 1:
                raise DimensionError(f"pattern {name} must be one-dimensional")
            # written so that NaN, whose comparisons are all False, fails too
            if vec.size and not (vec.min() >= 0.0 and vec.max() <= 1.0):
                raise ValueError(
                    f"pattern {name} components must be finite and lie in [0, 1]")


@dataclass(frozen=True)
class Normalizer:
    """Fixed-bound min-max scaling between a variable's unit and [0, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"normalizer needs hi > lo, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for :func:`train`."""

    seed: int
    epochs: int = 1000
    learning_rate: float = 0.2
    init_half_width: float = 0.5

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.init_half_width <= 0.0:
            raise ValueError("init_half_width must be > 0")


@dataclass
class GainTrace:
    """One per-pattern record of the gain actually applied during training."""

    epoch: int
    pattern_index: int
    pattern_error: float
    gain: float


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


def sigmoid_gain(y: float, g: float) -> float:
    """Logistic activation with gain: 1 / (1 + exp(-g * y)), strictly in (0, 1)."""
    if not math.isfinite(y):
        raise ValueError(f"activation input must be finite, got {y}")
    if not (math.isfinite(g) and g > 0.0):
        raise ValueError(f"gain must be a positive finite real, got {g}")
    return _sigma(g * y)


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


def _check_pattern(t: MlpTopology, p: Pattern, label: str) -> None:
    if p.input.shape != (t.n_inputs,) or p.target.shape != (t.n_outputs,):
        raise DimensionError(
            f"{label} dims ({p.input.size} in, {p.target.size} out) do not match "
            f"topology ({t.n_inputs} in, {t.n_outputs} out)"
        )


def forward(net: Mlp, input: "np.ndarray | list[float]") -> np.ndarray:
    """Run the network on one input vector; outputs lie strictly in (0, 1)."""
    x = np.asarray(input, dtype=float)
    if x.shape != (net.topology.n_inputs,):
        raise DimensionError(
            f"input length {x.size} does not match n_inputs {net.topology.n_inputs}"
        )
    _, o = _forward(net.w_hidden.tolist(), net.w_output.tolist(), [1.0, *x.tolist()],
                    net.gain)
    return np.array(o)


def pattern_error(target, output) -> float:
    """Worst-component error: max over outputs of |target - output|."""
    t = np.asarray(target, dtype=float)
    o = np.asarray(output, dtype=float)
    if t.shape != o.shape:
        raise DimensionError(f"target length {t.size} vs output length {o.size}")
    return float(np.max(np.abs(t - o)))


def adaptive_gain(e_p: float) -> float:
    """Gain for the next update from the pattern error; always in (0, 1]."""
    if not e_p >= 0.0:
        raise ValueError(f"pattern error must be a number >= 0, got {e_p}")
    ap = 2.0 * e_p
    return 1.0 / ap if ap > 1.0 else 1.0


def backprop_step(net: Mlp, p: Pattern, lr: float) -> tuple[Mlp, float]:
    """One forward/backward pass plus weight update for a single pattern.

    The updated network carries the gain that was applied; the returned
    error is the pattern's summed squared error before the update.  ``net``
    is left unchanged.
    """
    if lr < 0.0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    t = net.topology
    _check_pattern(t, p, "pattern")
    wh, wo = net.w_hidden.tolist(), net.w_output.tolist()
    sse, _, g = _update(wh, wo, [1.0, *p.input.tolist()], p.target.tolist(), lr,
                        net.gain)
    return Mlp(t, wh, wo, gain=g), sse


def train(net: Mlp, patterns: "list[Pattern]", cfg: TrainConfig,
          trace: "list[GainTrace] | None" = None) -> tuple[Mlp, list[float]]:
    """Online backpropagation over ``cfg.epochs`` full passes.

    Weights are re-initialized from ``cfg.seed`` (the incoming net supplies
    the topology only), patterns are visited in stored order, and
    ``loss_history[k]`` is the mean per-pattern squared error seen during
    epoch k.  Bit-deterministic for a fixed seed.  If ``trace`` is given,
    one :class:`GainTrace` entry is appended per pattern visit.
    """
    if not patterns:
        raise ValueError("cannot train on an empty pattern set")
    t = net.topology
    for i, p in enumerate(patterns):
        _check_pattern(t, p, f"pattern {i}")
    init = Mlp.random(t, np.random.default_rng(cfg.seed), cfg.init_half_width)
    wh, wo, gain = init.w_hidden.tolist(), init.w_output.tolist(), init.gain
    inputs = [[1.0, *p.input.tolist()] for p in patterns]
    targets = [p.target.tolist() for p in patterns]
    lr = cfg.learning_rate
    loss_history: list[float] = []
    for epoch in range(cfg.epochs):
        total = 0.0
        for i, (xa, target) in enumerate(zip(inputs, targets)):
            sse, e_p, gain = _update(wh, wo, xa, target, lr, gain)
            total += sse
            if trace is not None:
                trace.append(GainTrace(epoch, i, e_p, gain))
        loss_history.append(total / len(patterns))
    return Mlp(t, wh, wo, gain=gain), loss_history


def normalize(x: float, nz: Normalizer) -> float:
    """Map x into [0, 1] against the fixed bounds; out-of-range finite x is clamped."""
    if not math.isfinite(x):
        raise ValueError(f"cannot normalize the non-finite value {x}")
    u = (x - nz.lo) / (nz.hi - nz.lo)
    return min(max(u, 0.0), 1.0)


def denormalize(u: float, nz: Normalizer) -> float:
    """Inverse of :func:`normalize` on [0, 1]; not clamped."""
    return nz.lo + u * (nz.hi - nz.lo)
