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

The arithmetic runs on plain doubles, not numpy arrays.  At this size (an
8 x 4 hidden matrix) numpy's per-call overhead costs far more than the
arithmetic, and so, in a generic loop over lists, does the interpreter:
indexing, iterators, a call per node and a new list per visit.  So the one
kernel is generated: :func:`_steps` lists the statements of a forward pass
and of one pattern visit for a topology, with every weight, activation and
delta a local variable, and two renderers write them out, as Python and as
C.  :func:`_kernel` builds the train loop, the forward pass and the series
loop once per topology per process and caches them.  The weights are
unpacked into locals once per call and returned at the end, so a pattern
visit indexes no list.
:func:`train`, :func:`backprop_step` (one pattern, one epoch),
:func:`forward` and :func:`series` all run this code; :func:`sigmoid_gain`
keeps ``_sigma``.

The train and series loops run as C where :mod:`._cbuild` builds and loads
them, one shared object per topology, and as Python otherwise; the two give
the same bits.  The C rendering does the same IEEE double operations in the
same order, with float literals written exactly, in hex, under the flags
that ``_cbuild`` explains.  A C loop that declines (a NaN pattern error, a
non-finite series input) is run again as the Python rendering, which raises
its own error, as ``_cbuild``'s contract says.

Series run in C, single calls run in Python.  :func:`series` runs a net over
a whole series of days in one call: it scales each raw input against its
normalizer as :func:`normalize` does, runs the forward pass, denormalizes
the output and, in a closed loop, feeds it back as the next day's input.
The one shared object per topology holds its C rendering beside the train
loop, built from the same forward statements; the Python rendering calls
the generated forward pass day by day.  A raw input is scaled into [0, 1]
by one rule, written twice: in Python as :func:`normalize`, which
:func:`normalize_row` applies to a whole row for every training pattern,
single prediction and Python series row, and in C in the ``series``
template.  A single forward pass stays Python, because a ``ctypes`` call
costs more than it saves: :func:`bind` converts a net's weight matrices to
flat float lists once and returns the generated forward pass over plain
float lists, with the weights and gain bound by ``functools.partial``, so a
call adds no Python frame of its own, and :func:`forward` is ``bind`` plus
the numpy conversions of one input and one output.  The bound function
holds a snapshot of the weights and gain taken at bind time: changing the
net afterwards does not change it.

Both renderings give what the plain loop gives, bit for bit: every dot
product is added left to right in the same order, never through BLAS or the
builtin ``sum`` (whose float algorithm changed in Python 3.12), the backward
sums read the output weights from before the update, and the activation
clamps and the gain rule are inlined.  Results therefore do not depend on
the BLAS build or the Python version, and ``tests/test_ann.py`` keeps the
plain loop to check both renderings against it bit for bit.  The sources are
formatted only from the topology's integers.

The plain loop starts every sum at ``0.0``.  ``0.0 + a`` is ``a`` except
that it turns ``-0.0`` into ``0.0``, so a sum without that start can differ
only in the sign of a zero.  The hidden and output pre-activations start at
their bias weight, ``w0 + w1*x1 + ...``: they feed only the sigmoid, and
``exp(-0.0) == exp(0.0)``.  The squared error starts at ``r0*r0``, which is
never ``-0.0``.  The back-propagated sums keep ``0.0 + w1*d0 + ...``: they
flow on into the weight updates, where the sign of a zero can survive in a
weight.

The activation keeps two clamps, the only two that can change a result.  A
gained input below -709 is raised to -709, because ``exp`` overflows past
it; the output is then at least 1 / (1 + e^709), about 1.2e-308, so no clamp
is needed at the low end.  Above +37 the logistic rounds to exactly 1.0,
which is lowered to the largest float below 1.0, so outputs stay in the open
interval (0, 1).  A gained input above +709 needs no clamp of its own:
``exp(-z)`` merely underflows to 0.0 and the output to the same 1.0.

All public types are value types: training and update steps return new
objects and never mutate their inputs, so models can be shared freely
across threads.
"""

from __future__ import annotations

import functools
import math
import re
from array import array
from dataclasses import dataclass
from itertools import chain, repeat
from math import exp
from operator import add
from typing import Callable, NamedTuple

import numpy as np

from . import _cbuild
from .errors import DimensionError

# The activation's two clamps (see the module docstring): float64 rounds the
# logistic to exactly 1.0 for g*y > ~37, and exp(-z) overflows for z < -709.
_SIG_HI = math.nextafter(1.0, 0.0)
_EXP_CAP = 709.0


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
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"normalizer bounds must be finite, got [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi - self.lo):  # else every value would scale to 0 or nan
            raise ValueError(f"normalizer span hi - lo must be finite, got "
                             f"[{self.lo}, {self.hi}]")


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


class GainTrace(NamedTuple):
    """One per-pattern record of the gain actually applied during training."""

    epoch: int
    pattern_index: int
    pattern_error: float
    gain: float


def _sigma(z: float) -> float:
    """Logistic of an already-gained input, with both clamps applied."""
    if z < -_EXP_CAP:
        z = -_EXP_CAP
    y = 1.0 / (1.0 + exp(-z))
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


# CPython's compiler recurses once per chained binary operator, so a long
# generated sum is continued in further statements (same order) past this.
_SUM_TERMS = 64

# The kernel is one list of statements, rendered to Python and to C.  A
# statement is either a string, an assignment in the expression language the
# two share (C writes ``abs`` as ``fabs``, ``or`` as ``||`` and each float
# literal, always written with a point, exactly in hex), or one of:
#   ("sum", target, terms, from_zero)  target = [0.0 +] terms[0] + terms[1] + ...
#   ("if", [(cond, body), ...])        an if/elif chain; a cond of None is the else
#   _REJECT                            e_p is NaN: the gain rule raises, C declines
#   _TRACE                             record this visit's (e_p, g)
_REJECT, _TRACE = ("reject",), ("trace",)


def _sum(target: str, terms: "list[str]", from_zero: bool = True) -> "list[str]":
    """Source lines setting ``target`` to 0.0 + terms[0] + terms[1] + ...,
    added strictly left to right; without the leading 0.0 if not ``from_zero``."""
    lines, acc = [], ["0.0"] if from_zero else []
    for k in range(0, len(terms), _SUM_TERMS):
        lines.append(f"{target} = {' + '.join([*acc, *terms[k:k + _SUM_TERMS]])}")
        acc = [target]
    return lines


def _sigma_steps(target: str, z: str) -> list:
    """Statements setting ``target`` to ``_sigma(z)``, clamps included."""
    return [f"z = {z}",
            ("if", [(f"z < {-_EXP_CAP!r}", [f"z = {-_EXP_CAP!r}"])]),
            f"{target} = 1.0 / (1.0 + exp(-z))",
            ("if", [(f"{target} > {_SIG_HI!r}", [f"{target} = {_SIG_HI!r}"])])]


def _weight_names(n: int, h: int, o: int) -> "tuple[list[str], list[str]]":
    """Local names of the flattened hidden and output weight matrices."""
    return ([f"wh{j}_{i}" for j in range(1, h + 1) for i in range(n + 1)],
            [f"wo{k}_{j}" for k in range(o) for j in range(h + 1)])


def _steps(n: int, h: int, o: int) -> "tuple[list, list]":
    """The statements of a forward pass and of one training visit, n-h-o network.

    Every name is formatted from ``range`` indices only.  Weights live in
    locals: ``wh{j}_{i}`` feeds input i (0 is the bias) into hidden node j
    (1..h), ``wo{k}_{j}`` feeds hidden node j (0 is the bias) into output k.
    The bias input is 1.0 and ``w * 1.0 == w`` exactly, so bias terms carry
    no product.

    One visit: a forward pass at the network's current gain measures how far
    the pattern is off, and that error fixes the gain applied to this update
    (a second pass runs if it differs).  The loss differentiated is
    0.5 * sum((t - o)^2) at the applied gain, so the weights take an exact
    gradient step; the reported error is sum((t - o)^2) before the update.
    """
    H, I, K = range(1, h + 1), range(1, n + 1), range(o)

    def activate(g):
        steps = []
        for j in H:
            steps += _sigma_steps(f"h{j}", f"{g} * s{j}")
        for k in K:
            steps.append(("sum", "u", [f"wo{k}_0", *(f"wo{k}_{j} * h{j}" for j in H)], False))
            steps += _sigma_steps(f"o{k}", f"{g} * u")
        return steps

    # hidden pre-activations do not depend on the gain
    forward = [("sum", f"s{j}", [f"wh{j}_0", *(f"wh{j}_{i} * x{i}" for i in I)], False)
               for j in H]
    forward += activate("g")
    visit = [*forward, "e_p = abs(t0 - o0)"]
    for k in K[1:]:  # e_p = max |t - o|, keeping a NaN for the gain rule to reject
        visit += [f"d = abs(t{k} - o{k})", ("if", [("d > e_p or d != d", ["e_p = d"])])]
    visit += ["ap = 2.0 * e_p",
              ("if", [("ap > 1.0", ["g_new = 1.0 / ap"]), ("ap == ap", ["g_new = 1.0"]),
                      (None, [_REJECT])]),
              ("if", [("g_new != g", ["g = g_new", *activate("g")])])]
    visit += [f"r{k} = t{k} - o{k}" for k in K]
    visit.append(("sum", "sse", [f"r{k} * r{k}" for k in K], False))
    visit += [f"d{k} = (o{k} - t{k}) * (g * o{k} * (1.0 - o{k}))" for k in K]
    # back-propagated sums read the output weights from before this update
    visit += [("sum", f"back{j}", [f"wo{k}_{j} * d{k}" for k in K], True) for j in H]
    for k in K:
        visit.append(f"wo{k}_0 = wo{k}_0 - lr * d{k}")
        visit += [f"wo{k}_{j} = wo{k}_{j} - lr * (d{k} * h{j})" for j in H]
    for j in H:
        visit.append(f"dh{j} = back{j} * (g * h{j} * (1.0 - h{j}))")
        visit.append(f"wh{j}_0 = wh{j}_0 - lr * dh{j}")
        visit += [f"wh{j}_{i} = wh{j}_{i} - lr * (dh{j} * x{i})" for i in I]
    visit += ["total += sse", _TRACE]
    return forward, visit


def _py_lines(steps: list) -> "list[str]":
    """Python source lines of ``steps``; a one-line if body stays on its line."""
    lines = []
    for s in steps:
        if isinstance(s, str):
            lines.append(s)
        elif s[0] == "sum":
            lines += _sum(*s[1:])
        elif s[0] == "if":
            for k, (cond, body) in enumerate(s[1]):
                head = "else" if cond is None else f"{'elif' if k else 'if'} {cond}"
                inner = _py_lines(body)
                lines += ([f"{head}: {inner[0]}"] if len(inner) == 1
                          else [f"{head}:", *("    " + line for line in inner)])
        elif s == _REJECT:
            lines.append("g_new = adaptive_gain(e_p)")
        else:
            lines += ["if trace is not None:",
                      "    trace.append(GainTrace(epoch, p, e_p, g))"]
    return lines


def _py_sources(n: int, h: int, o: int) -> "tuple[str, str]":
    """Python sources of ``train_loop`` and of ``forward`` for an n-h-o network."""
    forward_steps, visit = _steps(n, h, o)
    wh, wo = _weight_names(n, h, o)
    xs = [f"x{i}" for i in range(1, n + 1)]
    ts = [f"t{k}" for k in range(o)]
    unpack = [f"{', '.join(wh)}, = wh", f"{', '.join(wo)}, = wo"]

    def rows_of(names, width):
        return ", ".join("[" + ", ".join(names[r:r + width]) + "]"
                         for r in range(0, len(names), width))

    train_loop = ["def train_loop(wh, wo, g, rows, lr, epochs, trace):",
                  "    exp = _exp",
                  *("    " + line for line in unpack),
                  "    losses = []",
                  "    for epoch in range(epochs):",
                  "        total = 0.0",
                  f"        for p, ({', '.join(xs + ts)},) in enumerate(rows):",
                  *("            " + line for line in _py_lines(visit)),
                  "        losses.append(total / len(rows))",
                  f"    return [{rows_of(wh, n + 1)}], [{rows_of(wo, h + 1)}], g, losses"]
    forward = ["def forward(wh, wo, g, x):",
               "    exp = _exp",
               *("    " + line for line in unpack),
               f"    {', '.join(xs)}, = x",
               *("    " + line for line in _py_lines(forward_steps)),
               f"    return [{', '.join(f'o{k}' for k in range(o))}]"]
    return "\n".join(train_loop) + "\n", "\n".join(forward) + "\n"


def _kernel_source(n: int, h: int, o: int) -> str:
    """Python source of ``train_loop`` and ``forward`` for an n-h-o network."""
    return "".join(_py_sources(n, h, o))


# float literals, which C gets exactly as hex, and the two words C spells otherwise
_C_TOKENS = re.compile(r"\b(?:\d+\.\d+(?:e[-+]?\d+)?|abs|or)\b")
_C_WORDS = {"abs": "fabs", "or": "||"}


def _c_lines(steps: list) -> "list[str]":
    """C lines of ``steps``, every sum one expression, still to be passed
    through ``_C_TOKENS``; the lines added here hold no float literal."""
    lines = []
    for s in steps:
        if isinstance(s, str):
            lines.append(s + ";")
        elif s[0] == "sum":
            _, target, terms, from_zero = s
            lines.append(f"{target} = {' + '.join(['0.0', *terms] if from_zero else terms)};")
        elif s[0] == "if":
            for k, (cond, body) in enumerate(s[1]):
                head = "else" if cond is None else f"{'else if' if k else 'if'} ({cond})"
                lines += [head + " {", *("    " + line for line in _c_lines(body)), "}"]
        elif s == _REJECT:
            lines.append("return -1;")
        else:
            lines += ["if (trace) {", "    *trace++ = e_p;", "    *trace++ = g;", "}"]
    return lines


def _c_source(n: int, h: int, o: int) -> str:
    """C source of ``train_loop`` and ``series`` for an n-h-o network.

    ``train_loop`` runs the visit of :func:`_steps` over epochs and rows and
    returns the visits it made.  ``series`` runs its forward pass over rows
    of raw inputs, each scaled and clamped against ``lo`` and ``span`` as
    :func:`normalize` does, the last ``feedback`` of them the previous
    outputs, newest first.  It writes output 0, denormalized, per row to
    ``out`` and returns the rows.  Each returns -1 where the Python rendering
    raises: a NaN error, a non-finite raw input.  Every weight, activation
    and delta is a local double.
    """
    forward, visit = _steps(n, h, o)

    def body(steps, indent):
        return _C_TOKENS.sub(lambda m: _C_WORDS.get(m[0]) or float.hex(float(m[0])),
                             "\n".join(indent + line for line in _c_lines(steps)))
    wh, wo = _weight_names(n, h, o)
    unpack = [*(f"    double {name} = wh[{i}];" for i, name in enumerate(wh)),
              *(f"    double {name} = wo[{i}];" for i, name in enumerate(wo))]
    H, K = range(1, h + 1), range(o)
    xs = [f"x{i}" for i in range(1, n + 1)]
    cols = [*xs, *(f"t{k}" for k in K)]
    temps = [*cols, *(f"{v}{j}" for v in ("s", "h", "back", "dh") for j in H),
             *(f"{v}{k}" for v in ("o", "r", "d") for k in K),
             "u", "z", "e_p", *(["d"] if o > 1 else []), "ap", "g_new", "sse", "total"]
    forward_temps = [*xs, *(f"{v}{j}" for v in ("s", "h") for j in H), *(f"o{k}" for k in K)]
    return "\n".join([
        "#include <math.h>",
        "",
        "long train_loop(double *wh, double *wo, double *gain, const double *rows, long n_rows,",
        "                double lr, long epochs, double *losses, double *trace)",
        "{",
        *unpack,
        "    double g = *gain;",
        f"    double {', '.join(temps)};",
        "    for (long epoch = 0; epoch < epochs; epoch++) {",
        "        const double *row = rows;",
        "        total = 0.0;",
        f"        for (long p = 0; p < n_rows; p++, row += {len(cols)}) {{",
        *(f"            {name} = row[{i}];" for i, name in enumerate(cols)),
        body(visit, "            "),
        "        }",
        "        losses[epoch] = total / (double)n_rows;",
        "    }",
        *(f"    wh[{i}] = {name};" for i, name in enumerate(wh)),
        *(f"    wo[{i}] = {name};" for i, name in enumerate(wo)),
        "    *gain = g;",
        "    return epochs * n_rows;",
        "}",
        "",
        "long series(const double *wh, const double *wo, double g, const double *rows,",
        "            long n_rows, const double *lo, const double *span, double out_lo,",
        "            double out_span, long feedback, const double *init, double *out)",
        "{",
        *unpack,
        f"    double {', '.join(forward_temps)}, u, z, v, scaled[{n}], fed[{n}];",
        f"    long m = {n} - feedback;",
        "    for (long j = 0; j < feedback; j++) {",
        "        fed[j] = init[feedback - 1 - j];",
        "    }",
        "    for (long p = 0; p < n_rows; p++, rows += m) {",
        f"        for (long i = 0; i < {n}; i++) {{",
        "            v = i < m ? rows[i] : fed[i - m];",
        "            if (!isfinite(v)) {",
        "                return -1;",
        "            }",
        "            v = (v - lo[i]) / span[i];",
        "            scaled[i] = v < 0.0 ? 0.0 : v > 1.0 ? 1.0 : v;",
        "        }",
        *(f"        {name} = scaled[{i}];" for i, name in enumerate(xs)),
        body(forward, "        "),
        "        out[p] = out_lo + o0 * out_span;",
        "        for (long j = feedback - 1; j > 0; j--) {",
        "            fed[j] = fed[j - 1];",
        "        }",
        "        if (feedback > 0) {",
        "            fed[0] = out[p];",
        "        }",
        "    }",
        "    return n_rows;",
        "}",
    ]) + "\n"


def _exec_python(t: MlpTopology, source: str) -> dict:
    """The names that the Python ``source`` rendered for ``t`` defines."""
    code = compile(source, f"<ann kernel {t.n_inputs}-{t.n_hidden}-{t.n_outputs}>", "exec")
    namespace = {"_exp": exp, "adaptive_gain": adaptive_gain, "GainTrace": GainTrace}
    exec(code, namespace)
    return namespace


def _py_series(forward, wh, wo, g, rows, norms, out_norm, feedback, init):
    """The Python series loop over the generated ``forward``: arguments and
    results are those of the C ``series`` through :func:`_run_c_series`."""
    out_lo, out_span = out_norm.lo, out_norm.hi - out_norm.lo
    fed = init[::-1]  # newest first
    out = []
    for row in rows:
        y = out_lo + forward(wh, wo, g, normalize_row((*row, *fed), norms))[0] * out_span
        out.append(y)
        if feedback:
            fed = [y, *fed[:-1]]
    return out


def _python_kernel(t: MlpTopology):
    """Compiled Python ``(train_loop, forward, series)`` for one topology.

    ``train_loop(wh, wo, g, rows, lr, epochs, trace)`` takes the flattened
    weight matrices, the starting gain and one ``(*input, *target)`` tuple per
    pattern; it returns the trained weights as lists of rows, the last applied
    gain and the per-epoch mean squared errors.  ``forward(wh, wo, g, x)``
    returns the output list.  ``series(wh, wo, g, rows, norms, out_norm,
    feedback, init)`` is :func:`series` on the flattened weights.
    """
    namespace = _exec_python(t, _kernel_source(t.n_inputs, t.n_hidden, t.n_outputs))
    forward = namespace["forward"]
    return namespace["train_loop"], forward, functools.partial(_py_series, forward)


def _c_kernel(t: MlpTopology):
    """``(train_loop, forward, series)`` for ``t`` with the C rendering's train
    and series loops, called like the Python ones, both from the one shared
    object built for ``t``; None, logged once, where it cannot be built.
    ``forward`` is the Python rendering's: a ``ctypes`` call costs more than
    one forward pass saves.
    """
    n, h, o = t.n_inputs, t.n_hidden, t.n_outputs
    loops = _cbuild.load("ann", _c_source(n, h, o),
                         {"train_loop": "lPPPPldlPP", "series": "lPPdPlPPddlPP"},
                         f"ann {n}-{h}-{o}: training runs the Python loop, as does series "
                         "inference, the C loops did not build")
    if loops is None:
        return None
    # the Python train loop is not compiled: it is most of the compile time
    forward = _exec_python(t, _py_sources(n, h, o)[1])["forward"]
    return (functools.partial(_run_c_train_loop, loops[0], t), forward,
            functools.partial(_run_c_series, loops[1], t, forward))


def _run_c_train_loop(fn, t: MlpTopology, wh, wo, g, rows, lr, epochs, trace):
    """Call the compiled ``fn`` on ``array('d')`` buffers; arguments and
    results are those of the Python ``train_loop``, which runs instead where
    ``fn`` declines."""
    n, h, o = t.n_inputs, t.n_hidden, t.n_outputs
    w_h, w_o, gain = array("d", wh), array("d", wo), array("d", [g])
    flat, n_rows = array("d", chain.from_iterable(rows)), len(rows)
    # the C loop reads and writes exactly these lengths
    if (len(w_h), len(w_o), len(flat)) != (h * (n + 1), o * (h + 1), n_rows * (n + o)):
        raise ValueError(f"weights or rows do not fit topology {n}-{h}-{o}")
    losses = array("d", bytes(8 * epochs))
    visits = array("d", bytes(16 * epochs * n_rows)) if trace is not None else None
    if fn(w_h.buffer_info()[0], w_o.buffer_info()[0], gain.buffer_info()[0],
          flat.buffer_info()[0], n_rows, lr, epochs, losses.buffer_info()[0],
          None if visits is None else visits.buffer_info()[0]) < 0:
        return _python_kernel(t)[0](wh, wo, g, rows, lr, epochs, trace)
    if visits is not None:
        epoch = chain.from_iterable(map(repeat, range(epochs), repeat(n_rows)))
        index = chain.from_iterable(repeat(range(n_rows), epochs))
        trace.extend(map(tuple.__new__, repeat(GainTrace),
                         zip(epoch, index, visits[0::2], visits[1::2])))
    return ([w_h[r:r + n + 1].tolist() for r in range(0, len(w_h), n + 1)],
            [w_o[r:r + h + 1].tolist() for r in range(0, len(w_o), h + 1)],
            gain[0], losses.tolist())


def _run_c_series(fn, t: MlpTopology, forward, wh, wo, g, rows, norms, out_norm, feedback,
                  init):
    """Call the compiled ``fn`` on ``array('d')`` buffers; arguments and
    results are those of the Python series loop over ``forward``, which runs
    instead where ``fn`` declines."""
    n, h, o = t.n_inputs, t.n_hidden, t.n_outputs
    w_h, w_o = array("d", wh), array("d", wo)
    flat = array("d", chain.from_iterable(rows))
    n_rows, rest = divmod(len(flat), n - feedback)
    # the C loop reads exactly these lengths
    if (len(w_h), len(w_o), rest) != (h * (n + 1), o * (h + 1), 0):
        raise ValueError(f"weights or rows do not fit topology {n}-{h}-{o}")
    if not n_rows:  # no buffer to hand over
        return []
    lo = array("d", [nz.lo for nz in norms])
    span = array("d", [nz.hi - nz.lo for nz in norms])
    fed, out = array("d", init), array("d", bytes(8 * n_rows))
    if fn(w_h.buffer_info()[0], w_o.buffer_info()[0], g, flat.buffer_info()[0], n_rows,
          lo.buffer_info()[0], span.buffer_info()[0], out_norm.lo, out_norm.hi - out_norm.lo,
          feedback, fed.buffer_info()[0], out.buffer_info()[0]) < 0:
        return _py_series(forward, wh, wo, g, rows, norms, out_norm, feedback, init)
    return out.tolist()


_KERNELS: dict = {}  # (n_inputs, n_hidden, n_outputs) -> _kernel's triple


def _kernel(t: MlpTopology):
    """``(train_loop, forward, series)`` for one topology, built once per process.

    The C rendering's when it builds, else the Python rendering's, logged
    once; both give the same bits.  Cached by the topology's three sizes: a
    tuple of ints hashes in C, where the frozen dataclass would call its
    Python-level ``__hash__`` on every :func:`bind`.  ``cache_clear()``
    empties the cache.
    """
    key = (t.n_inputs, t.n_hidden, t.n_outputs)
    kernel = _KERNELS.get(key)
    if kernel is None:
        kernel = _KERNELS[key] = _c_kernel(t) or _python_kernel(t)
    return kernel


_kernel.cache_clear = _KERNELS.clear


def _row(p: Pattern) -> "tuple[float, ...]":
    return (*p.input.tolist(), *p.target.tolist())


def _check_pattern(t: MlpTopology, p: Pattern, label: str) -> None:
    if p.input.shape != (t.n_inputs,) or p.target.shape != (t.n_outputs,):
        raise DimensionError(
            f"{label} dims ({p.input.size} in, {p.target.size} out) do not match "
            f"topology ({t.n_inputs} in, {t.n_outputs} out)"
        )


def bind(net: Mlp) -> "Callable[[list[float]], list[float]]":
    """The forward pass of ``net`` over plain float lists.

    The weights and gain are converted once, here, and the returned function
    keeps that snapshot: changing ``net`` later does not change it.  It maps
    a list of ``n_inputs`` floats to a new list of ``n_outputs`` floats, each
    strictly in (0, 1), bit for bit as :func:`forward` does; an input of the
    wrong length raises ``ValueError``.
    """
    return functools.partial(_kernel(net.topology)[1], net.w_hidden.ravel().tolist(),
                             net.w_output.ravel().tolist(), net.gain)


def forward(net: Mlp, input: "np.ndarray | list[float]") -> np.ndarray:
    """Run the network on one input vector; outputs lie strictly in (0, 1)."""
    x = np.asarray(input, dtype=float)
    if x.shape != (net.topology.n_inputs,):
        raise DimensionError(
            f"input length {x.size} does not match n_inputs {net.topology.n_inputs}"
        )
    return np.array(bind(net)(x.tolist()))


def series(net: Mlp, rows, norms: "list[Normalizer]", out_norm: Normalizer,
           feedback: int = 0, init: "list[float]" = ()) -> "list[float]":
    """Output 0 of ``net`` for each day of a series, in one call.

    Each of ``rows`` holds one day's raw values of the inputs that are not
    fed back; a row of another length is a ``DimensionError`` naming the
    first.  Input i is scaled against ``norms[i]`` as :func:`normalize`
    scales it, which rejects a non-finite value (the first in day order,
    then input order) with its error; the output is denormalized against
    ``out_norm``.  With ``feedback = k`` the last k inputs are the previous
    k outputs, newest first, seeded by ``init``, oldest first.  Bit for bit
    the same as :func:`forward` day by day, whichever rendering runs.
    """
    t = net.topology
    if len(norms) != t.n_inputs:
        raise DimensionError(f"{t.n_inputs} inputs need as many normalizers, "
                             f"got {len(norms)}")
    if not 0 <= feedback < t.n_inputs or len(init) != feedback:
        raise DimensionError(f"cannot feed back {feedback} of {t.n_inputs} inputs "
                             f"seeded by {len(init)} value(s)")
    rows, width = list(rows), t.n_inputs - feedback
    for day, row in enumerate(rows):
        if len(row) != width:
            raise DimensionError(f"row {day} holds {len(row)} value(s), not {width}")
    return _kernel(t)[2](net.w_hidden.ravel().tolist(), net.w_output.ravel().tolist(),
                         net.gain, rows, norms, out_norm, feedback, list(init))


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
    train_loop = _kernel(t)[0]
    wh, wo, g, (sse,) = train_loop(net.w_hidden.ravel().tolist(),
                                   net.w_output.ravel().tolist(), net.gain, [_row(p)],
                                   lr, 1, None)
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
    t = net.topology
    for i, p in enumerate(patterns):
        _check_pattern(t, p, f"pattern {i}")
    return _train_rows(t, [_row(p) for p in patterns], cfg, trace)


def _train_rows(t: MlpTopology, rows: list, cfg: TrainConfig,
                trace: "list[GainTrace] | None" = None) -> tuple[Mlp, list[float]]:
    """:func:`train` of a ``t`` network on one ``(*input, *target)`` row per
    pattern, without building a :class:`Pattern`.  No row is checked again:
    :func:`normalize_row` built it, one value in [0, 1] per normalizer, or
    :func:`train` from a pattern that checked its values and whose shape it checked."""
    if not rows:
        raise ValueError("cannot train on an empty pattern set")
    init = Mlp.random(t, np.random.default_rng(cfg.seed), cfg.init_half_width)
    wh, wo, gain, loss_history = _kernel(t)[0](
        init.w_hidden.ravel().tolist(), init.w_output.ravel().tolist(), init.gain,
        rows, cfg.learning_rate, cfg.epochs, trace)
    return Mlp(t, wh, wo, gain=gain), loss_history


def normalize(x: float, nz: Normalizer) -> float:
    """Map x into [0, 1] against the fixed bounds; out-of-range finite x is clamped."""
    u = (x - nz.lo) / (nz.hi - nz.lo)
    if 0.0 <= u <= 1.0:  # the common case; x is finite, or u would be inf or nan
        return u
    if not math.isfinite(x):
        raise ValueError(f"cannot normalize the non-finite value {x}")
    return 0.0 if u < 0.0 else 1.0 if u > 1.0 else u


def normalize_row(row, norms: "list[Normalizer]") -> "list[float]":
    """:func:`normalize` of each raw value of ``row`` against its own normalizer,
    for training patterns, single predictions and the Python series loop."""
    if len(row) != len(norms):
        raise DimensionError(f"{len(row)} value(s) against {len(norms)} normalizer(s)")
    return list(map(normalize, row, norms))


def denormalize(u: float, nz: Normalizer) -> float:
    """Inverse of :func:`normalize` on [0, 1]; not clamped."""
    return nz.lo + u * (nz.hi - nz.lo)


def ascii_number(text: str, parse=float):
    """``parse(text)``, or a ValueError where ``text`` holds ``_`` or is not
    ASCII (``float`` and ``int`` read ``1_0`` as 10, and Arabic-Indic digits)."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return parse(text)


def finite_float(text: str) -> float:
    """``ascii_number(text)``, or a ValueError when it is not finite."""
    value = ascii_number(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


def left_sum(values) -> float:
    """``0.0 + values[0] + values[1] + ...``, added strictly left to right.

    This is the float the builtin ``sum`` gives on Python 3.11 and earlier.
    Python 3.12 made ``sum`` of floats a compensated sum, so an average that
    must not depend on the Python version is taken with this instead.
    """
    return functools.reduce(add, values, 0.0)
