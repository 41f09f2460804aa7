"""Versioned plain-text persistence for trained models.

The artifact is line-oriented so it diffs cleanly and survives any
transport; reals are written as ``repr(float(v))`` (shortest round-trip
form), so a loaded model predicts bit-identically to the model that was saved.

Line order is the grammar: :func:`save_model` writes the lines in the
order shown, the kind's ``norm`` lines in the order its model takes them
and any number of ``prov`` lines, each key once; :func:`load_model` reads
them back in that order.  A missing, repeated, unknown or out-of-order
line, or anything after ``end``, is an :class:`ArtifactParseError` naming
the file and line (a line ends at LF, CRLF or CR only); so is a line
whose words are not separated by single spaces, a byte that is not UTF-8,
a weight or bound that is not finite, a gain outside (0, 1] or a
normalizer without ``hi > lo``.  The version on the first line is the
format's, which :func:`save_model` always writes; any other is an
:class:`ArtifactVersionError` naming the file.  :func:`save_model` refuses,
writing nothing, a weight matrix whose shape does not fit the topology, or
a topology and ``lag`` that the kind's model does not take (3-n-1 and lag
0 for ``et0``, (3 + lag)-n-1 and lag >= 1 for ``moisture``), which
:func:`load_model` refuses too, naming the ``lag`` line.

    paddymoist-model 1
    kind et0
    topology 3 8 1
    lag 0
    gain 1.0
    norm temp 0.0 50.0
    norm et0 0.0 10.0
    prov seed 42
    w_hidden 0 <n_inputs+1 floats>
    ...
    w_output 0 <n_hidden+1 floats>
    end
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ann import Mlp, MlpTopology, Normalizer, ascii_number, finite_float
from .errors import ArtifactError, ArtifactParseError, ArtifactVersionError, not_utf8, tagged
from .evapo import Et0Model, check_et0_topology
from .moisture import MoistureModel, MoistureNormalizers, check_moisture_topology

FORMAT_NAME = "paddymoist-model"
FORMAT_VERSION = 1

# Each kind's normalizers, in the order its model takes them and its
# artifact writes them.
_NORM_KEYS = {"et0": ("temp", "et0"), "moisture": ("et0", "precip", "kc", "theta")}
_int = partial(ascii_number, parse=int)  # the version, topology and lag


@dataclass
class ModelArtifact:
    """Everything needed to reconstruct a trained model, plus provenance."""

    kind: str
    topology: MlpTopology
    lag: int
    gain: float
    norms: dict
    provenance: dict
    w_hidden: np.ndarray
    w_output: np.ndarray

    def to_mlp(self) -> Mlp:
        return Mlp(self.topology, np.array(self.w_hidden), np.array(self.w_output),
                   gain=self.gain)


def data_digest(*series) -> str:
    """Short deterministic digest of the numeric series a model was trained on."""
    h = hashlib.sha256()
    for seq in series:
        for v in seq:
            h.update(repr(float(v)).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def _artifact(kind: str, net: Mlp, lag: int, norms, provenance: "dict | None") -> ModelArtifact:
    return ModelArtifact(kind=kind, topology=net.topology, lag=lag, gain=net.gain,
                         norms=dict(zip(_NORM_KEYS[kind], norms)),
                         provenance=dict(provenance or {}),
                         w_hidden=np.array(net.w_hidden), w_output=np.array(net.w_output))


def et0_artifact(model: Et0Model, provenance: "dict | None" = None) -> ModelArtifact:
    return _artifact("et0", model.net, 0, (model.temp_norm, model.et0_norm), provenance)


def _norms(a: ModelArtifact, kind: str) -> list:
    """The artifact's normalizers in its model's order, once its kind is checked."""
    if a.kind != kind:
        raise ArtifactParseError(f"artifact kind is {a.kind!r}, expected {kind!r}")
    return [a.norms[key] for key in _NORM_KEYS[kind]]


def et0_from_artifact(a: ModelArtifact) -> Et0Model:
    return Et0Model(a.to_mlp(), *_norms(a, "et0"))


def moisture_artifact(model: MoistureModel, provenance: "dict | None" = None) -> ModelArtifact:
    n = model.norms
    return _artifact("moisture", model.net, model.lag, (n.et0, n.precip, n.kc, n.theta),
                     provenance)


def moisture_from_artifact(a: ModelArtifact) -> MoistureModel:
    norms = MoistureNormalizers(*_norms(a, "moisture"))
    return MoistureModel(a.to_mlp(), lag=a.lag, norms=norms)


def _topology_misfit(kind: str, t: MlpTopology, lag: int) -> "str | None":
    """Why a ``kind`` model cannot take a net of topology ``t`` and ``lag``, or
    None: the rule is the model's own, and an ``et0`` artifact carries lag 0."""
    try:
        if kind == "et0":
            check_et0_topology(t)
            if lag != 0:
                raise ValueError(f"an ET0 surrogate takes lag 0, got {lag}")
        else:
            check_moisture_topology(t, lag)
    except ValueError as exc:
        return str(exc)
    return None


def save_model(m: ModelArtifact, path) -> None:
    """Write ``m`` in the artifact's line order; raises ArtifactError, writing
    nothing, for content that :func:`load_model` would not read back as it is."""
    if tuple(m.norms) != _NORM_KEYS.get(m.kind):
        raise ArtifactError(f"a {m.kind!r} artifact cannot carry norms {list(m.norms)}")
    if not 0.0 < m.gain <= 1.0:
        raise ArtifactError(f"gain must be in (0, 1], got {m.gain!r}")
    if not (np.isfinite(m.w_hidden).all() and np.isfinite(m.w_output).all()):
        raise ArtifactError("a weight that is not finite cannot be saved")
    t = m.topology
    misfit = _topology_misfit(m.kind, t, m.lag)
    if misfit:
        raise ArtifactError(misfit)
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}",
             f"kind {m.kind}",
             f"topology {t.n_inputs} {t.n_hidden} {t.n_outputs}",
             f"lag {m.lag}",
             f"gain {float(m.gain)!r}"]
    for name, nz in m.norms.items():
        lines.append(f"norm {name} {float(nz.lo)!r} {float(nz.hi)!r}")
    for key, value in m.provenance.items():
        words = str(value).split()
        if str(key).split() != [str(key)] or not words or " ".join(words) != str(value):
            raise ArtifactError(f"provenance {key!r}: {value!r} does not fit one 'prov' line")
        lines.append(f"prov {key} {value}")
    for label, matrix, shape in (("w_hidden", m.w_hidden, (t.n_hidden, t.n_inputs + 1)),
                                 ("w_output", m.w_output, (t.n_outputs, t.n_hidden + 1))):
        if np.shape(matrix) != shape:
            raise ArtifactError(f"{label} has shape {np.shape(matrix)}, but topology "
                                f"{t.n_inputs} {t.n_hidden} {t.n_outputs} needs {shape}")
        for i, row in enumerate(matrix):
            lines.append(f"{label} {i} " + " ".join(repr(float(v)) for v in row))
    lines.append("end")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _fail(line_no: int, msg: str):
    raise ArtifactParseError(f"line {line_no}: {msg}")


def _gain(text: str) -> float:
    value = finite_float(text)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"gain must be in (0, 1], got {value!r}")
    return value


def _words(raw: list, i: int) -> list:
    """Line ``i + 1``'s words, which single spaces separate, as :func:`save_model`
    writes them."""
    words = raw[i].split(" ")
    if raw[i] and words != raw[i].split():
        _fail(i + 1, f"words must be separated by single spaces, got {raw[i]!r}")
    return words


def _take(raw: list, i: int, head: str, n_values: int, convert=finite_float, make=None):
    """Line ``i + 1``'s values read with ``convert``, passed to ``make`` if
    given; the line must be ``head`` followed by exactly ``n_values`` values."""
    if i >= len(raw):
        _fail(i + 1, f"expected {head!r}, got the end of the file (truncated?)")
    parts = _words(raw, i)
    k = len(parts) - n_values
    if k < 1 or " ".join(parts[:k]) != head:
        _fail(i + 1, f"expected {head!r} followed by {n_values} value(s), got {raw[i]!r}")
    try:
        values = [convert(v) for v in parts[k:]]
        return make(*values) if make else values
    except ValueError as exc:
        _fail(i + 1, f"cannot parse {raw[i]!r}: {exc}")


def _parse(raw: list) -> ModelArtifact:
    """The artifact in ``raw``'s lines, read in the order :func:`save_model` writes them."""
    version, = _take(raw, 0, FORMAT_NAME, 1, _int)
    if version != FORMAT_VERSION:
        raise ArtifactVersionError(
            f"unsupported artifact version {version}; this build reads version "
            f"{FORMAT_VERSION}"
        )
    kind, = _take(raw, 1, "kind", 1, str)
    if kind not in _NORM_KEYS:
        _fail(2, f"unknown kind {kind!r}, expected one of {list(_NORM_KEYS)}")
    topo = _take(raw, 2, "topology", 3, _int, MlpTopology)
    lag, = _take(raw, 3, "lag", 1, _int)
    misfit = _topology_misfit(kind, topo, lag)
    if misfit:
        _fail(4, misfit)
    gain, = _take(raw, 4, "gain", 1, _gain)
    norms = {key: _take(raw, 5 + j, f"norm {key}", 2, make=Normalizer)
             for j, key in enumerate(_NORM_KEYS[kind])}
    i = 5 + len(norms)
    provenance = {}
    while i < len(raw) and raw[i].startswith("prov "):
        parts = _words(raw, i)
        if len(parts) < 3 or parts[1] in provenance:
            _fail(i + 1, f"expected a 'prov' line with a new key and a value, got {raw[i]!r}")
        provenance[parts[1]] = " ".join(parts[2:])
        i += 1
    weights = []
    for tag, n_rows, n_cols in (("w_hidden", topo.n_hidden, topo.n_inputs + 1),
                                ("w_output", topo.n_outputs, topo.n_hidden + 1)):
        weights.append(np.array([_take(raw, i + r, f"{tag} {r}", n_cols)
                                 for r in range(n_rows)]))
        i += n_rows
    _take(raw, i, "end", 0)
    if i + 1 < len(raw):
        _fail(i + 2, f"content after 'end': {raw[i + 1]!r}")
    return ModelArtifact(kind=kind, topology=topo, lag=lag, gain=gain, norms=norms,
                         provenance=provenance, w_hidden=weights[0], w_output=weights[1])


def load_model(path) -> ModelArtifact:
    """Parse an artifact file; an error once it is open names the file, and
    malformed content, or a byte that is not UTF-8, its line."""
    with open(path, encoding="utf-8") as fh, tagged(f"{path}:"):
        try:
            lines = fh.read().split("\n")  # text mode ends every line in \n
        except UnicodeDecodeError:
            raise ArtifactParseError(not_utf8(path)) from None
        if not lines[-1]:
            lines.pop()  # the final newline starts no line
        return _parse(lines)
