"""Versioned plain-text persistence for trained models.

The artifact is line-oriented so it diffs cleanly and survives any
transport; floats are written with ``repr`` (shortest round-trip form), so
a loaded model predicts bit-identically to the model that was saved.

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
from dataclasses import dataclass, field

import numpy as np

from .ann import Mlp, MlpTopology, Normalizer
from .errors import ArtifactParseError, ArtifactVersionError
from .evapo import Et0Model
from .moisture import MoistureModel, MoistureNormalizers

FORMAT_NAME = "paddymoist-model"
FORMAT_VERSION = 1

# Each kind's normalizers, in the order its model takes them.
_ET0_NORM_KEYS = ("temp", "et0")
_MOISTURE_NORM_KEYS = ("et0", "precip", "kc", "theta")


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
    version: int = FORMAT_VERSION

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


def _artifact(kind: str, net: Mlp, lag: int, keys: "tuple[str, ...]", norms,
              provenance: "dict | None") -> ModelArtifact:
    return ModelArtifact(kind=kind, topology=net.topology, lag=lag, gain=net.gain,
                         norms=dict(zip(keys, norms)), provenance=dict(provenance or {}),
                         w_hidden=np.array(net.w_hidden), w_output=np.array(net.w_output))


def et0_artifact(model: Et0Model, provenance: "dict | None" = None) -> ModelArtifact:
    return _artifact("et0", model.net, 0, _ET0_NORM_KEYS, (model.temp_norm, model.et0_norm),
                     provenance)


def _norms(a: ModelArtifact, kind: str, keys: "tuple[str, ...]") -> list:
    """The artifact's normalizers for ``keys``, once its kind is checked."""
    if a.kind != kind:
        raise ArtifactParseError(f"artifact kind is {a.kind!r}, expected {kind!r}")
    for key in keys:
        if key not in a.norms:
            raise ArtifactParseError(f"{kind} artifact has no 'norm {key}' line")
    return [a.norms[key] for key in keys]


def et0_from_artifact(a: ModelArtifact) -> Et0Model:
    norms = _norms(a, "et0", _ET0_NORM_KEYS)
    return Et0Model(a.to_mlp(), *norms)


def moisture_artifact(model: MoistureModel, provenance: "dict | None" = None) -> ModelArtifact:
    n = model.norms
    return _artifact("moisture", model.net, model.lag, _MOISTURE_NORM_KEYS,
                     (n.et0, n.precip, n.kc, n.theta), provenance)


def moisture_from_artifact(a: ModelArtifact) -> MoistureModel:
    norms = MoistureNormalizers(*_norms(a, "moisture", _MOISTURE_NORM_KEYS))
    return MoistureModel(a.to_mlp(), lag=a.lag, norms=norms)


def save_model(m: ModelArtifact, path) -> None:
    lines = [f"{FORMAT_NAME} {m.version}",
             f"kind {m.kind}",
             f"topology {m.topology.n_inputs} {m.topology.n_hidden} {m.topology.n_outputs}",
             f"lag {m.lag}",
             f"gain {m.gain!r}"]
    for name, nz in m.norms.items():
        lines.append(f"norm {name} {nz.lo!r} {nz.hi!r}")
    for key, value in m.provenance.items():
        lines.append(f"prov {key} {value}")
    for label, matrix in (("w_hidden", m.w_hidden), ("w_output", m.w_output)):
        for i, row in enumerate(matrix):
            lines.append(f"{label} {i} " + " ".join(repr(float(v)) for v in row))
    lines.append("end")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _fail(line_no: int, msg: str):
    raise ArtifactParseError(f"line {line_no}: {msg}")


def load_model(path) -> ModelArtifact:
    """Parse an artifact file; malformed content reports the offending line."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise ArtifactParseError(f"{path}: empty file")
    head = raw[0].split()
    if len(head) != 2 or head[0] != FORMAT_NAME:
        _fail(1, f"expected {FORMAT_NAME!r} header, got {raw[0]!r}")
    try:
        version = int(head[1])
    except ValueError:
        _fail(1, f"cannot parse version from {head[1]!r}")
    if version != FORMAT_VERSION:
        raise ArtifactVersionError(
            f"unsupported artifact version {version}; this build reads version "
            f"{FORMAT_VERSION}"
        )

    fields: dict = {"norms": {}, "prov": {}, "w_hidden": {}, "w_output": {}}
    saw_end = False
    for line_no, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        if saw_end:
            _fail(line_no, "content after 'end' marker")
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "kind" and len(parts) == 2:
                fields["kind"] = parts[1]
            elif tag == "topology" and len(parts) == 4:
                fields["topology"] = MlpTopology(int(parts[1]), int(parts[2]), int(parts[3]))
            elif tag == "lag" and len(parts) == 2:
                fields["lag"] = int(parts[1])
            elif tag == "gain" and len(parts) == 2:
                fields["gain"] = float(parts[1])
            elif tag == "norm" and len(parts) == 4:
                fields["norms"][parts[1]] = Normalizer(float(parts[2]), float(parts[3]))
            elif tag == "prov" and len(parts) >= 3:
                fields["prov"][parts[1]] = " ".join(parts[2:])
            elif tag in ("w_hidden", "w_output") and len(parts) >= 3:
                fields[tag][int(parts[1])] = [float(v) for v in parts[2:]]
            elif tag == "end" and len(parts) == 1:
                saw_end = True
            else:
                _fail(line_no, f"unrecognized or malformed line {line!r}")
        except ArtifactParseError:
            raise
        except ValueError:
            _fail(line_no, f"cannot parse values in {line!r}")
    if not saw_end:
        raise ArtifactParseError(f"{path}: missing 'end' marker, file truncated?")
    for required in ("kind", "topology", "lag", "gain"):
        if required not in fields:
            raise ArtifactParseError(f"{path}: missing {required!r} line")

    topo: MlpTopology = fields["topology"]

    def assemble(tag: str, n_rows: int, n_cols: int) -> np.ndarray:
        rows = fields[tag]
        if sorted(rows) != list(range(n_rows)):
            raise ArtifactParseError(
                f"{path}: {tag} needs rows 0..{n_rows - 1}, got {sorted(rows)}"
            )
        out = np.empty((n_rows, n_cols))
        for i in range(n_rows):
            if len(rows[i]) != n_cols:
                raise ArtifactParseError(
                    f"{path}: {tag} row {i} has {len(rows[i])} values, expected {n_cols}"
                )
            out[i] = rows[i]
        return out

    w_hidden = assemble("w_hidden", topo.n_hidden, topo.n_inputs + 1)
    w_output = assemble("w_output", topo.n_outputs, topo.n_hidden + 1)
    return ModelArtifact(
        kind=fields["kind"], topology=topo, lag=fields["lag"], gain=fields["gain"],
        norms=fields["norms"], provenance=fields["prov"],
        w_hidden=w_hidden, w_output=w_output, version=version,
    )
