"""Model artifact save/load: bit-exact round trips and format errors."""

import re
from dataclasses import replace

import numpy as np
import pytest

from paddymoist.ann import Mlp, MlpTopology, Normalizer
from paddymoist.errors import ArtifactError, ArtifactParseError, ArtifactVersionError
from paddymoist.evapo import Et0Model, predict_et0
from paddymoist.moisture import (ForcingDay, MoistureModel, MoistureNormalizers,
                                 SimMode, simulate_moisture)
from paddymoist.persist import (FORMAT_VERSION, data_digest, et0_artifact, et0_from_artifact,
                                load_model, moisture_artifact,
                                moisture_from_artifact, save_model)


def _random_et0_model(seed=42):
    rng = np.random.default_rng(seed)
    return Et0Model(Mlp.random(MlpTopology(3, 8, 1), rng, 2.0),
                    temp_norm=Normalizer(-5.0, 55.0), et0_norm=Normalizer(0.0, 12.0))


def _random_moisture_model(seed=43, lag=2):
    rng = np.random.default_rng(seed)
    return MoistureModel(Mlp.random(MlpTopology(3 + lag, 8, 1), rng, 2.0), lag=lag)


class TestRoundTrip:

    def test_et0_predictions_bit_identical(self, tmp_path):
        model = _random_et0_model()
        path = tmp_path / "et0.model"
        save_model(et0_artifact(model, {"seed": "42", "epochs": "10"}), path)
        loaded = et0_from_artifact(load_model(path))
        rng = np.random.default_rng(1)
        for _ in range(100):
            tmin = float(rng.uniform(10, 25))
            tmax = tmin + float(rng.uniform(0, 15))
            tavg = (tmin + tmax) / 2
            assert predict_et0(loaded, tmax, tavg, tmin) == predict_et0(model, tmax, tavg, tmin)

    def test_moisture_predictions_bit_identical(self, tmp_path):
        model = _random_moisture_model()
        path = tmp_path / "moisture.model"
        save_model(moisture_artifact(model), path)
        loaded = moisture_from_artifact(load_model(path))
        rng = np.random.default_rng(2)
        forcing = [ForcingDay(float(rng.uniform(1, 8)), float(rng.uniform(0, 40)),
                              float(rng.uniform(0.8, 1.3))) for _ in range(100)]
        a = simulate_moisture(model, forcing, [0.3, 0.4], SimMode.CLOSED_LOOP)
        b = simulate_moisture(loaded, forcing, [0.3, 0.4], SimMode.CLOSED_LOOP)
        assert a == b

    def test_all_fields_survive(self, tmp_path):
        art = moisture_artifact(_random_moisture_model(), {"data_digest": "abc 123"})
        path = tmp_path / "m.model"
        save_model(art, path)
        loaded = load_model(path)
        assert loaded.kind == "moisture"
        assert loaded.topology == art.topology
        assert loaded.lag == art.lag
        assert loaded.gain == art.gain
        assert loaded.norms == art.norms
        assert loaded.provenance == {"data_digest": "abc 123"}
        np.testing.assert_array_equal(loaded.w_hidden, art.w_hidden)
        np.testing.assert_array_equal(loaded.w_output, art.w_output)

    def test_saved_bytes_deterministic(self, tmp_path):
        art = et0_artifact(_random_et0_model())
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_model(art, p1)
        save_model(art, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_scalars_are_written_as_floats(self, tmp_path):
        f = np.float64
        art = replace(et0_artifact(_random_et0_model()), gain=f(0.5),
                      norms={"temp": Normalizer(f(-5.0), f(55.0)), "et0": Normalizer(0, 12)})
        path = tmp_path / "et0.model"
        save_model(art, path)
        assert path.read_text().splitlines()[4:7] == ["gain 0.5", "norm temp -5.0 55.0",
                                                      "norm et0 0.0 12.0"]
        loaded = load_model(path)
        assert (loaded.gain, loaded.norms) == (art.gain, art.norms)


class TestFormatErrors:

    def _saved(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(et0_artifact(_random_et0_model()), path)
        return path

    def test_unsupported_version(self, tmp_path):
        path = self._saved(tmp_path)
        text = path.read_text(encoding="utf-8").replace("paddymoist-model 1",
                                                        "paddymoist-model 99")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ArtifactVersionError,
                           match=f"^{re.escape(str(path))}: unsupported artifact version 99;"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        path = self._saved(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n", encoding="utf-8")
        with pytest.raises(ArtifactParseError):
            load_model(path)

    def test_malformed_line_reports_position(self, tmp_path):
        path = self._saved(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[4] = "gain not-a-number"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ArtifactParseError) as exc:
            load_model(path)
        assert "line 5" in str(exc.value)

    def test_wrong_row_width(self, tmp_path):
        path = self._saved(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("w_hidden 0 "))
        lines[idx] = " ".join(lines[idx].split()[:-1])  # drop one weight
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ArtifactParseError):
            load_model(path)

    def test_unknown_header(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("something-else 1\nend\n", encoding="utf-8")
        with pytest.raises(ArtifactParseError):
            load_model(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ArtifactParseError):
            load_model(path)

    def test_kind_mismatch_on_conversion(self, tmp_path):
        path = self._saved(tmp_path)
        with pytest.raises(ArtifactParseError):
            moisture_from_artifact(load_model(path))

    @pytest.mark.parametrize("artifact, convert, key", [
        (lambda: et0_artifact(_random_et0_model()), et0_from_artifact, "temp"),
        (lambda: et0_artifact(_random_et0_model()), et0_from_artifact, "et0"),
        (lambda: moisture_artifact(_random_moisture_model()), moisture_from_artifact, "precip"),
        (lambda: moisture_artifact(_random_moisture_model()), moisture_from_artifact, "theta"),
    ], ids=["et0-temp", "et0-et0", "moisture-precip", "moisture-theta"])
    def test_missing_norm_line_on_conversion(self, tmp_path, artifact, convert, key):
        art = artifact()
        path = tmp_path / "m.model"
        save_model(art, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"norm {key} "))
        del lines[at]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ArtifactParseError) as exc:
            convert(load_model(path))  # the parser needs each of the kind's norm lines
        assert str(exc.value) == (f"{path}: line {at + 1}: expected 'norm {key}' followed "
                                  f"by 2 value(s), got {lines[at]!r}")

    def test_norm_lines_are_written_in_the_models_order(self, tmp_path):
        for art in (et0_artifact(_random_et0_model()),
                    moisture_artifact(_random_moisture_model())):
            path = tmp_path / f"{art.kind}.model"
            save_model(art, path)
            norms = [line.split()[1] for line in path.read_text(encoding="utf-8").splitlines()
                     if line.startswith("norm ")]
            assert norms == (["temp", "et0"] if art.kind == "et0"
                             else ["et0", "precip", "kc", "theta"])



def _et0_lines(tmp_path):
    path = tmp_path / "m.model"
    save_model(et0_artifact(_random_et0_model(), {"seed": "42"}), path)
    return path, path.read_text(encoding="utf-8").splitlines()


def _rejected_at(path, lines, line_no):
    """Write ``lines`` to ``path`` and check loading fails naming ``line_no``."""
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ArtifactParseError) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: line {line_no}: ")
    return str(exc.value)


class TestLineOrderGrammar:
    """Each line is read once, in the order save_model writes it."""

    @pytest.mark.parametrize("after, extra", [
        ("gain ", "gain 0.25"),
        ("norm et0 ", "norm temp -40.0 90.0"),
        ("norm et0 ", "norm wind 0 1"),
        ("w_hidden 0 ", "w_hidden 0" + " 9.0" * 4),
    ], ids=["repeated-gain", "repeated-norm", "unknown-norm", "repeated-row"])
    def test_extra_line_is_rejected_naming_it(self, tmp_path, after, extra):
        path, lines = _et0_lines(tmp_path)
        at = next(i for i, line in enumerate(lines) if line.startswith(after)) + 1
        lines.insert(at, extra)
        assert _rejected_at(path, lines, at + 1).endswith(f"got {extra!r}")

    def test_unknown_kind(self, tmp_path):
        path, lines = _et0_lines(tmp_path)
        lines[1] = "kind wind"
        assert "unknown kind 'wind'" in _rejected_at(path, lines, 2)

    def test_line_out_of_order(self, tmp_path):
        path, lines = _et0_lines(tmp_path)
        lines[3], lines[4] = lines[4], lines[3]  # gain before lag
        _rejected_at(path, lines, 4)

    def test_provenance_after_the_weights(self, tmp_path):
        path, lines = _et0_lines(tmp_path)
        prov = lines.index("prov seed 42")
        moved = lines.pop(prov)
        lines.insert(len(lines) - 1, moved)  # just before 'end'
        assert _rejected_at(path, lines, len(lines) - 1).endswith(f"got {moved!r}")

    def test_repeated_provenance_key(self, tmp_path):
        path, lines = _et0_lines(tmp_path)
        prov = lines.index("prov seed 42")
        lines.insert(prov + 1, "prov seed 43")
        _rejected_at(path, lines, prov + 2)

    @pytest.mark.parametrize("extra", ["end", "w_output 0 1.0", ""])
    def test_content_after_end(self, tmp_path, extra):
        path, lines = _et0_lines(tmp_path)
        lines.append(extra)
        assert "content after 'end'" in _rejected_at(path, lines, len(lines))

    def test_missing_end(self, tmp_path):
        path, lines = _et0_lines(tmp_path)
        assert "end of the file" in _rejected_at(path, lines[:-1], len(lines))

    def test_bad_normalizer_names_its_line(self, tmp_path):
        path, lines = _et0_lines(tmp_path)
        lines[5] = "norm temp 50.0 0.0"
        assert "hi > lo" in _rejected_at(path, lines, 6)

    @pytest.mark.parametrize("line_no, text, message", [
        (5, "gain inf", "cannot parse 'gain inf': must be finite, got 'inf'"),
        (5, "gain nan", "cannot parse 'gain nan': must be finite, got 'nan'"),
        (5, "gain 2.0", "cannot parse 'gain 2.0': gain must be in (0, 1], got 2.0"),
        (5, "gain 0.0", "cannot parse 'gain 0.0': gain must be in (0, 1], got 0.0"),
        (7, "norm et0 0.0 inf", "cannot parse 'norm et0 0.0 inf': must be finite, got 'inf'"),
        (6, "norm temp -inf 50.0",
         "cannot parse 'norm temp -inf 50.0': must be finite, got '-inf'"),
        # int() and float() read these, which save_model never writes
        (1, "paddymoist-model ١",
         "cannot parse 'paddymoist-model ١': not a plain ASCII number: '١'"),
        (3, "topology 4 8_0 1", "cannot parse 'topology 4 8_0 1': not a plain ASCII number: '8_0'"),
        (5, "gain 0.1_5", "cannot parse 'gain 0.1_5': not a plain ASCII number: '0.1_5'"),
        (6, "norm temp -1_0.0 50.0",
         "cannot parse 'norm temp -1_0.0 50.0': not a plain ASCII number: '-1_0.0'"),
    ])
    def test_non_finite_or_out_of_range_header_value(self, tmp_path, line_no, text, message):
        path, lines = _et0_lines(tmp_path)
        lines[line_no - 1] = text
        assert _rejected_at(path, lines, line_no) == f"{path}: line {line_no}: {message}"

    @pytest.mark.parametrize("tag", ["w_hidden 3", "w_output 0"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_weight_names_its_line(self, tmp_path, tag, bad):
        path, lines = _et0_lines(tmp_path)
        at = next(i for i, line in enumerate(lines) if line.startswith(tag + " "))
        words = lines[at].split()
        words[4] = bad
        lines[at] = " ".join(words)
        assert _rejected_at(path, lines, at + 1) == (
            f"{path}: line {at + 1}: cannot parse {lines[at]!r}: must be finite, got {bad!r}")

    def test_non_finite_weight_or_bad_gain_is_not_saved(self, tmp_path):
        art = et0_artifact(_random_et0_model())
        path = tmp_path / "m.model"
        w_hidden = art.w_hidden.copy()
        w_hidden[2, 1] = np.nan
        w_output = art.w_output.copy()
        w_output[0, 0] = np.inf
        for bad in (replace(art, w_hidden=w_hidden), replace(art, w_output=w_output),
                    replace(art, gain=1.5), replace(art, gain=0.0)):
            with pytest.raises(ArtifactError):
                save_model(bad, path)
        assert not path.exists()

    @pytest.mark.parametrize("field, shape", [
        ("w_hidden", (8, 5)), ("w_hidden", (7, 4)), ("w_hidden", (32,)),
        ("w_output", (1, 8)), ("w_output", (2, 9)), ("w_output", (9,)),
    ])
    def test_weights_that_misfit_the_topology_are_not_saved(self, tmp_path, field, shape):
        """What the loader would refuse as a line of the wrong length or count."""
        art = et0_artifact(_random_et0_model())
        need = {"w_hidden": (8, 4), "w_output": (1, 9)}[field]
        path = tmp_path / "m.model"
        with pytest.raises(ArtifactError, match=re.escape(
                f"{field} has shape {shape}, but topology 3 8 1 needs {need}")):
            save_model(replace(art, **{field: np.zeros(shape)}), path)
        assert not path.exists()

    @pytest.mark.parametrize("kind, n_inputs, n_outputs, lag, message", [
        ("et0", 3, 1, 1, "an ET0 surrogate takes lag 0, got 1"),
        ("et0", 3, 1, -1, "an ET0 surrogate takes lag 0, got -1"),
        ("et0", 4, 1, 0, "ET0 surrogate must be 3-n-1, got MlpTopology(n_inputs=4, "
         "n_hidden=8, n_outputs=1)"),
        ("et0", 3, 2, 0, "ET0 surrogate must be 3-n-1, got MlpTopology(n_inputs=3, "
         "n_hidden=8, n_outputs=2)"),
        ("moisture", 4, 1, 2, "moisture net must be (5)-n-1 for lag 2, got "
         "MlpTopology(n_inputs=4, n_hidden=8, n_outputs=1)"),
        ("moisture", 4, 1, 0, "lag must be >= 1, got 0"),
        ("moisture", 5, 1, 1, "moisture net must be (4)-n-1 for lag 1, got "
         "MlpTopology(n_inputs=5, n_hidden=8, n_outputs=1)"),
        ("moisture", 3, 1, 0, "lag must be >= 1, got 0"),
        ("moisture", 4, 2, 1, "moisture net must be (4)-n-1 for lag 1, got "
         "MlpTopology(n_inputs=4, n_hidden=8, n_outputs=2)"),
    ])
    def test_a_net_its_model_would_refuse_is_not_saved(self, tmp_path, kind, n_inputs,
                                                       n_outputs, lag, message):
        """What ``et0_from_artifact`` or ``moisture_from_artifact`` would refuse
        with a plain ValueError."""
        art = (et0_artifact(_random_et0_model()) if kind == "et0"
               else moisture_artifact(_random_moisture_model(lag=1)))
        art = replace(art, topology=MlpTopology(n_inputs, 8, n_outputs), lag=lag,
                      w_hidden=np.zeros((8, n_inputs + 1)), w_output=np.zeros((n_outputs, 9)))
        path = tmp_path / "m.model"
        with pytest.raises(ArtifactError, match=f"^{re.escape(message)}$"):
            save_model(art, path)
        assert not path.exists()

    @pytest.mark.parametrize("kind, line, text, message", [
        ("et0", 3, "lag 1", "an ET0 surrogate takes lag 0, got 1"),
        ("et0", 2, "topology 3 8 2", "ET0 surrogate must be 3-n-1, got "
         "MlpTopology(n_inputs=3, n_hidden=8, n_outputs=2)"),
        ("moisture", 3, "lag 1", "moisture net must be (4)-n-1 for lag 1, got "
         "MlpTopology(n_inputs=5, n_hidden=8, n_outputs=1)"),
        ("moisture", 3, "lag 3", "moisture net must be (6)-n-1 for lag 3, got "
         "MlpTopology(n_inputs=5, n_hidden=8, n_outputs=1)"),
        ("moisture", 3, "lag 0", "lag must be >= 1, got 0"),
        ("moisture", 2, "topology 5 8 2", "moisture net must be (5)-n-1 for lag 2, got "
         "MlpTopology(n_inputs=5, n_hidden=8, n_outputs=2)"),
    ])
    def test_a_net_its_model_would_refuse_is_refused_at_load(self, tmp_path, kind, line,
                                                              text, message):
        art = (et0_artifact(_random_et0_model()) if kind == "et0"
               else moisture_artifact(_random_moisture_model(lag=2)))
        path = tmp_path / "m.model"
        save_model(art, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[line].split()[0] == text.split()[0]
        lines[line] = text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ArtifactParseError, match=f"^{re.escape(f'{path}: line 4: {message}')}$"):
            load_model(path)

    def test_the_version_line_is_the_formats(self, tmp_path):
        art = et0_artifact(_random_et0_model())
        with pytest.raises(TypeError):
            replace(art, version=2)  # not a field: the format has one version
        path = tmp_path / "m.model"
        save_model(art, path)
        assert path.read_text().splitlines()[0] == f"paddymoist-model {FORMAT_VERSION}"
        assert load_model(path).kind == "et0"

    def test_norms_not_of_the_kind_are_not_saved(self, tmp_path):
        art = et0_artifact(_random_et0_model())
        path = tmp_path / "m.model"
        for norms in ({"et0": art.norms["et0"], "temp": art.norms["temp"]},
                      {**art.norms, "wind": Normalizer(0.0, 1.0)},
                      {"temp": art.norms["temp"]}):
            with pytest.raises(ArtifactError):
                save_model(replace(art, norms=norms), path)
        with pytest.raises(ArtifactError):
            save_model(replace(art, kind="wind"), path)
        assert not path.exists()

    @pytest.mark.parametrize("key, value", [
        ("seed", ""), ("seed", "a  b"), ("seed", " a"), ("seed", "a\nb"), ("two words", "a"),
    ])
    def test_provenance_one_line_cannot_carry_is_not_saved(self, tmp_path, key, value):
        path = tmp_path / "m.model"
        with pytest.raises(ArtifactError):
            save_model(et0_artifact(_random_et0_model(), {key: value}), path)
        assert not path.exists()

class TestPhysicalLines:
    """An error names the file's own line: one ends at LF, CRLF or CR only."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("line_no", [1, 9])
    def test_byte_not_utf8_names_its_line(self, tmp_path, line_no, newline):
        path, lines = _et0_lines(tmp_path)
        data = [line.encode() for line in lines]
        data[line_no - 1] = b"\xff" + data[line_no - 1]
        path.write_bytes(newline.encode().join(data) + newline.encode())
        with pytest.raises(ArtifactParseError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}: line {line_no}: byte 0xff is not UTF-8"

    @pytest.mark.parametrize("char", ["\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_other_line_break_inside_a_line_is_no_line_end(self, tmp_path, char):
        path, lines = _et0_lines(tmp_path)
        at = next(i for i, line in enumerate(lines) if line.startswith("w_hidden 0 "))
        lines[at] += f"{char}junk"
        assert _rejected_at(path, lines, at + 1).endswith(f"got {lines[at]!r}")

    @pytest.mark.parametrize("line, text", [
        ("prov seed 42", "prov seed 42\x0cjunk\tmore"),
        ("prov seed 42", "prov seed  42"),
        ("prov seed 42", "prov\tseed 42"),
        ("prov seed 42", "prov seed 42\u2028"),
        ("gain ", "gain  1.0"),
        ("gain ", "gain 1.0 "),
        ("kind ", " kind et0"),
        ("w_hidden 0 ", None),
    ], ids=["ff-and-tab-in-prov", "two-spaces", "tab-after-prov", "u2028", "gain-two-spaces",
            "trailing-space", "leading-space", "tab-in-weights"])
    def test_words_not_single_spaced_are_rejected(self, tmp_path, line, text):
        path, lines = _et0_lines(tmp_path)
        at = next(i for i, old in enumerate(lines) if old.startswith(line))
        lines[at] = lines[at].replace(" ", "\t", 3) if text is None else text
        assert _rejected_at(path, lines, at + 1) == (
            f"{path}: line {at + 1}: words must be separated by single spaces, "
            f"got {lines[at]!r}")

    def test_last_line_needs_no_newline(self, tmp_path):
        path, lines = _et0_lines(tmp_path)
        expected = load_model(path)
        path.write_text("\n".join(lines), encoding="utf-8")
        loaded = load_model(path)
        assert loaded.provenance == expected.provenance
        assert np.array_equal(loaded.w_output, expected.w_output)


class TestDataDigest:

    def test_deterministic_and_sensitive(self):
        a = data_digest([1.0, 2.0], [3.0])
        assert a == data_digest([1.0, 2.0], [3.0])
        assert a != data_digest([1.0, 2.0], [3.0000001])
        assert len(a) == 16
