"""Model artifact save/load: bit-exact round trips and format errors."""

import numpy as np
import pytest

from paddymoist.ann import Mlp, MlpTopology, Normalizer
from paddymoist.errors import ArtifactParseError, ArtifactVersionError
from paddymoist.evapo import Et0Model, predict_et0
from paddymoist.moisture import (ForcingDay, MoistureModel, MoistureNormalizers,
                                 SimMode, simulate_moisture)
from paddymoist.persist import (data_digest, et0_artifact, et0_from_artifact,
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
        with pytest.raises(ArtifactVersionError):
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
        lines.remove(next(line for line in lines if line.startswith(f"norm {key} ")))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_model(path)  # a norm line is optional to the parser
        with pytest.raises(ArtifactParseError) as exc:
            convert(loaded)
        assert str(exc.value) == f"{art.kind} artifact has no 'norm {key}' line"

    def test_norm_lines_are_written_in_the_models_order(self, tmp_path):
        for art in (et0_artifact(_random_et0_model()),
                    moisture_artifact(_random_moisture_model())):
            path = tmp_path / f"{art.kind}.model"
            save_model(art, path)
            norms = [line.split()[1] for line in path.read_text(encoding="utf-8").splitlines()
                     if line.startswith("norm ")]
            assert norms == (["temp", "et0"] if art.kind == "et0"
                             else ["et0", "precip", "kc", "theta"])


class TestDataDigest:

    def test_deterministic_and_sensitive(self):
        a = data_digest([1.0, 2.0], [3.0])
        assert a == data_digest([1.0, 2.0], [3.0])
        assert a != data_digest([1.0, 2.0], [3.0000001])
        assert len(a) == 16
