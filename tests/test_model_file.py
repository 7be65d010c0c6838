"""Tests for user-defined layer tables (``sweep --model-file``)."""

import json

import pytest

from repro.dnn.layers import ConvLayer, LinearLayer
from repro.cli import main
from repro.dnn.models import (
    MODEL_BUILDERS,
    get_model,
    is_builtin_model,
    model_from_dict,
    model_names,
)
from repro.errors import SweepSpecError, WorkloadError
from repro.eval.sweeps import sweep_spec

VALID = {
    "name": "TableNet",
    "activation_sparsity": 0.2,
    "prunability": 0.6,
    "layers": [
        {"type": "linear", "name": "fc1", "in_features": 64,
         "out_features": 128, "tokens": 32, "repeats": 2},
        {"type": "conv", "name": "c1", "in_channels": 8,
         "out_channels": 16, "kernel": 3, "input_size": 16,
         "stride": 1, "padding": 1},
    ],
    "prunable": ["fc1"],
}


def _copy():
    return json.loads(json.dumps(VALID))


class TestModelFromDict:
    def test_valid_table(self):
        model = model_from_dict(VALID)
        assert model.name == "TableNet"
        assert isinstance(model.layers[0], LinearLayer)
        assert isinstance(model.layers[1], ConvLayer)
        assert model.prunable == ("fc1",)
        assert model.activation_sparsity == pytest.approx(0.2)
        assert model.layers[0].repeats == 2

    def test_defaults_applied(self):
        data = _copy()
        del data["activation_sparsity"]
        del data["prunability"]
        del data["prunable"]
        model = model_from_dict(data)
        assert model.activation_sparsity == 0.0
        assert model.prunable == ("fc1", "c1")

    def test_missing_toplevel_field(self):
        data = _copy()
        del data["layers"]
        with pytest.raises(WorkloadError, match="missing field"):
            model_from_dict(data)

    def test_unknown_toplevel_field(self):
        data = _copy()
        data["optimizer"] = "sgd"
        with pytest.raises(WorkloadError, match="unknown field"):
            model_from_dict(data)

    def test_missing_layer_field_names_required_set(self):
        data = _copy()
        del data["layers"][0]["in_features"]
        with pytest.raises(WorkloadError) as info:
            model_from_dict(data)
        assert "in_features" in str(info.value)
        assert "required" in str(info.value)

    def test_unknown_layer_type(self):
        data = _copy()
        data["layers"][0]["type"] = "attention"
        with pytest.raises(WorkloadError, match="conv"):
            model_from_dict(data)

    def test_non_integer_shape_rejected(self):
        data = _copy()
        data["layers"][0]["in_features"] = "sixty-four"
        with pytest.raises(WorkloadError, match="integer"):
            model_from_dict(data)

    def test_duplicate_layer_names_rejected(self):
        data = _copy()
        data["layers"][1]["name"] = "fc1"
        with pytest.raises(WorkloadError, match="duplicate"):
            model_from_dict(data)

    def test_prunable_must_name_real_layers(self):
        data = _copy()
        data["prunable"] = ["fc1", "ghost"]
        with pytest.raises(WorkloadError, match="ghost"):
            model_from_dict(data)

    def test_layer_constraints_still_apply(self):
        data = _copy()
        data["layers"][1]["groups"] = 3  # 8 % 3 != 0
        with pytest.raises(WorkloadError, match="groups"):
            model_from_dict(data)


class TestPaddingValidation:
    def test_negative_padding_rejected(self):
        data = _copy()
        data["layers"][1]["padding"] = -1
        with pytest.raises(WorkloadError, match="padding"):
            model_from_dict(data)

    def test_fractional_padding_rejected(self):
        data = _copy()
        data["layers"][1]["padding"] = 1.5
        with pytest.raises(WorkloadError, match="must be an integer"):
            model_from_dict(data)


class TestLoadModelFile:
    """``repro sweep --model-file`` reads the file and sweeps its table
    inline; read, JSON and schema errors name the file and exit 2."""

    @staticmethod
    def _sweep(tmp_path, text):
        path = tmp_path / "net.json"
        path.write_text(text)
        return main([
            "sweep", "--model-file", str(path),
            "--designs", "TC", "--degrees", "0.5",
        ])

    def _refused(self, tmp_path, text, capsys):
        with pytest.raises(SystemExit) as exit_info:
            self._sweep(tmp_path, text)
        assert exit_info.value.code == 2
        return capsys.readouterr().err

    def test_round_trip(self, tmp_path, capsys):
        assert self._sweep(tmp_path, json.dumps(VALID)) == 0
        assert "Network sweep — TableNet" in capsys.readouterr().out

    def test_error_names_the_file(self, tmp_path, capsys):
        data = _copy()
        del data["name"]
        err = self._refused(tmp_path, json.dumps(data), capsys)
        assert "net.json" in err
        assert "missing field(s): name" in err

    def test_invalid_json_is_loud(self, tmp_path, capsys):
        err = self._refused(tmp_path, "{oops", capsys)
        assert "net.json is not valid JSON" in err

    def test_missing_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--model-file", str(tmp_path / "nope.json")])
        assert exit_info.value.code == 2
        assert "cannot read model file" in capsys.readouterr().err


class TestRegisterModel:
    """The model registry is fixed at import: a user-defined table is
    swept inline and can neither join nor shadow it."""

    @pytest.mark.parametrize(
        "name", ["ResNet50", "resnet50", "DEIT-SMALL"]
    )
    def test_builtins_cannot_be_shadowed(self, name):
        """A sweep spec refuses an inline table named after a built-in,
        in any case variant (names resolve case-insensitively)."""
        data = _copy()
        data["name"] = name
        with pytest.raises(SweepSpecError, match="built-in") as info:
            sweep_spec({"model": data, "designs": ["TC"]})
        assert info.value.key == "model"
        assert name not in MODEL_BUILDERS or name == "ResNet50"
        assert get_model(name).name in model_names()

    def test_builtin_inventory(self):
        assert model_names() == (
            "ResNet50", "DeiT-small", "Transformer-Big",
            "EfficientNet-B0",
        )
        assert tuple(MODEL_BUILDERS) == model_names()
        assert is_builtin_model("efficientnet-b0")
        assert not is_builtin_model("TableNet")
