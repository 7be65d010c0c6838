"""Tests for grouped convolutions and the EfficientNet-B0 table."""

import pytest

from repro.dnn.layers import ConvLayer
from repro.dnn.models import efficientnet_b0
from repro.errors import WorkloadError
from repro.eval import experiments as E


class TestGroupedConv:
    def test_depthwise_gemm_shape(self):
        layer = ConvLayer("dw", 32, 32, 3, 14, padding=1, groups=32)
        assert layer.gemm_shape() == (1, 9, 14 * 14)

    def test_gemm_instances(self):
        layer = ConvLayer("dw", 32, 32, 3, 14, padding=1, groups=32,
                          repeats=2)
        assert layer.gemm_instances == 64

    def test_grouped_weight_count(self):
        layer = ConvLayer("g", 32, 64, 3, 14, padding=1, groups=4)
        # Per group: (64/4) x (32/4)*9 weights, times 4 groups.
        assert layer.weight_count == 16 * 72 * 4

    def test_macs_scale_with_groups(self):
        dense = ConvLayer("c", 32, 32, 3, 14, padding=1)
        depthwise = ConvLayer("dw", 32, 32, 3, 14, padding=1, groups=32)
        assert depthwise.macs == dense.macs // 32

    def test_ungrouped_unchanged(self):
        layer = ConvLayer("c", 64, 128, 3, 56, padding=1)
        assert layer.gemm_shape() == (128, 64 * 9, 56 * 56)
        assert layer.gemm_instances == 1

    def test_rejects_indivisible_groups(self):
        with pytest.raises(WorkloadError):
            ConvLayer("bad", 30, 64, 3, 14, groups=4)


class TestEfficientNetModel:
    @pytest.fixture(scope="class")
    def model(self):
        return efficientnet_b0()

    def test_parameter_count(self, model):
        """~5M parameters (we omit squeeze-excite)."""
        assert 4e6 < model.total_weights < 6e6

    def test_mac_count(self, model):
        """~0.39 GMACs at 224x224."""
        assert 0.3e9 < model.total_macs < 0.5e9

    def test_depthwise_not_prunable(self, model):
        for layer in model.layers:
            if "_dw" in layer.name:
                assert layer.name not in model.prunable

    def test_pointwise_prunable(self, model):
        assert "mb4b_project" in model.prunable
        assert "head_conv" in model.prunable

    def test_least_prunable_model(self, model):
        from repro.dnn.models import all_models

        for other in all_models():
            assert model.prunability < other.prunability

    def test_dense_activations(self, model):
        assert model.activation_sparsity <= 0.10


class TestExtensionExperiment:
    @pytest.fixture(scope="class")
    def result(self, estimator):
        return E.ext_efficientnet(estimator)

    def test_s2ta_unsupported(self, result):
        designs = {p.design for p in result.points["EfficientNet-B0"]}
        assert "S2TA" not in designs

    def test_compact_model_loses_accuracy_fast(self, result):
        points = result.points["EfficientNet-B0"]
        at_50 = [p for p in points if p.weight_sparsity == 0.5]
        assert all(p.accuracy_loss_pct > 0.5 for p in at_50)

    def test_gains_smaller_than_resnet(self, result, estimator):
        """Pruning buys less on the compact model than on ResNet50 at
        the same degree (dense depthwise layers dilute the wins)."""
        fig15 = E.fig15(estimator)
        resnet_hl = {
            p.weight_sparsity: p.normalized_edp
            for p in fig15.points["ResNet50"]
            if p.design == "HighLight"
        }
        efficient_hl = {
            p.weight_sparsity: p.normalized_edp
            for p in result.points["EfficientNet-B0"]
            if p.design == "HighLight"
        }
        for degree in (0.5, 0.75):
            assert efficient_hl[degree] > resnet_hl[degree]
