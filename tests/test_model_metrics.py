"""Tests for metrics, normalization and geomean gains."""

import pytest

from repro.errors import ModelError
from repro.model.metrics import Metrics, geomean_ratio, normalize


def make_metrics(energy=100.0, cycles=10.0, **kwargs):
    return Metrics(
        design="X",
        workload="w",
        cycles=cycles,
        energy_breakdown_pj={"macs": energy},
        **kwargs,
    )


class TestMetrics:
    def test_energy_sums_breakdown(self):
        metrics = Metrics(
            "X", "w", cycles=2.0,
            energy_breakdown_pj={"macs": 10.0, "glb": 5.0},
        )
        assert metrics.energy_pj == 15.0

    def test_edp(self):
        assert make_metrics(100.0, 10.0).edp == 1000.0

    def test_ed2(self):
        assert make_metrics(100.0, 10.0).ed2 == 10000.0

    def test_derived_values_are_stored_on_first_read(self):
        """Totals are computed once per (frozen) instance, including one
        built without ``__init__`` the way the codec decodes blobs."""
        from repro.eval.codec import decode_blob, encode_metrics

        built = Metrics(
            "X", "w", cycles=3.0,
            energy_breakdown_pj={"macs": 0.1, "glb": 0.2, "dram": 0.3},
        )
        for metrics in (built, decode_blob(encode_metrics(built))):
            assert "edp" not in vars(metrics)
            energy = sum((0.1, 0.2, 0.3))
            assert (metrics.energy_pj, metrics.edp, metrics.ed2) == (
                energy, energy * 3.0, energy * 3.0 * 3.0
            )
            assert vars(metrics)["ed2"] == metrics.ed2

    def test_rejects_nonpositive_cycles(self):
        with pytest.raises(ModelError):
            make_metrics(cycles=0.0)

    def test_rejects_bad_utilization(self):
        with pytest.raises(ModelError):
            make_metrics(utilization=1.5)

    def test_breakdown_by_category(self):
        metrics = Metrics(
            "X", "w", cycles=1.0,
            energy_breakdown_pj={"macs": 1.0, "glb_data": 2.0, "vfmu": 3.0},
        )
        buckets = metrics.breakdown_by_category(
            {"macs": "mac", "glb_data": "glb"}
        )
        assert buckets == {"mac": 1.0, "glb": 2.0, "other": 3.0}

    def test_default_flags(self):
        metrics = make_metrics()
        assert metrics.supported and not metrics.swapped


class TestNormalize:
    def test_ratio(self):
        assert normalize(2.0, 4.0) == 0.5

    def test_rejects_zero_baseline(self):
        with pytest.raises(ModelError):
            normalize(1.0, 0.0)


class TestGeomeanRatio:
    def test_gain_factor(self):
        ours = [make_metrics(50.0, 5.0), make_metrics(25.0, 5.0)]
        base = [make_metrics(100.0, 10.0), make_metrics(100.0, 10.0)]
        # EDP ratios: 1000/250 = 4 and 1000/125 = 8 -> geomean ~5.66
        assert geomean_ratio(ours, base) == pytest.approx(
            (4 * 8) ** 0.5
        )

    def test_other_metric(self):
        ours = [make_metrics(cycles=5.0)]
        base = [make_metrics(cycles=10.0)]
        assert geomean_ratio(ours, base, "cycles") == pytest.approx(2.0)

    def test_rejects_misaligned(self):
        with pytest.raises(ModelError):
            geomean_ratio([make_metrics()], [])
