"""Tests for activity-count accumulation and energy conversion."""

from dataclasses import replace

import pytest

from repro.arch.designs import highlight_resources, tc_resources
from repro.energy import Estimator, default_table
from repro.errors import ArchitectureError, ModelError
from repro.model.activity import ActivityCounts


class TestAccumulation:
    def test_add_accumulates(self):
        counts = ActivityCounts()
        counts.add("macs", "mac", 10)
        counts.add("macs", "mac", 5)
        assert counts.counts[("macs", "mac")] == 15

    def test_zero_count_ignored(self):
        counts = ActivityCounts()
        counts.add("macs", "mac", 0)
        assert not counts.counts

    def test_negative_rejected(self):
        with pytest.raises(ModelError):
            ActivityCounts().add("macs", "mac", -1)

    @pytest.mark.parametrize(
        "count",
        (float("nan"), float("inf"), float("-inf")),
        ids=("nan", "inf", "-inf"),
    )
    def test_non_finite_rejected(self, count):
        """NaN passes every ordering comparison, so without an explicit
        guard it would flow into cached Metrics undetected."""
        with pytest.raises(ModelError, match="non-finite count"):
            ActivityCounts().add("macs", "mac", count)

    @pytest.mark.parametrize("count", (0, 0.0, -0.0), ids=("0", "0.0", "-0.0"))
    def test_zero_of_either_sign_is_a_no_op(self, count):
        counts = ActivityCounts()
        counts.add("macs", "mac", 3)
        counts.add("macs", "mac", count)
        counts.add("rf", "read", count)
        assert counts.counts == {("macs", "mac"): 3}

    @pytest.mark.parametrize(
        "count", (-1, -1e-300, -5e-324, -1e308), ids=str
    )
    def test_every_negative_is_rejected_as_negative(self, count):
        counts = ActivityCounts()
        with pytest.raises(ModelError, match="negative count"):
            counts.add("macs", "mac", count)
        assert not counts.counts

    @pytest.mark.parametrize(
        "count",
        (float("nan"), float("inf"), float("-inf"), -float("nan")),
        ids=("nan", "inf", "-inf", "-nan"),
    )
    def test_non_finite_leaves_the_counts_untouched(self, count):
        counts = ActivityCounts()
        counts.add("macs", "mac", 2)
        with pytest.raises(ModelError, match="non-finite count"):
            counts.add("macs", "mac", count)
        assert counts.counts == {("macs", "mac"): 2}

    @pytest.mark.parametrize("count", (5e-324, 1, 1e308), ids=str)
    def test_extreme_finite_positives_accumulate(self, count):
        counts = ActivityCounts()
        counts.add("macs", "mac", count)
        assert counts.counts == {("macs", "mac"): count}

    def test_total_across_actions(self):
        counts = ActivityCounts()
        counts.add("glb_data", "read", 3)
        counts.add("glb_data", "write", 4)
        counts.add("macs", "mac", 9)
        assert counts.total("glb_data") == 7


class TestEnergyConversion:
    def test_energy_matches_per_action(self):
        estimator = Estimator()
        resources = tc_resources()
        counts = ActivityCounts()
        counts.add("macs", "mac", 1000)
        energy = counts.energy_pj(resources.arch, estimator)
        expected = 1000 * estimator.energy_pj(
            resources.arch.component("macs"), "mac"
        )
        assert energy["macs"] == pytest.approx(expected)

    def test_unknown_component_raises(self):
        counts = ActivityCounts()
        counts.add("nonexistent", "read", 1)
        with pytest.raises(Exception):
            counts.energy_pj(tc_resources().arch, Estimator())

    def test_unknown_component_raises_after_the_table_is_warm(self):
        """Only resolved events enter an event table, so an event on a
        component the architecture lacks raises on every fold."""
        estimator = Estimator()
        arch = tc_resources().arch
        known = ActivityCounts()
        known.add("macs", "mac", 10)
        known.add("glb_data", "read", 4)
        known.energy_pj(arch, estimator)
        stray = ActivityCounts()
        stray.add("macs", "mac", 10)
        stray.add("vfmu", "shift", 1)  # a HighLight-only component
        for _ in range(2):
            with pytest.raises(ArchitectureError, match="no component 'vfmu'"):
                stray.energy_pj(arch, estimator)
        assert ("vfmu", "shift") not in estimator.event_energies(arch)
        # The same event is fine on an architecture that has the unit.
        assert stray.energy_pj(highlight_resources().arch, estimator)

    def test_estimators_never_share_an_event_table(self):
        arch = tc_resources().arch
        counts = ActivityCounts()
        counts.add("macs", "mac", 1000)
        default = Estimator()
        doubled = Estimator(
            replace(default_table(), mac_pj=default_table().mac_pj * 2)
        )
        assert default.event_energies(arch) is not doubled.event_energies(
            arch
        )
        base = counts.energy_pj(arch, default)["macs"]
        assert counts.energy_pj(arch, doubled)["macs"] == 2 * base
        # Warming one table leaves the other's prices alone.
        assert counts.energy_pj(arch, default)["macs"] == base
        # Even two estimators on the one shared default setup keep
        # separate tables.
        assert Estimator().event_energies(arch) is not (
            default.event_energies(arch)
        )

    def test_one_table_per_architecture_instance(self):
        estimator = Estimator()
        first, second = tc_resources().arch, tc_resources().arch
        table = estimator.event_energies(first)
        assert estimator.event_energies(first) is table
        assert estimator.event_energies(second) is not table
