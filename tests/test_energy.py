"""Tests for the Accelergy-style energy/area estimator."""

import pytest

from repro.arch import table4, area_breakdown
from repro.arch.components import Component, ComponentClass, mac, mux, sram, regfile
from repro.arch.spec import ArchitectureSpec
from repro.energy import Estimator, default_table
from repro.errors import ArchitectureError


@pytest.fixture(scope="module")
def est():
    return Estimator()


class TestMemoryPlugin:
    def test_sram_reference_energy(self, est):
        glb = sram("glb", default_table().sram_ref_bytes)
        assert est.energy_pj(glb, "read") == pytest.approx(
            default_table().sram_read_pj
        )

    def test_sram_sqrt_scaling(self, est):
        small = sram("s", default_table().sram_ref_bytes // 4)
        big = sram("b", default_table().sram_ref_bytes)
        assert est.energy_pj(small, "read") == pytest.approx(
            est.energy_pj(big, "read") / 2
        )

    def test_write_above_read(self, est):
        glb = sram("glb", 256 * 1024)
        assert est.energy_pj(glb, "write") > est.energy_pj(glb, "read")

    def test_regfile_cheaper_than_glb(self, est):
        rf = regfile("rf", 2048)
        glb = sram("glb", 256 * 1024)
        assert est.energy_pj(rf, "read") < est.energy_pj(glb, "read")

    def test_unknown_action_raises(self, est):
        with pytest.raises(ArchitectureError):
            est.energy_pj(sram("glb", 1024), "flush")


class TestLogicPlugin:
    def test_mac_actions(self, est):
        macs = mac("macs", 1)
        assert est.energy_pj(macs, "mac") > est.energy_pj(
            macs, "gated_mac"
        )

    def test_gating_cheap(self, est):
        """Gating is a trivial tax (an AND gate, Sec. 5.1)."""
        macs = mac("macs", 1)
        ratio = est.energy_pj(macs, "gated_mac") / est.energy_pj(
            macs, "mac"
        )
        assert ratio < 0.1

    def test_mux_energy_scales_with_inputs(self, est):
        narrow = mux("n", 4, 16)
        wide = mux("w", 16, 16)
        assert est.energy_pj(wide, "select") == pytest.approx(
            4 * est.energy_pj(narrow, "select")
        )

    def test_mux_energy_scales_with_width(self, est):
        data = mux("d", 4, 16)
        addr = mux("a", 4, 4)
        assert est.energy_pj(addr, "select") == pytest.approx(
            est.energy_pj(data, "select") / 4
        )

    def test_intersection_expensive(self, est):
        unit = Component("ix", ComponentClass.INTERSECTION, 1)
        assert est.energy_pj(unit, "intersect") > est.energy_pj(
            mux("m", 4, 16), "select"
        )


class TestDram:
    def test_dram_dominates_sram(self, est):
        dram = Component("dram", ComponentClass.DRAM, 1)
        glb = sram("glb", 256 * 1024)
        assert est.energy_pj(dram, "read") > 5 * est.energy_pj(glb, "read")

    def test_dram_has_no_area(self, est):
        dram = Component("dram", ComponentClass.DRAM, 1)
        assert est.area_um2(dram) == 0.0


class TestArea:
    def test_area_scales_with_count(self, est):
        one = mac("one", 1)
        many = mac("many", 100)
        assert est.area_um2(many) == pytest.approx(100 * est.area_um2(one))

    def test_architecture_area_positive(self, est):
        for resources in table4():
            assert est.architecture_area_um2(resources.arch) > 0

    def test_highlight_saf_share_near_paper(self, est):
        """Fig. 16(b): SAFs are ~5.7% of HighLight's area."""
        areas = {
            res.arch.name: area_breakdown(res, est) for res in table4()
        }
        assert 0.04 <= areas["HighLight"].saf_fraction <= 0.07

    def test_dense_design_has_no_saf_area(self, est):
        areas = {
            res.arch.name: area_breakdown(res, est) for res in table4()
        }
        assert areas["TC"].fraction("saf") == 0.0

    def test_unstructured_design_pays_most_saf_area(self, est):
        areas = {
            res.arch.name: area_breakdown(res, est) for res in table4()
        }
        assert areas["DSTC"].saf_fraction > areas["HighLight"].saf_fraction
        assert areas["S2TA"].saf_fraction > areas["HighLight"].saf_fraction

    def test_total_mm2_reasonable(self, est):
        for resources in table4():
            area = area_breakdown(resources, est)
            assert 1.0 < area.total_mm2 < 10.0


class TestEstimatorPlumbing:
    def test_caching_stable(self, est):
        glb = sram("glb", 256 * 1024)
        assert est.energy_pj(glb, "read") == est.energy_pj(glb, "read")

    def test_unknown_class_raises(self):
        estimator = Estimator(plugins=[])
        with pytest.raises(ArchitectureError):
            estimator.energy_pj(mac("m", 1), "mac")

    def test_default_estimators_share_setup(self):
        """Default-constructed estimators share one table and plugin
        set, so identity-keyed caches hit across instances."""
        first, second = Estimator(), Estimator()
        assert first.table is second.table
