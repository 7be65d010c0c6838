"""Tests for the design registry layer."""

import pytest

from repro.accelerators import (
    REGISTRY,
    all_designs,
    main_design_names,
)
from repro.accelerators.base import AcceleratorDesign
from repro.accelerators.registry import (
    DesignRegistry,
    RegistryError,
    register_design,
)


class TestDefaultRegistry:
    def test_all_six_designs_registered(self):
        assert set(REGISTRY.names()) == {
            "TC", "STC", "S2TA", "DSTC", "HighLight", "DSSO",
        }

    def test_main_design_names_in_table4_order(self):
        assert main_design_names() == (
            "TC", "STC", "DSTC", "S2TA", "HighLight",
        )

    def test_all_designs_matches_registry(self):
        designs = all_designs()
        assert tuple(d.name for d in designs) == main_design_names()
        assert all(isinstance(d, AcceleratorDesign) for d in designs)

    def test_create_returns_fresh_instances(self):
        assert REGISTRY.create("TC") is not REGISTRY.create("TC")

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="NoSuchDesign"):
            REGISTRY["NoSuchDesign"]
        with pytest.raises(KeyError):
            REGISTRY.create("NoSuchDesign")

    def test_get_returns_none_for_unknown(self):
        assert REGISTRY.get("NoSuchDesign") is None

    def test_metadata_filtering_dual_side(self):
        dual = {i.name for i in REGISTRY.filter(sparsity_side="dual")}
        assert dual == {"S2TA", "DSTC", "DSSO"}

    def test_metadata_filtering_conjunction(self):
        infos = REGISTRY.filter(sparsity_side="dual", category="hss")
        assert [i.name for i in infos] == ["DSSO"]

    def test_filter_on_missing_key_matches_nothing(self):
        assert REGISTRY.filter(nonexistent_key="x") == []

    def test_dsso_marked_as_study_design(self):
        info = REGISTRY["DSSO"]
        assert info.metadata["study"] == "sec7.5"
        assert info.metadata["main_evaluation"] is False
        assert "DSSO" not in main_design_names()

    def test_contains_and_len(self):
        assert "HighLight" in REGISTRY
        assert "NoSuchDesign" not in REGISTRY
        assert len(REGISTRY) == 6


class TestRegistryMechanics:
    def test_duplicate_registration_raises(self):
        registry = DesignRegistry()
        registry.register("X", object)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("X", object)

    def test_decorator_registration(self):
        registry = DesignRegistry()

        @register_design(registry, category="test", flag=1)
        class Dummy:
            name = "Dummy"

        assert "Dummy" in registry
        assert registry["Dummy"].metadata == {
            "category": "test", "flag": 1,
        }
        assert isinstance(registry.create("Dummy"), Dummy)

    def test_iteration_preserves_registration_order(self):
        registry = DesignRegistry()
        registry.register("B", object)
        registry.register("A", object)
        assert [info.name for info in registry] == ["B", "A"]
        assert registry.names() == ("B", "A")


class TestSharedRegistryInstances:
    def test_shared_is_memoized_create_is_not(self):
        assert REGISTRY.shared("TC") is REGISTRY.shared("TC")
        assert REGISTRY.create("TC") is not REGISTRY.create("TC")
        assert type(REGISTRY.create("TC")) is type(REGISTRY.shared("TC"))
