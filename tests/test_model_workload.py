"""Tests for workload descriptions."""

import pytest

from repro.errors import WorkloadError
from repro.model.workload import (
    MatmulWorkload,
    Structure,
    dense_operand,
    hss_operand,
    structured_operand,
    synthetic_workload,
    unstructured_operand,
)
from repro.sparsity import HSSPattern


class TestOperandSparsity:
    def test_dense(self):
        operand = dense_operand()
        assert operand.density == 1.0
        assert operand.is_dense

    def test_hss_operand_density_from_pattern(self):
        pattern = HSSPattern.from_ratios((2, 4), (2, 4))
        operand = hss_operand(pattern)
        assert operand.density == pytest.approx(0.25)
        assert operand.structure is Structure.HSS

    def test_structured_shorthand(self):
        operand = structured_operand(4, 8)
        assert operand.density == 0.5
        assert operand.pattern.num_ranks == 1

    def test_unstructured(self):
        operand = unstructured_operand(0.6)
        assert operand.sparsity == pytest.approx(0.6)
        assert operand.structure is Structure.UNSTRUCTURED

    def test_unstructured_zero_is_dense(self):
        assert unstructured_operand(0.0).is_dense

    def test_rejects_density_pattern_mismatch(self):
        from repro.model.workload import OperandSparsity

        with pytest.raises(WorkloadError):
            OperandSparsity(
                0.5, Structure.HSS, HSSPattern.from_ratios((2, 4), (2, 4))
            )

    def test_rejects_pattern_on_unstructured(self):
        from repro.model.workload import OperandSparsity

        with pytest.raises(WorkloadError):
            OperandSparsity(
                0.25, Structure.UNSTRUCTURED,
                HSSPattern.from_ratios((2, 4), (2, 4)),
            )

    def test_rejects_zero_density(self):
        from repro.model.workload import OperandSparsity

        with pytest.raises(WorkloadError):
            OperandSparsity(0.0, Structure.DENSE)

    def test_describe(self):
        assert dense_operand().describe() == "dense"
        assert "unstructured" in unstructured_operand(0.5).describe()
        assert "C0" in structured_operand(2, 4).describe()


class TestMatmulWorkload:
    def workload(self):
        return MatmulWorkload(
            m=4, k=8, n=2,
            a=structured_operand(2, 4), b=unstructured_operand(0.5),
            name="toy",
        )

    def test_dense_products(self):
        assert self.workload().dense_products == 64

    def test_effectual_products(self):
        assert self.workload().effectual_products == pytest.approx(16.0)

    def test_swapped_shape(self):
        swapped = self.workload().swapped()
        assert (swapped.m, swapped.k, swapped.n) == (2, 8, 4)

    def test_swapped_operands(self):
        swapped = self.workload().swapped()
        assert swapped.a.structure is Structure.UNSTRUCTURED
        assert swapped.b.structure is Structure.HSS

    def test_swap_involution_products(self):
        workload = self.workload()
        assert (
            workload.swapped().swapped().dense_products
            == workload.dense_products
        )

    def test_rejects_bad_dims(self):
        with pytest.raises(WorkloadError):
            MatmulWorkload(0, 8, 2, dense_operand(), dense_operand())

    def test_describe_contains_name(self):
        assert "toy" in self.workload().describe()


class TestQuantizeDegree:
    def test_absorbs_float_noise(self):
        from repro.model.workload import quantize_degree

        assert quantize_degree(0.5 + 1e-12) == 0.5
        assert quantize_degree(0.75 - 1e-13) == 0.75

    def test_preserves_real_degrees(self):
        from repro.model.workload import quantize_degree

        assert quantize_degree(0.625) == 0.625
        assert quantize_degree(0.5) != quantize_degree(0.50001)


class TestContentKeys:
    def workload(self, name="toy"):
        return MatmulWorkload(
            m=4, k=8, n=2,
            a=structured_operand(2, 4), b=unstructured_operand(0.5),
            name=name,
        )

    def test_operand_key_distinguishes_structure(self):
        assert dense_operand().key() != unstructured_operand(0.5).key()
        assert (
            structured_operand(2, 4).key()
            != unstructured_operand(0.5).key()
        )

    def test_operand_key_serializes_hss_ranks(self):
        pattern = HSSPattern.from_ratios((2, 4), (4, 8))
        operand = hss_operand(pattern)
        assert operand.key()[2] == ((2, 4), (4, 8))

    def test_operand_key_distinguishes_equal_density_patterns(self):
        """2:4 and 4:8 have equal density but different block
        hierarchies — they must not share a cache entry."""
        assert (
            structured_operand(2, 4).key()
            != structured_operand(4, 8).key()
        )

    def test_operand_key_absorbs_density_noise(self):
        assert (
            unstructured_operand(0.5).key()
            == unstructured_operand(0.5 + 1e-12).key()
        )

    def test_workload_key_ignores_name(self):
        assert self.workload("a").key() == self.workload("b").key()

    def test_workload_key_hashable_and_content_based(self):
        assert hash(self.workload().key()) == hash(self.workload().key())
        other = MatmulWorkload(
            m=4, k=8, n=4,
            a=structured_operand(2, 4), b=unstructured_operand(0.5),
        )
        assert other.key() != self.workload().key()

    def test_swapped_workload_has_distinct_key(self):
        workload = self.workload()
        assert workload.swapped().key() != workload.key()


class TestSyntheticWorkload:
    def test_dense(self):
        workload = synthetic_workload(0.0, 0.0)
        assert workload.a.is_dense and workload.b.is_dense

    def test_sparsity_degrees(self):
        workload = synthetic_workload(0.75, 0.5)
        assert workload.a.sparsity == pytest.approx(0.75)
        assert workload.b.sparsity == pytest.approx(0.5)

    def test_a_is_hss_within_highlight_family(self):
        from repro.model.density import highlight_supported_density

        workload = synthetic_workload(0.5, 0.0)
        assert highlight_supported_density(workload.a) == pytest.approx(
            0.5
        )

    def test_unknown_degree_rejected(self):
        with pytest.raises(WorkloadError):
            synthetic_workload(0.33, 0.0)

    def test_size_parameter(self):
        assert synthetic_workload(0.0, 0.0, size=64).dense_products == 64**3


class TestStrippedWorkload:
    def test_stripped_drops_name_keeps_key(self):
        named = synthetic_workload(0.5, 0.25, size=64)
        assert named.name
        bare = named.stripped
        assert bare.name == ""
        assert bare.key() == named.key()
        assert bare.stripped is bare

    def test_nameless_workload_is_its_own_stripped(self):
        w = synthetic_workload(0.5, 0.25, size=64)
        bare = MatmulWorkload(m=w.m, k=w.k, n=w.n, a=w.a, b=w.b)
        assert bare.stripped is bare
