"""Tests for workload descriptions."""

import pytest

from repro.errors import WorkloadError
from repro.model.workload import (
    MatmulWorkload,
    OperandSparsity,
    Structure,
    dense_operand,
    hss_operand,
    structured_operand,
    synthetic_workload,
    unstructured_operand,
)
from repro.sparsity import HSSPattern, sparsify


def built_orientations(estimator, monkeypatch):
    """The workloads the sweep engine builds for STC's two candidates
    of the (0.5, 0) cell at (M, K, N) = (4, 8, 2): the direct one, then
    the swapped one (the transposed product Z^T = B^T A^T)."""
    from repro.eval import engine as engine_mod

    built = []
    real = engine_mod.evaluate_workload

    def recording(design, workload, estimator):
        built.append(workload)
        return real(design, workload, estimator)

    monkeypatch.setattr(engine_mod, "evaluate_workload", recording)
    engine = engine_mod.SweepEngine(estimator)
    engine.evaluate_cells([engine_mod.Cell("STC", 0.5, 0.0, 4, 8, 2)])
    return built


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

    def test_effectual_products_match_a_counted_hss_matmul(self, rng):
        """HSS-sparsified A x dense B: the analytical count equals the
        products whose operands are both nonzero."""
        pattern = HSSPattern.from_ratios((2, 4), (4, 4))
        a = sparsify(rng.normal(size=(8, 32)), pattern)
        b = rng.uniform(1, 2, size=(32, 8))
        counted = ((a != 0).astype(int) @ (b != 0).astype(int)).sum()
        workload = MatmulWorkload(
            m=8, k=32, n=8, a=hss_operand(pattern), b=dense_operand()
        )
        assert workload.effectual_products == pytest.approx(counted)

    def test_swapped_shape(self, estimator, monkeypatch):
        _, swapped = built_orientations(estimator, monkeypatch)
        assert (swapped.m, swapped.k, swapped.n) == (2, 8, 4)

    def test_swapped_operands(self, estimator, monkeypatch):
        direct, swapped = built_orientations(estimator, monkeypatch)
        assert direct.a.structure is Structure.HSS and direct.b.is_dense
        # A's 50% degree now sits on B, in B's unstructured form.
        assert swapped.a.is_dense
        assert swapped.b.structure is Structure.UNSTRUCTURED
        assert swapped.b.sparsity == pytest.approx(0.5)

    def test_swap_involution_products(self, estimator, monkeypatch):
        direct, swapped = built_orientations(estimator, monkeypatch)
        assert (swapped.n, swapped.k, swapped.m) == (
            direct.m, direct.k, direct.n,
        )
        assert swapped.dense_products == direct.dense_products

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

    def test_swapped_workload_has_distinct_key(self, estimator, monkeypatch):
        direct, swapped = built_orientations(estimator, monkeypatch)
        assert swapped.key() != direct.key()


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

    @pytest.mark.parametrize("degree", [0.5, 0.875])
    def test_degree_float_noise_is_absorbed(self, degree):
        noisy = synthetic_workload(degree + 1e-12, 0.0)
        assert noisy.a.pattern == synthetic_workload(degree, 0.0).a.pattern
        assert noisy.a.sparsity == pytest.approx(degree)

    def test_size_parameter(self):
        assert synthetic_workload(0.0, 0.0, size=64).dense_products == 64**3


class TestInterning:
    def test_equal_arguments_share_one_operand(self):
        assert unstructured_operand(0.3) is unstructured_operand(0.3)
        assert structured_operand(4, 8) is structured_operand(4, 8)
        assert dense_operand() is dense_operand()
        pattern = HSSPattern.from_ratios((2, 4), (3, 4))
        assert hss_operand(pattern) is hss_operand(
            HSSPattern.from_ratios((2, 4), (3, 4))
        )

    def test_memo_keys_on_the_exact_argument(self):
        """Interning never hands one caller another caller's float:
        degrees equal only after quantization stay separate operands
        with their own bit-exact densities."""
        noisy = unstructured_operand(0.3 + 1e-12)
        assert noisy is not unstructured_operand(0.3)
        assert noisy.density == 1.0 - (0.3 + 1e-12)
        assert noisy.key() == unstructured_operand(0.3).key()

    def test_direct_construction_still_validates(self):
        pattern = HSSPattern.from_ratios((2, 4), (2, 4))
        hss_operand(pattern)  # interned: must not bypass the check
        with pytest.raises(WorkloadError):
            OperandSparsity(0.5, Structure.HSS, pattern)

    def test_key_is_the_content_tuple(self):
        workload = MatmulWorkload(
            m=64, k=128, n=256,
            a=hss_operand(HSSPattern.from_ratios((2, 4), (3, 4))),
            b=unstructured_operand(0.3),
            name="label",
        )
        assert workload.key() == (
            64, 128, 256,
            ("hss", 0.375, ((2, 4), (3, 4))),
            ("unstructured", 0.7, ()),
        )
        assert dense_operand().key() == ("dense", 1.0, ())


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
