"""Tests for the engine-backed network evaluation and model sweeps."""

import pytest

from repro.dnn.models import deit_small, get_model, model_names
from repro.energy import Estimator
from repro.errors import WorkloadError
from repro.eval.engine import Cell, SweepEngine
from repro.eval import experiments as E


class TestModelRegistry:
    def test_paper_trio_plus_extension_registered(self):
        assert model_names() == (
            "ResNet50", "DeiT-small", "Transformer-Big",
            "EfficientNet-B0",
        )

    def test_lookup_is_case_insensitive(self):
        assert get_model("deit-small").name == "DeiT-small"

    def test_unknown_model_raises(self):
        with pytest.raises(WorkloadError, match="AlexNet"):
            get_model("AlexNet")


class TestEvaluateModelViaEngine:
    def test_repeat_evaluation_is_all_hits(self, estimator):
        engine = SweepEngine(estimator)
        model = deit_small()
        design = engine.design("HighLight")
        first = E.evaluate_model(design, model, 0.5, engine)
        evaluations = engine.stats.misses
        second = E.evaluate_model(design, model, 0.5, engine)
        assert engine.stats.misses == evaluations
        assert first.edp == pytest.approx(second.edp)

    def test_matches_positional_estimator_call(self, estimator):
        """The legacy call shape (estimator positional) still works and
        agrees with an explicit engine."""
        model = deit_small()
        engine = SweepEngine(estimator)
        design = engine.design("TC")
        via_estimator = E.evaluate_model(design, model, 0.0, estimator)
        via_engine = E.evaluate_model(design, model, 0.0, engine)
        assert via_estimator.edp == pytest.approx(via_engine.edp)


class TestExactlyOnceAcrossDegrees:
    def test_deit_sweep_evaluates_each_pair_exactly_once(
        self, monkeypatch
    ):
        """The counting spy mirrors tests/test_engine.py at the network
        level: a multi-degree DeiT-small sweep must evaluate each
        unique (design, workload) pair exactly once — dense layers
        repeat identically at every weight-sparsity point and must be
        deduplicated, not re-evaluated."""
        import repro.eval.engine as engine_mod

        calls = []
        real = engine_mod.evaluate_workload

        def counting(design, workload, estimator):
            calls.append((design.name, workload.key()))
            return real(design, workload, estimator)

        monkeypatch.setattr(engine_mod, "evaluate_workload", counting)
        engine = SweepEngine(Estimator())
        sweep = E.sweep_model(
            deit_small(),
            designs=("TC", "DSTC", "HighLight"),
            degrees=(0.0, 0.5, 0.75),
            ctx=engine,
        )
        assert calls, "spy never engaged"
        assert len(calls) == len(set(calls))
        # Dedup must be substantial: DeiT-small has 6 layers of which
        # only 3 are prunable, so the dense layers (and all of TC's
        # degree points) collapse across the 3-degree ladder.
        assert engine.stats.requests > len(calls)
        assert engine.stats.misses == len(calls)
        # TC ignores sparsity entirely: one evaluation per layer.
        tc_calls = [c for c in calls if c[0] == "TC"]
        assert len(tc_calls) == len(deit_small().layers)
        assert all(
            sweep.evaluations[("TC", degree)].edp
            == pytest.approx(sweep.evaluations[("TC", 0.0)].edp)
            for degree in (0.5, 0.75)
        )


class TestOneRealizationRoute:
    def test_layer_metrics_are_the_cells_metrics(self, estimator):
        """A network layer is one cell: each per-layer winner of
        ``sweep_model`` is the very object ``evaluate_cells`` returns
        for that layer's cell on the same engine, and asking again
        evaluates nothing."""
        engine = SweepEngine(estimator)
        model = deit_small()
        sweep = E.sweep_model(model, ctx=engine)
        misses = engine.stats.misses
        for design, degree, evaluation in sweep.rows():
            cells = [
                Cell(
                    design,
                    degree if layer.name in model.prunable else 0.0,
                    model.activation_sparsity,
                    *layer.gemm_shape(),
                )
                for layer in model.layers
            ]
            winners = engine.evaluate_cells(cells)
            if evaluation is None:
                assert None in winners
                continue
            for layer, metrics in zip(model.layers, winners):
                assert evaluation.per_layer[layer.name] is metrics
        assert engine.stats.misses == misses


class TestSweepModelResult:
    @pytest.fixture(scope="class")
    def sweep(self, estimator):
        return E.sweep_model(
            deit_small(), ctx=SweepEngine(estimator)
        )

    def test_default_ladders(self, sweep):
        assert sweep.design_order == (
            "TC", "STC", "DSTC", "S2TA", "HighLight",
        )
        assert sweep.degrees["TC"] == (0.0,)
        assert sweep.degrees["HighLight"] == (0.5, 0.625, 0.75)

    def test_baseline_normalizes_to_one(self, sweep):
        assert sweep.baseline == ("TC", 0.0)
        assert sweep.normalized_edp("TC", 0.0) == pytest.approx(1.0)

    def test_s2ta_unsupported_on_attention_model(self, sweep):
        """DeiT keeps dense layers S2TA cannot process (Sec. 7.3)."""
        for degree in sweep.degrees["S2TA"]:
            assert sweep.evaluations[("S2TA", degree)] is None
            assert sweep.normalized_edp("S2TA", degree) is None

    def test_highlight_beats_dense(self, sweep):
        for degree in sweep.degrees["HighLight"]:
            assert sweep.normalized_edp("HighLight", degree) < 1.0

    def test_rows_cover_grid(self, sweep):
        rows = sweep.rows()
        assert len(rows) == sum(
            len(degrees) for degrees in sweep.degrees.values()
        )

    def test_custom_degrees_apply_to_all_designs(self, estimator):
        sweep = E.sweep_model(
            deit_small(),
            designs=("TC", "HighLight"),
            degrees=(0.0, 0.5),
            ctx=SweepEngine(estimator),
        )
        assert sweep.degrees == {
            "TC": (0.0, 0.5), "HighLight": (0.0, 0.5),
        }

    def test_mapping_degrees_pick_per_design(self, estimator):
        """A per-design degree mapping (the Fig. 2 path): named
        designs use their entry, absent designs keep their ladder."""
        sweep = E.sweep_model(
            deit_small(),
            designs=("TC", "DSTC", "HighLight"),
            degrees={"TC": (0.0,), "DSTC": (0.62,)},
            ctx=SweepEngine(estimator),
        )
        assert sweep.degrees == {
            "TC": (0.0,),
            "DSTC": (0.62,),
            "HighLight": (0.5, 0.625, 0.75),
        }
        assert sweep.baseline == ("TC", 0.0)
        assert sweep.normalized_edp("DSTC", 0.62) is not None

    def test_mapping_degrees_match_sequence_degrees(self, estimator):
        """A mapping naming every design agrees exactly with the
        equivalent uniform-sequence sweep."""
        engine = SweepEngine(estimator)
        uniform = E.sweep_model(
            deit_small(), designs=("TC", "HighLight"),
            degrees=(0.0, 0.5), ctx=engine,
        )
        mapped = E.sweep_model(
            deit_small(), designs=("TC", "HighLight"),
            degrees={"TC": (0.0, 0.5), "HighLight": (0.0, 0.5)},
            ctx=engine,
        )
        assert mapped.to_payload() == uniform.to_payload()

    def test_no_tc_means_no_baseline(self, estimator):
        sweep = E.sweep_model(
            deit_small(),
            designs=("HighLight",),
            degrees=(0.5,),
            ctx=SweepEngine(estimator),
        )
        assert sweep.baseline is None
        assert sweep.normalized_edp("HighLight", 0.5) is None


class TestFig15ViaEngine:
    def test_fig15_fully_cached_on_second_run(self, estimator):
        engine = SweepEngine(estimator)
        first = E.fig15(engine)
        evaluations = engine.stats.misses
        second = E.fig15(engine)
        assert engine.stats.misses == evaluations
        assert second.points.keys() == first.points.keys()

    def test_deit_presweep_covers_fig15_deit_work(self):
        """A standalone DeiT sweep and fig15 share the cache: running
        fig15 after the presweep costs exactly as many evaluations as
        fig15 alone — the DeiT portion is entirely reused."""
        presweep_engine = SweepEngine(Estimator())
        E.sweep_model(
            deit_small(), designs=tuple(E.DESIGN_LADDERS),
            ctx=presweep_engine,
        )
        E.fig15(presweep_engine)
        fresh_engine = SweepEngine(Estimator())
        E.fig15(fresh_engine)
        assert (
            presweep_engine.stats.misses == fresh_engine.stats.misses
        )


class TestSparsityProfiles:
    def test_profile_overrides_named_layers_only(self, estimator):
        """A profile pins ff1 to 75% while the rest of the network
        stays at the sweep degree: only ff1's per-layer metrics move."""
        engine = SweepEngine(estimator)
        model = deit_small()
        design = engine.design("HighLight")
        plain = E.evaluate_model(design, model, 0.5, engine)
        profiled = E.evaluate_model(
            design, model, 0.5, engine, profile={"ff1": 0.75}
        )
        assert profiled.per_layer["ff1"].edp != pytest.approx(
            plain.per_layer["ff1"].edp
        )
        for name in plain.per_layer:
            if name == "ff1":
                continue
            assert profiled.per_layer[name].edp == pytest.approx(
                plain.per_layer[name].edp
            )

    def test_profile_can_sparsify_non_prunable_layers(self, estimator):
        """Profiles address any layer by name, including ones outside
        model.prunable (qkv_proj on DeiT stays dense by default)."""
        engine = SweepEngine(estimator)
        model = deit_small()
        design = engine.design("HighLight")
        plain = E.evaluate_model(design, model, 0.0, engine)
        profiled = E.evaluate_model(
            design, model, 0.0, engine, profile={"qkv_proj": 0.5}
        )
        assert profiled.per_layer["qkv_proj"].edp != pytest.approx(
            plain.per_layer["qkv_proj"].edp
        )

    def test_sweep_model_applies_profile_at_every_point(self, estimator):
        profile = {"ff1": 0.75}
        sweep = E.sweep_model(
            deit_small(),
            designs=("HighLight",),
            degrees=(0.0, 0.5),
            ctx=SweepEngine(estimator),
            profile=profile,
        )
        for degree in (0.0, 0.5):
            evaluation = sweep.evaluations[("HighLight", degree)]
            assert evaluation is not None

    def test_unknown_layer_rejected(self, estimator):
        with pytest.raises(WorkloadError, match="no_such"):
            E.sweep_model(
                deit_small(),
                ctx=SweepEngine(estimator),
                profile={"no_such": 0.5},
            )


class TestProfileParsing:
    """The forms a profile (a ``--profile`` file's JSON, or a sweep
    spec's ``profile``) may take, and the entries it refuses."""

    def test_load_profile_forms(self):
        profile = E.profile_from_dict({
            "a": 0.5,
            "b": {"degree": 0.625},
            "c": {"pattern": "2:4"},
        })
        assert profile == {"a": 0.5, "b": 0.625, "c": 0.5}

    def test_bad_degree_rejected(self):
        with pytest.raises(WorkloadError, match=r"\[0, 1\)"):
            E.profile_from_dict({"a": -0.1})

    def test_bad_pattern_rejected(self):
        with pytest.raises(WorkloadError, match="G <= H"):
            E.profile_from_dict({"a": {"pattern": "4:2"}})

    def test_degree_and_pattern_conflict(self):
        with pytest.raises(WorkloadError, match="exactly one"):
            E.profile_from_dict({"a": {"degree": 0.5, "pattern": "2:4"}})

    def test_non_object_profile_rejected(self):
        with pytest.raises(WorkloadError, match="JSON object"):
            E.profile_from_dict([1, 2, 3])
