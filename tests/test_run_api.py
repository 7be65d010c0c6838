"""Tests for the event-driven run API: RunPlan/RunEvent execution,
scoped per-artifact EngineStats deltas, the ``md`` renderer golden
files, streaming CLI behaviour, and schema-v4 run records."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.eval.artifacts import (
    ARTIFACTS,
    ArtifactFinished,
    ArtifactStarted,
    RunFinished,
    RunPlan,
    compute_artifacts,
    render,
    stats_by_artifact,
)
from repro.eval.engine import EngineContext, EngineStats, SweepEngine
from repro.eval.runs import load_record, record_from_artifacts

GOLDEN_MD = Path(__file__).parent / "golden" / "md"

PAPER_ORDER = (
    "tables", "fig2", "fig6", "fig13", "fig14", "fig15", "fig16",
    "fig17",
)


class TestEngineStatsScoping:
    def test_snapshot_is_independent(self):
        stats = EngineStats(hits=3, misses=2, disk_hits=1)
        frozen = stats.snapshot()
        stats.hits += 10
        assert frozen.hits == 3
        assert stats.hits == 13

    def test_delta_since(self):
        start = EngineStats(hits=3, misses=2, disk_hits=1)
        now = EngineStats(hits=8, misses=2, disk_hits=4)
        delta = now.delta_since(start)
        assert (delta.hits, delta.misses, delta.disk_hits) == (5, 0, 3)
        assert delta.evaluations == 0
        assert delta.requests == 8

    def test_engine_checkpoint_round_trip(self, estimator):
        engine = SweepEngine(estimator)
        checkpoint = engine.checkpoint()
        engine.sweep(designs=("TC",), a_degrees=(0.0,),
                     b_degrees=(0.0,), m=64, k=64, n=64)
        delta = engine.stats_since(checkpoint)
        assert delta.requests == engine.stats.requests
        assert delta.misses > 0
        # A later checkpoint scopes out the earlier work.
        assert engine.stats_since(engine.checkpoint()).requests == 0


class TestRunPlan:
    def test_unknown_name_rejected_before_work(self):
        with pytest.raises(KeyError, match="fig99"):
            RunPlan.from_names(["fig6", "fig99"])

    def test_names_in_plan_order(self, estimator):
        plan = RunPlan.from_names(["fig6", "tables"], estimator)
        assert plan.names == ("fig6", "tables")

    def test_duplicate_names_rejected_before_work(self):
        """Results and per-artifact stats are name-keyed: a repeated
        artifact would stream twice but record once, silently breaking
        the deltas-sum-to-totals invariant."""
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError, match="duplicate"):
            RunPlan.from_names(["fig6", "tables", "fig6"])

    def test_event_sequence_shape(self, estimator):
        plan = RunPlan.from_names(["tables", "fig6"], estimator)
        events = list(plan.events())
        kinds = [type(event) for event in events]
        assert kinds == [
            ArtifactStarted, ArtifactFinished,
            ArtifactStarted, ArtifactFinished,
            RunFinished,
        ]
        assert [e.name for e in events[:-1]] == [
            "tables", "tables", "fig6", "fig6",
        ]
        assert all(e.total == 2 for e in events[:-1])
        final = events[-1]
        assert list(final.results) == ["tables", "fig6"]

    def test_finished_carries_registered_result_type(self, estimator):
        plan = RunPlan.from_names(["fig6"], estimator)
        (finished,) = [
            e for e in plan.events()
            if isinstance(e, ArtifactFinished)
        ]
        assert type(finished.result) is ARTIFACTS["fig6"].result_type

    def test_per_artifact_deltas_sum_to_run_totals(self):
        """The acceptance shape: ArtifactFinished stats are scoped per
        artifact and always sum to the RunFinished totals — which, on
        a fresh engine, are the engine's cumulative counters."""
        ctx = EngineContext.coerce(None)
        plan = RunPlan.from_names(
            ["fig13", "fig14", "fig16", "fig17"], ctx
        )
        outcome = plan.run()
        for key in ("hits", "misses", "disk_hits"):
            summed = sum(
                getattr(e.stats, key) for e in outcome.artifacts
            )
            assert summed == getattr(outcome.stats, key)
            assert summed == getattr(ctx.engine.stats, key)
        # fig14/fig16 revisit fig13's grid: scoped deltas prove they
        # evaluated nothing of their own.
        by_name = {e.name: e.stats for e in outcome.artifacts}
        assert by_name["fig13"].evaluations > 0
        assert by_name["fig14"].evaluations == 0
        assert by_name["fig16"].evaluations == 0

    def test_warm_cache_reports_zero_evaluations_per_artifact(
        self, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        cold = RunPlan.from_names(
            ["fig13", "fig17"], EngineContext.create(cache_dir=cache_dir)
        ).run()
        assert cold.stats.evaluations > 0
        warm = RunPlan.from_names(
            ["fig13", "fig17"], EngineContext.create(cache_dir=cache_dir)
        ).run()
        for event in warm.artifacts:
            assert event.stats.evaluations == 0, event.name
        assert warm.stats.disk_hits > 0

    def test_run_matches_compute_artifacts(self, estimator):
        names = ["fig6", "tables"]
        outcome = RunPlan.from_names(names, estimator).run()
        computed = compute_artifacts(names, EngineContext.coerce(estimator))
        assert list(outcome.results) == list(computed)
        for name in names:
            assert (
                outcome.results[name].to_payload()
                == computed[name].to_payload()
            )

    def test_stats_by_artifact_is_json_ready(self, estimator):
        outcome = RunPlan.from_names(["fig6"], estimator).run()
        stats = stats_by_artifact(outcome.artifacts)
        assert stats == outcome.artifact_stats()
        assert json.dumps(stats)
        assert set(stats["fig6"]) == {
            "hits", "disk_hits", "misses", "evaluations", "requests",
            "wall_time_s",
        }


@pytest.fixture(scope="module")
def results(estimator):
    """All artifacts computed once under one shared context."""
    return compute_artifacts(
        list(ARTIFACTS), EngineContext.coerce(estimator)
    )


class TestMarkdownRenderer:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_md_matches_golden(self, name, results):
        golden = (GOLDEN_MD / f"{name}.md").read_text()
        assert render(results[name], "md") + "\n" == golden

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_md_embeds_text_render_verbatim(self, name, results):
        info = ARTIFACTS[name]
        rendered = info.render(results[name], "md")
        assert rendered.startswith(f"## {info.title}")
        assert f"```\n{info.render_text(results[name])}\n```" in rendered

    def test_report_md_composes_artifact_sections(
        self, results, estimator
    ):
        from repro.eval.report import run_report

        document = run_report(estimator).document
        assert document.startswith("# EXPERIMENTS")
        for name in PAPER_ORDER:
            assert render(results[name], "md") in document


class TestStreamCli:
    def test_stream_stdout_matches_batch(self, capsys):
        assert main(["artifact", "fig6", "tables"]) == 0
        batch = capsys.readouterr().out
        assert main(["artifact", "fig6", "tables", "--stream"]) == 0
        streamed = capsys.readouterr()
        assert streamed.out == batch
        assert "[1/2] fig6:" in streamed.err
        assert "[2/2] tables:" in streamed.err

    def test_repeated_names_dedup_in_stream_and_batch(self, capsys):
        """`repro artifact fig6 fig6` always rendered once (results
        are name-keyed); the CLI dedups up front so --stream and the
        per-artifact record agree with that."""
        assert main(["artifact", "fig6", "fig6"]) == 0
        batch = capsys.readouterr().out
        assert main(["artifact", "fig6", "fig6", "--stream"]) == 0
        streamed = capsys.readouterr()
        assert streamed.out == batch
        assert batch.count("muxing overhead") == 1
        assert "[1/1] fig6:" in streamed.err

    def test_stream_json_is_one_object_per_artifact(self, capsys):
        assert main(["artifact", "fig6", "tables", "--format", "json",
                     "--stream"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        objects = [json.loads(line) for line in lines]
        assert [o["artifact"] for o in objects] == ["fig6", "tables"]
        for obj in objects:
            assert obj["payload"]["rows"]
            assert obj["stats"]["misses"] == obj["stats"]["evaluations"]

    def test_stream_md_sections(self, capsys):
        assert main(["artifact", "fig6", "--format", "md",
                     "--stream"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("## Fig. 6")

    def test_warm_stream_record_zero_evaluations_per_artifact(
        self, tmp_path, capsys
    ):
        """The acceptance shape: a warm `--stream` rerun reports
        evaluations == 0 for every artifact, per artifact."""
        cache_dir = str(tmp_path / "cache")
        argv = ["artifact", "fig13", "fig14", "fig17",
                "--cache-dir", cache_dir]
        assert main(argv + ["--record",
                            str(tmp_path / "cold.json")]) == 0
        assert main(argv + ["--stream", "--record",
                            str(tmp_path / "warm.json")]) == 0
        capsys.readouterr()
        cold = json.loads((tmp_path / "cold.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        assert cold["artifact_stats"]["fig13"]["evaluations"] > 0
        for name, stats in warm["artifact_stats"].items():
            assert stats["evaluations"] == 0, name
            assert stats["misses"] == 0, name
        assert cold["artifacts"] == warm["artifacts"]


class TestSchemaV4Records:
    def test_round_trip_with_artifact_stats(self, tmp_path, estimator):
        outcome = RunPlan.from_names(["fig6", "tables"], estimator).run()
        record = record_from_artifacts(
            command="artifact",
            results=outcome.results,
            engine=EngineContext.coerce(estimator).engine,
            wall_time_s=outcome.wall_time_s,
            artifact_stats=outcome.artifact_stats(),
        )
        assert record.schema_version == 4
        loaded = load_record(record.write(tmp_path / "run.json"))
        assert loaded["schema_version"] == 4
        assert set(loaded["artifact_stats"]) == {"fig6", "tables"}
        assert (
            loaded["artifact_stats"]["fig6"]["evaluations"]
            == outcome.artifacts[0].stats.evaluations
        )

    def test_artifact_stats_default_empty(self, results, estimator):
        record = record_from_artifacts(
            command="artifact", results={"fig6": results["fig6"]},
        )
        assert record.artifact_stats == {}


class TestFig2EngineRouting:
    def test_fig2_degree_search_warm_cache_zero_evaluations(
        self, tmp_path
    ):
        """The acceptance shape: Fig. 2's accuracy-matched degree
        search — bespoke evaluate_model calls rerouted through
        sweep_model — performs zero fresh evaluations on a warm
        persistent cache."""
        from repro.eval import experiments as E

        cache_dir = str(tmp_path / "cache")
        cold = EngineContext.create(cache_dir=cache_dir)
        cold_result = E.fig2(cold)
        assert cold.engine.stats.evaluations > 0
        cold.engine.close()

        warm = EngineContext.create(cache_dir=cache_dir)
        warm_result = E.fig2(warm)
        assert warm.engine.stats.evaluations == 0
        assert warm.engine.stats.misses == 0
        assert warm.engine.stats.disk_hits > 0
        assert warm_result.to_payload() == cold_result.to_payload()
        warm.engine.close()

    def test_accuracy_matched_degrees_shape(self):
        from repro.dnn.models import resnet50
        from repro.eval.experiments import accuracy_matched_degrees

        degrees = accuracy_matched_degrees(resnet50())
        assert set(degrees) == {"TC", "STC", "DSTC", "HighLight"}
        assert degrees["TC"] == 0.0
        # ResNet50 prunes aggressively within the 0.5% budget.
        assert degrees["DSTC"] > 0.5
        assert degrees["HighLight"] in (0.5, 0.625, 0.75)
