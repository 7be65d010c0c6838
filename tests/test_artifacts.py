"""Tests for the declarative artifact registry, EngineContext, and the
text/json/csv renderer layer.

The golden files under ``tests/golden/`` were captured from the seed
CLI (``python -m repro artifact <name>``) before the artifact registry
existed; the parity tests assert the registry's ``text`` rendering is
byte-identical to them.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import EvaluationError
from repro.eval.artifacts import (
    ARTIFACTS,
    FORMATS,
    ArtifactRegistry,
    compute_artifacts,
    register_artifact,
    render,
)
from repro.eval.engine import EngineContext, SweepEngine

GOLDEN = Path(__file__).parent / "golden"

PAPER_ORDER = (
    "tables", "fig2", "fig6", "fig13", "fig14", "fig15", "fig16",
    "fig17",
)


class TestRegistry:
    def test_paper_order(self):
        assert ARTIFACTS.names() == PAPER_ORDER

    def test_supported_formats(self):
        assert FORMATS == ("text", "json", "csv", "md")

    def test_specs_are_complete(self):
        for info in ARTIFACTS.infos():
            assert callable(info.compute)
            assert callable(info.render_text)
            assert isinstance(info.result_type, type)
            assert info.title

    def test_references_resolve_on_first_access(self):
        registry = ArtifactRegistry()
        info = register_artifact(
            "probe", "repro.eval.experiments:fig6",
            "repro.eval.experiments:Fig6Result",
            text="repro.eval.reporting:render_fig6", title="Probe",
            registry=registry,
        )
        assert info.compute_ref == "repro.eval.experiments:fig6"
        assert "compute" not in vars(info)
        from repro.eval import experiments, reporting

        assert info.compute is experiments.fig6
        assert info.result_type is experiments.Fig6Result
        assert info.render_text is reporting.render_fig6
        assert vars(info)["compute"] is experiments.fig6
        with pytest.raises(AttributeError, match="no attribute"):
            info.not_a_field

    def test_duplicate_registration_rejected(self):
        info = ARTIFACTS["fig6"]
        with pytest.raises(EvaluationError, match="already registered"):
            ARTIFACTS.register(info)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="fig13"):
            ARTIFACTS["fig99"]

    def test_result_type_dispatch(self):
        result = ARTIFACTS["fig6"].compute(EngineContext.coerce(None))
        assert ARTIFACTS.for_result(result).name == "fig6"

    def test_unregistered_result_type_rejected(self):
        with pytest.raises(EvaluationError, match="no registered"):
            ARTIFACTS.for_result(object())

    def test_compute_artifacts_rejects_unknown_before_work(self):
        with pytest.raises(KeyError):
            compute_artifacts(["fig6", "fig99"])


class TestEngineContext:
    def test_coerce_none_is_fresh(self):
        assert (
            EngineContext.coerce(None).engine
            is not EngineContext.coerce(None).engine
        )

    def test_coerce_estimator_shares_engine(self, estimator):
        first = EngineContext.coerce(estimator)
        second = EngineContext.coerce(estimator)
        assert first.engine is second.engine

    def test_coerce_engine_and_context_pass_through(self, estimator):
        engine = SweepEngine(estimator)
        ctx = EngineContext.coerce(engine)
        assert ctx.engine is engine
        assert EngineContext.coerce(ctx) is ctx

    def test_coerce_rejects_junk(self):
        with pytest.raises(EvaluationError, match="EngineContext"):
            EngineContext.coerce(42)

    def test_create_wires_cache_and_policy(self, tmp_path):
        ctx = EngineContext.create(
            cache_dir=str(tmp_path / "cache"), record="run.json",
        )
        assert ctx.cache_dir == str(tmp_path / "cache")
        assert ctx.record_path == "run.json"
        assert ctx.engine.persistent is not None
        assert ctx.estimator is ctx.engine.estimator

    def test_no_cache_means_no_cache_dir(self):
        assert EngineContext.create().cache_dir is None


class TestGoldenTextParity:
    """Every artifact's text rendering is byte-identical to seed."""

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_artifact_text_matches_seed(self, name, capsys):
        assert main(["artifact", name]) == 0
        golden = (GOLDEN / f"{name}.txt").read_text()
        assert capsys.readouterr().out == golden

    def test_all_matches_seed(self, capsys):
        assert main(["all"]) == 0
        golden = (GOLDEN / "all.txt").read_text()
        assert capsys.readouterr().out == golden


@pytest.fixture(scope="module")
def results(estimator):
    """All artifacts computed once under one shared context."""
    return compute_artifacts(
        list(ARTIFACTS), EngineContext.coerce(estimator)
    )


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_json_render_round_trips_payload(self, name, results):
        result = results[name]
        assert json.loads(render(result, "json")) == result.to_payload()

    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_payload_rows_are_tabular(self, name, results):
        payload = results[name].to_payload()
        rows = payload["rows"]
        assert rows and all(isinstance(row, dict) for row in rows)


class TestCsvRenderer:
    @pytest.mark.parametrize("name", PAPER_ORDER)
    def test_csv_has_header_and_all_rows(self, name, results):
        result = results[name]
        rendered = render(result, "csv")
        parsed = list(csv.reader(io.StringIO(rendered)))
        assert len(parsed) == len(result.to_payload()["rows"]) + 1

    def test_mixed_tables_csv_unions_headers(self, results):
        rendered = render(results["tables"], "csv")
        header = rendered.splitlines()[0].split(",")
        assert header[0] == "table"
        assert "patterns" in header and "macs" in header

    def test_none_and_bools_are_csv_friendly(self, results):
        rendered = render(results["fig13"], "csv")
        assert "None" not in rendered
        assert "true" in rendered or "false" in rendered

    def test_unknown_format_rejected(self, results):
        with pytest.raises(EvaluationError, match="unknown format"):
            render(results["fig6"], "yaml")


class TestCachedArtifactPipeline:
    def test_repro_all_warm_cache_evaluates_nothing(self, tmp_path):
        """The acceptance shape: ``repro all --cache-dir D``
        run twice performs zero estimator evaluations the second
        time, and the structured payloads are identical."""
        cache_dir = str(tmp_path / "cache")
        cold = EngineContext.create(cache_dir=cache_dir)
        cold_results = compute_artifacts(list(ARTIFACTS), cold)
        assert cold.engine.stats.evaluations > 0

        warm = EngineContext.create(cache_dir=cache_dir)
        warm_results = compute_artifacts(list(ARTIFACTS), warm)
        assert warm.engine.stats.evaluations == 0
        assert warm.engine.stats.misses == 0
        assert warm.engine.stats.disk_hits > 0
        for name in ARTIFACTS:
            assert (
                warm_results[name].to_payload()
                == cold_results[name].to_payload()
            )
