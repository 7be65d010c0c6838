"""Tests for the JSON run-record layer."""

import dataclasses
import json
import math

import pytest

from repro.dnn.models import get_model
from repro.eval.artifacts import ARTIFACTS, RunPlan
from repro.eval.engine import EngineStats, SweepEngine, SweepResult
from repro.eval.experiments import sweep_model
from repro.eval.runs import (
    SCHEMA_VERSION,
    RunRecord,
    _json_value_key,
    load_record,
    metrics_summary,
    record_from_artifacts,
    record_from_model_sweep,
    record_from_sweep,
)
from repro.model.metrics import Metrics


@pytest.fixture
def engine(estimator):
    return SweepEngine(estimator)


@pytest.fixture
def sweep(engine):
    return engine.sweep(
        designs=("TC", "HighLight"),
        a_degrees=(0.0, 0.5), b_degrees=(0.0,),
        m=128, k=128, n=128,
    )


class TestRecordFromSweep:
    def test_captures_grid_and_cells(self, sweep, engine):
        record = record_from_sweep("sweep", sweep, engine,
                                   wall_time_s=1.5)
        assert record.schema_version == SCHEMA_VERSION
        assert record.grid["designs"] == ["TC", "HighLight"]
        assert record.grid["a_degrees"] == [0.0, 0.5]
        assert record.grid["baseline"] == "TC"
        assert len(record.cells) == 4
        assert record.wall_time_s == 1.5
        assert record.cache["misses"] == 4

    def test_geomeans_present_with_baseline(self, sweep, engine):
        record = record_from_sweep("sweep", sweep, engine)
        assert set(record.geomeans) == {
            "edp", "energy_pj", "cycles", "ed2",
        }
        assert record.geomeans["edp"]["TC"] == pytest.approx(1.0)

    def test_cell_metrics_shape(self, sweep, engine):
        record = record_from_sweep("sweep", sweep, engine)
        summary = record.cells[0]["metrics"]
        assert set(summary) == {
            "cycles", "energy_pj", "edp", "utilization", "supported",
            "swapped",
        }

    def test_unsupported_cell_serializes_as_null(self, engine):
        sweep = engine.sweep(
            designs=("TC", "S2TA"),
            a_degrees=(0.0,), b_degrees=(0.0,),
            m=128, k=128, n=128,
        )
        record = record_from_sweep("sweep", sweep, engine)
        by_design = {c["design"]: c["metrics"] for c in record.cells}
        assert by_design["S2TA"] is None
        assert by_design["TC"] is not None

    def test_metrics_summary_none_passthrough(self):
        assert metrics_summary(None) is None

    def test_shape_recorded_when_given(self, sweep, engine):
        record = record_from_sweep("sweep", sweep, engine,
                                   shape=(128, 128, 128))
        assert record.grid["shape_mkn"] == [128, 128, 128]
        assert "shape_mkn" not in record_from_sweep(
            "sweep", sweep, engine
        ).grid


class TestWriteAndLoad:
    def test_round_trip(self, sweep, engine, tmp_path):
        record = record_from_sweep("sweep", sweep, engine,
                                   wall_time_s=0.25)
        path = record.write(tmp_path / "nested" / "run.json")
        assert path.exists()
        loaded = load_record(path)
        assert loaded["command"] == "sweep"
        assert loaded["wall_time_s"] == 0.25
        assert loaded["grid"]["designs"] == ["TC", "HighLight"]
        # The artifact is valid, indented JSON (trend-diffable): the
        # envelope is indented two spaces per level.
        text = path.read_text()
        assert text.endswith("}\n")
        lines = text.splitlines()
        assert lines[0] == "{"
        assert lines[1] == '  "command": "sweep",'
        assert '  "grid": {' in lines
        assert '    "designs": [' in lines
        assert '  "schema_version": 4' in lines

    def test_created_at_stamp(self, sweep, engine):
        record = record_from_sweep(
            "sweep", sweep, engine, created_at="2026-07-25T00:00:00",
        )
        assert record.created_at == "2026-07-25T00:00:00"


def _reference(record):
    """What the fully indented ``asdict`` dump of ``record`` loads to."""
    return json.loads(json.dumps(dataclasses.asdict(record), indent=2))


def _assert_same_as_reference(record, path):
    loaded = load_record(record.write(path))
    expected = _reference(record)
    assert loaded == expected
    assert list(loaded) == list(expected)
    if expected["cells"]:
        assert list(loaded["cells"][0]) == list(expected["cells"][0])
        assert list(loaded["cells"][-1]) == list(expected["cells"][-1])
    return loaded


class TestWriterEquivalence:
    """Every record kind loads to exactly what a fully indented dump of
    the same :class:`RunRecord` loads to — key order included."""

    def test_sweep_with_unsupported_cells(self, engine, tmp_path):
        sweep = engine.sweep(
            designs=("TC", "S2TA", "HighLight"),
            a_degrees=(0.0, 0.5, 0.625), b_degrees=(0.0, 0.75),
            m=128, k=128, n=128,
        )
        record = record_from_sweep("sweep", sweep, engine,
                                   wall_time_s=0.1, shape=(128, 128, 128))
        assert any(cell["metrics"] is None for cell in record.cells)
        loaded = _assert_same_as_reference(record, tmp_path / "run.json")
        assert list(loaded["cells"][0]["metrics"]) == [
            "cycles", "energy_pj", "edp", "utilization", "supported",
            "swapped",
        ]

    def test_model_sweep(self, engine, tmp_path):
        sweep = sweep_model(
            get_model("ResNet50"), designs=("TC", "HighLight"),
            degrees=(0.0, 0.5), ctx=engine,
        )
        record = record_from_model_sweep("sweep-model", sweep, engine)
        assert record.cells
        _assert_same_as_reference(record, tmp_path / "model.json")

    def test_every_artifact(self, estimator, tmp_path):
        outcome = RunPlan.from_names(list(ARTIFACTS), estimator).run()
        record = record_from_artifacts(
            "all", outcome.results, wall_time_s=outcome.wall_time_s,
            artifact_stats=outcome.artifact_stats(),
        )
        loaded = _assert_same_as_reference(record, tmp_path / "all.json")
        assert list(loaded["artifacts"]) == list(ARTIFACTS)

    def test_empty_cells(self, tmp_path):
        record = RunRecord(command="empty", created_at="t", grid={})
        loaded = _assert_same_as_reference(record, tmp_path / "e.json")
        assert loaded["cells"] == []
        assert '  "cells": [],' in (tmp_path / "e.json").read_text()

    def test_stray_dataclass_fails_loudly(self, tmp_path):
        record = RunRecord(command="bad", created_at="t",
                           grid={"stats": EngineStats()})
        with pytest.raises(TypeError):
            record.write(tmp_path / "bad.json")
        assert list(tmp_path.iterdir()) == []


class TestLayout:
    def test_one_cell_per_line(self, sweep, engine, tmp_path):
        record = record_from_sweep("sweep", sweep, engine)
        lines = record.write(tmp_path / "run.json").read_text().splitlines()
        start = lines.index('  "cells": [')
        end = lines.index("  ],", start)
        block = lines[start + 1:end]
        assert len(block) == len(record.cells)
        for line, cell in zip(block, record.cells):
            assert line.startswith('    {"design": ')
            assert json.loads(line.rstrip(",")) == cell
        assert all(line.endswith(",") for line in block[:-1])
        assert not block[-1].endswith(",")


class TestAtomicWrite:
    def _existing(self, sweep, engine, tmp_path):
        target = tmp_path / "run.json"
        record_from_sweep("sweep", sweep, engine).write(target)
        return target, target.read_bytes()

    def test_encoder_failure_keeps_old_record(self, sweep, engine,
                                              tmp_path, monkeypatch):
        target, before = self._existing(sweep, engine, tmp_path)

        def broken(self, value):
            raise RuntimeError("encoder died")

        monkeypatch.setattr(json.JSONEncoder, "encode", broken)
        record = record_from_sweep("sweep-2", sweep, engine)
        with pytest.raises(RuntimeError, match="encoder died"):
            record.write(target)
        assert target.read_bytes() == before
        assert list(tmp_path.iterdir()) == [target]

    def test_replace_failure_removes_temp_file(self, sweep, engine,
                                               tmp_path, monkeypatch):
        target, before = self._existing(sweep, engine, tmp_path)

        def broken(source, destination):
            assert source.read_text().startswith("{")
            raise OSError("rename failed")

        monkeypatch.setattr("repro.eval.runs.os.replace", broken)
        record = record_from_sweep("sweep-2", sweep, engine)
        with pytest.raises(OSError, match="rename failed"):
            record.write(target)
        assert target.read_bytes() == before
        assert list(tmp_path.iterdir()) == [target]

    def test_overwrite_replaces_record(self, sweep, engine, tmp_path):
        target, _ = self._existing(sweep, engine, tmp_path)
        record_from_sweep("again", sweep, engine).write(target)
        assert load_record(target)["command"] == "again"
        assert list(tmp_path.iterdir()) == [target]


def _reference_text(record):
    """The record as the one-encoder-call-per-cell writer wrote it: the
    same indented envelope, with ``cells`` joined from a plain
    ``JSONEncoder().encode`` of each cell."""
    encode = json.JSONEncoder().encode
    parts = []
    for spec in dataclasses.fields(record):
        value = getattr(record, spec.name)
        if spec.name == "cells" and value:
            body = "[\n    " + ",\n    ".join(map(encode, value)) + "\n  ]"
        else:
            body = json.dumps(value, indent=2).replace("\n", "\n  ")
        parts.append(f"  {encode(spec.name)}: {body}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def _hand_built(cells):
    return RunRecord(command="hand", created_at="t", grid={}, cells=cells)


class TestCellWriterBytes:
    """The template writer's bytes equal the per-cell encoder's."""

    def test_grid_with_unsupported_cells(self, engine):
        sweep = engine.sweep(
            designs=("TC", "S2TA", "HighLight", "DSSO"),
            a_degrees=(0.0, 0.3, 0.5, 0.75), b_degrees=(0.0, 0.5, 0.9),
            m=128, k=128, n=128,
        )
        record = record_from_sweep("sweep", sweep, engine,
                                   wall_time_s=0.5, created_at="t")
        assert any(cell["metrics"] is None for cell in record.cells)
        assert record._to_json() == _reference_text(record)

    def test_model_sweep_cells(self, engine):
        sweep = sweep_model(
            get_model("ResNet50"), designs=("TC", "HighLight"),
            degrees=(0.0, 0.5), ctx=engine,
        )
        record = record_from_model_sweep("sweep-model", sweep, engine,
                                         created_at="t")
        assert record.cells
        assert record._to_json() == _reference_text(record)

    def test_artifact_record_with_empty_cells(self, estimator):
        outcome = RunPlan.from_names(["tables", "fig6"], estimator).run()
        record = record_from_artifacts("all", outcome.results,
                                       created_at="t")
        assert record.cells == []
        assert record._to_json() == _reference_text(record)

    def test_values_equal_but_encoded_differently(self):
        nan = float("nan")
        shared = {"x": 1.5, "flag": True}
        cells = [
            {"design": "A", "value": 0.0, "metrics": shared},
            {"design": "A", "value": -0.0, "metrics": shared},
            {"design": "B", "value": 1, "metrics": dict(shared)},
            {"design": "B", "value": 1.0, "metrics": {"x": 1.5, "flag": 1}},
            {"design": "C", "value": True, "metrics": None},
            {"design": "C", "value": nan, "metrics": {"x": nan}},
            {"design": "D", "value": float("nan"), "metrics": shared},
            {"design": "D", "value": float("-inf"), "metrics": [0, -0.0]},
        ]
        record = _hand_built(cells)
        text = record._to_json()
        assert text == _reference_text(record)
        for needle in ('"value": 0.0,', '"value": -0.0,', '"value": 1,',
                       '"value": 1.0,', '"value": true,', '"value": NaN,',
                       '"flag": 1}', '[0, -0.0]'):
            assert needle in text

    def test_differing_key_sets_and_orders(self):
        cells = [
            {"design": "A", "a": 0.5, "b": 0.25},
            {"a": 0.5, "design": "A", "b": 0.25},
            {"design": "A", "a": 0.5},
            {"design": "A", "a": 0.5, "b": 0.25, "extra": "%s %d %%"},
            {},
            {"design": "A", "a": 0.5, "b": 0.25},
        ]
        record = _hand_built(cells)
        assert record._to_json() == _reference_text(record)

    def test_template_keys_needing_escapes(self):
        cells = [{"%s": 1, 'quote"d': "%d", "ü": 2.5}] * 3
        record = _hand_built(cells)
        assert record._to_json() == _reference_text(record)

    def test_non_string_keys_and_non_dict_cells(self):
        for cells in (
            [{1: "one", 2.5: "two"}, {1: "uno", 2.5: "dos"}],
            [[1, 2], "cell", {"design": "A"}],
            [{"design": "A"}, ["not", "a", "dict"], {"design": "B"}],
        ):
            record = _hand_built(cells)
            assert record._to_json() == _reference_text(record)

    def test_stray_value_still_fails(self):
        record = _hand_built([{"design": "A"}, {"design": EngineStats()}])
        with pytest.raises(TypeError):
            record._to_json()


def _metrics(cycles, utilization=1.0):
    return Metrics(design="TC", workload="w", cycles=cycles,
                   energy_breakdown_pj={"mac": 2.0},
                   utilization=utilization)


class TestSharedSummaries:
    def _record(self, *per_cell):
        sweep = SweepResult(
            cells={(0.0, float(i)): {"TC": metrics}
                   for i, metrics in enumerate(per_cell)},
            design_order=("TC",),
        )
        return record_from_sweep("sweep", sweep, created_at="t")

    def test_equal_metrics_share_one_summary(self):
        first, second = _metrics(10.0), _metrics(10.0)
        assert first is not second
        record = self._record(first, second, first, None)
        summaries = [cell["metrics"] for cell in record.cells]
        assert summaries[0] is summaries[1] is summaries[2]
        assert summaries[0] == metrics_summary(first)
        assert summaries[3] is None
        assert record._to_json() == _reference_text(record)

    def test_equal_but_differently_encoded_metrics_stay_apart(self):
        record = self._record(_metrics(10), _metrics(10.0),
                              _metrics(float("nan")),
                              _metrics(float("nan")))
        summaries = [cell["metrics"] for cell in record.cells]
        assert summaries[0] is not summaries[1]
        assert summaries[0]["cycles"] == 10
        assert type(summaries[0]["cycles"]) is int
        assert type(summaries[1]["cycles"]) is float
        assert math.isnan(summaries[2]["cycles"])
        assert record._to_json() == _reference_text(record)

    def test_value_key_separates_types_and_zero_signs(self):
        distinct = [(0.0,), (-0.0,), (0,), (False,), (1,), (1.0,),
                    (True,), (None,), ("",)]
        keys = {_json_value_key(values) for values in distinct}
        assert len(keys) == len(distinct)
        assert _json_value_key((1.5, 0.0, False)) == _json_value_key(
            (1.5, 0.0, False)
        )
