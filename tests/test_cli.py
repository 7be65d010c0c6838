"""Tests for the CLI and the EXPERIMENTS.md report generator."""

import json
import os
import re
import sqlite3
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import pytest

from repro.cli import main
from repro.energy import Estimator
from repro.eval import experiments as E
from repro.eval.artifacts import ARTIFACTS
from repro.eval.cache import _sqlite_connect_rw, estimator_fingerprint
from repro.eval.report import run_report


class TestCli:
    def test_fig6_prints(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "muxing overhead" in out

    def test_tables_print(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "HighLight" in out

    def test_artifact_subcommand_form(self, capsys):
        assert main(["artifact", "fig6"]) == 0
        assert "muxing overhead" in capsys.readouterr().out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_artifact_registry_complete(self):
        assert set(ARTIFACTS) == {
            "tables", "fig2", "fig6", "fig13", "fig14", "fig15",
            "fig16", "fig17",
        }

    def test_run_artifacts_fast_subset(self, capsys):
        assert main(["fig6"]) == 0
        assert "15 supported densities" in capsys.readouterr().out

    def test_report_written(self, tmp_path, capsys):
        path = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--output", str(path)]) == 0
        content = path.read_text()
        assert "paper vs. measured" in content
        assert "## Paper claims" in content

    def test_output_outside_report_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["artifact", "fig6", "--output", "somewhere.md"])
        assert exit_info.value.code == 2
        assert "--output" in capsys.readouterr().err


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_report().document

    def test_covers_every_artifact(self, report):
        for artifact in (
            "Tables 1-4", "Fig. 2", "Fig. 6", "Fig. 13", "Fig. 14",
            "Fig. 15", "Fig. 16", "Fig. 17",
        ):
            assert artifact in report

    def test_records_headline_numbers(self, report):
        assert "6.4x" in report  # the paper's geomean claim
        assert "5.7%" in report  # the SAF area share

    def test_frontier_flags_positive(self, report):
        rows = [
            line for line in report.splitlines()
            if line.startswith("| fig15 ") and "frontier" in line
        ]
        assert len(rows) == 2
        assert all(row.endswith("| pass |") for row in rows)


class TestSweepSubcommand:
    def test_custom_grid_with_record(self, tmp_path, capsys):
        record_path = tmp_path / "runs" / "out.json"
        assert main([
            "sweep", "--designs", "TC,HighLight",
            "--a-degrees", "0.0,0.5", "--b-degrees", "0.0,0.25",
            "--size", "256",
            "--record", str(record_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "normalized edp" in out
        assert "geomean" in out
        record = json.loads(record_path.read_text())
        assert record["grid"]["designs"] == ["TC", "HighLight"]
        # 8 grid cells realize 6 unique (design, workload) pairs: TC's
        # dense workload is shared by all four of its cells, and
        # HighLight's dense-dense orientations collapse to one.
        assert record["cache"]["misses"] == 6
        assert record["cache"]["evaluations"] == 6
        assert len(record["cells"]) == 8
        assert record["geomeans"]["edp"]["TC"] == pytest.approx(1.0)

    def test_sweep_accepts_dsso(self, capsys):
        assert main([
            "sweep", "--designs", "HighLight,DSSO",
            "--a-degrees", "0.5", "--b-degrees", "0.5",
            "--size", "128",
        ]) == 0
        assert "DSSO" in capsys.readouterr().out

    def test_unknown_design_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--designs", "NoSuchDesign", "--size", "64"])
        assert "unknown design" in capsys.readouterr().err

    def test_bad_degree_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--a-degrees", "1.5"])

    def test_unnormalizable_baseline_errors_cleanly(self, capsys):
        """S2TA becomes the baseline but cannot process the dense-dense
        cell — a clean parser error, not an EvaluationError traceback."""
        with pytest.raises(SystemExit):
            main(["sweep", "--designs", "S2TA,HighLight",
                  "--size", "64"])
        assert "Include TC" in capsys.readouterr().err


class TestModelSweepSubcommand:
    def test_model_sweep_with_record(self, tmp_path, capsys):
        record_path = tmp_path / "model-run.json"
        assert main([
            "sweep", "--model", "DeiT-small",
            "--designs", "TC,HighLight", "--degrees", "0.0,0.5",
            "--record", str(record_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Network sweep — DeiT-small" in out
        assert "workloads evaluated" in out
        record = json.loads(record_path.read_text())
        assert record["command"] == "sweep-model"
        assert record["grid"]["model"] == "DeiT-small"
        assert record["grid"]["baseline"] == ["TC", 0.0]
        assert len(record["cells"]) == 4
        by_key = {
            (c["design"], c["weight_sparsity"]): c["metrics"]
            for c in record["cells"]
        }
        assert by_key[("TC", 0.0)]["normalized_edp"] == pytest.approx(1.0)
        assert by_key[("HighLight", 0.5)]["normalized_edp"] < 1.0

    def test_warm_persistent_cache_skips_all_evaluations(
        self, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        argv = [
            "sweep", "--model", "DeiT-small",
            "--designs", "TC,HighLight", "--degrees", "0.0,0.5",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv + ["--record", str(tmp_path / "cold.json")]) == 0
        cold_out = capsys.readouterr().out
        assert main(argv + ["--record", str(tmp_path / "warm.json")]) == 0
        warm_out = capsys.readouterr().out
        cold = json.loads((tmp_path / "cold.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        assert cold["cache"]["evaluations"] > 0
        assert warm["cache"]["evaluations"] == 0
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["disk_hits"] > 0
        assert cold["cells"] == warm["cells"]
        # The rendered tables (everything above the timing line) match.
        assert (
            cold_out.split("\n\n")[0] == warm_out.split("\n\n")[0]
        )

    def test_unknown_model_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--model", "AlexNet"])
        assert "unknown model" in capsys.readouterr().err

    def test_degrees_without_model_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--degrees", "0.5", "--size", "64"])
        assert "--model" in capsys.readouterr().err

    def test_grid_flags_with_model_rejected(self, capsys):
        """Grid-only flags must not be silently ignored on a model
        sweep."""
        for flag, value in (
            ("--a-degrees", "0.5"), ("--b-degrees", "0.5"),
            ("--size", "512"), ("--metric", "cycles"),
        ):
            with pytest.raises(SystemExit):
                main(["sweep", "--model", "DeiT-small", flag, value])
            assert "synthetic grids" in capsys.readouterr().err


class TestArtifactFormatsAndRecords:
    def test_json_format_keyed_by_artifact(self, capsys):
        assert main(["artifact", "fig6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"fig6"}
        assert payload["fig6"]["overhead_ratio"] > 2.0

    def test_csv_format_marks_artifacts(self, capsys):
        assert main(["artifact", "fig6", "fig17", "--format",
                     "csv"]) == 0
        out = capsys.readouterr().out
        assert "# artifact: fig6" in out
        assert "# artifact: fig17" in out
        assert "design,density,normalized_latency" in out

    def test_artifact_record_schema_v4(self, tmp_path, capsys):
        record_path = tmp_path / "artifact-run.json"
        assert main(["artifact", "fig6", "tables",
                     "--record", str(record_path)]) == 0
        assert "wrote" in capsys.readouterr().err
        record = json.loads(record_path.read_text())
        assert record["schema_version"] == 4
        assert record["command"] == "artifact"
        assert record["grid"]["artifacts"] == ["fig6", "tables"]
        assert set(record["artifacts"]) == {"fig6", "tables"}
        assert record["artifacts"]["fig6"]["rows"]
        # v4: per-artifact engine-stats deltas ride along.
        assert set(record["artifact_stats"]) == {"fig6", "tables"}
        for stats in record["artifact_stats"].values():
            assert set(stats) >= {
                "hits", "disk_hits", "misses", "evaluations",
                "requests", "wall_time_s",
            }

    def test_artifact_warm_cache_zero_evaluations(
        self, tmp_path, capsys
    ):
        cache_dir = tmp_path / "cache"
        argv = ["artifact", "fig13", "fig14",
                "--cache-dir", str(cache_dir)]
        assert main(argv + ["--record", str(tmp_path / "cold.json")]) == 0
        assert main(argv + ["--record", str(tmp_path / "warm.json")]) == 0
        capsys.readouterr()
        cold = json.loads((tmp_path / "cold.json").read_text())
        warm = json.loads((tmp_path / "warm.json").read_text())
        assert cold["cache"]["evaluations"] > 0
        assert warm["cache"]["evaluations"] == 0
        assert warm["cache"]["disk_hits"] > 0
        assert cold["artifacts"] == warm["artifacts"]

    def test_bad_format_rejected(self):
        with pytest.raises(SystemExit):
            main(["artifact", "fig6", "--format", "yaml"])


class TestModelFileSubcommand:
    MODEL = {
        "name": "TinyNet",
        "activation_sparsity": 0.1,
        "layers": [
            {"type": "linear", "name": "fc1", "in_features": 128,
             "out_features": 256, "tokens": 64},
            {"type": "conv", "name": "c1", "in_channels": 16,
             "out_channels": 32, "kernel": 3, "input_size": 28,
             "padding": 1},
        ],
        "prunable": ["fc1"],
    }

    def _write(self, tmp_path, data):
        path = tmp_path / "net.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_model_file_sweeps(self, tmp_path, capsys):
        path = self._write(tmp_path, self.MODEL)
        assert main([
            "sweep", "--model-file", path,
            "--designs", "TC,HighLight", "--degrees", "0.0,0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "Network sweep — TinyNet" in out

    def test_missing_field_listed(self, tmp_path, capsys):
        bad = json.loads(json.dumps(self.MODEL))
        del bad["layers"][0]["out_features"]
        with pytest.raises(SystemExit):
            main(["sweep", "--model-file", self._write(tmp_path, bad)])
        err = capsys.readouterr().err
        assert "missing field(s): out_features" in err
        assert "required" in err

    def test_unknown_field_listed(self, tmp_path, capsys):
        bad = json.loads(json.dumps(self.MODEL))
        bad["layers"][1]["dilation"] = 2
        with pytest.raises(SystemExit):
            main(["sweep", "--model-file", self._write(tmp_path, bad)])
        assert "unknown field(s): dilation" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["ResNet50", "resnet50"])
    def test_builtin_shadowing_is_a_loud_error(
        self, tmp_path, capsys, name
    ):
        """A model file named after a builtin — any case variant, since
        names resolve case-insensitively — must fail loudly instead of
        silently replacing (or unreachably shadowing) the builtin."""
        from repro.dnn.models import MODEL_BUILDERS, get_model

        shadow = json.loads(json.dumps(self.MODEL))
        shadow["name"] = name
        path = self._write(tmp_path, shadow)
        with pytest.raises(SystemExit) as exit_info:
            main([
                "sweep", "--model-file", path,
                "--designs", "TC", "--degrees", "0.0",
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "built-in" in err
        assert path in err
        assert name not in MODEL_BUILDERS or name == "ResNet50"
        # The builtin still resolves to its 22-layer table.
        assert len(get_model("resnet50").layers) == 22

    def test_rerunning_the_same_model_file_is_fine(
        self, tmp_path, capsys
    ):
        """Sweeping one file twice in one process works: the table is
        swept inline, never registered, so the second run cannot
        collide with the first."""
        path = self._write(tmp_path, self.MODEL)
        argv = ["sweep", "--model-file", path,
                "--designs", "TC", "--degrees", "0.0"]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "Network sweep — TinyNet" in capsys.readouterr().out

    def test_model_and_model_file_conflict(self, tmp_path, capsys):
        path = self._write(tmp_path, self.MODEL)
        with pytest.raises(SystemExit):
            main(["sweep", "--model", "DeiT-small",
                  "--model-file", path])
        assert "mutually exclusive" in capsys.readouterr().err


class TestProfileSubcommand:
    def _profile(self, tmp_path, data):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_profile_changes_the_sweep(self, tmp_path, capsys):
        argv = ["sweep", "--model", "DeiT-small",
                "--designs", "HighLight", "--degrees", "0.5"]
        assert main(argv) == 0
        plain = capsys.readouterr().out.split("\n\n")[0]
        path = self._profile(
            tmp_path, {"ff1": 0.75, "ff2": {"pattern": "2:4"}}
        )
        assert main(argv + ["--profile", path]) == 0
        profiled = capsys.readouterr().out.split("\n\n")[0]
        assert profiled != plain

    def test_unknown_layer_listed(self, tmp_path, capsys):
        path = self._profile(tmp_path, {"no_such_layer": 0.5})
        with pytest.raises(SystemExit):
            main(["sweep", "--model", "DeiT-small",
                  "--profile", path])
        assert "no_such_layer" in capsys.readouterr().err

    def test_profile_without_model_rejected(self, tmp_path, capsys):
        path = self._profile(tmp_path, {"ff1": 0.5})
        with pytest.raises(SystemExit):
            main(["sweep", "--profile", path])
        assert "--model" in capsys.readouterr().err

    def test_bad_profile_degree_rejected(self, tmp_path, capsys):
        path = self._profile(tmp_path, {"ff1": 1.5})
        with pytest.raises(SystemExit):
            main(["sweep", "--model", "DeiT-small",
                  "--profile", path])
        assert "[0, 1)" in capsys.readouterr().err


class TestCacheMergeSubcommand:
    def _fill_shard(self, cache_dir, degree):
        assert main([
            "sweep", "--designs", "TC,HighLight",
            "--a-degrees", degree, "--b-degrees", "0.0",
            "--size", "128", "--cache-dir", str(cache_dir),
        ]) == 0

    def test_merge_enables_warm_run(self, tmp_path, capsys):
        shard1, shard2 = tmp_path / "s1", tmp_path / "s2"
        self._fill_shard(shard1, "0.0")
        self._fill_shard(shard2, "0.5")
        merged = tmp_path / "merged"
        capsys.readouterr()
        assert main([
            "cache", "merge", str(shard1), str(shard2),
            "--cache-dir", str(merged),
        ]) == 0
        assert "merged 2 shard(s)" in capsys.readouterr().out
        record_path = tmp_path / "warm.json"
        assert main([
            "sweep", "--designs", "TC,HighLight",
            "--a-degrees", "0.0,0.5", "--b-degrees", "0.0",
            "--size", "128", "--cache-dir", str(merged),
            "--record", str(record_path),
        ]) == 0
        record = json.loads(record_path.read_text())
        assert record["cache"]["evaluations"] == 0
        assert record["cache"]["disk_hits"] > 0

    def test_mismatched_fingerprints_refused(self, tmp_path, capsys):
        shard = tmp_path / "s1"
        self._fill_shard(shard, "0.0")
        foreign = tmp_path / "foreign"
        _sqlite_connect_rw(
            foreign / ("deadbeef" * 2 + ".db"), "deadbeef" * 2
        ).close()
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["cache", "merge", str(shard), str(foreign),
                  "--cache-dir", str(tmp_path / "out")])
        assert "mismatched" in capsys.readouterr().err

    def test_leftover_json_source_refused(self, tmp_path, capsys):
        shard = tmp_path / "s1"
        self._fill_shard(shard, "0.0")
        (db,) = shard.glob("*.db")
        leftover = db.with_suffix(".json")
        leftover.write_text("{}")
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["cache", "merge", str(shard),
                  "--cache-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert str(leftover) in err
        assert "older version" in err

    def test_merge_without_sources_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["cache", "merge"])
        assert "at least one source" in capsys.readouterr().err

    def test_stats_rejects_dir_arguments(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["cache", "stats", str(tmp_path)])
        assert "merge" in capsys.readouterr().err


class TestCacheSubcommand:
    def test_stats_and_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "sweep", "--model", "DeiT-small", "--designs", "TC",
            "--degrees", "0.0", "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
                     str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "total entries" in out
        assert ".db" in out
        assert "sqlite" in out
        assert main(["cache", "clear", "--cache-dir",
                     str(cache_dir)]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir",
                     str(cache_dir)]) == 0
        assert "(empty)" in capsys.readouterr().out

    def test_stats_show_backend_column(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "sweep", "--designs", "TC", "--a-degrees", "0.0",
            "--b-degrees", "0.0", "--size", "128",
            "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir",
                     str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert ".db" in out
        assert "sqlite" in out

    def test_stats_json_is_the_serve_stats_cache_payload(
        self, tmp_path, capsys
    ):
        from repro.eval.cache import cache_stats

        cache_dir = tmp_path / "cache"
        assert main([
            "sweep", "--model", "DeiT-small", "--designs", "TC",
            "--degrees", "0.0", "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--format", "json",
                     "--cache-dir", str(cache_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        # Exactly the document GET /v1/stats serves under "cache".
        assert payload == cache_stats(cache_dir)
        assert payload["total_entries"] > 0
        assert payload["files"][0]["backend"] == "sqlite"

    def test_fresh_cache_dir_holds_only_the_database(self, tmp_path,
                                                     capsys):
        """`repro all` on a fresh --cache-dir leaves exactly one
        <fingerprint>.db behind (no JSON, no WAL sidecars), and a warm
        rerun evaluates nothing."""
        cache_dir = tmp_path / "cache"
        argv = ["all", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        fingerprint = estimator_fingerprint(Estimator())
        assert [p.name for p in cache_dir.iterdir()] == [
            f"{fingerprint}.db"
        ]
        record_path = tmp_path / "warm.json"
        assert main(argv + ["--record", str(record_path)]) == 0
        capsys.readouterr()
        record = json.loads(record_path.read_text())
        assert record["cache"]["evaluations"] == 0
        assert record["cache"]["disk_hits"] > 0

    def test_json_format_only_applies_to_stats(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["cache", "clear", "--format", "json",
                  "--cache-dir", str(tmp_path)])
        assert (
            "--format only applies to 'cache stats'"
            in capsys.readouterr().err
        )

    def test_env_var_cache_dir(self, tmp_path, capsys, monkeypatch):
        cache_dir = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main([
            "sweep", "--model", "DeiT-small", "--designs", "TC",
            "--degrees", "0.0",
        ]) == 0
        capsys.readouterr()
        assert cache_dir.is_dir()
        assert main(["cache", "stats"]) == 0
        assert str(cache_dir) in capsys.readouterr().out


class TestCacheDirValidation:
    @pytest.mark.parametrize("argv", (
        ["sweep", "--designs", "TC", "--size", "64"],
        ["serve", "--port", "0"],
        ["cache", "stats"],
        ["cache", "stats", "--format", "json"],
        ["cache", "clear"],
    ), ids=("sweep", "serve", "stats", "stats-json", "clear"))
    def test_cache_dir_naming_a_file_is_a_usage_error(
        self, tmp_path, capsys, argv
    ):
        """Refused when the cache opens — before any evaluation is
        printed or any request is accepted — not as a traceback from
        the final flush."""
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--cache-dir", str(not_a_dir)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not a directory" in captured.err
        assert "Traceback" not in captured.err
        assert not_a_dir.exists()


class TestOutputPathValidation:
    @pytest.mark.parametrize("argv, target", (
        (["sweep", "--designs", "TC", "--size", "64", "--record"], "."),
        (["tables", "--record"], "."),
        (["report", "--output"], "missing/x.md"),
        (["report", "--output"], "."),
        (["sweep", "--designs", "TC", "--size", "64", "--record"],
         "file/x.json"),
    ), ids=(
        "sweep-record-dir", "artifact-record-dir", "report-missing-dir",
        "report-output-dir",
        "record-under-a-file",
    ))
    def test_unwritable_output_is_a_usage_error(
        self, tmp_path, capsys, argv, target
    ):
        """Refused before any evaluation, not as a traceback from the
        final write."""
        (tmp_path / "file").write_text("")
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [str(tmp_path / target)])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    @pytest.mark.parametrize("fmt", ("full", "md"))
    def test_failed_report_write_keeps_the_old_report(
        self, tmp_path, monkeypatch, fmt
    ):
        """The report is written beside the target and renamed over
        it, so a write that fails leaves the old file whole. ``md``
        writes the markdown report alone; ``full`` also asks for the
        run record, which a failed report write must not leave
        behind either."""
        import repro.eval.runs as runs_mod

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(runs_mod.os, "replace", failing_replace)
        output = tmp_path / "EXPERIMENTS.md"
        output.write_text("old report\n")
        argv = ["report", "--output", str(output)]
        if fmt == "full":
            argv += ["--record", str(tmp_path / "run.json")]
        with pytest.raises(OSError, match="disk full"):
            main(argv)
        assert output.read_text() == "old report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["EXPERIMENTS.md"]


#: The ``jobs`` table an older version's job queue created inside the
#: cache database. Caches filled that way still carry it.
LEFTOVER_JOBS_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS jobs ("
    " digest TEXT PRIMARY KEY,"
    " design TEXT NOT NULL,"
    " workload TEXT NOT NULL,"
    " status TEXT NOT NULL DEFAULT 'pending',"
    " worker TEXT,"
    " lease_until REAL,"
    " attempts INTEGER NOT NULL DEFAULT 0,"
    " error TEXT)",
    "CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status)",
)


class TestLeftoverJobsTable:
    """A cache database that still carries an old job-queue ``jobs``
    table is an ordinary cache: served, counted and merged as one."""

    GRID = [
        "--designs", "TC,HighLight", "--a-degrees", "0.0,0.5",
        "--b-degrees", "0.0", "--size", "128",
    ]

    @pytest.fixture
    def cache_dir(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["sweep", *self.GRID,
                     "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        (db,) = cache_dir.glob("*.db")
        with closing(sqlite3.connect(db)) as conn:
            for statement in LEFTOVER_JOBS_SCHEMA:
                conn.execute(statement)
            digests = conn.execute("SELECT digest FROM entries").fetchall()
            conn.executemany(
                "INSERT INTO jobs (digest, design, workload, status) "
                "VALUES (?, 'TC', '{}', 'done')",
                digests,
            )
            conn.commit()
        return cache_dir

    def test_warm_sweep_evaluates_nothing(self, cache_dir, capsys):
        assert main(["sweep", *self.GRID,
                     "--cache-dir", str(cache_dir)]) == 0
        trailer = capsys.readouterr().out.rstrip("\n").rsplit("\n", 1)[-1]
        evaluated, _, disk_hits = PERFBENCH_TRAILER.search(trailer).groups()
        assert evaluated == "0", trailer
        assert int(disk_hits) > 0, trailer

    def test_stats_json_has_no_queue_key(self, cache_dir, capsys):
        assert main(["cache", "stats", "--format", "json",
                     "--cache-dir", str(cache_dir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_entries"] > 0
        assert "queue" not in payload
        assert all("queue" not in f for f in payload["files"])

    def test_stats_text_counts_the_entries(self, cache_dir, capsys):
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "total entries" in out
        assert "queue" not in out

    def test_merge_copies_the_entries(self, cache_dir, tmp_path, capsys):
        merged = tmp_path / "merged"
        assert main(["cache", "merge", str(cache_dir),
                     "--cache-dir", str(merged)]) == 0
        assert "merged 1 shard(s)" in capsys.readouterr().out
        assert main(["sweep", *self.GRID,
                     "--cache-dir", str(merged)]) == 0
        assert "0 workloads evaluated" in capsys.readouterr().out


class TestListSubcommand:
    def test_lists_all_designs_and_artifacts(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("TC", "STC", "S2TA", "DSTC", "HighLight", "DSSO"):
            assert name in out
        for artifact in ARTIFACTS.names():
            assert artifact in out

    def test_metadata_filter(self, capsys):
        assert main(["list", "--filter", "sparsity_side=dual"]) == 0
        out = capsys.readouterr().out
        assert "DSSO" in out
        assert "HighLight" not in out

    def test_bad_filter_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["list", "--filter", "nonsense"])

    def test_unknown_filter_key_names_the_known_keys(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["list", "--filter", "nosuch=v"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown --filter key 'nosuch'" in captured.err
        assert "category" in captured.err
        assert "sparsity_side" in captured.err

    def test_known_key_without_match_prints_empty_table(self, capsys):
        assert main(["list", "--filter", "sparsity_side=bogus"]) == 0
        designs = capsys.readouterr().out.split("\n\nArtifacts")[0]
        for name in ("TC", "STC", "S2TA", "DSTC", "HighLight", "DSSO"):
            assert name not in designs

    @staticmethod
    def _listed_designs(capsys, *filters):
        argv = ["list"]
        for item in filters:
            argv += ["--filter", item]
        assert main(argv) == 0
        designs = capsys.readouterr().out.split("\n\nArtifacts")[0]
        return [line.split()[0] for line in designs.splitlines()[3:]]

    def test_bool_filter_skips_int_metadata(self, capsys):
        """``True == 1`` in Python; STC's ``table4_order=1`` still is
        no match for ``true``."""
        assert self._listed_designs(capsys, "table4_order=true") == []
        assert self._listed_designs(capsys, "table4_order=1") == ["STC"]

    def test_int_filter_skips_bool_metadata(self, capsys):
        assert self._listed_designs(capsys, "main_evaluation=1") == []
        assert self._listed_designs(capsys, "main_evaluation=true") == [
            "TC", "STC", "S2TA", "DSTC", "HighLight",
        ]

    @pytest.mark.parametrize(
        "filters, golden",
        [((), "list.txt"),
         (("--filter", "sparsity_side=dual"),
          "list_sparsity_side_dual.txt")],
        ids=["plain", "sparsity-side-dual"],
    )
    def test_output_matches_golden(self, capsys, filters, golden):
        """Design metadata lives in the registration table: its order
        and every field print as they always have."""
        assert main(["list", *filters]) == 0
        expected = (Path(__file__).parent / "golden" / golden).read_text()
        assert capsys.readouterr().out == expected


class TestSingleEvaluationRegression:
    def test_repro_all_evaluates_each_pair_once(self, monkeypatch):
        """`repro all` regenerates Fig. 14 (and Fig. 16's breakdown
        cell) from the Fig. 13 sweep without re-evaluating anything:
        the counting spy must see each unique (design, workload) pair
        exactly once — and nothing outside the grid's realizations."""
        import repro.eval.engine as engine_mod

        calls = []
        real = engine_mod.evaluate_workload

        def counting(design, workload, estimator):
            calls.append((design.name, workload.key()))
            return real(design, workload, estimator)

        monkeypatch.setattr(engine_mod, "evaluate_workload", counting)
        estimator = Estimator()
        # The exact shape of `repro all`'s sweep reuse: fig13, then
        # fig14 re-running fig13, then fig16 revisiting a grid cell.
        E.fig13(estimator)
        E.fig14(E.fig13(estimator))
        E.fig16(estimator)
        assert calls, "spy never engaged"
        assert len(calls) == len(set(calls))
        grid = engine_mod.grid_cells(
            ("TC", "STC", "DSTC", "S2TA", "HighLight"),
            E.A_DEGREES, E.B_DEGREES,
        )
        expected = engine_mod.SweepEngine(estimator).key_cells(grid).keys
        assert set(calls) == set(expected)


class TestColdCacheCounts:
    """Cache counters of cold runs, pinned. Both network sweeps and
    degree grids key through one realization step, so a change in how
    either route realizes or keys a cell moves these counts."""

    @pytest.mark.parametrize("argv, counts", [
        (["all"], (1162, 528, 634)),
        (["sweep", "--model", "ResNet50"], (418, 19, 399)),
    ], ids=["all", "sweep-ResNet50"])
    def test_cold_counts(self, argv, counts, tmp_path, capsys):
        record_path = tmp_path / "run.json"
        assert main(argv + ["--record", str(record_path)]) == 0
        cache = json.loads(record_path.read_text())["cache"]
        assert (
            cache["requests"], cache["hits"], cache["misses"]
        ) == counts
        assert cache["disk_hits"] == 0




class TestServeParser:
    @pytest.mark.parametrize("port", ["-1", "70000", "abc"])
    def test_bad_port_rejected_by_parser(self, port, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", port])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--port" in err
        assert "0-65535" in err or "integer" in err


#: perfbench's ``_TRAILER`` pattern (perfbench/cli_workloads.py): the
#: end-to-end benchmark reads each sweep's evaluation count from it.
PERFBENCH_TRAILER = re.compile(
    r"(\d+) workloads evaluated, (\d+) memory hits, (\d+) disk hits"
)


class TestSweepTrailers:
    """The last stdout line of a sweep is a parsed contract."""

    @staticmethod
    def _trailer(out):
        return out.rstrip("\n").rsplit("\n", 1)[-1]

    def test_grid_sweep_trailer(self, capsys):
        assert main([
            "sweep", "--designs", "TC,HighLight",
            "--a-degrees", "0.0,0.5", "--b-degrees", "0.0,0.25",
            "--size", "256",
        ]) == 0
        trailer = self._trailer(capsys.readouterr().out)
        assert re.fullmatch(
            r"2 designs x 2x2 degree grid @ 256\^3, 6 workloads "
            r"evaluated, 4 memory hits, 0 disk hits in \d+\.\d\ds",
            trailer,
        ), trailer
        assert PERFBENCH_TRAILER.search(trailer).groups() == (
            "6", "4", "0"
        )

    def test_duplicate_degrees_do_not_inflate_the_grid(
        self, tmp_path, capsys
    ):
        """Repeated degrees collapse in order: one table row, a 1x1
        grid in the trailer and the record, and no duplicate cells
        probed (the three unique candidates, no memory hits)."""
        record_path = tmp_path / "dup.json"
        assert main([
            "sweep", "--designs", "TC,HighLight",
            "--a-degrees", "0.5,0.5", "--b-degrees", "0,0.0",
            "--size", "256", "--record", str(record_path),
        ]) == 0
        (trailer,) = [
            line for line in capsys.readouterr().out.splitlines()
            if "degree grid" in line
        ]
        assert re.fullmatch(
            r"2 designs x 1x1 degree grid @ 256\^3, 3 workloads "
            r"evaluated, 0 memory hits, 0 disk hits in \d+\.\d\ds",
            trailer,
        ), trailer
        record = json.loads(record_path.read_text())
        assert len(record["cells"]) == 2
        assert record["cache"]["requests"] == 3

    def test_negative_zero_degree_is_zero(self, tmp_path, capsys):
        """``-0.0`` parses to ``0.0``: the same table and run-record
        cells as ``0.0``, no ``-0%`` row, and ``-0.0,0`` is one
        degree."""
        outputs, records = [], []
        for zero in ("-0.0", "0.0"):
            record_path = tmp_path / f"{zero}.json"
            assert main([
                "sweep", "--designs", "TC,HighLight",
                f"--a-degrees={zero},0.5", f"--b-degrees={zero}",
                "--size", "64", "--record", str(record_path),
            ]) == 0
            out = capsys.readouterr().out
            outputs.append(out[:out.index("\n\n")])
            records.append(json.loads(record_path.read_text())["cells"])
        assert "-0%" not in outputs[0]
        assert outputs[0] == outputs[1]
        assert records[0] == records[1]
        assert main([
            "sweep", "--designs", "TC", "--a-degrees=-0.0,0",
            "--b-degrees", "0.5", "--size", "64",
        ]) == 0
        assert "1x1 degree grid" in capsys.readouterr().out

    def test_model_sweep_trailer(self, capsys):
        assert main([
            "sweep", "--model", "DeiT-small",
            "--designs", "TC,HighLight", "--degrees", "0.0,0.5",
        ]) == 0
        trailer = self._trailer(capsys.readouterr().out)
        assert re.fullmatch(
            r"2 designs on DeiT-small, 15 workloads evaluated, "
            r"9 memory hits, 0 disk hits in \d+\.\d\ds",
            trailer,
        ), trailer
        assert PERFBENCH_TRAILER.search(trailer).groups() == (
            "15", "9", "0"
        )


class TestSizeValidation:
    @pytest.mark.parametrize("value", ("0", "-5"))
    @pytest.mark.parametrize("command", (["sweep"],), ids=("sweep",))
    def test_non_positive_size_is_a_usage_error(
        self, tmp_path, capsys, command, value
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(command + [
                "--size", value, "--cache-dir", str(tmp_path),
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --size: must be >= 1" in err
        assert "Traceback" not in err


class TestExecutionPath:
    @pytest.mark.parametrize("argv", (
        ["queue", "fill"], ["queue", "stats"], ["worker"],
    ), ids=("queue-fill", "queue-stats", "worker"))
    def test_job_queue_commands_are_gone(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_commands_are_the_subcommands(self):
        """A bare first word is read as an artifact name only when it
        is not a subcommand, so ``COMMANDS`` must list them all."""
        from repro.cli import COMMANDS, build_parser

        (subcommands,) = [
            action.choices for action in build_parser()._actions
            if action.dest == "command"
        ]
        assert set(COMMANDS) == set(subcommands)

    def test_jobs_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_cli_import_does_not_load_multiprocessing(self):
        """Evaluation is serial and in-process, so nothing on the CLI's
        import path may pull in a process pool."""
        assert loaded_after(
            "import repro.cli",
            ("multiprocessing", "concurrent.futures.process"),
        ) == []


def loaded_after(code, modules):
    """Which of ``modules`` a fresh interpreter has imported after
    running ``code`` (stdout of ``code`` is discarded)."""
    probe = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + f"print(json.dumps(sorted(m for m in {tuple(modules)!r} "
        "if m in sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env=env,
    )
    return json.loads(result.stdout)


#: Layers ``repro list`` and ``repro sweep`` never use.
HEAVY_MODULES = (
    "numpy", "asyncio", "repro.serve", "repro.analysis",
    "repro.sparsity.spec",
)

#: What only running an evaluation needs.
EVALUATION_MODULES = (
    "repro.eval.experiments", "repro.eval.engine", "repro.eval.cache",
    "repro.eval.runs",
)

#: Serves one ``{"artifacts": "all"}`` request on an in-process
#: service and checks the stream finished.
SERVE_ALL_PROBE = """\
import asyncio
from repro.eval.engine import EngineContext
from repro.serve.server import EvaluationService
async def serve_all():
    service = EvaluationService(EngineContext.create(), port=0)
    await service.start()
    try:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", service.port)
        body = json.dumps({"artifacts": "all"}).encode()
        writer.write(
            b"POST /v1/artifacts HTTP/1.1\\r\\nHost: localhost\\r\\n"
            + b"Content-Length: %d\\r\\n\\r\\n" % len(body) + body)
        await writer.drain()
        data = await reader.read()
        writer.close()
    finally:
        await service.aclose()
    status = data.split(b"\\r\\n", 1)[0]
    if b" 200 " not in status or b'"finished"' not in data:
        raise SystemExit(data[:500])
asyncio.run(serve_all())
"""


class TestImportBudget:
    """Each command imports only the layers it uses. Module sets are
    deterministic where a startup-time budget would be noise."""

    def test_list_loads_no_heavy_layer(self):
        assert loaded_after(
            "from repro.cli import main\nmain(['list'])", HEAVY_MODULES
        ) == []

    def test_list_reads_only_the_registries(self):
        """The artifact registry holds names and titles; listing it
        imports no experiment, engine, cache or run-record code."""
        assert loaded_after(
            "from repro.cli import main\nmain(['list'])",
            EVALUATION_MODULES + ("sqlite3",),
        ) == []

    def test_list_loads_no_cost_model(self):
        """Designs register as data; listing them imports no design
        class and none of the cost model behind one."""
        assert loaded_after(
            "from repro.cli import main\nmain(['list'])",
            tuple(
                f"repro.accelerators.{name}"
                for name in (
                    "base", "tc", "stc", "s2ta", "dstc", "highlight",
                    "dsso",
                )
            ) + (
                "repro.model.workload", "repro.model.perf",
                "repro.energy", "repro.arch", "repro.sparsity",
            ),
        ) == []

    def test_six_design_sweep_loads_no_heavy_layer(self, tmp_path):
        argv = [
            "sweep", "--designs", "TC,STC,S2TA,DSTC,HighLight,DSSO",
            "--a-degrees", "0,0.5", "--b-degrees", "0,0.5",
            "--size", "64", "--cache-dir", str(tmp_path),
        ]
        assert loaded_after(
            f"from repro.cli import main\nmain({argv!r})",
            HEAVY_MODULES + (
                "repro.eval.experiments", "repro.eval.artifacts",
                "repro.dnn",
            ),
        ) == []
        assert list(tmp_path.iterdir()), "the sweep wrote no cache"

    @pytest.mark.parametrize("warm", (False, True), ids=("no-cache", "warm"))
    def test_all_loads_no_numpy(self, tmp_path, warm):
        """The paper artifacts parse sparsity specs but never build a
        fibertree, so ``repro all`` runs without numpy."""
        argv = ["all"]
        if warm:
            argv += ["--cache-dir", str(tmp_path)]
            assert main(argv) == 0
        assert loaded_after(
            f"from repro.cli import main\nmain({argv!r})",
            ("numpy", "repro.fibertree"),
        ) == []

    def test_all_runs_with_numpy_blocked(self):
        """With numpy unimportable, ``repro all`` still prints the
        golden output byte for byte."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys\nsys.modules['numpy'] = None\n"
             "from repro.cli import main\nsys.exit(main(['all']))"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        golden = Path(__file__).parent / "golden" / "all.txt"
        assert result.stdout == golden.read_text()

    def test_report_loads_no_numpy(self, tmp_path):
        """``repro report`` runs every artifact and checks every claim
        without numpy; the commands that check no claims never import
        the claim checks."""
        argv = ["report", "--output", str(tmp_path / "EXPERIMENTS.md")]
        assert loaded_after(
            f"from repro.cli import main\nmain({argv!r})", ("numpy",)
        ) == []
        for code in (
            "from repro.cli import main\nmain(['list'])",
            "from repro.cli import main\nmain(['all'])",
            SERVE_ALL_PROBE,
        ):
            assert loaded_after(code, ("repro.eval.claims",)) == [], code

    def test_served_all_loads_no_numpy(self):
        """An in-process service answering ``{"artifacts": "all"}``
        never imports numpy."""
        assert loaded_after(SERVE_ALL_PROBE, ("numpy",)) == []

    def test_serve_imports_without_numpy(self):
        assert loaded_after("import repro.serve.server", ("numpy",)) == []
