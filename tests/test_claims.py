"""Tests for registered paper claims and the report's claims table.

Each claim itself runs as ``Test<Artifact>::test_<claim id>`` in
``test_eval_experiments.py``; this module tests the machinery.
"""

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.errors import EvaluationError
from repro.eval import claims
from repro.eval.artifacts import (
    ARTIFACTS,
    ArtifactRegistry,
    Claim,
    register_artifact,
)
from repro.eval.report import ClaimOutcome, claims_table

_E = "repro.eval.experiments"


def _register(registry, name, *claim_ids):
    return register_artifact(
        name, f"{_E}:fig6", f"{_E}:Fig6Result",
        text="repro.eval.reporting:render_fig6", registry=registry,
        claims=[Claim(i, "paper", f"{_E}:fig6") for i in claim_ids],
    )


class TestRegistration:
    def test_every_artifact_but_tables_claims_something(self):
        assert [i.name for i in ARTIFACTS.infos() if not i.claims] == [
            "tables"
        ]

    def test_check_resolves_on_first_access(self):
        claim = Claim(
            "x", "paper", "repro.eval.claims:fig6_overhead_ratio_above_2"
        )
        assert "check" not in vars(claim)
        assert claim.check is claims.fig6_overhead_ratio_above_2
        assert "check" in vars(claim)

    def test_duplicate_id_across_artifacts_rejected(self):
        registry = ArtifactRegistry()
        _register(registry, "a", "one")
        with pytest.raises(EvaluationError, match="one"):
            _register(registry, "b", "one")
        assert "b" not in registry

    def test_duplicate_id_within_artifact_rejected(self):
        with pytest.raises(EvaluationError, match="twice"):
            _register(ArtifactRegistry(), "a", "twice", "twice")


class TestClaimsTable:
    def test_rows_and_escaping(self):
        claim = Claim("ratio", "a | b", "unused:attr")
        table = claims_table([
            ClaimOutcome("fig6", claim, "2.67x", True),
            ClaimOutcome("fig6", replace(claim, id="other"), "1x", False),
        ])
        assert table.startswith("## Paper claims")
        assert "1 of 2 claims hold" in table
        assert "| fig6 `ratio` | a \\| b | 2.67x | pass |" in table
        assert table.endswith("| fig6 `other` | a \\| b | 1x | FAIL |")


class TestReportCommand:
    def test_failing_claim_is_a_fail_row_and_exit_1(
        self, tmp_path, monkeypatch, capsys
    ):
        info = ARTIFACTS["fig6"]
        failing = Claim(
            "always_fails", "a claim this build misses",
            lambda result, ctx: ("measured", False),
        )
        monkeypatch.setitem(
            ARTIFACTS._artifacts, "fig6",
            replace(info, claims=info.claims + (failing,)),
        )
        output = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--output", str(output)]) == 1
        document = output.read_text()
        assert (
            "| fig6 `always_fails` | a claim this build misses "
            "| measured | FAIL |" in document
        )
        # Written whole: every section, then a row per claim.
        rows = [line for line in document.splitlines()
                if line.startswith("| fig")]
        assert len(rows) == sum(len(i.claims) for i in ARTIFACTS.infos())
        assert sum(row.endswith("| FAIL |") for row in rows) == 1
        captured = capsys.readouterr()
        assert f"wrote {output}" in captured.out
        assert "always_fails" in captured.err

    def test_record_needs_no_format(self, tmp_path, capsys):
        record = tmp_path / "runs" / "report.json"
        assert main([
            "report", "--output", str(tmp_path / "EXPERIMENTS.md"),
            "--record", str(record),
        ]) == 0
        payload = json.loads(record.read_text())
        assert payload["command"] == "report"
        assert list(payload["artifacts"]) == list(ARTIFACTS)

    def test_format_option_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["report", "--format", "md",
                  "--output", str(tmp_path / "x.md")])
        assert exit_info.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
