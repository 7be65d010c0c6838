"""Generate EXPERIMENTS.md: every artifact, then the paper's claims.

:func:`run_report` runs the registered artifacts as one
:class:`~repro.eval.artifacts.RunPlan`, stacks each result's ``md``
rendering (the registry's own markdown section) under a document
header, and closes with a "Paper claims" table: every
:class:`~repro.eval.artifacts.Claim` the artifacts register, checked
against the measured results. A new artifact or claim shows up in the
report by being registered, with no report code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.eval.artifacts import Claim, RunOutcome
    from repro.eval.engine import ContextLike, EngineContext

MD_HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by ``python -m repro report``: every registered artifact
rendered as a markdown section, in paper order, then each paper claim
the artifacts register, checked against the measured results. Each
section regenerates standalone via the command it names. Absolute
pJ/cycle values differ from the authors' 65 nm RTL + Sparseloop
numbers by construction; the reproduction targets are the *relative*
results the claims state.
"""


@dataclass(frozen=True)
class ClaimOutcome:
    """One registered claim checked against its artifact's result."""

    artifact: str
    claim: Claim
    measured: str
    passed: bool


@dataclass(frozen=True)
class Report:
    """A generated EXPERIMENTS.md and what it was built from."""

    document: str
    outcome: RunOutcome
    claims: Tuple[ClaimOutcome, ...]

    @property
    def failed(self) -> Tuple[ClaimOutcome, ...]:
        return tuple(c for c in self.claims if not c.passed)


def check_claims(
    results: Dict[str, Any], ctx: EngineContext
) -> Tuple[ClaimOutcome, ...]:
    """Every claim registered on the artifacts in ``results`` (name ->
    structured result), checked in registry order under ``ctx``."""
    from repro.eval.artifacts import ARTIFACTS

    outcomes = []
    for name, result in results.items():
        for claim in ARTIFACTS[name].claims:
            measured, passed = claim.check(result, ctx)
            outcomes.append(
                ClaimOutcome(name, claim, measured, bool(passed))
            )
    return tuple(outcomes)


def _cell(text: str) -> str:
    return text.replace("|", "\\|")


def claims_table(outcomes: Sequence[ClaimOutcome]) -> str:
    """The report's closing "Paper claims" section."""
    held = sum(outcome.passed for outcome in outcomes)
    lines = [
        "## Paper claims",
        "",
        f"{held} of {len(outcomes)} claims hold. Each row is a "
        "registered claim; `repro report` exits 1 if any row reads "
        "FAIL.",
        "",
        "| claim | paper | measured | pass |",
        "|---|---|---|---|",
    ]
    lines.extend(
        f"| {outcome.artifact} `{outcome.claim.id}` "
        f"| {_cell(outcome.claim.paper)} | {_cell(outcome.measured)} "
        f"| {'pass' if outcome.passed else 'FAIL'} |"
        for outcome in outcomes
    )
    return "\n".join(lines)


def run_report(
    ctx: ContextLike = None,
    names: Optional[Sequence[str]] = None,
) -> Report:
    """Run the artifacts, check their claims, compose the report.

    Runs the named artifacts (default: all, paper order) under one
    shared context, so the claim checks reuse every evaluation the
    artifacts made. The returned :class:`Report` also carries the
    run outcome, for callers that record the run (the CLI's
    ``--record``).
    """
    from repro.eval.artifacts import ARTIFACTS, RunPlan

    plan = RunPlan.from_names(
        list(names) if names is not None else list(ARTIFACTS), ctx
    )
    outcome = plan.run()
    claims = check_claims(outcome.results, plan.ctx)
    sections = (
        [MD_HEADER]
        + [
            ARTIFACTS[name].render(result, "md")
            for name, result in outcome.results.items()
        ]
        + [claims_table(claims)]
    )
    return Report(
        document="\n\n".join(sections) + "\n",
        outcome=outcome,
        claims=claims,
    )
