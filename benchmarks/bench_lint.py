"""Full-repo lint wall time: the invariant gate must stay cheap.

``repro lint src`` runs on every CI push, so its cost is part of every
contributor's feedback loop. The analyzer parses each file once and
runs every rule over the shared AST, which keeps the full-repo scan
in the low seconds; the generous bound here only exists to catch an
accidental complexity cliff (a rule that re-walks the tree per node,
re-parses per rule, or recurses without scope cut-offs), not to pin
exact timings on shared runners.
"""

import time
from pathlib import Path

from conftest import emit

from repro.analysis import lint_paths

SRC = Path(__file__).resolve().parent.parent / "src"

#: Deliberately generous: an order of magnitude above the observed
#: full-repo wall time, so only a complexity regression can trip it.
WALL_BOUND_S = 30.0


def test_full_repo_lint_under_wall_bound():
    start = time.perf_counter()
    result = lint_paths([SRC])
    elapsed = time.perf_counter() - start
    emit(
        "repro lint src — full-repo scan",
        f"{result.files} files, {len(result.rules)} rules, "
        f"{len(result.findings)} finding(s) in {elapsed:.2f}s "
        f"(bound {WALL_BOUND_S:.0f}s)",
    )
    assert result.files > 50, "discovery missed most of src/"
    assert elapsed < WALL_BOUND_S, (
        f"full-repo lint took {elapsed:.1f}s — a rule has likely "
        f"regressed to super-linear work per file"
    )
