"""The ``repro lint`` invariant checker: rules, registry, CLI.

Every rule is exercised in both directions — a fixture that must
trigger it and a near-identical fixture that must not — so a rule
that silently stops firing (or starts flagging compliant code) fails
here before it lets a violation into ``src``.
"""

import ast
import json
import re
import textwrap

import pytest

from repro.analysis import RULES, RuleRegistry, lint_paths, rule
from repro.cli import main
from repro.errors import EvaluationError, LintError, LintUsageError


def run_rule(tmp_path, source, rule_id, relpath="mod.py"):
    """Lint ``source`` (written at ``relpath``) with one rule."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([path], rules=[rule_id]).findings


# ---------------------------------------------------------------------------
# REP001 lock-discipline


LOCK_BAD = """
    import threading

    class Engine:
        _lock_guarded = frozenset({"_entries"})

        def __init__(self):
            self._lock = threading.Lock()
            self._entries = {}

        def size(self):
            return len(self._entries)
"""

LOCK_GOOD_WITH = """
    import threading

    class Engine:
        _lock_guarded = frozenset({"_entries"})

        def __init__(self):
            self._lock = threading.Lock()
            self._entries = {}

        def size(self):
            with self._lock:
                return len(self._entries)
"""

LOCK_GOOD_SUFFIX = """
    import threading

    class Engine:
        _lock_guarded = frozenset({"_entries"})

        def __init__(self):
            self._lock = threading.Lock()
            self._entries = {}

        def _size_locked(self):
            return len(self._entries)
"""

LOCK_GOOD_UNGUARDED_FIELD = """
    import threading

    class Engine:
        _lock_guarded = frozenset({"_entries"})

        def __init__(self):
            self._lock = threading.Lock()
            self._entries = {}
            self.stats = 0

        def bump(self):
            self.stats += 1
"""


class TestLockDiscipline:
    def test_unlocked_access_flagged(self, tmp_path):
        findings = run_rule(tmp_path, LOCK_BAD, "REP001")
        assert [f.rule for f in findings] == ["REP001"]
        assert "_entries" in findings[0].message

    def test_init_is_exempt(self, tmp_path):
        # LOCK_BAD touches _entries in __init__ too; only the method
        # access may be flagged.
        findings = run_rule(tmp_path, LOCK_BAD, "REP001")
        assert len(findings) == 1

    @pytest.mark.parametrize(
        "source",
        [LOCK_GOOD_WITH, LOCK_GOOD_SUFFIX, LOCK_GOOD_UNGUARDED_FIELD],
        ids=["with-lock", "locked-suffix", "unlisted-field"],
    )
    def test_compliant_patterns_pass(self, tmp_path, source):
        assert run_rule(tmp_path, source, "REP001") == ()


# ---------------------------------------------------------------------------
# REP002 sql-transaction


SQL_BAD_NO_COMMIT = """
    def fill(conn, rows):
        conn.execute("BEGIN IMMEDIATE")
        conn.executemany("INSERT INTO jobs (digest) VALUES (?)", rows)
"""

SQL_BAD_FSTRING = """
    def probe(conn, table):
        conn.execute(f"SELECT digest FROM {table}")
"""

SQL_BAD_CONCAT = """
    def probe(conn, table):
        conn.execute("SELECT digest FROM " + table)
"""

SQL_GOOD_TXN = """
    def fill(conn, rows):
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany(
                "INSERT INTO jobs (digest) VALUES (?)", rows
            )
        except Exception:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
"""

SQL_GOOD_PLACEHOLDERS = """
    def get_many(conn, digests):
        placeholders = ",".join("?" * len(digests))
        return conn.execute(
            f"SELECT digest FROM entries WHERE digest IN"
            f" ({placeholders})",
            digests,
        ).fetchall()
"""

SQL_GOOD_PROSE = """
    def describe(count, table):
        return f"evaluated {count} cells from {table}"
"""


class TestSqlTransaction:
    @pytest.mark.parametrize(
        "source",
        [SQL_BAD_NO_COMMIT, SQL_BAD_FSTRING, SQL_BAD_CONCAT],
        ids=["no-commit", "fstring-sql", "concat-sql"],
    )
    def test_violations_flagged(self, tmp_path, source):
        findings = run_rule(tmp_path, source, "REP002")
        assert findings and all(f.rule == "REP002" for f in findings)

    @pytest.mark.parametrize(
        "source",
        [SQL_GOOD_TXN, SQL_GOOD_PLACEHOLDERS, SQL_GOOD_PROSE],
        ids=["full-txn", "placeholder-expansion", "prose-fstring"],
    )
    def test_compliant_patterns_pass(self, tmp_path, source):
        assert run_rule(tmp_path, source, "REP002") == ()


# ---------------------------------------------------------------------------
# REP003 float-determinism (path-scoped)


FLOAT_BAD_SET = """
    def total(values):
        return sum(set(values))
"""

FLOAT_BAD_KEYS = """
    def total(table):
        return sum(table.keys())
"""

FLOAT_GOOD_SORTED = """
    def total(values):
        return sum(sorted(values))
"""

FLOAT_GOOD_FSUM = """
    import math

    def total(values):
        return math.fsum(values)
"""

FLOAT_GOOD_VALUES = """
    def total(table):
        return sum(table.values())
"""


#: The modules that fold activity counts into energy.
FLOAT_SCOPED_PATHS = (
    "model/activity.py",
    "model/perf.py",
    "model/metrics.py",
    "energy/estimator.py",
)


class TestFloatDeterminism:
    @pytest.mark.parametrize(
        "source",
        [FLOAT_BAD_SET, FLOAT_BAD_KEYS],
        ids=["set-fold", "keys-fold"],
    )
    def test_unordered_reductions_flagged(self, tmp_path, source):
        for relpath in FLOAT_SCOPED_PATHS:
            findings = run_rule(tmp_path, source, "REP003", relpath=relpath)
            assert findings and all(f.rule == "REP003" for f in findings)

    @pytest.mark.parametrize(
        "source",
        [FLOAT_GOOD_SORTED, FLOAT_GOOD_FSUM, FLOAT_GOOD_VALUES],
        ids=["sorted", "fsum", "dict-values"],
    )
    def test_ordered_reductions_pass(self, tmp_path, source):
        assert (
            run_rule(
                tmp_path, source, "REP003", relpath="model/perf.py"
            )
            == ()
        )

    def test_rule_is_path_scoped(self, tmp_path):
        # The same unordered fold outside the pinned numeric modules
        # is not this rule's business.
        assert (
            run_rule(tmp_path, FLOAT_BAD_SET, "REP003", relpath="util.py")
            == ()
        )


# ---------------------------------------------------------------------------
# REP004 close-discipline


CLOSE_BAD_LEAK = """
    def lookup(directory, fingerprint, design, key):
        cache = PersistentCache(directory, fingerprint)
        return cache.get(design, key)
"""

CLOSE_GOOD_CLOSING = """
    from contextlib import closing

    def lookup(directory, fingerprint, design, key):
        with closing(PersistentCache(directory, fingerprint)) as cache:
            return cache.get(design, key)
"""

CLOSE_GOOD_FINALLY = """
    def lookup(directory, fingerprint, design, key):
        cache = PersistentCache(directory, fingerprint)
        try:
            return cache.get(design, key)
        finally:
            cache.close()
"""

CLOSE_GOOD_RETURN_TRANSFER = """
    def open_cache(directory, fingerprint):
        cache = PersistentCache(directory, fingerprint)
        return cache
"""

CLOSE_GOOD_ATTR_BINDING = """
    class Holder:
        def __init__(self, directory, fingerprint):
            self._cache = PersistentCache(directory, fingerprint)
"""

CLOSE_BAD_SERVICE_LEAK = """
    def serve_forever(ctx):
        service = EvaluationService(ctx, port=0)
        return asyncio.run(service.run())
"""

CLOSE_GOOD_SERVICE_FINALLY = """
    def serve_forever(ctx):
        service = EvaluationService(ctx, port=0)
        try:
            return asyncio.run(service.run())
        finally:
            service.close()
"""


class TestCloseDiscipline:
    def test_leaked_construction_flagged(self, tmp_path):
        findings = run_rule(tmp_path, CLOSE_BAD_LEAK, "REP004")
        assert [f.rule for f in findings] == ["REP004"]
        assert "PersistentCache" in findings[0].message

    def test_leaked_service_flagged(self, tmp_path):
        # The serve layer is watched too: a service that never closes
        # leaks the engine (and its dirty cache entries) it wraps.
        findings = run_rule(tmp_path, CLOSE_BAD_SERVICE_LEAK, "REP004")
        assert [f.rule for f in findings] == ["REP004"]
        assert "EvaluationService" in findings[0].message

    def test_service_closed_in_finally_passes(self, tmp_path):
        assert (
            run_rule(tmp_path, CLOSE_GOOD_SERVICE_FINALLY, "REP004")
            == ()
        )

    @pytest.mark.parametrize(
        "source",
        [
            CLOSE_GOOD_CLOSING,
            CLOSE_GOOD_FINALLY,
            CLOSE_GOOD_RETURN_TRANSFER,
            CLOSE_GOOD_ATTR_BINDING,
        ],
        ids=["closing", "finally", "return-transfer", "attr-binding"],
    )
    def test_ownership_transfers_pass(self, tmp_path, source):
        assert run_rule(tmp_path, source, "REP004") == ()


# ---------------------------------------------------------------------------
# REP005 registry-hygiene


HYGIENE_BAD_MISSING_KW = """
    from repro.eval import artifacts

    artifacts.register_artifact("fig99", "m:a", "m:R", text="m:r")
"""

HYGIENE_BAD_EMPTY_VALUE = """
    from repro.eval.artifacts import register_artifact

    register_artifact("fig99", "m:a", "m:R", text="m:r", title="")
"""

HYGIENE_BAD_DUPLICATE = """
    from repro.eval.artifacts import register_artifact

    register_artifact("fig99", "m:a", "m:R", text="m:r", title="First")
    register_artifact("fig99", "m:b", "m:R", text="m:r", title="Second")
"""

HYGIENE_BAD_CALL_MISSING_KW = """
    from repro.eval.artifacts import register_artifact

    register_artifact("fig99", "m:fig99", "m:Result", text="m:render")
"""

HYGIENE_BAD_CALL_DUPLICATE = """
    from repro.eval import artifacts
    from repro.eval.artifacts import register_artifact

    register_artifact(
        "fig99", "m:fig99", "m:Result", text="m:render", title="First"
    )
    artifacts.register_artifact(
        "fig99", "m:second", "m:Result", text="m:render", title="Second"
    )
"""

HYGIENE_BAD_DESIGN_MISSING_KW = """
    from repro.accelerators.registry import register_design

    register_design("XT", "m:XT", category="dense")
"""

HYGIENE_BAD_DESIGN_EMPTY_VALUE = """
    from repro.accelerators.registry import register_design

    register_design("XT", "m:XT", category="dense", sparsity_side="")
"""

HYGIENE_BAD_DESIGN_DUPLICATE = """
    from repro.accelerators.registry import register_design

    register_design("XT", "m:XT", category="dense", sparsity_side="none")
    register_design("XT", "m:XU", category="hss", sparsity_side="dual")
"""

HYGIENE_GOOD = """
    from repro.eval.artifacts import register_artifact

    register_artifact("fig99", "m:a", "m:R", text="m:r", title="Figure 99")
"""

HYGIENE_GOOD_CALL = """
    from repro.eval.artifacts import register_artifact

    register_artifact(
        "fig98", "m:fig98", "m:Result", text="m:render",
        title="Figure 98",
    )
"""

#: A design and an artifact may share a name: they fill different
#: registries.
HYGIENE_GOOD_DESIGN_TABLE = """
    from repro.accelerators.registry import register_design
    from repro.eval.artifacts import register_artifact

    register_design(
        "XT", "m:XT", category="dense", sparsity_side="none",
        table4_order=0,
    )
    register_design("XU", "m:XU", category="hss", sparsity_side="dual")
    register_artifact(
        "XT", "m:xt", "m:Result", text="m:render", title="XT sweep",
    )
"""


class TestRegistryHygiene:
    @pytest.mark.parametrize(
        "source",
        [
            HYGIENE_BAD_MISSING_KW,
            HYGIENE_BAD_EMPTY_VALUE,
            HYGIENE_BAD_DUPLICATE,
            HYGIENE_BAD_CALL_MISSING_KW,
            HYGIENE_BAD_CALL_DUPLICATE,
            HYGIENE_BAD_DESIGN_MISSING_KW,
            HYGIENE_BAD_DESIGN_EMPTY_VALUE,
            HYGIENE_BAD_DESIGN_DUPLICATE,
        ],
        ids=["missing-title", "empty-title", "duplicate-name",
             "call-missing-title", "call-then-qualified-call-duplicate",
             "design-missing-sparsity-side", "design-empty-sparsity-side",
             "design-duplicate-name"],
    )
    def test_violations_flagged(self, tmp_path, source):
        findings = run_rule(tmp_path, source, "REP005")
        assert findings and all(f.rule == "REP005" for f in findings)

    def test_design_row_missing_metadata_message(self, tmp_path):
        findings = run_rule(tmp_path, HYGIENE_BAD_DESIGN_MISSING_KW, "REP005")
        assert [f.line for f in findings] == [4]
        assert "register_design(...) is missing required metadata: " \
            "sparsity_side" in findings[0].message

    def test_duplicate_design_flags_the_later_row(self, tmp_path):
        findings = run_rule(tmp_path, HYGIENE_BAD_DESIGN_DUPLICATE, "REP005")
        assert [f.line for f in findings] == [5]
        assert "duplicate design registration for name 'XT'" in (
            findings[0].message
        )

    def test_design_table_passes(self, tmp_path):
        assert run_rule(tmp_path, HYGIENE_GOOD_DESIGN_TABLE, "REP005") == ()

    def test_complete_registration_passes(self, tmp_path):
        assert run_rule(tmp_path, HYGIENE_GOOD, "REP005") == ()

    def test_complete_call_registration_passes(self, tmp_path):
        assert run_rule(tmp_path, HYGIENE_GOOD_CALL, "REP005") == ()


# ---------------------------------------------------------------------------
# REP006 error-taxonomy


class TestErrorTaxonomy:
    def test_bare_assert_flagged(self, tmp_path):
        findings = run_rule(
            tmp_path, "def f(x):\n    assert x > 0\n    return x\n",
            "REP006",
        )
        assert [f.rule for f in findings] == ["REP006"]

    def test_raise_passes(self, tmp_path):
        source = """
            def f(x):
                if x <= 0:
                    raise ValueError("x must be positive")
                return x
        """
        assert run_rule(tmp_path, source, "REP006") == ()

    def test_inline_suppression(self, tmp_path):
        source = (
            "def f(x):\n"
            "    assert x > 0  # repro-lint: ignore[REP006]\n"
        )
        assert run_rule(tmp_path, source, "REP006") == ()

    def test_wildcard_suppression(self, tmp_path):
        source = (
            "def f(x):\n"
            "    assert x > 0  # repro-lint: ignore[*]\n"
        )
        assert run_rule(tmp_path, source, "REP006") == ()


# ---------------------------------------------------------------------------
# Inline suppression covers per-file and whole-run (finish) findings

DUPLICATE_LATER_LINE = """
    from repro.eval.artifacts import register_artifact

    register_artifact("fig99", "m:a", "m:R", text="m:r", title="First")


    # A copy-pasted row:
    register_artifact("fig99",  # repro-lint: ignore[{ids}]
                      "m:b", "m:R", text="m:r", title="Second")


    def second(ctx):
        return None
"""


class TestSuppression:
    @pytest.mark.parametrize(
        "ids, flagged",
        [("REP005", False), ("REP001", True), ("*", False),
         ("REP001, REP005", False)],
    )
    def test_finish_finding_honours_its_line(self, tmp_path, ids, flagged):
        source = DUPLICATE_LATER_LINE.format(ids=ids)
        findings = run_rule(tmp_path, source, "REP005")
        assert bool(findings) is flagged
        if flagged:
            assert [(f.rule, f.line) for f in findings] == [("REP005", 8)]

    def test_finish_finding_across_files(self, tmp_path):
        (tmp_path / "a.py").write_text(textwrap.dedent(HYGIENE_GOOD))
        later = tmp_path / "b.py"
        later.write_text(textwrap.dedent(HYGIENE_GOOD))
        flagged = lint_paths([tmp_path], rules=["REP005"]).findings
        assert [(f.path, f.rule) for f in flagged] == [
            (later.as_posix(), "REP005")
        ]
        later.write_text(
            textwrap.dedent(HYGIENE_GOOD).replace(
                'title="Figure 99")',
                'title="Figure 99")  # repro-lint: ignore[REP005]',
            )
        )
        assert lint_paths([tmp_path], rules=["REP005"]).clean

    def test_first_registration_line_does_not_suppress(self, tmp_path):
        source = DUPLICATE_LATER_LINE.format(ids="REP001").replace(
            'title="First")',
            'title="First")  # repro-lint: ignore[REP005]',
        )
        findings = run_rule(tmp_path, source, "REP005")
        assert [(f.rule, f.line) for f in findings] == [("REP005", 8)]

    def test_wildcard_covers_per_file_and_finish_findings(self, tmp_path):
        source = DUPLICATE_LATER_LINE.format(ids="*").replace(
            "def second(ctx):\n        return None",
            "def second(ctx):\n        assert ctx  # repro-lint: ignore[*]",
        )
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(source))
        assert lint_paths([path], rules=["REP005", "REP006"]).clean
        path.write_text(textwrap.dedent(source).replace(
            "  # repro-lint: ignore[*]", ""
        ))
        flagged = lint_paths([path], rules=["REP005", "REP006"]).findings
        assert [f.rule for f in flagged] == ["REP005", "REP006"]

    def test_suppression_is_per_line(self, tmp_path):
        source = (
            "def f(x):\n"
            "    assert x  # repro-lint: ignore[REP006]\n"
            "    assert x\n"
        )
        findings = run_rule(tmp_path, source, "REP006")
        assert [f.line for f in findings] == [3]


# ---------------------------------------------------------------------------
# REP007 import-budget (path-scoped: cli.py and package __init__s)

BUDGET_BAD_NUMPY = "import numpy as np\n"
BUDGET_BAD_SERVE = "from repro.serve.server import DEFAULT_PORT\n"
BUDGET_BAD_FROM_PACKAGE = "from repro import analysis\n"
BUDGET_BAD_NESTED = """
    try:
        import asyncio
    except ImportError:
        asyncio = None
"""

BUDGET_GOOD_DEFERRED = """
    from typing import TYPE_CHECKING

    if TYPE_CHECKING:
        import numpy as np
        from repro.serve.server import EvaluationService

    def handler():
        import asyncio
        from repro import analysis
        return asyncio, analysis
"""
BUDGET_GOOD_LIGHT = "from repro.eval import cache\nimport json\n"
BUDGET_BAD_FIBERTREE = "from repro.fibertree import FiberTensor, from_dense\n"
BUDGET_GOOD_SPEC_PARSER = """
    from typing import TYPE_CHECKING

    from repro.sparsity.pattern import parse_rule

    if TYPE_CHECKING:
        import numpy as np
        from repro.fibertree import FiberTensor

    def weight_tensor_spec_view(weights, h_values):
        from repro.fibertree import from_dense
        return from_dense(weights, ("C", "R", "S"))
"""


class TestImportBudget:
    @pytest.mark.parametrize("source", (
        BUDGET_BAD_NUMPY, BUDGET_BAD_SERVE, BUDGET_BAD_FROM_PACKAGE,
        BUDGET_BAD_NESTED,
    ), ids=("numpy", "serve", "from-package", "nested-try"))
    @pytest.mark.parametrize("relpath", (
        "repro/cli.py", "pkg/__init__.py", "repro/dnn/__init__.py",
    ))
    def test_module_level_heavy_import_flagged(
        self, tmp_path, source, relpath
    ):
        findings = run_rule(tmp_path, source, "REP007", relpath=relpath)
        assert [f.rule for f in findings] == ["REP007"]

    @pytest.mark.parametrize("source", (
        BUDGET_GOOD_DEFERRED, BUDGET_GOOD_LIGHT,
    ), ids=("deferred", "light"))
    def test_deferred_and_light_imports_pass(self, tmp_path, source):
        assert run_rule(
            tmp_path, source, "REP007", relpath="repro/cli.py"
        ) == ()

    def test_rule_is_path_scoped(self, tmp_path):
        """Layers that use numpy import it at the top, as usual."""
        assert run_rule(
            tmp_path, BUDGET_BAD_NUMPY, "REP007",
            relpath="repro/sim/simulator.py",
        ) == ()

    @pytest.mark.parametrize("source", (
        BUDGET_BAD_NUMPY, BUDGET_BAD_FIBERTREE,
    ), ids=("numpy", "fibertree"))
    @pytest.mark.parametrize("relpath", (
        "repro/sparsity/spec.py", "repro/sparsity/library.py",
    ))
    def test_spec_parser_is_in_scope(self, tmp_path, source, relpath):
        """Every paper artifact parses specs; none builds a
        fibertree."""
        findings = run_rule(tmp_path, source, "REP007", relpath=relpath)
        assert [f.rule for f in findings] == ["REP007"]

    def test_spec_parser_may_defer_the_fibertree(self, tmp_path):
        assert run_rule(
            tmp_path, BUDGET_GOOD_SPEC_PARSER, "REP007",
            relpath="repro/sparsity/spec.py",
        ) == ()

    def test_package_may_import_its_own_subtree(self, tmp_path):
        (tmp_path / "repro" / "__init__.py").parent.mkdir()
        (tmp_path / "repro" / "__init__.py").write_text("")
        source = "from repro.serve.server import serve\n"
        assert run_rule(
            tmp_path, source, "REP007", relpath="repro/serve/__init__.py"
        ) == ()


# ---------------------------------------------------------------------------
# REP000 syntax errors, runner, registry machinery


class TestRunner:
    def test_unparseable_file_is_a_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        result = lint_paths([path])
        assert [f.rule for f in result.findings] == ["REP000"]

    def test_unknown_rule_is_usage_error(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        with pytest.raises(LintError):
            lint_paths([tmp_path], rules=["NOPE999"])

    def test_missing_path_is_usage_error(self):
        with pytest.raises(LintUsageError):
            lint_paths(["no/such/dir"])

    def test_excluding_everything_is_usage_error(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        with pytest.raises(LintUsageError):
            lint_paths([tmp_path], exclude=list(RULES.ids()))

    def test_src_tree_is_clean(self):
        result = lint_paths(["src"])
        assert result.clean
        assert result.files > 50

    def test_empty_directory_is_usage_error(self, tmp_path):
        with pytest.raises(LintUsageError, match="no Python files"):
            lint_paths([tmp_path])

    def test_skip_dirs_apply_only_below_the_argument(self, tmp_path):
        # An argument inside a skipped directory name is still read.
        for parent in (".venv", "plain"):
            package = tmp_path / parent / "pkg"
            package.mkdir(parents=True)
            (package / "mod.py").write_text("assert True\n")
            result = lint_paths([package], rules=["REP006"])
            assert (result.files, len(result.findings)) == (1, 1)

    def test_skip_dirs_below_the_argument_are_skipped(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        for skipped in (".venv", "__pycache__", "node_modules"):
            (tmp_path / skipped).mkdir()
            (tmp_path / skipped / "bad.py").write_text("assert True\n")
        result = lint_paths([tmp_path], rules=["REP006"])
        assert (result.files, result.findings) == (1, ())


class TestRegistry:
    def _info(self, rule_id="REP900", name="demo"):
        registry = RuleRegistry()
        return rule(
            name, id=rule_id, category="demo", registry=registry
        )(lambda ctx: [])

    def test_decorator_returns_info(self):
        info = self._info()
        assert (info.id, info.name) == ("REP900", "demo")

    def test_duplicate_id_raises(self):
        registry = RuleRegistry()
        registry.register(self._info())
        with pytest.raises(LintError, match="already registered"):
            registry.register(self._info(name="other"))
        assert registry.resolve("REP900").name == "demo"

    def test_reusing_a_builtin_id_raises(self):
        with pytest.raises(LintError, match="already registered"):
            rule("quiet-taxonomy", id="REP006", category="errors")(
                lambda ctx: []
            )
        assert RULES.resolve("REP006").name == "error-taxonomy"

    def test_decorator_leaves_the_builtin_registry_alone(self):
        registry = RuleRegistry()
        info = rule(
            "demo", id="REP900", category="demo", registry=registry
        )(lambda ctx: [])
        assert registry.resolve("REP900") is info
        assert "REP900" not in RULES

    def test_substitute_registry_rule_fires(self, tmp_path):
        registry = RuleRegistry()

        @rule("no-todo", id="REP900", category="style",
              registry=registry)
        def check_no_todo(ctx):
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Name) and node.id == "TODO":
                    yield ctx.finding(check_no_todo, node, "TODO")

        target = tmp_path / "mod.py"
        target.write_text(
            "x = TODO\ny = TODO  # repro-lint: ignore[REP900]\n"
        )
        result = lint_paths([target], registry=registry)
        assert result.rules == ("REP900",)
        assert [(f.rule, f.line) for f in result.findings] == [
            ("REP900", 1)
        ]

    def test_malformed_id_rejected(self):
        with pytest.raises(LintError, match="rule id"):
            RuleRegistry().register(self._info(rule_id="rep1"))

    def test_builtins_present(self):
        expected = {
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
            "REP007",
        }
        assert expected <= set(RULES.ids())


# ---------------------------------------------------------------------------
# CLI


class TestLintCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def f(x):\n    assert x\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP006" in out and "bad.py" in out

    def test_unknown_path_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path / "absent")])
        assert excinfo.value.code == 2

    def test_unknown_rule_exits_two(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path), "--rules", "NOPE999"])
        assert excinfo.value.code == 2

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def f(x):\n    assert x\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"REP006": 1}
        assert payload["findings"][0]["rule"] == "REP006"
        assert payload["schema_version"] == 2
        assert set(payload["findings"][0]) == {
            "rule", "path", "line", "column", "message",
        }
        assert set(payload) == {
            "schema_version", "files", "rules", "findings", "counts",
        }

    def test_rule_selection(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def f(x):\n    assert x\n")
        assert (
            main(["lint", str(tmp_path), "--rules", "REP001,REP002"])
            == 0
        )
        assert (
            main(
                ["lint", str(tmp_path), "--exclude-rules",
                 "error-taxonomy"]
            )
            == 0
        )

    def test_empty_directory_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_directory_under_skipped_name_exits_one(self, tmp_path, capsys):
        package = tmp_path / ".venv" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text("assert True\n")
        assert main(["lint", str(package)]) == 1
        assert "1 file(s)" in capsys.readouterr().out

    def test_help_lists_exactly_the_five_options(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert set(re.findall(r"--[a-z][a-z-]*", out)) == {
            "--help", "--rules", "--exclude-rules", "--format",
            "--list-rules",
        }
        assert "PATH" in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["id", "name", "category"]
        for rule_id in ("REP001", "REP006"):
            assert rule_id in out


# ---------------------------------------------------------------------------
# Regression coverage for the violations the linter surfaced


class TestSurfacedViolationFixes:
    def test_run_plan_without_finish_event_raises(self):
        from repro.eval.artifacts import RunPlan

        class StalledPlan(RunPlan):
            def events(self):
                return iter(())

        plan = RunPlan.from_names([])
        stalled = StalledPlan(specs=plan.specs, ctx=plan.ctx)
        with pytest.raises(EvaluationError, match="RunFinished"):
            stalled.run()

    def test_sweep_shapes_closes_engine_it_creates(self, monkeypatch):
        from repro.eval import shapes as shapes_mod

        closed = []

        class TrackingEngine(shapes_mod.SweepEngine):
            def close(self):
                closed.append(self)
                super().close()

        monkeypatch.setattr(shapes_mod, "SweepEngine", TrackingEngine)
        shapes_mod.sweep_shapes(shapes=[(64, 64, 64)])
        assert len(closed) == 1

    def test_sweep_shapes_leaves_borrowed_engine_open(self):
        from repro.eval import shapes as shapes_mod
        from repro.eval.engine import SweepEngine

        engine = SweepEngine(None)
        try:
            shapes_mod.sweep_shapes(shapes=[(64, 64, 64)], engine=engine)
            # Still usable: close was NOT called on the borrowed engine.
            shapes_mod.sweep_shapes(shapes=[(64, 64, 64)], engine=engine)
        finally:
            engine.close()

    def test_sweep_sensitivity_closes_every_engine(self, monkeypatch):
        from repro.eval import sensitivity as sens_mod

        created, closed = [], []

        class TrackingEngine(sens_mod.SweepEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

            def close(self):
                closed.append(self)
                super().close()

        monkeypatch.setattr(sens_mod, "SweepEngine", TrackingEngine)
        sens_mod.sweep_sensitivity(
            scales=(1.0,),
            constants=sens_mod.PERTURBABLE[:2],
            size=64,
        )
        assert len(created) == 2
        assert created == closed

    def test_lock_guarded_manifests_cover_shared_state(self):
        from repro.eval.cache import PersistentCache
        from repro.eval.engine import SweepEngine

        assert "_entries" in PersistentCache._lock_guarded
        assert "_cache" in SweepEngine._lock_guarded
