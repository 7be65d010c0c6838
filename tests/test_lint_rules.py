"""The ``repro lint`` invariant checker: rules, registry, CLI.

Every rule is exercised in both directions — a fixture that must
trigger it and a near-identical fixture that must not — so a rule
that silently stops firing (or starts flagging compliant code) fails
here before it rots the committed baseline.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    RULES,
    Finding,
    RuleRegistry,
    lint_paths,
    load_baseline,
    rule,
    write_baseline,
)
from repro.cli import main
from repro.errors import (
    EvaluationError,
    LintError,
    LintUsageError,
    QueueError,
)


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
    def count(path):
        store = JobStore(path)
        return store.stats()
"""

CLOSE_GOOD_CLOSING = """
    from contextlib import closing

    def count(path):
        with closing(JobStore(path)) as store:
            return store.stats()
"""

CLOSE_GOOD_FINALLY = """
    def count(path):
        store = JobStore(path)
        try:
            return store.stats()
        finally:
            store.close()
"""

CLOSE_GOOD_RETURN_TRANSFER = """
    def open_store(path):
        store = JobStore(path)
        return store
"""

CLOSE_GOOD_ATTR_BINDING = """
    class Holder:
        def __init__(self, path):
            self._store = JobStore(path)
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
        assert "JobStore" in findings[0].message

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
    from repro.eval.artifacts import artifact

    @artifact("fig99")
    def fig99(ctx):
        return None
"""

HYGIENE_BAD_EMPTY_VALUE = """
    from repro.eval.artifacts import artifact

    @artifact("fig99", title="")
    def fig99(ctx):
        return None
"""

HYGIENE_BAD_DUPLICATE = """
    from repro.eval.artifacts import artifact

    @artifact("fig99", title="First")
    def first(ctx):
        return None

    @artifact("fig99", title="Second")
    def second(ctx):
        return None
"""

HYGIENE_GOOD = """
    from repro.eval.artifacts import artifact

    @artifact("fig99", title="Figure 99")
    def fig99(ctx):
        return None
"""


class TestRegistryHygiene:
    @pytest.mark.parametrize(
        "source",
        [
            HYGIENE_BAD_MISSING_KW,
            HYGIENE_BAD_EMPTY_VALUE,
            HYGIENE_BAD_DUPLICATE,
        ],
        ids=["missing-title", "empty-title", "duplicate-name"],
    )
    def test_violations_flagged(self, tmp_path, source):
        findings = run_rule(tmp_path, source, "REP005")
        assert findings and all(f.rule == "REP005" for f in findings)

    def test_complete_registration_passes(self, tmp_path):
        assert run_rule(tmp_path, HYGIENE_GOOD, "REP005") == ()


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

    def test_src_tree_is_clean_against_near_empty_baseline(self):
        baseline = load_baseline("lint-baseline.json")
        result = lint_paths(["src"], baseline=baseline)
        assert result.clean
        assert result.files > 50


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

    def test_skip_keeps_incumbent(self):
        registry = RuleRegistry()
        first = registry.register(self._info(name="first"))
        kept = registry.register(
            self._info(name="second"), on_collision="skip"
        )
        assert kept is first
        assert registry.resolve("REP900").name == "first"

    def test_replace_takes_newcomer(self):
        registry = RuleRegistry()
        registry.register(self._info(name="first"))
        registry.register(
            self._info(name="second"), on_collision="replace"
        )
        assert registry.resolve("REP900").name == "second"

    def test_malformed_id_rejected(self):
        with pytest.raises(LintError, match="rule id"):
            RuleRegistry().register(self._info(rule_id="rep1"))

    def test_builtins_present(self):
        expected = {
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
        }
        assert expected <= set(RULES.ids())


# ---------------------------------------------------------------------------
# Baseline round-trips


class TestBaseline:
    def test_roundtrip_suppresses_exact_findings(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("def f(x):\n    assert x\n")
        first = lint_paths([target])
        assert len(first.findings) == 1
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, first.findings)
        second = lint_paths(
            [target], baseline=load_baseline(baseline_path)
        )
        assert second.clean
        assert second.baselined == 1

    def test_baseline_is_content_keyed(self, tmp_path):
        # Pure line drift (a comment added above) must not invalidate
        # the baseline entry.
        target = tmp_path / "bad.py"
        target.write_text("def f(x):\n    assert x\n")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, lint_paths([target]).findings)
        target.write_text("# shifted\ndef f(x):\n    assert x\n")
        result = lint_paths(
            [target], baseline=load_baseline(baseline_path)
        )
        assert result.clean

    def test_new_findings_escape_the_baseline(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text("def f(x):\n    assert x\n")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, lint_paths([target]).findings)
        target.write_text(
            "def f(x):\n    assert x\n\ndef g(y):\n    assert y\n"
        )
        result = lint_paths(
            [target], baseline=load_baseline(baseline_path)
        )
        # f's assert is baselined; g's identical-rule finding is new.
        assert len(result.findings) == 1
        assert result.baselined == 1

    def test_malformed_baseline_is_usage_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("not json")
        with pytest.raises(LintUsageError):
            load_baseline(path)


# ---------------------------------------------------------------------------
# Plugins


PLUGIN_TODO = '''
from repro.analysis import Finding, rule


@rule("no-todo", id="REP900", category="style")
def check_no_todo(ctx):
    """Flag TODO markers."""
    for index, line in enumerate(ctx.lines, start=1):
        if "TODO" in line:
            yield Finding(
                rule="REP900", path=ctx.display, line=index,
                column=1, message="TODO marker", snippet=line.strip(),
            )
'''

PLUGIN_COLLIDING = '''
from repro.analysis import rule


@rule("quiet-taxonomy", id="REP006", category="errors")
def check_nothing(ctx):
    """Replacement REP006 that never fires."""
    return []
'''


class TestPlugins:
    def test_plugin_rule_fires(self, tmp_path):
        plugins = tmp_path / "plugins"
        plugins.mkdir()
        (plugins / "todo.py").write_text(PLUGIN_TODO)
        target = tmp_path / "mod.py"
        target.write_text("x = 1  # TODO later\n")
        registry = RULES.clone()
        from repro.analysis import load_plugins

        load_plugins(plugins, registry=registry)
        result = lint_paths(
            [target], rules=["REP900"], registry=registry
        )
        assert [f.rule for f in result.findings] == ["REP900"]

    def test_plugin_load_does_not_touch_global_registry(self, tmp_path):
        plugins = tmp_path / "plugins"
        plugins.mkdir()
        (plugins / "todo.py").write_text(PLUGIN_TODO)
        from repro.analysis import load_plugins

        load_plugins(plugins, registry=RULES.clone())
        assert "REP900" not in RULES

    def test_collision_raise_mode(self, tmp_path):
        plugins = tmp_path / "plugins"
        plugins.mkdir()
        (plugins / "collide.py").write_text(PLUGIN_COLLIDING)
        from repro.analysis import load_plugins

        with pytest.raises(LintError):
            load_plugins(plugins, registry=RULES.clone())

    @pytest.mark.parametrize(
        "mode, expected_name",
        [("skip", "error-taxonomy"), ("replace", "quiet-taxonomy")],
    )
    def test_collision_skip_and_replace(
        self, tmp_path, mode, expected_name
    ):
        plugins = tmp_path / "plugins"
        plugins.mkdir()
        (plugins / "collide.py").write_text(PLUGIN_COLLIDING)
        registry = RULES.clone()
        from repro.analysis import load_plugins

        load_plugins(plugins, registry=registry, on_collision=mode)
        assert registry.resolve("REP006").name == expected_name

    def test_missing_plugin_dir_is_usage_error(self, tmp_path):
        from repro.analysis import load_plugins

        with pytest.raises(LintUsageError):
            load_plugins(tmp_path / "absent")


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
        assert payload["schema_version"] == 1

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

    def test_baseline_workflow(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def f(x):\n    assert x\n")
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                ["lint", str(tmp_path), "--baseline", str(baseline),
                 "--write-baseline"]
            )
            == 0
        )
        assert baseline.exists()
        assert (
            main(["lint", str(tmp_path), "--baseline", str(baseline)])
            == 0
        )
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_write_baseline_requires_destination(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path), "--write-baseline"])
        assert excinfo.value.code == 2

    def test_plugins_flag(self, tmp_path, capsys):
        plugins = tmp_path / "plugins"
        plugins.mkdir()
        (plugins / "todo.py").write_text(PLUGIN_TODO)
        target = tmp_path / "src"
        target.mkdir()
        (target / "mod.py").write_text("x = 1  # TODO later\n")
        assert (
            main(["lint", str(target), "--plugins", str(plugins)]) == 1
        )
        assert "REP900" in capsys.readouterr().out

    def test_plugin_collision_exits_two(self, tmp_path, capsys):
        plugins = tmp_path / "plugins"
        plugins.mkdir()
        (plugins / "collide.py").write_text(PLUGIN_COLLIDING)
        target = tmp_path / "src"
        target.mkdir()
        (target / "ok.py").write_text("x = 1\n")
        assert (
            main(["lint", str(target), "--plugins", str(plugins)]) == 2
        )

    def test_plugin_collision_replace_mode(self, tmp_path, capsys):
        plugins = tmp_path / "plugins"
        plugins.mkdir()
        (plugins / "collide.py").write_text(PLUGIN_COLLIDING)
        target = tmp_path / "src"
        target.mkdir()
        (target / "bad.py").write_text("def f(x):\n    assert x\n")
        assert (
            main(
                ["lint", str(target), "--plugins", str(plugins),
                 "--on-collision", "replace"]
            )
            == 0
        )

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP006"):
            assert rule_id in out


# ---------------------------------------------------------------------------
# Regression coverage for the violations the linter surfaced


class TestSurfacedViolationFixes:
    def test_existing_probe_rejects_unknown_table(self):
        from repro.eval.queue import JobStore

        with pytest.raises(QueueError, match="existence probe"):
            JobStore._existing(None, "pragma", ["digest"])

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
        from repro.eval.queue import JobStore

        assert "_entries" in PersistentCache._lock_guarded
        assert "_conn" in JobStore._lock_guarded
        assert "_cache" in SweepEngine._lock_guarded
