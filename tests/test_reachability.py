"""Every module under ``src/repro`` has a caller.

The walk starts at the program's entry points -- ``repro.cli``,
``repro.__main__``, ``repro.serve.server`` and each ``examples/*.py``
-- and follows the static import graph. Its edges are:

* ``import`` and ``from ... import`` statements at any depth, relative
  ones included (a deferred import inside a function still counts);
* importing ``a.b.c`` also runs the ``__init__`` of ``a`` and ``a.b``;
* the keys of a package's ``lazy_exports`` map, and its
  ``submodules`` names;
* ``"module:attr"`` strings, the form in which the artifact and claim
  registries name their compute functions, result types, renderers
  and checks (f-strings count when their module part is a literal or
  a module-level string constant).

A module the walk does not reach is code that no command, served
request or example runs: delete it, or give it a caller. Because the
examples are roots, each one is also run here and must exit 0.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROOT_MODULES = ("repro.cli", "repro.__main__", "repro.serve.server")
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: A whole ``"module:attr"`` reference; ``{}`` stands for an f-string
#: field whose value the walk cannot know.
_REF = re.compile(r"(repro(?:\.\w+)+):(?:\w|\{\})*")


def module_files(src: Path) -> Dict[str, Path]:
    """Dotted module name -> source file, for every module under
    ``src``."""
    modules: Dict[str, Path] = {}
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _string_constants(tree: ast.Module) -> Dict[str, str]:
    return {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


def _text(node: ast.AST, constants: Dict[str, str]) -> Optional[str]:
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else None
    if not isinstance(node, ast.JoinedStr):
        return None
    pieces = []
    for part in node.values:
        if isinstance(part, ast.Constant):
            pieces.append(str(part.value))
        elif isinstance(part, ast.FormattedValue) and isinstance(
            part.value, ast.Name
        ) and part.value.id in constants:
            pieces.append(constants[part.value.id])
        else:
            pieces.append("{}")
    return "".join(pieces)


def _absolute(module: Optional[str], level: int, package: str) -> str:
    if not level:
        return module or ""
    parts = package.split(".")
    base = parts[: len(parts) - level + 1]
    return ".".join(base + ([module] if module else []))


def imported_names(path: Path, name: str, is_package: bool) -> Set[str]:
    """Every dotted name the file at ``path`` (module ``name``) may
    load; names that are not modules are filtered out later."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    package = name if is_package else name.rpartition(".")[0]
    constants = _string_constants(tree)
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _absolute(node.module, node.level, package)
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
        ):
            for arg in node.args[1:] + [kw.value for kw in node.keywords]:
                keys = arg.keys if isinstance(arg, ast.Dict) else (
                    arg.elts if isinstance(arg, (ast.Tuple, ast.List))
                    else []
                )
                found.update(
                    f"{package}.{key.value}"
                    for key in keys
                    if isinstance(key, ast.Constant)
                )
        else:
            text = _text(node, constants)
            match = _REF.fullmatch(text) if text else None
            if match:
                found.add(match.group(1))
    return found


def _with_parents(dotted: str) -> List[str]:
    parts = dotted.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def unreachable(
    src: Path, root_modules: Iterable[str], root_files: Iterable[Path]
) -> List[str]:
    """Modules under ``src`` that no root reaches, sorted."""
    modules = module_files(src)
    pending: List[str] = []

    def visit(names: Iterable[str]) -> None:
        for dotted in names:
            for candidate in _with_parents(dotted):
                if candidate in modules and candidate not in reached:
                    reached.add(candidate)
                    pending.append(candidate)

    reached: Set[str] = set()
    visit(root_modules)
    for path in root_files:
        visit(imported_names(path, "__main__", False))
    while pending:
        name = pending.pop()
        path = modules[name]
        visit(imported_names(path, name, path.name == "__init__.py"))
    return sorted(set(modules) - reached)


def test_every_module_has_a_caller():
    orphans = unreachable(ROOT / "src", ROOT_MODULES, EXAMPLES)
    assert orphans == [], (
        "modules no command, served request or example reaches "
        f"(delete them or give them a caller): {orphans}"
    )


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(example, tmp_path):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(example)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


class TestWalk:
    """The walk on a small synthetic package."""

    def _tree(self, tmp_path: Path) -> Path:
        src = tmp_path / "src"
        _write(src / "repro" / "__init__.py", "")
        _write(src / "repro" / "cli.py", (
            "from .pkg import used\n"
            "def main():\n"
            "    from repro.deferred import run\n"
            "REFS = ('repro.reffed:compute',)\n"
            "_M = 'repro.named'\n"
            "CLAIM = f'{_M}:check'\n"
        ))
        _write(src / "repro" / "pkg" / "__init__.py", (
            "from repro.lazy import lazy_exports\n"
            "__getattr__, __dir__ = lazy_exports(\n"
            "    __name__, {'lazy_child': ('name',)}, submodules=('sub',))\n"
        ))
        for module in ("pkg/used", "pkg/lazy_child", "pkg/sub", "lazy",
                       "deferred", "reffed", "named"):
            _write(src / "repro" / f"{module}.py", "")
        return src

    def test_every_edge_kind_is_followed(self, tmp_path):
        assert unreachable(self._tree(tmp_path), ["repro.cli"], []) == []

    def test_module_without_importer_is_reported(self, tmp_path):
        src = self._tree(tmp_path)
        _write(src / "repro" / "orphan.py", "import repro.cli\n")
        _write(src / "repro" / "pkg" / "stray.py", "")
        assert unreachable(src, ["repro.cli"], []) == [
            "repro.orphan", "repro.pkg.stray",
        ]

    def test_example_files_are_roots(self, tmp_path):
        src = self._tree(tmp_path)
        _write(src / "repro" / "extra.py", "")
        example = tmp_path / "example.py"
        _write(example, "from repro import extra\n")
        assert "repro.extra" in unreachable(src, ["repro.cli"], [])
        assert "repro.extra" not in unreachable(
            src, ["repro.cli"], [example]
        )

    def test_docstring_mentions_are_not_edges(self, tmp_path):
        src = self._tree(tmp_path)
        _write(src / "repro" / "mentioned.py", "")
        _write(src / "repro" / "cli.py", (
            '"""See repro.mentioned for details; repro.mentioned: x y."""\n'
        ))
        assert "repro.mentioned" in unreachable(src, ["repro.cli"], [])
