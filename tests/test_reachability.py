"""Every public name in ``src/repro`` is reached from a real entry point.

The roots are the files a user or an operator runs:

* ``repro/cli.py`` and ``repro/__main__.py``, whole;
* the module-level statements of every ``src/repro`` module — the server
  endpoint tables and the codec and split-filter registries run there;
* every file under ``examples/``, ``benchmarks/`` and ``perf/`` (the
  ``perf/tests`` suite excepted).

Tests are not roots.  From the roots the check follows an AST use graph
whose nodes are ``(module, name)`` pairs.  A name is resolved through the
imports of its scope (a function-local import included) and through package
``__init__`` re-exports, never by spelling alone: ``perf/runner.py``'s own
``execute`` keeps no other module's ``execute`` alive.

A top-level public def (function, class or assigned name) that no root
reaches fails the check, as does a module that no root reaches at all.  The
fix is to delete it, or to call it from the entry point that needs it.
"""

from __future__ import annotations

import ast
import functools
import time
from dataclasses import dataclass, field
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Reached only from tests, kept on purpose.  Each entry is a reference the
# tests compare the real code against, or the inverse of a live wire format.
ALLOWLIST = {
    # test_interesting's brute-force reference for the interesting-edge scan.
    ("repro.grid.cells", "structured_edges"),
    ("repro.grid.cells", "edge_endpoints"),
    # Inverse of read_frame: the listener and error-contract tests drive
    # the live server with it.
    ("repro.rpc.transport", "write_frame"),
    # Inverse of bind_request, which the batch endpoint reads.
    ("repro.core.filter_splits", "wire_request"),
}


@dataclass
class Module:
    name: str
    tree: ast.Module
    is_package: bool
    root: bool  # the whole file is a root, def bodies included
    defs: dict[str, ast.AST] = field(default_factory=dict)
    binds: dict[str, tuple[str, str | None]] = field(default_factory=dict)


def _statements(body):
    """Statements that run at this scope, without entering defs or classes."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for attr in ("body", "orelse", "finalbody"):
            yield from _statements(getattr(stmt, attr, []))
        for handler in getattr(stmt, "handlers", []):
            yield from _statements(handler.body)


def _import_binds(stmt, module: Module) -> dict[str, tuple[str, str | None]]:
    """``local name -> (module, attribute or None for the module itself)``."""
    out = {}
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            if alias.asname:
                out[alias.asname] = (alias.name, None)
            else:
                head = alias.name.split(".")[0]
                out[head] = (head, None)
    elif isinstance(stmt, ast.ImportFrom):
        base = stmt.module or ""
        if stmt.level:
            parts = module.name.split(".")
            if not module.is_package:
                parts = parts[:-1]
            parts = parts[: len(parts) - (stmt.level - 1)]
            base = ".".join(parts + ([base] if base else []))
        for alias in stmt.names:
            if alias.name != "*":
                out[alias.asname or alias.name] = (base, alias.name)
    return out


def _local_binds(node, module: Module) -> dict[str, tuple[str, str | None]]:
    """Imports made anywhere inside a def, e.g. a ``cmd_*``'s lazy import."""
    out = {}
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Import, ast.ImportFrom)):
            out.update(_import_binds(sub, module))
    return out


def _load(path: Path, name: str, is_package: bool, root: bool) -> Module:
    module = Module(name, ast.parse(path.read_text(), str(path)), is_package, root)
    for stmt in _statements(module.tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module.defs[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name) and not sub.id.startswith("__"):
                        module.defs[sub.id] = stmt
        else:
            module.binds.update(_import_binds(stmt, module))
    return module


def _module_name(path: Path, top: Path) -> tuple[str, bool]:
    parts = list(path.relative_to(top).with_suffix("").parts)
    is_package = parts[-1] == "__init__"
    if is_package:
        parts.pop()
    return ".".join(parts), is_package


@dataclass
class Report:
    unreached: set[tuple[str, str]]
    dead_modules: set[str]


def scan(src: Path, package: str, root_dirs: list[Path],
         root_modules: set[str]) -> Report:
    """Public names of ``package`` (under ``src``) that no root reaches.

    ``root_dirs`` hold whole-file roots (their ``tests`` subdirectories
    excepted); ``root_modules`` names the package modules that are whole
    roots too.  The module-level statements of every module are roots.
    """
    modules: dict[str, Module] = {}
    for path in sorted((src / package).rglob("*.py")):
        name, is_package = _module_name(path, src)
        modules[name] = _load(path, name, is_package, name in root_modules)
    for top in root_dirs:
        for path in sorted(top.rglob("*.py")):
            if "tests" in path.relative_to(top).parts:
                continue
            name, is_package = _module_name(path, top.parent)
            modules[name] = _load(path, name, is_package, True)

    def canonical(mod: str, attr: str | None, seen=()):
        """Follow re-exports to the def or the module a binding names."""
        if attr is None:
            return (mod, None) if mod in modules else None
        if (mod, attr) in seen or mod not in modules:
            return None
        m = modules[mod]
        if attr in m.defs:
            return (mod, attr)
        if attr in m.binds:
            return canonical(*m.binds[attr], seen=seen + ((mod, attr),))
        if f"{mod}.{attr}" in modules:
            return (f"{mod}.{attr}", None)
        return None

    reached: set[tuple[str, str | None]] = set()
    todo: list[tuple[Module, ast.AST]] = []

    def mark(target):
        if target is None or target in reached:
            return
        reached.add(target)
        if target[1] is not None:
            reached.add((target[0], None))
            node = modules[target[0]].defs[target[1]]
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                todo.append((modules[target[0]], node))

    def visit(module: Module, node, binds) -> None:
        def lookup(name):
            if name in binds:
                return canonical(*binds[name])
            return canonical(module.name, name)

        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                mark(lookup(sub.id))
            elif isinstance(sub, ast.Attribute):
                chain = []
                base = sub
                while isinstance(base, ast.Attribute):
                    chain.append(base.attr)
                    base = base.value
                if not isinstance(base, ast.Name):
                    continue
                target = lookup(base.id)
                for attr in reversed(chain):
                    if target is None or target[1] is not None:
                        break
                    target = canonical(target[0], attr)
                    mark(target)

    for module in modules.values():
        if module.root:
            reached.add((module.name, None))
            for node in module.defs.values():
                visit(module, node, _local_binds(node, module))
        for stmt in _statements(module.tree.body):
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef, ast.Import, ast.ImportFrom)):
                visit(module, stmt, module.binds)
    while todo:
        module, node = todo.pop()
        visit(module, node, {**module.binds, **_local_binds(node, module)})

    ours = [m for m in modules.values()
            if m.name == package or m.name.startswith(package + ".")]
    dead = {m.name for m in ours
            if (m.name, None) not in reached and not m.is_package}
    unreached = {(m.name, name) for m in ours if m.name not in dead
                 for name in m.defs
                 if not name.startswith("_") and (m.name, name) not in reached}
    return Report(unreached, dead)


@functools.lru_cache(maxsize=None)
def _timed_repo_scan() -> tuple[Report, float]:
    start = time.perf_counter()
    report = scan(REPO / "src", "repro",
                  [REPO / "examples", REPO / "benchmarks", REPO / "perf"],
                  {"repro.cli", "repro.__main__"})
    return report, time.perf_counter() - start


def test_every_public_name_is_reached_from_an_entry_point():
    report, _ = _timed_repo_scan()
    assert not report.dead_modules, (
        f"modules only tests reach: {sorted(report.dead_modules)}")
    unreached = report.unreached - ALLOWLIST
    assert not unreached, (
        "public names only tests reach (delete them, or call them from the "
        f"entry point that needs them): {sorted(unreached)}")


def test_allowlist_is_short_and_not_stale():
    assert len(ALLOWLIST) <= 4
    stale = ALLOWLIST - _timed_repo_scan()[0].unreached
    assert not stale, f"allowlisted but reached, drop the entry: {sorted(stale)}"


def test_whole_check_is_fast():
    assert _timed_repo_scan()[1] < 2.0


# -- self-test on a synthetic package -------------------------------------

def _write(base: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _synthetic(tmp_path: Path) -> Report:
    _write(tmp_path, {
        "src/pkg/__init__.py": "from pkg.core import exported\n",
        "src/pkg/core.py": (
            "def exported():\n    return helper()\n\n"
            "def helper():\n    return 1\n\n"
            "def lazy_target():\n    return 2\n\n"
            "def only_tests():\n    return 3\n\n"
            "def execute():\n    return 4\n\n"
            "def registered():\n    return 5\n\n"
            "TABLE = {'x': 1}\nREGISTRY = [registered]\n"),
        "src/pkg/cli.py": (
            "def cmd_run():\n"
            "    from pkg.core import lazy_target\n"
            "    return lazy_target()\n"),
        "src/pkg/orphan.py": "def lonely():\n    return 5\n",
        "examples/demo.py": (
            "import pkg\n\n"
            "def execute():\n    return 6\n\n"
            "pkg.exported()\nexecute()\n"),
        "tests/test_core.py": (
            "from pkg.core import only_tests\nfrom pkg.orphan import lonely\n"
            "only_tests()\nlonely()\n"),
    })
    return scan(tmp_path / "src", "pkg", [tmp_path / "examples"], {"pkg.cli"})


def test_checker_flags_a_def_only_a_test_imports(tmp_path):
    report = _synthetic(tmp_path)
    assert ("pkg.core", "only_tests") in report.unreached
    assert "pkg.orphan" in report.dead_modules


def test_checker_follows_reexports_and_local_imports(tmp_path):
    unreached = _synthetic(tmp_path).unreached
    for name in ("exported", "helper", "lazy_target", "registered"):
        assert ("pkg.core", name) not in unreached


def test_checker_resolves_names_per_module(tmp_path):
    # examples/demo.py calls its own execute(); pkg.core.execute stays
    # unreached, and so does TABLE, which nothing reads.
    unreached = _synthetic(tmp_path).unreached
    assert ("pkg.core", "execute") in unreached
    assert ("pkg.core", "TABLE") in unreached
