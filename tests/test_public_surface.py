"""Every name the package exports, and every public method or property
of a class in the package, has a use outside the tests: in a module of the
package other than its own body, in a demo, or in bench/tracer.py. A name
that only tests call belongs in tests/oracles.py, so an orphan fails here."""

import ast
from pathlib import Path

from test_bench_targets import TRACER_PATH, _load_tracer

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "process_resilience"


def _exports() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _used_names(path: Path) -> set:
    """The identifiers a module reads, each definition's own body excluded
    for the name it defines: a recursive call, a method calling itself or
    a class naming itself is no use from outside."""
    used = set()

    def visit(node, defining):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            name = None
        if name is not None and name not in defining:
            used.add(name)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text()), frozenset())
    return used


def _tracer_names() -> set:
    """The names the tracer patches, read as test_bench_targets reads
    them, each part of a dotted one included: a per-mode span stands for
    connectivity_resilience_threshold."""
    tracer = _load_tracer()
    per_mode = set(tracer.THRESHOLD_MODES.values())
    return {"connectivity_resilience_threshold" if name in per_mode else part
            for names in tracer.TIMED.values() for name in names
            for part in name.split(".")}


def _outside_uses() -> set:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py")) + [TRACER_PATH]
    return set().union(*map(_used_names, sources), _tracer_names())


def _public_members() -> list:
    """(class, member) for each public method or property defined in the
    body of a class of the package."""
    return [(cls.name, member.name) for path in sorted(PACKAGE.glob("*.py"))
            for cls in ast.parse(path.read_text()).body if isinstance(cls, ast.ClassDef)
            for member in cls.body
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not member.name.startswith("_")]


def test_every_export_has_a_use_outside_the_tests():
    used = _outside_uses()
    orphans = [name for name in _exports() if name not in used]
    assert not orphans, f"exported but used only by tests: {orphans}"


def test_every_public_method_has_a_use_outside_the_tests():
    used = _outside_uses()
    members = _public_members()
    assert len(members) >= 20  # the scan finds the classes' methods
    orphans = [f"{cls}.{name}" for cls, name in members if name not in used]
    assert not orphans, f"public members used only by tests: {orphans}"
