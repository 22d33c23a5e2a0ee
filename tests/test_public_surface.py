"""Every name the package exports has a use outside the tests: in a module
of the package other than its own definition, in a demo, or among the
library functions bench/tracer.py times. A name that only tests call
belongs in tests/oracles.py, so an orphaned export fails here."""

import ast
from pathlib import Path

from test_bench_targets import _load_tracer

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "process_resilience"


def _exports() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _used_names(path: Path) -> set:
    """The identifiers a module reads, each top-level definition's own
    body excluded for the name it defines: a recursive call or a class
    naming itself is no use from outside."""
    used = set()
    for node in ast.parse(path.read_text()).body:
        defined = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
            elif isinstance(sub, ast.Attribute):
                name = sub.attr
            else:
                continue
            if name != defined:
                used.add(name)
    return used


def _tracer_names() -> set:
    """The names the tracer patches, read as test_bench_targets reads
    them: a per-mode span stands for connectivity_resilience_threshold."""
    tracer = _load_tracer()
    per_mode = set(tracer.THRESHOLD_MODES.values())
    return {"connectivity_resilience_threshold" if name in per_mode
            else name.split(".")[0]
            for names in tracer.TIMED.values() for name in names}


def test_every_export_has_a_use_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py"))
    used = set().union(*map(_used_names, sources), _tracer_names())
    orphans = [name for name in _exports() if name not in used]
    assert not orphans, f"exported but used only by tests: {orphans}"
