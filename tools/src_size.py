"""Print the size of the package source: for each file of
src/process_resilience, and in total, its line count (as ``wc -l`` gives
it) and its code lines (lines that carry a token other than a comment or
a docstring, found with ``tokenize``).

    python3 tools/src_size.py [PACKAGE_DIR]
    python3 tools/src_size.py PARENT_DIR CHANGE_DIR

PACKAGE_DIR defaults to src/process_resilience next to this script's
directory. With two directories, each a checkout of the repository (or a
package directory), it prints both sizes of every file and the change
minus the parent. Standard library only.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) of the first token of every docstring in the tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def sizes(path: Path) -> tuple:
    """(lines, code lines) of one Python file."""
    text = path.read_bytes()
    docstrings = _docstring_starts(ast.parse(text))
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _LAYOUT or tok.start in docstrings:
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count(b"\n"), len(code)


def _package(path: Path) -> Path:
    """The package directory of a checkout, or ``path`` itself."""
    inner = path / "src" / "process_resilience"
    return inner if inner.is_dir() else path


def _compare(parent: Path, change: Path) -> int:
    before = {p.name: sizes(p) for p in _package(parent).glob("*.py")}
    after = {p.name: sizes(p) for p in _package(change).glob("*.py")}
    print(f"{'parent':>15} {'change':>15} {'difference':>15}")
    print(f"{'lines':>7} {'code':>7} " * 3 + " file")
    rows = [(name, before.get(name, (0, 0)), after.get(name, (0, 0)))
            for name in sorted(before.keys() | after.keys())]
    rows.append(("total", *(tuple(map(sum, zip(*(row[i] for row in rows))))
                            for i in (1, 2))))
    for name, (lines0, code0), (lines1, code1) in rows:
        print(f"{lines0:7d} {code0:7d} {lines1:7d} {code1:7d} "
              f"{lines1 - lines0:+7d} {code1 - code0:+7d}  {name}")
    return 0


def main(argv: list) -> int:
    if len(argv) == 2:
        return _compare(Path(argv[0]), Path(argv[1]))
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "process_resilience"
    total_lines = total_code = 0
    print(f"{'lines':>7} {'code':>7}  file")
    for path in sorted(root.glob("*.py")):
        lines, code = sizes(path)
        total_lines += lines
        total_code += code
        print(f"{lines:7d} {code:7d}  {path.name}")
    print(f"{total_lines:7d} {total_code:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
