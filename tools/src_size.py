"""Print the size of the package source: for each file of
src/process_resilience, and in total, its line count (as ``wc -l`` gives
it) and its code lines (lines that carry a token other than a comment or
a docstring, found with ``tokenize``).

    python3 tools/src_size.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/process_resilience next to this script's
directory. Standard library only.
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


def main(argv: list) -> int:
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
