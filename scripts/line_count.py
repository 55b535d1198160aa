#!/usr/bin/env python3
"""Print the size of src/trusskit as a Markdown table, one row per module.

Usage (from the repository root):
    python3 scripts/line_count.py [DIR]

``lines`` counts every line of a module.  ``code`` counts the lines that hold
a token other than a comment: blank lines, comment lines and bare string
statements (docstrings) are left out.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else "src/trusskit")
    print("| module | lines | code |")
    print("| --- | ---: | ---: |")
    total = [0, 0]
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        sizes = (len(source.splitlines()), code_lines(source))
        total = [t + s for t, s in zip(total, sizes)]
        print(f"| {path.name} | {sizes[0]} | {sizes[1]} |")
    print(f"| **total** | **{total[0]}** | **{total[1]}** |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
