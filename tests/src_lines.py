"""Print the lines of each ``src/`` module and their total, split by kind.

Each line counts as exactly one of

* docstring: a line of a module, class or function docstring, blank lines
  inside it included,
* blank: an empty or whitespace-only line outside a docstring,
* comment: a line that holds a comment and no code, and
* code: every other line, a line with code and a trailing comment included.

Docstrings come from the AST and comments from the tokenizer, so a ``#``
inside a string is no comment.  Run it from anywhere with

    python3 tests/src_lines.py

The file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def comment_lines(text: str) -> set[int]:
    """Lines whose only token, besides indentation and newlines, is a comment."""
    comments, code = set(), set()
    skip = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in skip:
            code.update(range(token.start[0], token.end[0] + 1))
    return comments - code


def split(path: Path) -> dict[str, int]:
    text = path.read_text(encoding="utf-8")
    docstrings = docstring_lines(ast.parse(text))
    comments = comment_lines(text)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        if number in docstrings:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif number in comments:
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main() -> int:
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':32s} {'lines':>6s} " + " ".join(f"{kind:>9s}" for kind in KINDS))
    for path in sorted(SRC.rglob("*.py")):
        counts = split(path)
        for kind in KINDS:
            total[kind] += counts[kind]
        name = str(path.relative_to(SRC))
        print(f"{name:32s} {sum(counts.values()):6d} "
              + " ".join(f"{counts[kind]:9d}" for kind in KINDS))
    print(f"{'total':32s} {sum(total.values()):6d} " + " ".join(f"{total[k]:9d}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
