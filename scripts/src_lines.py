"""Line counts of the package source, split into code, docstring, comment and blank.

A docstring line is any line of a module, class or function docstring,
blank lines inside it included. Of the other lines, a blank line holds only
whitespace, a comment line only a comment, and every remaining line is code.
The last column, defaults, counts the settable values a file declares: the
function parameters with a default value, plus the class fields with one.

Run from the repository root:

    python3 scripts/src_lines.py [directory]   # default: src/hypersfda
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")
COLUMNS = (*KINDS, "defaults")


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def default_count(tree: ast.Module) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return count


def count(path: Path) -> dict[str, int]:
    text = path.read_text()
    tree = ast.parse(text)
    doc = docstring_lines(tree)
    counts = dict.fromkeys(COLUMNS, 0)
    counts["defaults"] = default_count(tree)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in doc:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main(argv: list[str]) -> None:
    root = Path(argv[1] if len(argv) > 1 else "src/hypersfda")
    rows = [(p.name, count(p)) for p in sorted(root.glob("*.py"))]
    total = {kind: sum(c[kind] for _, c in rows) for kind in COLUMNS}
    width = max(len(name) for name, _ in rows + [("total", total)])
    print(f"{'file':<{width}}" + "".join(f"{kind:>10}" for kind in COLUMNS))
    for name, c in rows + [("total", total)]:
        print(f"{name:<{width}}" + "".join(f"{c[kind]:>10}" for kind in COLUMNS))


if __name__ == "__main__":
    main(sys.argv)
