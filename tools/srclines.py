#!/usr/bin/env python3
"""Print the line counts of each ``src/ditop`` module: all its lines, and
its code lines, those outside docstrings, comment lines and blank lines.

Usage, from the repository root: ``python3 tools/srclines.py [ROOT]``,
where ROOT (default: this checkout) holds ``src/ditop``.  A docstring is
the string statement that opens a module, class or function, found with
``ast``; a comment line is one whose first non-blank character is ``#``.
"""
import ast
import os
import sys


def counts(path):
    """(all lines, code lines) of one Python source file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in doc and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    pkg = os.path.join(root, "src", "ditop")
    rows = [(name, *counts(os.path.join(pkg, name)))
            for name in sorted(os.listdir(pkg)) if name.endswith(".py")]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for name, total, code in rows:
        print(f"{name:<16}{total:>7}{code:>7}")


if __name__ == "__main__":
    main()
