"""Count the lines of each module of a Python package, and in total.

Two counts per module: non-blank lines, and code lines. A code line is a
non-blank line that holds a token other than a comment and lies outside
every module, class and function docstring.

    python3 tools/src_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to ``src/sdtdl`` beside this tool. It prints one
line per module, ``non-blank code name``, then the totals.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize

# tokens that hold no code: a line with only these is a comment or blank
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple:
    """``(non-blank lines, code lines)`` of one module's source."""
    nonblank = {i for i, line in enumerate(source.splitlines(), 1) if line.strip()}
    tokens = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            tokens.update(range(tok.start[0], tok.end[0] + 1))
    code = (tokens & nonblank) - _docstring_lines(ast.parse(source))
    return len(nonblank), len(code)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default = pathlib.Path(__file__).resolve().parent.parent / "src" / "sdtdl"
    parser.add_argument("package", nargs="?", type=pathlib.Path, default=default)
    args = parser.parse_args(argv)
    paths = sorted(args.package.glob("*.py"))
    if not paths:
        parser.error(f"no Python module in {args.package}")
    modules = {p.name: count_lines(p.read_text()) for p in paths}
    modules["total"] = tuple(map(sum, zip(*modules.values())))
    for name, (nonblank, code) in modules.items():
        print(f"{nonblank:6d} {code:6d} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
