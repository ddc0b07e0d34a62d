"""Count the code lines of each module of the package.

A code line is a line of source that is not blank, not only a comment and
not part of a docstring (of a module, class or function).  The count is
printed per module and for the whole package; it gates nothing.

Usage: python tools/code_lines.py [package_dir]   (default: src/rdgalerkin)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree):
    """Line numbers spanned by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """Number of lines holding a token other than a comment, outside docstrings."""
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    package = Path(argv[1] if len(argv) > 1 else "src/rdgalerkin")
    counts = {p.stem: code_lines(p.read_text()) for p in sorted(package.glob("*.py"))}
    width = max(map(len, counts))
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:5d}")
    print(f"{'package':<{width}}  {sum(counts.values()):5d}")


if __name__ == "__main__":
    main(sys.argv)
