"""Count code lines: non-blank, non-comment, non-docstring.

    python tools/code_lines.py <dir-or-file>...

Prints one count per ``.py`` file and a total per argument.  This is
the counter behind the ROADMAP's line budgets and the ``src/repro`` and
``src/repro/serving`` ceilings CI's ``lint`` job enforces.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Lines of *source* carrying a token that is neither a comment nor
    part of a docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False):
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv) -> int:
    """Print per-file counts and one total line per path in *argv*."""
    missing = [arg for arg in argv if not Path(arg).exists()]
    if not argv or missing:
        for arg in missing:
            print(f"no such file or directory: {arg}", file=sys.stderr)
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for arg in argv:
        root = Path(arg)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        total = 0
        for path in files:
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{count:7d}  {path}")
        print(f"{total:7d}  total {arg}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
