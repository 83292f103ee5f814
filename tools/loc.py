"""Print each Python file's total lines and code lines: the lines that hold
code, so neither blank nor only a comment or part of a docstring.

    python tools/loc.py FILE ...
"""

import ast
import io
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source):
    """(total lines, code lines) of a Python source text."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        first = node.body[0] if isinstance(node, SCOPES) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs)


def main(paths):
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            total, code = count(fh.read())
        print(f"{total:6d} {code:6d}  {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
