"""Print the private names of a Python module that its tests reach, each
with how often the tests name it, then their total.

    python tools/private_names.py MODULE TEST ...

A private name has one leading underscore and is bound in MODULE: a
function, class or method, an assigned name, an attribute assigned on any
object (``self._x = ...``) or an imported alias.  A test reaches it by any
identifier of that name, an attribute access among them, or by a string
literal that is exactly the name (``monkeypatch.setattr(cls, "_x", ...)``).
"""

import ast
import collections
import io
import re
import sys
import tokenize

PRIVATE = re.compile(r"_[A-Za-z0-9]\w*\Z")


def defined(source):
    """The private names a module's source binds."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return {name for name in names if PRIVATE.match(name)}


def reached(names, sources):
    """How often the test sources name each of ``names``, for those named."""
    uses = collections.Counter()
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                text = tok.string
            elif tok.type == tokenize.STRING:
                try:
                    text = ast.literal_eval(tok.string)
                except (ValueError, SyntaxError):
                    continue
            else:
                continue
            if isinstance(text, str) and text in names:
                uses[text] += 1
    return uses


def main(argv):
    module, tests = argv[0], argv[1:]
    with open(module, encoding="utf-8") as fh:
        names = defined(fh.read())
    sources = []
    for path in tests:
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    uses = reached(names, sources)
    for name in sorted(uses):
        print(f"{uses[name]:6d}  {name}")
    print(f"{len(uses)} private names of {module} reached by {len(tests)} test files")


if __name__ == "__main__":
    main(sys.argv[1:])
