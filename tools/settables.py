"""Count the settable values in the package: keyword defaults and
defaulted dataclass fields.

    python tools/settables.py [SRC_DIR]

An AST walk over every module of src/nightrider (or SRC_DIR).  It counts
each default a function's parameters carry, positional or keyword-only,
and each field of a @dataclass class that is assigned a default in the
class body.  Scenario is left out: its fields are the document format,
and its defaults are the scenario values every other default copies.
Prints the count, then one line per value: file, line and name.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nightrider"
EXCLUDED_CLASSES = {"Scenario"}


def _is_dataclass(cls):
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _function_defaults(fn):
    args = fn.args
    positional = args.posonlyargs + args.args
    named = list(zip(positional[len(positional) - len(args.defaults) :], args.defaults))
    named += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [(d.lineno, f"{fn.name}({a.arg}=)") for a, d in named]


def _walk(node, found):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            if child.name in EXCLUDED_CLASSES:
                continue
            if _is_dataclass(child):
                for stmt in child.body:
                    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                        found.append((stmt.lineno, f"{child.name}.{stmt.target.id}"))
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend(_function_defaults(child))
        _walk(child, found)


def settables(src=SRC):
    """(path, line, name) of every settable value under src, in file order."""
    out = []
    for path in sorted(Path(src).glob("*.py")):
        found = []
        _walk(ast.parse(path.read_text(), filename=str(path)), found)
        out += [(path.name, line, name) for line, name in sorted(found, key=lambda f: f[0])]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=str(SRC))
    values = settables(ap.parse_args(argv).src)
    print(len(values))
    for path, line, name in values:
        print(f"{path}:{line} {name}")


if __name__ == "__main__":
    main()
