"""List the library statements that no test executes.

    python tests/reach.py [pytest arguments]

Runs pytest in this process (with no arguments: the whole suite from the
working directory, as ``python -m pytest -q`` would) under a line tracer
limited to ``src/smartcea``, then prints ``file:line text`` for each
statement inside a function body that never ran, and exits with pytest's
code.  Only the standard library is needed.

Not seen: lines of module and class bodies, which run at import and are not
listed, and code run in other processes (``ProcessPoolExecutor`` workers,
subprocess calls of the command line).  A statement counts as run when any
of its own lines, the ones outside its nested statements, raised a line
event; statements that compile to no code (``global``, ``nonlocal``) are
never listed.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "smartcea") + os.sep

hits: set[tuple[str, int]] = set()
_traced: dict[types.CodeType, bool] = {}


def _local(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    wanted = _traced.get(code)
    if wanted is None:
        wanted = _traced[code] = code.co_filename.startswith(PACKAGE)
    return _local if wanted else None


def _function_lines(code: types.CodeType, inside: bool = False) -> set[int]:
    """Lines that can raise a line event inside the functions of ``code``."""
    lines = {line for _, _, line in code.co_lines() if line is not None} if inside else set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            # CO_NEWLOCALS marks a function; a class body runs at import.
            lines |= _function_lines(const, inside or bool(const.co_flags & 0x0002))
    return lines


def _own_lines(stmt: ast.stmt) -> set[int]:
    """The lines of ``stmt`` outside the statements nested in it."""
    lines = set(range(stmt.lineno, stmt.end_lineno + 1))
    for child in ast.walk(stmt):
        if child is not stmt and isinstance(child, (ast.stmt, ast.excepthandler)):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    decorators = getattr(stmt, "decorator_list", [])
    return lines | {d.lineno for d in decorators}


def unreached(path: str) -> list[tuple[int, str]]:
    """(line, text) of each statement in a function body of ``path`` with
    a line that can run, none of which ran."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    runnable = _function_lines(compile(source, path, "exec"))
    text = source.splitlines()
    out = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in func.body:
            for node in ast.walk(stmt):
                own = _own_lines(node) & runnable if isinstance(node, ast.stmt) else ()
                if own and not any((path, line) in hits for line in own):
                    out.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(set(out))


def main(argv: list[str]) -> int:
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        code = pytest.main(argv or ["-q"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = PACKAGE + name
            for line, text in unreached(path):
                print(f"{os.path.relpath(path, ROOT)}:{line} {text}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
