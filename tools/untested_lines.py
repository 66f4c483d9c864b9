"""Print every statement of the fanav package that a pytest run never runs.

    python tools/untested_lines.py [pytest args]

Runs pytest in this process, with the given arguments, under a
``sys.settrace`` line tracer. The tracer is installed before ``fanav`` is
imported, so module-level statements count too. A statement is a line that
holds bytecode in its module's compiled code. Each statement that never ran
is printed as ``path:line``, in file and line order, and the last line is
their total. The exit code is pytest's.

Lines that run only in a forked lane (:mod:`fanav.lanes`) are not seen: a
lane's child process traces them, but never sends them back. Run with one
lane (``taskset -c 0``) to see them.
"""
from __future__ import annotations

import importlib.util
import os
import sys
import types

import pytest


def statements(path: str) -> set[int]:
    """The lines of ``path`` that hold bytecode, in any of its code
    objects."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines: set[int] = set()
    todo = [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        todo += [c for c in co.co_consts if isinstance(c, types.CodeType)]
    return lines


def main(argv: list[str]) -> int:
    package = importlib.util.find_spec("fanav").submodule_search_locations[0]
    prefix = os.path.join(os.path.abspath(package), "")
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        ran.setdefault(path, set()).add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
    missed = []
    for root, _, files in sorted(os.walk(prefix)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                missed += [f"{os.path.relpath(path)}:{line}" for line in
                           sorted(statements(path) - ran.get(path, set()))]
    print("\n".join(missed))
    print(f"{len(missed)} statements never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
