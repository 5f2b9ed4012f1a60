"""Line coverage of ``src/derived_brackets`` under the in-process tier-1.

Runs ``pytest.main`` on ``tests/`` and then the five demos through
``runpy``, all under ``sys.settrace``, and counts each function-body line of
the package: the lines of every function, method, lambda and comprehension
code object that the compiled modules hold (``co_lines()``), without the
``def`` line itself.  Prints per-module totals and the line numbers that
never ran.  Tests that start a subprocess are not traced there.  No
coverage package is needed; pytest does not collect this file.

    python tests/linecov.py [extra pytest arguments]

Exits 0; the report is the output.
"""

from __future__ import annotations

import contextlib
import glob
import inspect
import io
import os
import runpy
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "derived_brackets")


def body_lines(path: str) -> set[int]:
    """The function-body lines of the module at ``path``."""
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    lines: set[int] = set()
    stack = [c for c in module.co_consts if isinstance(c, types.CodeType)]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class body
            lines.update(
                line for _, _, line in code.co_lines()
                if line is not None and line != code.co_firstlineno
            )
    return lines


def trace_run(pytest_args: list[str]) -> dict[str, set[int]]:
    """Run tier-1 and the demos under a line tracer; the lines executed in
    each package file."""
    import pytest

    hits: dict[str, set[int]] = {}
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"), *pytest_args])
        for demo in sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(demo, run_name="__main__")
    finally:
        sys.settrace(None)
    return hits


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    hits = trace_run(argv)
    total = missed = 0
    print("\nfunction-body lines of src/derived_brackets never run:")
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        lines = body_lines(path)
        dead = sorted(lines - hits.get(path, set()))
        total += len(lines)
        missed += len(dead)
        shown = ", ".join(map(str, dead)) if dead else "-"
        print(f"  {os.path.basename(path):<14} {len(dead):>4} / {len(lines):>4}  {shown}")
    print(f"  {'total':<14} {missed:>4} / {total:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
