"""Line trace of the test suite: every executable line of the library must
run under `tests/`, or be listed here with the reason it cannot.

Run from the repository root, with the test dependencies installed:

    python tests/trace_lines.py

It runs pytest on `tests/` in this process under `sys.settrace` (and
`threading.settrace`, for the tests' own threads), tracing only frames of
files in `src/snfglp`, which it puts first on `sys.path`.  A line is
executable when a code object compiled from its file has an instruction on
it; it is reached when a traced frame runs it.  Lines that run only in a
subprocess, such as `python -m snfglp`, are not reached here.  The tool
prints every unreached line, marked with its reason when it is listed in
`LISTED`, and then a summary.  Exit status 1 means an unreached line is
not listed, or a listed line is reached; 2 means the tests fail.  Besides
pytest, which it runs, it uses the standard library alone (no coverage
tool); pytest does not collect it.
"""
from __future__ import annotations

import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "snfglp")

# (path relative to the repository root, stripped line text) -> reason
LISTED = {
    ("src/snfglp/__main__.py", "from .cli import main"):
        "the `python -m snfglp` entry, run only in TestModuleEntry's subprocess",
    ("src/snfglp/__main__.py", "main()"):
        "the `python -m snfglp` entry, run only in TestModuleEntry's subprocess",
}


def _lines(code: types.CodeType) -> set[int]:
    """The lines of `code` and of every code object nested in it (a module's
    code starts on line 0, which holds no statement)."""
    out = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            out |= _lines(const)
    return out


def executable_lines() -> dict[str, set[int]]:
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as fh:
                out[path] = _lines(compile(fh.read(), path, "exec"))
    return out


def trace_tests(files: set[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status on `tests/`, and the lines each of `files` ran."""
    reached: dict[str, set[int]] = {path: set() for path in files}

    def tracer(frame, event, arg):
        hits = reached.get(frame.f_code.co_filename)
        if hits is None:
            return None
        hits.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    sys.path.insert(0, SRC)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    module = sys.modules.get("snfglp")
    if module is None or not os.path.abspath(module.__file__).startswith(PACKAGE + os.sep):
        raise SystemExit(f"the tests did not import snfglp from {PACKAGE}")
    return int(status), reached


def main() -> int:
    lines = executable_lines()
    status, reached = trace_tests(set(lines))
    if status != 0:
        print(f"the tests fail (pytest exit status {status})", file=sys.stderr)
        return 2
    unlisted, stale, total, missed = 0, [], 0, 0
    for path, executable in lines.items():
        rel = os.path.relpath(path, ROOT)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        total += len(executable)
        for line in sorted(executable - reached[path]):
            missed += 1
            reason = LISTED.get((rel, text[line - 1].strip()))
            unlisted += reason is None
            print(f"{rel}:{line}: {text[line - 1].strip()}  [{reason or 'NOT LISTED'}]")
        for line in sorted(executable & reached[path]):
            if (rel, text[line - 1].strip()) in LISTED:
                stale.append(f"{rel}:{line}")
    for where in stale:
        print(f"{where}: listed, but the tests reach it")
    print(f"reached {total - missed} of {total} executable lines in {os.path.relpath(PACKAGE, ROOT)}; "
          f"{missed} unreached, {unlisted} of them not listed; {len(stale)} listed lines reached")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
