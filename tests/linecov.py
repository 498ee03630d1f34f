"""Opt-in pytest plugin: list the src/ statements that a test run never ran.

    PYTHONPATH=src:tests taskset -c 0 python -m pytest -p linecov [ARGS]

On one CPU suite cells run in the test process, where the trace sees them.
A statement's line counts as executable when the compiler gave it code; lines
whose source text is in ALLOWED are not listed. Slow: keep it out of Tier-1.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
ALLOWED = {"sys.exit(main())",                      # the script entry point
           "return os.cpu_count() or 1"}            # hosts without sched_getaffinity
if len(os.sched_getaffinity(0)) == 1:   # the worker-death test needs a real pool
    ALLOWED |= {"except BrokenProcessPool as err:", "yield err",
                "outcome = _failed_cell(spec.strategy, seed, outcome), 0.0"}
ran: set[tuple[str, int]] = set()


def _line(frame, event, arg):
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(SRC) else None


def _lines(code):
    yield from (line for _, _, line in code.co_lines() if line and line != code.co_firstlineno)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _lines(const)


def pytest_configure(config):
    sys.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    missed, total = [], 0
    for path in sorted(Path(SRC).rglob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        lines = sorted(set(_lines(compile(text, str(path), "exec"))))
        total += len(lines)
        for line in lines:
            if (str(path), line) not in ran and source[line - 1].strip() not in ALLOWED:
                missed.append(f"{path.relative_to(SRC)}:{line}: {source[line - 1].strip()}")
    terminalreporter.section(f"linecov: {len(missed)} of {total} src/ statements never ran")
    for entry in missed:
        terminalreporter.write_line(entry)
