#!/usr/bin/env python3
"""Print every executable line of src/modhtan that no test runs, then a total.

Runs pytest in-process under sys.settrace, recording only frames whose code
lives in src/modhtan, and compares the lines run with those that each
module's code objects list in co_lines().  Extra arguments go to pytest:

    PYTHONPATH=src python scripts/untested_lines.py [-q] [tests/...]
"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "modhtan"
ran = set()


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(str(SRC)):
        return None
    ran.add((frame.f_code.co_filename, frame.f_lineno))
    return trace


def lines(code):
    yield from (line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from lines(const)


sys.settrace(trace)
status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
sys.settrace(None)
missed = []
for path in sorted(SRC.glob("*.py")):
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    missed += [f"{path.name}:{n}" for n in sorted(set(lines(code))) if (str(path), n) not in ran]
print(*missed, f"{len(missed)} executable lines in src/modhtan ran in no test (pytest exit {status})", sep="\n")
