#!/usr/bin/env python3
"""Print every executable line of src/modhtan that no test runs, then a total.

Runs pytest in-process under sys.settrace, recording only frames whose code
lives in src/modhtan, and compares the lines run with those that each
module's code objects list in co_lines().  Lines in the body of an
`if __name__ == "__main__":` block are exempt: no test runs a module as a
script.  Exits 1 when pytest fails or any other line goes untested, so it
serves as a gate.  Extra arguments go to pytest:

    PYTHONPATH=src python scripts/untested_lines.py [-q] [tests/...]
"""

import ast
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


def main_block_lines(tree):
    """Line numbers of every `if __name__ == "__main__":` body in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            yield from (n for stmt in node.body for n in range(stmt.lineno, stmt.end_lineno + 1))


sys.settrace(trace)
status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
sys.settrace(None)
missed = []
for path in sorted(SRC.glob("*.py")):
    source = path.read_text(encoding="utf-8")
    exempt = set(main_block_lines(ast.parse(source)))
    code = compile(source, str(path), "exec")
    missed += [f"{path.name}:{n}" for n in sorted(set(lines(code)) - exempt) if (str(path), n) not in ran]
print(*missed, f"{len(missed)} executable lines in src/modhtan ran in no test (pytest exit {status})", sep="\n")
sys.exit(1 if status != 0 or missed else 0)
