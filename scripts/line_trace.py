#!/usr/bin/env python3
"""List the statements of ``secondkind`` that the seeded command set never
runs.

Runs the commands of ``scripts/seeded_outputs.py`` in one process under a
``sys.settrace`` line tracer, set before ``secondkind`` is imported so that
module-level statements count too. A statement is a line on which an
``ast`` statement starts and for which the compiled module emits a line
event (so docstrings and ``global`` lines, which compile to no code, are
left out). For each module of the package it prints its line count and
the statement lines that never ran, with runs of consecutive lines as
ranges, and then the package's total line count. Lines are counted as
``wc -l`` counts them, by newline characters, so a refactor's "line count
goes down" can be read off this script's output at two checkouts.

Usage: PYTHONPATH=src python scripts/line_trace.py
(point PYTHONPATH at another checkout's ``src`` to trace that version). The
traced run takes about twice as long as ``seeded_outputs.py``.
"""

import ast
import importlib.util
import sys
from pathlib import Path


def statement_lines(path):
    """Lines of ``path`` that start a statement and can emit a line event."""
    text = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)}
    emitted = set()
    codes = [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        emitted.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return starts & emitted


def ranges(lines):
    """``{3, 4, 5, 9}`` as ``"3-5, 9"``."""
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main():
    spec = importlib.util.find_spec("secondkind")
    if spec is None:
        print("line_trace.py: cannot import secondkind; run it with PYTHONPATH=src",
              file=sys.stderr)
        sys.exit(2)
    package = Path(spec.submodule_search_locations[0])
    modules = sorted(package.glob("*.py"))
    ran = {str(p): set() for p in modules}

    def on_line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename in ran else None

    sys.settrace(on_call)
    try:
        # seeded_outputs imports secondkind, so module-level lines are traced
        import seeded_outputs

        records = seeded_outputs.run_all()
    finally:
        sys.settrace(None)
    print(f"{len(records)} commands traced over {package}")
    total = 0
    for path in modules:
        lines = path.read_bytes().count(b"\n")  # as wc -l counts them
        total += lines
        never = statement_lines(path) - ran[str(path)]
        print(f"{path.stem}: {lines} lines; never ran: {ranges(never) if never else '-'}")
    print(f"total: {total} lines")


if __name__ == "__main__":
    main()
