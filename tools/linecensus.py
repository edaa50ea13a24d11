"""Line census: the executable lines of ``src/`` that a pytest run never executes.

Run from the root of a source checkout, with pytest's own arguments
after the script name:

    PYTHONPATH=src python tools/linecensus.py -q

A line is executable when ``co_lines()`` of one of its file's code
objects, nested ones included, reports it.  A ``sys.settrace`` hook,
installed before collection, records every line that runs inside
``src/``.  After the run the census prints each executable line that
never ran, as ``path:line: source``, then the totals.  The exit status
is pytest's.  Only the standard library and pytest are needed; tracing
makes the suite several times slower.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def code_lines(code) -> set[int]:
    """Line numbers that ``co_lines()`` reports for one code object, nested ones excluded."""
    return {line for _, _, line in code.co_lines() if line}  # a module starts at line 0


def executable_lines(path: Path) -> set[int]:
    """Line numbers that ``co_lines()`` reports for the file's code objects."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines |= code_lines(code)
        stack.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


class Census:
    """A pytest plugin: traces the session, then reports the never-run lines.

    Each code object under ``src/`` keeps the set of its lines not yet
    seen; once it is empty, the code object's frames are no longer traced
    line by line, so a hot function costs little once every line has run.
    """

    def __init__(self, src: Path = SRC) -> None:
        self.executable = {str(p): executable_lines(p) for p in sorted(src.rglob("*.py"))}
        self._unseen: dict = {}  # code object -> (file, its lines, its lines not yet seen) or None

    def _trace(self, frame, event, arg):
        code = frame.f_code
        try:
            entry = self._unseen[code]
        except KeyError:
            name = os.path.abspath(code.co_filename)
            entry = None
            if name in self.executable:
                lines = code_lines(code)
                entry = (name, lines, set(lines))
            self._unseen[code] = entry
        if entry is None or not entry[2]:
            return None
        unseen = entry[2]
        unseen.discard(frame.f_lineno)

        def trace_lines(frame, event, arg):
            unseen.discard(frame.f_lineno)
            return trace_lines if unseen else None

        return trace_lines

    def pytest_sessionstart(self, session) -> None:
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def pytest_terminal_summary(self, terminalreporter) -> None:
        write = terminalreporter.write_line
        write("")
        ran: dict[str, set[int]] = {name: set() for name in self.executable}
        for entry in self._unseen.values():
            if entry is not None:
                name, lines, unseen = entry
                ran[name] |= lines - unseen
        total = never = 0
        for name, lines in self.executable.items():
            missed = sorted(lines - ran[name])
            source = Path(name).read_text(encoding="utf-8").splitlines()
            rel = Path(name).relative_to(ROOT)
            for line in missed:
                write(f"{rel}:{line}: {source[line - 1].strip()}")
            total += len(lines)
            never += len(missed)
        write(f"census: {total} executable lines in src/, {total - never} ran, {never} never ran")


def main(argv: list[str]) -> int:
    import pytest

    return int(pytest.main(argv, plugins=[Census()]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
