"""Run pytest and fail unless every executable line of src/geoalign runs.

    PYTHONPATH=src python scripts/reach.py [PYTEST_ARGS...]

Every argument goes to pytest unchanged. A ``sys.settrace`` hook, installed
before pytest starts and so before the package is imported, records each line
that runs in a frame whose code lives under src/geoalign; module-level lines
count as run when the package is imported. The executable lines come from
``dis.findlinestarts`` over every code object nested in each module. After the
session, each unreached line is printed as ``file:line: source``, and the
session fails if one of them is not on ``ALLOWED``, or if an ``ALLOWED`` entry
names no unreached line. Tracing runs in this process only, so a line that
runs only in a child process can never be counted.
"""

from __future__ import annotations

import dis
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "geoalign"

# Lines that run only in a child process: ``python -m geoalign``, and the
# out-of-memory re-raises that TestOutOfMemory reaches under RLIMIT_AS. Keyed
# by file name and stripped source text, so an edit elsewhere in a file
# cannot break an entry.
ALLOWED = {
    ("__main__.py", "import sys"),
    ("__main__.py", "from .cli import main"),
    ("__main__.py", 'if __name__ == "__main__":'),
    ("__main__.py", "sys.exit(main())"),
    ("cli.py", "sys.exit(main())"),
    ("cli.py", 'raise MemoryError(f"raster {spec.raster}: out of memory ({exc})") from None'),
    ("cli.py", 'raise MemoryError(f"--scenes {args.scenes}: out of memory ({exc})") from None'),
}


def _executable_lines(code) -> set[int]:
    lines = {line for _, line in dis.findlinestarts(code) if line is not None and line > 0}
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            lines |= _executable_lines(const)
    return lines


class Reach:
    """The pytest plugin; ``trace_call`` is the ``sys.settrace`` hook."""

    def __init__(self):
        self.reached: set[tuple[str, int]] = set()
        self.traced: dict[str, bool] = {}  # code file name -> lies under PACKAGE
        self.report: list[str] = []

    def trace_call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        traced = self.traced.get(filename)
        if traced is None:
            traced = self.traced[filename] = Path(filename).resolve().is_relative_to(PACKAGE)
        if not traced:
            return None
        # A code object's first line table entry gets a call event, never a line event.
        self.reached.add((filename, frame.f_lineno))
        return self.trace_line

    def trace_line(self, frame, event, arg):
        self.reached.add((frame.f_code.co_filename, frame.f_lineno))
        return self.trace_line

    def unreached(self) -> list[tuple[Path, int, str]]:
        reached = {(Path(f).resolve(), line) for f, line in self.reached}
        unreached = []
        for path in sorted(PACKAGE.glob("*.py")):
            text = path.read_text()
            source = text.splitlines()
            for line in sorted(_executable_lines(compile(text, str(path), "exec"))):
                if (path, line) not in reached:
                    unreached.append((path, line, source[line - 1].strip()))
        return unreached

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        unreached = self.unreached()
        allowed = [(path.name, text) in ALLOWED for path, _, text in unreached]
        stale = ALLOWED - {(path.name, text) for path, _, text in unreached}
        for (path, line, text), ok in zip(unreached, allowed):
            tag = "  (allowed: child process only)" if ok else ""
            self.report.append(f"{path.relative_to(ROOT)}:{line}: {text}{tag}")
        for name, text in sorted(stale):
            self.report.append(f"allow-list entry reached in-process or gone: {name}: {text}")
        self.report.append(f"reach: {len(unreached)} unreached lines, "
                           f"{allowed.count(False)} not allowed, "
                           f"{len(stale)} stale allow-list entries")
        if not all(allowed) or stale:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.section("reach")
        for line in self.report:
            terminalreporter.write_line(line)


if __name__ == "__main__":
    reach = Reach()
    sys.settrace(reach.trace_call)
    sys.exit(pytest.main(sys.argv[1:], plugins=[reach]))
