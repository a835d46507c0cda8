"""Line coverage of the package under the Tier-1 tests.

    python tests/coverage.py

Runs the test suite in this process under a line tracer, `sys.monitoring`
on Python 3.12 and later and `sys.settrace` on 3.11, and compares the lines
that ran with the executable lines of every module of the package that
`import uccakit` would load (installed, or on PYTHONPATH): the line numbers
that `co_lines()` gives for each code object compiled from its source.  It
prints and fails on every executable line that did not run and that ALLOWED
does not name, on every line ALLOWED names that did run, and on every entry
of ALLOWED that names no executable line.

The tests run with hypothesis seeded, without pytest's cache and without
writing bytecode, from a temporary working directory, so that the result
does not depend on earlier runs and no file is left in the checkout.
Failing tests are reported, and gated by the test step; a run that pytest
could not complete exits 2.  Only the standard library is used besides
pytest; the name keeps pytest from collecting this file.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tempfile
import time
import types
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Lines that no test run in this process can reach, by module and stripped
# source text ("*" for every line of the module), with the reason.
ALLOWED = {
    ("__main__.py", "*"): "runs only as `python -m uccakit`, in a subprocess",
    ("cli.py", "entry_point()"): "the `__main__` guard's body: runs only as"
                                 " `python -m uccakit.cli`, in a subprocess",
}


def executable_lines(path: Path) -> set[int]:
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0 or None: no source line
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


@contextmanager
def tracing(paths: set[str]):
    """Gather into the set it yields the (path, line) pairs of `paths` that run."""
    hits: set[tuple[str, int]] = set()
    if hasattr(sys, "monitoring"):
        monitoring = sys.monitoring
        tool, line_event = monitoring.COVERAGE_ID, monitoring.events.LINE

        def on_line(code, line):
            if code.co_filename in paths:
                hits.add((code.co_filename, line))
            return monitoring.DISABLE  # each line of each code object is reported once

        monitoring.use_tool_id(tool, "tests/coverage.py")
        monitoring.register_callback(tool, line_event, on_line)
        monitoring.set_events(tool, line_event)
        try:
            yield hits
        finally:
            monitoring.set_events(tool, 0)
            monitoring.register_callback(tool, line_event, None)
            monitoring.free_tool_id(tool)
        return

    def on_line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename in paths else None

    sys.settrace(on_call)
    try:
        yield hits
    finally:
        sys.settrace(None)


def main() -> int:
    spec = importlib.util.find_spec("uccakit")  # finds the package without running it
    if spec is None:
        print("uccakit is not importable: install it or put src/ on PYTHONPATH")
        return 2
    package = Path(spec.origin).parent
    modules = {path.name: path for path in sorted(package.glob("*.py"))}
    sys.dont_write_bytecode = True
    import pytest

    args = [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
            "--continue-on-collection-errors"]
    started, cwd = time.perf_counter(), os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with tracing({str(path) for path in modules.values()}) as hits:
                status = pytest.main(args)
        finally:
            os.chdir(cwd)
    print(f"pytest exit {status}, traced with "
          f"{'sys.monitoring' if hasattr(sys, 'monitoring') else 'sys.settrace'}"
          f" in {time.perf_counter() - started:.0f} s")
    if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return 2

    faults, executable = [], 0
    used = set()
    for name, path in modules.items():
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        executable += len(lines)
        for line in sorted(lines):
            text = source[line - 1].strip()
            key = next((k for k in ((name, "*"), (name, text)) if k in ALLOWED), None)
            ran = (str(path), line) in hits
            if key:
                used.add(key)
            if ran and key:
                faults.append(f"{path}:{line}: runs, but is listed ({ALLOWED[key]}): {text}")
            elif not ran and not key:
                faults.append(f"{path}:{line}: never runs: {text}")
    faults += [f"allowed line names no executable line: {k}" for k in ALLOWED if k not in used]
    for fault in faults:
        print(fault)
    print(f"{executable} executable lines in {len(modules)} modules of {package};"
          f" {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
