"""List the statements of src/merminsim that the test suite never executes.

Runs the suite in this process under sys.settrace and threading.settrace,
recording the lines executed in src/merminsim only. A forked Monte Carlo
worker leaves through os._exit, which is wrapped here so that the child
first writes its lines to a file for the parent to merge. Then prints the
start line of every statement (docstrings excluded) that no test executed,
one "module.py:line" a line, in file and line order; pytest's own report
goes to stderr. The exit code is pytest's.

    python tools/linemap.py > unexecuted.txt

Lines that only a subprocess runs, such as the `python -m` entry point,
are listed too: the tracer sees this process and its forked children.
tools/unexecuted.txt holds the last listing, each line with its reason.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "merminsim"


def statement_lines(path: Path) -> set[int]:
    """The start line of every statement in the file at path, but for
    docstrings, which compile to no code of their own."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {
        node.body[0]
        for node in ast.walk(tree)
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None
    }
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and node not in docstrings
    }


def traced_run(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code on pytest_args, and the (file name, line) pairs
    executed in the package by this process and its forked children."""
    prefix = str(PACKAGE) + os.sep
    executed: set[tuple[str, int]] = set()
    watched: dict[str, bool] = {}

    def trace_lines(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        inside = watched.get(name)
        if inside is None:
            inside = watched[name] = name.startswith(prefix)
        return trace_lines if inside else None

    parent = os.getpid()
    real_exit = os._exit

    with tempfile.TemporaryDirectory(prefix="linemap-") as dump_dir:

        def exit_after_dump(status):
            if os.getpid() != parent:
                with open(os.path.join(dump_dir, str(os.getpid())), "w", encoding="utf-8") as fh:
                    fh.writelines(f"{name}\t{line}\n" for name, line in executed)
            real_exit(status)

        os._exit = exit_after_dump
        threading.settrace(trace_calls)
        sys.settrace(trace_calls)
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = pytest.main(pytest_args)
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os._exit = real_exit
        for dump in Path(dump_dir).iterdir():
            for record in dump.read_text(encoding="utf-8").splitlines():
                name, line = record.split("\t")
                executed.add((name, int(line)))
    return int(code), executed


def main() -> int:
    # The suite's pytest settings put src/ first on sys.path.
    code, executed = traced_run(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    for path in sorted(PACKAGE.glob("*.py")):
        ran = {line for name, line in executed if name == str(path)}
        for line in sorted(statement_lines(path) - ran):
            print(f"{path.name}:{line}")
    return code


if __name__ == "__main__":
    sys.exit(main())
