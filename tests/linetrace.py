"""List the statement lines of ``src/rankweight/`` that no test executes.

Run it from the repository root; pytest does not collect it:

    PYTHONPATH=src python tests/linetrace.py [pytest arguments]

It runs the suite (the ``testpaths`` of ``pyproject.toml`` unless the
arguments name other paths) through ``pytest.main`` under ``sys.settrace``,
recording the lines executed in the package's own files, and then prints,
module by module, each statement line that never ran, with its source.  A statement counts as run when any
line of its head ran: the whole of a simple statement, or a compound
statement up to its body, decorators included.  Docstrings are not
statements here.  Only this process is traced: lines that run only in the
child processes of ``verify`` with more than one worker, or in subprocesses
(the console-script tests), are listed as unexecuted.
"""

import ast
import pathlib
import sys

import pytest

PACKAGE_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "rankweight"


def _statement_heads(source: str) -> dict:
    """The first line of each statement -> the lines of its head."""
    heads = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body and body[0].lineno > node.lineno else node.end_lineno
        heads[node.lineno] = range(first, max(first, last) + 1)
    return heads


def _run_traced(args) -> dict:
    """pytest.main(args) under a line tracer: file name -> the set of lines run there."""
    prefix = str(PACKAGE_DIR) + "/"
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.settrace(calls)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
    if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        raise SystemExit(f"pytest exited with {status!r}")
    return hits


def main(argv) -> int:
    hits = _run_traced(["-q", "-p", "no:cacheprovider", *argv])
    total = 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        ran = hits.get(str(path), set())
        missed = [first for first, head in sorted(_statement_heads(source).items()) if ran.isdisjoint(head)]
        if missed:
            print(f"\n{path.name}: {len(missed)} unexecuted")
            for first in missed:
                print(f"  {first:5d}  {lines[first - 1].strip()}")
        total += len(missed)
    print(f"\n{total} unexecuted statement lines in {PACKAGE_DIR.name}/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
