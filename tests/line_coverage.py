"""Line coverage of `src/beamload` by tier-1, with the standard library
alone: no coverage package is needed.

Runs the tier-1 suite in this process under `sys.settrace` and lists
every function-body line of `src/beamload` that no test ran, as
`file:line: text`, then their count.  A body's lines are the source
lines of its statements, docstrings, blank lines and comments aside,
and of a compound statement those of its header; a statement counts as
run when a line of it, or a statement under it, ran.  The body of an
`if __name__ == "__main__":` guard is listed with them, since no import
runs it.  Child processes are not traced: a line that only a test's
subprocess runs (the CLI runs and the fresh-process import checks) is
listed as not run.  Not collected by tier-1 (the name does not match
`test_*.py`).  Run from the repository root, with any pytest options
after the script's name:

    python3 tests/line_coverage.py
    python3 tests/line_coverage.py tests/test_kernel.py -x

Only frames of `src/beamload` are traced line by line, so a run takes
little longer than tier-1 itself.  The exit code is pytest's.

With `--traffic` the tool runs the program's traffic instead of the
tests: the five README runs of `readme_record.RUNS` through
`beamload.cli.main`, then operations 0 and 1 of each benchmark workload
of `perfbench/workloads.py` at workload seed TRAFFIC_SEED (its setup,
`make_input`, `run` and `check`), all in this process, with every output
in a temporary directory.  It lists the lines that none of them reaches
the same way, and exits 0:

    python3 tests/line_coverage.py --traffic
"""

import ast
import os
import pathlib
import sys
import tempfile
import threading

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "beamload"
TIER1 = ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TRAFFIC_SEED = 1


def _statements(body):
    """The statements of a body, the docstring and declarations aside."""
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return [node for node in body
            if not isinstance(node, (ast.Global, ast.Nonlocal))]


def _children(node):
    """The statements and exception handlers directly under `node`."""
    return [child for name in ("body", "orelse", "finalbody", "handlers")
            for child in _statements(getattr(node, name, []))]


def _bodies(module):
    """The statements of every function and method body at the top of
    `module`, and of its `__main__` guard."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _statements(node.body)
        elif isinstance(node, ast.ClassDef):
            yield from _bodies(node)
        elif (isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"):
            yield from _statements(node.body)


def _missed(statements, ran):
    """The line numbers of the statements, and of those under them, that
    did not run, given the set `ran` of the lines that did: all of a
    simple statement's, the header of a compound one."""
    missed = []

    def visit(node):
        first = min([node.lineno] + [decorator.lineno for decorator in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        end = body[0].lineno if body else node.end_lineno + 1
        below = [visit(child) for child in _children(node)]
        hit = not ran.isdisjoint(range(first, end)) or any(below)
        if not hit:
            missed.extend(range(first, end))
        return hit

    for node in statements:
        visit(node)
    return sorted(missed)


def _recorder(ran):
    """A local trace function that adds each line its frame runs to
    `ran`."""
    def lines(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return lines
    return lines


def traffic(directory):
    """Run the README's five CLI runs and operations 0 and 1 of each
    benchmark workload, with their outputs under `directory`."""
    sys.path[:0] = [str(SOURCE.parent), str(ROOT / "perfbench")]
    import readme_record
    from workloads import WORKLOADS
    readme = directory / "readme"
    readme.mkdir()
    readme_record.record(readme)
    for name, kind in WORKLOADS.items():
        workdir = directory / name
        workdir.mkdir()
        workload = kind()
        workload.setup(TRAFFIC_SEED, str(workdir))
        for i in (0, 1):
            op = workload.make_input(i)
            workload.check(op, workload.run(op))


def main(argv):
    files = {str(path): set() for path in sorted(SOURCE.glob("*.py"))}
    recorders = {}

    def calls(frame, event, arg):
        # a frame of `src/beamload` gets its file's recorder, any other
        # frame no line events at all
        name = frame.f_code.co_filename
        if name not in recorders:
            ran = files.get(os.path.realpath(name))
            recorders[name] = None if ran is None else _recorder(ran)
        return recorders[name]

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        if argv == ["--traffic"]:
            with tempfile.TemporaryDirectory() as tmp:
                traffic(pathlib.Path(tmp))
            code = 0
        else:
            code = pytest.main(TIER1 + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path, ran in files.items():
        text = pathlib.Path(path).read_text()
        source = text.splitlines()
        for line in _missed(list(_bodies(ast.parse(text))), ran):
            shown = source[line - 1].strip()
            if shown and not shown.startswith("#"):
                print(f"{pathlib.Path(path).relative_to(ROOT)}:{line}: "
                      f"{shown}")
                total += 1
    print(f"{total} function-body lines of src/beamload not run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
