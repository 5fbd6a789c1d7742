"""Guards for deletions and style: the public names and the demos stay
importable, and the source, the tests and the demos keep to 79 columns."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

import beamload

TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))
DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
SOURCES = sorted(pathlib.Path(beamload.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", beamload.__all__)
def test_every_exported_name_resolves(name):
    assert hasattr(beamload, name)


def test_import_leaves_scipy_interpolate_unloaded():
    # the smoothing spline is solved in-house; importing scipy.interpolate
    # would cost startup time and memory for nothing
    code = "import sys, beamload; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         cwd=pathlib.Path(beamload.__file__).parent.parent)
    assert out.stdout.strip() == "False"


def test_source_lines_fit_79_columns():
    # no linter is installed, so this is the line-length guard
    assert len(SOURCES) >= 10 and len(TESTS) >= 10
    long = [f"{path.parent.name}/{path.name}:{n}"
            for path in SOURCES + TESTS + DEMOS
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > 79]
    assert long == []


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_without_running(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
    # importing runs no demo: `main` is only called under __main__
    assert capsys.readouterr().out == ""
