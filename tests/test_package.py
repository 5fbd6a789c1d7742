"""Guards for deletions: the public names and the demos stay importable."""

import importlib.util
import pathlib

import pytest

import beamload

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("name", beamload.__all__)
def test_every_exported_name_resolves(name):
    assert hasattr(beamload, name)


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
