"""The README-config outputs against their checked-in record (see
`readme_record.py`): bit for bit on the platform the record was made on,
elsewhere by their statistics, at tolerances measured on other OpenBLAS
kernels."""

import contextlib
import json

import pytest

import readme_record
from beamload import _lapack, forward
from beamload.cli import main
from test_lapack import _no_library, fallback

# Tolerances of `relative_change` off the record's platform.  With
# OPENBLAS_CORETYPE set to Haswell, Sandybridge, Nehalem, Zen or Prescott
# (numpy 2.4.6; scipy 1.17.1 on the fallback), the largest change was
# 3.4e-9, but for two files that hold round-off: the energy residual
# (1.2e-4) and the parametric fit's J (2.6e-7), both on numpy's OpenBLAS
# and on the fallback.  Each tolerance is ten times the largest change,
# rounded up to a power of ten.
RTOL = 1e-7
ROUNDOFF_RTOL = {"forward/energy_residual.csv": 1e-2,
                 "invert_parametric/summary.txt": 1e-5}

RECORD = json.loads(readme_record.RECORD.read_text())


@pytest.fixture(scope="module", params=["numpy", "fallback"])
def outputs(request, tmp_path_factory):
    """(the five runs' record, the platform they ran on), on numpy's
    OpenBLAS or on the scipy.linalg fallback, which is never the
    record's platform."""
    directory = tmp_path_factory.mktemp(request.param)
    if request.param == "numpy":
        return readme_record.record(directory), readme_record.platform()
    with fallback(_no_library):
        assert _lapack.CONFIG is None
        return readme_record.record(directory), readme_record.platform()


@pytest.mark.parametrize("run", readme_record.RUNS)
def test_readme_config_outputs_match_record(outputs, run):
    runs, platform = outputs
    found, expected = runs[run], RECORD["runs"][run]
    assert found["exit"] == expected["exit"]
    assert found["files"].keys() == expected["files"].keys()
    if platform == RECORD["platform"]:
        for name, file in expected["files"].items():
            assert found["files"][name]["sha256"] == file["sha256"], name
        return
    print(f"{run}: bits not compared on {platform!r}, which is not the "
          f"record's {RECORD['platform']!r}; statistics compared")
    for name, file in expected["files"].items():
        change = readme_record.relative_change(
            found["files"][name]["columns"], file["columns"])
        assert change <= ROUNDOFF_RTOL.get(f"{run}/{name}", RTOL), name


def test_relative_change_scales_each_statistic():
    theirs = {"x": {"n": 4, "sum": "2", "sumsq": "4", "max_abs": "1"},
              "name": {"sha256": "ab"}}
    ours = json.loads(json.dumps(theirs))
    assert readme_record.relative_change(ours, theirs) == 0.0
    ours["x"]["sum"] = "2.4"
    # a sum is scaled by n times the largest magnitude
    assert readme_record.relative_change(ours, theirs) == pytest.approx(0.1)
    ours["x"]["sumsq"] = "5"
    assert readme_record.relative_change(ours, theirs) == 0.25
    for column, key, value in [("x", "n", 5), ("name", "sha256", "cd")]:
        changed = json.loads(json.dumps(theirs))
        changed[column][key] = value
        assert readme_record.relative_change(changed, theirs) == float("inf")
    assert readme_record.relative_change({"x": theirs["x"]}, theirs) == (
        float("inf"))


def test_fallback_invert_builds_its_own_kernel(tmp_path, count_calls):
    """The record's parametric `invert` keeps its kernel for a second run
    on numpy's OpenBLAS, and its fallback run builds its own."""
    config = tmp_path / "invert.cfg"
    config.write_text(readme_record.readme_config())
    command = readme_record.RUNS["invert_parametric"][0]
    calls = count_calls(forward.impulse_kernel)
    builds = []
    for run, backend in enumerate(("numpy", "numpy", "fallback")):
        with (fallback(_no_library) if backend == "fallback"
              else contextlib.nullcontext()):
            assert main([command[0], "--config", str(config), "--out",
                         str(tmp_path / f"run{run}"), *command[1:]]) == 0
        builds.append(calls["impulse_kernel"])
    assert builds == [1, 1, 2]
