"""The outputs of the five CLI runs on the README's example config, and
their checked-in record `readme_record.json`.

The runs are `forward`, `scenario --seed 5`, parametric and full-field
`invert --seed 0`, and `verify --seed 0`, made in process by
`beamload.cli.main`.  The record holds, per run, the exit code and, per
output file but `manifest.txt`, the file's sha256 and statistics of each
column in %.17g: the count, sum, sum of squares and largest magnitude of
a numeric column, the sha256 of any other.  A `key=value` summary is one
row whose columns are its keys.  The record also names the platform it
was made on: the numpy version, the config string of the OpenBLAS that
`beamload._lapack` calls and that library's thread count, since numpy's
matrix products on it differ in their last bits between one and two
threads.

A change that alters output bits on purpose regenerates the record from
the repository root with

    PYTHONPATH=src python3 tests/readme_record.py

which prints, for each file whose bits changed, the largest relative
change of its statistics; the change's notes quote those numbers.
"""

import ctypes
import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np

from beamload import _lapack
from beamload.cli import main

HERE = pathlib.Path(__file__).parent
RECORD = HERE / "readme_record.json"

# run: (command and its options, config lines added to the README's)
RUNS = {
    "forward": (["forward"], ""),
    "scenario": (["scenario", "--seed", "5"], ""),
    "invert_parametric": (["invert", "--seed", "0"], ""),
    "invert_full_field": (["invert", "--seed", "0"],
                          "inversion.mode = full_field\n"),
    "verify": (["verify", "--seed", "0"], ""),
}


def readme_config():
    """The `ini` block of the README's command-line section."""
    text = (HERE.parent / "README.md").read_text()
    return text.split("```ini\n", 1)[1].split("```", 1)[0]


def blas_threads():
    """The thread count of numpy's OpenBLAS, which `beamload._lapack`
    calls, or "fallback" when it calls scipy.linalg instead."""
    if _lapack.CONFIG is None:
        return "fallback"
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    lib = ctypes.CDLL(str(min(libs.glob("libscipy_openblas64_*"))))
    return lib.scipy_openblas_get_num_threads64_()


def platform():
    return (f"numpy {np.__version__}; "
            f"{_lapack.CONFIG or 'scipy.linalg fallback'}; "
            f"threads {blas_threads()}")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def columns(path):
    """{name: its values as text} of a CSV with a header row or of a
    `key=value` summary."""
    lines = path.read_text().splitlines()
    if path.suffix != ".csv":
        return {key: (value,)
                for key, value in (line.split("=", 1) for line in lines)}
    header, *rows = (line.split(",") for line in lines)
    return dict(zip(header, zip(*rows)))


def statistics(values):
    try:
        x = np.array(values, dtype=float)
    except ValueError:
        return {"sha256": sha256("\n".join(values).encode())}
    return {"n": len(x), "sum": "%.17g" % x.sum(),
            "sumsq": "%.17g" % (x @ x),
            "max_abs": "%.17g" % np.abs(x).max()}


def record(directory):
    """{run: {"exit": code, "files": {name: sha256 and columns}}} of the
    five runs, made with their outputs under `directory`."""
    config = readme_config()
    runs = {}
    for name, (command, extra) in RUNS.items():
        cfg, out = directory / f"{name}.cfg", directory / name
        cfg.write_text(config + extra)
        code = main([command[0], "--config", str(cfg), "--out", str(out),
                     *command[1:]])
        runs[name] = {"exit": code, "files": {
            path.name: {"sha256": sha256(path.read_bytes()),
                        "columns": {column: statistics(values)
                                    for column, values
                                    in columns(path).items()}}
            for path in sorted(out.iterdir())
            if path.name != "manifest.txt"}}
    return runs


def relative_change(ours, theirs):
    """The largest change between two files' statistics, each relative to
    its scale in `theirs`: the count times the largest magnitude for a
    sum, the sum of squares, the largest magnitude; inf where the columns,
    a count or a text column differ."""
    if ours.keys() != theirs.keys():
        return np.inf
    worst = 0.0
    for column, stats in theirs.items():
        mine = ours[column]
        if mine.keys() != stats.keys() or mine.get("n") != stats.get("n"):
            return np.inf
        if "sha256" in stats:
            if mine != stats:
                return np.inf
            continue
        top = float(stats["max_abs"])
        for key, scale in (("sum", stats["n"] * top),
                           ("sumsq", float(stats["sumsq"])),
                           ("max_abs", top)):
            change = abs(float(mine[key]) - float(stats[key]))
            if change:
                worst = max(worst, change / scale if scale else np.inf)
    return worst


def regenerate():
    old = json.loads(RECORD.read_text())["runs"] if RECORD.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = record(pathlib.Path(tmp))
    for name, run in runs.items():
        for file, found in run["files"].items():
            was = old.get(name, {}).get("files", {}).get(file)
            if was is None or was["sha256"] != found["sha256"]:
                change = (relative_change(found["columns"], was["columns"])
                          if was else "new file")
                print(f"{name}/{file}: largest relative change {change}")
    RECORD.write_text(json.dumps({"platform": platform(), "runs": runs},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {RECORD} on {platform()}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
