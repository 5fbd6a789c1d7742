"""Mutation check of the tier-1 suite.

Applies each one-line source mutant of `MUTANTS`, one at a time, to a
fresh copy of the repository in a temporary directory, runs the whole
tier-1 suite there and compares its failing tests with those of an
unmutated copy (the baseline, where criterion 6 fails).  A mutant is
killed when the two sets differ.  A mutant whose text no longer occurs
exactly once in its file is reported as stale, so the list is kept in
step with the source.  Not collected by tier-1 (the name does not match
`test_*.py`).  Run from the repository root:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py kappa_lower_not_strict read_only_dropped

Each run takes one tier-1 run, about 15-20 s on 2 vCPUs.  The exit code
is 1 when a mutant survives or is stale, else 0.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (name, file, text, mutated text): each text occurs once in its file
MUTANTS = [
    ("kappa_lower_not_strict", "src/beamload/model.py",
     '("kappa", "kappa0", "kappa1", True)',
     '("kappa", "kappa0", "kappa1", False)'),
    ("upper_bound_inclusive", "src/beamload/model.py",
     "values > hi)", "values >= hi)"),
    ("finiteness_dropped", "src/beamload/model.py",
     '("finiteness", ~np.isfinite(values))',
     '("finiteness", np.zeros(values.shape, bool))'),
    ("read_only_dropped", "src/beamload/model.py",
     "values.flags.writeable = False", "pass"),
    ("grid_length_check_dropped", "src/beamload/assembly.py",
     "if len(coeffs.rho_A) != n_nodes:", "if False:"),
    ("force_train_sign_flipped", "src/beamload/forward.py",
     "train = (-1.0) ** np.arange(n_times - 1)",
     "train = -(-1.0) ** np.arange(n_times - 1)"),
    ("newmark_a0_scaled", "src/beamload/forward.py",
     "a0, a1, a2, h = 4.0 / dt ** 2,",
     "a0, a1, a2, h = 4.0 / dt ** 2 * (1 + 1e-8),"),
    ("morozov_strict", "src/beamload/inversion.py",
     "if 2.0 * J <= morozov_sq:", "if 2.0 * J < morozov_sq:"),
    ("table_row_check_off_by_one", "src/beamload/io.py",
     "if data.shape[0] != n_rows:",
     "if data.shape[0] not in (n_rows, n_rows - 1):"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".perfbench_runs", "*.egg-info", "build")


def failing_tests(tree):
    """The failing and erroring test IDs of one tier-1 run in `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True,
                         text=True).stdout
    return {line.split(" - ")[0].split(" ", 1)[1]
            for line in out.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def run_copy(mutant=None):
    """Failing tests of a fresh copy of the repository, with `mutant`
    applied; None when the mutant's text is not in its file once."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if mutant is not None:
            _, path, old, new = mutant
            source = (tree / path).read_text()
            if source.count(old) != 1:
                return None
            (tree / path).write_text(source.replace(old, new))
        return failing_tests(tree)


def main(names):
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    baseline = run_copy()
    print(f"baseline: {len(baseline)} failing: {', '.join(sorted(baseline))}")
    clean = True
    for mutant in MUTANTS:
        if names and mutant[0] not in names:
            continue
        failing = run_copy(mutant)
        if failing is None:
            verdict, detail = "STALE", "text not found once"
        elif failing == baseline:
            verdict, detail = "SURVIVED", ""
        else:
            new = sorted(failing ^ baseline)
            verdict = "killed"
            detail = f"{len(new)} tests, first {new[0]}"
        clean = clean and verdict == "killed"
        print(f"{mutant[0]:28s} {verdict:8s} {detail}", flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
