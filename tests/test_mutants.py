"""The mutant list of `mutants.py` stays in step with the source: a
mutant whose text no longer occurs exactly once in its file fails here,
without a run of the mutation harness.  A run ended by SIGTERM leaves
no copy of the repository behind."""

import os
import signal
import subprocess
import sys
import time

import pytest

import mutants


def test_mutant_names_are_unique():
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("path,text", [m[1:3] for m in mutants.MUTANTS],
                         ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_text_occurs_once(path, text):
    assert (mutants.ROOT / path).read_text().count(text) == 1


def test_sigterm_removes_the_copy(tmp_path):
    """SIGTERM during the baseline run, once its copy exists, ends the
    run with the copy removed and its pytest stopped."""
    proc = subprocess.Popen(
        [sys.executable, str(mutants.ROOT / "tests" / "mutants.py"),
         mutants.MUTANTS[0][0]],
        cwd=mutants.ROOT, env=dict(os.environ, TMPDIR=str(tmp_path)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 10.0
        while not any(tmp_path.glob("mutant-*")):
            assert time.monotonic() < deadline, "no copy was made"
            assert proc.poll() is None
            time.sleep(0.02)
        # let the copy finish and its pytest start
        time.sleep(1.0)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10.0) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert list(tmp_path.glob("mutant-*")) == []
