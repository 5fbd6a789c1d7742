"""The mutant list of `mutants.py` stays in step with the source: a
mutant whose text no longer occurs exactly once in its file fails here,
without a run of the mutation harness."""

import pytest

import mutants


def test_mutant_names_are_unique():
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("path,text", [m[1:3] for m in mutants.MUTANTS],
                         ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_text_occurs_once(path, text):
    assert (mutants.ROOT / path).read_text().count(text) == 1
