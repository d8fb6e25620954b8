"""Every corpus case (tests/corpus.py) reproduces its committed repr hash,
so a change to any seeded result fails under the name of its case."""

import pytest

import corpus

RECORDED = corpus.recorded()


def test_the_file_names_every_case():
    assert sorted(RECORDED) == sorted(corpus.CASES)


@pytest.mark.parametrize("name", sorted(corpus.CASES))
def test_corpus_case(name):
    assert corpus.fingerprint(name) == RECORDED.get(name), (
        f"{name} changed; compare `python tests/corpus.py --show {name}` "
        f"with the parent commit's")
