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


def test_changed_names_each_differing_case(monkeypatch, capsys):
    """--changed prints each case whose fingerprint differs from the file,
    with both hash prefixes, and exits 1; with none it prints nothing and
    exits 0."""
    monkeypatch.setattr(corpus, "CASES", {"same": lambda: 1,
                                          "moved": lambda: 2,
                                          "new": lambda: 3})
    same = corpus.fingerprint("same")
    monkeypatch.setattr(corpus, "recorded", lambda: {
        "same": same, "moved": "0" * 64})
    assert corpus.main(["--changed"]) == 1
    lines = capsys.readouterr().out.splitlines()
    now = {name: corpus.fingerprint(name)[:12] for name in ("moved", "new")}
    assert lines == [f"moved: {'0' * 12} -> {now['moved']}",
                     f"new: absent -> {now['new']}"]
    monkeypatch.setattr(corpus, "recorded", lambda: {
        name: corpus.fingerprint(name) for name in corpus.CASES})
    assert corpus.main(["--changed"]) == 0
    assert capsys.readouterr().out == ""
