"""The committed corpus of exact CLI outputs (`corpus.json`, written by `corpus.py`)."""

import json

from corpus import CORPUS, outputs


def test_outputs_match_the_committed_corpus(monkeypatch):
    monkeypatch.delenv("MF_TOL", raising=False)
    want = json.loads(CORPUS.read_text(encoding="utf-8"))
    got = outputs()
    assert list(got) == list(want), "the corpus argv list changed; regenerate tests/corpus.json"
    differ = next((argv for argv in got if got[argv] != want[argv]), None)
    assert differ is None, f"{differ}: (exit, sha256) {got[differ]} != {want[differ]} in tests/corpus.json"
