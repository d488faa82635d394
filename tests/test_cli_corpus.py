"""The CLI contract as a kept corpus: every row of ``data/cli_corpus.jsonl``
is an argv with the exit code, stdout and stderr it gave when the file was
written (``tests/write_cli_corpus.py``).  A change that alters output on
purpose rewrites the file, so its diff lists every output that moved."""

import json

from write_cli_corpus import CORPUS, answer


def test_every_row_answers_as_recorded(monkeypatch):
    monkeypatch.delenv("PIFINITE_ORDER_CAP", raising=False)
    with open(CORPUS, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) > 150
    moved = [(row, new) for row in rows if (new := answer(row["argv"])) != row]
    assert moved == []
