"""Golden corpus: every scenario case still produces the pinned bytes."""

from __future__ import annotations

from regen_golden import CORPUS, corpus_lines


def test_every_case_matches_the_golden_digest():
    pinned = [
        line
        for line in CORPUS.read_text(encoding="ascii").splitlines()
        if line and not line.startswith("#")
    ]
    current = corpus_lines()
    assert len(current) == len(pinned) == 729
    changed = [was.rpartition(" ")[0] for was, now in zip(pinned, current) if was != now]
    assert not changed, "%d case(s) changed, first: %s" % (len(changed), changed[0])
