"""Golden corpus: every scenario case still produces the pinned bytes."""

from __future__ import annotations

from fastreg.channel import EVENT_FIELDS
from regen_golden import CORPUS, cases, corpus_lines, run_case


def test_every_case_matches_the_golden_digest():
    pinned = [
        line
        for line in CORPUS.read_text(encoding="ascii").splitlines()
        if line and not line.startswith("#")
    ]
    current = corpus_lines()
    assert len(current) == len(pinned) == 567
    changed = [was.rpartition(" ")[0] for was, now in zip(pinned, current) if was != now]
    assert not changed, "%d case(s) changed, first: %s" % (len(changed), changed[0])


def test_every_event_field_is_a_str_across_the_corpus():
    # EventLog.emit stores the values it is given without converting them.
    checked = 0
    for case in cases():
        report = run_case(*case)
        for event in report.env.events.entries:
            assert len(event) - 3 == len(EVENT_FIELDS[event.name]), "%s: %r" % (" ".join(map(str, case)), event)
            odd = {k: v for k, v in event.fields.items() if type(k) is not str or type(v) is not str}
            assert not odd, "%s: %s %r" % (" ".join(map(str, case)), event.name, odd)
            checked += 1
    assert checked > 10_000
