"""Golden corpus: every scenario case still produces the pinned bytes,
and a seed only chooses fresh values."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

from fastreg.channel import EVENT_FIELDS
from regen_golden import LAYERS, cases, case_layers, corpus_lines, moved_layers, pinned_lines, run_case


def test_every_case_matches_the_golden_digest():
    pinned = pinned_lines()
    current = corpus_lines()
    assert len(current) == len(pinned) == 567
    changed = []
    for was, now in zip(pinned, current):
        a, b = was.split(), now.split()
        assert a[:5] == b[:5] and len(a) == len(b) == 5 + len(LAYERS), (was, now)
        moved = moved_layers(was, now)
        if moved:
            changed.append("%s (%s)" % (" ".join(b[:5]), ", ".join(moved)))
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


# What a seed draws: a GUTI salt, a SUCI, and hex or digit runs of 12 or
# more characters (keys, RAND/AUTN/RES, ICCIDs, NAS containers and MACs).
FRESH = re.compile(r"(?<=guti-)[0-9a-f]{6}(?=-)|suci-[0-9a-f]+|[0-9a-f]{12,}")


def canonical_lines(lines: list[str]) -> list[str]:
    """The lines with each fresh value renamed <n>, n counting first appearances."""
    names: dict[str, str] = {}
    return [FRESH.sub(lambda m: names.setdefault(m.group(), "<%d>" % len(names)), line) for line in lines]


def test_a_seed_only_chooses_fresh_values():
    # Every row x profile x {none, each toggle alone}: the same run, up to
    # renaming, at every seed.  No branch reads a fresh value's content.
    compared = 0
    for case in cases():
        if case[-1] != 0:
            continue
        runs = []
        for seed in (0, 3, 4):
            report, trace, events = case_layers(*case[:-1], seed)
            assert report[2] == "seed %d" % seed
            runs.append(report[:2] + report[3:] + trace + events)
        for other in runs[1:]:
            assert other != runs[0], case
            assert canonical_lines(other) == canonical_lines(runs[0]), " ".join(map(str, case[:-1]))
            compared += 1
    assert compared == 378


# The output digests perfbench prints for seed 0 (`perfbench/run.py --all`):
# each workload's first unit, recorded.  long-session's 3,000 rounds mix
# card-home (4G) and baseband-home (5G) contexts, which no case above does.
PERFBENCH_DIGESTS = {
    "cm-sweep": "f03db61c9005efe79d3773555f55fee20f3bc2740d1c2ae1389e6f571af11948",
    "long-session": "e24aab1626e794f7fcb824ab273767f3040b529a6345c6795d9e97f6b684558d",
    "cli-cold": "e04171f62ab6079699878185c8cf267b9c5e3cfdc8fd25cc7794e67083e9e5f7",
}
PERFBENCH_UNITS = """\
import sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
from workloads import WORKLOADS
for name in ("cm-sweep", "long-session", "cli-cold"):
    wl = WORKLOADS[name]()
    wl.setup(0)
    res = wl.traceable_unit(0, None, record=True)
    print(name, res.output_sha256, res.failed)
"""


def test_the_perfbench_units_print_the_pinned_digests():
    # A child process, because each workload's setup imports fastreg afresh;
    # -B, so that reading perfbench/ writes nothing there.
    root = Path(__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-B", "-c", PERFBENCH_UNITS, str(root)], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["%s %s 0" % item for item in PERFBENCH_DIGESTS.items()]
