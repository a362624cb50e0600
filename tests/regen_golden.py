"""Golden digest corpus: one SHA-256 per scenario case, pinned in a file.

Each case is (attack, variant, profile, countermeasure, seed).  The
countermeasure column is `none` or one toggle switched on alone; for
`fast_registration`, `on` is every built-in profile's own setting, so
those cases repeat the `none` runs.  A case's digest covers the report
lines, the monitor trace lines and the event lines, each followed by a
newline.

Regenerate after an intended behaviour change, from the repository root:

    PYTHONPATH=src python3 tests/regen_golden.py

and name every changed case and its reason in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from fastreg.attacks import PROFILE_ORDER, SCENARIOS, run_scenario
from fastreg.profiles import TOGGLES, countermeasures_from_pairs

CORPUS = Path(__file__).resolve().parent / "golden_digests.txt"

# Every row of the scenario table.
ATTACKS = [(attack, variant) for attack, rows in SCENARIOS.items() for variant in rows]

SEEDS = (0, 1, 2)


def cases():
    for attack, variant in ATTACKS:
        for profile in PROFILE_ORDER:
            for cm in ("none", *TOGGLES):
                for seed in SEEDS:
                    yield attack, variant, profile, cm, seed


def run_case(attack: str, variant: str, profile: str, cm: str, seed: int):
    """The case's report."""
    pairs = {} if cm == "none" else {cm: "on"}
    return run_scenario(attack, profile, seed, countermeasures_from_pairs(pairs), variant)


def case_lines(attack: str, variant: str, profile: str, cm: str, seed: int) -> list[str]:
    """Every output line of one case: report, trace and events."""
    report = run_case(attack, variant, profile, cm, seed)
    return report.to_lines() + report.env.trace_lines() + report.env.event_lines()


def digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("ascii") + b"\n")
    return h.hexdigest()


def corpus_lines() -> list[str]:
    return [
        "%s %s %s %s %d %s" % (*case, digest(case_lines(*case))) for case in cases()
    ]


def main() -> int:
    lines = corpus_lines()
    header = "# attack variant profile countermeasure seed sha256 (see tests/regen_golden.py)"
    CORPUS.write_text("\n".join([header, *lines]) + "\n", encoding="ascii")
    print("wrote %d digests to %s" % (len(lines), CORPUS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
