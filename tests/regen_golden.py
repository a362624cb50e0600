"""Golden digest corpus: three SHA-256s per scenario case, pinned in a file.

Each case is (attack, variant, profile, countermeasure, seed).  The
countermeasure column is `none` or one toggle switched on alone; for
`fast_registration`, `on` is every built-in profile's own setting, so
those cases repeat the `none` runs.  A case has one digest for each
output layer, in `LAYERS` order: the report lines, the monitor trace
lines and the event lines, each line followed by a newline.  So a
failure names the layer that moved as well as the case.

Regenerate after an intended behaviour change, from the repository root:

    PYTHONPATH=src python3 tests/regen_golden.py

and name every changed case and its reason in CHANGES.md.  It reads the
old file first and prints how many cases moved in each layer.
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


LAYERS = ("report", "trace", "events")


def case_layers(attack: str, variant: str, profile: str, cm: str, seed: int) -> tuple[list[str], ...]:
    """One case's output lines, one list per entry of `LAYERS`."""
    report = run_case(attack, variant, profile, cm, seed)
    return report.to_lines(), report.env.trace_lines(), report.env.event_lines()


def digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("ascii") + b"\n")
    return h.hexdigest()


def corpus_lines() -> list[str]:
    return [
        "%s %s %s %s %d %s" % (*case, " ".join(map(digest, case_layers(*case)))) for case in cases()
    ]


def pinned_lines() -> list[str]:
    """The case lines the corpus file holds now (none if there is no file)."""
    if not CORPUS.exists():
        return []
    return [line for line in CORPUS.read_text(encoding="ascii").splitlines() if line and not line.startswith("#")]


def moved_layers(was: str, now: str) -> list[str]:
    """The layers whose digest differs between two lines of one case."""
    return [layer for layer, a, b in zip(LAYERS, was.split()[5:], now.split()[5:]) if a != b]


def main() -> int:
    pinned = {tuple(line.split()[:5]): line for line in pinned_lines()}
    lines = corpus_lines()
    header = "# attack variant profile countermeasure seed sha256-%s (see tests/regen_golden.py)" % " sha256-".join(LAYERS)
    CORPUS.write_text("\n".join([header, *lines]) + "\n", encoding="ascii")
    print("wrote %d digests to %s" % (len(lines), CORPUS))
    # How many cases moved in each layer, against the cases the old file also had.
    moved = dict.fromkeys(LAYERS, 0)
    for line in lines:
        was = pinned.get(tuple(line.split()[:5]))
        if was:
            for layer in moved_layers(was, line):
                moved[layer] += 1
    print("moved: %s" % " ".join("%s %d" % item for item in moved.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
