"""Compare two source trees on the benchmark, in alternating pairs.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload cli-cold \
        --pairs 10 --seconds 30 [--seed 900] [--claim latency_p50_ms] --out BENCH_N.json

Each pair runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` once in each tree, seeds S, S+1, ... one per pair, with the
parent first on even pairs and the change first on odd ones.  The result
is written in the layout of the BENCH_*.json files: per metric the median
and quartiles (inclusive method) of each side, `change_wins` (pairs in
which the change did better), `median_change_pct`, `parent_iqr` and
`within_bound` (the change's median no worse than the parent's by more
than the metric's bound in the parent tree's BENCHMARK.json),
`unresolved` (the parent's IQR is wider than bound x parent median, so
the runs cannot tell a move of the bound's size from noise) and `ratio`
(median and quartiles of the per-pair change/parent ratio, a paired
statistic that drift common to both sides of a pair cancels out of), plus
`sha_equal_every_pair` and the raw value of every run.  `--workload` may
be repeated; an existing output file keeps its other workloads.

With `--claim METRIC` the first workload's METRIC is stated as a claim,
met when the change wins at least nine pairs in ten and the medians
differ by more than the parent's interquartile range.  With
`--traced-seconds T` each tree also runs once with `--trace 1`, and the
per-layer metrics of both runs are recorded under `traced`.

Whole runs are the one way of measuring: only a fresh process measures
all five end-to-end metrics, `setup_s` and `peak_rss_mb` included.

Exits 0 when every pair printed one `output_sha256` for both trees, every
run was correct with no failed operation, every metric was within its
bound, and a `--claim` was met; otherwise it still writes the file, says
on stderr what went wrong, and exits 1.  An unresolved metric does not
change the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 1800


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in `tree`: its JSON result plus the output digest."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s: %s exited %d\n%s" % (tree, " ".join(argv[1:]), proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    result["output_sha256"] = next((l.split()[1] for l in lines if l.startswith("output_sha256 ")), None)
    return result


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def summarize(metric: str, spec: dict, pairs: list[dict]) -> dict:
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    p, c = quartiles(parent), quartiles(change)
    # Paired: each pair's change/parent ratio, so drift shared by the two sides cancels.
    ratios = [cv / pv for pv, cv in zip(parent, change) if pv]
    direction, bound = spec["better"], spec["bound"]
    limit = p["median"] * (1 + bound if direction == "lower" else 1 - bound)
    iqr = round(p["q3"] - p["q1"], 6)
    return {
        "better": direction,
        "bound": bound,
        "parent": p,
        "change": c,
        "change_wins": sum(better(cv, pv, direction) for pv, cv in zip(parent, change)),
        "median_change_pct": round((c["median"] - p["median"]) / p["median"] * 100, 1) if p["median"] else 0.0,
        "ratio": quartiles(ratios) if len(ratios) >= 2 else None,
        "parent_iqr": iqr,
        "within_bound": c["median"] <= limit if direction == "lower" else c["median"] >= limit,
        "unresolved": iqr > bound * p["median"],
    }


def claim_text(workload: str, metric: str, m: dict, n: int) -> tuple[str, bool]:
    before, after = m["parent"]["median"], m["change"]["median"]
    diff = abs(after - before)
    met = m["change_wins"] * 10 >= 9 * n and diff > m["parent_iqr"]
    text = "%s %s %s: change won %d of %d pairs; median %s -> %s (x%.2f); difference %s against a parent IQR of %s" % (
        workload,
        metric,
        "improves" if met else "claim not met",
        m["change_wins"],
        n,
        round(before, 6),
        round(after, 6),
        after / before if before else float("nan"),
        round(diff, 6),
        m["parent_iqr"],
    )
    return text, met


def compare(parent: Path, change: Path, workload: str, pairs: int, seconds: float, seed: int, specs: dict) -> dict:
    runs = []
    for i in range(pairs):
        s = seed + i
        order = (("parent", parent), ("change", change)) if i % 2 == 0 else (("change", change), ("parent", parent))
        row = {"seed": s, "first": order[0][0]}
        for side, tree in order:
            row[side] = run_once(tree, workload, s, seconds, 0)
        print("%s pair %d seed %d: %s" % (workload, i, s, "  ".join(
            "%s=%.4g/%.4g" % (m, row["parent"]["metrics"][m]["value"], row["change"]["metrics"][m]["value"])
            for m in specs)), file=sys.stderr, flush=True)
        runs.append(row)
    flat = [
        {side: {m: r[side]["metrics"][m]["value"] for m in specs} for side in ("parent", "change")} for r in runs
    ]
    return {
        "pairs": pairs,
        "seconds": seconds,
        "seeds": [r["seed"] for r in runs],
        "sha_equal_every_pair": all(r["parent"]["output_sha256"] == r["change"]["output_sha256"] for r in runs),
        "output_sha256": sorted({r[side]["output_sha256"] for r in runs for side in ("parent", "change")}),
        "all_correct": all(r[side]["correct"] and r[side]["failed"] == 0 for r in runs for side in ("parent", "change")),
        "metrics": {m: summarize(m, spec, flat) for m, spec in specs.items()},
        "runs": [{"seed": r["seed"], "first": r["first"], **f} for r, f in zip(runs, flat)],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=900, help="seed of the first pair")
    parser.add_argument("--claim", metavar="METRIC", help="an end-to-end metric of the first workload")
    parser.add_argument("--traced-seconds", type=float, default=0, help="also record one traced run per tree")
    parser.add_argument("--title", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs wants at least 2")

    bench = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="ascii"))
    specs = {m["name"]: m for m in bench["end_to_end"]}
    if args.claim is not None and args.claim not in specs:
        parser.error("--claim wants one of %s" % ", ".join(specs))
    out = json.loads(args.out.read_text(encoding="ascii")) if args.out.exists() else {}
    out["host"] = "Python %s, %s, %d CPUs" % (platform.python_version(), platform.system(), os.cpu_count() or 0)
    out.update({
        "harness": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0, each tree run from its own copy",
        "method": "parent/change pairs on consecutive seeds, the order inside a pair alternating (parent first "
        "on even pairs); medians and quartiles (inclusive method) over the runs of each side; change_wins "
        "counts pairs where the change is better; made by tools/bench_pairs.py",
    })
    if args.title:
        out["title"] = args.title
    results = out.setdefault("end_to_end", {})
    for workload in args.workload:
        results[workload] = compare(args.parent, args.change, workload, args.pairs, args.seconds, args.seed, specs)
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="ascii")
    if args.claim is not None:
        first = args.workload[0]
        out["claim"], out["claim_met"] = claim_text(first, args.claim, results[first]["metrics"][args.claim], args.pairs)
    if args.traced_seconds:
        traced = out.setdefault("traced", {})
        traced["command"] = "python3 perfbench/run.py --workload W --seed %d --seconds %g --trace 1" % (
            args.seed, args.traced_seconds)
        for workload in args.workload:
            traced[workload] = {
                side: {m: v["value"] for m, v in run_once(tree, workload, args.seed, args.traced_seconds, 1)["metrics"].items()}
                for side, tree in (("parent", args.parent), ("change", args.change))
            }
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="ascii")
    for workload in args.workload:
        entry = results[workload]
        print("== %s: %d pairs, sha equal %s, all correct %s" % (
            workload, args.pairs, entry["sha_equal_every_pair"], entry["all_correct"]))
        for m, s in entry["metrics"].items():
            r = s["ratio"] or dict.fromkeys(("median", "q1", "q3"), float("nan"))
            print("%-16s parent %12.6g  change %12.6g  %+6.1f%%  ratio %.3f [%.3f, %.3f]  wins %2d  iqr %10.4g"
                  "  within bound %s%s" % (
                      m, s["parent"]["median"], s["change"]["median"], s["median_change_pct"], r["median"], r["q1"],
                      r["q3"], s["change_wins"], s["parent_iqr"], s["within_bound"],
                      "  unresolved" if s["unresolved"] else ""))
    if "claim" in out:
        print("claim:", out["claim"])
    problems = [
        "%s: %s" % (workload, what)
        for workload in args.workload
        for what, ok in (
            ("output_sha256 differs within a pair", results[workload]["sha_equal_every_pair"]),
            ("a run was incorrect or had failed operations", results[workload]["all_correct"]),
        )
        if not ok
    ]
    problems += [
        "%s: %s is beyond its bound" % (workload, metric)
        for workload in args.workload
        for metric, s in results[workload]["metrics"].items()
        if not s["within_bound"]
    ]
    if args.claim is not None and not out["claim_met"]:
        problems.append("claim not met")
    for problem in problems:
        print("bench_pairs:", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
