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
than the metric's bound in the parent tree's BENCHMARK.json) and
`unresolved` (the parent's IQR is wider than bound x parent median, so
the runs cannot tell a move of the bound's size from noise), plus
`sha_equal_every_pair` and the raw value of every run.  `--workload` may
be repeated; an existing output file keeps its other workloads.

With `--claim METRIC` the first workload's METRIC is stated as a claim,
met when the change wins at least nine pairs in ten and the medians
differ by more than the parent's interquartile range.  With
`--traced-seconds T` each tree also runs once with `--trace 1`, and the
per-layer metrics of both runs are recorded under `traced`.

With `--units N` the trees are compared unit by unit instead, for
changes smaller than the drift between whole runs.  Each tree gets one
long-lived worker process that imports the tree's own
`perfbench/workloads.py` (with `-B`, so the worker writes no bytecode
into the tree), sets the workload up once on `--seed`, and runs one
warm-up unit, the only one recorded, for the output digests.  Units 1..N then
alternate between the workers, the parent first on odd units, each after
a `gc.collect()`.  Every unit yields ops/s and its p50/p90 latency as
perfbench computes them for a unit; these are summarized like the pairs
above, under `interleaved` in the output file.

Exits 0 when every pair printed one `output_sha256` for both trees, every
run was correct with no failed operation, every metric was within its
bound, and a `--claim` was met; otherwise it still writes the file, says
on stderr what went wrong, and exits 1.  An unresolved metric does not
change the exit status.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 1800
WORKER_EXIT_S = 90
# The per-unit metrics of an interleaved comparison, as perfbench's measure() computes them.
UNIT_METRICS = ("ops_per_s", "latency_p50_ms", "latency_p90_ms")


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


def serve(tree: Path, workload: str, seed: int) -> int:
    """Worker: set `workload` up from `tree` once, then run the units named on stdin, one JSON line each."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from run import percentile
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]()
    wl.setup(seed)
    wl.prepare()
    try:
        for line in sys.stdin:
            unit = int(line)
            gc.collect()
            res = wl.run_unit(unit, None, record=unit == 0)
            lat = sorted(res.latencies)
            reply = {"unit": unit, "failed": res.failed, "ops": len(lat)}
            if lat:
                reply.update(ops_per_s=len(lat) / sum(lat), latency_p50_ms=percentile(lat, 50) * 1e3,
                             latency_p90_ms=percentile(lat, 90) * 1e3)
            if unit == 0:
                reply["output_sha256"] = res.output_sha256
                reply["verdicts_sha256"] = hashlib.sha256("\n".join(res.verdicts).encode("ascii", "replace")).hexdigest()
            print(json.dumps(reply), flush=True)
    finally:
        wl.close()
    return 0


class Worker:
    """One tree's long-lived `serve` process."""

    def __init__(self, tree: Path, workload: str, seed: int) -> None:
        self.tree = tree
        self.proc = subprocess.Popen(
            [sys.executable, "-B", str(Path(__file__).resolve()), "--serve", str(tree.resolve()), workload, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def unit(self, unit: int) -> dict:
        self.proc.stdin.write("%d\n" % unit)
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("%s: worker exited %s during unit %d" % (self.tree, self.proc.wait(), unit))
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=WORKER_EXIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def compare_interleaved(parent: Path, change: Path, workload: str, units: int, seed: int, specs: dict) -> dict:
    specs = {m: specs[m] for m in UNIT_METRICS}
    workers = {}
    try:
        for side, tree in (("parent", parent), ("change", change)):
            workers[side] = Worker(tree, workload, seed)
        warm = {side: w.unit(0) for side, w in workers.items()}
        runs = []
        for unit in range(1, units + 1):
            order = ("parent", "change") if unit % 2 else ("change", "parent")
            row = {"unit": unit, "first": order[0], **{side: workers[side].unit(unit) for side in order}}
            print("%s unit %d: %s" % (workload, unit, "  ".join(
                "%s=%.4g/%.4g" % (m, row["parent"].get(m, 0), row["change"].get(m, 0)) for m in specs)),
                file=sys.stderr, flush=True)
            runs.append(row)
    finally:
        for w in workers.values():
            w.close()
    results = [*warm.values(), *(r[side] for r in runs for side in ("parent", "change"))]
    flat = [{side: {m: r[side].get(m, 0.0) for m in specs} for side in ("parent", "change")} for r in runs]
    return {
        "units": units,
        "seed": seed,
        "sha_equal_every_pair": all(warm["parent"][k] == warm["change"][k] for k in ("output_sha256", "verdicts_sha256")),
        "output_sha256": sorted({w["output_sha256"] for w in warm.values()}),
        "all_correct": all(r["failed"] == 0 and r["ops"] > 0 for r in results),
        "metrics": {m: summarize(m, spec, flat) for m, spec in specs.items()},
        "runs": [{"unit": r["unit"], "first": r["first"], **f} for r, f in zip(runs, flat)],
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--serve"]:
        tree, workload, seed = argv[1:]
        return serve(Path(tree), workload, int(seed))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=900, help="seed of the first pair, or of both workers")
    parser.add_argument("--units", type=int, default=0, help="compare N interleaved units in long-lived workers instead")
    parser.add_argument("--claim", metavar="METRIC", help="an end-to-end metric of the first workload")
    parser.add_argument("--traced-seconds", type=float, default=0, help="also record one traced run per tree")
    parser.add_argument("--title", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.units == 1:
        parser.error("--pairs and --units want at least 2")

    bench = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="ascii"))
    specs = {m["name"]: m for m in bench["end_to_end"]}
    if args.claim is not None and args.claim not in (UNIT_METRICS if args.units else specs):
        parser.error("--claim wants one of %s" % ", ".join(UNIT_METRICS if args.units else specs))
    out = json.loads(args.out.read_text(encoding="ascii")) if args.out.exists() else {}
    out["host"] = "Python %s, %s, %d CPUs" % (platform.python_version(), platform.system(), os.cpu_count() or 0)
    if args.units:
        section, n = "interleaved", args.units
        out["interleaved_method"] = (
            "one long-lived worker per tree imports the tree's perfbench/workloads.py, sets the workload up "
            "on one seed and runs unit 0 unrecorded as a warm-up; units 1..N alternate between the workers "
            "(parent first on odd units), each after gc.collect(); per-unit ops/s and p50/p90 latency; "
            "medians and quartiles (inclusive method) over the units of each side; change_wins counts units "
            "where the change is better; made by tools/bench_pairs.py --units"
        )
    else:
        section, n = "end_to_end", args.pairs
        out.update({
            "harness": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0, each tree run from its own copy",
            "method": "parent/change pairs on consecutive seeds, the order inside a pair alternating (parent first "
            "on even pairs); medians and quartiles (inclusive method) over the runs of each side; change_wins "
            "counts pairs where the change is better; made by tools/bench_pairs.py",
        })
    if args.title:
        out["title"] = args.title
    results = out.setdefault(section, {})
    for workload in args.workload:
        if args.units:
            results[workload] = compare_interleaved(args.parent, args.change, workload, args.units, args.seed, specs)
        else:
            results[workload] = compare(args.parent, args.change, workload, args.pairs, args.seconds, args.seed, specs)
        args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="ascii")
    if args.claim is not None:
        first = args.workload[0]
        out["claim"], out["claim_met"] = claim_text(first, args.claim, results[first]["metrics"][args.claim], n)
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
        print("== %s: %d %s, sha equal %s, all correct %s" % (
            workload, n, "units" if args.units else "pairs", entry["sha_equal_every_pair"], entry["all_correct"]))
        for m, s in entry["metrics"].items():
            print("%-16s parent %12.6g  change %12.6g  %+6.1f%%  wins %2d  iqr %10.4g  within bound %s%s" % (
                m, s["parent"]["median"], s["change"]["median"], s["median_change_pct"],
                s["change_wins"], s["parent_iqr"], s["within_bound"], "  unresolved" if s["unresolved"] else ""))
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
