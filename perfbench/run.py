"""fastreg benchmark: one workload per run, or every workload with --all.

    python3 perfbench/run.py --workload cm-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload cm-sweep --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --all [--seconds N] [--seed N]

A single run prints every metric with its unit, then as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 the per-layer ones,
from a run that wraps fastreg's functions at runtime (see tracer.py).
--all runs each workload four times (twice on one seed, once traced, once
on the next seed), checks that outputs replay and that tracing changes no
output, prints every metric and rewrites BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import hashlib
import importlib.util
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spec
from tracer import Tracer
from workloads import ROOT, SRC, WORKLOADS

SETUP_REPEATS = 9
SPANS_DIR = ROOT / ".perfbench-out"
RUN_TIMEOUT_S = 600


def percentile(ascending: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return ascending[max(0, math.ceil(p / 100 * len(ascending)) - 1)]


def sha_of_lines(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("ascii", "replace")).hexdigest()


def fastreg_source_ok() -> bool:
    """Put this tree's src first on the path; true when fastreg resolves there."""
    sys.path.insert(0, str(SRC))
    found = importlib.util.find_spec("fastreg")
    return bool(found and found.origin) and SRC.resolve() in Path(found.origin).resolve().parents


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]], notes: dict[str, str]) -> None:
    for name, (value, unit) in metrics.items():
        print("%-28s %16.6f %s%s" % (name, value, unit, notes.get(name, "")))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def timed_setup(wl, seed: int) -> float:
    t0 = perf_counter()
    wl.setup(seed)
    return perf_counter() - t0


def measure(wl, seconds: float, seed: int, setup_times: list[float]) -> None:
    """Untraced run: whole units until `seconds` have passed; end-to-end metrics.

    Every unit is the same amount of work, so each yields its own ops/s and
    latency percentiles, and each metric reports its best unit.  On a shared
    2-CPU VM the same unit took up to 1.6x longer in phases from a second to
    over half a minute long; the best unit is the steadiest estimate of the
    program's own cost, as with timeit's best-of-N.
    """
    per_unit: list[dict[str, float]] = []
    attempted = failed = 0
    first = None
    unit = 0
    start = perf_counter()
    while unit == 0 or perf_counter() - start < seconds:
        res = wl.run_unit(unit, None, record=unit == 0)
        first = first or res
        attempted += len(res.latencies) + res.failed
        failed += res.failed
        if res.latencies:
            lat = sorted(res.latencies)
            per_unit.append({
                "ops_per_s": len(lat) / sum(lat),
                "latency_p50_ms": percentile(lat, 50) * 1e3,
                "latency_p90_ms": percentile(lat, 90) * 1e3,
                "latency_p99_ms": percentile(lat, 99) * 1e3,
                "n": len(lat),
            })
        unit += 1
        gc.collect()
    peak_rss_mb = wl.peak_rss_mb()
    # Further set-ups only now: each re-import leaves garbage that would count as peak memory.
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(timed_setup(wl, seed))
    print("workload %s units %d ops %d failed %d error_rate %.6f" % (wl.name, unit, attempted, failed, failed / attempted))
    print("output_sha256 %s" % first.output_sha256)
    print("verdicts_sha256 %s" % sha_of_lines(first.verdicts))
    p99 = min(u["latency_p99_ms"] for u in per_unit)
    print("latency_p99_ms %.6f ms (informational, not gated; best of %d units)" % (p99, len(per_unit)))
    values = {"peak_rss_mb": peak_rss_mb, "setup_s": statistics.median(setup_times)}
    notes = {"setup_s": "  (median of %d set-ups)" % len(setup_times)}
    for name, (_, better, _) in spec.END_TO_END.items():
        if name not in values:
            best = (max if better == "higher" else min)(per_unit, key=lambda u: u[name])
            values[name] = best[name]
            notes[name] = "  (best of %d units, n=%d per unit)" % (len(per_unit), best["n"])
    metrics = {name: (values[name], spec.END_TO_END[name][0]) for name in spec.END_TO_END}
    emit(failed == 0 and attempted > failed, attempted, failed, metrics, notes)


def measure_traced(wl, seconds: float) -> None:
    """Traced run: pairs of untraced and traced units on identical inputs; per-layer metrics.

    Counts come from the first traced unit, so they repeat exactly for a
    seed; times are medians over all traced units.
    """
    start = perf_counter()
    correct = True
    values: dict[str, float] = wl.layer_extras()
    tracer = Tracer()
    timings: dict[str, list[float]] = {}
    ratios: list[float] = []
    attempted = failed = 0
    unit = 0
    while unit == 0 or perf_counter() - start < seconds:
        tracer.uninstall()
        gc.collect()
        plain = wl.traceable_unit(unit, None, record=unit == 0)
        tracer.install()
        tracer.reset()
        gc.collect()
        traced = wl.traceable_unit(unit, tracer, record=unit == 0)
        tracer.settle_envs()
        layer = tracer.unit_metrics(max(1, len(traced.latencies)))
        if unit == 0:
            values.update(layer)
            SPANS_DIR.mkdir(exist_ok=True)
            spans_path = SPANS_DIR / ("%s.spans.tsv" % wl.name)
            tracer.write_spans(spans_path)
            print("output_sha256 %s" % plain.output_sha256)
            print("verdicts_sha256 %s" % sha_of_lines(plain.verdicts))
            if (traced.output_sha256, traced.verdicts) != (plain.output_sha256, plain.verdicts):
                print("FAILED traced output differs from untraced output on the same inputs", file=sys.stderr)
                correct = False
        for name, value in layer.items():
            if spec.PER_LAYER[name][0] == "ms":
                timings.setdefault(name, []).append(value)
        if plain.latencies and traced.latencies:
            ratios.append(sum(traced.latencies) / sum(plain.latencies))
        attempted += len(plain.latencies) + len(traced.latencies) + plain.failed + traced.failed
        failed += plain.failed + traced.failed
        unit += 1
    tracer.uninstall()
    values.update({name: statistics.median(samples) for name, samples in timings.items()})
    values["trace.overhead_pct"] = (statistics.median(ratios) - 1) * 100 if ratios else 0.0
    for name, (_, _, expected) in spec.PER_LAYER.items():
        if wl.name in expected and not values.get(name):
            print("FAILED per-layer metric %s reads 0 on %s" % (name, wl.name), file=sys.stderr)
            correct = False
    print("workload %s traced unit pairs %d ops %d failed %d spans %s" % (
        wl.name, unit, attempted, failed, spans_path.relative_to(ROOT)))
    metrics = {name: (float(values.get(name, 0.0)), spec.PER_LAYER[name][0]) for name in spec.PER_LAYER}
    emit(correct and failed == 0 and attempted > failed, attempted, failed, metrics, {})


def run_one(args) -> int:
    if not fastreg_source_ok():
        print("error: fastreg sources not found under %s" % SRC, file=sys.stderr)
        return 2
    # Set-up is timed with the bytecode cache warm, whether or not the
    # environment lets imports write it (PYTHONDONTWRITEBYTECODE).
    compileall.compile_dir(str(SRC / "fastreg"), quiet=1)
    wl = WORKLOADS[args.workload]()
    setup_times = [timed_setup(wl, args.seed)]
    try:
        wl.prepare()
        print("workload %s seed %d seconds %g trace %d" % (wl.name, args.seed, args.seconds, args.trace))
        if args.trace:
            measure_traced(wl, args.seconds)
        else:
            measure(wl, args.seconds, args.seed, setup_times)
    finally:
        wl.close()
    return 0


def _child_run(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict[str, str]]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d" % (" ".join(argv[1:]), proc.returncode))
    tags = dict(line.split(" ", 1) for line in lines if line.startswith(("output_sha256 ", "verdicts_sha256 ")))
    return json.loads(lines[-1]), tags


def run_all(args) -> int:
    """Every workload: replay, traced and next-seed runs, with their checks."""
    ok = True
    for name in WORKLOADS:
        runs = [(args.seed, 0), (args.seed, 0), (args.seed, 1), (args.seed + 1, 0)]
        results = [_child_run(name, seed, args.seconds, trace) for seed, trace in runs]
        (base, base_tags), (again, again_tags), (traced, traced_tags), (other, other_tags) = results
        checks = {
            "oracles": all(r["correct"] and r["failed"] == 0 for r, _ in results),
            "same seed, same output": base_tags["output_sha256"] == again_tags["output_sha256"],
            "traced, same output": base_tags["output_sha256"] == traced_tags["output_sha256"],
            "other seed, same verdicts": base_tags["verdicts_sha256"] == other_tags["verdicts_sha256"],
        }
        print("== %s (seed %d, %gs per run)" % (name, args.seed, args.seconds))
        for check, passed in checks.items():
            print("check %-28s %s" % (check, "ok" if passed else "FAILED"))
            ok = ok and passed
        print("error_rate %.6f  output_sha256 %s" % (base["failed"] / base["attempted"], base_tags["output_sha256"]))
        for kind, res in (("end_to_end", base), ("per_layer", traced)):
            for metric, m in res["metrics"].items():
                print("%-12s %-28s %16.6f %s" % (kind, metric, m["value"], m["unit"]))
    (ROOT / "BENCHMARK.json").write_text(spec.benchmark_json(), encoding="ascii")
    print("wrote BENCHMARK.json")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, check replay and tracing, rewrite BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
