"""tools/bench_pairs.py: its exit status, with the benchmark runs stubbed out."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
SPECS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trees(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        tree.mkdir()
    (parent / "BENCHMARK.json").write_text(json.dumps({"end_to_end": SPECS}), encoding="ascii")
    return parent, change


def stub(change_rss=30.0, change_ops=100.0, change_sha="aa", correct=True, parent_ops_spread=0.0):
    """A run_once whose change tree reads `change_rss` MB and `change_ops`/s; the parent 40 MB and 100/s,
    plus `parent_ops_spread`/s on odd seeds."""

    def run_once(tree, workload, seed, seconds, trace):
        is_change = tree.name == "change"
        rss, ops = (change_rss, change_ops) if is_change else (40.0, 100.0 + parent_ops_spread * (seed % 2))
        return {
            "metrics": {"ops_per_s": {"value": ops + seed % 3}, "peak_rss_mb": {"value": rss + seed % 2 / 100}},
            "correct": correct or not is_change,
            "failed": 0,
            "output_sha256": change_sha if is_change else "aa",
        }

    return run_once


@pytest.mark.parametrize(
    "run_once, claim, code, says",
    [
        (stub(), "peak_rss_mb", 0, None),
        (stub(), None, 0, None),
        (stub(change_sha="bb"), None, 1, "output_sha256 differs"),
        (stub(correct=False), None, 1, "incorrect"),
        (stub(change_rss=40.0), "peak_rss_mb", 1, "claim not met"),
        (stub(change_ops=70.0), "peak_rss_mb", 1, "ops_per_s is beyond its bound"),
        (stub(change_rss=45.0), None, 1, "peak_rss_mb is beyond its bound"),
    ],
    ids=("claim-met", "no-claim", "sha-differs", "incorrect", "claim-not-met", "ops-beyond-bound", "rss-beyond-bound"),
)
def test_exit_status_follows_digests_correctness_bounds_and_the_claim(
    bench_pairs, monkeypatch, tmp_path, capsys, run_once, claim, code, says
):
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    parent, change = trees(tmp_path)
    out = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "4", "--seconds", "1", "--out", str(out)]
    if claim:
        argv += ["--claim", claim, "--traced-seconds", "1"]
    assert bench_pairs.main(argv) == code
    err = capsys.readouterr().err
    assert json.loads(out.read_text(encoding="ascii"))["end_to_end"]["w"]["pairs"] == 4
    if says is None:
        assert "bench_pairs:" not in err
    else:
        assert "bench_pairs: " in err and says in err


def test_a_parent_spread_wider_than_the_bound_is_unresolved_but_keeps_the_exit_status(
    bench_pairs, monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(bench_pairs, "run_once", stub(parent_ops_spread=60.0))
    parent, change = trees(tmp_path)
    out = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "4", "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    metrics = json.loads(out.read_text(encoding="ascii"))["end_to_end"]["w"]["metrics"]
    assert metrics["ops_per_s"]["unresolved"] and metrics["ops_per_s"]["within_bound"]
    assert not metrics["peak_rss_mb"]["unresolved"]
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed if line.endswith("unresolved")] == ["ops_per_s"]


def test_interleaved_units_of_the_checkout_against_itself_agree(bench_pairs, tmp_path):
    root = TOOL.parent.parent
    out = tmp_path / "bench.json"
    bench_pairs.main([str(root), str(root), "--workload", "cm-sweep", "--units", "2", "--out", str(out)])
    entry = json.loads(out.read_text(encoding="ascii"))["interleaved"]["cm-sweep"]
    assert entry["all_correct"] and entry["sha_equal_every_pair"]
    assert len(entry["output_sha256"]) == 1
    assert [run["unit"] for run in entry["runs"]] == [1, 2]
    assert set(entry["metrics"]) == set(bench_pairs.UNIT_METRICS)
