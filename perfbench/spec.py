"""Names, units and bounds of every workload and metric the benchmark reports.

BENCHMARK.json at the repository root is generated from this module
(`python3 perfbench/run.py --all` rewrites it), so the names printed by a
run and the names in BENCHMARK.json cannot drift apart.
"""

from __future__ import annotations

import json

RUN_SECONDS = 30

WORKLOADS = {
    "cm-sweep": (
        "all 256 toggle sets x 3 profiles x {S1,S2}: short-lived environments, card provisioning,"
        " reader APDUs and full AKA dominate"
    ),
    "long-session": (
        "one env, 3 handsets, 1,000 airplane/fast re-registration rounds each: no env build or AKA;"
        " fast-path crypto, event growth and the dereg table scan dominate"
    ),
    "cli-cold": (
        "fastreg.cli matrix as a fresh child process, one at a time, bytecode warm:"
        " interpreter start and imports dominate"
    ),
}

# name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "ops_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p90_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}

# Modules whose self import time `python -X importtime` reports, one metric each.
IMPORTED_MODULES = (
    "fastreg",
    "fastreg.profiles",
    "fastreg.crypto",
    "fastreg.channel",
    "fastreg.usim",
    "fastreg.equipment",
    "fastreg.network",
    "fastreg.sim",
    "fastreg.attacks",
    "fastreg.config",
    "fastreg.cli",
)


def import_metric(module: str) -> str:
    return "cli.import.%s_ms" % module.rpartition(".")[2]


ALL = tuple(WORKLOADS)
SWEEP_AND_CLI = ("cm-sweep", "cli-cold")
CLI = ("cli-cold",)

# name -> (unit, better, workloads on which a traced run must read it nonzero).
# Counts and times are per unit of work: one sweep pass (1,536 runs), one
# session (3,000 rounds) or one in-process matrix.
PER_LAYER = {
    "crypto.prf.calls": ("count", "lower", ALL),
    "crypto.prf_per_op": ("count", "lower", ALL),
    "crypto.kdf.calls": ("count", "lower", ALL),
    "crypto.senc_sdec.calls": ("count", "lower", ALL),
    "crypto.mac.calls": ("count", "lower", ALL),
    "crypto.av.calls": ("count", "lower", ALL),
    "crypto.self_ms": ("ms", "lower", ALL),
    "usim.apdu.calls": ("count", "lower", ALL),
    "usim.apdu.denied": ("count", "lower", SWEEP_AND_CLI),
    "usim.card_build.calls": ("count", "lower", ALL),
    "usim.context_io.calls": ("count", "lower", ALL),
    "usim.self_ms": ("ms", "lower", ALL),
    "channel.send.calls": ("count", "lower", ALL),
    "channel.tap_record.calls": ("count", "lower", ALL),
    "channel.emit.calls": ("count", "lower", ALL),
    "channel.events_retained": ("count", "lower", ALL),
    "channel.self_ms": ("ms", "lower", ALL),
    "network.handle.calls": ("count", "lower", ALL),
    "network.aka.runs": ("count", "lower", ALL),
    "network.fast_accept_ratio": ("ratio", "higher", ALL),
    "network.table_rows": ("count", "lower", ALL),
    "network.dereg_ms": ("ms", "lower", ALL),
    "network.self_ms": ("ms", "lower", ALL),
    "equipment.register_ms": ("ms", "lower", ALL),
    "equipment.deregister_ms": ("ms", "lower", ALL),
    "equipment.baseband_deletions": ("count", "lower", ("cm-sweep",)),
    "equipment.self_ms": ("ms", "lower", ALL),
    "sim.env_build_ms": ("ms", "lower", ALL),
    "attacks.self_ms": ("ms", "lower", SWEEP_AND_CLI),
    "cli.interpreter_ms": ("ms", "lower", CLI),
    **{import_metric(m): ("ms", "lower", CLI) for m in IMPORTED_MODULES},
    "trace.overhead_pct": ("%", "lower", ALL),
}


def benchmark_json() -> str:
    """The text of BENCHMARK.json."""
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b, _) in PER_LAYER.items()],
    }
    return json.dumps(doc, indent=2) + "\n"
