"""The three benchmark workloads and their correctness oracles.

Each workload is one process with one closed-loop client: the next
operation starts only when the previous one has returned.  Work is cut
into units of fixed size (one sweep pass, one session, ten CLI children),
and the inputs of unit `i` are a pure function of (seed, i), so the same
seed replays the same inputs.  fastreg is driven only through its public
functions: `run_scenario`, `countermeasures_from_pairs`, `SimEnv`,
`MobileEquipment.register`/`set_airplane` and `python -m fastreg.cli`.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import re
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from time import perf_counter

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "cm_sweep_verdicts.txt"
SPAWNER = Path(__file__).resolve().parent / "spawn.py"

# The eight toggles, in the bit order of the reference file.
TOGGLES = (
    "usim_hardening",
    "nondefault_pin",
    "iccid_binding",
    "offline_swap_detection",
    "usim_5g_context",
    "supi_concealment",
    "fast_registration",
    "periodic_aka",
)
PROFILES = ("OP-I", "OP-II", "OP-III")
ATTACKS = ("S1", "S2")

# Fixed session shape: the AMF alias table grows by one row per fast
# accept, so a longer session would change what each round costs.
SESSION_ROUNDS = 1000
SESSION_GENERATIONS = ("5G", "4G", "5G")

MATRIX_STDOUT = (
    "profile  usim_context       baseband_context   impersonation      one_tap_bypass     location_spoofing\n"
    "OP-I      yes                yes                yes                yes                yes\n"
    "OP-II     no                 yes                yes                yes                yes\n"
    "OP-III    yes                yes                yes                yes                yes\n"
)
SPAWNER_EXIT_S = 90
CLI_UNIT_CHILDREN = 10
CLI_LAYER_SAMPLES = 11


@dataclass
class UnitResult:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    output_sha256: str | None = None
    verdicts: list[str] = field(default_factory=list)


def fresh_import(*names: str) -> list:
    """Import fastreg modules from source, dropping any earlier import first."""
    for loaded in [m for m in sys.modules if m == "fastreg" or m.startswith("fastreg.")]:
        del sys.modules[loaded]
    return [importlib.import_module(n) for n in names]


def timed(trace, fn, *args):
    """Run one operation; returns (result, seconds).  Spans are kept only inside it."""
    if trace is not None:
        trace.op += 1
        trace.active = True
    try:
        t0 = perf_counter()
        result = fn(*args)
        return result, perf_counter() - t0
    finally:
        if trace is not None:
            trace.active = False


def _feed(digest, lines) -> None:
    for line in lines:
        digest.update(line.encode("ascii"))
        digest.update(b"\n")


def _failure(what: str, err: BaseException | None = None) -> None:
    print("FAILED %s%s" % (what, ": %r" % err if err is not None else ""), file=sys.stderr)


class Workload:
    """Defaults for a workload that runs entirely inside this process."""

    name = ""

    def setup(self, seed: int) -> None:
        """Import fastreg and generate the inputs; timed as `setup_s`."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before the first unit."""

    def run_unit(self, unit: int, trace=None, record: bool = False) -> UnitResult:
        raise NotImplementedError

    def traceable_unit(self, unit: int, trace=None, record: bool = False) -> UnitResult:
        """The unit as it can run inside this process, under the tracer."""
        return self.run_unit(unit, trace, record)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def layer_extras(self) -> dict[str, float]:
        """Per-layer metrics measured outside the traced units."""
        return {}

    def close(self) -> None:
        """Stop whatever `prepare` started."""


class CmSweep(Workload):
    """Every on/off combination of the eight toggles x 3 profiles x {S1, S2}."""

    name = "cm-sweep"

    def setup(self, seed: int) -> None:
        attacks, profiles = fresh_import("fastreg.attacks", "fastreg.profiles")
        self.seed = seed
        self.attacks = attacks
        reference = {}
        for line in REFERENCE.read_text(encoding="ascii").splitlines():
            if line and not line.startswith("#"):
                bits, verdicts = line.split()
                reference[bits] = verdicts
        self.inputs = []
        for bits in itertools.product("01", repeat=len(TOGGLES)):
            pairs = {t: ("on" if b == "1" else "off") for t, b in zip(TOGGLES, bits)}
            cm = profiles.countermeasures_from_pairs(pairs)
            expected = iter(reference["".join(bits)])
            for profile in PROFILES:
                for attack in ATTACKS:
                    self.inputs.append((attack, profile, cm, next(expected) == "1"))

    def run_unit(self, unit: int, trace=None, record: bool = False) -> UnitResult:
        rng = Random("cm-sweep/%d/%d" % (self.seed, unit))
        seeds = [rng.randrange(1 << 31) for _ in self.inputs]
        # Looked up per unit so that a traced unit calls the wrapped function.
        run_scenario = self.attacks.run_scenario
        res = UnitResult()
        digest = hashlib.sha256() if record else None
        for (attack, profile, cm, expected), seed in zip(self.inputs, seeds):
            try:
                report, dt = timed(trace, run_scenario, attack, profile, seed, cm, "default")
            except Exception as err:
                _failure("%s %s seed %d" % (attack, profile, seed), err)
                res.failed += 1
                continue
            res.latencies.append(dt)
            if trace is not None:
                trace.settle_envs()
            if report.succeeded != expected:
                _failure("%s %s seed %d: succeeded=%s, reference says %s" % (attack, profile, seed, report.succeeded, expected))
                res.failed += 1
            if record:
                res.verdicts.append("1" if report.succeeded else "0")
                _feed(digest, report.to_lines())
                _feed(digest, report.env.trace_lines())
                _feed(digest, report.env.event_lines())
        if record:
            res.output_sha256 = digest.hexdigest()
        return res


class LongSession(Workload):
    """One environment, three handsets, fixed-length airplane/fast re-registration loop."""

    name = "long-session"

    def setup(self, seed: int) -> None:
        sim, profiles = fresh_import("fastreg.sim", "fastreg.profiles")
        self.seed = seed
        self.SimEnv = sim.SimEnv
        self.profile = profiles.get_profile("OP-I")

    @staticmethod
    def _round(me, generation: str):
        me.set_airplane(True)
        me.set_airplane(False)
        return me.register(generation)

    def run_unit(self, unit: int, trace=None, record: bool = False) -> UnitResult:
        rng = Random("long-session/%d/%d" % (self.seed, unit))
        env_seed = rng.randrange(1 << 31)
        supis = sorted({"46011%010d" % rng.randrange(10**10) for _ in range(8)})[: len(SESSION_GENERATIONS)]
        res = UnitResult()
        if trace is not None:
            trace.active = True
        try:
            env = self.SimEnv(self.profile, env_seed)
            handsets = []
            for i, (supi, generation) in enumerate(zip(supis, SESSION_GENERATIONS)):
                _, card = env.provision_subscriber(supi)
                me = env.add_me("ue-%d" % i)
                me.insert_card(card)
                me.power_on()
                first = me.register(generation)
                if not (first.accepted and first.aka_ran):
                    raise RuntimeError("initial registration of %s: %r" % (supi, first))
                handsets.append((me, generation))
        finally:
            if trace is not None:
                trace.active = False
        for rnd in range(SESSION_ROUNDS):
            for me, generation in handsets:
                try:
                    outcome, dt = timed(trace, self._round, me, generation)
                except Exception as err:
                    _failure("%s round %d" % (me.name, rnd), err)
                    res.failed += 1
                    continue
                res.latencies.append(dt)
                verdict = "%s %s %s aka=%s" % (
                    me.name,
                    "accept" if outcome.accepted else "reject",
                    outcome.path,
                    "yes" if outcome.aka_ran else "no",
                )
                if not (outcome.accepted and outcome.path == "fast" and not outcome.aka_ran):
                    _failure("round %d: %s" % (rnd, verdict))
                    res.failed += 1
                if record:
                    res.verdicts.append(verdict)
        if record:
            digest = hashlib.sha256()
            _feed(digest, res.verdicts)
            _feed(digest, env.trace_lines())
            _feed(digest, env.event_lines())
            res.output_sha256 = digest.hexdigest()
        return res


class CliCold(Workload):
    """`python -m fastreg.cli matrix` as a fresh child process, one at a time.

    Children are started by spawn.py, a separate small process, so that
    each child's reported peak resident set is its own (see spawn.py).
    """

    name = "cli-cold"
    spawner: subprocess.Popen | None = None
    maxrss_kb = 0

    def setup(self, seed: int) -> None:
        (cli,) = fresh_import("fastreg.cli")
        self.seed = seed
        self.main = cli.main

    def prepare(self) -> None:
        """Start the spawner, compile the bytecode cache, check where children import fastreg from."""
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        self.spawner = subprocess.Popen(
            [sys.executable, str(SPAWNER)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        reply = self._child("-c", "import fastreg, fastreg.cli; print(fastreg.__file__)")
        where = Path(reply["stdout"].strip()).resolve()
        if reply["returncode"] != 0 or SRC.resolve() not in where.parents:
            raise RuntimeError("child process imports fastreg from %r: %s" % (reply["stdout"], reply["stderr"]))

    def close(self) -> None:
        if self.spawner is None:
            return
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=SPAWNER_EXIT_S)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()
        self.spawner = None

    def _child(self, *argv: str) -> dict:
        self.spawner.stdin.write(json.dumps([sys.executable, *argv]) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        self.maxrss_kb = max(self.maxrss_kb, reply["maxrss_kb"])
        return reply

    def _matrix_argv(self, unit: int, child: int = 0) -> list[str]:
        return ["matrix", "--seed", str(Random("cli-cold/%d/%d/%d" % (self.seed, unit, child)).randrange(1 << 20))]

    def _check(self, res: UnitResult, stdout: str, record: bool) -> None:
        if stdout != MATRIX_STDOUT:
            _failure("matrix stdout differs from the 3-profile matrix:\n%s" % stdout)
            res.failed += 1
        if record:
            res.verdicts = stdout.splitlines()
            res.output_sha256 = hashlib.sha256(stdout.encode("ascii", "replace")).hexdigest()

    def run_unit(self, unit: int, trace=None, record: bool = False) -> UnitResult:
        res = UnitResult()
        for child in range(CLI_UNIT_CHILDREN):
            reply = self._child("-m", "fastreg.cli", *self._matrix_argv(unit, child))
            if reply["returncode"] != 0:
                _failure("matrix child exited %s: %s" % (reply["returncode"], reply["stderr"]))
                res.failed += 1
                continue
            res.latencies.append(reply["seconds"])
            self._check(res, reply["stdout"], record and child == 0)
        return res

    def traceable_unit(self, unit: int, trace=None, record: bool = False) -> UnitResult:
        """The matrix run inside this process, so that its layers can be traced."""
        res = UnitResult()
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code, dt = timed(trace, self.main, self._matrix_argv(unit))
        except Exception as err:
            _failure("in-process matrix", err)
            res.failed += 1
            return res
        if trace is not None:
            trace.settle_envs()
        res.latencies.append(dt)
        if code != 0:
            _failure("in-process matrix returned %d" % code)
            res.failed += 1
        self._check(res, out.getvalue(), record)
        return res

    def peak_rss_mb(self) -> float:
        return self.maxrss_kb / 1024

    def layer_extras(self) -> dict[str, float]:
        """Bare interpreter start and per-module self import time, from fresh children."""
        interpreter = []
        imports: dict[str, list[float]] = {m: [] for m in spec.IMPORTED_MODULES}
        line = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)\s*$")
        for _ in range(CLI_LAYER_SAMPLES):
            interpreter.append(self._child("-c", "pass")["seconds"] * 1e3)
            seen = {}
            for raw in self._child("-X", "importtime", "-c", "import fastreg.cli")["stderr"].splitlines():
                match = line.match(raw)
                if match:
                    seen[match.group(2)] = int(match.group(1)) / 1e3
            for module in spec.IMPORTED_MODULES:
                imports[module].append(seen.get(module, 0.0))
        out = {"cli.interpreter_ms": statistics.median(interpreter)}
        for module, samples in imports.items():
            out[spec.import_metric(module)] = statistics.median(samples)
        return out


WORKLOADS = {w.name: w for w in (CmSweep, LongSession, CliCold)}
