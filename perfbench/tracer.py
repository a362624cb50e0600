"""Runtime span tracer for fastreg, kept entirely outside the package.

`Tracer.install` replaces the public functions and methods of each layer
module with timing wrappers, and rebinds every name that another fastreg
module imported with `from .module import name` (and every module-level
dict value, such as a dispatch table) so that calls made through those
bindings are traced too.  `uninstall` puts the originals back.

Spans live in parallel arrays (name, parent, op, start, end) while a unit
of work runs; `unit_metrics` folds them into per-layer numbers.  Only
spans recorded while `active` is true are kept, so the benchmark's own
checks never show up as program work.
"""

from __future__ import annotations

import functools
import sys
from array import array
from enum import Enum
from time import perf_counter_ns
from types import FunctionType, ModuleType

LAYERS = ("crypto", "usim", "channel", "network", "equipment", "sim", "attacks")

# Private methods that carry a layer metric (dereg time, AKA runs) or mark
# where an environment is born.
EXTRA_METHODS = {
    "network": {"Amf": ("_on_dereg", "_begin_aka")},
    "sim": {"SimEnv": ("__init__",)},
}

# Spans that stand for one command sent to a card.  A verify-PIN that
# arrives through apdu_execute is counted once, as the outer command.
APDU_SPANS = ("usim.apdu_execute", "usim.verify_pin", "usim.CardImage.run_aka")
ENV_BUILD_SPANS = ("sim.SimEnv.__init__", "sim.SimEnv.provision_subscriber", "sim.SimEnv.add_me")


def _apdu_tag(result) -> str | None:
    return None if result.status.name == "OK" else "denied"


TAGGERS = {"usim.apdu_execute": _apdu_tag, "usim.verify_pin": _apdu_tag}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.active = False
        self.op = 0
        self.current = -1
        self._patches: list[tuple[object, str, object]] = []
        self.envs: list = []
        self.reset()

    # --- span storage -----------------------------------------------------

    def reset(self) -> None:
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.tags: dict[int, str] = {}
        self.env_stats = {"events": 0, "fast_accepts": 0, "fast_requests": 0, "baseband_deletions": 0, "table_rows": 0}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        tagger = TAGGERS.get(name)
        is_env_init = name == "sim.SimEnv.__init__"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            starts = tracer.span_start
            idx = len(starts)
            parent = tracer.current
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0)
            tracer.current = idx
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.tags[idx] = "raised"
                raise
            finally:
                tracer.span_end[idx] = perf_counter_ns()
                tracer.current = parent
            if tagger is not None:
                tag = tagger(result)
                if tag is not None:
                    tracer.tags[idx] = tag
            if is_env_init:
                tracer.envs.append(args[0])
            return result

        return traced

    # --- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get("fastreg." + layer)
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, FunctionType) and obj.__module__ == module.__name__:
                    wrapped = self._wrap(obj, "%s.%s" % (layer, attr))
                    wrappers[id(obj)] = wrapped
                    self._set(module, attr, wrapped)
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    if issubclass(obj, (BaseException, Enum)):
                        continue
                    self._wrap_class(layer, obj, EXTRA_METHODS.get(layer, {}).get(attr, ()))
        # Rebind from-imports and dispatch-table entries in every fastreg module.
        for modname, module in list(sys.modules.items()):
            if not (modname == "fastreg" or modname.startswith("fastreg.")) or not isinstance(module, ModuleType):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and getattr(module, attr) is not wrappers[id(obj)]:
                    self._set(module, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if isinstance(value, FunctionType) and id(value) in wrappers:
                            self._patches.append((obj, key, value))
                            obj[key] = wrappers[id(value)]

    def _wrap_class(self, layer: str, cls: type, extra: tuple[str, ...]) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(raw, FunctionType):
                self._set(cls, attr, self._wrap(raw, name))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(raw.__func__, name)))

    def _set(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    # --- environment statistics --------------------------------------------

    def settle_envs(self) -> None:
        """Fold the event logs and tables of environments built so far, then drop them."""
        stats = self.env_stats
        for env in self.envs:
            entries = env.events.entries
            stats["events"] += len(entries)
            for e in entries:
                if e.name == "registration_accept" and e.fields.get("via") == "fast":
                    stats["fast_accepts"] += 1
                    stats["fast_requests"] += 1
                elif e.name == "fast_fallback":
                    stats["fast_requests"] += 1
                elif e.name == "baseband_context_deleted":
                    stats["baseband_deletions"] += 1
            stats["table_rows"] = max(stats["table_rows"], len(env.amf.table))
        self.envs.clear()

    # --- aggregation --------------------------------------------------------

    def unit_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer numbers for the spans recorded since the last reset."""
        n = len(self.span_start)
        names = [self.names[i] for i in self.span_name]
        parents = self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = {}
        incl_ns: dict[str, int] = {}
        self_ns = {layer: 0 for layer in LAYERS}
        apdu = denied = 0
        for i in range(n):
            name = names[i]
            calls[name] = calls.get(name, 0) + 1
            incl_ns[name] = incl_ns.get(name, 0) + dur[i]
            self_ns[name.partition(".")[0]] += dur[i] - child[i]
            if name in APDU_SPANS and not (parents[i] >= 0 and names[parents[i]] in APDU_SPANS):
                apdu += 1
                if i in self.tags:
                    denied += 1

        def count(*spans: str) -> int:
            return sum(calls.get(s, 0) for s in spans)

        def ms(*spans: str) -> float:
            return sum(incl_ns.get(s, 0) for s in spans) / 1e6

        stats = self.env_stats
        prf = count("crypto.prf")
        return {
            "crypto.prf.calls": prf,
            "crypto.prf_per_op": prf / ops,
            "crypto.kdf.calls": count("crypto.kdf"),
            "crypto.senc_sdec.calls": count("crypto.senc", "crypto.sdec"),
            # mac_verify recomputes through mac_compute, so that is one MAC each.
            "crypto.mac.calls": count("crypto.mac_compute"),
            "crypto.av.calls": count("crypto.gen_auth_vector", "crypto.check_autn"),
            "crypto.self_ms": self_ns["crypto"] / 1e6,
            "usim.apdu.calls": apdu,
            "usim.apdu.denied": denied,
            "usim.card_build.calls": count("usim.standard_card", "usim.programmable_card"),
            "usim.context_io.calls": count("usim.store_context_files", "usim.load_context_files"),
            "usim.self_ms": self_ns["usim"] / 1e6,
            "channel.send.calls": count("channel.Channel.send"),
            "channel.tap_record.calls": count("channel.ChannelTap.record"),
            "channel.emit.calls": count("channel.EventLog.emit"),
            "channel.events_retained": stats["events"],
            "channel.self_ms": self_ns["channel"] / 1e6,
            "network.handle.calls": count("network.Amf.handle"),
            "network.aka.runs": count("network.Amf._begin_aka"),
            "network.fast_accept_ratio": (
                stats["fast_accepts"] / stats["fast_requests"] if stats["fast_requests"] else 0.0
            ),
            "network.table_rows": stats["table_rows"],
            "network.dereg_ms": ms("network.Amf._on_dereg"),
            "network.self_ms": self_ns["network"] / 1e6,
            "equipment.register_ms": ms("equipment.MobileEquipment.register"),
            "equipment.deregister_ms": ms("equipment.MobileEquipment.deregister"),
            "equipment.baseband_deletions": stats["baseband_deletions"],
            "equipment.self_ms": self_ns["equipment"] / 1e6,
            "sim.env_build_ms": ms(*ENV_BUILD_SPANS),
            "attacks.self_ms": self_ns["attacks"] / 1e6,
        }

    def write_spans(self, path) -> None:
        """Write the recorded spans as tab-separated lines, times relative to the first span."""
        t0 = self.span_start[0] if len(self.span_start) else 0
        with open(path, "w", encoding="ascii") as out:
            out.write("id\tparent\top\tname\tstart_ns\tend_ns\ttag\n")
            for i in range(len(self.span_start)):
                out.write(
                    "%d\t%d\t%d\t%s\t%d\t%d\t%s\n"
                    % (
                        i,
                        self.span_parent[i],
                        self.span_op[i],
                        self.names[self.span_name[i]],
                        self.span_start[i] - t0,
                        self.span_end[i] - t0,
                        self.tags.get(i, ""),
                    )
                )
