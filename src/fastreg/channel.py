"""Radio link: NAS message shapes, deterministic delivery, taps, events.

Messages are immutable; the channel stamps a monotonically increasing step
on every send and delivers FIFO, so a run is a pure function of the
scenario and seed.  A tap keeps the envelopes themselves, one record of
the air: replay re-sends them whole, and a trace line renders only the
visible projection an over-the-air sniffer reads (cleartext fields;
ciphered containers and MACs never).  The environment's monitor tap is
both the exported trace and everything the attacker reads.

An event is one flat tuple (step, entity, name, *values) with named
read-only accessors.  Its field names are not stored: `EVENT_FIELDS`
declares them once per event name, in order, and `Event.fields` and
`Event.line` zip them with the values.  That table is the only source
of each event's field order: an emit site passes its values in the
order `EVENT_FIELDS[name]` lists, and a new field or event is added
there first.  A count that does not match raises when the event is
read; `tests/test_channel.py` checks every emit site's count against
the table.  `EventLog.emit` stores the caller's values as they are, so
every value is a `str` when it is emitted; nothing converts later.  Octet strings enter events through
`field_hex`, so a receiver that logs the bytes its sender logged shares
the sender's strings.
"""

from __future__ import annotations

import functools
from _weakref import proxy
from collections import deque
from collections.abc import Callable
from operator import itemgetter

from .record import Frozen, set_field


class UnknownEndpoint(Exception):
    """Raised when sending to or from an unregistered entity."""


class NotObserved(Exception):
    """Raised when a tap query finds no matching capture."""


class MalformedPayload(ValueError):
    """Raised when an accept payload is not what encode_accept_payload writes."""


# --- NAS messages -----------------------------------------------------


class NasMessage(Frozen):
    """One NAS message: its wire name and what a passive sniffer reads.

    Ciphered containers and MAC tags never appear in `visible()`; replay
    works from the captured envelope, not from this projection.
    """

    __slots__ = ()
    mtype = ""

    def visible(self) -> dict[str, str]:
        return {}


class RegistrationRequestFast(NasMessage):
    __slots__ = ("guti", "ngksi", "ul_count", "container", "mac")
    mtype = "registration-request-fast"

    def __init__(self, guti: str, ngksi: int, ul_count: int, container: bytes, mac: bytes) -> None:
        set_field(self, "guti", guti)
        set_field(self, "ngksi", ngksi)
        set_field(self, "ul_count", ul_count)
        set_field(self, "container", container)
        set_field(self, "mac", mac)

    def visible(self) -> dict[str, str]:
        return {"guti": self.guti, "ngksi": str(self.ngksi), "count": str(self.ul_count)}


class _IdentityMessage(NasMessage):
    __slots__ = ("identity", "sec_caps")

    def __init__(self, identity: str, sec_caps: tuple[str, ...]) -> None:
        set_field(self, "identity", identity)
        set_field(self, "sec_caps", sec_caps)

    def visible(self) -> dict[str, str]:
        return {"identity": self.identity, "caps": "+".join(self.sec_caps)}


class RegistrationRequestInitial(_IdentityMessage):
    __slots__ = ()
    mtype = "registration-request-initial"


class IdentityRequest(NasMessage):
    __slots__ = ()
    mtype = "identity-request"


class IdentityResponse(_IdentityMessage):
    __slots__ = ()
    mtype = "identity-response"


class AuthRequest(NasMessage):
    __slots__ = ("rand", "autn")
    mtype = "authentication-request"

    def __init__(self, rand: bytes, autn: bytes) -> None:
        set_field(self, "rand", rand)
        set_field(self, "autn", autn)

    def visible(self) -> dict[str, str]:
        return {"rand": self.rand.hex(), "autn": self.autn.hex()}


class AuthResponse(NasMessage):
    __slots__ = ("res",)
    mtype = "authentication-response"

    def __init__(self, res: bytes) -> None:
        set_field(self, "res", res)

    def visible(self) -> dict[str, str]:
        return {"res": self.res.hex()}


class SecurityModeCommand(NasMessage):
    __slots__ = ("selected_algs", "ngksi")
    mtype = "security-mode-command"

    def __init__(self, selected_algs: tuple[str, ...], ngksi: int) -> None:
        set_field(self, "selected_algs", selected_algs)
        set_field(self, "ngksi", ngksi)

    def visible(self) -> dict[str, str]:
        return {"algs": "+".join(self.selected_algs), "ngksi": str(self.ngksi)}


class SecurityModeComplete(NasMessage):
    __slots__ = ("mac",)
    mtype = "security-mode-complete"

    def __init__(self, mac: bytes) -> None:
        set_field(self, "mac", mac)


class RegistrationAccept(NasMessage):
    __slots__ = ("ciphered",)
    mtype = "registration-accept"

    def __init__(self, ciphered: bytes) -> None:
        set_field(self, "ciphered", ciphered)


class RegistrationReject(NasMessage):
    __slots__ = ("cause",)
    mtype = "registration-reject"

    def __init__(self, cause: str) -> None:
        set_field(self, "cause", cause)

    def visible(self) -> dict[str, str]:
        return {"cause": self.cause}


class Deregistration(NasMessage):
    __slots__ = ("guti",)
    mtype = "deregistration"

    def __init__(self, guti: str) -> None:
        set_field(self, "guti", guti)

    def visible(self) -> dict[str, str]:
        return {"guti": self.guti}


# --- cleartext IE / payload codecs -------------------------------------


def encode_ies(guti: str, ngksi: int, ul_count: int) -> bytes:
    """Pack the fast-request cleartext IEs; also the container plaintext."""
    g = guti.encode("ascii")
    return len(g).to_bytes(2, "big") + g + bytes([ngksi]) + ul_count.to_bytes(4, "big")


def encode_accept_payload(guti: str, dl_count: int) -> bytes:
    g = guti.encode("ascii")
    return len(g).to_bytes(2, "big") + g + dl_count.to_bytes(4, "big")


def decode_accept_payload(blob: bytes) -> tuple[str, int]:
    """Invert encode_accept_payload; MalformedPayload for anything it cannot have written."""
    glen = int.from_bytes(blob[:2], "big")
    if len(blob) != 2 + glen + 4:
        raise MalformedPayload("accept payload is %d bytes, its GUTI length %d wants %d" % (len(blob), glen, 6 + glen))
    guti = blob[2 : 2 + glen]
    if not guti.isascii():
        raise MalformedPayload("accept payload GUTI is not ASCII")
    return guti.decode("ascii"), int.from_bytes(blob[2 + glen :], "big")


# --- envelopes, taps, events -------------------------------------------


class Envelope(Frozen):
    """One frame on the air, as sent, delivered and captured."""

    __slots__ = ("step", "src", "dst", "bs", "flow", "msg")

    def __init__(self, step: int, src: str, dst: str, bs: str, flow: str, msg: NasMessage) -> None:
        set_field(self, "step", step)
        set_field(self, "src", src)
        set_field(self, "dst", dst)
        set_field(self, "bs", bs)
        set_field(self, "flow", flow)
        set_field(self, "msg", msg)

    def line(self) -> str:
        shown = " ".join("%s=%s" % kv for kv in self.msg.visible().items())
        return ("%4d | %s->%s | %s | %s | %s" % (
            self.step,
            self.src,
            self.dst,
            self.bs,
            self.msg.mtype,
            shown,
        )).rstrip()


class ChannelTap:
    """Passive capture of every envelope crossing the channel."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: list[Envelope] = []

    def record(self, envelope: Envelope) -> None:
        self.entries.append(envelope)

    def export_lines(self) -> list[str]:
        return [e.line() for e in self.entries]

    def sniff_latest_guti(self, src: str) -> tuple[str, int]:
        """Latest (guti, ul_count) a given sender put on the air in clear."""
        for e in reversed(self.entries):
            if e.src == src and e.msg.mtype == RegistrationRequestFast.mtype:
                shown = e.msg.visible()
                return shown["guti"], int(shown["count"])
        raise NotObserved("no fast registration seen from %s" % src)


# Every event the package emits, by name: its field names, in order.
# Emit sites pass bare value tuples; this table is what names them.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "dropped": ("dst", "mtype"),
    "stray_message": ("mtype",),
    # handset
    "power_on": (),
    "power_off": (),
    "airplane_on": (),
    "airplane_off": (),
    "card_inserted": ("iccid",),
    "card_removed": ("iccid",),
    "service_lost": ("reason",),
    "baseband_context_deleted": ("reason",),
    "context_stored": ("where", "generation"),
    "context_store_refused": ("status",),
    "context_unparsable": ("where", "reason"),
    "count_exhausted": ("guti",),
    "ue_init": ("ies", "container", "mac"),
    "ue_deregistered": ("guti",),
    "card_rejected_autn": (),
    "accept_undecryptable": (),
    "dl_replay_discarded": ("count",),
    "ue_registered": ("guti", "path"),
    "ue_rejected": ("cause",),
    # network
    "fast_fallback": ("reason", "guti"),
    "amf_verify": ("ies", "container", "mac"),
    "aka_started": ("supi",),
    "unknown_identity": ("identity",),
    "aka_reject": ("supi",),
    "smc_failure": ("supi",),
    "aka_established": ("supi", "guti"),
    "registration_accept": ("supi", "guti", "via"),
    "deregistered": ("supi",),
}

# The hex of an octet string, as an event value.  The AMF logs the bytes
# the handset logged a moment before, so a few entries let both events
# hold the same three strings.
field_hex = functools.lru_cache(maxsize=8)(bytes.hex)


class Event(tuple):
    """One protocol event: (step, entity, name, *values), every value a str.

    Tuple-backed so that `EventLog.emit` builds it in one call to
    `tuple.__new__`; it is read through properties that have no setter,
    so an event cannot be changed once emitted.  `fields` and `line()`
    pair the values with `EVENT_FIELDS[name]` and raise if their counts
    differ, so an event is never shown under the wrong names.
    """

    __slots__ = ()

    def __new__(cls, step: int, entity: str, name: str, values: tuple[str, ...]) -> "Event":
        return tuple.__new__(cls, (step, entity, name) + values)

    step = property(itemgetter(0))
    entity = property(itemgetter(1))
    name = property(itemgetter(2))

    def _pairs(self):
        return zip(EVENT_FIELDS[self[2]], self[3:], strict=True)

    @property
    def fields(self) -> dict[str, str]:
        """A fresh dict of the values under their declared names."""
        return dict(self._pairs())

    def line(self) -> str:
        shown = " ".join("%s=%s" % kv for kv in self._pairs())
        return ("%4d %s %s %s" % (self[0], self[1], self[2], shown)).rstrip()


class EventLog:
    """Ordered protocol-event record, stamped with the channel step."""

    __slots__ = ("_clock", "entries")

    def __init__(self, clock: "Channel") -> None:
        self._clock = proxy(clock)  # the channel owns its log
        self.entries: list[Event] = []

    def emit(self, entity: str, name: str, values: tuple[str, ...]) -> Event:
        """Record one event; `values` are strs in `EVENT_FIELDS[name]` order."""
        event = tuple.__new__(Event, (self._clock.step, entity, name) + values)
        self.entries.append(event)
        return event

    def named(self, name: str) -> list[Event]:
        return [e for e in self.entries if e.name == name]

    def export_lines(self) -> list[str]:
        return [e.line() for e in self.entries]


class Channel:
    """FIFO radio link with a step clock; single ordered delivery."""

    __slots__ = ("step", "taps", "events", "drop_filter", "_queue", "_handlers", "__weakref__")

    def __init__(self) -> None:
        self.step = 0
        self.taps: list[ChannelTap] = []
        self.events = EventLog(self)
        self.drop_filter: Callable[[Envelope], bool] | None = None
        self._queue: deque[Envelope] = deque()
        self._handlers: dict[str, Callable[[Envelope], None]] = {}

    def register(self, name: str, handler: Callable[[Envelope], None]) -> None:
        self._handlers[name] = handler

    def send(self, src: str, dst: str, bs: str, flow: str, msg: NasMessage) -> Envelope:
        if src not in self._handlers:
            raise UnknownEndpoint("unknown sender %r" % src)
        if dst not in self._handlers:
            raise UnknownEndpoint("unknown receiver %r" % dst)
        self.step += 1
        envelope = Envelope(self.step, src, dst, bs, flow, msg)
        for tap in self.taps:
            tap.record(envelope)
        if self.drop_filter is not None and self.drop_filter(envelope):
            self.events.emit("channel", "dropped", (dst, msg.mtype))
            return envelope
        self._queue.append(envelope)
        return envelope

    def inject(self, captured: Envelope) -> Envelope:
        """Replay a captured envelope byte-for-byte, at a fresh step.

        The attacker model allows recording and re-sending whole frames;
        src stays spoofed as the original sender.
        """
        return self.send(captured.src, captured.dst, captured.bs, captured.flow, captured.msg)

    def tick(self, steps: int = 1) -> None:
        """Advance the clock without traffic (idle air time)."""
        if steps < 0:
            raise ValueError("clock only moves forward")
        self.step += steps

    def pump(self) -> int:
        """Deliver until quiescent; returns the number of deliveries."""
        n = 0
        while self._queue:
            envelope = self._queue.popleft()
            self._handlers[envelope.dst](envelope)
            n += 1
        return n
