"""Radio link: NAS message shapes, deterministic delivery, taps, events.

Messages are immutable; the channel stamps a monotonically increasing step
on every send and delivers FIFO, so a run is a pure function of the
scenario and seed.  A tap keeps the envelopes themselves, one record of
the air: replay re-sends them whole, and a trace line renders only the
visible projection an over-the-air sniffer reads (cleartext fields;
ciphered containers and MACs never).  The environment's monitor tap is
both the exported trace and everything the attacker reads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, ClassVar


class UnknownEndpoint(Exception):
    """Raised when sending to or from an unregistered entity."""


class NotObserved(Exception):
    """Raised when a tap query finds no matching capture."""


# --- NAS messages -----------------------------------------------------


class NasMessage:
    """One NAS message: its wire name and what a passive sniffer reads.

    Ciphered containers and MAC tags never appear in `visible()`; replay
    works from the captured envelope, not from this projection.
    """

    mtype: ClassVar[str] = ""

    def visible(self) -> dict[str, str]:
        return {}


@dataclass(frozen=True)
class RegistrationRequestFast(NasMessage):
    mtype = "registration-request-fast"
    guti: str
    ngksi: int
    ul_count: int
    container: bytes
    mac: bytes

    def visible(self) -> dict[str, str]:
        return {"guti": self.guti, "ngksi": str(self.ngksi), "count": str(self.ul_count)}


@dataclass(frozen=True)
class _IdentityMessage(NasMessage):
    identity: str
    sec_caps: tuple[str, ...]

    def visible(self) -> dict[str, str]:
        return {"identity": self.identity, "caps": "+".join(self.sec_caps)}


@dataclass(frozen=True)
class RegistrationRequestInitial(_IdentityMessage):
    mtype = "registration-request-initial"


@dataclass(frozen=True)
class IdentityRequest(NasMessage):
    mtype = "identity-request"


@dataclass(frozen=True)
class IdentityResponse(_IdentityMessage):
    mtype = "identity-response"


@dataclass(frozen=True)
class AuthRequest(NasMessage):
    mtype = "authentication-request"
    rand: bytes
    autn: bytes

    def visible(self) -> dict[str, str]:
        return {"rand": self.rand.hex(), "autn": self.autn.hex()}


@dataclass(frozen=True)
class AuthResponse(NasMessage):
    mtype = "authentication-response"
    res: bytes

    def visible(self) -> dict[str, str]:
        return {"res": self.res.hex()}


@dataclass(frozen=True)
class SecurityModeCommand(NasMessage):
    mtype = "security-mode-command"
    selected_algs: tuple[str, ...]
    ngksi: int

    def visible(self) -> dict[str, str]:
        return {"algs": "+".join(self.selected_algs), "ngksi": str(self.ngksi)}


@dataclass(frozen=True)
class SecurityModeComplete(NasMessage):
    mtype = "security-mode-complete"
    mac: bytes


@dataclass(frozen=True)
class RegistrationAccept(NasMessage):
    mtype = "registration-accept"
    ciphered: bytes


@dataclass(frozen=True)
class RegistrationReject(NasMessage):
    mtype = "registration-reject"
    cause: str

    def visible(self) -> dict[str, str]:
        return {"cause": self.cause}


@dataclass(frozen=True)
class Deregistration(NasMessage):
    mtype = "deregistration"
    guti: str

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
    glen = int.from_bytes(blob[:2], "big")
    guti = blob[2 : 2 + glen].decode("ascii")
    dl_count = int.from_bytes(blob[2 + glen : 6 + glen], "big")
    return guti, dl_count


# --- envelopes, taps, events -------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """One frame on the air, as sent, delivered and captured."""

    step: int
    src: str
    dst: str
    bs: str
    flow: str
    msg: NasMessage

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


@dataclass(frozen=True)
class Event:
    step: int
    entity: str
    name: str
    fields: dict[str, str]

    def line(self) -> str:
        shown = " ".join("%s=%s" % kv for kv in self.fields.items())
        return ("%4d %s %s %s" % (self.step, self.entity, self.name, shown)).rstrip()


class EventLog:
    """Ordered protocol-event record, stamped with the channel step."""

    def __init__(self, clock: "Channel") -> None:
        self._clock = clock
        self.entries: list[Event] = []

    def emit(self, entity: str, name: str, **fields: str) -> Event:
        event = Event(self._clock.step, entity, name, {k: str(v) for k, v in fields.items()})
        self.entries.append(event)
        return event

    def named(self, name: str) -> list[Event]:
        return [e for e in self.entries if e.name == name]

    def export_lines(self) -> list[str]:
        return [e.line() for e in self.entries]


class Channel:
    """FIFO radio link with a step clock; single ordered delivery."""

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
            self.events.emit("channel", "dropped", dst=dst, mtype=msg.mtype)
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
