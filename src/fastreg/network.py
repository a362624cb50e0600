"""Network side: subscriber database, context table, registration checks.

The fast-path decision runs the checks in a fixed order and falls back to
a full AKA the moment one fails, without telling the handset which check
tripped: table lookup by GUTI with the ngKSI compared against the
context found, NAS MAC, container/cleartext equality, then the
strictly-greater uplink count rule.

The AMF keeps one record per subscriber, and the context table maps
each of its GUTI aliases to that record.  The table behaves like an
append-only map: a fast-path accept adds the freshly allocated GUTI as
another alias and the old alias stays valid, so byte-identical replays
die on the count check rather than the lookup.  Only a new AKA purges a
subscriber's old rows and installs a fresh context.  Deregistration is
one lookup by construction: the table is keyed by GUTI alone.
The model's Deregistration carries no NAS MAC, so any live alias sniffed
off the air, however old, ends that subscriber's session.  A pending AKA
belongs to the (sender, flow) that started it; others' frames are strays.
A subscriber has at most one pending AKA: a new challenge replaces the
older one, and a late answer to that older one is a stray.
"""

from __future__ import annotations

from _weakref import proxy
from random import Random

from . import crypto
from .channel import (
    AuthRequest,
    AuthResponse,
    Deregistration,
    IdentityRequest,
    IdentityResponse,
    RegistrationAccept,
    RegistrationReject,
    RegistrationRequestFast,
    RegistrationRequestInitial,
    SecurityModeCommand,
    SecurityModeComplete,
    encode_accept_payload,
    encode_ies,
    field_hex,
)
from .crypto import Key
from .equipment import COUNT_LIMIT, NGKSI_MAX, SecurityContext
from .profiles import PERIODIC_AKA_INTERVAL, OperatorProfile


class UnknownSubscriber(Exception):
    pass


class SubscriberRecord:
    """One subscriber's key, AKA state and current context; shared by all of its GUTI aliases."""

    __slots__ = ("supi", "k_permanent", "seq", "context", "next_ngksi", "last_aka_step")

    def __init__(self, supi: str, k_permanent: Key, seq: int = 0) -> None:
        self.supi = supi
        self.k_permanent = k_permanent
        self.seq = seq
        self.context: SecurityContext | None = None
        self.next_ngksi = 0
        self.last_aka_step = 0


class Session:
    __slots__ = ("supi", "serving_bs", "guti", "state", "via", "flow")

    def __init__(self, supi: str, serving_bs: str, guti: str, state: str, via: str, flow: str) -> None:
        self.supi = supi
        self.serving_bs = serving_bs
        self.guti = guti
        self.state = state  # "Registered" | "Deregistered"
        self.via = via  # "fast" | "aka"
        self.flow = flow


class _PendingAka:
    __slots__ = ("supi", "vector", "caps", "context")

    def __init__(self, supi: str, vector: crypto.AuthVector, caps: tuple[str, ...]) -> None:
        self.supi = supi
        self.vector = vector
        self.caps = caps
        self.context: SecurityContext | None = None  # set once RES verifies


class Amf:
    """Core-network endpoint owning subscribers, contexts and sessions."""

    name = "amf"
    __slots__ = (
        "profile",
        "rng",
        "env",
        "subscribers",
        "table",
        "sessions",
        "pending",
        "_guti_n",
        "_guti_salt",
        "_conceal_key",
    )

    def __init__(self, env) -> None:
        self.env = proxy(env)  # the environment owns its AMF
        self.profile: OperatorProfile = env.profile
        self.rng: Random = env.rng
        self.subscribers: dict[str, SubscriberRecord] = {}
        self.table: dict[str, SubscriberRecord] = {}
        self.sessions: dict[str, Session] = {}
        self.pending: dict[tuple[str, str], _PendingAka] = {}
        self._guti_n = 0
        self._guti_salt = "%06x" % self.rng.getrandbits(24)
        self._conceal_key = self.rng.randbytes(crypto.KEY_LEN)

    # --- plumbing ------------------------------------------------------

    def _emit(self, event: str, values: tuple[str, ...]) -> None:
        self.env.events.emit(self.name, event, values)

    def _reply(self, envelope, msg) -> None:
        """Answer the sender on its own flow, through the same base station."""
        self.env.channel.send(self.name, envelope.src, envelope.bs, envelope.flow, msg)

    def _step(self) -> int:
        return self.env.channel.step

    # --- subscriber management ----------------------------------------

    def add_subscriber(self, supi: str, k_permanent: Key) -> SubscriberRecord:
        record = SubscriberRecord(supi=supi, k_permanent=k_permanent)
        self.subscribers[supi] = record
        return record

    def conceal_supi(self, supi: str) -> str:
        return "suci-" + crypto.prf(self._conceal_key, supi.encode("ascii"))[:8].hex()

    def resolve_identity(self, identity: str) -> str:
        if identity in self.subscribers:
            return identity
        if identity.startswith("suci-"):
            for supi in self.subscribers:
                if self.conceal_supi(supi) == identity:
                    return supi
        raise UnknownSubscriber("cannot resolve %r" % identity)

    # --- allocators ----------------------------------------------------

    def _alloc_guti(self) -> str:
        self._guti_n += 1
        return "guti-%s-%04d" % (self._guti_salt, self._guti_n)

    # --- fast-path decision -------------------------------------------

    def _fast_check(self, msg: RegistrationRequestFast) -> tuple[str | None, SubscriberRecord | None, bytes]:
        """Returns (failure reason or None, record if looked up, the verified IEs or b"")."""
        entry = self.table.get(msg.guti)
        if entry is not None and entry.context.ngksi != msg.ngksi:
            entry = None  # a known GUTI under another ngKSI is a lookup miss
        if not self.profile.fast_registration:
            return "disabled", entry, b""
        if entry is None:
            return "lookup", None, b""
        if self.profile.periodic_aka and self._step() - entry.last_aka_step >= PERIODIC_AKA_INTERVAL:
            return "periodic", entry, b""
        ctx = entry.context
        if not 0 <= msg.ul_count < COUNT_LIMIT or ctx.dl_count + 1 >= COUNT_LIMIT:
            # Either COUNT would leave 32 bits: re-key with a fresh AKA.
            return "count", entry, b""
        k_enc, k_int = ctx.nas_keys
        ies = encode_ies(msg.guti, msg.ngksi, msg.ul_count)
        if not crypto.mac_verify(ies, msg.container, k_int, msg.mac):
            return "mac", entry, b""
        try:
            plain = crypto.sdec(msg.container, k_enc)
        except crypto.DecryptFailure:
            plain = None
        if plain != ies:
            return "container", entry, b""
        if msg.ul_count <= ctx.ul_count:
            return "count", entry, b""
        return None, entry, ies

    def _on_fast(self, envelope) -> None:
        msg: RegistrationRequestFast = envelope.msg
        reason, entry, ies = self._fast_check(msg)
        if reason is None:
            ctx = entry.context
            ctx.ul_count = msg.ul_count
            self._emit("amf_verify", (field_hex(ies), field_hex(msg.container), field_hex(msg.mac)))
            new_guti = self._alloc_guti()
            # Alias: the new GUTI joins the old ones on the same context.
            self.table[new_guti] = entry
            ctx.dl_count += 1
            self._accept(envelope, entry.supi, new_guti, "fast", ctx)
            return
        self._emit("fast_fallback", (reason, msg.guti))
        if entry is not None:
            self._begin_aka(
                entry.supi, envelope, caps=entry.context.ue_sec_caps
            )
        else:
            self._reply(envelope, IdentityRequest())

    # --- AKA ----------------------------------------------------------

    def _begin_aka(self, supi: str, envelope, caps: tuple[str, ...]) -> None:
        sub = self.subscribers[supi]
        sub.seq += 1
        vector = crypto.gen_auth_vector(sub.k_permanent, sub.seq)
        # One pending AKA per subscriber: a new challenge replaces the old.
        self.pending = {k: p for k, p in self.pending.items() if p.supi != supi}
        self.pending[envelope.src, envelope.flow] = _PendingAka(supi, vector, caps)
        self._emit("aka_started", (supi,))
        self._reply(envelope, AuthRequest(vector.rand, vector.autn))

    def _on_identity(self, envelope) -> None:
        msg: RegistrationRequestInitial | IdentityResponse = envelope.msg
        try:
            supi = self.resolve_identity(msg.identity)
        except UnknownSubscriber:
            self._emit("unknown_identity", (msg.identity,))
            self._reply(envelope, RegistrationReject("unknown-subscriber"))
            return
        self._begin_aka(supi, envelope, caps=msg.sec_caps)

    def _on_auth_response(self, envelope) -> None:
        state = self.pending.get((envelope.src, envelope.flow))
        if state is None or state.context is not None:
            self._emit("stray_message", (envelope.msg.mtype,))
            return
        msg: AuthResponse = envelope.msg
        if not msg.res or msg.res != state.vector.xres:
            self._emit("aka_reject", (state.supi,))
            del self.pending[envelope.src, envelope.flow]
            self._reply(envelope, RegistrationReject("authentication-failure"))
            return
        _, _, k_amf = crypto.derive_k_amf(state.vector.ck, state.vector.ik)
        sub = self.subscribers[state.supi]
        ngksi, sub.next_ngksi = sub.next_ngksi, (sub.next_ngksi + 1) % (NGKSI_MAX + 1)
        state.context = SecurityContext(k_amf=k_amf, ngksi=ngksi, ue_sec_caps=tuple(state.caps), ul_count=0, dl_count=1)
        self._reply(envelope, SecurityModeCommand(tuple(state.caps), ngksi))

    def _purge_subscriber_rows(self, supi: str) -> None:
        for key in [k for k, e in self.table.items() if e.supi == supi]:
            del self.table[key]

    def _on_smc_complete(self, envelope) -> None:
        state = self.pending.get((envelope.src, envelope.flow))
        if state is None or state.context is None:
            self._emit("stray_message", (envelope.msg.mtype,))
            return
        del self.pending[envelope.src, envelope.flow]
        ctx = state.context
        if not crypto.mac_verify(b"security-mode-complete", b"", ctx.nas_keys[1], envelope.msg.mac):
            self._emit("smc_failure", (state.supi,))
            self._reply(envelope, RegistrationReject("security-mode-failure"))
            return
        # A new AKA replaces every alias of the subscriber's old context.
        supi = state.supi
        self._purge_subscriber_rows(supi)
        guti = self._alloc_guti()
        sub = self.subscribers[supi]
        sub.context, sub.last_aka_step = ctx, self._step()
        self.table[guti] = sub
        self._emit("aka_established", (supi, guti))
        self._accept(envelope, supi, guti, "aka", ctx)

    def _accept(self, envelope, supi: str, guti: str, via: str, ctx: SecurityContext) -> None:
        """Open the subscriber's session and send it the ciphered accept."""
        self.sessions[supi] = Session(supi, envelope.bs, guti, "Registered", via, envelope.flow)
        self._emit("registration_accept", (supi, guti, via))
        payload = crypto.senc(encode_accept_payload(guti, ctx.dl_count), ctx.nas_keys[0])
        self._reply(envelope, RegistrationAccept(payload))

    def _on_dereg(self, envelope) -> None:
        msg: Deregistration = envelope.msg
        entry = self.table.get(msg.guti)
        if entry is None:
            self._emit("stray_message", (msg.mtype,))
            return
        session = self.sessions.get(entry.supi)
        if session is not None:
            session.state = "Deregistered"
        self._emit("deregistered", (entry.supi,))

    # --- channel entry point ------------------------------------------

    # Message class -> handler method name, looked up on the instance.
    _HANDLERS = {
        RegistrationRequestFast: "_on_fast",
        RegistrationRequestInitial: "_on_identity",
        IdentityResponse: "_on_identity",
        AuthResponse: "_on_auth_response",
        SecurityModeComplete: "_on_smc_complete",
        Deregistration: "_on_dereg",
    }

    def handle(self, envelope) -> None:
        handler = self._HANDLERS.get(type(envelope.msg))
        if handler is None:
            self._emit("stray_message", (envelope.msg.mtype,))
            return
        getattr(self, handler)(envelope)
