"""Network side: subscriber database, context table, registration checks.

The fast-path decision runs the checks in a fixed order and falls back to
a full AKA the moment one fails, without telling the handset which check
tripped: table lookup by (GUTI, ngKSI), NAS MAC, container/cleartext
equality, then the strictly-greater uplink count rule.

The context table behaves like an append-only map: a fast-path accept
adds the freshly allocated GUTI as another alias of the same context
object and the old alias stays valid, so byte-identical replays die on
the count check rather than the lookup.  Only a new AKA purges a
subscriber's old rows and installs a fresh context.  Deregistration is a
constant-time lookup that relies on GUTI uniqueness (one row per GUTI).
The model's Deregistration carries no NAS MAC, so any live alias sniffed
off the air, however old, ends that subscriber's session.  A pending AKA
belongs to the (sender, flow) that started it; others' frames are strays.
A subscriber has at most one pending AKA: a new challenge replaces the
older one, and a late answer to that older one is a stray.
"""

from __future__ import annotations

from dataclasses import dataclass
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
)
from .crypto import Key
from .equipment import COUNT_LIMIT, NGKSI_MAX, NotRegistered, SecurityContext
from .profiles import OperatorProfile


class UnknownSubscriber(Exception):
    pass


@dataclass
class SubscriberRecord:
    supi: str
    k_permanent: Key
    seq: int = 0


@dataclass
class TableEntry:
    """One subscriber's live context; shared by all of its GUTI aliases."""

    supi: str
    context: SecurityContext


@dataclass
class Session:
    supi: str
    serving_bs: str
    guti: str
    state: str  # "Registered" | "Deregistered"
    via: str  # "fast" | "aka"
    flow: str


@dataclass(frozen=True)
class OneTapToken:
    """App-layer login token minted against the registered session."""

    supi: str
    nonce: str


@dataclass
class _PendingAka:
    supi: str
    vector: crypto.AuthVector
    caps: tuple[str, ...]
    stage: str  # "res" | "smc"
    k_amf: Key | None = None
    ngksi: int = 0


class Amf:
    """Core-network endpoint owning subscribers, contexts and sessions."""

    name = "amf"

    def __init__(self, profile: OperatorProfile, rng: Random) -> None:
        self.profile = profile
        self.rng = rng
        self.env = None
        self.subscribers: dict[str, SubscriberRecord] = {}
        self.table: dict[tuple[str, int], TableEntry] = {}
        self.sessions: dict[str, Session] = {}
        self.pending: dict[tuple[str, str], _PendingAka] = {}
        self.last_aka_step: dict[str, int] = {}
        self._next_ngksi: dict[str, int] = {}
        self._guti_n = 0
        self._guti_salt = "%06x" % rng.getrandbits(24)
        self._conceal_key = rng.randbytes(crypto.KEY_LEN)

    # --- plumbing ------------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        if self.env is not None:
            self.env.events.emit(self.name, event, **fields)

    def _reply(self, envelope, msg) -> None:
        """Answer the sender on its own flow, through the same base station."""
        self.env.channel.send(self.name, envelope.src, envelope.bs, envelope.flow, msg)

    def _step(self) -> int:
        return self.env.channel.step if self.env is not None else 0

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

    def _alloc_ngksi(self, supi: str) -> int:
        n = self._next_ngksi.get(supi, 0)
        self._next_ngksi[supi] = (n + 1) % 7
        return n

    # --- fast-path decision -------------------------------------------

    def _fast_check(self, msg: RegistrationRequestFast) -> tuple[str | None, TableEntry | None]:
        """Returns (failure reason or None, table entry if looked up)."""
        entry = self.table.get((msg.guti, msg.ngksi))
        if not self.profile.fast_registration_enabled:
            return "disabled", entry
        if entry is None:
            return "lookup", None
        interval = self.profile.periodic_aka_interval
        if interval is not None:
            last = self.last_aka_step.get(entry.supi, -(10**9))
            if self._step() - last >= interval:
                return "periodic", entry
        ctx = entry.context
        if not 0 <= msg.ul_count < COUNT_LIMIT or ctx.dl_count + 1 >= COUNT_LIMIT:
            # Either COUNT would leave 32 bits: re-key with a fresh AKA.
            return "count", entry
        k_enc, k_int = ctx.nas_keys
        ies = encode_ies(msg.guti, msg.ngksi, msg.ul_count)
        if not crypto.mac_verify(ies, msg.container, k_int, msg.mac):
            return "mac", entry
        try:
            plain = crypto.sdec(msg.container, k_enc)
        except crypto.DecryptFailure:
            plain = None
        if plain != ies:
            return "container", entry
        if msg.ul_count <= ctx.ul_count:
            return "count", entry
        return None, entry

    def _on_fast(self, envelope) -> None:
        msg: RegistrationRequestFast = envelope.msg
        reason, entry = self._fast_check(msg)
        if reason is None:
            ctx = entry.context
            ctx.ul_count = msg.ul_count
            self._emit(
                "amf_verify",
                ies=encode_ies(msg.guti, msg.ngksi, msg.ul_count).hex(),
                container=msg.container.hex(),
                mac=msg.mac.hex(),
            )
            new_guti = self._alloc_guti()
            # Alias: the new GUTI joins the old ones on the same context.
            self.table[(new_guti, msg.ngksi)] = entry
            ctx.dl_count += 1
            self._accept(envelope, entry.supi, new_guti, "fast", ctx)
            return
        self._emit("fast_fallback", reason=reason, guti=msg.guti)
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
        self.pending[envelope.src, envelope.flow] = _PendingAka(supi=supi, vector=vector, caps=caps, stage="res")
        self._emit("aka_started", supi=supi)
        self._reply(envelope, AuthRequest(vector.rand, vector.autn))

    def _on_identity(self, envelope) -> None:
        msg: RegistrationRequestInitial | IdentityResponse = envelope.msg
        try:
            supi = self.resolve_identity(msg.identity)
        except UnknownSubscriber:
            self._emit("unknown_identity", identity=msg.identity)
            self._reply(envelope, RegistrationReject("unknown-subscriber"))
            return
        self._begin_aka(supi, envelope, caps=msg.sec_caps)

    def _on_auth_response(self, envelope) -> None:
        state = self.pending.get((envelope.src, envelope.flow))
        if state is None or state.stage != "res":
            self._emit("stray_message", mtype=envelope.msg.mtype)
            return
        msg: AuthResponse = envelope.msg
        if not msg.res or msg.res != state.vector.xres:
            self._emit("aka_reject", supi=state.supi)
            del self.pending[envelope.src, envelope.flow]
            self._reply(envelope, RegistrationReject("authentication-failure"))
            return
        _, _, k_amf = crypto.derive_k_amf(state.vector.ck, state.vector.ik)
        state.k_amf = k_amf
        state.ngksi = self._alloc_ngksi(state.supi)
        state.stage = "smc"
        self._reply(envelope, SecurityModeCommand(tuple(state.caps), state.ngksi))

    def _purge_subscriber_rows(self, supi: str) -> None:
        for key in [k for k, e in self.table.items() if e.supi == supi]:
            del self.table[key]

    def _on_smc_complete(self, envelope) -> None:
        state = self.pending.get((envelope.src, envelope.flow))
        if state is None or state.stage != "smc":
            self._emit("stray_message", mtype=envelope.msg.mtype)
            return
        del self.pending[envelope.src, envelope.flow]
        ctx = SecurityContext(
            k_amf=state.k_amf, ngksi=state.ngksi, ue_sec_caps=tuple(state.caps), ul_count=0, dl_count=1
        )
        if not crypto.mac_verify(b"security-mode-complete", b"", ctx.nas_keys[1], envelope.msg.mac):
            self._emit("smc_failure", supi=state.supi)
            self._reply(envelope, RegistrationReject("security-mode-failure"))
            return
        # A new AKA replaces every alias of the subscriber's old context.
        supi = state.supi
        self._purge_subscriber_rows(supi)
        guti = self._alloc_guti()
        self.table[(guti, state.ngksi)] = TableEntry(supi=supi, context=ctx)
        self.last_aka_step[supi] = self._step()
        self._emit("aka_established", supi=supi, guti=guti)
        self._accept(envelope, supi, guti, "aka", ctx)

    def _accept(self, envelope, supi: str, guti: str, via: str, ctx: SecurityContext) -> None:
        """Open the subscriber's session and send it the ciphered accept."""
        self.sessions[supi] = Session(supi, envelope.bs, guti, "Registered", via, envelope.flow)
        self._emit("registration_accept", supi=supi, guti=guti, via=via)
        payload = crypto.senc(encode_accept_payload(guti, ctx.dl_count), ctx.nas_keys[0])
        self._reply(envelope, RegistrationAccept(payload))

    def _on_dereg(self, envelope) -> None:
        msg: Deregistration = envelope.msg
        # Each GUTI is allocated and inserted once, so at most one probe hits.
        for ngksi in range(NGKSI_MAX + 1):
            if (entry := self.table.get((msg.guti, ngksi))) is not None:
                session = self.sessions.get(entry.supi)
                if session is not None:
                    session.state = "Deregistered"
                self._emit("deregistered", supi=entry.supi)
                return
        self._emit("stray_message", mtype=msg.mtype)

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
            self._emit("stray_message", mtype=envelope.msg.mtype)
            return
        getattr(self, handler)(envelope)

    # --- downstream service surface -----------------------------------

    def one_tap_token(self, session: Session) -> OneTapToken:
        """Mint an app login token for whoever holds the registered session."""
        if session.state != "Registered":
            raise NotRegistered("session for %s is %s" % (session.supi, session.state))
        return OneTapToken(supi=session.supi, nonce="%08x" % self.rng.getrandbits(32))

    def locate(self, supi: str) -> str:
        """Network-side paging view: the base station serving the subscriber."""
        session = self.sessions.get(supi)
        if session is None or session.state != "Registered":
            raise NotRegistered("%s has no registered session" % supi)
        return session.serving_bs
