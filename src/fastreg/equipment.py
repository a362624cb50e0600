"""Mobile equipment: power states, card slot, baseband context store.

The security context produced by a registration has one home per
generation, as in TS 24.301, TS 24.501 and TS 31.102:

  1. the inserted card, iff it carries that generation's NSC file
     (CardImage.holds_context: every standard card for 4G, only cards
     issued with 4F01/4F03 for 5G); its context files are read and written
     with READ/UPDATE on the handset's baseband session, so the card's
     access conditions apply to the handset as to any reader,
  2. otherwise the baseband chip's own entry.  Like the chip, the model
     compares the entry's identity with the inserted card only when
     entering powered-on and on a hot insert, never at registration.

The two homes are exclusive: an empty or refused read, or a context that
does not parse, finds no context, and register() then runs the initial
registration with full AKA.

The handset writes the context to its home once per registration, when
an accept makes it live, whether AKA or the fast path produced it.  A
deregistration writes nothing.

The baseband entry is cleared when (1) the card is removed while the
phone is powered on, (2) the phone enters powered-on with an empty slot,
or (3) the inserted card's identity differs from the entry.  Airplane
mode and powered-off swaps leave it alone unless ICCID binding or
offline-swap detection is switched on.  Those two vendor toggles, like
SUPI concealment, are read from the environment's operator profile: a
handset keeps no copy of them.
"""

from __future__ import annotations

from _struct import Struct
from _weakref import proxy
from enum import Enum

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
    decode_accept_payload,
    encode_ies,
    field_hex,
)
from .crypto import Key, KeyKind
from .usim import NSC_FILES, ApduStatus, CardImage, load_context_files, store_context_files, verify_pin


class SlotEmpty(Exception):
    pass


class SlotOccupied(Exception):
    pass


class NoCard(Exception):
    pass


class NotRegistered(Exception):
    pass


class PowerStateError(Exception):
    pass


class PinRequired(Exception):
    pass


class UnknownGeneration(Exception):
    pass


class PowerState(Enum):
    POWERED_ON = "PoweredOn"
    AIRPLANE = "Airplane"
    POWERED_OFF = "PoweredOff"


NGKSI_MAX = 6
COUNT_LIMIT = 2**32
SEC_CAPS = ("EA2", "IA2")  # the handset's security capabilities

# SecurityContext.to_bytes layout: K_AMF, ngksi, caps length, caps, UL count, DL count.
_CTX_HEAD = Struct(">%dsBH" % crypto.KEY_LEN)
_CTX_COUNTS = Struct(">II")
_CTX_HEAD_LEN = _CTX_HEAD.size
_CTX_MIN_LEN = _CTX_HEAD_LEN + _CTX_COUNTS.size


class SecurityContext:
    """NAS security context: session key, key-set id, caps, counters."""

    __slots__ = ("k_amf", "ngksi", "ue_sec_caps", "ul_count", "dl_count", "nas_keys")

    def __init__(self, k_amf: Key, ngksi: int, ue_sec_caps: tuple[str, ...], ul_count: int, dl_count: int) -> None:
        if k_amf.kind is not KeyKind.K_AMF:
            raise ValueError("context key must be K_AMF kind")
        if not 0 <= ngksi <= NGKSI_MAX:
            raise ValueError("ngksi out of range 0..%d" % NGKSI_MAX)
        if not (0 <= ul_count < COUNT_LIMIT and 0 <= dl_count < COUNT_LIMIT):
            raise ValueError("NAS count out of 32-bit range")
        self.k_amf = k_amf
        self.ngksi = ngksi
        self.ue_sec_caps = ue_sec_caps
        self.ul_count = ul_count
        self.dl_count = dl_count
        # (K_NASenc, K_NASint): a function of k_amf, which never changes.
        self.nas_keys = crypto.nas_keys(k_amf)

    def to_bytes(self) -> bytes:
        caps = ",".join(self.ue_sec_caps).encode("ascii")
        return (
            _CTX_HEAD.pack(self.k_amf.octets, self.ngksi, len(caps))
            + caps
            + _CTX_COUNTS.pack(self.ul_count, self.dl_count)
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SecurityContext":
        if len(blob) < _CTX_MIN_LEN:
            raise ValueError("context blob too short")
        octets, ngksi, clen = _CTX_HEAD.unpack_from(blob)
        k = Key(octets, KeyKind.K_AMF)
        off = _CTX_HEAD_LEN + clen
        caps_raw = blob[_CTX_HEAD_LEN:off].decode("ascii")
        caps = tuple(caps_raw.split(",")) if caps_raw else ()
        if len(blob) != off + 8:
            raise ValueError("context blob has trailing bytes")
        ul, dl = _CTX_COUNTS.unpack_from(blob, off)
        return cls(k, ngksi, caps, ul, dl)


class BasebandEntry:
    """Chip-held context with the identity of the card it belongs to."""

    __slots__ = ("supi", "guti", "context", "generation", "iccid")

    def __init__(self, supi: str, guti: str, context: SecurityContext, generation: str, iccid: str) -> None:
        self.supi = supi
        self.guti = guti
        self.context = context
        self.generation = generation
        self.iccid = iccid


class RegistrationOutcome:
    """One register() call as the handset sees it: in flight, with its flow's
    context and AKA result; once accepted, the handset's live registration.
    """

    __slots__ = (
        "path",
        "generation",
        "flow",
        "start_step",
        "aka_ran",
        "accepted",
        "guti",
        "reject_cause",
        "end_step",
        "ctx",
        "aka",
    )

    def __init__(self, path: str, generation: str, flow: str, start_step: int) -> None:
        self.path = path  # "fast" | "initial"
        self.generation = generation
        self.flow = flow
        self.start_step = start_step
        self.aka_ran = False
        self.accepted = False
        self.guti: str | None = None
        self.reject_cause: str | None = None
        self.end_step = 0
        self.ctx: SecurityContext | None = None
        self.aka: crypto.AkaResult | None = None


class MobileEquipment:
    """One handset: slot, power switch, baseband store, NAS endpoint.

    The handset holds its environment weakly (see `fastreg.sim`): used
    after the environment is gone, it raises ReferenceError.
    """

    __slots__ = (
        "name",
        "env",
        "bs",
        "user_pin",
        "power",
        "slot",
        "baseband",
        "slot_event_pending",
        "_card_session",
        "_active",
        "_live",
        "_flow_n",
    )

    def __init__(self, name: str, env, bs: str = "BS-A", *, user_pin: str | None = None) -> None:
        self.name = name
        self.env = proxy(env)  # the environment owns its handsets
        self.bs = bs
        self.user_pin = user_pin

        self.power = PowerState.POWERED_OFF
        self.slot: CardImage | None = None
        self.baseband: BasebandEntry | None = None
        self.slot_event_pending = False

        self._card_session = None
        self._active: RegistrationOutcome | None = None  # the register() in flight
        self._live: RegistrationOutcome | None = None  # the accepted one in force
        self._flow_n = 0

    @property
    def registered(self) -> bool:
        """Registered iff the handset holds a live registration from an accept."""
        return self._live is not None

    # --- plumbing ------------------------------------------------------

    def _emit(self, event: str, values: tuple[str, ...]) -> None:
        self.env.events.emit(self.name, event, values)

    def _send(self, flow: str, msg) -> None:
        self.env.channel.send(self.name, self.env.amf.name, self.bs, flow, msg)

    def _next_flow(self) -> str:
        self._flow_n += 1
        return "%s#%d" % (self.name, self._flow_n - 1)

    def _drop_entry(self, reason: str) -> None:
        if self.baseband is not None:
            self.baseband = None
            self._emit("baseband_context_deleted", (reason,))

    # --- slot and power operations ------------------------------------

    def insert_card(self, card: CardImage) -> None:
        if self.slot is not None:
            raise SlotOccupied("slot already holds %s" % self.slot.iccid)
        self.slot = card
        self._emit("card_inserted", (card.iccid,))
        if self.power is PowerState.POWERED_ON:
            self._enter_powered_on()
        else:
            self.slot_event_pending = True

    def remove_card(self) -> CardImage:
        if self.slot is None:
            raise SlotEmpty("no card to remove")
        card = self.slot
        self.slot = None
        self._card_session = None
        self._emit("card_removed", (card.iccid,))
        if self.power is PowerState.POWERED_ON:
            # Rule: removal while powered on clears the chip-held context.
            self._drop_entry("removed-while-powered-on")
            if self.registered:
                self._emit("service_lost", ("card-removed",))
            self._live, self._active = None, None
        else:
            self.slot_event_pending = True
        return card

    def power_on(self) -> None:
        if self.power is PowerState.POWERED_ON:
            return
        self.power = PowerState.POWERED_ON
        self._emit("power_on", ())
        self._enter_powered_on()

    def power_off(self) -> None:
        if self.power is PowerState.POWERED_OFF:
            return
        if self.registered:
            self.deregister()
        self.power = PowerState.POWERED_OFF
        self._card_session = None
        self._live, self._active = None, None
        self._emit("power_off", ())

    def set_airplane(self, enabled: bool) -> None:
        if enabled:
            if self.power is not PowerState.POWERED_ON:
                raise PowerStateError("airplane mode toggles from powered-on")
            if self.registered:
                self.deregister()
            self.power = PowerState.AIRPLANE
            self._emit("airplane_on", ())
        else:
            if self.power is not PowerState.AIRPLANE:
                raise PowerStateError("not in airplane mode")
            self.power = PowerState.POWERED_ON
            self._emit("airplane_off", ())
            self._enter_powered_on()

    def _enter_powered_on(self) -> None:
        """Runs on every transition into powered-on and on hot card insert."""
        entry = self.baseband
        if entry is not None:
            if self.slot is None:
                self._drop_entry("powered-on-empty-slot")
            elif entry.supi != self.slot.supi:
                self._drop_entry("different-card-identity")
            elif self.env.profile.iccid_binding and entry.iccid != self.slot.iccid:
                self._drop_entry("iccid-mismatch")
            elif self.env.profile.offline_swap_detection and self.slot_event_pending:
                self._drop_entry("offline-slot-event")
        self.slot_event_pending = False
        if self.slot is not None:
            self._card_session = self.slot.open_baseband_session()
            if self.slot.pin.enabled and self.user_pin is not None:
                verify_pin(self.slot, self._card_session, self.user_pin)

    # --- context persistence ------------------------------------------

    def _persist_context(self) -> None:
        """Write the context an accept just made live to its home for the generation."""
        card, live = self.slot, self._live
        if card.holds_context(live.generation):
            loci = live.guti.encode("ascii")
            status = store_context_files(card, self._card_session, loci, live.ctx.to_bytes(), live.generation)
            if status is ApduStatus.OK:
                self._emit("context_stored", ("card", live.generation))
            else:
                self._emit("context_store_refused", (status.name,))
        else:
            self.baseband = BasebandEntry(
                supi=card.supi,
                guti=live.guti,
                context=live.ctx,
                generation=live.generation,
                iccid=card.iccid,
            )
            self._emit("context_stored", ("baseband", live.generation))

    # --- registration -------------------------------------------------

    def _select_context(self, card: CardImage, generation: str):
        """The stored (context, GUTI), else (None, None).

        It comes from the card's files if the card holds the generation's,
        else from the baseband entry.  Which home is not returned: the
        accept's `_persist_context` finds the same home from the card.
        """
        if card.holds_context(generation):
            loci, nsc = load_context_files(card, self._card_session, generation)
            if loci and nsc:
                try:
                    return SecurityContext.from_bytes(nsc), loci.decode("ascii")
                except ValueError as err:  # UnicodeDecodeError included
                    self._emit("context_unparsable", ("card", str(err).replace(" ", "-")))
            return None, None
        entry = self.baseband
        if entry is not None and entry.generation == generation:
            return entry.context, entry.guti
        return None, None

    def _identity(self, card: CardImage) -> str:
        if self.env.profile.supi_concealment:
            return self.env.amf.conceal_supi(card.supi)
        return card.supi

    def register(self, generation: str = "5G") -> RegistrationOutcome:
        if generation not in NSC_FILES:
            raise UnknownGeneration("unknown generation %r (have: %s)" % (generation, ", ".join(NSC_FILES)))
        if self.power is not PowerState.POWERED_ON:
            raise PowerStateError("cannot register while %s" % self.power.value)
        card = self.slot
        if card is None:
            raise NoCard("no card in slot")
        if card.pin.enabled and not (
            self._card_session is not None and self._card_session.pin_verified
        ):
            raise PinRequired("card PIN not verified")
        flow = self._next_flow()
        ctx, guti = self._select_context(card, generation)
        if ctx is not None and ctx.ul_count + 1 >= COUNT_LIMIT:
            # The uplink COUNT would wrap: re-key with a fresh AKA instead.
            self._emit("count_exhausted", (guti,))
            ctx = None
        outcome = RegistrationOutcome(
            path="fast" if ctx is not None else "initial",
            generation=generation,
            flow=flow,
            start_step=self.env.channel.step + 1,
        )
        self._active = outcome
        if ctx is not None:
            outcome.ctx = ctx
            ctx.ul_count += 1
            k_enc, k_int = ctx.nas_keys
            ies = encode_ies(guti, ctx.ngksi, ctx.ul_count)
            container = crypto.senc(ies, k_enc)
            mac = crypto.mac_compute(ies, container, k_int)
            self._emit("ue_init", (field_hex(ies), field_hex(container), field_hex(mac)))
            self._send(flow, RegistrationRequestFast(guti, ctx.ngksi, ctx.ul_count, container, mac))
        else:
            self._send(flow, RegistrationRequestInitial(self._identity(card), SEC_CAPS))
        self.env.channel.pump()
        return outcome

    def deregister(self) -> None:
        if not self.registered:
            raise NotRegistered("not registered")
        guti = self._live.guti
        self._send(self._next_flow(), Deregistration(guti))
        self._live = None
        self._emit("ue_deregistered", (guti,))
        self.env.channel.pump()

    # --- NAS downlink handlers ----------------------------------------

    # Message class -> handler method name, looked up on the instance.
    _HANDLERS = {
        AuthRequest: "_on_auth_request",
        IdentityRequest: "_on_identity_request",
        SecurityModeCommand: "_on_security_mode",
        RegistrationAccept: "_on_accept",
        RegistrationReject: "_on_reject",
    }

    def handle(self, envelope) -> None:
        outcome = self._active
        handler = self._HANDLERS.get(type(envelope.msg))
        if outcome is None or envelope.flow != outcome.flow or handler is None:
            self._emit("stray_message", (envelope.msg.mtype,))
            return
        getattr(self, handler)(outcome, envelope)

    def _on_auth_request(self, outcome: RegistrationOutcome, envelope) -> None:
        msg: AuthRequest = envelope.msg
        outcome.aka_ran = True
        card = self.slot
        try:
            outcome.aka = card.run_aka(msg.rand, msg.autn)
            res = outcome.aka.res
        except crypto.MacFailure:
            self._emit("card_rejected_autn", ())
            res = b""
        self._send(outcome.flow, AuthResponse(res))

    def _on_identity_request(self, outcome: RegistrationOutcome, envelope) -> None:
        self._send(outcome.flow, IdentityResponse(self._identity(self.slot), SEC_CAPS))

    def _on_security_mode(self, outcome: RegistrationOutcome, envelope) -> None:
        msg: SecurityModeCommand = envelope.msg
        if outcome.aka is None:
            self._emit("stray_message", (msg.mtype,))
            return
        _, _, k_amf = crypto.derive_k_amf(outcome.aka.ck, outcome.aka.ik)
        ctx = SecurityContext(
            k_amf=k_amf,
            ngksi=msg.ngksi,
            ue_sec_caps=SEC_CAPS,
            ul_count=0,
            dl_count=0,
        )
        outcome.ctx = ctx
        mac = crypto.mac_compute(b"security-mode-complete", b"", ctx.nas_keys[1])
        self._send(outcome.flow, SecurityModeComplete(mac))

    def _on_accept(self, outcome: RegistrationOutcome, envelope) -> None:
        msg: RegistrationAccept = envelope.msg
        if outcome.ctx is None:
            self._emit("stray_message", (msg.mtype,))
            return
        try:
            plain = crypto.sdec(msg.ciphered, outcome.ctx.nas_keys[0])
        except crypto.DecryptFailure:
            self._emit("accept_undecryptable", ())
            return
        new_guti, dl_count = decode_accept_payload(plain)
        if dl_count <= outcome.ctx.dl_count:
            # Downlink replay guard mirrors the uplink count rule.
            self._emit("dl_replay_discarded", (str(dl_count),))
            return
        outcome.ctx.dl_count = dl_count
        outcome.accepted = True
        outcome.guti = new_guti
        outcome.end_step = envelope.step
        self._live = outcome
        self._emit("ue_registered", (new_guti, outcome.path))
        self._persist_context()
        self._active = None

    def _on_reject(self, outcome: RegistrationOutcome, envelope) -> None:
        msg: RegistrationReject = envelope.msg
        outcome.reject_cause = msg.cause
        outcome.end_step = envelope.step
        self._emit("ue_rejected", (msg.cause,))
        self._active = None
