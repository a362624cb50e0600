"""Mobile equipment: power states, card slot, baseband context store.

The security context produced by a registration has one home per
generation, as in TS 24.301, TS 24.501 and TS 31.102:

  1. the inserted card, iff it carries that generation's NSC file
     (CardImage.holds_context: every standard card for 4G, only cards
     issued with 4F01/4F03 for 5G); its context files are read and written
     with READ/UPDATE on the handset's baseband session, so the card's
     access conditions apply to the handset as to any reader,
  2. otherwise the baseband chip's own entry, guarded by an identity
     comparison against the inserted card.

The two homes are exclusive: an empty or refused read, or a context that
does not parse, finds no context, and register() then runs the initial
registration with full AKA.

The baseband entry is cleared when (1) the card is removed while the
phone is powered on, (2) the phone enters powered-on with an empty slot,
or (3) the inserted card's identity differs from the entry.  Airplane
mode and powered-off swaps leave it alone unless ICCID binding or
offline-swap detection is switched on.
"""

from __future__ import annotations

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
from .record import fields_equal
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

    __eq__ = fields_equal

    def to_bytes(self) -> bytes:
        caps = ",".join(self.ue_sec_caps).encode("ascii")
        return (
            self.k_amf.octets
            + bytes([self.ngksi])
            + len(caps).to_bytes(2, "big")
            + caps
            + self.ul_count.to_bytes(4, "big")
            + self.dl_count.to_bytes(4, "big")
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SecurityContext":
        if len(blob) < crypto.KEY_LEN + 1 + 2 + 8:
            raise ValueError("context blob too short")
        k = Key(blob[: crypto.KEY_LEN], KeyKind.K_AMF)
        ngksi = blob[crypto.KEY_LEN]
        off = crypto.KEY_LEN + 1
        clen = int.from_bytes(blob[off : off + 2], "big")
        off += 2
        caps_raw = blob[off : off + clen].decode("ascii")
        caps = tuple(caps_raw.split(",")) if caps_raw else ()
        off += clen
        if len(blob) != off + 8:
            raise ValueError("context blob has trailing bytes")
        ul = int.from_bytes(blob[off : off + 4], "big")
        dl = int.from_bytes(blob[off + 4 : off + 8], "big")
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
    """What one register() call did, as seen from the handset."""

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
        "context_source",
    )

    def __init__(self, path: str, generation: str, flow: str, start_step: int, context_source: str) -> None:
        self.path = path  # "fast" | "initial"
        self.generation = generation
        self.flow = flow
        self.start_step = start_step
        self.aka_ran = False
        self.accepted = False
        self.guti: str | None = None
        self.reject_cause: str | None = None
        self.end_step = 0
        self.context_source = context_source  # "card" | "baseband" | "none"


class _InFlight:
    __slots__ = ("flow", "outcome", "ctx", "source", "aka")

    def __init__(self, flow: str, outcome: RegistrationOutcome) -> None:
        self.flow = flow
        self.outcome = outcome
        self.ctx: SecurityContext | None = None
        self.source = "none"
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
        "iccid_binding",
        "offline_swap_detection",
        "power",
        "slot",
        "baseband",
        "slot_event_pending",
        "registered",
        "current_guti",
        "generation",
        "_card_session",
        "_ctx",
        "_active",
        "_flow_n",
    )

    def __init__(
        self,
        name: str,
        env,
        bs: str = "BS-A",
        *,
        user_pin: str | None = None,
        iccid_binding: bool = False,
        offline_swap_detection: bool = False,
    ) -> None:
        self.name = name
        self.env = proxy(env)  # the environment owns its handsets
        self.bs = bs
        self.user_pin = user_pin
        self.iccid_binding = iccid_binding
        self.offline_swap_detection = offline_swap_detection

        self.power = PowerState.POWERED_OFF
        self.slot: CardImage | None = None
        self.baseband: BasebandEntry | None = None
        self.slot_event_pending = False
        self.registered = False
        self.current_guti: str | None = None
        self.generation: str | None = None

        self._card_session = None
        self._ctx: SecurityContext | None = None
        self._active: _InFlight | None = None
        self._flow_n = 0

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
                self.registered = False
                self._emit("service_lost", ("card-removed",))
            self._ctx, self._active = None, None
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
        self._ctx, self._active = None, None
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
            elif self.iccid_binding and entry.iccid != self.slot.iccid:
                self._drop_entry("iccid-mismatch")
            elif self.offline_swap_detection and self.slot_event_pending:
                self._drop_entry("offline-slot-event")
        self.slot_event_pending = False
        if self.slot is not None:
            self._card_session = self.slot.open_baseband_session()
            if self.slot.pin.enabled and self.user_pin is not None:
                verify_pin(self.slot, self._card_session, self.user_pin)

    # --- context persistence ------------------------------------------

    def _persist_context(self) -> None:
        """Write the live context back to its home for the generation."""
        if self._ctx is None or self.current_guti is None or self.generation is None:
            return
        card = self.slot
        if card is None:
            return
        if card.holds_context(self.generation):
            loci = self.current_guti.encode("ascii")
            status = store_context_files(card, self._card_session, loci, self._ctx.to_bytes(), self.generation)
            if status is ApduStatus.OK:
                self._emit("context_stored", ("card", self.generation))
            else:
                self._emit("context_store_refused", (status.name,))
        else:
            self.baseband = BasebandEntry(
                supi=card.supi,
                guti=self.current_guti,
                context=self._ctx,
                generation=self.generation,
                iccid=card.iccid,
            )
            self._emit("context_stored", ("baseband", self.generation))

    # --- registration -------------------------------------------------

    def _select_context(self, card: CardImage, generation: str):
        """The context from its one home: the card's files if it holds the generation's, else the baseband entry."""
        if card.holds_context(generation):
            loci, nsc = load_context_files(card, self._card_session, generation)
            if loci and nsc:
                try:
                    return SecurityContext.from_bytes(nsc), loci.decode("ascii"), "card"
                except ValueError as err:  # UnicodeDecodeError included
                    self._emit("context_unparsable", ("card", str(err).replace(" ", "-")))
            return None, None, "none"
        entry = self.baseband
        if (
            entry is not None
            and entry.generation == generation
            and entry.supi == card.supi
            and (not self.iccid_binding or entry.iccid == card.iccid)
        ):
            return entry.context, entry.guti, "baseband"
        return None, None, "none"

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
        ctx, guti, source = self._select_context(card, generation)
        if ctx is not None and ctx.ul_count + 1 >= COUNT_LIMIT:
            # The uplink COUNT would wrap: re-key with a fresh AKA instead.
            self._emit("count_exhausted", (guti,))
            ctx, source = None, "none"
        outcome = RegistrationOutcome(
            path="fast" if ctx is not None else "initial",
            generation=generation,
            flow=flow,
            start_step=self.env.channel.step + 1,
            context_source=source,
        )
        state = _InFlight(flow=flow, outcome=outcome)
        self._active = state
        if ctx is not None:
            state.ctx, state.source = ctx, source
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
        self._send(self._next_flow(), Deregistration(self.current_guti))
        self._persist_context()
        self.registered = False
        self._emit("ue_deregistered", (self.current_guti,))
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
        state = self._active
        handler = self._HANDLERS.get(type(envelope.msg))
        if state is None or envelope.flow != state.flow or handler is None:
            self._emit("stray_message", (envelope.msg.mtype,))
            return
        getattr(self, handler)(state, envelope)

    def _on_auth_request(self, state: _InFlight, envelope) -> None:
        msg: AuthRequest = envelope.msg
        state.outcome.aka_ran = True
        card = self.slot
        try:
            state.aka = card.run_aka(msg.rand, msg.autn)
            res = state.aka.res
        except crypto.MacFailure:
            self._emit("card_rejected_autn", ())
            res = b""
        self._send(state.flow, AuthResponse(res))

    def _on_identity_request(self, state: _InFlight, envelope) -> None:
        self._send(state.flow, IdentityResponse(self._identity(self.slot), SEC_CAPS))

    def _on_security_mode(self, state: _InFlight, envelope) -> None:
        msg: SecurityModeCommand = envelope.msg
        if state.aka is None:
            self._emit("stray_message", (msg.mtype,))
            return
        _, _, k_amf = crypto.derive_k_amf(state.aka.ck, state.aka.ik)
        ctx = SecurityContext(
            k_amf=k_amf,
            ngksi=msg.ngksi,
            ue_sec_caps=SEC_CAPS,
            ul_count=0,
            dl_count=0,
        )
        state.ctx, state.source = ctx, "ram"
        mac = crypto.mac_compute(b"security-mode-complete", b"", ctx.nas_keys[1])
        self._send(state.flow, SecurityModeComplete(mac))

    def _on_accept(self, state: _InFlight, envelope) -> None:
        msg: RegistrationAccept = envelope.msg
        if state.ctx is None:
            self._emit("stray_message", (msg.mtype,))
            return
        try:
            plain = crypto.sdec(msg.ciphered, state.ctx.nas_keys[0])
        except crypto.DecryptFailure:
            self._emit("accept_undecryptable", ())
            return
        new_guti, dl_count = decode_accept_payload(plain)
        if dl_count <= state.ctx.dl_count:
            # Downlink replay guard mirrors the uplink count rule.
            self._emit("dl_replay_discarded", (str(dl_count),))
            return
        state.ctx.dl_count = dl_count
        self.current_guti = new_guti
        self.generation = state.outcome.generation
        self.registered = True
        self._ctx = state.ctx
        outcome = state.outcome
        outcome.accepted = True
        outcome.guti = new_guti
        outcome.end_step = envelope.step
        self._emit("ue_registered", (new_guti, outcome.path))
        if state.source in ("card", "baseband"):
            # Fast-path accept refreshes the stored context in place.
            self._persist_context()
        self._active = None

    def _on_reject(self, state: _InFlight, envelope) -> None:
        msg: RegistrationReject = envelope.msg
        state.outcome.reject_cause = msg.cause
        state.outcome.end_step = envelope.step
        self._emit("ue_rejected", (msg.cause,))
        self._active = None
