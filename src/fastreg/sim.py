"""Deterministic scenario environment: one channel, one network, handsets.

Everything that draws randomness draws from the single seeded Random
owned here, in construction order, so a run is reproducible byte for
byte from (profile, countermeasures, seed).  Building a SimEnv also empties
the crypto and channel memos, so that every memoised value is one this
environment derived.

Ownership runs one way.  A SimEnv owns its channel, AMF and handsets;
the channel owns its monitor tap and event log, which the environment
names `monitor` and `events`, and holds each endpoint's handler.
Nothing an environment owns holds a strong reference back to it:
`MobileEquipment.env` and `Amf.env` are weak proxies of the
environment, and `EventLog`'s clock is a weak proxy of the channel.  An
environment is therefore freed by reference counting the moment its
last reference (usually an `AttackReport`) goes, with no work left for
the cyclic collector.  A handset or AMF used after its environment is
gone raises `ReferenceError`; an event log read after its channel is
gone still reads, but cannot emit.
"""

from __future__ import annotations

from random import Random

from . import crypto
from .channel import Channel, ChannelTap, EventLog, field_hex
from .crypto import KEY_LEN, Key, KeyKind
from .equipment import MobileEquipment
from .network import Amf, SubscriberRecord
from .profiles import OperatorProfile
from .usim import CardImage, standard_card


class SimEnv:
    """Container wiring the channel, the network and any handsets."""

    __slots__ = ("profile", "rng", "channel", "events", "monitor", "amf", "mes", "__weakref__")

    def __init__(self, profile: OperatorProfile, seed: int) -> None:
        crypto.clear_memos()
        field_hex.cache_clear()
        self.profile = profile
        self.rng = Random(seed)
        self.channel = Channel()
        self.events: EventLog = self.channel.events
        self.monitor: ChannelTap = self.channel.monitor
        self.amf = Amf(self)
        self.channel.register(self.amf.name, self.amf.handle)
        self.mes: dict[str, MobileEquipment] = {}

    def add_me(self, name: str, bs: str = "BS-A", user_pin: str | None = None) -> MobileEquipment:
        """Add the handset `name` at base station `bs`.

        `user_pin` is the PIN its owner enters when a card asks for one.
        The handset reads its vendor toggles (ICCID binding, offline-swap
        detection) from this environment's profile.  Who holds it is a
        scenario's record (`attacks.ScenarioEnv.custody`), not the protocol's.
        """
        me = MobileEquipment(name, env=self, bs=bs, user_pin=user_pin)
        self.mes[name] = me
        self.channel.register(name, me.handle)
        return me

    def provision_subscriber(self, supi: str) -> tuple[SubscriberRecord, CardImage]:
        """Create the network record and issue a card per the profile."""
        k = Key(self.rng.randbytes(KEY_LEN), KeyKind.K_PERMANENT)
        record = self.amf.add_subscriber(supi, k)
        card = standard_card(
            self.rng,
            supi,
            k,
            pin_value=self.profile.pin,
            pin_enabled=self.profile.nondefault_pin,
            hardened=self.profile.usim_hardening,
            supports_5g_context=self.profile.usim_5g_context,
        )
        return record, card

    def trace_lines(self) -> list[str]:
        return self.monitor.export_lines()

    def event_lines(self) -> list[str]:
        return self.events.export_lines()
