"""Deterministic scenario environment: one channel, one network, handsets.

Everything that draws randomness draws from the single seeded Random
owned here, in construction order, so a run is reproducible byte for
byte from (profile, countermeasures, seed).  Building a SimEnv also empties
the crypto and channel memos, so that every memoised value is one this
environment derived.

Ownership runs one way.  A SimEnv owns its channel, AMF, handsets and
monitor tap; the channel owns its event log and holds each endpoint's
handler.  Nothing an environment owns holds a strong reference back to
it: `MobileEquipment.env` and `Amf.env` are weak proxies of the
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

    __slots__ = ("profile", "seed", "rng", "channel", "events", "amf", "monitor", "mes", "custody", "__weakref__")

    def __init__(self, profile: OperatorProfile, seed: int) -> None:
        crypto.clear_memos()
        field_hex.cache_clear()
        self.profile = profile
        self.seed = seed
        self.rng = Random(seed)
        self.channel = Channel()
        self.events: EventLog = self.channel.events
        self.amf = Amf(self)
        self.channel.register(self.amf.name, self.amf.handle)
        self.monitor = ChannelTap()
        self.channel.taps.append(self.monitor)
        self.mes: dict[str, MobileEquipment] = {}
        self.custody: dict[str, str | None] = {}

    def add_me(
        self,
        name: str,
        bs: str = "BS-A",
        custody: str | None = None,
        **kwargs,
    ) -> MobileEquipment:
        me = MobileEquipment(name, env=self, bs=bs, **kwargs)
        self.mes[name] = me
        self.custody[name] = custody
        self.channel.register(name, me.handle)
        return me

    def custody_of(self, who: str) -> list[str]:
        return [name for name, holder in self.custody.items() if holder == who]

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

    def pump(self) -> int:
        return self.channel.pump()

    def trace_lines(self) -> list[str]:
        return self.monitor.export_lines()

    def event_lines(self) -> list[str]:
        return self.events.export_lines()
