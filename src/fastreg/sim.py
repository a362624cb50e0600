"""Deterministic scenario environment: one channel, one network, handsets.

Everything that draws randomness draws from the single seeded Random
owned here, in construction order, so a run is reproducible byte for
byte from (profile, countermeasures, seed).
"""

from __future__ import annotations

from random import Random

from .channel import Channel, ChannelTap, EventLog
from .crypto import KEY_LEN, Key, KeyKind
from .equipment import MobileEquipment
from .network import Amf, SubscriberRecord
from .profiles import OperatorProfile
from .usim import CardImage, standard_card


class SimEnv:
    """Container wiring the channel, the network and any handsets."""

    def __init__(self, profile: OperatorProfile, seed: int) -> None:
        self.profile = profile
        self.seed = seed
        self.rng = Random(seed)
        self.channel = Channel()
        self.amf = Amf(profile, self.rng)
        self.amf.env = self
        self.channel.register(self.amf.name, self.amf.handle)
        self.monitor = ChannelTap()
        self.channel.taps.append(self.monitor)
        self.mes: dict[str, MobileEquipment] = {}
        self.custody: dict[str, str | None] = {}

    @property
    def events(self) -> EventLog:
        return self.channel.events

    def add_me(
        self,
        name: str,
        bs: str = "BS-A",
        custody: str | None = None,
        **kwargs,
    ) -> MobileEquipment:
        me = MobileEquipment(name, env=self, bs=bs, **kwargs)
        if self.profile.supi_concealment:
            me.suci_builder = self.amf.conceal_supi
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
            pin_value=self.profile.default_pin,
            pin_enabled=self.profile.pin_enabled_by_default,
            hardened=self.profile.usim_hardened,
            supports_5g_context=self.profile.usim_supports_5g_context,
        )
        return record, card

    def pump(self) -> int:
        return self.channel.pump()

    def trace_lines(self) -> list[str]:
        return self.monitor.export_lines()

    def event_lines(self) -> list[str]:
        return self.events.export_lines()
