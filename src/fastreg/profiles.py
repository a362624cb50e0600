"""Operator presets and countermeasure toggles, in one vocabulary.

A profile is a name plus the eight toggles; a toggle set (`Countermeasures`)
is the same eight fields, where None keeps the profile's value.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

DEFAULT_PIN = "1234"
NONDEFAULT_PIN = "864209"
PERIODIC_AKA_INTERVAL = 25  # channel steps between forced AKAs under periodic_aka


class UnknownProfile(Exception):
    pass


class UnknownCountermeasure(Exception):
    pass


@dataclass(frozen=True)
class OperatorProfile:
    """Network, card-issuance and handset policy for one operator.

    usim_hardening / fast_registration / supi_concealment / usim_5g_context
    / periodic_aka act on the network or card-issuance side;
    nondefault_pin / iccid_binding / offline_swap_detection act on the
    victim card and mobile equipment.
    """

    name: str
    usim_hardening: bool = False
    nondefault_pin: bool = False
    iccid_binding: bool = False
    fast_registration: bool = True
    periodic_aka: bool = False
    supi_concealment: bool = False
    usim_5g_context: bool = False
    offline_swap_detection: bool = False

    @property
    def pin(self) -> str:
        """The PIN cards are issued with; it is enabled iff nondefault_pin."""
        return NONDEFAULT_PIN if self.nondefault_pin else DEFAULT_PIN


# The three observed operator configurations.  They differ only in whether
# the issued cards keep their context files readable behind the (disabled
# by default) PIN or behind ADM.
BUILTIN_PROFILES: dict[str, OperatorProfile] = {
    "OP-I": OperatorProfile(name="OP-I"),
    "OP-II": OperatorProfile(name="OP-II", usim_hardening=True),
    "OP-III": OperatorProfile(name="OP-III"),
}


def get_profile(name: str) -> OperatorProfile:
    try:
        return BUILTIN_PROFILES[name]
    except KeyError:
        raise UnknownProfile("unknown profile %r (have: %s)" % (name, ", ".join(BUILTIN_PROFILES))) from None


@dataclass(frozen=True)
class Countermeasures:
    """Toggle set layered over a profile; None keeps the profile's value."""

    usim_hardening: bool | None = None
    nondefault_pin: bool | None = None
    iccid_binding: bool | None = None
    fast_registration: bool | None = None
    periodic_aka: bool | None = None
    supi_concealment: bool | None = None
    usim_5g_context: bool | None = None
    offline_swap_detection: bool | None = None

    def apply(self, profile: OperatorProfile) -> OperatorProfile:
        changes = {name: value for name, value in vars(self).items() if value is not None}
        return replace(profile, **changes) if changes else profile


def countermeasures_from_pairs(pairs: dict[str, str]) -> Countermeasures:
    """Build a toggle set from name=on|off pairs (CLI or config syntax)."""
    names = sorted(f.name for f in fields(Countermeasures))
    kwargs: dict[str, bool] = {}
    for name, value in pairs.items():
        if name not in names:
            raise UnknownCountermeasure(
                "unknown countermeasure %r (have: %s)" % (name, ", ".join(names))
            )
        if value not in ("on", "off"):
            raise UnknownCountermeasure("countermeasure %s wants on|off, got %r" % (name, value))
        kwargs[name] = value == "on"
    return Countermeasures(**kwargs)


ALL_PROTECTIVE = Countermeasures(
    usim_hardening=True,
    nondefault_pin=True,
    iccid_binding=True,
    periodic_aka=True,
)
