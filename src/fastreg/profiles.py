"""Operator presets and countermeasure toggles."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

DEFAULT_PIN = "1234"
NONDEFAULT_PIN = "864209"
DEFAULT_PERIODIC_AKA_INTERVAL = 25


class UnknownProfile(Exception):
    pass


class UnknownCountermeasure(Exception):
    pass


@dataclass(frozen=True)
class OperatorProfile:
    """Network- and card-issuance policy for one operator."""

    name: str
    usim_hardened: bool = False
    supi_concealment: bool = False
    fast_registration_enabled: bool = True
    usim_supports_5g_context: bool = False
    default_pin: str = DEFAULT_PIN
    pin_enabled_by_default: bool = False
    periodic_aka_interval: int | None = None


# The three observed operator configurations.  They differ only in whether
# the issued cards keep their context files readable behind the (disabled
# by default) PIN or behind ADM.
BUILTIN_PROFILES: dict[str, OperatorProfile] = {
    "OP-I": OperatorProfile(name="OP-I", usim_hardened=False),
    "OP-II": OperatorProfile(name="OP-II", usim_hardened=True),
    "OP-III": OperatorProfile(name="OP-III", usim_hardened=False),
}


def get_profile(name: str) -> OperatorProfile:
    try:
        return BUILTIN_PROFILES[name]
    except KeyError:
        raise UnknownProfile("unknown profile %r (have: %s)" % (name, ", ".join(BUILTIN_PROFILES))) from None


@dataclass(frozen=True)
class Countermeasures:
    """Toggle set layered over a profile; None means keep the profile value.

    usim_hardening / fast_registration / supi_concealment / usim_5g_context
    / periodic_aka act on the network or card-issuance side;
    nondefault_pin / iccid_binding / offline_swap_detection act on the
    victim card and mobile equipment.
    """

    usim_hardening: bool | None = None
    nondefault_pin: bool = False
    iccid_binding: bool = False
    fast_registration: bool | None = None
    periodic_aka: bool = False
    supi_concealment: bool | None = None
    usim_5g_context: bool | None = None
    offline_swap_detection: bool = False

    def apply(self, profile: OperatorProfile) -> OperatorProfile:
        overrides = (
            ("usim_hardened", self.usim_hardening),
            ("fast_registration_enabled", self.fast_registration),
            ("supi_concealment", self.supi_concealment),
            ("usim_supports_5g_context", self.usim_5g_context),
        )
        changes = {name: value for name, value in overrides if value is not None}
        if self.periodic_aka:
            changes["periodic_aka_interval"] = DEFAULT_PERIODIC_AKA_INTERVAL
        if self.nondefault_pin:
            changes.update(default_pin=NONDEFAULT_PIN, pin_enabled_by_default=True)
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
