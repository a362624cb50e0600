"""Operator presets and countermeasure toggles, in one vocabulary.

A profile is a name plus the eight toggles.  A toggle set is a plain
`dict[str, bool]` naming only the toggles it sets, and
`OperatorProfile.with_toggles` layers one over a profile: an operator's
practice and a countermeasure are the same kind of setting.
"""

from __future__ import annotations

from .record import Frozen, set_field

DEFAULT_PIN = "1234"
NONDEFAULT_PIN = "864209"
PERIODIC_AKA_INTERVAL = 25  # channel steps between forced AKAs under periodic_aka

# The eight toggles, in one order: the fields of OperatorProfile, the keys
# of a toggle set, the names `--countermeasure` and config files take, and
# `profiles list`.
TOGGLES = (
    "usim_hardening",
    "nondefault_pin",
    "iccid_binding",
    "fast_registration",
    "periodic_aka",
    "supi_concealment",
    "usim_5g_context",
    "offline_swap_detection",
)


class UnknownProfile(Exception):
    pass


class UnknownCountermeasure(Exception):
    pass


class OperatorProfile(Frozen):
    """Network, card-issuance and handset policy for one operator.

    usim_hardening / fast_registration / supi_concealment / usim_5g_context
    / periodic_aka act on the network or card-issuance side;
    nondefault_pin / iccid_binding / offline_swap_detection act on the
    victim card and mobile equipment.
    """

    __slots__ = ("name", *TOGGLES)

    def __init__(
        self,
        name: str,
        usim_hardening: bool = False,
        nondefault_pin: bool = False,
        iccid_binding: bool = False,
        fast_registration: bool = True,
        periodic_aka: bool = False,
        supi_concealment: bool = False,
        usim_5g_context: bool = False,
        offline_swap_detection: bool = False,
    ) -> None:
        set_field(self, "name", name)
        set_field(self, "usim_hardening", usim_hardening)
        set_field(self, "nondefault_pin", nondefault_pin)
        set_field(self, "iccid_binding", iccid_binding)
        set_field(self, "fast_registration", fast_registration)
        set_field(self, "periodic_aka", periodic_aka)
        set_field(self, "supi_concealment", supi_concealment)
        set_field(self, "usim_5g_context", usim_5g_context)
        set_field(self, "offline_swap_detection", offline_swap_detection)

    @property
    def pin(self) -> str:
        """The PIN cards are issued with; it is enabled iff nondefault_pin."""
        return NONDEFAULT_PIN if self.nondefault_pin else DEFAULT_PIN

    def with_toggles(self, toggles: dict[str, bool]) -> OperatorProfile:
        """This profile with the toggle set layered over it; an unknown name or a non-bool raises TypeError."""
        if not toggles:
            return self
        for name, value in toggles.items():
            if type(value) is not bool:
                raise TypeError("toggle %s wants a bool, got %r" % (name, value))
        return OperatorProfile(self.name, **({t: getattr(self, t) for t in TOGGLES} | toggles))


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


def countermeasures_from_pairs(pairs: dict[str, str]) -> dict[str, bool]:
    """The toggle set of name=on|off pairs (CLI or config syntax)."""
    names = sorted(TOGGLES)
    toggles: dict[str, bool] = {}
    for name, value in pairs.items():
        if name not in names:
            raise UnknownCountermeasure(
                "unknown countermeasure %r (have: %s)" % (name, ", ".join(names))
            )
        if value not in ("on", "off"):
            raise UnknownCountermeasure("countermeasure %s wants on|off, got %r" % (name, value))
        toggles[name] = value == "on"
    return toggles


ALL_PROTECTIVE = {"usim_hardening": True, "nondefault_pin": True, "iccid_binding": True, "periodic_aka": True}
