"""Operator presets and countermeasure toggles, in one vocabulary.

A profile is a name plus the eight toggles; a toggle set (`Countermeasures`)
is the same eight fields, where None keeps the profile's value.
`effective_profile` is `Countermeasures.apply` with a bounded memo keyed
by the field values of both inputs, so a sweep that runs the same toggle
set on a profile many times builds the profile once.
"""

from __future__ import annotations

import functools
from operator import attrgetter

from .record import Frozen, fields_equal, set_field

DEFAULT_PIN = "1234"
NONDEFAULT_PIN = "864209"
PERIODIC_AKA_INTERVAL = 25  # channel steps between forced AKAs under periodic_aka

# The eight toggles, in one order: the fields of both classes below, the
# names `--countermeasure` and config files take, and `profiles list`.
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

    __eq__ = fields_equal

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


class Countermeasures(Frozen):
    """Toggle set layered over a profile; None keeps the profile's value."""

    __slots__ = TOGGLES

    def __init__(
        self,
        usim_hardening: bool | None = None,
        nondefault_pin: bool | None = None,
        iccid_binding: bool | None = None,
        fast_registration: bool | None = None,
        periodic_aka: bool | None = None,
        supi_concealment: bool | None = None,
        usim_5g_context: bool | None = None,
        offline_swap_detection: bool | None = None,
    ) -> None:
        set_field(self, "usim_hardening", usim_hardening)
        set_field(self, "nondefault_pin", nondefault_pin)
        set_field(self, "iccid_binding", iccid_binding)
        set_field(self, "fast_registration", fast_registration)
        set_field(self, "periodic_aka", periodic_aka)
        set_field(self, "supi_concealment", supi_concealment)
        set_field(self, "usim_5g_context", usim_5g_context)
        set_field(self, "offline_swap_detection", offline_swap_detection)

    def apply(self, profile: OperatorProfile) -> OperatorProfile:
        changes = {t: value for t in TOGGLES if (value := getattr(self, t)) is not None}
        if not changes:
            return profile
        return OperatorProfile(profile.name, **{t: changes.get(t, getattr(profile, t)) for t in TOGGLES})


_profile_values = attrgetter("name", *TOGGLES)
_toggle_values = attrgetter(*TOGGLES)


def effective_profile(profile: OperatorProfile, cm: Countermeasures | None) -> OperatorProfile:
    """`cm.apply(profile)`, or `profile` when there is no toggle set.

    Both inputs are frozen, and the memo is keyed by their field values,
    not their identity: equal inputs share one equal result, and an input
    that differs in any field is a different key, so no result is stale.
    """
    if cm is None:
        return profile
    return _applied(_profile_values(profile), _toggle_values(cm))


# 256 on/off toggle sets x the three built-in profiles fit.
@functools.lru_cache(maxsize=1024)
def _applied(profile_values: tuple, toggle_values: tuple) -> OperatorProfile:
    return Countermeasures(*toggle_values).apply(OperatorProfile(*profile_values))


def countermeasures_from_pairs(pairs: dict[str, str]) -> Countermeasures:
    """Build a toggle set from name=on|off pairs (CLI or config syntax)."""
    names = sorted(TOGGLES)
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
