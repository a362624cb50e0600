"""Desk-scale model of cellular fast registration and context storage.

The package simulates the 4G/5G registration procedures end to end
(identity, AKA, security mode, fast re-registration), the two places a
NAS security context can live (card files vs. the baseband chip), the
card-level access conditions guarding it, and the impersonation attacks
that follow when either store leaks. Runs are deterministic per seed.
"""

from .profiles import BUILTIN_PROFILES, OperatorProfile, get_profile

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_PROFILES",
    "OperatorProfile",
    "get_profile",
    "__version__",
]
