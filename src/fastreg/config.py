"""Strict scenario-file parser.

Format: INI-like sections with key = value lines.

    [scenario]
    attack = S2
    profile = OP-I
    seed = 7
    variant = default

    [countermeasures]
    iccid_binding = on

A parsed file is the `run_scenario` keyword arguments it sets: `attack`,
`profile`, `seed`, `variant`, and `cm` (the toggle set of
[countermeasures]).  A key the file leaves out is absent, and so takes
`run_scenario`'s default.  Unknown sections, unknown keys, duplicate
keys and malformed values are all hard errors carrying the offending
line number.
"""

from __future__ import annotations

from .attacks import SCENARIOS
from .profiles import (
    UnknownCountermeasure,
    UnknownProfile,
    countermeasures_from_pairs,
    get_profile,
)


class ConfigError(ValueError):
    pass


SCENARIO_KEYS = ("attack", "profile", "seed", "variant")


def parse_config(text: str) -> dict:
    cfg: dict = {}
    section = None
    seen: set[tuple[str, str]] = set()
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("scenario", "countermeasures"):
                raise ConfigError("line %d: unknown section [%s]" % (n, section))
            continue
        if section is None:
            raise ConfigError("line %d: key outside any section" % n)
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep or not key or not value:
            raise ConfigError("line %d: expected key = value" % n)
        if (section, key) in seen:
            raise ConfigError("line %d: duplicate key %r in [%s]" % (n, key, section))
        seen.add((section, key))
        if section == "scenario":
            if key not in SCENARIO_KEYS:
                raise ConfigError(
                    "line %d: unknown key %r in [scenario] (have: %s)"
                    % (n, key, ", ".join(SCENARIO_KEYS))
                )
            if key == "seed":
                try:
                    cfg["seed"] = int(value)
                except ValueError:
                    raise ConfigError("line %d: seed wants an integer, got %r" % (n, value)) from None
            elif key == "attack":
                if value not in SCENARIOS:
                    raise ConfigError(
                        "line %d: unknown attack %r (have: %s)"
                        % (n, value, ", ".join(SCENARIOS))
                    )
                cfg["attack"] = value
            elif key == "profile":
                try:
                    cfg["profile"] = get_profile(value).name
                except UnknownProfile as err:
                    raise ConfigError("line %d: %s" % (n, err)) from None
            else:
                # One that only the chosen attack lacks fails at run time: --attack may change it.
                variants = dict.fromkeys(v for table in SCENARIOS.values() for v in table)
                if value not in variants:
                    raise ConfigError("line %d: unknown variant %r (have: %s)" % (n, value, ", ".join(variants)))
                cfg["variant"] = value
        else:
            try:
                cfg.setdefault("cm", {}).update(countermeasures_from_pairs({key: value}))
            except UnknownCountermeasure as err:
                raise ConfigError("line %d: %s" % (n, err)) from None
    return cfg
