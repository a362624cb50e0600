"""Strict scenario-file parser.

Format: INI-like sections with key = value lines.

    [scenario]
    attack = S2
    profile = OP-I
    seed = 7
    variant = default

    [countermeasures]
    iccid_binding = on

Unknown sections, unknown keys, duplicate keys and malformed values are
all hard errors carrying the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .attacks import SCENARIO_NAMES
from .profiles import (
    UnknownCountermeasure,
    UnknownProfile,
    countermeasures_from_pairs,
    get_profile,
)


class ConfigError(ValueError):
    pass


SCENARIO_KEYS = ("attack", "profile", "seed", "variant")


@dataclass
class ScenarioConfig:
    attack: str = "S2"
    profile: str = "OP-I"
    seed: int = 0
    variant: str = "default"
    countermeasures: dict[str, str] = field(default_factory=dict)


def parse_config(text: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
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
                    cfg.seed = int(value)
                except ValueError:
                    raise ConfigError("line %d: seed wants an integer, got %r" % (n, value)) from None
            elif key == "attack":
                if value not in SCENARIO_NAMES:
                    raise ConfigError(
                        "line %d: unknown attack %r (have: %s)"
                        % (n, value, ", ".join(SCENARIO_NAMES))
                    )
                cfg.attack = value
            elif key == "profile":
                try:
                    cfg.profile = get_profile(value).name
                except UnknownProfile as err:
                    raise ConfigError("line %d: %s" % (n, err)) from None
            else:
                cfg.variant = value
        else:
            try:
                countermeasures_from_pairs({key: value})
            except UnknownCountermeasure as err:
                raise ConfigError("line %d: %s" % (n, err)) from None
            cfg.countermeasures[key] = value
    return cfg
