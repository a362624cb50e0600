"""Scenario config file parser tests."""

from __future__ import annotations

import pytest

from fastreg.config import ConfigError, parse_config

GOOD = """\
# attack run settings
[scenario]
attack = S1
profile = OP-II
seed = 42
variant = stale-recover

[countermeasures]
nondefault_pin = on
periodic_aka = off
"""


def test_full_config_parses():
    assert parse_config(GOOD) == {
        "attack": "S1",
        "profile": "OP-II",
        "seed": 42,
        "variant": "stale-recover",
        "cm": {"nondefault_pin": True, "periodic_aka": False},
    }


def test_a_config_holds_only_the_keys_it_sets():
    assert parse_config("") == {}
    assert parse_config("[scenario]\n[countermeasures]\n") == {}


def test_comments_and_blank_lines_are_ignored():
    cfg = parse_config("\n# nothing\n\n[scenario]\n# still nothing\nseed = 7\n")
    assert cfg == {"seed": 7}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[nope]\n", "line 1: unknown section [nope]"),
        ("seed = 1\n", "line 1: key outside any section"),
        ("[scenario]\njust-words\n", "line 2: expected key = value"),
        ("[scenario]\nseed = 1\nseed = 2\n", "line 3: duplicate key 'seed'"),
        ("[scenario]\ncolour = red\n", "line 2: unknown key 'colour'"),
        ("[scenario]\nseed = many\n", "line 2: seed wants an integer"),
        ("[scenario]\nattack = S9\n", "line 2: unknown attack 'S9'"),
        (
            "[scenario]\nseed = 1\nvariant = nope\n",
            "line 3: unknown variant 'nope' (have: default, stale, stale-recover, reconnect, swap-powered-on)",
        ),
        ("[scenario]\nprofile = OP-X\n", "line 2: unknown profile 'OP-X'"),
        ("[countermeasures]\nwishes = on\n", "line 2: unknown countermeasure 'wishes'"),
        ("[countermeasures]\niccid_binding = maybe\n", "wants on|off, got 'maybe'"),
    ],
)
def test_malformed_configs_point_at_the_line(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)
