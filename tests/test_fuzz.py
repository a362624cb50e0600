"""The three outside-input parsers raise only their own typed errors on any input.

Derandomized and bounded, so each run checks the same inputs and the
whole file stays well under a second.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fastreg.config import ConfigError, parse_config
from fastreg.crypto import Key, KeyKind
from fastreg.equipment import SecurityContext
from fastreg.usim import CardFormatError, card_from_text, card_to_text, standard_card

CARD_TEXT = card_to_text(
    standard_card(random.Random(3), "460110123456789", Key(bytes(range(16)), KeyKind.K_PERMANENT), supports_5g_context=True)
)
CONFIG_TEXT = """\
[scenario]
attack = S1
profile = OP-II
seed = 42
variant = stale-recover

[countermeasures]
nondefault_pin = on
periodic_aka = off
"""

# Characters the formats give meaning to, plus a few they must refuse.
PIECES = st.text(alphabet="0123456789abcdefABCDEF xyz=-#[]\n\t,.+_\x00\xe9", max_size=4) | st.text(max_size=2)


def mutants(text: str):
    """`text` with one to four edits, each deleting up to 3 characters at a position and inserting a piece."""
    # sampled_from spreads the positions over the whole text; st.integers favours its ends.
    edit = st.tuples(st.sampled_from(range(len(text) + 1)), st.integers(0, 3), PIECES)

    def apply(edits):
        out = text
        for at, cut, piece in edits:
            at = min(at, len(out))
            out = out[:at] + piece + out[at + cut :]
        return out

    return st.lists(edit, min_size=1, max_size=4).map(apply)


@settings(derandomize=True, database=None, max_examples=120)
@given(text=mutants(CARD_TEXT))
def test_card_text_mutants_load_or_raise_card_format_error(text):
    try:
        card = card_from_text(text)
    except CardFormatError:
        return
    # A card that loads saves to a text that loads back to the same card.
    assert card_from_text(card_to_text(card)) == card


@settings(derandomize=True, database=None, max_examples=120)
@given(text=mutants(CONFIG_TEXT))
def test_config_mutants_parse_or_raise_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


@settings(derandomize=True, database=None, max_examples=300)
@given(blob=st.binary(max_size=80))
def test_context_blobs_decode_or_raise_value_error(blob):
    try:
        ctx = SecurityContext.from_bytes(blob)
    except ValueError:  # UnicodeDecodeError included
        return
    assert ctx.to_bytes() == blob
