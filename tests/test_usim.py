"""Card emulation tests: access matrix, PIN lockout, AKA, text format."""

from __future__ import annotations

import random

import pytest

from fastreg import crypto
from fastreg.crypto import Key, KeyKind
from fastreg.usim import (
    EF_EPSLOCI,
    EF_EPSNSC,
    EF_IMSI,
    AccessLevel,
    AccessRule,
    Apdu,
    ApduCommand,
    ApduResponse,
    ApduStatus,
    CardFormatError,
    CardImage,
    PinState,
    apdu_execute,
    card_from_text,
    card_to_text,
    load_context_files,
    programmable_card,
    standard_card,
    store_context_files,
    verify_pin,
)

K = Key(b"\x07" * 16, KeyKind.K_PERMANENT)


def make_card(**kw):
    return standard_card(random.Random(11), "460001112223333", K, **kw)


def read(card, session, fid):
    return apdu_execute(card, session, Apdu(ApduCommand.READ, fid))


def update(card, session, fid, body):
    return apdu_execute(card, session, Apdu(ApduCommand.UPDATE, fid, body))


def store(card, loci, nsc, generation="4G"):
    """Write a context the way the handset does, PIN verified if enabled."""
    session = card.open_baseband_session()
    verify_pin(card, session, "1234")
    assert store_context_files(card, session, loci, nsc, generation) is ApduStatus.OK


# --- access conditions -------------------------------------------------


def expected_status(level, pin, verified):
    # Independent closed-form oracle for the access decision, written from
    # the condition definitions rather than the implementation.
    if level is AccessLevel.ALW:
        return ApduStatus.OK
    if level is AccessLevel.PIN:
        if not pin.enabled:
            return ApduStatus.OK
        if pin.locked:
            return ApduStatus.PIN_BLOCKED
        return ApduStatus.OK if verified else ApduStatus.SECURITY_NOT_SATISFIED
    # ADM and NEV both deny a reader; ADM denial reports not-satisfied.
    return ApduStatus.SECURITY_NOT_SATISFIED


def test_access_matrix_exhaustive():
    # Every condition x pin-state x session-verified combination, for both
    # READ and UPDATE, checked against the closed-form oracle above.
    pin_states = [
        ("disabled", dict(enabled=False, retries=3, locked=False)),
        ("enabled", dict(enabled=True, retries=3, locked=False)),
        ("locked", dict(enabled=True, retries=0, locked=True)),
    ]
    for level in AccessLevel:
        for _, ps in pin_states:
            for verified in (False, True):
                if ps["locked"] and verified:
                    continue  # unreachable: cannot verify a locked PIN
                card = make_card()
                card.pin = PinState("1234", ps["enabled"], ps["retries"], 3, ps["locked"])
                card.files[0x2F00] = (AccessRule(level, level), b"\x5a")
                session = card.open_session()
                session.pin_verified = verified
                for cmd in (ApduCommand.READ, ApduCommand.UPDATE):
                    resp = apdu_execute(card, session, Apdu(cmd, 0x2F00, b"\x5b"))
                    assert resp.status == expected_status(level, card.pin, verified), (
                        level,
                        ps,
                        verified,
                        cmd,
                    )


def test_read_denied_without_pin_when_enabled():
    card = make_card(pin_enabled=True)
    session = card.open_session()
    assert read(card, session, EF_IMSI).status is ApduStatus.SECURITY_NOT_SATISFIED


def test_read_after_correct_pin():
    card = make_card(pin_enabled=True)
    session = card.open_session()
    assert verify_pin(card, session, "1234").status is ApduStatus.OK
    resp = read(card, session, EF_IMSI)
    assert resp.status is ApduStatus.OK
    assert resp.payload == b"460001112223333"


def test_pin_disabled_allows_reads_directly():
    card = make_card(pin_enabled=False)
    session = card.open_session()
    assert read(card, session, EF_IMSI).status is ApduStatus.OK
    # VERIFY against a disabled PIN is an OK no-op.
    assert verify_pin(card, session, "0000").status is ApduStatus.OK


def test_wrong_pin_decrements_and_locks():
    card = make_card(pin_enabled=True)
    session = card.open_session()
    assert verify_pin(card, session, "9999").status is ApduStatus.SECURITY_NOT_SATISFIED
    assert card.pin.retries_left == 2
    assert verify_pin(card, session, "9999").status is ApduStatus.SECURITY_NOT_SATISFIED
    assert card.pin.retries_left == 1
    # Third failure exhausts the counter and locks the card.
    assert verify_pin(card, session, "9999").status is ApduStatus.PIN_BLOCKED
    assert card.pin.locked and card.pin.retries_left == 0


def test_lockout_is_permanent():
    card = make_card(pin_enabled=True)
    session = card.open_session()
    for _ in range(3):
        verify_pin(card, session, "0000")
    assert card.pin.locked
    # Correct PIN no longer helps; PIN-gated reads stay blocked; sessions
    # opened later see the same lockout.
    assert verify_pin(card, session, "1234").status is ApduStatus.PIN_BLOCKED
    assert read(card, session, EF_IMSI).status is ApduStatus.PIN_BLOCKED
    fresh = card.open_session()
    assert verify_pin(card, fresh, "1234").status is ApduStatus.PIN_BLOCKED
    assert read(card, fresh, EF_IMSI).status is ApduStatus.PIN_BLOCKED


def test_successful_verify_resets_retries():
    card = make_card(pin_enabled=True)
    session = card.open_session()
    verify_pin(card, session, "0000")
    verify_pin(card, session, "0000")
    assert card.pin.retries_left == 1
    assert verify_pin(card, session, "1234").status is ApduStatus.OK
    assert card.pin.retries_left == 3


def test_hardened_card_blocks_reader_nsc_read():
    card = make_card(hardened=True)
    session = card.open_session()
    # PIN disabled: LOCI readable, but the hardened NSC wants ADM.
    assert read(card, session, EF_EPSLOCI).status is ApduStatus.OK
    assert read(card, session, EF_EPSNSC).status is ApduStatus.SECURITY_NOT_SATISFIED


def test_baseband_session_passes_adm():
    card = make_card(hardened=True)
    session = card.open_baseband_session()
    assert read(card, session, EF_EPSNSC).status is ApduStatus.OK


def test_baseband_session_grants_adm_on_its_own_card_only():
    card_a = make_card(hardened=True)
    card_b = standard_card(random.Random(12), "460001112223334", K, hardened=True)
    session = card_a.open_baseband_session()
    assert read(card_b, session, EF_EPSNSC).status is ApduStatus.SECURITY_NOT_SATISFIED
    assert update(card_b, session, EF_IMSI, b"x").status is ApduStatus.SECURITY_NOT_SATISFIED


def test_reader_session_never_gets_adm():
    card = make_card()
    session = card.open_session()
    # IMSI update condition is ADM; a verified reader still cannot write it.
    card.pin.enabled = False
    assert update(card, session, EF_IMSI, b"x").status is ApduStatus.SECURITY_NOT_SATISFIED


def test_missing_file():
    card = make_card()
    session = card.open_session()
    assert read(card, session, 0x4F01).status is ApduStatus.FILE_NOT_FOUND
    assert update(card, session, 0x4F01, b"x").status is ApduStatus.FILE_NOT_FOUND


def test_apdu_response_payload_only_on_ok():
    with pytest.raises(ValueError):
        ApduResponse(ApduStatus.SECURITY_NOT_SATISFIED, b"leak")


def test_run_aka():
    card = make_card()
    vec = crypto.gen_auth_vector(K, 5)
    assert card.run_aka(vec.rand, vec.autn).res == vec.xres
    assert card.seq == 5
    with pytest.raises(crypto.MacFailure):
        card.run_aka(vec.rand, b"\x00" * 16)


# --- ME-facing context storage -----------------------------------------


def test_store_and_load_context_files():
    card = make_card()
    session = card.open_baseband_session()
    assert store_context_files(card, session, b"guti-1", b"\x01\x02", "4G") is ApduStatus.OK
    assert load_context_files(card, session, "4G") == (b"guti-1", b"\x01\x02")
    # Access rules survive the write.
    assert card.files[EF_EPSLOCI][0].read is AccessLevel.PIN


def test_context_io_obeys_the_access_conditions():
    card = make_card(hardened=True)
    session = card.open_baseband_session()
    store(card, b"guti-1", b"\x01\x02")
    # A reader sees the PIN-readable LOCI but not the ADM-read NSC.
    assert load_context_files(card, card.open_session(), "4G") == (b"guti-1", b"")
    rule = card.files[EF_EPSNSC][0]
    rule.update = AccessLevel.NEV
    status = store_context_files(card, session, b"guti-2", b"\x03", "4G")
    assert status is ApduStatus.SECURITY_NOT_SATISFIED
    # A refused NSC update leaves LOCI unwritten too.
    assert load_context_files(card, session, "4G") == (b"guti-1", b"\x01\x02")


def test_5g_context_requires_capable_card():
    card = make_card(supports_5g_context=False)
    session = card.open_baseband_session()
    assert store_context_files(card, session, b"g", b"c", "5G") is ApduStatus.FILE_NOT_FOUND
    assert load_context_files(card, session, "5G") == (b"", b"")
    capable = make_card(supports_5g_context=True)
    session = capable.open_baseband_session()
    assert store_context_files(capable, session, b"g", b"c", "5G") is ApduStatus.OK
    assert load_context_files(capable, session, "5G") == (b"g", b"c")


# --- programmable (fake) cards -----------------------------------------


def test_fake_card_equivalence_over_apdu():
    # Copy a victim card's registration files onto a fake card; every READ
    # a baseband would issue must return identical payloads.
    victim = make_card()
    store(victim, b"guti-77", b"ctx-bytes")
    rng = random.Random(12)
    fake = programmable_card(
        rng,
        victim.supi,
        {
            EF_IMSI: victim.files[EF_IMSI][1],
            EF_EPSLOCI: victim.files[EF_EPSLOCI][1],
            EF_EPSNSC: victim.files[EF_EPSNSC][1],
        },
    )
    vs, fs = victim.open_session(), fake.open_session()
    for fid in (EF_IMSI, EF_EPSLOCI, EF_EPSNSC):
        a, b = read(victim, vs, fid), read(fake, fs, fid)
        assert (a.status, a.payload) == (b.status, b.payload)
    assert fake.iccid != victim.iccid


def test_fake_card_enforces_conditions_once_built():
    rng = random.Random(13)
    fake = programmable_card(rng, "123", {EF_IMSI: b"123"})
    fake.files[EF_IMSI] = (AccessRule(AccessLevel.NEV, AccessLevel.NEV), b"123")
    session = fake.open_session()
    assert read(fake, session, EF_IMSI).status is ApduStatus.SECURITY_NOT_SATISFIED


# --- card image text format --------------------------------------------


def test_card_text_round_trip():
    card = make_card(pin_enabled=True, supports_5g_context=True)
    store(card, b"guti-abc", b"\xde\xad\xbe\xef")
    text = card_to_text(card)
    again = card_from_text(text)
    assert again == card
    assert card_to_text(again) == text


def test_card_text_single_line_per_file_change():
    card = make_card()
    before = card_to_text(card).splitlines()
    store(card, b"guti-x", b"")
    after = card_to_text(card).splitlines()
    assert len(before) == len(after)
    diff = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
    assert len(diff) == 1
    assert after[diff[0]].startswith("%04x" % EF_EPSLOCI)


def test_card_text_rejects_malformed():
    card = make_card()
    text = card_to_text(card)
    with pytest.raises(CardFormatError):
        card_from_text(text.replace("iccid", "icicd", 1))
    with pytest.raises(CardFormatError):
        card_from_text(text + "6fe3 PIN PIN 00\n")  # duplicate file
    with pytest.raises(CardFormatError):
        card_from_text(text.replace(" PIN ADM", " PXN ADM", 1))
    bad_hex = text.splitlines()
    bad_hex[-1] = bad_hex[-1].split()[0] + " PIN PIN zz"
    with pytest.raises(CardFormatError) as err:
        card_from_text("\n".join(bad_hex))
    assert "line" in str(err.value)


def test_pin_state_invariants():
    with pytest.raises(ValueError):
        PinState("12", True, 3, 3)
    with pytest.raises(ValueError):
        PinState("1234", True, 0, 3, locked=False)
    with pytest.raises(ValueError):
        PinState("1234", True, 1, 3, locked=True)


def test_card_requires_permanent_key_kind():
    with pytest.raises(ValueError):
        CardImage(
            iccid="1",
            supi="2",
            k_permanent=Key(b"\x00" * 16, KeyKind.K_AMF),
            files={},
            pin=PinState("1234", False, 3, 3),
        )
