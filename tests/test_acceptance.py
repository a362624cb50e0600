"""Acceptance gate: nine criteria, one test (and one verdict line) each.

Every expected value here is either pinned directly or recomputed from a
small self-contained oracle written into this file or, for the slot/power
walk, into `tests/test_equipment.py`, so the gate does not lean on the
implementation it is judging.
"""

from __future__ import annotations

import hashlib
import random
import time

import pytest
from test_equipment import legal_ops, shadow_step

from fastreg import crypto
from fastreg.attacks import (
    ATTACKER_BS,
    VICTIM_SUPI,
    build_environment,
    fast_agreement_pairs,
    run_scenario,
    run_table_matrix,
)
from fastreg.channel import RegistrationRequestFast
from fastreg.crypto import KEY_LEN, Key, KeyKind
from fastreg.equipment import BasebandEntry, SecurityContext
from fastreg.profiles import ALL_PROTECTIVE, get_profile
from fastreg.sim import SimEnv
from fastreg.usim import (
    AccessLevel,
    AccessRule,
    ApduCommand,
    ApduStatus,
    PinState,
    apdu_execute,
    card_from_text,
    card_to_text,
    standard_card,
    verify_pin,
)

EXPECTED_MATRIX = {
    "OP-I": {
        "usim_context": True,
        "baseband_context": True,
        "impersonation": True,
        "one_tap_bypass": True,
        "location_spoofing": True,
    },
    "OP-II": {
        "usim_context": False,
        "baseband_context": True,
        "impersonation": True,
        "one_tap_bypass": True,
        "location_spoofing": True,
    },
    "OP-III": {
        "usim_context": True,
        "baseband_context": True,
        "impersonation": True,
        "one_tap_bypass": True,
        "location_spoofing": True,
    },
}


def verdict(n: int, label: str) -> None:
    print("criterion %d/9 %s: PASS" % (n, label))


# --- 1: per-operator verdict matrix ----------------------------------------


def test_criterion_1_operator_matrix():
    started = time.monotonic()
    rows = run_table_matrix(seed=0)
    elapsed = time.monotonic() - started
    assert rows == EXPECTED_MATRIX
    assert elapsed < 5.0, "matrix took %.2fs" % elapsed
    verdict(1, "operator matrix")


# --- 2: fast-path trace shape ----------------------------------------------


def _check_attack_trace(report, attacker_name):
    lines = report.env.trace_lines()
    # The victim's own bring-up is a full authenticated run.
    first_initial = next(i for i, l in enumerate(lines) if "registration-request-initial" in l)
    assert any("authentication-request" in l for l in lines[first_initial:])
    # The attacker's request carries its fields in clear and is answered
    # by an accept with no challenge in between.
    fast_at = max(
        i
        for i, l in enumerate(lines)
        if "registration-request-fast" in l and "%s->amf" % attacker_name in l
    )
    assert "guti=" in lines[fast_at] and "count=" in lines[fast_at]
    tail = lines[fast_at + 1 :]
    assert tail and "registration-accept" in tail[0]
    assert "amf->%s" % attacker_name in tail[0]
    assert not any("authentication-request" in l for l in tail)


def test_criterion_2_fast_path_trace_shape():
    s1 = run_scenario("S1", "OP-I", seed=2)
    assert s1.succeeded
    _check_attack_trace(s1, "attacker-me")
    s2 = run_scenario("S2", "OP-I", seed=2)
    assert s2.succeeded
    _check_attack_trace(s2, "shared-me")
    verdict(2, "fast-path trace shape")


# --- 3: injective-agreement witness ----------------------------------------


def test_criterion_3_agreement_witness():
    for report in (
        run_scenario("S1", "OP-I", seed=3),
        run_scenario("S2", "OP-I", seed=3),
    ):
        assert report.succeeded
        assert report.evidence["agreement_violated"] == "true"
        env = report.env
        victims = set(env.custody_of("victim"))
        lo, hi = report.window
        in_window = [
            (v, inits)
            for v, inits in fast_agreement_pairs(env.events)
            if lo <= v.step <= hi
        ]
        assert in_window
        for _, inits in in_window:
            assert not any(e.entity in victims for e in inits)

    # Under protections and honest use the witness never fires, and the
    # check is not vacuous: the fast path still runs and still pairs up.
    env = build_environment("OP-I", seed=12, cm=ALL_PROTECTIVE)
    me = env.mes["victim-me"]
    me.insert_card(env.cards["victim"])
    me.power_on()
    assert me.register("4G").accepted
    for _ in range(3):
        me.set_airplane(True)
        me.set_airplane(False)
        assert me.register("4G").accepted
    pairs = fast_agreement_pairs(env.events)
    assert len(pairs) >= 3
    for _, inits in pairs:
        assert len(inits) == 1 and inits[0].entity == "victim-me"
    verdict(3, "injective-agreement witness")


# --- 4: byte-identical replay rejection ------------------------------------


def test_criterion_4_replay_rejection():
    for seed in range(100):
        env = SimEnv(get_profile("OP-I"), seed)
        _, card = env.provision_subscriber(VICTIM_SUPI)
        me = env.add_me("ue")
        me.insert_card(card)
        me.power_on()
        assert me.register("5G").accepted
        me.set_airplane(True)
        me.set_airplane(False)
        out = me.register("5G")
        assert out.accepted and out.path == "fast"
        assert len(env.events.named("amf_verify")) == 1
        captured = [
            t
            for t in env.monitor.entries
            if isinstance(t.msg, RegistrationRequestFast)
        ][-1]
        accepts_before = len(env.events.named("registration_accept"))
        env.channel.send(captured.src, captured.dst, captured.bs, captured.flow, captured.msg)
        env.channel.pump()
        reasons = [e.fields["reason"] for e in env.events.named("fast_fallback")]
        assert reasons[-1] == "count", (seed, reasons)
        assert len(env.events.named("amf_verify")) == 1  # replay never verified
        assert len(env.events.named("registration_accept")) == accepts_before
    verdict(4, "replay rejection x100")


# --- 5: slot/power walk against a shadow model ------------------------------


def test_criterion_5_slot_power_shadow():
    rng = random.Random(50)
    k = Key(b"\x01" * KEY_LEN, KeyKind.K_PERMANENT)
    cards = {
        "A": standard_card(rng, VICTIM_SUPI, k),
        "A2": standard_card(rng, VICTIM_SUPI, k),
        "B": standard_card(rng, "460110000000001", k),
    }
    ctx = SecurityContext(Key(b"\x5a" * KEY_LEN, KeyKind.K_AMF), 1, ("EA2",), 3, 4)
    checked = 0
    for binding, detect in ((False, False), (True, False), (False, True)):
        cm = {"iccid_binding": binding, "offline_swap_detection": detect}
        env = SimEnv(get_profile("OP-I").with_toggles(cm), 50)
        for _ in range(334):
            me = env.add_me("walk")
            state = ("OFF", None, False, False)
            for _ in range(rng.randrange(6, 15)):
                op = rng.choice(legal_ops(state))
                if op == "seed":
                    me.baseband = BasebandEntry(
                        VICTIM_SUPI, "guti-seed", ctx, "5G", cards["A"].iccid
                    )
                elif op.startswith("insert_"):
                    me.insert_card(cards[op.split("_", 1)[1]])
                elif op == "remove":
                    me.remove_card()
                elif op == "power_on":
                    me.power_on()
                elif op == "power_off":
                    me.power_off()
                elif op == "air_on":
                    me.set_airplane(True)
                else:
                    me.set_airplane(False)
                state = shadow_step(state, op, binding=binding, detect=detect)
                assert (me.baseband is not None) == state[3], (
                    binding,
                    detect,
                    op,
                )
                assert me.slot_event_pending == state[2]
                checked += 1
    assert checked >= 1000
    verdict(5, "slot/power shadow model (%d ops)" % checked)


# --- 6: card access rules and lockout --------------------------------------


def _expected_status(level, pin, verified):
    if level is AccessLevel.ALW:
        return ApduStatus.OK
    if level is AccessLevel.PIN:
        if not pin.enabled:
            return ApduStatus.OK
        if pin.locked:
            return ApduStatus.PIN_BLOCKED
        return ApduStatus.OK if verified else ApduStatus.SECURITY_NOT_SATISFIED
    return ApduStatus.SECURITY_NOT_SATISFIED


def test_criterion_6_card_access_rules():
    pin_states = [
        dict(enabled=False, retries=3),
        dict(enabled=True, retries=3),
        dict(enabled=True, retries=0),
    ]
    cases = 0
    for level in AccessLevel:
        for ps in pin_states:
            for pin_verified in (False, True):
                if ps["retries"] == 0 and pin_verified:
                    continue
                card = standard_card(
                    random.Random(6), VICTIM_SUPI, Key(b"\x07" * 16, KeyKind.K_PERMANENT)
                )
                card.pin = PinState("1234", ps["enabled"], ps["retries"], 3)
                card.files[0x2F00] = (AccessRule(level, level), b"\x5a")
                session = card.open_session()
                session.pin_verified = pin_verified
                for cmd in (ApduCommand.READ, ApduCommand.UPDATE):
                    resp = apdu_execute(card, session, cmd, 0x2F00, b"\x5b")
                    assert resp.status == _expected_status(level, card.pin, pin_verified)
                    cases += 1
    assert cases == 40  # 4 levels x 5 pin/verified combinations x 2 commands

    # Lockout is permanent: the right PIN stops working, later sessions
    # inherit the block, and the state survives a save/load round trip.
    card = standard_card(
        random.Random(7), VICTIM_SUPI, Key(b"\x07" * 16, KeyKind.K_PERMANENT),
        pin_enabled=True,
    )
    session = card.open_session()
    for _ in range(3):
        verify_pin(card, session, "0000")
    assert card.pin.locked
    assert verify_pin(card, session, "1234").status is ApduStatus.PIN_BLOCKED
    later = card.open_session()
    assert verify_pin(card, later, "1234").status is ApduStatus.PIN_BLOCKED
    reloaded = card_from_text(card_to_text(card))
    assert reloaded.pin.locked and reloaded.pin.retries_left == 0
    verdict(6, "card access matrix and lockout")


# --- 7: countermeasure coverage --------------------------------------------


def test_criterion_7_countermeasure_coverage():
    # Baselines first, so a blocked attack is attributable to the toggle.
    assert run_scenario("S1", "OP-I", seed=21).succeeded
    assert run_scenario("S2", "OP-I", seed=21).succeeded

    singles = [
        ({"usim_hardening": True}, "S1"),
        ({"nondefault_pin": True}, "S1"),
        ({"iccid_binding": True}, "S2"),
        ({"usim_5g_context": True}, "S2"),
        ({"offline_swap_detection": True}, "S2"),
        ({"supi_concealment": True}, "S2"),
        ({"fast_registration": False}, "S1"),
        ({"fast_registration": False}, "S2"),
    ]
    for cm, attack in singles:
        report = run_scenario(attack, "OP-I", seed=21, cm=cm)
        assert not report.succeeded, (cm, report.evidence)

    # Periodic reauthentication bounds the stolen context's lifetime.
    cm = {"periodic_aka": True}
    report = run_scenario("S2", "OP-I", seed=22, cm=cm)
    assert report.succeeded  # theft inside the window still lands
    env = report.env
    env.channel.step += 25
    retry = env.mes["shared-me"].register("5G")
    assert not retry.accepted and retry.aka_ran
    assert [e.fields["reason"] for e in env.events.named("fast_fallback")][-1] == "periodic"

    # The combined protective set closes every scenario on every profile.
    for profile in ("OP-I", "OP-II", "OP-III"):
        s1 = run_scenario("S1", profile, seed=23, cm=ALL_PROTECTIVE)
        s2 = run_scenario("S2", profile, seed=23, cm=ALL_PROTECTIVE)
        assert not s1.succeeded and not s2.succeeded
    verdict(7, "countermeasure coverage")


# --- 8: crypto against a scratch oracle ------------------------------------


def _scratch_hmac(key: bytes, msg: bytes) -> bytes:
    if len(key) > 64:
        key = hashlib.sha256(key).digest()
    key = key.ljust(64, b"\x00")
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    return hashlib.sha256(opad + hashlib.sha256(ipad + msg).digest()).digest()


def _scratch_prf(key: bytes, data: bytes) -> bytes:
    return _scratch_hmac(key, data)[:16]


def test_criterion_8_crypto_oracles():
    rng = random.Random(80)
    for _ in range(10_000):
        key = rng.randbytes(16)
        data = rng.randbytes(rng.randrange(0, 48))
        assert crypto.prf(key, data) == _scratch_prf(key, data)

    # Key schedule: the implementation's chain equals the scratch chain.
    for _ in range(200):
        ck = Key(rng.randbytes(KEY_LEN), KeyKind.CK)
        ik = Key(rng.randbytes(KEY_LEN), KeyKind.IK)
        k_ausf, k_seaf, k_amf = crypto.derive_k_amf(ck, ik)
        root = _scratch_prf(ck.octets, ik.octets)
        want_ausf = _scratch_prf(root, b"AUSF")
        want_seaf = _scratch_prf(want_ausf, b"SEAF")
        want_amf = _scratch_prf(want_seaf, b"AMF")
        assert (k_ausf.octets, k_seaf.octets, k_amf.octets) == (
            want_ausf,
            want_seaf,
            want_amf,
        )
        k_enc, k_int = crypto.nas_keys(k_amf)
        assert k_enc.octets == _scratch_prf(want_amf, b"NASenc")
        assert k_int.octets == _scratch_prf(want_amf, b"NASint")

    # Transport layer: round trips, tamper detection, MAC forgery flips.
    k_enc = Key(rng.randbytes(KEY_LEN), KeyKind.K_NASENC)
    k_int = Key(rng.randbytes(KEY_LEN), KeyKind.K_NASINT)
    for _ in range(300):
        msg = rng.randbytes(rng.randrange(1, 40))
        blob = crypto.senc(msg, k_enc)
        assert crypto.sdec(blob, k_enc) == msg
        spot = rng.randrange(len(blob) * 8)
        bad = bytearray(blob)
        bad[spot // 8] ^= 1 << (spot % 8)
        with pytest.raises(crypto.DecryptFailure):
            crypto.sdec(bytes(bad), k_enc)
    for _ in range(500):
        ies = rng.randbytes(rng.randrange(1, 24))
        container = rng.randbytes(rng.randrange(1, 24))
        mac = crypto.mac_compute(ies, container, k_int)
        assert crypto.mac_verify(ies, container, k_int, mac)
        spot = rng.randrange(len(mac) * 8)
        bad = bytearray(mac)
        bad[spot // 8] ^= 1 << (spot % 8)
        assert not crypto.mac_verify(ies, container, k_int, bytes(bad))
    verdict(8, "crypto vs scratch oracle")


# --- 9: reproducibility ----------------------------------------------------


def test_criterion_9_reproducibility():
    a = run_scenario("S2", "OP-I", seed=18)
    b = run_scenario("S2", "OP-I", seed=18)
    assert a.to_lines() == b.to_lines()
    assert a.env.trace_lines() == b.env.trace_lines()
    assert a.env.event_lines() == b.env.event_lines()
    c = run_scenario("S2", "OP-I", seed=19)
    assert c.env.trace_lines() != a.env.trace_lines()
    assert run_table_matrix(seed=3) == run_table_matrix(seed=3)
    verdict(9, "reproducible runs")
