"""Handset tests: context homes, chip deletion rules, slot/power shadow model."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastreg.channel import RegistrationAccept
from fastreg.crypto import KEY_LEN, Key, KeyKind
from fastreg.equipment import (
    COUNT_LIMIT,
    BasebandEntry,
    MobileEquipment,
    NoCard,
    NotRegistered,
    PinRequired,
    PowerState,
    PowerStateError,
    RegistrationOutcome,
    SecurityContext,
    SlotEmpty,
    SlotOccupied,
)
from fastreg.profiles import get_profile
from fastreg.sim import SimEnv
from fastreg.usim import EF_5GLOCI, EF_5GNSC, EF_EPSLOCI, EF_EPSNSC, AccessLevel, standard_card

SUPI = "460110123456789"


def provisioned(seed=11, me_kwargs=None, profile_override=None):
    prof = get_profile("OP-I")
    if profile_override:
        prof = replace(prof, **profile_override)
    env = SimEnv(prof, seed)
    record, card = env.provision_subscriber(SUPI)
    me = env.add_me("ue", **(me_kwargs or {}))
    return env, me, card, record


def bring_up(me, card, generation):
    """Initial registration, then a power cycle so the context is stored."""
    me.insert_card(card)
    me.power_on()
    first = me.register(generation)
    assert first.accepted and first.path == "initial" and first.aka_ran
    me.set_airplane(True)
    me.set_airplane(False)
    return first


def k_amf_fixed(fill=0x5A):
    return Key(bytes([fill]) * KEY_LEN, KeyKind.K_AMF)


def make_ctx(ul=3, dl=4):
    return SecurityContext(k_amf_fixed(), 1, ("EA2", "IA2"), ul, dl)


# --- security context codec ------------------------------------------------


def test_security_context_round_trip():
    rng = random.Random(31)
    for _ in range(100):
        ctx = SecurityContext(
            k_amf=Key(rng.randbytes(KEY_LEN), KeyKind.K_AMF),
            ngksi=rng.randrange(7),
            ue_sec_caps=tuple("C%d" % i for i in range(rng.randrange(1, 4))),
            ul_count=rng.randrange(2**32),
            dl_count=rng.randrange(2**32),
        )
        assert SecurityContext.from_bytes(ctx.to_bytes()) == ctx


def test_security_context_decode_is_strict():
    blob = make_ctx().to_bytes()
    with pytest.raises(ValueError):
        SecurityContext.from_bytes(blob + b"\x00")
    with pytest.raises(ValueError):
        SecurityContext.from_bytes(blob[:-1])
    with pytest.raises(ValueError):
        SecurityContext.from_bytes(b"")


def test_security_context_field_validation():
    with pytest.raises(ValueError):
        SecurityContext(k_amf_fixed(), 7, ("EA2",), 0, 0)  # ngksi range is 0..6
    with pytest.raises(Exception):
        SecurityContext(
            Key(b"\x01" * KEY_LEN, KeyKind.K_NASENC), 0, ("EA2",), 0, 0
        )


# --- where the context lives -----------------------------------------------


def test_4g_context_lands_on_the_card():
    env, me, card, _ = provisioned()
    bring_up(me, card, "4G")
    assert card.files[EF_EPSLOCI][1] and card.files[EF_EPSNSC][1]
    assert me.baseband.entry is None
    stored = SecurityContext.from_bytes(card.files[EF_EPSNSC][1])
    assert stored.k_amf.kind is KeyKind.K_AMF
    again = me.register("4G")
    assert again.accepted and again.path == "fast" and again.context_source == "card"
    assert not again.aka_ran


def test_5g_context_lands_in_the_baseband_for_plain_cards():
    env, me, card, _ = provisioned()
    bring_up(me, card, "5G")
    entry = me.baseband.entry
    assert entry is not None
    assert (entry.supi, entry.generation, entry.iccid) == (SUPI, "5G", card.iccid)
    assert EF_5GLOCI not in card.files  # plain card has nowhere to put it
    again = me.register("5G")
    assert again.accepted and again.path == "fast"
    assert again.context_source == "baseband" and not again.aka_ran


def test_5g_capable_card_keeps_its_own_context():
    env, me, card, _ = provisioned(
        profile_override={"usim_supports_5g_context": True}
    )
    bring_up(me, card, "5G")
    assert me.baseband.entry is None
    assert card.files[EF_5GLOCI][1] and card.files[EF_5GNSC][1]
    again = me.register("5G")
    assert again.accepted and again.path == "fast" and again.context_source == "card"


def test_power_off_keeps_baseband_entry_and_clears_live_state():
    env, me, card, _ = provisioned()
    bring_up(me, card, "5G")
    me.register("5G")
    me.power_off()
    assert me.baseband.entry is not None
    assert not me.registered
    me.power_on()
    again = me.register("5G")
    assert again.path == "fast" and again.context_source == "baseband"


# --- deletion triggers -----------------------------------------------------


def deletion_reasons(env):
    return [e.fields["reason"] for e in env.events.named("baseband_context_deleted")]


def test_removal_while_powered_on_deletes_the_entry():
    env, me, card, _ = provisioned()
    bring_up(me, card, "5G")
    me.register("5G")
    me.remove_card()
    assert me.baseband.entry is None
    assert deletion_reasons(env) == ["removed-while-powered-on"]
    assert not me.registered
    assert env.events.named("service_lost")


def test_power_on_with_empty_slot_deletes_the_entry():
    env, me, card, _ = provisioned()
    bring_up(me, card, "5G")
    me.power_off()
    me.remove_card()
    me.power_on()
    assert me.baseband.entry is None
    assert deletion_reasons(env) == ["powered-on-empty-slot"]


def test_different_card_identity_deletes_the_entry():
    env, me, card, _ = provisioned()
    other = standard_card(env.rng, "460119999999999", Key(b"\x09" * KEY_LEN, KeyKind.K_PERMANENT))
    bring_up(me, card, "5G")
    me.set_airplane(True)
    me.remove_card()
    me.insert_card(other)
    me.set_airplane(False)
    assert me.baseband.entry is None
    assert deletion_reasons(env) == ["different-card-identity"]


def test_same_identity_swap_survives_airplane_mode():
    # Identity-only check: a second card claiming the same subscriber
    # passes the power-on inspection and inherits the stored context.
    env, me, card, record = provisioned()
    clone = standard_card(env.rng, SUPI, record.k_permanent)
    assert clone.iccid != card.iccid
    bring_up(me, card, "5G")
    me.set_airplane(True)
    me.remove_card()
    me.insert_card(clone)
    me.set_airplane(False)
    assert me.baseband.entry is not None
    again = me.register("5G")
    assert again.path == "fast" and again.context_source == "baseband"
    assert again.accepted


def test_iccid_binding_rejects_the_same_identity_swap():
    env, me, card, record = provisioned(me_kwargs={"iccid_binding": True})
    clone = standard_card(env.rng, SUPI, record.k_permanent)
    bring_up(me, card, "5G")
    me.set_airplane(True)
    me.remove_card()
    me.insert_card(clone)
    me.set_airplane(False)
    assert me.baseband.entry is None
    assert deletion_reasons(env) == ["iccid-mismatch"]
    again = me.register("5G")
    assert again.path == "initial"


def test_offline_swap_detection_flags_any_slot_event():
    # Strict variant: even pulling and reseating the original card while
    # off the air invalidates the stored context.
    env, me, card, _ = provisioned(me_kwargs={"detect_offline_swap": True})
    bring_up(me, card, "5G")
    me.set_airplane(True)
    me.remove_card()
    me.insert_card(card)
    me.set_airplane(False)
    assert me.baseband.entry is None
    assert deletion_reasons(env) == ["offline-slot-event"]


def test_powered_off_swap_also_survives_without_extras():
    env, me, card, record = provisioned()
    clone = standard_card(env.rng, SUPI, record.k_permanent)
    bring_up(me, card, "5G")
    me.power_off()
    me.remove_card()
    me.insert_card(clone)
    me.power_on()
    assert me.baseband.entry is not None


# --- preconditions and guards ----------------------------------------------


def test_register_requires_power_and_card():
    env, me, card, _ = provisioned()
    with pytest.raises(PowerStateError):
        me.register("5G")
    me.power_on()
    with pytest.raises(NoCard):
        me.register("5G")
    me.insert_card(card)
    out = me.register("5G")
    assert out.accepted


def test_register_requires_verified_pin():
    env, me, card, _ = provisioned(
        profile_override={"pin_enabled_by_default": True},
        me_kwargs={"user_pin": "9999"},  # wrong guess, auto-verify fails
    )
    me.insert_card(card)
    me.power_on()
    with pytest.raises(PinRequired):
        me.register("5G")


def test_correct_user_pin_is_verified_on_power_on():
    env, me, card, _ = provisioned(
        profile_override={"pin_enabled_by_default": True},
        me_kwargs={"user_pin": "1234"},
    )
    me.insert_card(card)
    me.power_on()
    assert me.register("5G").accepted


def test_slot_and_deregistration_guards():
    env, me, card, _ = provisioned()
    with pytest.raises(SlotEmpty):
        me.remove_card()
    me.insert_card(card)
    with pytest.raises(SlotOccupied):
        me.insert_card(card)
    me.power_on()
    with pytest.raises(NotRegistered):
        me.deregister()
    with pytest.raises(PowerStateError):
        me.set_airplane(False)  # not in airplane mode


def test_stale_accept_replay_is_discarded():
    env, me, card, _ = provisioned()
    bring_up(me, card, "5G")
    first = me.register("5G")
    assert first.accepted and first.path == "fast"
    accepts = [
        t
        for t in env.monitor.entries
        if isinstance(t.msg, RegistrationAccept)
    ]
    stale = accepts[-1]  # the accept that closed the first fast cycle
    # Hold back the next accept so its flow stays open, then slip the
    # stale frame in; the counter it carries is no longer fresh.
    env.channel.drop_filter = lambda e: isinstance(e.msg, RegistrationAccept)
    out = me.register("5G")
    assert not out.accepted
    env.channel.drop_filter = None
    env.channel.inject(replace(stale, flow=out.flow))
    env.pump()
    assert not out.accepted
    assert len(env.events.named("dl_replay_discarded")) == 1
    # The genuine accept still lands afterwards.
    held = [
        t
        for t in env.monitor.entries
        if isinstance(t.msg, RegistrationAccept)
        and t.flow == out.flow
        and t.msg is not stale.msg
    ]
    assert len(held) == 1
    env.channel.inject(held[0])
    env.pump()
    assert out.accepted


@pytest.mark.parametrize("generation", ["4G", "5G"])
def test_exhausted_uplink_count_forces_a_fresh_aka(generation):
    env, me, card, _ = provisioned()
    bring_up(me, card, generation)
    # Push the stored context to the last count a 32-bit IE can carry.
    if generation == "4G":
        rule, blob = card.files[EF_EPSNSC]
        ctx = SecurityContext.from_bytes(blob)
        ctx.ul_count = COUNT_LIMIT - 1
        card.files[EF_EPSNSC] = (rule, ctx.to_bytes())
    else:
        me.baseband.entry.context.ul_count = COUNT_LIMIT - 1
    out = me.register(generation)
    assert out.accepted and out.path == "initial" and out.aka_ran
    assert len(env.events.named("count_exhausted")) == 1
    # The fresh context starts its counts again and serves the fast path.
    me.set_airplane(True)
    me.set_airplane(False)
    again = me.register(generation)
    assert again.accepted and again.path == "fast" and not again.aka_ran


# --- card context the handset may not or cannot use ------------------------


def write_file(card, fid, body):
    """Set a file's bytes in place, keeping its access rule."""
    card.files[fid] = (card.files[fid][0], body)


def unparsable_reasons(env):
    return [e.fields["reason"] for e in env.events.named("context_unparsable")]


def test_truncated_card_context_falls_back_to_aka():
    env, me, card, _ = provisioned()
    write_file(card, EF_EPSLOCI, b"guti")
    write_file(card, EF_EPSNSC, b"\x00" * 5)
    me.insert_card(card)
    me.power_on()
    out = me.register("4G")
    assert out.accepted and out.path == "initial" and out.aka_ran
    assert out.context_source == "none"
    assert unparsable_reasons(env) == ["context-blob-too-short"]
    assert env.events.named("context_unparsable")[0].fields["where"] == "card"


def test_non_ascii_card_guti_falls_back_to_aka():
    env, me, card, _ = provisioned()
    bring_up(me, card, "4G")
    write_file(card, EF_EPSLOCI, b"\xff\xfe")
    out = me.register("4G")
    assert out.accepted and out.path == "initial" and out.aka_ran
    assert len(unparsable_reasons(env)) == 1


def test_unreadable_card_context_is_not_used():
    env, me, card, _ = provisioned()
    card.files[EF_EPSNSC][0].read = AccessLevel.NEV
    bring_up(me, card, "4G")
    assert card.files[EF_EPSNSC][1]  # stored, but the handset may not read it back
    out = me.register("4G")
    assert out.accepted and out.path == "initial" and out.context_source == "none"


def test_refused_context_store_is_logged_and_leaves_nsc_unchanged():
    env, me, card, _ = provisioned()
    card.files[EF_EPSNSC][0].update = AccessLevel.NEV
    before = card.files[EF_EPSLOCI][1], card.files[EF_EPSNSC][1]
    bring_up(me, card, "4G")
    # Neither file is written: no new GUTI beside the old context.
    assert (card.files[EF_EPSLOCI][1], card.files[EF_EPSNSC][1]) == before
    refused = env.events.named("context_store_refused")
    assert [e.fields["status"] for e in refused] == ["SECURITY_NOT_SATISFIED"]
    assert not env.events.named("context_stored")


@settings(derandomize=True, database=None)
@given(loci=st.binary(max_size=64), nsc=st.binary(max_size=64))
def test_any_card_context_bytes_end_in_an_outcome(loci, nsc):
    env, me, card, _ = provisioned()
    write_file(card, EF_EPSLOCI, loci)
    write_file(card, EF_EPSNSC, nsc)
    me.insert_card(card)
    me.power_on()
    assert isinstance(me.register("4G"), RegistrationOutcome)


# --- randomized slot/power walk against a shadow model ---------------------


def shadow_step(state, op, *, binding, detect):
    """Closed-form mirror of the chip's context retention rules."""
    power, slot, pending, entry = state
    if op == "seed":
        entry = True
    elif op.startswith("insert_"):
        slot = op.split("_", 1)[1]
        if power == "ON":
            entry, pending = _shadow_enter(slot, pending, entry, binding, detect)
        else:
            pending = True
    elif op == "remove":
        slot = None
        if power == "ON":
            entry = False
        else:
            pending = True
    elif op == "power_on":
        power = "ON"
        entry, pending = _shadow_enter(slot, pending, entry, binding, detect)
    elif op == "power_off":
        power = "OFF"
    elif op == "air_on":
        power = "AIR"
    elif op == "air_off":
        power = "ON"
        entry, pending = _shadow_enter(slot, pending, entry, binding, detect)
    return power, slot, pending, entry


def _shadow_enter(slot, pending, entry, binding, detect):
    if entry:
        if slot is None:
            entry = False
        elif slot == "B":  # the different-subscriber card
            entry = False
        elif binding and slot != "A":
            entry = False
        elif detect and pending:
            entry = False
    return entry, False


def legal_ops(state):
    power, slot, _, entry = state
    ops = []
    if slot is None:
        ops += ["insert_A", "insert_A2", "insert_B"]
    else:
        ops.append("remove")
    if power == "OFF":
        ops.append("power_on")
    else:
        ops.append("power_off")
    if power == "ON":
        ops.append("air_on")
    if power == "AIR":
        ops.append("air_off")
    if not entry:
        ops.append("seed")
    return ops


def test_random_slot_power_walk_matches_shadow_model():
    rng = random.Random(1009)
    k = Key(b"\x01" * KEY_LEN, KeyKind.K_PERMANENT)
    card_a = standard_card(rng, SUPI, k)
    card_a2 = standard_card(rng, SUPI, k)
    card_b = standard_card(rng, "460110000000001", k)
    cards = {"A": card_a, "A2": card_a2, "B": card_b}
    seed_entry = lambda: BasebandEntry(SUPI, "guti-seed", make_ctx(), "5G", card_a.iccid)

    for binding, detect in ((False, False), (True, False), (False, True)):
        for _ in range(300):
            me = MobileEquipment("walk", iccid_binding=binding, detect_offline_swap=detect)
            state = ("OFF", None, False, False)
            for _ in range(rng.randrange(6, 15)):
                op = rng.choice(legal_ops(state))
                if op == "seed":
                    me.baseband.entry = seed_entry()
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
                elif op == "air_off":
                    me.set_airplane(False)
                state = shadow_step(state, op, binding=binding, detect=detect)
                power, slot, pending, entry = state
                assert (me.baseband.entry is not None) == entry, (binding, detect, op)
                assert me.power.value == {
                    "ON": "PoweredOn", "AIR": "Airplane", "OFF": "PoweredOff"
                }[power]
                assert (me.slot is None) == (slot is None)
                assert me.slot_event_pending == pending
