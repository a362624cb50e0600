"""Handset tests: context homes, chip deletion rules, slot/power shadow model."""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastreg import crypto, equipment
from fastreg.attacks import PROFILE_ORDER, SCENARIOS, run_scenario
from fastreg.channel import RegistrationAccept, SecurityModeCommand, encode_accept_payload
from fastreg.crypto import KEY_LEN, Key, KeyKind
from fastreg.equipment import (
    COUNT_LIMIT,
    SEC_CAPS,
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
    UnknownGeneration,
)
from fastreg.profiles import ALL_PROTECTIVE, NONDEFAULT_PIN, TOGGLES, get_profile
from fastreg.sim import SimEnv
from fastreg.usim import EF_5GLOCI, EF_5GNSC, EF_EPSLOCI, EF_EPSNSC, EF_IMSI, AccessLevel, programmable_card, standard_card

SUPI = "460110123456789"


@contextmanager
def held_back(channel, name, handler, kind):
    """Keep frames of type `kind` sent to `name` in the yielded list; `handler` gets the rest and is registered again on exit."""
    held = []
    channel.register(name, lambda e: held.append(e) if isinstance(e.msg, kind) else handler(e))
    try:
        yield held
    finally:
        channel.register(name, handler)


def provisioned(seed=11, me_kwargs=None, profile_override=None):
    env = SimEnv(get_profile("OP-I").with_toggles(profile_override or {}), seed)
    record, card = env.provision_subscriber(SUPI)
    me = env.add_me("ue", **(me_kwargs or {}))
    return env, me, card, record


def bring_up(me, card, generation):
    """Initial registration, whose accept stores the context, then an airplane cycle."""
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
        assert SecurityContext.from_bytes(ctx.to_bytes()).to_bytes() == ctx.to_bytes()


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
    # Refused by the record itself, before nas_keys sees the key.
    with pytest.raises(ValueError, match="context key must be K_AMF kind"):
        SecurityContext(
            Key(b"\x01" * KEY_LEN, KeyKind.K_NASENC), 0, ("EA2",), 0, 0
        )
    for counts in ((COUNT_LIMIT, 0), (0, COUNT_LIMIT)):
        with pytest.raises(ValueError, match="NAS count out of 32-bit range"):
            SecurityContext(k_amf_fixed(), 0, ("EA2",), *counts)


def oracle_to_bytes(ctx):
    """SecurityContext.to_bytes as it was written field by field: the layout's reference."""
    caps = ",".join(ctx.ue_sec_caps).encode("ascii")
    return (
        ctx.k_amf.octets
        + bytes([ctx.ngksi])
        + len(caps).to_bytes(2, "big")
        + caps
        + ctx.ul_count.to_bytes(4, "big")
        + ctx.dl_count.to_bytes(4, "big")
    )


def oracle_from_bytes(blob):
    """SecurityContext.from_bytes as it was written field by field: the checks' reference."""
    if len(blob) < KEY_LEN + 1 + 2 + 8:
        raise ValueError("context blob too short")
    k = Key(blob[:KEY_LEN], KeyKind.K_AMF)
    ngksi = blob[KEY_LEN]
    off = KEY_LEN + 1
    clen = int.from_bytes(blob[off : off + 2], "big")
    off += 2
    caps_raw = blob[off : off + clen].decode("ascii")
    caps = tuple(caps_raw.split(",")) if caps_raw else ()
    off += clen
    if len(blob) != off + 8:
        raise ValueError("context blob has trailing bytes")
    ul = int.from_bytes(blob[off : off + 4], "big")
    dl = int.from_bytes(blob[off + 4 : off + 8], "big")
    return SecurityContext(k, ngksi, caps, ul, dl)


def decoded(decode, blob):
    """The context `decode` makes of `blob`, or the type and message of what it raised."""
    try:
        return decode(blob)
    except Exception as err:  # the message becomes a context_unparsable reason
        return type(err), str(err)


def test_the_codec_writes_and_reads_the_reference_bytes_at_the_edges():
    edges = itertools.product((0, 6), (0, COUNT_LIMIT - 1), (0, COUNT_LIMIT - 1), ((), ("EA2",), ("EA2", "IA2")))
    for ngksi, ul, dl, caps in edges:
        ctx = SecurityContext(k_amf_fixed(), ngksi, caps, ul, dl)
        blob = ctx.to_bytes()
        assert blob == oracle_to_bytes(ctx), (ngksi, ul, dl, caps)
        assert SecurityContext.from_bytes(blob).to_bytes() == oracle_to_bytes(oracle_from_bytes(blob)) == blob


def context_blob(key, ngksi, caps, skew, tail):
    """A context's layout with the caps length off by `skew` and any tail for the counts."""
    return key + bytes([ngksi]) + max(0, len(caps) + skew).to_bytes(2, "big") + caps + tail


# Blobs shaped like a context reach every check in from_bytes; plain bytes add the rest.
CONTEXT_BLOBS = st.builds(
    context_blob,
    st.binary(min_size=KEY_LEN, max_size=KEY_LEN),
    st.integers(0, 7) | st.integers(0, 255),
    st.sampled_from([b"", b"EA2", b"EA2,IA2", b",", b"EA2\xe9"]) | st.binary(max_size=10),
    st.sampled_from([0, 0, 0, -1, 1, 9]),
    st.binary(min_size=8, max_size=8) | st.binary(max_size=10),
) | st.binary(max_size=80)


@settings(derandomize=True, database=None, max_examples=300)
@given(blob=CONTEXT_BLOBS)
def test_the_codec_decodes_any_blob_as_the_reference_does(blob):
    ours, theirs = decoded(SecurityContext.from_bytes, blob), decoded(oracle_from_bytes, blob)
    if isinstance(ours, SecurityContext):
        assert ours.to_bytes() == oracle_to_bytes(theirs) == oracle_to_bytes(ours) == blob
    else:
        assert ours == theirs


# --- where the context lives -----------------------------------------------


def stored_by(env, out):
    """Where one round's accept stored the context: the `where` of its `context_stored` events."""
    return [e.fields["where"] for e in env.events.named("context_stored") if out.start_step <= e.step <= out.end_step]


def test_4g_context_lands_on_the_card():
    env, me, card, _ = provisioned()
    bring_up(me, card, "4G")
    assert card.files[EF_EPSLOCI][1] and card.files[EF_EPSNSC][1]
    assert me.baseband is None
    stored = SecurityContext.from_bytes(card.files[EF_EPSNSC][1])
    assert stored.k_amf.kind is KeyKind.K_AMF
    again = me.register("4G")
    assert again.accepted and again.path == "fast" and stored_by(env, again) == ["card"]
    assert not again.aka_ran


def test_a_card_home_handset_writes_its_context_once_per_accept(monkeypatch):
    env, me, card, _ = provisioned()
    writes = []
    store = equipment.store_context_files
    monkeypatch.setattr(equipment, "store_context_files", lambda *args: writes.append(args[2]) or store(*args))
    me.insert_card(card)
    me.power_on()
    outcomes = [me.register("4G")]
    for _ in range(3):
        before = len(writes)
        me.set_airplane(True)  # deregisters: writes nothing
        assert len(writes) == before
        me.set_airplane(False)
        outcomes.append(me.register("4G"))
    assert [(o.accepted, o.path) for o in outcomes] == [(True, "initial")] + [(True, "fast")] * 3
    assert writes == [o.guti.encode("ascii") for o in outcomes]  # one LOCI write per accept


def test_5g_context_lands_in_the_baseband_for_plain_cards():
    env, me, card, _ = provisioned()
    bring_up(me, card, "5G")
    entry = me.baseband
    assert entry is not None
    assert (entry.supi, entry.generation, entry.iccid) == (SUPI, "5G", card.iccid)
    assert EF_5GLOCI not in card.files  # plain card has nowhere to put it
    again = me.register("5G")
    assert again.accepted and again.path == "fast"
    assert stored_by(env, again) == ["baseband"] and not again.aka_ran


def test_5g_capable_card_keeps_its_own_context():
    env, me, card, _ = provisioned(
        profile_override={"usim_5g_context": True}
    )
    bring_up(me, card, "5G")
    assert me.baseband is None
    assert card.files[EF_5GLOCI][1] and card.files[EF_5GNSC][1]
    again = me.register("5G")
    assert again.accepted and again.path == "fast" and stored_by(env, again) == ["card"]


def programmed_copy(env, card, fids):
    """A programmable card carrying `fids` of `card`, keyed with its key so that AKA passes."""
    fake = programmable_card(env.rng, {fid: card.files[fid][1] for fid in fids})
    fake.k_permanent = card.k_permanent
    return fake


def stored_where(env):
    return [(e.fields["where"], e.fields["generation"]) for e in env.events.named("context_stored")]


def test_a_programmable_card_with_5g_files_keeps_the_5g_context():
    env, me, card, _ = provisioned(profile_override={"usim_5g_context": True})
    fake = programmed_copy(env, card, (EF_IMSI, EF_5GLOCI, EF_5GNSC))
    bring_up(me, fake, "5G")
    assert stored_where(env) == [("card", "5G")]
    assert me.baseband is None and fake.files[EF_5GNSC][1]
    again = me.register("5G")
    assert again.accepted and again.path == "fast" and stored_by(env, again) == ["card"]


def test_a_card_without_the_4g_files_leaves_the_4g_context_in_the_baseband():
    env, me, card, _ = provisioned()
    fake = programmed_copy(env, card, (EF_IMSI,))
    bring_up(me, fake, "4G")
    assert stored_where(env) == [("baseband", "4G")]
    assert not env.events.named("context_store_refused")
    again = me.register("4G")
    assert again.accepted and again.path == "fast" and stored_by(env, again) == ["baseband"]


def test_an_empty_home_card_never_falls_through_to_the_baseband():
    env, me, card, _ = provisioned(profile_override={"usim_5g_context": True})
    bring_up(me, card, "5G")
    # A chip entry for this very card, beside a card that holds 5G itself.
    me.baseband = BasebandEntry(SUPI, "guti-chip", make_ctx(), "5G", card.iccid)
    write_file(card, EF_5GNSC, b"")
    out = me.register("5G")
    assert out.path == "initial"


def test_power_off_keeps_baseband_entry_and_clears_live_state():
    env, me, card, _ = provisioned()
    bring_up(me, card, "5G")
    me.register("5G")
    me.power_off()
    assert me.baseband is not None
    assert not me.registered
    me.power_on()
    again = me.register("5G")
    assert again.path == "fast" and stored_by(env, again) == ["baseband"]


# --- deletion triggers -----------------------------------------------------


def deletion_reasons(env):
    return [e.fields["reason"] for e in env.events.named("baseband_context_deleted")]


def test_removal_while_powered_on_deletes_the_entry():
    env, me, card, _ = provisioned()
    bring_up(me, card, "5G")
    me.register("5G")
    me.remove_card()
    assert me.baseband is None
    assert deletion_reasons(env) == ["removed-while-powered-on"]
    assert not me.registered
    assert env.events.named("service_lost")


def test_power_on_with_empty_slot_deletes_the_entry():
    env, me, card, _ = provisioned()
    bring_up(me, card, "5G")
    me.power_off()
    me.remove_card()
    me.power_on()
    assert me.baseband is None
    assert deletion_reasons(env) == ["powered-on-empty-slot"]


def test_different_card_identity_deletes_the_entry():
    env, me, card, _ = provisioned()
    other = standard_card(env.rng, "460119999999999", Key(b"\x09" * KEY_LEN, KeyKind.K_PERMANENT))
    bring_up(me, card, "5G")
    me.set_airplane(True)
    me.remove_card()
    me.insert_card(other)
    me.set_airplane(False)
    assert me.baseband is None
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
    assert me.baseband is not None
    again = me.register("5G")
    assert again.path == "fast" and stored_by(env, again) == ["baseband"]
    assert again.accepted


def test_iccid_binding_rejects_the_same_identity_swap():
    env, me, card, record = provisioned(profile_override={"iccid_binding": True})
    clone = standard_card(env.rng, SUPI, record.k_permanent)
    bring_up(me, card, "5G")
    me.set_airplane(True)
    me.remove_card()
    me.insert_card(clone)
    me.set_airplane(False)
    assert me.baseband is None
    assert deletion_reasons(env) == ["iccid-mismatch"]
    again = me.register("5G")
    assert again.path == "initial"


def test_offline_swap_detection_flags_any_slot_event():
    # Strict variant: even pulling and reseating the original card while
    # off the air invalidates the stored context.
    env, me, card, _ = provisioned(profile_override={"offline_swap_detection": True})
    bring_up(me, card, "5G")
    me.set_airplane(True)
    me.remove_card()
    me.insert_card(card)
    me.set_airplane(False)
    assert me.baseband is None
    assert deletion_reasons(env) == ["offline-slot-event"]


@pytest.mark.parametrize("reason", ["different-card-identity", "iccid-mismatch", "offline-slot-event"])
def test_with_both_extras_on_the_first_matching_rule_names_the_deletion(reason):
    # Identity first, then the ICCID, then any slot event: a different
    # subscriber's card also has another ICCID, and every card here was
    # inserted while powered off.
    env, me, card, record = provisioned(profile_override={"iccid_binding": True, "offline_swap_detection": True})
    swap_in = {
        "different-card-identity": lambda: standard_card(env.rng, "460119999999999", Key(b"\x09" * KEY_LEN, KeyKind.K_PERMANENT)),
        "iccid-mismatch": lambda: standard_card(env.rng, SUPI, record.k_permanent),
        "offline-slot-event": lambda: card,
    }[reason]()
    bring_up(me, card, "5G")
    me.power_off()
    me.remove_card()
    me.insert_card(swap_in)
    me.power_on()
    assert me.baseband is None
    assert deletion_reasons(env) == [reason]


def test_powered_off_swap_also_survives_without_extras():
    env, me, card, record = provisioned()
    clone = standard_card(env.rng, SUPI, record.k_permanent)
    bring_up(me, card, "5G")
    me.power_off()
    me.remove_card()
    me.insert_card(clone)
    me.power_on()
    assert me.baseband is not None


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


def test_an_unknown_generation_is_refused_before_anything_happens():
    env, me, card, _ = provisioned()
    bring_up(me, card, "5G")
    name, n = me.register("5G").flow.split("#")
    events, step = len(env.events.entries), env.channel.step
    with pytest.raises(UnknownGeneration, match="'3G'"):
        me.register("3G")
    assert (len(env.events.entries), env.channel.step) == (events, step)
    # No flow number was used: the next request takes the one after the last.
    assert me.register("5G").flow == "%s#%d" % (name, int(n) + 1)


def test_register_requires_verified_pin():
    env, me, card, _ = provisioned(
        profile_override={"nondefault_pin": True},
        me_kwargs={"user_pin": "9999"},  # wrong guess, auto-verify fails
    )
    me.insert_card(card)
    me.power_on()
    with pytest.raises(PinRequired):
        me.register("5G")


def test_a_handset_without_a_user_pin_never_tries_the_cards_pin():
    env, me, card, _ = provisioned(profile_override={"nondefault_pin": True})
    assert card.pin.enabled and me.user_pin is None
    retries = card.pin.retries_left
    me.insert_card(card)
    me.power_on()
    assert card.pin.retries_left == retries
    with pytest.raises(PinRequired):
        me.register("5G")


def test_correct_user_pin_is_verified_on_power_on():
    env, me, card, _ = provisioned(
        profile_override={"nondefault_pin": True},
        me_kwargs={"user_pin": NONDEFAULT_PIN},
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
    with pytest.raises(PowerStateError):
        me.set_airplane(True)  # airplane mode toggles from powered-on only
    assert me.power is PowerState.POWERED_OFF
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
    with held_back(env.channel, me.name, me.handle, RegistrationAccept) as held:
        out = me.register("5G")
    assert not out.accepted
    env.channel.send(stale.src, stale.dst, stale.bs, out.flow, stale.msg)
    env.channel.pump()
    assert not out.accepted
    [discarded] = env.events.named("dl_replay_discarded")
    assert discarded.fields == {"count": "2"}  # event values are strings
    # The genuine accept still lands afterwards.
    (genuine,) = held
    assert genuine.flow == out.flow and genuine.msg is not stale.msg
    env.channel.send(genuine.src, genuine.dst, genuine.bs, genuine.flow, genuine.msg)
    env.channel.pump()
    assert out.accepted


@contextmanager
def amf_answering(env, msg):
    """Stand in for the AMF: answer each uplink frame on its flow with `msg`."""
    channel, amf = env.channel, env.amf
    channel.register(amf.name, lambda e: channel.send(amf.name, e.src, e.bs, e.flow, msg))
    try:
        yield
    finally:
        channel.register(amf.name, amf.handle)


def strays(env):
    return [e.fields["mtype"] for e in env.events.named("stray_message")]


def test_a_security_mode_command_answering_a_fast_request_is_a_stray():
    env, me, card, _ = provisioned()
    bring_up(me, card, "5G")
    with amf_answering(env, SecurityModeCommand(SEC_CAPS, 0)):
        out = me.register("5G")
    assert out.path == "fast" and not out.accepted and not me.registered
    assert strays(env) == ["security-mode-command"]


def test_an_accept_before_any_context_is_a_stray():
    env, me, card, _ = provisioned()
    me.insert_card(card)
    me.power_on()
    with amf_answering(env, RegistrationAccept(b"\x00" * 32)):
        out = me.register("5G")
    assert out.path == "initial" and not out.accepted and not me.registered
    assert strays(env) == ["registration-accept"]


def test_an_accept_ciphered_under_another_key_is_undecryptable():
    env, me, card, _ = provisioned()
    bring_up(me, card, "5G")
    k_enc, _ = crypto.nas_keys(k_amf_fixed())
    forged = crypto.senc(encode_accept_payload("guti-forged", 99), k_enc)
    with amf_answering(env, RegistrationAccept(forged)):
        out = me.register("5G")
    assert out.path == "fast" and not out.accepted and not me.registered
    assert env.events.entries[-1].name == "accept_undecryptable"
    assert not strays(env)


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
        me.baseband.context.ul_count = COUNT_LIMIT - 1
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
    assert unparsable_reasons(env) == ["context-blob-too-short"]
    assert env.events.named("context_unparsable")[0].fields["where"] == "card"


@pytest.mark.parametrize("emptied", [EF_EPSLOCI, EF_EPSNSC], ids=("no-loci", "no-nsc"))
def test_a_card_context_missing_either_file_is_no_context(emptied):
    env, me, card, _ = provisioned()
    bring_up(me, card, "4G")
    write_file(card, emptied, b"")
    out = me.register("4G")
    assert out.accepted and out.path == "initial" and out.aka_ran
    assert unparsable_reasons(env) == []


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
    assert out.accepted and out.path == "initial"


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


# --- the chip's identity rule runs once, on entering powered-on -------------

# No toggle, each toggle alone at its non-default value, and ALL_PROTECTIVE.
TOGGLE_SETS = [{}, *({t: t != "fast_registration"} for t in TOGGLES), ALL_PROTECTIVE]


def test_every_scenario_registers_only_with_the_slot_cards_entry(monkeypatch):
    # _select_context trusts the baseband entry, because every change of
    # slot card passes _enter_powered_on before register() can run.  The
    # scripted rows, not the walk below: its `seed` op writes the entry.
    register, persist = MobileEquipment.register, MobileEquipment._persist_context
    met = []

    def checked_register(me, generation="5G"):
        entry, card = me.baseband, me.slot
        if me.power is PowerState.POWERED_ON and entry is not None and card is not None:
            assert entry.supi == card.supi
            assert entry.iccid == card.iccid or not me.env.profile.iccid_binding
            met.append(entry)
        return register(me, generation)

    def checked_persist(me):
        assert me.slot is not None
        persist(me)

    monkeypatch.setattr(MobileEquipment, "register", checked_register)
    monkeypatch.setattr(MobileEquipment, "_persist_context", checked_persist)
    stores = ("context_stored", "context_store_refused")
    for attack, rows in SCENARIOS.items():
        for variant, profile, cm in itertools.product(rows, PROFILE_ORDER, TOGGLE_SETS):
            report = run_scenario(attack, profile, 0, cm, variant)
            # One write point: a handset's next event after each accept is
            # its store, and no other event (a deregistration's) is followed by one.
            names: dict[str, list[str]] = {}
            for e in report.env.events.entries:
                names.setdefault(e.entity, []).append(e.name)
            for entity, seq in names.items():
                for before, after in zip(seq, [*seq[1:], None]):
                    assert (before == "ue_registered") == (after in stores), (attack, variant, profile, cm, entity)
    assert met  # not vacuous: registrations met an entry in place


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
        cm = {"iccid_binding": binding, "offline_swap_detection": detect}
        env = SimEnv(get_profile("OP-I").with_toggles(cm), 1009)
        for _ in range(300):
            me = env.add_me("walk")
            state = ("OFF", None, False, False)
            for _ in range(rng.randrange(6, 15)):
                op = rng.choice(legal_ops(state))
                if op == "seed":
                    me.baseband = seed_entry()
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
                assert (me.baseband is not None) == entry, (binding, detect, op)
                assert me.power.value == {
                    "ON": "PoweredOn", "AIR": "Airplane", "OFF": "PoweredOff"
                }[power]
                assert (me.slot is None) == (slot is None)
                assert me.slot_event_pending == pending
