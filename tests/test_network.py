"""Core-network tests: check order, aliasing, purge, replay, services."""

from __future__ import annotations

from dataclasses import replace

import pytest

from fastreg import crypto
from fastreg.channel import (
    AuthRequest,
    AuthResponse,
    Deregistration,
    IdentityRequest,
    RegistrationAccept,
    RegistrationReject,
    RegistrationRequestFast,
    RegistrationRequestInitial,
    SecurityModeCommand,
    SecurityModeComplete,
    encode_ies,
)
from fastreg.crypto import KEY_LEN, Key, KeyKind
from fastreg.equipment import COUNT_LIMIT
from fastreg.network import NotRegistered, UnknownSubscriber
from fastreg.profiles import get_profile
from fastreg.sim import SimEnv
from fastreg.usim import standard_card

SUPI = "460110123456789"


def fast_ready(seed=77, profile_override=None):
    """Environment with one subscriber holding a stored 5G context."""
    prof = get_profile("OP-I")
    if profile_override:
        prof = replace(prof, **profile_override)
    env = SimEnv(prof, seed)
    record, card = env.provision_subscriber(SUPI)
    me = env.add_me("ue")
    me.insert_card(card)
    me.power_on()
    first = me.register("5G")
    assert first.accepted
    me.set_airplane(True)
    me.set_airplane(False)
    return env, me, card, record


class Probe:
    """Bare radio endpoint for hand-crafted uplink frames."""

    def __init__(self, env, name="probe", bs="BS-X"):
        self.env = env
        self.name = name
        self.bs = bs
        self.inbox = []
        env.channel.register(name, self.inbox.append)
        self._n = 0

    def send(self, msg):
        flow = "%s#%d" % (self.name, self._n)
        self._n += 1
        self.env.channel.send(self.name, "amf", self.bs, flow, msg)
        self.env.pump()
        return flow

    def last_types(self):
        return [type(e.msg).__name__ for e in self.inbox]


def table_key(env):
    (key,) = [k for k, e in env.amf.table.items() if e.supi == SUPI][:1] or [None]
    return key


def fallback_reasons(env):
    return [e.fields["reason"] for e in env.events.named("fast_fallback")]


# --- happy paths -----------------------------------------------------------


def test_initial_registration_runs_aka_and_installs_context():
    env = SimEnv(get_profile("OP-I"), 77)
    record, card = env.provision_subscriber(SUPI)
    me = env.add_me("ue")
    me.insert_card(card)
    me.power_on()
    assert me.register("5G").accepted
    assert [e.fields.get("via") for e in env.events.named("registration_accept")] == ["aka"]
    assert env.events.named("aka_started") and env.events.named("aka_established")
    session = env.amf.sessions[SUPI]
    assert (session.state, session.via) == ("Registered", "aka")
    rows = [k for k, e in env.amf.table.items() if e.supi == SUPI]
    assert len(rows) == 1


def test_fast_path_skips_aka_and_verifies():
    env, me, card, _ = fast_ready()
    before = len(env.events.named("aka_started"))
    out = me.register("5G")
    assert out.accepted and out.path == "fast" and not out.aka_ran
    assert len(env.events.named("aka_started")) == before
    assert env.events.named("amf_verify")
    assert env.amf.sessions[SUPI].via == "fast"


def test_fast_accept_aliases_new_guti_onto_the_same_entry():
    env, me, card, _ = fast_ready()
    (old_key,) = [k for k, e in env.amf.table.items() if e.supi == SUPI]
    me.register("5G")
    rows = {k: e for k, e in env.amf.table.items() if e.supi == SUPI}
    assert len(rows) == 2
    assert old_key in rows  # the old alias is still live
    entries = list(rows.values())
    assert entries[0] is entries[1]  # one shared context object
    me.register("5G")
    rows = [k for k, e in env.amf.table.items() if e.supi == SUPI]
    assert len(rows) == 3


def test_new_aka_purges_every_alias():
    env, me, card, _ = fast_ready()
    me.register("5G")
    me.register("5G")
    old_rows = [k for k, e in env.amf.table.items() if e.supi == SUPI]
    assert len(old_rows) == 3
    # Removal while powered on drops the chip-held context, so the next
    # registration is an initial one with a full AKA.
    me.insert_card(me.remove_card())
    out = me.register("5G")
    assert out.accepted and out.path == "initial" and out.aka_ran
    rows = [k for k, e in env.amf.table.items() if e.supi == SUPI]
    assert len(rows) == 1
    assert not (set(old_rows) & set(rows))


def test_guti_allocations_never_repeat():
    env, me, card, _ = fast_ready()
    for _ in range(6):
        me.register("5G")
    gutis = [k[0] for k, e in env.amf.table.items() if e.supi == SUPI]
    assert len(gutis) == len(set(gutis))


def test_ngksi_allocation_cycles_through_seven_values():
    # With the fast path off, every registration runs a new AKA.
    env, me, card, _ = fast_ready(profile_override={"fast_registration_enabled": False})
    seen = []
    for _ in range(8):
        out = me.register("5G")
        assert out.accepted and out.aka_ran
        ((_, ngksi),) = [k for k, e in env.amf.table.items() if e.supi == SUPI]
        seen.append(ngksi)
    assert seen == [1, 2, 3, 4, 5, 6, 0, 1]  # slot 0 went to the initial AKA


# --- fallback reasons, one by one ------------------------------------------


def test_unknown_guti_falls_back_through_identity_request():
    env, me, card, _ = fast_ready()
    probe = Probe(env)
    probe.send(RegistrationRequestFast("guti-bogus", 0, 1, b"\x00" * 16, b"\x00" * 8))
    assert fallback_reasons(env)[-1] == "lookup"
    # No table hit means the network cannot even start an AKA yet.
    assert probe.last_types() == ["IdentityRequest"]


def test_bad_mac_falls_back_to_aka_challenge():
    env, me, card, _ = fast_ready()
    (guti, ngksi) = table_key(env)
    probe = Probe(env)
    probe.send(RegistrationRequestFast(guti, ngksi, 5, b"\x00" * 16, b"\x00" * 8))
    assert fallback_reasons(env)[-1] == "mac"
    # Table hit reveals the subscriber, so the challenge goes straight out.
    assert probe.last_types() == ["AuthRequest"]


def test_container_cleartext_mismatch_is_rejected():
    env, me, card, _ = fast_ready()
    (guti, ngksi) = table_key(env)
    ctx = env.amf.table[(guti, ngksi)].context
    k_enc, k_int = crypto.nas_keys(ctx.k_amf)
    ies = encode_ies(guti, ngksi, ctx.ul_count + 1)
    # Valid MAC over a container whose plaintext disagrees with the IEs.
    other = crypto.senc(encode_ies(guti, ngksi, ctx.ul_count + 9), k_enc)
    probe = Probe(env)
    probe.send(
        RegistrationRequestFast(
            guti, ngksi, ctx.ul_count + 1, other, crypto.mac_compute(ies, other, k_int)
        )
    )
    assert fallback_reasons(env)[-1] == "container"
    # Same verdict when the container does not even decrypt.
    junk = b"\xff" * 24
    probe.send(
        RegistrationRequestFast(
            guti, ngksi, ctx.ul_count + 1, junk, crypto.mac_compute(ies, junk, k_int)
        )
    )
    assert fallback_reasons(env)[-1] == "container"


def test_stale_count_is_rejected():
    env, me, card, _ = fast_ready()
    out = me.register("5G")
    assert out.accepted
    (guti, ngksi) = [k for k, e in env.amf.table.items() if e.supi == SUPI][0]
    ctx = [e for e in env.amf.table.values() if e.supi == SUPI][0].context
    k_enc, k_int = crypto.nas_keys(ctx.k_amf)
    probe = Probe(env)
    for count in (ctx.ul_count, ctx.ul_count - 1):
        ies = encode_ies(guti, ngksi, count)
        container = crypto.senc(ies, k_enc)
        probe.send(
            RegistrationRequestFast(
                guti, ngksi, count, container, crypto.mac_compute(ies, container, k_int)
            )
        )
        assert fallback_reasons(env)[-1] == "count"
    assert probe.last_types() == ["AuthRequest", "AuthRequest"]


def test_uplink_count_beyond_32_bits_fails_the_count_check():
    env, me, card, _ = fast_ready()
    (guti, ngksi) = table_key(env)
    probe = Probe(env)
    for count in (COUNT_LIMIT, -1):
        probe.send(RegistrationRequestFast(guti, ngksi, count, b"\x00" * 16, b"\x00" * 8))
        assert fallback_reasons(env)[-1] == "count"
    assert probe.last_types() == ["AuthRequest", "AuthRequest"]


def test_exhausted_downlink_count_forces_a_fresh_aka():
    env, me, card, _ = fast_ready()
    for entry in env.amf.table.values():
        entry.context.dl_count = COUNT_LIMIT - 1
    # The next accept would need a downlink count of 2^32: re-key instead.
    out = me.register("5G")
    assert out.accepted and out.aka_ran
    assert fallback_reasons(env)[-1] == "count"


def test_policy_switch_disables_the_fast_path_entirely():
    env, me, card, _ = fast_ready(profile_override={"fast_registration_enabled": False})
    out = me.register("5G")
    # The handset still tries its stored context; the network makes it
    # prove itself from the permanent key instead.
    assert out.path == "fast" and out.aka_ran and out.accepted
    assert "disabled" in fallback_reasons(env)


def test_periodic_aka_deadline_forces_reauthentication():
    env, me, card, _ = fast_ready(profile_override={"periodic_aka_interval": 8})
    out = me.register("5G")
    assert out.accepted and not out.aka_ran  # inside the window
    env.channel.tick(9)
    out = me.register("5G")
    assert out.accepted and out.aka_ran
    assert fallback_reasons(env)[-1] == "periodic"


def test_replayed_capture_dies_on_the_count_check():
    env, me, card, _ = fast_ready()
    out = me.register("5G")
    assert out.accepted
    captured = [
        t
        for t in env.monitor.entries
        if isinstance(t.msg, RegistrationRequestFast)
    ][-1]
    sessions_before = dict(env.amf.sessions)
    env.channel.inject(captured)
    env.pump()
    assert fallback_reasons(env)[-1] == "count"
    # The fallback challenge lands on the idle victim and is ignored.
    assert env.events.named("stray_message")
    assert env.amf.sessions == sessions_before
    assert len(env.events.named("amf_verify")) == 1  # no second verify


# --- identity handling -----------------------------------------------------


def test_concealed_identities_resolve_and_hide_the_supi():
    env, me, card, _ = fast_ready(profile_override={"supi_concealment": True})
    assert me.register("5G").accepted
    assert env.amf.sessions[SUPI].state == "Registered"
    initial = [
        t
        for t in env.monitor.entries
        if isinstance(t.msg, RegistrationRequestInitial)
    ]
    assert initial and all(
        t.msg.identity.startswith("suci-") for t in initial
    )
    assert all(SUPI not in line for line in env.trace_lines())


def test_unknown_identity_is_rejected():
    env = SimEnv(get_profile("OP-I"), 5)
    stranger = standard_card(
        env.rng, "460110000000077", Key(b"\x04" * KEY_LEN, KeyKind.K_PERMANENT)
    )
    me = env.add_me("ue")
    me.insert_card(stranger)
    me.power_on()
    out = me.register("5G")
    assert not out.accepted and out.reject_cause == "unknown-subscriber"
    assert env.events.named("unknown_identity")


def test_resolve_identity_raises_for_garbage():
    env = SimEnv(get_profile("OP-I"), 6)
    with pytest.raises(UnknownSubscriber):
        env.amf.resolve_identity("nobody-here")


# --- AKA failure paths -----------------------------------------------------


def test_wrong_res_gets_authentication_failure():
    env, me, card, record = fast_ready()
    probe = Probe(env)
    probe.send(RegistrationRequestInitial(SUPI, ("EA2", "IA2")))
    assert probe.last_types() == ["AuthRequest"]
    probe.env.channel.send(
        probe.name, "amf", probe.bs, "probe#0", AuthResponse(b"\x00" * 8)
    )
    env.pump()
    rejects = [e for e in probe.inbox if isinstance(e.msg, RegistrationReject)]
    assert rejects and rejects[-1].msg.cause == "authentication-failure"
    assert env.events.named("aka_reject")


def test_bad_security_mode_mac_gets_rejected():
    env, me, card, record = fast_ready()
    probe = Probe(env)
    flow = probe.send(RegistrationRequestInitial(SUPI, ("EA2", "IA2")))
    challenge = probe.inbox[-1].msg
    res = card.run_aka(challenge.rand, challenge.autn).res
    env.channel.send(probe.name, "amf", probe.bs, flow, AuthResponse(res))
    env.pump()
    assert isinstance(probe.inbox[-1].msg, SecurityModeCommand)
    env.channel.send(
        probe.name, "amf", probe.bs, flow, SecurityModeComplete(b"\x00" * 8)
    )
    env.pump()
    assert isinstance(probe.inbox[-1].msg, RegistrationReject)
    assert probe.inbox[-1].msg.cause == "security-mode-failure"
    assert env.events.named("smc_failure")


def test_pending_aka_is_bound_to_its_sender():
    env = SimEnv(get_profile("OP-I"), 77)
    _, card = env.provision_subscriber(SUPI)
    me = env.add_me("ue")
    me.insert_card(card)
    me.power_on()
    # Hold the victim's answer back so its AKA stays pending.
    env.channel.drop_filter = lambda e: isinstance(e.msg, AuthResponse)
    out = me.register("5G")
    assert out.aka_ran and not out.accepted
    env.channel.drop_filter = None
    intruder = Probe(env, name="intruder")
    env.channel.send(intruder.name, "amf", intruder.bs, out.flow, AuthResponse(b""))
    env.pump()
    # Another sender on the victim's flow is a stray: it cannot abort the AKA.
    assert env.events.named("stray_message")[-1].fields == {"mtype": "authentication-response"}
    assert not env.events.named("aka_reject")
    assert intruder.inbox == []
    # Replaying the victim's own answer, sender and all, still completes it.
    (held,) = [t for t in env.monitor.entries if isinstance(t.msg, AuthResponse) and t.src == "ue"]
    env.channel.inject(held)
    env.pump()
    assert out.accepted
    assert env.amf.sessions[SUPI].state == "Registered"


def test_replayed_fast_requests_leave_one_pending_aka():
    env, me, card, _ = fast_ready()
    challenges = []
    for _ in range(50):
        assert me.register("5G").accepted
        captured = [t for t in env.monitor.entries if isinstance(t.msg, RegistrationRequestFast)][-1]
        env.channel.inject(captured)
        env.pump()
        challenges.append(env.monitor.entries[-1])
        me.set_airplane(True)
        me.set_airplane(False)
    assert fallback_reasons(env).count("count") == 50
    # Each challenge replaced the one before: one pending AKA, the newest.
    assert list(env.amf.pending) == [("ue", challenges[-1].flow)]
    # A late answer to the oldest challenge is a stray, not an AKA step.
    first = challenges[0]
    res = card.run_aka(first.msg.rand, first.msg.autn).res
    env.channel.send("ue", "amf", me.bs, first.flow, AuthResponse(res))
    env.pump()
    assert env.events.named("stray_message")[-1].fields == {"mtype": "authentication-response"}
    assert env.amf.sessions[SUPI].via == "fast"


def test_run_aka_network_refuses_a_wrong_key_card():
    env = SimEnv(get_profile("OP-I"), 9)
    record, card = env.provision_subscriber(SUPI)
    imposter = env.add_me("imp")
    imposter.insert_card(
        standard_card(env.rng, SUPI, Key(b"\x0c" * KEY_LEN, KeyKind.K_PERMANENT))
    )
    imposter.power_on()
    out = imposter.register("5G")
    assert out.aka_ran and not out.accepted
    assert out.reject_cause == "authentication-failure"
    assert [e.fields["supi"] for e in env.events.named("aka_reject")] == [SUPI]
    assert not env.amf.table
    holder = env.add_me("holder")
    holder.insert_card(card)
    holder.power_on()
    out = holder.register("5G")
    assert out.accepted and out.guti in {k[0] for k in env.amf.table}


# --- session services ------------------------------------------------------


def test_deregistration_keeps_table_rows_but_ends_the_session():
    env, me, card, _ = fast_ready()
    me.register("5G")
    rows_before = [k for k, e in env.amf.table.items() if e.supi == SUPI]
    me.deregister()
    assert env.amf.sessions[SUPI].state == "Deregistered"
    rows_after = [k for k, e in env.amf.table.items() if e.supi == SUPI]
    assert rows_after == rows_before  # contexts survive for the next fast pass
    with pytest.raises(NotRegistered):
        env.amf.locate(SUPI)
    with pytest.raises(NotRegistered):
        env.amf.one_tap_token(env.amf.sessions[SUPI])


def test_one_tap_token_and_locate_follow_the_session():
    env, me, card, _ = fast_ready()
    me.register("5G")
    token = env.amf.one_tap_token(env.amf.sessions[SUPI])
    assert token.supi == SUPI and len(token.nonce) == 8
    assert env.amf.locate(SUPI) == "BS-A"


def test_deregistration_with_unknown_guti_is_a_stray():
    env, me, card, _ = fast_ready()
    probe = Probe(env)
    before = len(env.events.named("stray_message"))
    probe.send(Deregistration("guti-nothing"))
    assert len(env.events.named("stray_message")) == before + 1


def test_unhandled_uplink_is_a_stray_named_by_its_wire_name():
    env, me, card, _ = fast_ready()
    Probe(env).send(AuthRequest(b"\x01" * 16, b"\x02" * 16))
    assert env.events.named("stray_message")[-1].fields == {"mtype": "authentication-request"}


def test_accept_frames_expose_no_fields_on_the_air():
    env, me, card, _ = fast_ready()
    me.register("5G")
    accept_lines = [
        t.line()
        for t in env.monitor.entries
        if isinstance(t.msg, RegistrationAccept)
    ]
    assert accept_lines
    for line in accept_lines:
        assert "=" not in line.split("registration-accept", 1)[1]


# --- fast-path cost: counted, not timed ------------------------------------


def fast_round(me, generation="5G"):
    me.set_airplane(True)
    me.set_airplane(False)
    out = me.register(generation)
    assert out.accepted and out.path == "fast" and not out.aka_ran


# OP-I cards hold no 5G context, so it stays in baseband memory; a 4G
# context is re-read from the card files, a new object every round.
@pytest.mark.parametrize(("generation", "per_round"), [("5G", 0), ("4G", 1)])
def test_nas_keys_are_derived_once_per_context(monkeypatch, generation, per_round):
    env = SimEnv(get_profile("OP-I"), 77)
    _, card = env.provision_subscriber(SUPI)
    me = env.add_me("ue")
    me.insert_card(card)
    me.power_on()
    assert me.register(generation).accepted
    calls = []
    derive = crypto.nas_keys
    monkeypatch.setattr(crypto, "nas_keys", lambda k: calls.append(k) or derive(k))
    for _ in range(200):
        before = len(calls)
        fast_round(me, generation)
        assert len(calls) - before == per_round


class NoScanTable(dict):
    """A context table that fails any walk over its rows."""

    def _scan(self, *args):
        raise AssertionError("context table scanned")

    items = keys = values = __iter__ = _scan


def test_deregistration_never_scans_the_context_table():
    env, me, card, _ = fast_ready()
    env.amf.table = NoScanTable(env.amf.table)
    before = len(env.events.named("deregistered"))
    for _ in range(200):
        fast_round(me)
    me.deregister()
    # fast_ready leaves the handset idle, so the first round has nothing to end.
    assert len(env.events.named("deregistered")) == before + 200
    assert env.amf.sessions[SUPI].state == "Deregistered"
    assert len(env.amf.table) == 201


def test_older_alias_guti_deregisters_the_right_subscriber():
    env = SimEnv(get_profile("OP-I"), 77)
    other = "460110987654321"
    _, card = env.provision_subscriber(SUPI)
    _, other_card = env.provision_subscriber(other)
    bystander = env.add_me("bystander")
    bystander.insert_card(other_card)
    bystander.power_on()
    assert bystander.register("5G").accepted
    me = env.add_me("ue")
    me.insert_card(card)
    me.power_on()
    purged = me.register("5G").guti
    # A second AKA puts this subscriber's rows under ngKSI 1, so the
    # lookup has to probe past ngKSI 0.
    me.insert_card(me.remove_card())
    gutis = [me.register("5G").guti]
    for _ in range(3):
        fast_round(me)
        gutis.append(me.current_guti)
    assert {k[1] for k, e in env.amf.table.items() if e.supi == SUPI} == {1}
    probe = Probe(env)
    probe.send(Deregistration(gutis[1]))
    assert env.events.named("deregistered")[-1].fields == {"supi": SUPI}
    assert env.amf.sessions[SUPI].state == "Deregistered"
    assert env.amf.sessions[other].state == "Registered"
    strays = len(env.events.named("stray_message"))
    probe.send(Deregistration(purged))
    assert len(env.events.named("stray_message")) == strays + 1
