"""Scenario harness tests: both impersonations, variants, countermeasures."""

from __future__ import annotations

import itertools
import re

import pytest

from fastreg import attacks
from fastreg.attacks import (
    ATTACKER_BS,
    PROFILE_ORDER,
    SCENARIOS,
    VICTIM_BS,
    VICTIM_SUPI,
    AccessDenied,
    AttackReport,
    PrerequisiteFailed,
    UnknownScenario,
    build_environment,
    card_reader_extract,
    fast_agreement_pairs,
    matrix_lines,
    run_scenario,
    run_table_matrix,
)
from fastreg.profiles import (
    ALL_PROTECTIVE,
    BUILTIN_PROFILES,
    TOGGLES,
    Countermeasures,
    countermeasures_from_pairs,
    effective_profile,
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


# --- base scenarios --------------------------------------------------------


def test_s1_succeeds_where_cards_are_not_hardened():
    for profile in ("OP-I", "OP-III"):
        report = run_scenario("S1", profile, seed=3)
        assert report.succeeded, report.evidence
        assert report.evidence["accepted_without_aka"] == "true"
        assert report.evidence["agreement_violated"] == "true"
        assert report.evidence["victim_quiet_in_window"] == "true"
        assert report.evidence["token_supi"] == VICTIM_SUPI
        assert report.evidence["network_location"] == ATTACKER_BS
        assert report.evidence["extraction"].startswith("ok:")


def test_s1_blocked_by_hardened_card_files():
    report = run_scenario("S1", "OP-II", seed=3)
    assert not report.succeeded
    assert report.evidence["extraction"].startswith("denied: read 6FE4")
    # The victim keeps the card; nothing about the attempt bricked it.
    assert report.env.mes["victim-me"].slot is not None


def test_s2_succeeds_on_every_builtin_profile():
    for profile in ("OP-I", "OP-II", "OP-III"):
        report = run_scenario("S2", profile, seed=4)
        assert report.succeeded, (profile, report.evidence)
        assert report.evidence["baseband_entry_after_swap"] == "true"
        assert report.evidence["accepted_without_aka"] == "true"


def test_agreement_violation_names_only_attacker_handsets():
    report = run_scenario("S2", "OP-I", seed=5)
    assert report.succeeded
    emitters = report.evidence["ue_init_emitters"].split(",")
    victim_names = report.env.custody_of("victim")
    assert emitters and not set(emitters) & set(victim_names)


def test_victim_is_silent_inside_the_attack_window():
    report = run_scenario("S2", "OP-I", seed=6)
    assert report.succeeded
    lo, hi = report.window
    victim_names = set(report.env.custody_of("victim"))
    assert not [
        t
        for t in report.env.monitor.entries
        if t.src in victim_names and lo <= t.step <= hi
    ]


def test_honest_traffic_pairs_every_verify_with_the_victim():
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
    assert len(pairs) >= 3  # the claim is not vacuous
    for verify, inits in pairs:
        assert len(inits) == 1
        assert inits[0].entity == "victim-me"


# --- countermeasures, one toggle at a time ---------------------------------


def test_card_hardening_alone_stops_s1():
    report = run_scenario("S1", "OP-I", seed=7, cm=Countermeasures(usim_hardening=True))
    assert not report.succeeded
    assert report.evidence["extraction"].startswith("denied:")


def test_nondefault_pin_alone_stops_s1():
    report = run_scenario("S1", "OP-I", seed=7, cm=Countermeasures(nondefault_pin=True))
    assert not report.succeeded
    assert report.evidence["extraction"].startswith("denied: PIN gate")
    card = report.env.cards["victim"]
    assert card.pin.retries_left == 2  # one burned guess, card still usable
    assert not card.pin.locked


def test_card_reader_tries_only_the_public_default_pin_once():
    env = build_environment("OP-I", seed=7, cm=Countermeasures(nondefault_pin=True))
    pin = env.cards["victim"].pin
    with pytest.raises(AccessDenied, match="^PIN gate: SECURITY_NOT_SATISFIED$"):
        card_reader_extract(env.cards["victim"])
    assert pin.retries_left == pin.retry_limit - 1


def test_disabling_fast_registration_stops_both():
    cm = Countermeasures(fast_registration=False)
    s1 = run_scenario("S1", "OP-I", seed=8, cm=cm)
    s2 = run_scenario("S2", "OP-I", seed=8, cm=cm)
    for report in (s1, s2):
        assert not report.succeeded
        assert report.evidence["accepted_without_aka"] == "false"
        assert report.evidence["attacker_registration"].startswith("reject:")
    reasons = [e.fields["reason"] for e in s1.env.events.named("fast_fallback")]
    assert "disabled" in reasons


def test_iccid_binding_stops_the_card_swap():
    report = run_scenario("S2", "OP-I", seed=9, cm=Countermeasures(iccid_binding=True))
    assert not report.succeeded
    assert report.evidence["baseband_entry_after_swap"] == "false"
    assert report.evidence["attacker_registration"].startswith(
        "reject:authentication-failure"
    )


def test_card_resident_5g_context_stops_the_swap():
    report = run_scenario("S2", "OP-I", seed=9, cm=Countermeasures(usim_5g_context=True))
    assert not report.succeeded
    # Context rode along on the removed card, so the handset holds nothing.
    assert report.evidence["baseband_entry_after_swap"] == "false"


def test_offline_swap_detection_stops_the_swap():
    report = run_scenario("S2", "OP-I", seed=9, cm=Countermeasures(offline_swap_detection=True))
    assert not report.succeeded
    assert report.evidence["baseband_entry_after_swap"] == "false"


def test_identity_concealment_starves_the_fake_card_builder():
    report = run_scenario("S2", "OP-I", seed=9, cm=Countermeasures(supi_concealment=True))
    assert not report.succeeded
    assert report.evidence["identity"].startswith("never seen in clear")


def test_periodic_aka_bounds_the_stolen_context_lifetime():
    cm = Countermeasures(periodic_aka=True)
    report = run_scenario("S2", "OP-I", seed=10, cm=cm)
    assert report.succeeded  # inside the window the theft still works
    env = report.env
    env.channel.tick(25)
    retry = env.mes["shared-me"].register("5G")
    assert not retry.accepted and retry.aka_ran
    reasons = [e.fields["reason"] for e in env.events.named("fast_fallback")]
    assert reasons[-1] == "periodic"


def test_protective_set_defeats_every_scenario():
    cm = ALL_PROTECTIVE
    for profile in ("OP-I", "OP-II", "OP-III"):
        s1 = run_scenario("S1", profile, seed=11, cm=cm)
        s2 = run_scenario("S2", profile, seed=11, cm=cm)
        assert not s1.succeeded and not s2.succeeded


def test_effective_profile_equals_apply_for_every_toggle_set():
    for values in itertools.product((None, True, False), repeat=len(TOGGLES)):
        cm = Countermeasures(*values)
        for profile in BUILTIN_PROFILES.values():
            assert effective_profile(profile, cm) == cm.apply(profile)
    assert effective_profile(BUILTIN_PROFILES["OP-II"], None) is BUILTIN_PROFILES["OP-II"]


IMPERSONATION_KEYS = ("accepted_without_aka", "agreement_violated", "victim_quiet_in_window")


def test_no_single_protective_toggle_turns_a_failure_into_a_success():
    # Protective means on, except for fast registration, which protects off.
    toggles = TOGGLES
    protective = [("on", "off") if t != "fast_registration" else ("off", "on") for t in toggles]
    sets = list(itertools.product((True, False), repeat=len(toggles)))
    violations = []
    for profile in PROFILE_ORDER:
        for attack in ("S1", "S2"):
            won = {}
            for guarded in sets:
                pairs = {t: p[0] if g else p[1] for t, p, g in zip(toggles, protective, guarded)}
                report = run_scenario(attack, profile, 24, countermeasures_from_pairs(pairs))
                # The verdict is exactly the three impersonation keys, on every toggle set.
                keys = all(report.evidence.get(k) == "true" for k in IMPERSONATION_KEYS)
                assert report.succeeded == keys, (profile, attack, guarded)
                if report.succeeded:
                    # The matrix's effect columns read these two keys.
                    assert report.evidence["token_supi"] == VICTIM_SUPI, (profile, attack, guarded)
                    assert report.evidence["network_location"] == ATTACKER_BS, (profile, attack, guarded)
                won[guarded] = report.succeeded
            assert any(won.values()) and not all(won.values())  # not vacuous
            for guarded, i in itertools.product(sets, range(len(toggles))):
                stricter = guarded[:i] + (True,) + guarded[i + 1 :]
                if not won[guarded] and won[stricter]:
                    violations.append((profile, attack, guarded, toggles[i]))
    assert not violations


def test_impersonation_from_the_victims_own_cell_is_not_a_location_spoof(monkeypatch):
    def same_cell(profile_name, seed, cm=None):
        # ICCID binding stops S2, whose hand-over moves the shared handset
        # to the attacker's cell, so the matrix reads the S1 report.
        env = build_environment(profile_name, seed, Countermeasures(iccid_binding=True))
        env.mes["attacker-me"].bs = VICTIM_BS
        return env

    monkeypatch.setattr(attacks, "build_environment", same_cell)
    report = run_scenario("S1", "OP-I", seed=26)
    assert report.succeeded
    assert report.evidence["network_location"] == VICTIM_BS
    row = run_table_matrix(seed=26)["OP-I"]
    assert not row["baseband_context"]
    assert row["impersonation"] and row["one_tap_bypass"]
    assert not row["location_spoofing"]


# --- variants --------------------------------------------------------------


def test_stale_copy_fails_on_the_count_rule():
    report = run_scenario("S1", "OP-I", seed=13, variant="stale")
    assert not report.succeeded
    assert report.evidence["attacker_registration"].startswith("reject:")
    reasons = [e.fields["reason"] for e in report.env.events.named("fast_fallback")]
    assert "count" in reasons


def test_stale_copy_recovers_by_sniffing_the_air():
    report = run_scenario("S1", "OP-I", seed=13, variant="stale-recover")
    assert report.succeeded, report.evidence
    assert "sniffed_air" in report.evidence
    assert report.evidence["sniffed_air"].startswith("guti-")


def test_powered_on_swap_trips_the_deletion_rule():
    report = run_scenario("S2", "OP-I", seed=14, variant="swap-powered-on")
    assert not report.succeeded
    assert report.evidence["baseband_entry_after_swap"] == "false"


def test_reconnect_views_after_s1():
    report = run_scenario("S1", "OP-I", seed=15, variant="reconnect")
    assert report.succeeded
    assert report.evidence["victim_reconnect"].startswith("accept")
    assert report.evidence["attacker_retry_after_reconnect"].startswith("reject:")


def test_reconnect_views_after_s2():
    report = run_scenario("S2", "OP-I", seed=15, variant="reconnect")
    assert report.succeeded
    assert report.evidence["victim_reconnect"].startswith("accept")
    assert report.evidence["attacker_retry_after_reconnect"].startswith("reject:")


def test_unknown_scenarios_and_variants_are_rejected():
    with pytest.raises(UnknownScenario):
        run_scenario("S3")
    with pytest.raises(UnknownScenario):
        run_scenario("S1", "OP-I", variant="nope")
    with pytest.raises(UnknownScenario):
        run_scenario("S2", "OP-I", variant="stale")
    # The effects are read from a base report's evidence, not run.
    for effect in ("one-tap-bypass", "location-spoofing"):
        with pytest.raises(UnknownScenario):
            run_scenario(effect)


def test_a_row_with_an_unknown_step_is_rejected(monkeypatch):
    monkeypatch.setitem(SCENARIOS["S1"], "teleport", ((("teleport", "victim-me"),), ()))
    with pytest.raises(UnknownScenario, match="teleport"):
        run_scenario("S1", "OP-I", variant="teleport")


@pytest.mark.parametrize(
    "step, lacks",
    [
        (("clone-identity",), "a learned SUPI"),
        (("copy-card",), "an extracted card"),
        (("if-rejected",), "an attack"),
        (("resync", "victim-me"), "an extracted card and a fake card"),
        # The fake card exists only once copy-card or clone-identity built it.
        (("insert", "attacker-me", "fake"), "the fake card"),
        (("insert", "shared-me", "fake"), "the fake card"),
    ],
)
def test_a_step_run_before_its_input_is_rejected(monkeypatch, step, lacks):
    monkeypatch.setitem(SCENARIOS["S1"], "early", ((step,), ()))
    with pytest.raises(PrerequisiteFailed, match=re.escape("step %r needs %s" % (" ".join(step), lacks))):
        run_scenario("S1", "OP-I", variant="early")


@pytest.mark.parametrize("step", [("online", "nobody"), ("hand-over", "nobody"), ("register", "nobody", "5G")])
def test_a_step_naming_no_handset_is_rejected_before_it_runs(step):
    env = build_environment("OP-I", 3)
    report = AttackReport("S1", "OP-I", 3, env=env)
    before = (env.event_lines(), dict(env.custody), env.channel.step)
    with pytest.raises(UnknownScenario, match="names no handset"):
        attacks._step(report, step)
    assert (env.event_lines(), dict(env.custody), env.channel.step) == before


# --- effects: evidence of the session the accept opened --------------------


def test_one_tap_login_lands_in_attacker_custody():
    report = run_scenario("S2", "OP-I", seed=16)
    assert report.succeeded
    # A login bound to the session sees the victim's number, and the only
    # handsets behind the accepted request are in the attacker's hands.
    assert report.evidence["token_supi"] == VICTIM_SUPI
    emitters = report.evidence["ue_init_emitters"].split(",")
    assert set(emitters) <= set(report.env.custody_of("attacker"))


def test_network_pages_the_wrong_base_station():
    report = run_scenario("S2", "OP-I", seed=16)
    assert report.succeeded
    assert report.evidence["network_location"] == ATTACKER_BS
    assert {report.env.mes[me].bs for me in report.env.custody_of("victim")} == {VICTIM_BS}


def test_downstream_scenarios_refuse_a_failed_base():
    # A blocked attack opens no session, so there is no effect to read.
    base = run_scenario("S2", "OP-I", seed=17, cm=Countermeasures(iccid_binding=True))
    assert not base.succeeded
    assert "token_supi" not in base.evidence
    assert "network_location" not in base.evidence


# --- matrix and reporting --------------------------------------------------


def test_matrix_matches_the_expected_verdicts():
    assert run_table_matrix(seed=0) == EXPECTED_MATRIX


def test_matrix_lines_are_plain_and_aligned():
    lines = matrix_lines(run_table_matrix(seed=0))
    assert lines[0].startswith("profile")
    assert len(lines) == 4
    assert lines[1].startswith("OP-I ") and " yes" in lines[1]
    assert lines[2].startswith("OP-II ") and " no" in lines[2]


def test_reports_and_traces_are_reproducible():
    a = run_scenario("S2", "OP-I", seed=18)
    b = run_scenario("S2", "OP-I", seed=18)
    assert a.to_lines() == b.to_lines()
    assert a.env.trace_lines() == b.env.trace_lines()
    assert a.env.event_lines() == b.env.event_lines()
    c = run_scenario("S2", "OP-I", seed=19)
    assert c.env.trace_lines() != a.env.trace_lines()


def test_report_lines_carry_the_header_fields():
    report = run_scenario("S1", "OP-I", seed=20)
    lines = report.to_lines()
    assert lines[0] == "scenario S1"
    assert lines[1] == "profile OP-I"
    assert lines[2] == "seed 20"
    assert lines[3] == "variant default"
    assert lines[4] == "succeeded true"
    assert lines[5].startswith("window ")
    assert all(l.startswith("evidence ") for l in lines[6:])


def test_no_victim_key_material_reaches_the_air():
    report = run_scenario("S2", "OP-I", seed=21)
    assert report.succeeded
    env = report.env
    card = env.cards["victim"]
    secrets = {card.k_permanent.octets.hex()}
    for entry in env.amf.table.values():
        if entry.supi == VICTIM_SUPI:
            secrets.add(entry.context.k_amf.octets.hex())
    # The monitor's record is both the trace and all the attacker reads.
    blob = "\n".join(env.trace_lines())
    for secret in secrets:
        assert secret not in blob
