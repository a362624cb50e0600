"""Attack harness: impersonation scenarios, downstream effects, matrix.

Two base scenarios:

  S1  card-context impersonation (4G): read the victim card's context
      files in an off-the-shelf reader, copy them onto a programmable
      card, register from the attacker's own handset.
  S2  chip-context impersonation (5G): briefly swap the victim's card for
      a fake one carrying the same identity while the shared handset sits
      in airplane mode; the chip keeps the cached context and hands it to
      the fake card's owner.

On top of a successful base attack the harness evaluates the one-tap
login bypass and the location-spoofing effect, and a per-profile matrix
runs everything for the three operator presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .channel import IdentityResponse, RegistrationRequestInitial
from .equipment import PowerState, SecurityContext
from .network import OneTapToken
from .profiles import DEFAULT_PIN, Countermeasures, get_profile
from .sim import SimEnv
from .usim import (
    EF_EPSLOCI,
    EF_EPSNSC,
    EF_IMSI,
    Apdu,
    ApduCommand,
    ApduStatus,
    CardImage,
    apdu_execute,
    programmable_card,
    store_context_files,
    verify_pin,
)

VICTIM_SUPI = "460110123456789"
VICTIM_BS = "BS-A"
ATTACKER_BS = "BS-B"

S1_VARIANTS = ("default", "stale", "stale-recover", "reconnect")
S2_VARIANTS = ("default", "swap-powered-on", "reconnect")


class AccessDenied(Exception):
    """Card extraction stopped by PIN or file access conditions."""


class PrerequisiteFailed(Exception):
    """A downstream scenario was asked to build on a failed base attack."""


class UnknownScenario(Exception):
    pass


@dataclass
class AttackReport:
    scenario: str
    profile: str
    seed: int
    variant: str = "default"
    succeeded: bool = False
    evidence: dict[str, str] = field(default_factory=dict)
    window: tuple[int, int] = (0, 0)
    env: ScenarioEnv | None = field(default=None, repr=False, compare=False)
    # What a successful impersonation left behind for the downstream
    # scenarios: the one-tap token and the network's paging location.
    token: OneTapToken | None = field(default=None, repr=False, compare=False)
    location: str | None = field(default=None, repr=False, compare=False)

    def note(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.evidence[key] = str(value)

    def to_lines(self) -> list[str]:
        lines = [
            "scenario %s" % self.scenario,
            "profile %s" % self.profile,
            "seed %d" % self.seed,
            "variant %s" % self.variant,
            "succeeded %s" % ("true" if self.succeeded else "false"),
            "window %d..%d" % self.window,
        ]
        lines.extend("evidence %s = %s" % (k, self.evidence[k]) for k in sorted(self.evidence))
        return lines


class ScenarioEnv(SimEnv):
    """A SimEnv holding the scenario's toggles and the victim's card.

    The attacker holds the "attacker-me" handset, a card reader, public
    defaults (DEFAULT_PIN) and the monitor tap's passive view of the air.
    """

    cm: Countermeasures
    victim_card: CardImage


def build_environment(profile_name: str = "OP-I", seed: int = 0, cm: Countermeasures | None = None) -> ScenarioEnv:
    """Victim subscriber and handset at BS-A, attacker handset at BS-B."""
    cm = cm or Countermeasures()
    profile = cm.apply(get_profile(profile_name))
    env = ScenarioEnv(profile, seed)
    env.cm = cm
    _, env.victim_card = env.provision_subscriber(VICTIM_SUPI)
    env.add_me(
        "victim-me",
        bs=VICTIM_BS,
        custody="victim",
        user_pin=profile.default_pin,
        iccid_binding=cm.iccid_binding,
        detect_offline_swap=cm.offline_swap_detection,
    )
    env.add_me("attacker-me", bs=ATTACKER_BS, custody="attacker", iccid_binding=cm.iccid_binding)
    return env


# --- attacker toolbox --------------------------------------------------


def learn_victim_supi(env: ScenarioEnv) -> str | None:
    """Pull a cleartext permanent identity off the recorded air traffic."""
    for e in env.monitor.entries:
        if e.msg.mtype in (RegistrationRequestInitial.mtype, IdentityResponse.mtype):
            identity = e.msg.visible()["identity"]
            if not identity.startswith("suci-"):
                return identity
    return None


def card_reader_extract(card: CardImage) -> dict[int, bytes]:
    """Read the context files in a reader; AccessDenied on any refusal.

    The attacker knows only the public default PIN and spends one try.
    """
    session = card.open_session()
    if card.pin.enabled:
        status = verify_pin(card, session, DEFAULT_PIN).status
        if status is not ApduStatus.OK:
            raise AccessDenied("PIN gate: %s" % status.name)
    out: dict[int, bytes] = {}
    for fid in (EF_IMSI, EF_EPSLOCI, EF_EPSNSC):
        resp = apdu_execute(card, session, Apdu(ApduCommand.READ, fid))
        if resp.status is not ApduStatus.OK:
            raise AccessDenied("read %04X: %s" % (fid, resp.status.name))
        out[fid] = resp.payload
    return out


def _rewrite_fake_context(fake: CardImage, guti: str, ul_count: int, nsc_blob: bytes) -> None:
    """Update a fake card's context files through plain reader commands."""
    ctx = SecurityContext.from_bytes(nsc_blob)
    ctx.ul_count = ul_count
    status = store_context_files(fake, fake.open_session(), guti.encode("ascii"), ctx.to_bytes(), "4G")
    if status is not ApduStatus.OK:
        raise AccessDenied("update: %s" % status.name)


# --- evaluation helpers ------------------------------------------------


def fast_agreement_pairs(events):
    """Pair each amf_verify with the ue_init events sharing its content.

    Agreement is keyed on the (ies, container, mac) triple, so a verify
    with no matching handset event, or one matched only by an attacker
    handset, is an injective-agreement violation against the victim.
    """
    inits: dict[tuple[str, str, str], list] = {}
    for e in events.named("ue_init"):
        key = (e.fields["ies"], e.fields["container"], e.fields["mac"])
        inits.setdefault(key, []).append(e)
    pairs = []
    for v in events.named("amf_verify"):
        key = (v.fields["ies"], v.fields["container"], v.fields["mac"])
        pairs.append((v, inits.get(key, [])))
    return pairs


def _summarize(outcome) -> str:
    verdict = "accept" if outcome.accepted else "reject:%s" % (outcome.reject_cause or "none")
    return "%s path=%s aka=%s" % (verdict, outcome.path, "yes" if outcome.aka_ran else "no")


def _evaluate_impersonation(report: AttackReport, env: ScenarioEnv, outcome) -> None:
    """Fill the report from one attacker registration attempt."""
    window = (outcome.start_step, outcome.end_step or env.channel.step)
    report.window = window
    report.note("attacker_registration", _summarize(outcome))
    clean_fast = outcome.accepted and outcome.path == "fast" and not outcome.aka_ran
    report.note("accepted_without_aka", clean_fast)

    victim_names = set(env.custody_of("victim"))
    witness = False
    for v, inits in fast_agreement_pairs(env.events):
        if not (window[0] <= v.step <= window[1]):
            continue
        emitters = sorted({e.entity for e in inits})
        witness = not any(e in victim_names for e in emitters)
        report.note("amf_verify_step", v.step)
        report.note("ue_init_emitters", ",".join(emitters) if emitters else "none")
    report.note("agreement_violated", witness)

    victim_traffic = [
        t
        for t in env.monitor.entries
        if t.src in victim_names and window[0] <= t.step <= window[1]
    ]
    quiet = not victim_traffic
    report.note("victim_quiet_in_window", quiet)

    token_ok = location_ok = False
    if clean_fast:
        session = env.amf.sessions.get(VICTIM_SUPI)
        if session is not None and session.state == "Registered":
            report.token = env.amf.one_tap_token(session)
            token_ok = report.token.supi == VICTIM_SUPI
            report.note("token_supi", report.token.supi)
            report.location = env.amf.locate(VICTIM_SUPI)
            location_ok = report.location == ATTACKER_BS and report.location != VICTIM_BS
            report.note("network_location", report.location)
    report.succeeded = clean_fast and witness and quiet and token_ok and location_ok


def _observe_reconnect(report: AttackReport, env: ScenarioEnv, victim_me, attacker_me, generation: str) -> None:
    """Let the victim come back online and record what both sides see."""
    if victim_me.power is PowerState.AIRPLANE:
        victim_me.set_airplane(False)
    elif victim_me.power is PowerState.POWERED_OFF:
        victim_me.power_on()
    back = victim_me.register(generation)
    report.note("victim_reconnect", _summarize(back))
    retry = attacker_me.register(generation)
    report.note("attacker_retry_after_reconnect", _summarize(retry))


# --- base scenarios ----------------------------------------------------


def scenario_usim_impersonation(
    profile_name: str = "OP-I",
    seed: int = 0,
    cm: Countermeasures | None = None,
    variant: str = "default",
) -> AttackReport:
    """S1: copy the 4G context off the victim's card, register elsewhere."""
    if variant not in S1_VARIANTS:
        raise UnknownScenario("unknown S1 variant %r (have: %s)" % (variant, ", ".join(S1_VARIANTS)))
    env = build_environment(profile_name, seed, cm)
    report = AttackReport("S1", profile_name, seed, variant, env=env)
    victim, attacker = env.mes["victim-me"], env.mes["attacker-me"]
    card = env.victim_card

    victim.insert_card(card)
    victim.power_on()
    first = victim.register("4G")
    report.note("victim_initial", _summarize(first))
    victim.set_airplane(True)
    real = victim.remove_card()

    try:
        files = card_reader_extract(real)
    except AccessDenied as err:
        report.note("extraction", "denied: %s" % err)
        victim.insert_card(real)
        report.window = (env.channel.step, env.channel.step)
        return report
    report.note("extraction", "ok: %04X %04X %04X" % (EF_IMSI, EF_EPSLOCI, EF_EPSNSC))
    fake = programmable_card(env.rng, files[EF_IMSI].decode("ascii"), files)
    victim.insert_card(real)

    if variant in ("stale", "stale-recover"):
        # Victim re-registers after the copy was taken, moving the stored
        # count and GUTI past what the fake card carries.
        victim.set_airplane(False)
        victim.register("4G")
        victim.set_airplane(True)

    attacker.insert_card(fake)
    attacker.power_on()
    outcome = attacker.register("4G")

    if variant == "stale-recover" and not outcome.accepted:
        # Recovery: sniff the victim's latest cleartext GUTI and count off
        # the air, rewrite the fake card, try again one count ahead.
        guti, count = env.monitor.sniff_latest_guti("victim-me")
        report.note("sniffed_air", "%s count=%d" % (guti, count))
        attacker.remove_card()
        _rewrite_fake_context(fake, guti, count, files[EF_EPSNSC])
        attacker.insert_card(fake)
        outcome = attacker.register("4G")

    _evaluate_impersonation(report, env, outcome)
    if variant == "reconnect" and report.succeeded:
        _observe_reconnect(report, env, victim, attacker, "4G")
    return report


def scenario_baseband_impersonation(
    profile_name: str = "OP-I",
    seed: int = 0,
    cm: Countermeasures | None = None,
    variant: str = "default",
) -> AttackReport:
    """S2: swap a same-identity fake card into the victim's idle handset."""
    if variant not in S2_VARIANTS:
        raise UnknownScenario("unknown S2 variant %r (have: %s)" % (variant, ", ".join(S2_VARIANTS)))
    env = build_environment(profile_name, seed, cm)
    cm = env.cm
    report = AttackReport("S2", profile_name, seed, variant, env=env)
    card = env.victim_card

    shared = env.add_me(
        "shared-me",
        bs=VICTIM_BS,
        custody="victim",
        user_pin=env.profile.default_pin,
        iccid_binding=cm.iccid_binding,
        detect_offline_swap=cm.offline_swap_detection,
    )
    shared.insert_card(card)
    shared.power_on()
    first = shared.register("5G")
    report.note("victim_initial", _summarize(first))

    supi = learn_victim_supi(env)
    if supi is None:
        report.note("identity", "never seen in clear; cannot build the fake card")
        report.window = (env.channel.step, env.channel.step)
        return report
    report.note("identity", supi)

    # The swap happens in airplane mode, except that swap-powered-on keeps
    # the phone fully on, so deletion rule (1) fires.
    airplane = variant != "swap-powered-on"
    if airplane:
        shared.set_airplane(True)
    env.set_custody("shared-me", "attacker")
    shared.bs = ATTACKER_BS
    real = shared.remove_card()
    fake = programmable_card(env.rng, supi, {EF_IMSI: supi.encode("ascii")})
    shared.insert_card(fake)
    if airplane:
        shared.set_airplane(False)
    report.note("baseband_entry_after_swap", shared.baseband.entry is not None)

    outcome = shared.register("5G")
    _evaluate_impersonation(report, env, outcome)
    if variant == "reconnect" and report.succeeded:
        victim_me = env.mes["victim-me"]
        victim_me.insert_card(real)
        victim_me.power_on()
        _observe_reconnect(report, env, victim_me, shared, "5G")
    return report


# --- downstream scenarios ----------------------------------------------


def _downstream_report(scenario: str, base: AttackReport) -> AttackReport:
    """An empty report for an effect of `base`, which must have succeeded."""
    if not base.succeeded:
        raise PrerequisiteFailed("base attack %s did not succeed" % base.scenario)
    return AttackReport(scenario, base.profile, base.seed, base.variant, window=base.window, env=base.env)


def scenario_one_tap_bypass(base: AttackReport) -> AttackReport:
    """One-tap login: the number-bound token lands in attacker hands."""
    report = _downstream_report("one-tap-bypass", base)
    env = base.env
    session = env.amf.sessions.get(VICTIM_SUPI)
    if session is None or session.state != "Registered":
        report.note("session", "absent")
        return report
    token = base.token
    holder = session.flow.split("#")[0]
    attacker_holds = holder in env.custody_of("attacker")
    report.note("token_supi", token.supi)
    report.note("token_nonce", token.nonce)
    report.note("session_holder", holder)
    report.note("holder_custody", "attacker" if attacker_holds else "victim")
    report.succeeded = token.supi == VICTIM_SUPI and attacker_holds
    return report


def scenario_location_spoof(base: AttackReport) -> AttackReport:
    """The network now pages the victim at the attacker's base station."""
    report = _downstream_report("location-spoofing", base)
    report.note("network_view", base.location)
    report.note("victim_actual_bs", VICTIM_BS)
    report.succeeded = base.location == ATTACKER_BS and base.location != VICTIM_BS
    return report


# --- dispatch and matrix -----------------------------------------------

BASE_SCENARIOS = {
    "S1": scenario_usim_impersonation,
    "S2": scenario_baseband_impersonation,
}

# Built on a default S2 run; they take no variant.
DOWNSTREAM_SCENARIOS = {
    "one-tap-bypass": scenario_one_tap_bypass,
    "location-spoofing": scenario_location_spoof,
}

SCENARIO_NAMES = (*BASE_SCENARIOS, *DOWNSTREAM_SCENARIOS)


def run_scenario(
    attack: str,
    profile_name: str = "OP-I",
    seed: int = 0,
    cm: Countermeasures | None = None,
    variant: str = "default",
) -> AttackReport:
    if attack in BASE_SCENARIOS:
        return BASE_SCENARIOS[attack](profile_name, seed, cm, variant)
    if attack in DOWNSTREAM_SCENARIOS:
        if variant != "default":
            raise UnknownScenario("%s takes no variant, got %r" % (attack, variant))
        base = scenario_baseband_impersonation(profile_name, seed, cm, "default")
        return DOWNSTREAM_SCENARIOS[attack](base)
    raise UnknownScenario("unknown attack %r (have: %s)" % (attack, ", ".join(SCENARIO_NAMES)))


PROFILE_ORDER = ("OP-I", "OP-II", "OP-III")
MATRIX_COLUMNS = (
    "usim_context",
    "baseband_context",
    "impersonation",
    "one_tap_bypass",
    "location_spoofing",
)


def run_table_matrix(seed: int = 0) -> dict[str, dict[str, bool]]:
    """Per-profile verdict matrix over both base attacks and both effects."""
    rows: dict[str, dict[str, bool]] = {}
    for i, name in enumerate(PROFILE_ORDER):
        s1 = scenario_usim_impersonation(name, seed=seed + 10 * i + 1)
        s2 = scenario_baseband_impersonation(name, seed=seed + 10 * i + 2)
        base = s2 if s2.succeeded else (s1 if s1.succeeded else None)
        one_tap = location = False
        if base is not None:
            one_tap = scenario_one_tap_bypass(base).succeeded
            location = scenario_location_spoof(base).succeeded
        rows[name] = {
            "usim_context": s1.succeeded,
            "baseband_context": s2.succeeded,
            "impersonation": s1.succeeded or s2.succeeded,
            "one_tap_bypass": one_tap,
            "location_spoofing": location,
        }
    return rows


def matrix_lines(rows: dict[str, dict[str, bool]]) -> list[str]:
    width = max(len(c) for c in MATRIX_COLUMNS)
    lines = [("profile  " + "  ".join(c.ljust(width) for c in MATRIX_COLUMNS)).rstrip()]
    for name in PROFILE_ORDER:
        cells = ["yes" if rows[name][c] else "no" for c in MATRIX_COLUMNS]
        lines.append((name.ljust(8) + "  " + "  ".join(c.ljust(width) for c in cells)).rstrip())
    return lines
