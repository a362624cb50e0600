"""Attack harness: impersonation scenarios, downstream effects, matrix.

Two base scenarios:

  S1  card-context impersonation (4G): read the victim card's context
      files in an off-the-shelf reader, copy them onto a programmable
      card, register from the attacker's own handset.
  S2  chip-context impersonation (5G): briefly swap the victim's card for
      a fake one carrying the same identity while the shared handset sits
      in airplane mode; the chip keeps the cached context and hands it to
      the fake card's owner.

Each variant of a base scenario is data: a pair `(steps, then)` in
`SCENARIOS`, both rows of plain string tuples such as
`("insert", "victim-me", "victim")`, so a row prints and replays as it
stands.  `run_scenario` runs the steps one by one; a step that returns
False ends its row.  The attacker's registration (the `attack` step) is
then evaluated, and `then` runs only after a successful impersonation.

On top of a successful base attack the harness evaluates the one-tap
login bypass and the location-spoofing effect, and a per-profile matrix
runs everything for the three operator presets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .channel import IdentityResponse, RegistrationRequestInitial
from .equipment import PowerState, RegistrationOutcome, SecurityContext
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


class AccessDenied(Exception):
    """Card extraction stopped by PIN or file access conditions."""


class PrerequisiteFailed(Exception):
    """A step ran before its input, or a downstream scenario built on a failed base attack."""


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
    """A SimEnv holding what a scenario's steps share.

    `cards` holds "victim" (and "fake" once programmed), `files` what a
    reader extracted, `supi` what the air leaked, `outcome` the last
    `attack`.  The attacker holds the "attacker-me" handset, a card
    reader, public defaults (DEFAULT_PIN) and the monitor tap's view.
    """

    cards: dict[str, CardImage]
    files: dict[int, bytes]
    supi: str | None
    outcome: RegistrationOutcome | None


def build_environment(profile_name: str = "OP-I", seed: int = 0, cm: Countermeasures | None = None) -> ScenarioEnv:
    """Victim subscriber and its two handsets at BS-A, attacker handset at BS-B."""
    cm = cm or Countermeasures()
    profile = cm.apply(get_profile(profile_name))
    env = ScenarioEnv(profile, seed)
    env.cards = {"victim": env.provision_subscriber(VICTIM_SUPI)[1]}
    env.files, env.supi, env.outcome = {}, None, None
    for name in ("victim-me", "shared-me"):
        env.add_me(
            name,
            bs=VICTIM_BS,
            custody="victim",
            user_pin=profile.default_pin,
            iccid_binding=cm.iccid_binding,
            detect_offline_swap=cm.offline_swap_detection,
        )
    env.add_me("attacker-me", bs=ATTACKER_BS, custody="attacker", iccid_binding=cm.iccid_binding)
    return env


# --- attacker toolbox --------------------------------------------------


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


# --- scenarios as rows of steps ----------------------------------------


def _require(step: tuple[str, ...], have, what: str) -> None:
    if not have:
        raise PrerequisiteFailed("step %r needs %s from an earlier step" % (" ".join(step), what))


def _step(report: AttackReport, step: tuple[str, ...]) -> bool:
    """Run one step of a row on the report's env; False ends the row."""
    env = report.env
    match step:
        case ("insert", me, card):
            env.mes[me].insert_card(env.cards[card])
        case ("remove", me):
            env.mes[me].remove_card()
        case ("airplane", me):
            env.mes[me].set_airplane(True)
        case ("online", me):
            if env.mes[me].power is PowerState.AIRPLANE:
                env.mes[me].set_airplane(False)
            else:
                env.mes[me].power_on()
        case ("register", me, generation, *key):
            outcome = env.mes[me].register(generation)
            if key:
                report.note(key[0], _summarize(outcome))
        case ("attack", me, generation):
            env.outcome = env.mes[me].register(generation)
        case ("hand-over", me):
            env.custody[me] = "attacker"
            env.mes[me].bs = ATTACKER_BS
        case ("extract", me):
            # Borrow the card out of the idle handset, read it, put it back.
            card = env.mes[me].remove_card()
            try:
                env.files = card_reader_extract(card)
            except AccessDenied as err:
                report.note("extraction", "denied: %s" % err)
            else:
                report.note("extraction", "ok: %04X %04X %04X" % (EF_IMSI, EF_EPSLOCI, EF_EPSNSC))
            env.mes[me].insert_card(card)
            return bool(env.files)
        case ("copy-card",):
            _require(step, env.files, "an extracted card")
            env.cards["fake"] = programmable_card(env.rng, env.files[EF_IMSI].decode("ascii"), env.files)
        case ("learn-supi",):
            # The first permanent identity seen in clear on the air.
            kinds = (RegistrationRequestInitial.mtype, IdentityResponse.mtype)
            shown = (e.msg.visible()["identity"] for e in env.monitor.entries if e.msg.mtype in kinds)
            env.supi = next((i for i in shown if not i.startswith("suci-")), None)
            report.note("identity", env.supi or "never seen in clear; cannot build the fake card")
            return env.supi is not None
        case ("clone-identity",):
            _require(step, env.supi, "a learned SUPI")
            env.cards["fake"] = programmable_card(env.rng, env.supi, {EF_IMSI: env.supi.encode("ascii")})
        case ("if-rejected",):
            _require(step, env.outcome, "an attack")
            return not env.outcome.accepted
        case ("resync", me):
            # Rewrite the fake card to the GUTI and count the handset last
            # sent in clear; the next request then runs one count ahead.
            _require(step, env.files and "fake" in env.cards, "an extracted card and a fake card")
            guti, count = env.monitor.sniff_latest_guti(me)
            report.note("sniffed_air", "%s count=%d" % (guti, count))
            ctx = SecurityContext.from_bytes(env.files[EF_EPSNSC])
            ctx.ul_count = count
            fake = env.cards["fake"]
            status = store_context_files(fake, fake.open_session(), guti.encode("ascii"), ctx.to_bytes(), "4G")
            return status is ApduStatus.OK
        case ("note-baseband", me):
            report.note("baseband_entry_after_swap", env.mes[me].baseband.entry is not None)
        case _:
            raise UnknownScenario("unknown step %r" % (step,))
    return True


def _run_row(report: AttackReport, row: tuple[tuple[str, ...], ...]) -> bool:
    """Run a row's steps in order, stopping at the first that returns False."""
    return all(_step(report, step) for step in row)


_S1_COPY = (
    ("insert", "victim-me", "victim"),
    ("online", "victim-me"),
    ("register", "victim-me", "4G", "victim_initial"),
    ("airplane", "victim-me"),
    ("extract", "victim-me"),
    ("copy-card",),
)
_S1_ATTACK = (("insert", "attacker-me", "fake"), ("online", "attacker-me"), ("attack", "attacker-me", "4G"))
_S1 = (*_S1_COPY, *_S1_ATTACK)
# The victim registers again after the copy was taken, moving the stored
# count and GUTI past what the fake card carries.
_S1_MOVE_ON = (("online", "victim-me"), ("register", "victim-me", "4G"), ("airplane", "victim-me"))
_S1_STALE = (*_S1_COPY, *_S1_MOVE_ON, *_S1_ATTACK)
_S2_LEARN = (
    ("insert", "shared-me", "victim"),
    ("online", "shared-me"),
    ("register", "shared-me", "5G", "victim_initial"),
    ("learn-supi",),
)
_S2_SWAP = (("hand-over", "shared-me"), ("remove", "shared-me"), ("clone-identity",), ("insert", "shared-me", "fake"))
_S2_ATTACK = (("note-baseband", "shared-me"), ("attack", "shared-me", "5G"))
_S2 = (*_S2_LEARN, ("airplane", "shared-me"), *_S2_SWAP, ("online", "shared-me"), *_S2_ATTACK)

# attack -> variant -> (steps, then): `then` runs only after a success.
SCENARIOS = {
    "S1": {
        "default": (_S1, ()),
        "stale": (_S1_STALE, ()),
        "stale-recover": (
            (*_S1_STALE, ("if-rejected",), ("remove", "attacker-me"), ("resync", "victim-me"), *_S1_ATTACK),
            (),
        ),
        "reconnect": (
            _S1,
            (
                ("online", "victim-me"),
                ("register", "victim-me", "4G", "victim_reconnect"),
                ("register", "attacker-me", "4G", "attacker_retry_after_reconnect"),
            ),
        ),
    },
    "S2": {
        "default": (_S2, ()),
        # The phone stays fully on, so deletion rule (1) fires on removal.
        "swap-powered-on": ((*_S2_LEARN, *_S2_SWAP, *_S2_ATTACK), ()),
        "reconnect": (
            _S2,
            (
                ("insert", "victim-me", "victim"),
                ("online", "victim-me"),
                ("register", "victim-me", "5G", "victim_reconnect"),
                ("register", "shared-me", "5G", "attacker_retry_after_reconnect"),
            ),
        ),
    },
}


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

# Built on a default S2 run; they take no variant.
DOWNSTREAM_SCENARIOS = {
    "one-tap-bypass": scenario_one_tap_bypass,
    "location-spoofing": scenario_location_spoof,
}

SCENARIO_NAMES = (*SCENARIOS, *DOWNSTREAM_SCENARIOS)


def run_scenario(
    attack: str,
    profile_name: str = "OP-I",
    seed: int = 0,
    cm: Countermeasures | None = None,
    variant: str = "default",
) -> AttackReport:
    """Run one base scenario's row, or a downstream effect of a default S2."""
    effect = DOWNSTREAM_SCENARIOS.get(attack)
    if effect is not None and variant != "default":
        raise UnknownScenario("%s takes no variant, got %r" % (attack, variant))
    if effect is not None:
        return effect(run_scenario("S2", profile_name, seed, cm))
    if attack not in SCENARIOS:
        raise UnknownScenario("unknown attack %r (have: %s)" % (attack, ", ".join(SCENARIO_NAMES)))
    if (row := SCENARIOS[attack].get(variant)) is None:
        raise UnknownScenario("unknown %s variant %r (have: %s)" % (attack, variant, ", ".join(SCENARIOS[attack])))
    env = build_environment(profile_name, seed, cm)
    report = AttackReport(attack, profile_name, seed, variant, env=env)
    steps, then = row
    _run_row(report, steps)
    if env.outcome is None:
        # The row ended before the attacker registered: nothing to judge.
        report.window = (env.channel.step, env.channel.step)
        return report
    _evaluate_impersonation(report, env, env.outcome)
    if report.succeeded:
        _run_row(report, then)
    return report


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
        s1 = run_scenario("S1", name, seed + 10 * i + 1)
        s2 = run_scenario("S2", name, seed + 10 * i + 2)
        base = s2 if s2.succeeded else s1
        one_tap = base.succeeded and scenario_one_tap_bypass(base).succeeded
        location = base.succeeded and scenario_location_spoof(base).succeeded
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
