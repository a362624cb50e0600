"""Ownership: an environment holds no reference cycle, so dropping it frees it."""

from __future__ import annotations

import collections
import gc

import pytest

from fastreg.attacks import PROFILE_ORDER, SCENARIOS, run_scenario, run_table_matrix
from fastreg.profiles import ALL_PROTECTIVE, get_profile
from fastreg.sim import SimEnv

TOGGLE_SETS = (
    None,
    ALL_PROTECTIVE,
    {"supi_concealment": True},
    {"fast_registration": False},
)


def session(rounds: int) -> None:
    env = SimEnv(get_profile("OP-I"), 5)
    _, card = env.provision_subscriber("460110000000001")
    me = env.add_me("ue")
    me.insert_card(card)
    me.power_on()
    assert me.register("5G").aka_ran
    for _ in range(rounds):
        me.set_airplane(True)
        me.set_airplane(False)
        assert me.register("5G").path == "fast"


def workload() -> None:
    for attack, variants in SCENARIOS.items():
        for variant in variants:
            for profile in PROFILE_ORDER:
                for cm in TOGGLE_SETS:
                    run_scenario(attack, profile, 3, cm, variant)
    run_table_matrix(4)
    session(100)


def test_scenarios_matrix_and_sessions_leave_nothing_for_the_cyclic_collector():
    gc.collect()
    gc.disable()
    try:
        workload()
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        garbage = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == 0, "objects only the cyclic collector could free: %s" % garbage.most_common()


def test_a_handset_outlived_by_its_environment_raises_reference_error():
    env = SimEnv(get_profile("OP-I"), 5)
    _, card = env.provision_subscriber("460110000000001")
    me = env.add_me("ue")
    me.insert_card(card)
    events = env.events
    del env
    with pytest.raises(ReferenceError):
        me.power_on()
    # The log outlives the channel that stamped it, and stays readable.
    assert [e.name for e in events.entries] == ["card_inserted"]
