"""Radio-link tests: ordering, the monitor tap, codecs, replay of a captured frame, opacity."""

from __future__ import annotations

import ast
import copy
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastreg import channel, equipment, network
from fastreg.attacks import run_scenario
from fastreg.channel import (
    EVENT_FIELDS,
    AuthRequest,
    Channel,
    Event,
    MalformedPayload,
    NasMessage,
    NotObserved,
    RegistrationRequestFast,
    UnknownEndpoint,
    decode_accept_payload,
    encode_accept_payload,
    field_hex,
)


def make_channel(names=("a", "b")):
    ch = Channel()
    seen = {n: [] for n in names}
    for n in names:
        ch.register(n, lambda env, _n=n: seen[_n].append(env))
    return ch, seen


def fast_msg(count=1):
    return RegistrationRequestFast("guti-1", 2, count, b"\xaa" * 20, b"\xbb" * 8)


def test_send_stamps_monotonic_steps():
    ch, seen = make_channel()
    e1 = ch.send("a", "b", "BS-A", "a#0", fast_msg())
    e2 = ch.send("b", "a", "BS-A", "a#0", AuthRequest(b"\x01" * 16, b"\x02" * 16))
    assert (e1.step, e2.step) == (1, 2)
    ch.step += 5  # idle air time
    e3 = ch.send("a", "b", "BS-A", "a#1", fast_msg())
    assert e3.step == 8


def test_fifo_delivery_exactly_once():
    ch, seen = make_channel()
    for i in range(5):
        ch.send("a", "b", "BS-A", "a#0", fast_msg(count=i + 1))
    assert seen["b"] == []
    delivered = ch.pump()
    assert delivered == 5
    counts = [env.msg.ul_count for env in seen["b"]]
    assert counts == [1, 2, 3, 4, 5]
    assert ch.pump() == 0  # nothing re-delivered


def test_unknown_endpoint_rejected():
    ch, _ = make_channel()
    with pytest.raises(UnknownEndpoint):
        ch.send("nobody", "b", "BS-A", "x", fast_msg())
    with pytest.raises(UnknownEndpoint):
        ch.send("a", "nobody", "BS-A", "x", fast_msg())


def test_emit_keeps_the_callers_fields_and_the_step():
    ch, _ = make_channel()
    ch.step += 3
    values = ("lookup", "guti-1")
    event = ch.events.emit("amf", "fast_fallback", values)
    assert type(event) is Event and ch.events.entries == [event]
    assert (event.step, event.entity, event.name) == (3, "amf", "fast_fallback")
    assert event.fields == {"reason": "lookup", "guti": "guti-1"}
    assert event[3:] == values
    assert event.line() == "   3 amf fast_fallback reason=lookup guti=guti-1"
    assert Event((3, "amf", "fast_fallback", *values)) == event
    assert ch.events.emit("ue", "power_on", ()).line() == "   3 ue power_on"


def test_an_event_log_deep_copies():
    entries = run_scenario("S2").env.events.entries
    copied = copy.deepcopy(entries)
    assert copied == entries and {type(e) for e in copied} == {Event}


def test_an_event_never_shows_its_values_under_the_wrong_names():
    short = Event((1, "amf", "fast_fallback", "lookup"))
    long = Event((1, "ue", "power_on", "extra"))
    for event in (short, long):
        with pytest.raises(ValueError):
            event.fields
        with pytest.raises(ValueError):
            event.line()
    with pytest.raises(KeyError):
        Event((1, "ue", "undeclared")).line()


def test_every_emit_site_uses_a_declared_name_and_arity():
    # Walks the source, so paths the scenario corpus never takes count too.
    sites = 0
    for module in (channel, equipment, network):
        tree = ast.parse(Path(module.__file__).read_text(encoding="ascii"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("emit", "_emit")):
                continue
            *_, name, values = node.args
            if not isinstance(name, ast.Constant):
                continue  # an `_emit` wrapper passing its arguments on
            assert isinstance(values, ast.Tuple), ast.dump(node)
            assert len(values.elts) == len(EVENT_FIELDS[name.value]), name.value
            sites += 1
    assert sites >= len(EVENT_FIELDS) == 29
    # `attacks.fast_agreement_pairs` keys both events on their value tuples.
    assert EVENT_FIELDS["ue_init"] == EVENT_FIELDS["amf_verify"] == ("ies", "container", "mac")


def test_field_hex_hands_back_the_same_string_for_equal_bytes():
    ies = bytes.fromhex("00066775746931")
    assert field_hex(ies) == ies.hex()
    assert field_hex(bytes(ies)) is field_hex(ies)
    assert field_hex.cache_info().maxsize == 8


def test_inject_replays_identical_frame_at_new_step():
    ch, seen = make_channel()
    tap = ch.monitor
    ch.send("a", "b", "BS-A", "a#0", fast_msg())
    ch.pump()
    captured = tap.entries[0]
    replay = ch.send(captured.src, captured.dst, captured.bs, captured.flow, captured.msg)
    ch.pump()
    assert replay.step == 2
    assert replay.msg is captured.msg  # byte-identical frame
    assert replay.src == "a" and replay.flow == "a#0"
    assert len(seen["b"]) == 2


def test_visible_fields_hide_container_and_mac():
    msg = fast_msg()
    fields = msg.visible()
    assert fields == {"guti": "guti-1", "ngksi": "2", "count": "1"}
    # Serialized tap line never shows the ciphered bytes either.
    ch, _ = make_channel()
    tap = ch.monitor
    ch.send("a", "b", "BS-A", "a#0", msg)
    line = tap.export_lines()[0]
    assert msg.container.hex() not in line
    assert msg.mac.hex() not in line
    assert "guti=guti-1" in line and "count=1" in line


def test_msg_type_map_is_total():
    # Every concrete message class declares its own distinct trace name.
    import fastreg.channel as ch_mod

    classes = [
        obj
        for name, obj in vars(ch_mod).items()
        if isinstance(obj, type) and issubclass(obj, NasMessage) and not name.startswith("_")
    ]
    classes.remove(NasMessage)
    assert len(classes) == 11
    names = [cls.mtype for cls in classes]
    assert all(names) and len(set(names)) == len(names)


def test_accept_payload_codec_round_trip():
    rng = random.Random(22)
    for _ in range(200):
        guti = "guti-%06x" % rng.getrandbits(24)
        dl = rng.randrange(2**32)
        assert decode_accept_payload(encode_accept_payload(guti, dl)) == (guti, dl)


@pytest.mark.parametrize("blob", [b"", b"abc", b"\x00\x03abc\x00\x00\x00", b"\x00\x01\xe9\x00\x00\x00\x01"])
def test_accept_payload_decoder_rejects_what_the_encoder_cannot_write(blob):
    # Truncated, empty, one byte short, and a non-ASCII GUTI.
    with pytest.raises(MalformedPayload):
        decode_accept_payload(blob)


@settings(derandomize=True, database=None)
@given(blob=st.binary(max_size=64))
def test_accept_payload_decoder_is_total(blob):
    try:
        guti, dl_count = decode_accept_payload(blob)
    except MalformedPayload:
        return
    assert encode_accept_payload(guti, dl_count) == blob


def test_sniff_latest_guti_tracks_queried_sender():
    ch, _ = make_channel(("v1", "v2", "amf"))
    tap = ch.monitor
    # Two subscribers interleaved; the sniffer keys on the sender.
    ch.send("v1", "amf", "BS-A", "v1#0", RegistrationRequestFast("guti-v1-old", 0, 1, b"x", b"y"))
    ch.send("v2", "amf", "BS-A", "v2#0", RegistrationRequestFast("guti-v2", 0, 4, b"x", b"y"))
    ch.send("v1", "amf", "BS-A", "v1#1", RegistrationRequestFast("guti-v1-new", 0, 2, b"x", b"y"))
    assert tap.sniff_latest_guti("v1") == ("guti-v1-new", 2)
    assert tap.sniff_latest_guti("v2") == ("guti-v2", 4)
    with pytest.raises(NotObserved):
        tap.sniff_latest_guti("v3")


def test_identical_runs_identical_tap_lines():
    def run():
        ch, _ = make_channel()
        tap = ch.monitor
        rng = random.Random(7)
        for i in range(20):
            src, dst = ("a", "b") if rng.random() < 0.5 else ("b", "a")
            ch.send(src, dst, "BS-A", "f#%d" % rng.randrange(3), fast_msg(count=i))
            ch.pump()
        return tap.export_lines()

    assert run() == run()
