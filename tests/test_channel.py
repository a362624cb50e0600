"""Radio-link tests: ordering, taps, codecs, replay injection, opacity."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastreg.channel import (
    AuthRequest,
    Channel,
    ChannelTap,
    Event,
    MalformedPayload,
    NasMessage,
    NotObserved,
    RegistrationRequestFast,
    UnknownEndpoint,
    decode_accept_payload,
    encode_accept_payload,
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
    ch.tick(5)
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


def test_tick_never_reverses():
    ch, _ = make_channel()
    with pytest.raises(ValueError):
        ch.tick(-1)


def test_drop_filter_suppresses_delivery_but_not_capture():
    ch, seen = make_channel()
    tap = ChannelTap()
    ch.taps.append(tap)
    ch.drop_filter = lambda env: isinstance(env.msg, AuthRequest)
    ch.send("a", "b", "BS-A", "a#0", AuthRequest(b"\x01" * 16, b"\x02" * 16))
    ch.send("a", "b", "BS-A", "a#0", fast_msg())
    ch.pump()
    assert len(seen["b"]) == 1
    assert isinstance(seen["b"][0].msg, RegistrationRequestFast)
    assert len(tap.entries) == 2  # the sniffer still saw the dropped frame
    assert ch.events.named("dropped")


def test_emit_keeps_the_callers_fields_and_the_step():
    ch, _ = make_channel()
    ch.tick(3)
    fields = {"reason": "lookup", "guti": "guti-1"}
    event = ch.events.emit("amf", "fast_fallback", fields)
    assert type(event) is Event and ch.events.entries == [event]
    assert (event.step, event.entity, event.name) == (3, "amf", "fast_fallback")
    assert event.fields is fields
    assert event.line() == "   3 amf fast_fallback reason=lookup guti=guti-1"
    assert Event(3, "amf", "fast_fallback", fields) == event
    assert ch.events.emit("ue", "power_on", {}).line() == "   3 ue power_on"


def test_inject_replays_identical_frame_at_new_step():
    ch, seen = make_channel()
    tap = ChannelTap()
    ch.taps.append(tap)
    ch.send("a", "b", "BS-A", "a#0", fast_msg())
    ch.pump()
    captured = tap.entries[0]
    replay = ch.inject(captured)
    ch.pump()
    assert replay.step == 2
    assert replay.msg is captured.msg  # byte-identical frame
    assert replay.src == "a" and replay.flow == "a#0"
    assert len(seen["b"]) == 2


def test_observable_fields_hide_container_and_mac():
    msg = fast_msg()
    fields = msg.visible()
    assert fields == {"guti": "guti-1", "ngksi": "2", "count": "1"}
    # Serialized tap line never shows the ciphered bytes either.
    ch, _ = make_channel()
    tap = ChannelTap()
    ch.taps.append(tap)
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
    tap = ChannelTap()
    ch.taps.append(tap)
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
        tap = ChannelTap()
        ch.taps.append(tap)
        rng = random.Random(7)
        for i in range(20):
            src, dst = ("a", "b") if rng.random() < 0.5 else ("b", "a")
            ch.send(src, dst, "BS-A", "f#%d" % rng.randrange(3), fast_msg(count=i))
            ch.pump()
        return tap.export_lines()

    assert run() == run()
