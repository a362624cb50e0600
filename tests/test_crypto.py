"""Crypto layer tests.

The KDF oracle here is a scratch HMAC-SHA-256 written from the ipad/opad
definition over hashlib.sha256 only; it never touches the hmac module or
the package under test.  Frozen hex vectors below were computed with it.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from fastreg.crypto import (
    KEY_LEN,
    MAC_LEN,
    AkaResult,
    ChainViolation,
    DecryptFailure,
    Key,
    KeyKind,
    MacFailure,
    WrongKeyKind,
    autn_seq,
    check_autn,
    derive_k_amf,
    gen_auth_vector,
    kdf,
    mac_compute,
    mac_verify,
    nas_keys,
    prf,
    sdec,
    senc,
)


def scratch_hmac_sha256(key: bytes, msg: bytes) -> bytes:
    # Independent HMAC from the block definition; no hmac module.
    if len(key) > 64:
        key = hashlib.sha256(key).digest()
    key = key.ljust(64, b"\x00")
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    return hashlib.sha256(opad + hashlib.sha256(ipad + msg).digest()).digest()


def scratch_prf(key: bytes, data: bytes) -> bytes:
    return scratch_hmac_sha256(key, data)[:16]


K_AMF_RAW = bytes(range(16))

# Frozen vectors, computed with scratch_prf above.
VEC_NASENC = "007592a99fad36260d60027663a99b73"
VEC_NASINT = "86b8d121d92537ea0102f37142d0a3a3"
VEC_CHAIN_ROOT = "86b7320eda8682d32a05edf2860167cd"
VEC_K_AUSF = "03220f8e63c88eefacf16f17fca2bb18"
VEC_K_SEAF = "cff1d1289cbc32f35e1d077d8342412b"
VEC_K_AMF = "b37a258f7f309f8a495697da23cf6641"
VEC_RAND = "9691b7240353170fbf7fdd051bbf698f"
VEC_AUTN = "0000000000000001d59d32b3b92e4426"
VEC_XRES = "6b92a3372dfcd67c"
VEC_CK = "287cee52be7d1f23fd65d193d750e08f"
VEC_IK = "e1894dbac0dd93495461594b3e8bda9b"
VEC_MAC = "06680122d2903c6b"
VEC_SENC = "6facb7b13843643cf0191bd4960a4a4eee79dcd0281d9272bd041807"


def test_prf_matches_scratch_oracle():
    rng = random.Random(1)
    # A pool of 100 keys drawn with repeats: each key recurs, often after
    # more than 64 other keys, so per-key state is reused and rebuilt.
    pool = [rng.randbytes(16) for _ in range(100)]
    pool += [rng.randbytes(n) for n in (0, 1, 63, 64, 65, 200)]
    for i in range(2000):
        key = pool[i % len(pool)] if i % 3 else rng.choice(pool)
        data = rng.randbytes(rng.randrange(0, 64))
        assert prf(key, data) == scratch_prf(key, data)


def test_kdf_frozen_vectors():
    k_amf = Key(K_AMF_RAW, KeyKind.K_AMF)
    assert kdf(k_amf, "NASenc").octets.hex() == VEC_NASENC
    assert kdf(k_amf, "NASint").octets.hex() == VEC_NASINT
    assert kdf(k_amf, b"NASenc").kind is KeyKind.K_NASENC
    assert kdf(k_amf, b"NASint").kind is KeyKind.K_NASINT


def test_kdf_deterministic_and_separated():
    k_amf = Key(K_AMF_RAW, KeyKind.K_AMF)
    assert kdf(k_amf, "NASenc") == kdf(k_amf, "NASenc")
    assert kdf(k_amf, "NASenc").octets != kdf(k_amf, "NASint").octets


def test_chain_gate():
    k_amf = Key(K_AMF_RAW, KeyKind.K_AMF)
    with pytest.raises(ChainViolation):
        kdf(k_amf, "AUSF")
    perm = Key(b"\x01" * 16, KeyKind.K_PERMANENT)
    # K_permanent has no kdf children at all.
    for label in ("AUSF", "SEAF", "AMF", "NASenc", "NASint", "CK"):
        with pytest.raises(ChainViolation):
            kdf(perm, label)


def test_serving_chain_frozen_vectors():
    ck = Key(b"\x11" * 16, KeyKind.CK)
    ik = Key(b"\x22" * 16, KeyKind.IK)
    k_ausf, k_seaf, k_amf = derive_k_amf(ck, ik)
    assert prf(ck.octets, ik.octets).hex() == VEC_CHAIN_ROOT
    assert k_ausf.octets.hex() == VEC_K_AUSF
    assert k_seaf.octets.hex() == VEC_K_SEAF
    assert k_amf.octets.hex() == VEC_K_AMF
    assert k_amf.kind is KeyKind.K_AMF


def test_derive_k_amf_kind_gate():
    ck = Key(b"\x11" * 16, KeyKind.CK)
    with pytest.raises(WrongKeyKind):
        derive_k_amf(ck, ck)


def test_auth_vector_frozen():
    k = Key(b"\xab" * 16, KeyKind.K_PERMANENT)
    v = gen_auth_vector(k, 1)
    assert v.rand.hex() == VEC_RAND
    assert v.autn.hex() == VEC_AUTN
    assert v.xres.hex() == VEC_XRES
    assert v.ck.octets.hex() == VEC_CK
    assert v.ik.octets.hex() == VEC_IK
    assert autn_seq(v.autn) == 1


def test_auth_vectors_distinct_per_seq():
    k = Key(b"\xab" * 16, KeyKind.K_PERMANENT)
    v1, v2 = gen_auth_vector(k, 1), gen_auth_vector(k, 2)
    # Independently recompute both AUTN tags with the scratch oracle.
    for seq, v in ((1, v1), (2, v2)):
        seq8 = seq.to_bytes(8, "big")
        assert v.rand == scratch_prf(k.octets, b"RAND" + seq8)
        assert v.autn == seq8 + scratch_prf(k.octets, b"AUTN" + v.rand + seq8)[:8]
    assert v1.rand != v2.rand
    assert v1.autn != v2.autn


def test_check_autn_accepts_and_rejects():
    k = Key(b"\xab" * 16, KeyKind.K_PERMANENT)
    other = Key(b"\xcd" * 16, KeyKind.K_PERMANENT)
    v = gen_auth_vector(k, 7)
    got = check_autn(k, v.rand, v.autn)
    assert isinstance(got, AkaResult)
    assert got.res == v.xres
    assert got.ck == v.ck and got.ik == v.ik
    with pytest.raises(MacFailure):
        check_autn(other, v.rand, v.autn)
    with pytest.raises(MacFailure):
        check_autn(k, v.rand, v.autn[:-1] + bytes([v.autn[-1] ^ 1]))


def test_senc_frozen_vector_and_shape():
    k = Key(b"\x44" * 16, KeyKind.K_NASENC)
    ct = senc(b"registration", k)
    assert ct.hex() == VEC_SENC
    assert len(ct) == KEY_LEN + len(b"registration")
    # Deterministic: same (key, plaintext) -> same bytes.
    assert senc(b"registration", k) == ct


def test_senc_matches_a_per_byte_keystream_reference():
    rng = random.Random(4)
    k = Key(rng.randbytes(16), KeyKind.K_NASENC)
    for n in range(80):  # zero to five keystream blocks
        m = rng.randbytes(n)
        siv = scratch_prf(k.octets, b"SIV" + m)
        stream = b"".join(scratch_prf(k.octets, b"KS" + siv + i.to_bytes(4, "big")) for i in range(5))
        assert senc(m, k) == siv + bytes(a ^ b for a, b in zip(m, stream))


def test_senc_round_trip_and_wrong_key():
    rng = random.Random(2)
    k1 = Key(rng.randbytes(16), KeyKind.K_NASENC)
    k2 = Key(rng.randbytes(16), KeyKind.K_NASENC)
    for _ in range(300):
        m = rng.randbytes(rng.randrange(0, 80))
        ct = sdec_roundtrip = senc(m, k1)
        assert sdec(ct, k1) == m
        with pytest.raises(DecryptFailure):
            sdec(sdec_roundtrip, k2)


def test_sdec_detects_tampering():
    rng = random.Random(3)
    k = Key(rng.randbytes(16), KeyKind.K_NASENC)
    m = b"fast registration ies"
    ct = senc(m, k)
    for i in range(len(ct)):
        bad = bytearray(ct)
        bad[i] ^= 0x80
        with pytest.raises(DecryptFailure):
            sdec(bytes(bad), k)


def test_mac_frozen_vector():
    k = Key(b"\x33" * 16, KeyKind.K_NASINT)
    assert mac_compute(b"hello-ies", b"abc", k).hex() == VEC_MAC
    assert len(mac_compute(b"hello-ies", b"abc", k)) == MAC_LEN


def test_mac_verify_and_kind_gate():
    k = Key(b"\x33" * 16, KeyKind.K_NASINT)
    tag = mac_compute(b"ies", b"cont", k)
    assert mac_verify(b"ies", b"cont", k, tag)
    assert not mac_verify(b"ies", b"cont2", k, tag)
    enc = Key(b"\x33" * 16, KeyKind.K_NASENC)
    with pytest.raises(WrongKeyKind):
        mac_compute(b"ies", b"cont", enc)


def test_mac_framing_unambiguous():
    # Moving a byte across the ies/container boundary must change the tag.
    k = Key(b"\x55" * 16, KeyKind.K_NASINT)
    assert mac_compute(b"ab", b"c", k) != mac_compute(b"a", b"bc", k)


def test_key_separation_bulk():
    # >= 10^4 randomized cases: distinct labels under one key never collide,
    # and package prf always equals the scratch oracle.
    rng = random.Random(4)
    for _ in range(10_000):
        key = rng.randbytes(16)
        l1 = rng.randbytes(rng.randrange(1, 12))
        l2 = rng.randbytes(rng.randrange(1, 12))
        o1, o2 = prf(key, l1), prf(key, l2)
        assert o1 == scratch_prf(key, l1)
        if l1 != l2:
            assert o1 != o2
        else:
            assert o1 == o2


def test_mac_bit_flip_bulk():
    rng = random.Random(5)
    k = Key(rng.randbytes(16), KeyKind.K_NASINT)
    for _ in range(2_000):
        ies = rng.randbytes(rng.randrange(1, 24))
        cont = rng.randbytes(rng.randrange(1, 24))
        tag = mac_compute(ies, cont, k)
        flipped = bytearray(tag)
        flipped[rng.randrange(MAC_LEN)] ^= 1 << rng.randrange(8)
        assert not mac_verify(ies, cont, k, bytes(flipped))


def test_key_length_enforced():
    with pytest.raises(ValueError):
        Key(b"\x00" * 15, KeyKind.K_AMF)
    with pytest.raises(ValueError):
        Key(b"\x00" * 17, KeyKind.K_AMF)
