"""Simulator-grade cryptographic primitives for the registration model.

Everything is built from one keyed PRF (HMAC-SHA-256 truncated to 16
octets): the labeled key-derivation chain, deterministic authenticated
encryption in SIV style, NAS message authentication, and the
challenge/response vectors used by the AKA exchange.  These are stand-ins
for MILENAGE/SNOW/AES; the registration and attack logic depends only on
key possession and key separation, never on the concrete algorithms.

`prf` is HMAC-SHA-256 computed per RFC 2104 over `hashlib`: the SHA-256
states after the K xor ipad and K xor opad blocks are computed once per key
and kept in a bounded memo of the 64 most recent keys, so a key reused
across a session (the NAS keys of a stored context) skips that setup.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass
from enum import Enum

KEY_LEN = 16
MAC_LEN = 8
RES_LEN = 8
SEQ_LEN = 8
AUTN_LEN = SEQ_LEN + MAC_LEN


class ChainViolation(Exception):
    """Raised when kdf is asked for a (parent kind, label) pair outside the chain."""


class DecryptFailure(Exception):
    """Raised when sdec is given a ciphertext produced under a different key, or tampered."""


class WrongKeyKind(Exception):
    """Raised when an operation receives a key of the wrong derivation kind."""


class MacFailure(Exception):
    """Raised when an AUTN or NAS MAC check fails."""


class KeyKind(Enum):
    K_PERMANENT = "K_permanent"
    CK = "CK"
    IK = "IK"
    K_AUSF = "K_AUSF"
    K_SEAF = "K_SEAF"
    K_AMF = "K_AMF"
    K_NASENC = "K_NASenc"
    K_NASINT = "K_NASint"


@dataclass(frozen=True)
class Key:
    """A 16-octet key tagged with its position in the derivation chain."""

    octets: bytes
    kind: KeyKind

    def __post_init__(self) -> None:
        if len(self.octets) != KEY_LEN:
            raise ValueError("keys are %d octets, got %d" % (KEY_LEN, len(self.octets)))


@dataclass(frozen=True)
class AuthVector:
    """Network-side authentication vector for one AKA round."""

    rand: bytes
    autn: bytes
    xres: bytes
    ck: Key
    ik: Key


@dataclass(frozen=True)
class AkaResult:
    """Card-side output of a successful AUTN check."""

    res: bytes
    ck: Key
    ik: Key


_BLOCK = 64  # SHA-256 input block size, B in RFC 2104
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@functools.lru_cache(maxsize=64)
def _hmac_pads(key: bytes) -> tuple[hashlib._Hash, hashlib._Hash]:
    """SHA-256 states that have absorbed K xor ipad and K xor opad; callers copy, never update."""
    if len(key) > _BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK, b"\x00")
    return hashlib.sha256(key.translate(_IPAD)), hashlib.sha256(key.translate(_OPAD))


def prf(key: bytes, data: bytes) -> bytes:
    """The single keyed PRF everything else is built from."""
    inner_pad, outer_pad = _hmac_pads(key)
    inner = inner_pad.copy()
    inner.update(data)
    outer = outer_pad.copy()
    outer.update(inner.digest())
    return outer.digest()[:KEY_LEN]


# Admissible (parent kind, label) -> child kind.  Any other pair is a
# chain violation; K_permanent has no kdf children (CK/IK only via AKA).
_CHAIN: dict[tuple[KeyKind, bytes], KeyKind] = {
    (KeyKind.CK, b"AUSF"): KeyKind.K_AUSF,
    (KeyKind.K_AUSF, b"SEAF"): KeyKind.K_SEAF,
    (KeyKind.K_SEAF, b"AMF"): KeyKind.K_AMF,
    (KeyKind.K_AMF, b"NASenc"): KeyKind.K_NASENC,
    (KeyKind.K_AMF, b"NASint"): KeyKind.K_NASINT,
}


def kdf(parent: Key, label: bytes | str) -> Key:
    """Derive a child key; the (parent kind, label) pair must be on the chain."""
    raw = label.encode("ascii") if isinstance(label, str) else label
    child_kind = _CHAIN.get((parent.kind, raw))
    if child_kind is None:
        raise ChainViolation("no %s child under label %r" % (parent.kind.value, raw))
    return Key(prf(parent.octets, raw), child_kind)


def derive_k_amf(ck: Key, ik: Key) -> tuple[Key, Key, Key]:
    """Run the serving-network chain CK||IK -> K_AUSF -> K_SEAF -> K_AMF.

    CK and IK are folded into a single 16-octet chain root via prf(CK, IK)
    so the downstream steps stay arity-1 labeled derivations.
    """
    if ck.kind is not KeyKind.CK or ik.kind is not KeyKind.IK:
        raise WrongKeyKind("derive_k_amf wants (CK, IK), got (%s, %s)" % (ck.kind.value, ik.kind.value))
    root = Key(prf(ck.octets, ik.octets), KeyKind.CK)
    k_ausf = kdf(root, b"AUSF")
    k_seaf = kdf(k_ausf, b"SEAF")
    k_amf = kdf(k_seaf, b"AMF")
    return k_ausf, k_seaf, k_amf


def nas_keys(k_amf: Key) -> tuple[Key, Key]:
    """Derive the (encryption, integrity) NAS key pair from K_AMF."""
    if k_amf.kind is not KeyKind.K_AMF:
        raise WrongKeyKind("nas_keys wants K_AMF, got %s" % k_amf.kind.value)
    return kdf(k_amf, b"NASenc"), kdf(k_amf, b"NASint")


def _keystream(key: bytes, siv: bytes, length: int) -> bytes:
    prefix = b"KS" + siv
    blocks = range(-(-length // KEY_LEN))
    return b"".join([prf(key, prefix + n.to_bytes(4, "big")) for n in blocks])[:length]


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def senc(plaintext: bytes, key: Key) -> bytes:
    """Deterministic authenticated encryption: siv || (plaintext XOR keystream).

    Deterministic on purpose: equal (key, plaintext) must give equal
    ciphertext so replayed containers are byte-identical on the air.
    """
    if key.kind is not KeyKind.K_NASENC:
        raise WrongKeyKind("senc wants K_NASenc, got %s" % key.kind.value)
    siv = prf(key.octets, b"SIV" + plaintext)
    body = _xor(plaintext, _keystream(key.octets, siv, len(plaintext)))
    return siv + body


def sdec(ciphertext: bytes, key: Key) -> bytes:
    """Invert senc; raises DecryptFailure on wrong key or tampering."""
    if key.kind is not KeyKind.K_NASENC:
        raise WrongKeyKind("sdec wants K_NASenc, got %s" % key.kind.value)
    if len(ciphertext) < KEY_LEN:
        raise DecryptFailure("ciphertext shorter than its tag")
    siv, body = ciphertext[:KEY_LEN], ciphertext[KEY_LEN:]
    plaintext = _xor(body, _keystream(key.octets, siv, len(body)))
    if not hmac.compare_digest(prf(key.octets, b"SIV" + plaintext), siv):
        raise DecryptFailure("tag mismatch: wrong key or tampered ciphertext")
    return plaintext


def mac_compute(ies: bytes, container: bytes, key: Key) -> bytes:
    """8-octet NAS MAC over the cleartext IEs and the ciphered container."""
    if key.kind is not KeyKind.K_NASINT:
        raise WrongKeyKind("mac_compute wants K_NASint, got %s" % key.kind.value)
    data = b"MAC" + len(ies).to_bytes(4, "big") + ies + container
    return prf(key.octets, data)[:MAC_LEN]


def mac_verify(ies: bytes, container: bytes, key: Key, tag: bytes) -> bool:
    return hmac.compare_digest(mac_compute(ies, container, key), tag)


def _aka_outputs(k: Key, rand: bytes) -> AkaResult:
    """RES, CK and IK for one challenge; both sides of AKA derive them here."""
    return AkaResult(
        res=prf(k.octets, b"RES" + rand)[:RES_LEN],
        ck=Key(prf(k.octets, b"CK" + rand), KeyKind.CK),
        ik=Key(prf(k.octets, b"IK" + rand), KeyKind.IK),
    )


def gen_auth_vector(k: Key, seq: int) -> AuthVector:
    """Build the network-side vector for sequence number seq.

    Deterministic per (k, seq); distinct seq values give distinct vectors.
    """
    if k.kind is not KeyKind.K_PERMANENT:
        raise WrongKeyKind("gen_auth_vector wants K_permanent, got %s" % k.kind.value)
    seq8 = seq.to_bytes(SEQ_LEN, "big")
    rand = prf(k.octets, b"RAND" + seq8)
    autn = seq8 + prf(k.octets, b"AUTN" + rand + seq8)[:MAC_LEN]
    out = _aka_outputs(k, rand)
    return AuthVector(rand=rand, autn=autn, xres=out.res, ck=out.ck, ik=out.ik)


def check_autn(k: Key, rand: bytes, autn: bytes) -> AkaResult:
    """Card-side AUTN check; returns (RES, CK, IK) or raises MacFailure."""
    if k.kind is not KeyKind.K_PERMANENT:
        raise WrongKeyKind("check_autn wants K_permanent, got %s" % k.kind.value)
    if len(autn) != AUTN_LEN:
        raise MacFailure("malformed AUTN")
    seq8, tag = autn[:SEQ_LEN], autn[SEQ_LEN:]
    expect = prf(k.octets, b"AUTN" + rand + seq8)[:MAC_LEN]
    if not hmac.compare_digest(expect, tag):
        raise MacFailure("AUTN does not verify under this K")
    return _aka_outputs(k, rand)


def autn_seq(autn: bytes) -> int:
    """Sequence number carried by an AUTN (cleartext in this simulator)."""
    return int.from_bytes(autn[:SEQ_LEN], "big")
