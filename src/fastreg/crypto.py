"""Simulator-grade cryptographic primitives for the registration model.

Everything is built from one keyed PRF (HMAC-SHA-256 truncated to 16
octets): the labeled key-derivation chain, deterministic authenticated
encryption in SIV style, NAS message authentication, and the
challenge/response vectors used by the AKA exchange.  These are stand-ins
for MILENAGE/SNOW/AES; the registration and attack logic depends only on
key possession and key separation, never on the concrete algorithms.

`prf` is HMAC-SHA-256 computed per RFC 2104 over the interpreter's own
SHA-256 (`_sha2` on Python 3.12+, `_sha256` before), so the package never
loads OpenSSL's libcrypto; a build without those built-in hashes falls
back to `hashlib`.  The SHA-256 states after the K xor ipad and K xor opad
blocks are computed once per key and kept in a bounded memo of the 64 most
recent keys, so a key reused across a session (the NAS keys of a stored
context) skips that setup.

Every value is a pure function of its arguments, and the two ends of an
exchange evaluate the same functions on equal arguments: the card checks
the AUTN MAC and derives RES/CK/IK the network just derived, the handset
runs the K_AMF chain the network just ran, the receiver's `sdec` needs the
keystream and SIV the sender's `senc` just computed, and `mac_verify` the
MAC that `mac_compute` just produced.  So each such value is derived once,
in a private memo of a few entries keyed by every input octet (`_autn_mac`,
`_aka_outputs`, `_k_amf_chain`, `_nas_pair`, `_keystream`, `_siv`,
`_mac`); the public functions stay plain functions that check key kinds and
call them.  Only values are shared: every comparison still runs, a card
with another K misses the memo, and a failed check raises or returns False
each time it is made.

Memos live for one environment: `sim.SimEnv` calls `clear_memos()` when it
is built, which empties every memo listed in `_MEMOS`.  Within one
environment a hit is the other end of an exchange; across environments it
would only be a replay of old inputs, which would hide real work (a traced
replay of a benchmark unit would count no KDF calls for the AKA runs it
made).
"""

from __future__ import annotations

import functools
import sys
from _operator import _compare_digest as compare_digest  # what hmac.compare_digest is without OpenSSL
from enum import Enum

# Chosen by version, not by trying _sha2 first: a failed import searches
# every sys.path entry again each time the module is (re)imported.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # builds without built-in hashes
    from hashlib import sha256

from .record import Frozen, set_field

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


class Key(Frozen):
    """A 16-octet key tagged with its position in the derivation chain."""

    __slots__ = ("octets", "kind")

    def __init__(self, octets: bytes, kind: KeyKind) -> None:
        if len(octets) != KEY_LEN:
            raise ValueError("keys are %d octets, got %d" % (KEY_LEN, len(octets)))
        set_field(self, "octets", octets)
        set_field(self, "kind", kind)

    def __eq__(self, other) -> bool:
        if type(other) is not Key:
            return NotImplemented
        return self.octets == other.octets and self.kind is other.kind


class AuthVector(Frozen):
    """Network-side authentication vector for one AKA round."""

    __slots__ = ("rand", "autn", "xres", "ck", "ik")

    def __init__(self, rand: bytes, autn: bytes, xres: bytes, ck: Key, ik: Key) -> None:
        set_field(self, "rand", rand)
        set_field(self, "autn", autn)
        set_field(self, "xres", xres)
        set_field(self, "ck", ck)
        set_field(self, "ik", ik)


class AkaResult(Frozen):
    """Card-side output of a successful AUTN check."""

    __slots__ = ("res", "ck", "ik")

    def __init__(self, res: bytes, ck: Key, ik: Key) -> None:
        set_field(self, "res", res)
        set_field(self, "ck", ck)
        set_field(self, "ik", ik)


_BLOCK = 64  # SHA-256 input block size, B in RFC 2104
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


@functools.lru_cache(maxsize=64)
def _hmac_pads(key: bytes) -> tuple:
    """SHA-256 states that have absorbed K xor ipad and K xor opad; callers copy, never update."""
    if len(key) > _BLOCK:
        key = sha256(key).digest()
    key = key.ljust(_BLOCK, b"\x00")
    return sha256(key.translate(_IPAD)), sha256(key.translate(_OPAD))


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


# A receiver reads a value right after its sender computed it, so a few
# entries are enough; a bigger memo would only serve replays of old inputs.
_MEMO_SIZE = 8


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _k_amf_chain(ck: bytes, ik: bytes) -> tuple[Key, Key, Key]:
    root = Key(prf(ck, ik), KeyKind.CK)
    k_ausf = kdf(root, b"AUSF")
    k_seaf = kdf(k_ausf, b"SEAF")
    k_amf = kdf(k_seaf, b"AMF")
    return k_ausf, k_seaf, k_amf


def derive_k_amf(ck: Key, ik: Key) -> tuple[Key, Key, Key]:
    """Run the serving-network chain CK||IK -> K_AUSF -> K_SEAF -> K_AMF.

    CK and IK are folded into a single 16-octet chain root via prf(CK, IK)
    so the downstream steps stay arity-1 labeled derivations.
    """
    if ck.kind is not KeyKind.CK or ik.kind is not KeyKind.IK:
        raise WrongKeyKind("derive_k_amf wants (CK, IK), got (%s, %s)" % (ck.kind.value, ik.kind.value))
    return _k_amf_chain(ck.octets, ik.octets)


# 64 entries: a context rebuilt from stored bytes (the 4G handset re-reads
# its context from the card every round) reuses the pair of its K_AMF.
@functools.lru_cache(maxsize=64)
def _nas_pair(k_amf: bytes) -> tuple[Key, Key]:
    parent = Key(k_amf, KeyKind.K_AMF)
    return kdf(parent, b"NASenc"), kdf(parent, b"NASint")


def nas_keys(k_amf: Key) -> tuple[Key, Key]:
    """Derive the (encryption, integrity) NAS key pair from K_AMF."""
    if k_amf.kind is not KeyKind.K_AMF:
        raise WrongKeyKind("nas_keys wants K_AMF, got %s" % k_amf.kind.value)
    return _nas_pair(k_amf.octets)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _keystream(key: bytes, siv: bytes, length: int) -> bytes:
    prefix = b"KS" + siv
    blocks = range(-(-length // KEY_LEN))
    return b"".join([prf(key, prefix + n.to_bytes(4, "big")) for n in blocks])[:length]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _siv(key: bytes, plaintext: bytes) -> bytes:
    return prf(key, b"SIV" + plaintext)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _mac(key: bytes, ies: bytes, container: bytes) -> bytes:
    return prf(key, b"MAC" + len(ies).to_bytes(4, "big") + ies + container)[:MAC_LEN]


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def senc(plaintext: bytes, key: Key) -> bytes:
    """Deterministic authenticated encryption: siv || (plaintext XOR keystream).

    Deterministic on purpose: equal (key, plaintext) must give equal
    ciphertext so replayed containers are byte-identical on the air.
    """
    if key.kind is not KeyKind.K_NASENC:
        raise WrongKeyKind("senc wants K_NASenc, got %s" % key.kind.value)
    siv = _siv(key.octets, plaintext)
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
    if not compare_digest(_siv(key.octets, plaintext), siv):
        raise DecryptFailure("tag mismatch: wrong key or tampered ciphertext")
    return plaintext


def mac_compute(ies: bytes, container: bytes, key: Key) -> bytes:
    """8-octet NAS MAC over the cleartext IEs and the ciphered container."""
    if key.kind is not KeyKind.K_NASINT:
        raise WrongKeyKind("mac_compute wants K_NASint, got %s" % key.kind.value)
    return _mac(key.octets, ies, container)


def mac_verify(ies: bytes, container: bytes, key: Key, tag: bytes) -> bool:
    return compare_digest(mac_compute(ies, container, key), tag)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _autn_mac(k: bytes, rand: bytes, seq8: bytes) -> bytes:
    return prf(k, b"AUTN" + rand + seq8)[:MAC_LEN]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _aka_outputs(k: bytes, rand: bytes) -> AkaResult:
    """RES, CK and IK for one challenge; both sides of AKA derive them here."""
    return AkaResult(
        res=prf(k, b"RES" + rand)[:RES_LEN],
        ck=Key(prf(k, b"CK" + rand), KeyKind.CK),
        ik=Key(prf(k, b"IK" + rand), KeyKind.IK),
    )


def gen_auth_vector(k: Key, seq: int) -> AuthVector:
    """Build the network-side vector for sequence number seq.

    Deterministic per (k, seq); distinct seq values give distinct vectors.
    """
    if k.kind is not KeyKind.K_PERMANENT:
        raise WrongKeyKind("gen_auth_vector wants K_permanent, got %s" % k.kind.value)
    seq8 = seq.to_bytes(SEQ_LEN, "big")
    rand = prf(k.octets, b"RAND" + seq8)
    autn = seq8 + _autn_mac(k.octets, rand, seq8)
    out = _aka_outputs(k.octets, rand)
    return AuthVector(rand=rand, autn=autn, xres=out.res, ck=out.ck, ik=out.ik)


def check_autn(k: Key, rand: bytes, autn: bytes) -> AkaResult:
    """Card-side AUTN check; returns (RES, CK, IK) or raises MacFailure."""
    if k.kind is not KeyKind.K_PERMANENT:
        raise WrongKeyKind("check_autn wants K_permanent, got %s" % k.kind.value)
    if len(autn) != AUTN_LEN:
        raise MacFailure("malformed AUTN")
    seq8, tag = autn[:SEQ_LEN], autn[SEQ_LEN:]
    if not compare_digest(_autn_mac(k.octets, rand, seq8), tag):
        raise MacFailure("AUTN does not verify under this K")
    return _aka_outputs(k.octets, rand)


def autn_seq(autn: bytes) -> int:
    """Sequence number carried by an AUTN (cleartext in this simulator)."""
    return int.from_bytes(autn[:SEQ_LEN], "big")


# Every memo of this module; `clear_memos` gives them the lifetime of one
# environment (see the module docstring).
_MEMOS = (_hmac_pads, _k_amf_chain, _nas_pair, _keystream, _siv, _mac, _autn_mac, _aka_outputs)


def clear_memos() -> None:
    """Forget every memoised value, so nothing derived before is reused."""
    for memo in _MEMOS:
        memo.cache_clear()
