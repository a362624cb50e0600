"""USIM card emulation: elementary files, access conditions, PIN, AKA.

File layout mirrors the handful of files the registration procedure
touches:

    6F07  IMSI            subscriber permanent identity
    6FE3  EPSLOCI         4G location info (GUTI)
    6FE4  EPSNSC          4G NAS security context
    4F01  5GS3GPPLOCI     5G location info (only on 5G-capable cards)
    4F03  5GS3GPPNSC      5G NAS security context (only on 5G-capable cards)

A card holds a generation's context iff it carries that generation's NSC
file (TS 31.102); the handset then keeps the context there and nowhere
else.  Whether 4F01/4F03 exist is decided once, when the card is issued.

Each file carries one read and one update condition (ALW / PIN / ADM /
NEV).  Every file access, the handset's context reads and writes
included, is a READ or UPDATE through apdu_execute on a session, so the
table alone decides who may read a context.  A baseband session carries
ADM for the one card it was opened on; a reader session never does.
"""

from __future__ import annotations

from enum import Enum
from random import Random

from . import crypto
from .crypto import Key, KeyKind
from .record import fields_equal

EF_IMSI = 0x6F07
EF_EPSLOCI = 0x6FE3
EF_EPSNSC = 0x6FE4
EF_5GLOCI = 0x4F01
EF_5GNSC = 0x4F03

DEFAULT_RETRY_LIMIT = 3

LOCI_FILES = {"4G": EF_EPSLOCI, "5G": EF_5GLOCI}
NSC_FILES = {"4G": EF_EPSNSC, "5G": EF_5GNSC}


class CardFormatError(ValueError):
    """Raised by card_from_text with the offending line number."""


class AccessLevel(Enum):
    ALW = "ALW"
    PIN = "PIN"
    ADM = "ADM"
    NEV = "NEV"


class AccessRule:
    __slots__ = ("read", "update")

    def __init__(self, read: AccessLevel, update: AccessLevel) -> None:
        self.read = read
        self.update = update

    __eq__ = fields_equal


class PinState:
    __slots__ = ("value", "enabled", "retries_left", "retry_limit", "locked")

    def __init__(
        self,
        value: str,
        enabled: bool,
        retries_left: int,
        retry_limit: int = DEFAULT_RETRY_LIMIT,
        locked: bool = False,
    ) -> None:
        if not (value.isdigit() and 4 <= len(value) <= 8):
            raise ValueError("PIN must be 4..8 digits")
        if not 0 <= retries_left <= retry_limit or retry_limit < 1:
            raise ValueError("need 0 <= retries_left <= retry_limit and retry_limit >= 1")
        if locked != (retries_left == 0):
            raise ValueError("locked iff retries_left == 0")
        self.value = value
        self.enabled = enabled
        self.retries_left = retries_left
        self.retry_limit = retry_limit
        self.locked = locked

    __eq__ = fields_equal


class CardSession:
    __slots__ = ("pin_verified", "adm_card")

    def __init__(self, pin_verified: bool = False, adm_card: CardImage | None = None) -> None:
        self.pin_verified = pin_verified
        self.adm_card = adm_card  # ADM holds on this card only


class CardImage:
    """One smart card: identity, permanent key, files, PIN state.

    A programmable card differs only in how it was built; once
    instantiated it enforces its access conditions like any other card.
    """

    __slots__ = ("iccid", "supi", "k_permanent", "files", "pin", "seq", "programmable")

    def __init__(
        self,
        iccid: str,
        supi: str,
        k_permanent: Key,
        files: dict[int, tuple[AccessRule, bytes]],
        pin: PinState,
        seq: int = 0,
        programmable: bool = False,
    ) -> None:
        if k_permanent.kind is not KeyKind.K_PERMANENT:
            raise ValueError("card key must be K_permanent kind")
        self.iccid = iccid
        self.supi = supi
        self.k_permanent = k_permanent
        self.files = files
        self.pin = pin
        self.seq = seq
        self.programmable = programmable

    __eq__ = fields_equal

    def holds_context(self, generation: str) -> bool:
        """True iff the card carries the generation's NSC file, so the context lives here."""
        return NSC_FILES[generation] in self.files

    def open_session(self) -> CardSession:
        """Reader session: never holds the ADM credential."""
        return CardSession()

    def open_baseband_session(self) -> CardSession:
        """Baseband session: holds ADM for this card and no other."""
        return CardSession(adm_card=self)

    def run_aka(self, rand: bytes, autn: bytes) -> crypto.AkaResult:
        """Card-side AKA; updates the stored sequence number on success."""
        result = crypto.check_autn(self.k_permanent, rand, autn)
        self.seq = max(self.seq, crypto.autn_seq(autn))
        return result


def _digits(rng: Random, n: int) -> str:
    """n decimal digits, drawn as n calls of `rng.randrange(10)` draw them.

    That is CPython's `_randbelow_with_getrandbits(10)`: take 4 bits and
    draw again while they are 10 or more.  Calling `getrandbits` directly
    skips randrange's argument handling and makes the same draws.
    """
    getrandbits = rng.getrandbits
    digits = []
    while len(digits) < n:
        d = getrandbits(4)
        if d < 10:
            digits.append("0123456789"[d])
    return "".join(digits)


def standard_card(
    rng: Random,
    supi: str,
    k_permanent: Key,
    *,
    pin_value: str = "1234",
    pin_enabled: bool = False,
    hardened: bool = False,
    supports_5g_context: bool = False,
) -> CardImage:
    """Operator-issued card with the standard file set.

    hardened raises the read condition of the security-context files from
    PIN to ADM, which is the card-side countermeasure against reader
    extraction.  supports_5g_context is the issuance policy: it writes
    4F01/4F03, and so makes the card the home of a 5G context.
    """
    iccid = "8986" + _digits(rng, 15)
    nsc_read = AccessLevel.ADM if hardened else AccessLevel.PIN
    files: dict[int, tuple[AccessRule, bytes]] = {
        EF_IMSI: (AccessRule(AccessLevel.PIN, AccessLevel.ADM), supi.encode("ascii")),
        EF_EPSLOCI: (AccessRule(AccessLevel.PIN, AccessLevel.PIN), b""),
        EF_EPSNSC: (AccessRule(nsc_read, AccessLevel.PIN), b""),
    }
    if supports_5g_context:
        files[EF_5GLOCI] = (AccessRule(AccessLevel.PIN, AccessLevel.PIN), b"")
        files[EF_5GNSC] = (AccessRule(nsc_read, AccessLevel.PIN), b"")
    return CardImage(
        iccid=iccid,
        supi=supi,
        k_permanent=k_permanent,
        files=files,
        pin=PinState(pin_value, pin_enabled, DEFAULT_RETRY_LIMIT, DEFAULT_RETRY_LIMIT),
    )


def programmable_card(rng: Random, supi: str, files: dict[int, bytes]) -> CardImage:
    """Writable blank card: the given files are installed with ALW conditions."""
    iccid = "8999" + _digits(rng, 15)
    k = Key(rng.randbytes(crypto.KEY_LEN), KeyKind.K_PERMANENT)
    table = {
        fid: (AccessRule(AccessLevel.ALW, AccessLevel.ALW), bytes(body))
        for fid, body in files.items()
    }
    return CardImage(
        iccid=iccid,
        supi=supi,
        k_permanent=k,
        files=table,
        pin=PinState("0000", False, DEFAULT_RETRY_LIMIT, DEFAULT_RETRY_LIMIT),
        programmable=True,
    )


class ApduCommand(Enum):
    READ = "READ"
    UPDATE = "UPDATE"


class Apdu:
    __slots__ = ("cmd", "file_id", "payload")

    def __init__(self, cmd: ApduCommand, file_id: int, payload: bytes = b"") -> None:
        self.cmd = cmd
        self.file_id = file_id
        self.payload = payload


class ApduStatus(Enum):
    OK = "OK"
    SECURITY_NOT_SATISFIED = "SECURITY_NOT_SATISFIED"
    FILE_NOT_FOUND = "FILE_NOT_FOUND"
    PIN_BLOCKED = "PIN_BLOCKED"


class ApduResponse:
    __slots__ = ("status", "payload")

    def __init__(self, status: ApduStatus, payload: bytes = b"") -> None:
        if status is not ApduStatus.OK and payload:
            raise ValueError("payload only travels on OK")
        self.status = status
        self.payload = payload


def _access_granted(card: CardImage, session: CardSession, level: AccessLevel) -> bool:
    if level is AccessLevel.ALW:
        return True
    if level is AccessLevel.PIN:
        if not card.pin.enabled:
            return True
        return session.pin_verified and not card.pin.locked
    if level is AccessLevel.ADM:
        return session.adm_card is card
    return False  # NEV


def verify_pin(card: CardImage, session: CardSession, candidate: str) -> ApduResponse:
    pin = card.pin
    if not pin.enabled:
        return ApduResponse(ApduStatus.OK)  # nothing to verify
    if pin.locked:
        return ApduResponse(ApduStatus.PIN_BLOCKED)
    if candidate == pin.value:
        session.pin_verified = True
        pin.retries_left = pin.retry_limit
        return ApduResponse(ApduStatus.OK)
    pin.retries_left -= 1
    if pin.retries_left == 0:
        pin.locked = True
        return ApduResponse(ApduStatus.PIN_BLOCKED)
    return ApduResponse(ApduStatus.SECURITY_NOT_SATISFIED)


def _refusal(card: CardImage, session: CardSession, cmd: ApduCommand, file_id: int) -> ApduStatus | None:
    """The status that refuses cmd on file_id in this session, or None if it may run."""
    entry = card.files.get(file_id)
    if entry is None:
        return ApduStatus.FILE_NOT_FOUND
    level = entry[0].read if cmd is ApduCommand.READ else entry[0].update
    if _access_granted(card, session, level):
        return None
    if card.pin.locked and level is AccessLevel.PIN:
        return ApduStatus.PIN_BLOCKED
    return ApduStatus.SECURITY_NOT_SATISFIED


def apdu_execute(card: CardImage, session: CardSession, apdu: Apdu) -> ApduResponse:
    """Single dispatch point for file commands; `_refusal` decides every access."""
    refused = _refusal(card, session, apdu.cmd, apdu.file_id)
    if refused is not None:
        return ApduResponse(refused)
    rule, body = card.files[apdu.file_id]
    if apdu.cmd is ApduCommand.READ:
        return ApduResponse(ApduStatus.OK, body)
    card.files[apdu.file_id] = (rule, bytes(apdu.payload))
    return ApduResponse(ApduStatus.OK)


def store_context_files(
    card: CardImage, session: CardSession, loci: bytes, nsc: bytes, generation: str
) -> ApduStatus:
    """Write (loci, nsc) with UPDATEs, or neither.

    Both files' update conditions are checked before either is written, so
    a refused NSC never leaves a new GUTI beside the old context.  Returns
    OK, or the first refused or missing file's status.
    """
    writes = ((LOCI_FILES[generation], loci), (NSC_FILES[generation], nsc))
    for file_id, _ in writes:
        refused = _refusal(card, session, ApduCommand.UPDATE, file_id)
        if refused is not None:
            return refused
    for file_id, body in writes:
        apdu_execute(card, session, Apdu(ApduCommand.UPDATE, file_id, body))
    return ApduStatus.OK


def load_context_files(card: CardImage, session: CardSession, generation: str) -> tuple[bytes, bytes]:
    """Read (loci, nsc) with READs; a refused or missing file reads as empty."""
    loci = apdu_execute(card, session, Apdu(ApduCommand.READ, LOCI_FILES[generation])).payload
    nsc = apdu_execute(card, session, Apdu(ApduCommand.READ, NSC_FILES[generation])).payload
    return loci, nsc


def card_to_text(card: CardImage) -> str:
    """Serialize a card image to the line-oriented text format."""
    lines = [
        "iccid %s" % card.iccid,
        "supi %s" % card.supi,
        "k %s" % card.k_permanent.octets.hex(),
        "seq %d" % card.seq,
        "pin %s enabled=%d retries=%d limit=%d locked=%d"
        % (
            card.pin.value,
            card.pin.enabled,
            card.pin.retries_left,
            card.pin.retry_limit,
            card.pin.locked,
        ),
        "flags supports_5g=%d programmable=%d"
        % (card.holds_context("5G"), card.programmable),
    ]
    for fid in sorted(card.files):
        rule, body = card.files[fid]
        entry = "%04x %s %s" % (fid, rule.read.value, rule.update.value)
        if body:
            entry += " " + body.hex()
        lines.append(entry)
    return "\n".join(lines) + "\n"


def is_imsi(value: str) -> bool:
    """An IMSI as a card stores it: 1 to 15 ASCII digits."""
    return 1 <= len(value) <= 15 and value.isascii() and value.isdigit()


def _parse_kv(token: str, want: str) -> str:
    key, _, val = token.partition("=")
    if key != want or not val:
        raise CardFormatError("expected %s=<value>, got %r" % (want, token))
    return val


def _parse_flag(token: str, want: str) -> bool:
    val = _parse_kv(token, want)
    if val not in ("0", "1"):
        raise CardFormatError("%s wants 0 or 1, got %r" % (want, val))
    return val == "1"


def card_from_text(text: str) -> CardImage:
    """Parse the text format; strict, errors carry the line number."""
    header: dict[str, tuple[int, list[str]]] = {}
    files: dict[int, tuple[AccessRule, bytes]] = {}
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        first = tokens[0]
        if len(first) == 4 and all(c in "0123456789abcdefABCDEF" for c in first):
            if len(tokens) not in (3, 4):
                raise CardFormatError("line %d: file line wants <id> <read> <update> [body]" % n)
            try:
                read = AccessLevel[tokens[1]]
                update = AccessLevel[tokens[2]]
            except KeyError as exc:
                raise CardFormatError("line %d: unknown access condition %s" % (n, exc)) from None
            body = b""
            if len(tokens) == 4:
                try:
                    body = bytes.fromhex(tokens[3])
                except ValueError:
                    raise CardFormatError("line %d: bad body hex" % n) from None
            fid = int(first, 16)
            if fid in files:
                raise CardFormatError("line %d: duplicate file %04x" % (n, fid))
            files[fid] = (AccessRule(read, update), body)
        else:
            if first in header:
                raise CardFormatError("line %d: duplicate header key %r" % (n, first))
            header[first] = (n, tokens[1:])
    for want in ("iccid", "supi", "k", "seq", "pin", "flags"):
        if want not in header:
            raise CardFormatError("missing header line %r" % want)

    def parsed(name: str, parse, count: int = 1):
        """Header line `name`'s values through `parse`; errors carry its line number."""
        n, values = header[name]
        if len(values) != count:
            raise CardFormatError("line %d: %s line wants %d value(s)" % (n, name, count))
        try:
            return parse(*values)
        except ValueError as err:
            raise CardFormatError("line %d: bad %s line: %s" % (n, name, err)) from None

    def pin_state(value, enabled, retries, limit, locked) -> PinState:
        return PinState(
            value=value,
            enabled=_parse_flag(enabled, "enabled"),
            retries_left=int(_parse_kv(retries, "retries")),
            retry_limit=int(_parse_kv(limit, "limit")),
            locked=_parse_flag(locked, "locked"),
        )

    def flags(supports_5g, programmable) -> tuple[bool, bool]:
        return _parse_flag(supports_5g, "supports_5g"), _parse_flag(programmable, "programmable")

    def iccid_value(value: str) -> str:
        if not (value.isascii() and value.isdigit()):
            raise ValueError("wants ASCII digits, got %r" % value)
        return value

    def supi_value(value: str) -> str:
        if not is_imsi(value):
            raise ValueError("wants 1-15 ASCII digits, got %r" % value)
        return value

    def seq_value(value: str) -> int:
        seq = int(value)
        if seq < 0:
            raise ValueError("wants 0 or more, got %d" % seq)
        return seq

    iccid = parsed("iccid", iccid_value)
    supi = parsed("supi", supi_value)
    key = parsed("k", lambda k: Key(bytes.fromhex(k), KeyKind.K_PERMANENT))
    seq = parsed("seq", seq_value)
    pin = parsed("pin", pin_state, 5)
    supports_5g, programmable = parsed("flags", flags, 2)
    card = CardImage(iccid=iccid, supi=supi, k_permanent=key, files=files, pin=pin, seq=seq, programmable=programmable)
    if supports_5g != card.holds_context("5G"):
        raise CardFormatError(
            "line %d: bad flags line: supports_5g=%d, but 4F03 is %s"
            % (header["flags"][0], supports_5g, "absent" if supports_5g else "present")
        )
    return card
