"""Records: immutability of the frozen ones, no per-instance dict, a light import."""

from __future__ import annotations

import enum
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fastreg
from fastreg import attacks, channel, cli, config, crypto, equipment, network, profiles, record, sim, usim
from fastreg.crypto import Key, KeyKind

KEY = Key(bytes(16), KeyKind.CK)

# One instance of every immutable record, with a field to try.
FROZEN = [
    (channel.RegistrationRequestFast("guti-1", 0, 1, b"c", b"m"), "guti"),
    (channel._IdentityMessage("id", ("EA2",)), "identity"),
    (channel.RegistrationRequestInitial("id", ("EA2",)), "sec_caps"),
    (channel.IdentityRequest(), "mtype"),
    (channel.IdentityResponse("id", ("EA2",)), "identity"),
    (channel.AuthRequest(b"r", b"a"), "rand"),
    (channel.AuthResponse(b"r"), "res"),
    (channel.SecurityModeCommand(("EA2",), 0), "ngksi"),
    (channel.SecurityModeComplete(b"m"), "mac"),
    (channel.RegistrationAccept(b"c"), "ciphered"),
    (channel.RegistrationReject("cause"), "cause"),
    (channel.Deregistration("guti-1"), "guti"),
    (channel.Envelope(1, "a", "b", "BS-A", "a#0", channel.IdentityRequest()), "flow"),
    (channel.Event(1, "ue", "power_on", ()), "fields"),
    (KEY, "octets"),
    (crypto.AuthVector(b"r", b"a", b"x", KEY, KEY), "xres"),
    (crypto.AkaResult(b"r", KEY, KEY), "ck"),
    (profiles.OperatorProfile("OP-X"), "usim_hardening"),
    (profiles.Countermeasures(), "periodic_aka"),
]


@pytest.mark.parametrize("instance, field", FROZEN, ids=[type(r).__name__ for r, _ in FROZEN])
def test_frozen_records_refuse_assignment_and_deletion(instance, field):
    before = getattr(instance, field)
    with pytest.raises(AttributeError):
        setattr(instance, field, "changed")
    with pytest.raises(AttributeError):
        delattr(instance, field)
    assert getattr(instance, field) == before


def test_no_instance_of_a_package_class_has_a_dict():
    modules = (attacks, channel, cli, config, crypto, equipment, network, profiles, record, sim, usim)
    classes = [
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type)
        and obj.__module__ == module.__name__
        and not issubclass(obj, (BaseException, enum.Enum))
    ]
    assert len(classes) > 40
    assert [c.__name__ for c in classes if c.__dictoffset__] == []


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # pytest itself imports these, so only a fresh interpreter can tell.
    src = Path(fastreg.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import fastreg.cli, sys; print(' '.join(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules))))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


def test_running_the_matrix_loads_no_openssl_hashes():
    # crypto hashes with the interpreter's built-in SHA-256, not OpenSSL's.
    src = Path(fastreg.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import fastreg.cli, sys; fastreg.cli.main(['matrix']); "
        "print(' '.join(sorted({'hashlib', '_hashlib', 'hmac'} & set(sys.modules))))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1].strip() == ""
    assert out.stdout.startswith("profile")
