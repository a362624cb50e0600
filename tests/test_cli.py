"""Command line tests driven through main(argv) in process."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fastreg
from fastreg import cli
from fastreg.attacks import run_scenario
from fastreg.cli import main
from fastreg.profiles import BUILTIN_PROFILES, TOGGLES, OperatorProfile, countermeasures_from_pairs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_profiles_list(capsys):
    code, out, err = run_cli(capsys, "profiles", "list")
    assert code == 0 and not err
    lines = out.splitlines()
    assert len(lines) == 3
    assert any(l.startswith("OP-II ") and "usim_hardening=on" in l for l in lines)


def test_profiles_and_countermeasures_share_one_vocabulary(capsys):
    assert OperatorProfile.__slots__[1:] == TOGGLES
    _, out, _ = run_cli(capsys, "profiles", "list")
    for line in out.splitlines():
        name, *pairs = line.split()
        settings = dict(pair.split("=") for pair in pairs)
        # Every listed toggle and value is one --countermeasure accepts, and
        # applying the whole line as a toggle set reproduces the profile.
        cm = countermeasures_from_pairs(settings)
        layered = OperatorProfile(name).with_toggles(cm)
        assert [getattr(layered, t) for t in TOGGLES] == [getattr(BUILTIN_PROFILES[name], t) for t in TOGGLES]


def test_a_toggle_set_sets_only_the_toggles_it_names():
    base = BUILTIN_PROFILES["OP-II"]
    assert base.with_toggles({}) is base
    layered = base.with_toggles({"nondefault_pin": True, "usim_hardening": False})
    assert layered.name == "OP-II" and layered.nondefault_pin and not layered.usim_hardening
    assert [getattr(layered, t) for t in TOGGLES[2:]] == [getattr(base, t) for t in TOGGLES[2:]]
    with pytest.raises(TypeError, match="wishes"):
        OperatorProfile("OP-I").with_toggles({"wishes": True})


@pytest.mark.parametrize("value", ["off", 1, None])
def test_a_toggle_set_holds_only_bools(value):
    with pytest.raises(TypeError, match="toggle iccid_binding wants a bool, got %r" % (value,)):
        OperatorProfile("OP-I").with_toggles({"iccid_binding": value})
    with pytest.raises(TypeError, match="iccid_binding"):
        run_scenario("S2", "OP-I", 9, {"iccid_binding": value})


def test_run_with_no_config_and_no_flags_takes_run_scenarios_defaults(capsys):
    code, out, _ = run_cli(capsys, "run")
    assert code == 0
    assert out.splitlines()[:4] == ["scenario S2", "profile OP-I", "seed 0", "variant default"]
    flags = ("--attack", "S2", "--profile", "OP-I", "--seed", "0", "--variant", "default")
    assert run_cli(capsys, "run", *flags)[1] == out


def test_run_prints_report_then_trace(capsys):
    code, out, _ = run_cli(capsys, "run", "--attack", "S1", "--profile", "OP-I", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "scenario S1"
    assert "succeeded true" in lines
    assert "trace:" in lines
    trace_at = lines.index("trace:")
    assert any("registration-request-fast" in l for l in lines[trace_at:])


def test_run_writes_byte_identical_outputs(tmp_path, capsys):
    paths = []
    for tag in ("one", "two"):
        trace = tmp_path / ("trace-%s.txt" % tag)
        report = tmp_path / ("report-%s.txt" % tag)
        code, _, _ = run_cli(
            capsys,
            "run",
            "--attack",
            "S2",
            "--seed",
            "5",
            "--trace-out",
            str(trace),
            "--report-out",
            str(report),
        )
        assert code == 0
        paths.append((trace.read_bytes(), report.read_bytes()))
    assert paths[0] == paths[1]
    assert paths[0][0].endswith(b"\n") and paths[0][1].endswith(b"\n")


def test_run_merges_config_file_and_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "[scenario]\nattack = S1\nprofile = OP-I\nseed = 6\n", encoding="ascii"
    )
    code, out, _ = run_cli(capsys, "run", str(cfg))
    assert code == 0 and "succeeded true" in out
    # Same config, but the hardened operator forced in from the flag side.
    code, out, _ = run_cli(capsys, "run", str(cfg), "--profile", "OP-II")
    assert code == 0 and "succeeded false" in out
    assert "denied" in out
    # A toggle from the flag side overrides the file's of the same name.
    cfg.write_text(cfg.read_text(encoding="ascii") + "[countermeasures]\nnondefault_pin = on\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "run", str(cfg))
    assert code == 0 and "succeeded false" in out
    code, out, _ = run_cli(capsys, "run", str(cfg), "--countermeasure", "nondefault_pin=off")
    assert code == 0 and "succeeded true" in out


def test_run_countermeasure_flag_blocks_the_attack(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--attack", "S2", "--countermeasure", "iccid_binding=on"
    )
    assert code == 0
    assert "succeeded false" in out


def test_matrix_report(tmp_path, capsys):
    report = tmp_path / "matrix.txt"
    code, out, _ = run_cli(capsys, "matrix", "--seed", "0", "--report-out", str(report))
    assert code == 0
    text = report.read_text(encoding="ascii")
    assert out.rstrip("\n") == text.rstrip("\n")
    rows = text.splitlines()
    assert rows[0].startswith("profile")
    assert rows[1].split() == ["OP-I", "yes", "yes", "yes", "yes", "yes"]
    assert rows[2].split() == ["OP-II", "no", "yes", "yes", "yes", "yes"]
    assert rows[3].split() == ["OP-III", "yes", "yes", "yes", "yes", "yes"]


def test_card_save_and_load_round_trip(tmp_path, capsys):
    image = tmp_path / "card.txt"
    code, out, _ = run_cli(capsys, "card", "save", str(image), "--seed", "2")
    assert code == 0 and out.startswith("wrote ")
    resaved = tmp_path / "card2.txt"
    code, out, _ = run_cli(capsys, "card", "load", str(image), "--out", str(resaved))
    assert code == 0
    assert "supi 460110123456789" in out
    assert "file 6F07" in out
    assert resaved.read_bytes() == image.read_bytes()


def test_card_load_skips_comment_and_blank_lines(tmp_path, capsys):
    image = tmp_path / "card.txt"
    assert run_cli(capsys, "card", "save", str(image))[0] == 0
    text = image.read_text(encoding="ascii")
    noted = tmp_path / "noted.txt"
    noted.write_text("# a saved card\n\n" + text.replace("\nseq ", "\n   \n  # key sequence\nseq "), encoding="ascii")
    resaved = tmp_path / "resaved.txt"
    assert run_cli(capsys, "card", "load", str(noted), "--out", str(resaved))[0] == 0
    assert resaved.read_bytes() == image.read_bytes()


def test_error_exits_two(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("[scenario]\nattack = S9\n", encoding="ascii")
    code, _, err = run_cli(capsys, "run", str(bad_cfg))
    assert code == 2 and "line 2" in err

    code, _, err = run_cli(capsys, "run", str(tmp_path / "missing.cfg"))
    assert code == 2 and "error:" in err

    code, _, err = run_cli(capsys, "run", "--countermeasure", "nonsense=on")
    assert code == 2 and "unknown countermeasure" in err

    code, _, err = run_cli(capsys, "run", "--countermeasure", "iccid_binding")
    assert code == 2 and "NAME=on|off" in err

    bad_card = tmp_path / "bad-card.txt"
    bad_card.write_text("not a card\n", encoding="ascii")
    code, _, err = run_cli(capsys, "card", "load", str(bad_card))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("card", "save", "{card}/nested.txt"),
        ("card", "load", "{card}", "--out", "{dir}"),
        ("run", "--attack", "S2", "--trace-out", "{dir}"),
        ("matrix", "--report-out", "{dir}"),
    ],
    ids=("card-save-under-a-file", "card-out-directory", "trace-out-directory", "report-out-directory"),
)
def test_unwritable_output_paths_exit_two(tmp_path, capsys, argv):
    card = tmp_path / "card.txt"
    assert run_cli(capsys, "card", "save", str(card))[0] == 0
    paths = {"dir": str(tmp_path), "card": str(card)}
    code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert not out
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_permission_error_exits_two(tmp_path, capsys, monkeypatch):
    card = tmp_path / "card.txt"
    assert run_cli(capsys, "card", "save", str(card))[0] == 0

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    for argv in (("card", "load", str(card)), ("run", str(card))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out
        assert err == "error: [Errno 13] Permission denied: %r\n" % str(card)


@pytest.mark.parametrize("supi", ["", "a b", "\u00e9", "12345678901234x", "1234567890123456", "\u0661\u0662"])
def test_card_save_rejects_a_supi_that_is_not_an_imsi(tmp_path, capsys, supi):
    image = tmp_path / "card.txt"
    with pytest.raises(SystemExit) as exit_:
        main(["card", "save", str(image), "--supi", supi])
    assert exit_.value.code == 2
    assert "--supi" in capsys.readouterr().err
    assert not image.exists()


@pytest.mark.parametrize("supi", ["0", "001010000000001"])
def test_card_saved_with_any_imsi_loads_back(tmp_path, capsys, supi):
    image = tmp_path / "card.txt"
    assert run_cli(capsys, "card", "save", str(image), "--supi", supi)[0] == 0
    code, out, _ = run_cli(capsys, "card", "load", str(image))
    assert code == 0 and "supi %s" % supi in out.splitlines()


def test_unknown_variant_exits_two(capsys):
    code, _, err = run_cli(capsys, "run", "--attack", "S2", "--variant", "stale")
    assert code == 2 and "variant" in err


def test_a_config_variant_its_attack_lacks_exits_two_when_the_run_starts(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("[scenario]\nattack = S2\nvariant = stale\n", encoding="ascii")
    code, out, err = run_cli(capsys, "run", str(cfg))
    assert code == 2 and not out
    assert err.startswith("error: unknown S2 variant 'stale'")
    assert run_cli(capsys, "run", str(cfg), "--attack", "S1")[0] == 0


def test_removed_downstream_attack_names_exit_two(tmp_path, capsys):
    # The effects are matrix columns read from a base report, not attacks.
    for name in ("one-tap-bypass", "location-spoofing"):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--attack", name])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "--attack: invalid choice" in err and name in err
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("[scenario]\nseed = 1\nattack = %s\n" % name, encoding="ascii")
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == 2 and not out
        assert err.startswith("error: line 3: unknown attack %r (have: S1, S2)" % name)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=("buffered", "unbuffered"))
def test_a_closed_stdout_exits_one_with_nothing_on_stderr(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    src = Path(fastreg.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "fastreg.cli", "run", "--attack", "S2"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (1, b"")


@pytest.mark.parametrize(
    "command, edit, fragment",
    [
        ("card", lambda t: t.replace("pin 1234 ", "pin 12 "), "line 5: bad pin line: PIN must be 4..8 digits"),
        ("card", lambda t: t.replace("retries=3", "retries=x"), "line 5: bad pin line"),
        ("card", lambda t: t.replace("retries=3", "retries=-1"), "line 5: bad pin line"),
        ("card", lambda t: t.replace("supi ", "supi \u00e9"), "line 2: non-ASCII byte 0xc3"),
        ("card", lambda t: re.sub("(?m)^supi .*$", "supi hello", t), "line 2: bad supi line: wants 1-15 ASCII digits"),
        ("card", lambda t: re.sub("(?m)^iccid .*$", "iccid zz", t), "line 1: bad iccid line: wants ASCII digits"),
        ("card", lambda t: t.replace("seq 0", "seq -5"), "line 4: bad seq line: wants 0 or more"),
        ("card", lambda t: t + "4f01 PIN PIN\n4f03 PIN PIN\n", "line 6: bad flags line: supports_5g=0, but 4F03 is present"),
        ("card", lambda t: t.replace("supports_5g=0", "supports_5g=1"), "line 6: bad flags line: supports_5g=1, but 4F03 is absent"),
        ("card", lambda t: t.replace("enabled=0", "enabled=7"), "line 5: bad pin line: enabled wants 0 or 1, got '7'"),
        ("card", lambda t: t.replace("locked=0", "locked=2"), "line 5: bad pin line: locked wants 0 or 1, got '2'"),
        ("card", lambda t: t.replace("supports_5g=0", "supports_5g=no"), "line 6: bad flags line: supports_5g wants 0 or 1, got 'no'"),
        ("card", lambda t: t.replace("programmable=0", "programmable=yes"), "line 6: bad flags line: programmable wants 0 or 1, got 'yes'"),
        ("run", lambda t: "[scenario]\n# caf\u00e9\n", "line 2: non-ASCII byte 0xc3"),
        ("run", lambda t: "[scenario]\nseed = 1\nvariant = nope\n", "line 3: unknown variant 'nope'"),
        ("card", lambda t: re.sub("(?m)^supi .*$", "supi 460110123456780", t), "line 2: bad supi line: differs from the 6F07 body"),
        ("card", lambda t: re.sub("(?m)^6f07 .*\n", "", t), "line 2: bad supi line: the card has no 6F07 file"),
        ("card", lambda t: t.replace("seq 0\n", "seq 0\nbogus line here\n"), "line 5: unknown header line 'bogus'"),
        ("card", lambda t: t.replace("seq 0\n", "seq 0\nseq 0\n"), "line 5: duplicate header key 'seq'"),
        ("card", lambda t: t.replace("seq 0\n", ""), "error: missing header line 'seq'"),
        ("card", lambda t: t.replace("retries=3", "retries="), "line 5: bad pin line: expected retries=<value>, got 'retries='"),
        ("card", None, "Is a directory"),
        ("run", None, "Is a directory"),
    ],
    ids=(
        "short-pin",
        "retries-not-an-integer",
        "retries-negative",
        "card-non-ascii",
        "supi-not-digits",
        "iccid-not-digits",
        "seq-negative",
        "5g-files-without-flag",
        "5g-flag-without-files",
        "pin-enabled-not-a-flag",
        "pin-locked-not-a-flag",
        "supports-5g-not-a-flag",
        "programmable-not-a-flag",
        "config-non-ascii",
        "config-variant-unknown",
        "supi-differs-from-6f07",
        "no-6f07",
        "unknown-header-line",
        "duplicate-header-key",
        "missing-header-line",
        "retries-empty",
        "card-directory",
        "config-directory",
    ),
)
def test_bad_input_files_exit_two_with_a_line_number(tmp_path, capsys, command, edit, fragment):
    image = tmp_path / "card.txt"
    assert run_cli(capsys, "card", "save", str(image))[0] == 0
    bad = tmp_path / "bad.txt"
    if edit is None:  # a directory where the file should be
        bad.mkdir()
    else:
        bad.write_text(edit(image.read_text(encoding="ascii")), encoding="utf-8")
    argv = ("card", "load", str(bad)) if command == "card" else ("run", str(bad))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and fragment in err
