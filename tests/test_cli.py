"""Command line tests driven through main(argv) in process."""

from __future__ import annotations

import pytest

from fastreg.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_profiles_list(capsys):
    code, out, err = run_cli(capsys, "profiles", "list")
    assert code == 0 and not err
    lines = out.splitlines()
    assert len(lines) == 3
    assert any(l.startswith("OP-II") and "usim_hardened=yes" in l for l in lines)


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


def test_run_countermeasure_flag_blocks_the_attack(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--attack", "S2", "--countermeasure", "iccid_binding=on"
    )
    assert code == 0
    assert "succeeded false" in out


def test_prerequisite_failure_exits_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--attack",
        "one-tap-bypass",
        "--countermeasure",
        "iccid_binding=on",
    )
    assert code == 1
    assert out.startswith("prerequisite failed:")


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


def test_unknown_variant_exits_two(capsys):
    code, _, err = run_cli(capsys, "run", "--attack", "S2", "--variant", "stale")
    assert code == 2 and "variant" in err


def test_downstream_attacks_take_no_variant(tmp_path, capsys):
    code, out, err = run_cli(capsys, "run", "--attack", "one-tap-bypass", "--variant", "bogus")
    assert code == 2 and not out and "takes no variant" in err
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("[scenario]\nattack = location-spoofing\nvariant = reconnect\n", encoding="ascii")
    code, out, err = run_cli(capsys, "run", str(cfg))
    assert code == 2 and not out and "takes no variant" in err


@pytest.mark.parametrize(
    "command, edit, fragment",
    [
        ("card", lambda t: t.replace("pin 1234 ", "pin 12 "), "line 5: bad pin line: PIN must be 4..8 digits"),
        ("card", lambda t: t.replace("retries=3", "retries=x"), "line 5: bad pin line"),
        ("card", lambda t: t.replace("supi ", "supi \u00e9"), "line 2: non-ASCII byte 0xc3"),
        ("run", lambda t: "[scenario]\n# caf\u00e9\n", "line 2: non-ASCII byte 0xc3"),
    ],
    ids=("short-pin", "retries-not-an-integer", "card-non-ascii", "config-non-ascii"),
)
def test_bad_input_files_exit_two_with_a_line_number(tmp_path, capsys, command, edit, fragment):
    image = tmp_path / "card.txt"
    assert run_cli(capsys, "card", "save", str(image))[0] == 0
    bad = tmp_path / "bad.txt"
    bad.write_text(edit(image.read_text(encoding="ascii")), encoding="utf-8")
    argv = ("card", "load", str(bad)) if command == "card" else ("run", str(bad))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and fragment in err
