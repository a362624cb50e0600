"""Command line front end.

    fastreg run [config] [--attack S1|S2]
                [--profile OP-I] [--seed N] [--variant NAME]
                [--countermeasure NAME=on|off ...]
                [--trace-out FILE] [--report-out FILE]
    fastreg matrix [--seed N] [--report-out FILE]
    fastreg card save PATH [--profile OP-I] [--seed N] [--supi IMSI]
    fastreg card load PATH [--out FILE]
    fastreg profiles list

`profiles list` prints NAME toggle=on|off ..., in the names that
`--countermeasure` takes.  An input error, such as a file that cannot be
read or written, exits 2 with one `error:` line and nothing on stdout:
output files are written before any result is printed.  A reader that
closes stdout early (`fastreg run | head -1`) ends the run with exit 1
and no message.  Identical arguments always produce byte-identical
trace and report files.
"""

from __future__ import annotations

import argparse
import os
import sys

from .attacks import SCENARIOS, VICTIM_SUPI, UnknownScenario, matrix_lines, run_scenario, run_table_matrix
from .config import SCENARIO_KEYS, ConfigError, parse_config
from .profiles import (
    BUILTIN_PROFILES,
    TOGGLES,
    UnknownCountermeasure,
    countermeasures_from_pairs,
    get_profile,
)
from .sim import SimEnv
from .usim import CardFormatError, card_from_text, card_to_text, is_imsi


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as out:
        out.write(text)


def _write_lines(path: str, lines: list[str]) -> None:
    _write_text(path, "\n".join(lines) + "\n")


def _read_ascii(path: str, error: type[Exception]) -> str:
    """The file's text; `error` names the line of a non-ASCII byte."""
    with open(path, "rb") as src:
        data = src.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise error("line %d: non-ASCII byte 0x%02x" % (line, data[err.start])) from None


def _parse_cm_flags(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for raw in pairs:
        name, sep, value = raw.partition("=")
        if not sep:
            raise UnknownCountermeasure("--countermeasure wants NAME=on|off, got %r" % raw)
        out[name.strip()] = value.strip()
    return out


def _cmd_run(args: argparse.Namespace) -> int:
    run = parse_config(_read_ascii(args.config, ConfigError)) if args.config is not None else {}
    run |= {k: v for k in SCENARIO_KEYS if (v := getattr(args, k)) is not None}
    run["cm"] = run.get("cm", {}) | countermeasures_from_pairs(_parse_cm_flags(args.countermeasure))
    report = run_scenario(**run)
    lines = report.to_lines()
    trace = report.env.trace_lines()
    if args.trace_out:
        _write_lines(args.trace_out, trace)
    if args.report_out:
        _write_lines(args.report_out, lines)
    print("\n".join([*lines, "", "trace:", *trace]))
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    rows = run_table_matrix(args.seed)
    lines = matrix_lines(rows)
    if args.report_out:
        _write_lines(args.report_out, lines)
    print("\n".join(lines))
    return 0


def _cmd_card_save(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    env = SimEnv(profile, args.seed)
    _, card = env.provision_subscriber(args.supi)
    _write_text(args.path, card_to_text(card))
    print("wrote %s (iccid %s, supi %s)" % (args.path, card.iccid, card.supi))
    return 0


def _cmd_card_load(args: argparse.Namespace) -> int:
    card = card_from_text(_read_ascii(args.path, CardFormatError))
    if args.out:
        _write_text(args.out, card_to_text(card))
    print("iccid %s" % card.iccid)
    print("supi %s" % card.supi)
    print("seq %d" % card.seq)
    print(
        "pin enabled=%s retries=%d/%d locked=%s"
        % (card.pin.enabled, card.pin.retries_left, card.pin.retry_limit, card.pin.locked)
    )
    print("supports_5g %s  programmable %s" % (card.holds_context("5G"), card.programmable))
    for fid in sorted(card.files):
        rule, body = card.files[fid]
        print(
            "file %04X read=%s update=%s %d bytes"
            % (fid, rule.read.value, rule.update.value, len(body))
        )
    if args.out:
        print("re-saved to %s" % args.out)
    return 0


def _cmd_profiles(_: argparse.Namespace) -> int:
    for p in BUILTIN_PROFILES.values():
        pairs = ["%s=%s" % (t, "on" if getattr(p, t) else "off") for t in TOGGLES]
        print("%-6s %s" % (p.name, " ".join(pairs)))
    return 0


def _imsi(value: str) -> str:
    """argparse type for --supi: an IMSI, 1 to 15 ASCII digits."""
    if not is_imsi(value):
        raise argparse.ArgumentTypeError("wants 1-15 ASCII digits, got %r" % value)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastreg",
        description="Desk-scale model of cellular fast registration and its impersonation attacks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one attack scenario")
    run_p.add_argument("config", nargs="?", help="scenario config file")
    run_p.add_argument("--attack", choices=tuple(SCENARIOS))
    run_p.add_argument("--profile", choices=tuple(BUILTIN_PROFILES))
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--variant")
    run_p.add_argument(
        "--countermeasure",
        action="append",
        default=[],
        metavar="NAME=on|off",
        help="toggle a countermeasure (repeatable)",
    )
    run_p.add_argument("--trace-out", metavar="FILE")
    run_p.add_argument("--report-out", metavar="FILE")
    run_p.set_defaults(fn=_cmd_run)

    matrix_p = sub.add_parser("matrix", help="run the per-profile verdict matrix")
    matrix_p.add_argument("--seed", type=int, default=0)
    matrix_p.add_argument("--report-out", metavar="FILE")
    matrix_p.set_defaults(fn=_cmd_matrix)

    card_p = sub.add_parser("card", help="card image tools")
    card_sub = card_p.add_subparsers(dest="card_command", required=True)
    save_p = card_sub.add_parser("save", help="provision a card and save its image")
    save_p.add_argument("path")
    save_p.add_argument("--profile", choices=tuple(BUILTIN_PROFILES), default="OP-I")
    save_p.add_argument("--seed", type=int, default=0)
    save_p.add_argument("--supi", type=_imsi, default=VICTIM_SUPI)
    save_p.set_defaults(fn=_cmd_card_save)
    load_p = card_sub.add_parser("load", help="parse a card image and print a summary")
    load_p.add_argument("path")
    load_p.add_argument("--out", metavar="FILE", help="re-save the parsed image")
    load_p.set_defaults(fn=_cmd_card_load)

    profiles_p = sub.add_parser("profiles", help="operator profile tools")
    profiles_sub = profiles_p.add_subparsers(dest="profiles_command", required=True)
    list_p = profiles_sub.add_parser("list", help="list built-in profiles")
    list_p.set_defaults(fn=_cmd_profiles)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader went away (`fastreg run | head -1`): not an input
        # error.  Point stdout at the null device so the flush at exit
        # stays quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, CardFormatError, UnknownCountermeasure, UnknownScenario, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
