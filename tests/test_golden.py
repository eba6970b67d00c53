"""The golden oracle's runs reach every flag: scripts/golden.py is only as strong as the flags it varies."""

import os
import sys

from fwcibench import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"))

import golden  # noqa: E402


def test_every_flag_a_command_reads_is_off_its_default_in_some_golden_run():
    parser = cli._build_parser()
    commands = next(action for action in parser._actions if action.dest == "command").choices
    varied = {name: set() for name in commands}
    for argv in golden.runs("input", "input-60x", "input-quoted").values():
        args = parser.parse_args(argv)
        sub = commands[args.command]
        varied[args.command].update(dest for dest, _ in args.echo if getattr(args, dest) != sub.get_default(dest))
    unvaried = {
        name: sorted({dest for dest, _ in sub.get_default("echo")} - {"out"} - varied[name])
        for name, sub in commands.items()
    }
    assert unvaried == {name: [] for name in commands}, "flags no golden run of the command sets off its default"
