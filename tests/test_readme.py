"""README names only what the command line has: every `--flag` it mentions is a
flag of some `sslcrop` subcommand, and the keys it lists as config-file only are
exactly the settings that no subcommand takes as a flag."""

import argparse
import re
from pathlib import Path

from sslcrop import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def parser_flags() -> set[str]:
    """Every option string of every subcommand of `cli.build_parser()`."""
    parser = cli.build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for sub in subcommands.choices.values() for flag in sub._option_string_actions}


def test_every_flag_readme_names_is_a_flag_of_a_subcommand():
    # pip's flags in the install block (`--no-build-isolation`) are not sslcrop's
    text = "\n".join(line for line in README.splitlines() if not line.startswith("pip "))
    named = set(re.findall(r"--[a-z][a-z0-9-]*", text))
    assert {"--drop-leading", "--finetune-mode", "--contrastive"} <= named
    assert named - parser_flags() == set()


def test_readme_config_file_only_keys_are_the_settings_without_a_flag():
    listed = set(re.findall(r"`(\w+)`", re.search(r"config-file only: (.*?)\.\n", README, re.S).group(1)))
    flags = parser_flags()
    unflagged = {row.key for row in cli.SETTINGS if "--" + row.key.replace("_", "-") not in flags}
    assert listed == unflagged
    assert all(not row.flag for row in cli.SETTINGS if row.key in listed)


def test_readme_names_only_subcommands_the_parser_has():
    named = set(re.findall(r"\bsslcrop ([a-z][a-z-]*)", README))
    table = README.split("| subcommand | files |", 1)[1].split("\n\n", 1)[0]
    in_table = {word for cell in re.findall(r"^\| ([^|]*) \|", table, re.M)
                for word in re.findall(r"`([a-z][a-z-]*)", cell)}
    assert {"run", "matrix"} <= named and {"run", "pretrain", "eval"} <= in_table
    assert (named | in_table) - set(cli.COMMANDS) == set()
