"""Every documented ``python -m repro`` command line still parses.

The command lines come from the CI workflow and from the CLI module's
own docstring. Each one has its backslash continuations joined, is
split the way a shell would split it (``shlex``), and is cut at the
first redirect or shell operator. The test only parses it; nothing
runs.
"""

import argparse
import pathlib
import re
import shlex

import pytest

from repro import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

_SHELL_OPERATORS = {"|", "||", "&&", ";", "&"}


def _invocations(text):
    """argv lists for each line of ``text`` that runs ``python -m repro``."""
    joined = re.sub(r"\\\n\s*", " ", text)
    for line in joined.splitlines():
        command = re.match(r"\s*python -m repro (.*)", line)
        if command is None:
            continue
        argv = []
        for token in shlex.split(command.group(1), comments=True):
            if token in _SHELL_OPERATORS or re.match(r"\d?[<>]", token):
                break
            argv.append(token)
        yield argv


CI_INVOCATIONS = list(_invocations(CI_WORKFLOW.read_text()))
DOC_INVOCATIONS = list(_invocations(cli.__doc__))


def _subcommands(parser):
    (action,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_sources_were_found():
    # An extraction that matches nothing would make the checks below
    # vacuous.
    assert len(CI_INVOCATIONS) >= 20
    assert len(DOC_INVOCATIONS) >= 20
    assert any(argv[:1] == ["profile"] for argv in CI_INVOCATIONS)


@pytest.mark.parametrize(
    "argv",
    CI_INVOCATIONS + DOC_INVOCATIONS,
    ids=lambda argv: " ".join(argv),
)
def test_documented_invocation_parses(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]
    assert callable(args.run)


def test_ci_profile_form_reaches_the_wrapped_command():
    args = cli.build_parser().parse_args(
        ["profile", "bench", "--repeats", "2", "--no-history",
         "--profile-interval-ms", "1", "--profile-out", "p.json",
         "--folded-out", "p.folded"]
    )
    assert args.run is cli._run_profile
    assert args.run_wrapped is cli._run_bench
    assert (args.wrapped, args.repeats, args.no_history) == (
        "bench", 2, True,
    )
    assert (args.profile_interval_ms, args.profile_out) == (1.0, "p.json")


TOP_LEVEL = sorted(_subcommands(cli.build_parser()))
NESTED = sorted(_subcommands(_subcommands(cli.build_parser())["profile"]))


def test_profile_wraps_every_other_command():
    assert NESTED == [name for name in TOP_LEVEL if name != "profile"]


@pytest.mark.parametrize(
    "argv",
    [[name, "--help"] for name in TOP_LEVEL]
    + [["profile", name, "--help"] for name in NESTED],
    ids=lambda argv: " ".join(argv),
)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 0
    assert "usage: repro" in capsys.readouterr().out
