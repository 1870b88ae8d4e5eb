"""Conformance test for the process exit-code contract.

Every CLI entry point speaks the one vocabulary defined in
:mod:`repro.exitcodes`: 0 ok, 1 hard error, 2 usage, 3 degraded.
Each class below pins one code to a real command invocation.
"""

import json
import socket

import pytest

from repro import cli
from repro.exitcodes import (
    EXIT_DEGRADED,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_USAGE,
)


class TestContract:
    def test_values(self):
        assert EXIT_OK == 0
        assert EXIT_ERROR == 1
        assert EXIT_USAGE == 2
        assert EXIT_DEGRADED == 3

    def test_cli_aliases_share_the_contract(self):
        # The command-specific names are readings of the shared codes,
        # not a second vocabulary.
        assert cli.EXIT_UNCORRECTABLE == EXIT_ERROR
        assert cli.EXIT_INCOMPLETE_SHARDS == EXIT_DEGRADED

    def test_usage_matches_argparse(self):
        # argparse exits 2 on its own; EXIT_USAGE must agree with it.
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus-command"])
        assert exc.value.code == EXIT_USAGE


class TestExitOk:
    def test_clean_command_exits_zero(self, capsys):
        assert cli.main(["add", "1", "2", "3"]) == EXIT_OK
        capsys.readouterr()


class TestExitUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--ops", "0"],
            ["serve", "--queue-capacity", "0"],
            ["serve", "--high-reserve", "-1"],
            ["serve", "--retry-attempts", "0"],
            ["serve", "--breaker-open-seconds", "0"],
            ["serve", "--default-budget-s", "0"],
            ["serve", "--profile", "storm:not_a_field=1"],
            # Unknown positional values, checked while parsing.
            ["mc", "divisions"],
            ["trace", "bogus"],
            ["loadbench", "--profile", "bogusmix", "--no-history"],
            ["campaign", "--shards", "1", "--inject-worker-crash", "bad"],
            # Operands the 64-track demo system cannot take.
            ["add", "-5", "3"],
            ["mult", "-3", "4"],
            ["add", "1", "99999999999999999999999"],
            # Flags the command never reads.
            ["table1", "--ops", "0"],
            ["serve", "--trials", "3"],
            ["bench", "--metrics-json", "m.json"],
            # Same range as campaign's --checkpoint-every.
            ["mc", "--checkpoint-every", "0"],
            # Values the library rejects only after the command started.
            ["campaign", "--storm-ops", "-5"],
            ["serve", "--port", "70000"],
            # More shards than there is work to split.
            ["campaign", "--ops", "2", "--shards", "4"],
            ["mc", "--trials", "2", "--shards", "4"],
        ],
    )
    def test_bad_invocations_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()


class TestExitError:
    def test_serve_bind_failure_exits_one(self, capsys):
        # Occupy a port, then ask serve to bind it.
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            code = cli.main(["serve", "--port", str(port)])
        finally:
            blocker.close()
        assert code == EXIT_ERROR
        assert "serve failed" in capsys.readouterr().err


class TestExitDegraded:
    def test_incomplete_shards_exit_three(self, tmp_path, capsys):
        journal = tmp_path / "journal"
        code = cli.main(
            ["campaign", "--ops", "40", "--shards", "2",
             "--fault-rate", "0.01", "--journal", str(journal),
             "--max-shard-retries", "0", "--json",
             "--inject-worker-crash", "1:30:kill-always"]
        )
        assert code == EXIT_DEGRADED
        document = json.loads(capsys.readouterr().out)
        # Degraded means partial-but-named: the report says exactly
        # which shards are missing.
        assert document["exit_status"] == EXIT_DEGRADED
        assert document["incomplete_shards"] == [1]
