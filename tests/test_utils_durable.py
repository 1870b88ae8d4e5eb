"""Torn-write behaviour of the one atomic-write helper."""

import os

import pytest

from repro.utils import durable


@pytest.mark.parametrize("fails_at", ["fsync", "replace"])
def test_interrupted_write_leaves_the_old_file(
    tmp_path, monkeypatch, fails_at
):
    path = str(tmp_path / "state.json")
    durable.atomic_write(path, b"old")
    assert not os.path.exists(path + ".tmp")

    def crash(*args):
        raise OSError(f"simulated crash in {fails_at}")

    monkeypatch.setattr(durable.os, fails_at, crash)
    with pytest.raises(OSError, match="simulated crash"):
        durable.atomic_write(path, b"new bytes that never land")
    monkeypatch.undo()

    with open(path, "rb") as handle:
        assert handle.read() == b"old"
    assert not os.path.exists(path + ".tmp")

    durable.atomic_write(path, b"new")
    with open(path, "rb") as handle:
        assert handle.read() == b"new"
