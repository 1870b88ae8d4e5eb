"""Crash-safe file replacement.

:func:`atomic_write` is the one write path for every file that must
never be seen half-written: campaign checkpoints
(:func:`repro.resilience.checkpoint.save_checkpoint`), merged shard
reports (:func:`repro.reliability.sharded.write_report`) and the
compacted request journal
(:meth:`repro.service.journal.RequestJournal.compact`).
"""

from __future__ import annotations

import os


def atomic_write(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` so a reader never sees a torn file.

    The bytes go to ``<path>.tmp`` first, are flushed and fsync'd, and
    only then renamed over ``path``. A crash at any instant leaves
    either the old file or the new one, plus at worst a stale
    ``<path>.tmp`` (:func:`repro.resilience.checkpoint.discard_torn_temp`
    relies on that name). If the write raises, the temp file is removed
    and ``path`` is untouched.
    """
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise


__all__ = ["atomic_write"]
