"""Make the oracle helpers importable regardless of pytest's import mode, and
give the dataset writer and reader tests their shared fixtures."""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fedsim import data  # noqa: E402  (after the path above)


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count that save_dataset and load_dataset see, and
    optionally load_dataset's bytes per reader.

    The count is read from os.sched_getaffinity, so patching it runs the
    forked paths even on a one-CPU machine.
    """
    def use(k: int, floor: int | None = None) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        if floor is not None:
            monkeypatch.setattr(data, "_BYTES_PER_READER", floor)
    return use


@pytest.fixture
def forked(monkeypatch):
    """A list that gains one entry per process data._fork_range starts (None
    where one could not start)."""
    started = []
    fork = data._fork_range

    def counting(*args, **kwargs):
        proc, part = fork(*args, **kwargs)
        started.append(proc)
        return proc, part

    monkeypatch.setattr(data, "_fork_range", counting)
    return started
