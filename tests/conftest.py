"""Shared fixtures for the test suite: laptop-scale configs and traces."""

import os
import sys
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.data.trace import SyntheticDataset, make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import ModelConfig, tiny_config

_DEV_SHM = "/dev/shm"


def _shm_segments() -> set:
    """Names of the POSIX shared-memory segments currently alive."""
    try:
        return set(os.listdir(_DEV_SHM))
    except OSError:
        return set()


@pytest.fixture
def shm_leak_check():
    """Assert the test leaks no shared-memory segments.

    Snapshots ``/dev/shm`` before the test and fails if new ``psm_``
    segments (Python's ``multiprocessing.shared_memory`` prefix) survive
    it — the acceptance check for crash/mid-publish cleanup.  Skips where
    ``/dev/shm`` is unavailable (non-Linux).
    """
    if not (sys.platform.startswith("linux") and os.path.isdir(_DEV_SHM)):
        pytest.skip("shared-memory leak check requires /dev/shm")
    before = _shm_segments()
    yield
    leaked = {
        name
        for name in _shm_segments() - before
        if name.startswith("psm_")
    }
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture
def retrack_segments():
    """A function that hands shared-memory segments back to this
    process's resource tracker.

    Attaching a published segment outside a forked worker unregisters it
    from the tracker, as a spawned worker would; the parent's later
    ``unlink`` unregisters it again, and the tracker prints a
    ``KeyError`` traceback.  Call the function on the segments before
    unlinking them so the two balance.  Registration is a set, so a
    segment that was never attached is unaffected.
    """

    def retrack(segments):
        for segment in segments:
            resource_tracker.register(segment._name, "shared_memory")

    return retrack


@pytest.fixture
def rng():
    """Deterministic RNG for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_cfg() -> ModelConfig:
    """Structurally complete, laptop-scale model config."""
    return tiny_config()


@pytest.fixture
def small_cfg() -> ModelConfig:
    """Slightly larger functional config exercising duplicates and misses."""
    return tiny_config(
        rows_per_table=400, batch_size=8, lookups_per_table=3, num_tables=2
    )


@pytest.fixture
def hardware():
    """Default (paper) hardware spec."""
    return DEFAULT_HARDWARE


@pytest.fixture
def small_dataset(small_cfg) -> SyntheticDataset:
    """Medium-locality functional dataset with dense features and labels."""
    return make_dataset(small_cfg, "medium", seed=7, num_batches=24, with_dense=True)


@pytest.fixture
def id_only_dataset(small_cfg) -> SyntheticDataset:
    """Medium-locality ID-only dataset for cache-behaviour tests."""
    return make_dataset(small_cfg, "medium", seed=7, num_batches=24)
