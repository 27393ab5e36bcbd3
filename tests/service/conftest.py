"""Fixtures for the ingestion-service suite.

The wire unit everywhere is the sealed-segment ``(record, bytes)`` pair,
so the suite is anchored on one deterministic fixture container (the
fault-injection suite's — exact counts, zero unmapped samples)
re-segmented into journal form once per session.
"""

from __future__ import annotations

import asyncio
import gc

import pytest

from repro.core.options import IngestOptions
from repro.service.daemon import DaemonConfig, IngestDaemon
from repro.service.sources import iter_journal_segments, journal_from_container
from repro.service.store import TraceStore
from repro.testing.faults import read_segment, write_segment
from tests.faults.conftest import build_fixture_trace


@pytest.fixture(scope="session")
def container_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("service") / "clean.npz"
    build_fixture_trace(path)
    return path


@pytest.fixture(scope="session")
def journal_dir(container_path, tmp_path_factory):
    """The fixture container re-segmented into PR 5 journal form."""
    work = tmp_path_factory.mktemp("service-journal")
    return journal_from_container(
        container_path, work, options=IngestOptions(chunk_size=96)
    )


@pytest.fixture(scope="session")
def segments(journal_dir):
    """The journal's sealed segments as a list of (record, bytes)."""
    return list(iter_journal_segments(journal_dir))


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "store")


def corrupt_covered_member(rec, data):
    """Return the segment bytes with one crc-covered value changed."""
    header, arrays = read_segment(data)
    name = next(n for n in sorted(rec["crc"]) if arrays[n].dtype.kind in "iufb")
    arr = arrays[name].copy()
    flat = arr.reshape(-1)
    flat[0] = flat[0] + 1 if arr.dtype.kind == "f" else flat[0] ^ 1
    return write_segment(header, {**arrays, name: arr})


def run_async(coro, timeout: float = 60.0):
    """Drive one service scenario on a fresh event loop (no plugin).

    The GC discipline is load-bearing: a crashed scenario abandons its
    socketpair transports in reference cycles, and their finalizers
    firing from an *implicit* GC pass inside numpy's npz-header ``ast``
    parse trip CPython 3.11's AST recursion-depth check — a spurious
    SystemError that kills an innocent daemon store task (or pytest's
    own compile).  Pinning collection to the scenario boundaries keeps
    finalizers out of the parser.
    """

    async def bounded():
        return await asyncio.wait_for(coro, timeout)

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return asyncio.run(bounded())
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()


@pytest.fixture
def daemon_factory(tmp_path):
    """Build (store, daemon) pairs over per-test roots; caller starts them."""
    counter = {"n": 0}

    def build(config: DaemonConfig | None = None, *, io=None, root=None):
        counter["n"] += 1
        store_root = root if root is not None else tmp_path / f"store{counter['n']}"
        store = TraceStore(store_root, io=io)
        return store, IngestDaemon(store, config)

    return build
