"""Fixtures for the fault-injection suite.

The fixture trace is fully deterministic (no RNG) so every test can
reason about exactly which chunk holds which window:

* two cores (0 and 1), 24 windows each, 8 samples per window, saved
  chunked with ``chunk_size=32`` → 6 chunks of exactly 32 samples per
  core, chunk *k* covering windows ``4k .. 4k+3``;
* core 0 runs items 1–6 round-robin (window *w* holds item
  ``w % 6 + 1``), core 1 runs items 11–16, so item ids never collide
  across cores;
* every sample lands inside its window and maps to a known symbol, so
  the clean trace has zero unmapped / unknown-ip samples — any loss a
  fault causes is visible in exact counts.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.core.options import IngestOptions
from repro.core.records import SwitchRecords
from repro.core.streaming import ingest_trace
from repro.core.symbols import SymbolTable
from repro.core.tracefile import save_trace
from repro.machine.pebs import SampleArrays
from repro.runtime.actions import SwitchKind

CHUNK = 32
N_WINDOWS = 24
PER_WINDOW = 8
ITEMS_PER_CORE = 6
SAMPLES_PER_CORE = N_WINDOWS * PER_WINDOW  # 192 = 6 chunks of 32


def item_of_window(w: int, core: int = 0) -> int:
    return (w % ITEMS_PER_CORE) + 1 + 10 * core


def build_symtab() -> SymbolTable:
    return SymbolTable.from_ranges(
        {
            "rx": (0x1000, 0x2000),
            "work": (0x2000, 0x3000),
            "tx": (0x3000, 0x4000),
        }
    )


def fixture_parts():
    """The fixture trace's ``(samples, switches, symtab)``, in memory."""
    symtab = build_symtab()
    samples = {}
    switches = {}
    for core in (0, 1):
        rec = SwitchRecords(core)
        ts_list: list[int] = []
        ip_list: list[int] = []
        t = 1_000 + core * 1_000_000
        for w in range(N_WINDOWS):
            item = item_of_window(w, core)
            start, end = t, t + 900
            rec.append(start, item, SwitchKind.ITEM_START)
            rec.append(end, item, SwitchKind.ITEM_END)
            for s in range(PER_WINDOW):
                ts_list.append(start + 50 + s * 100)
                ip_list.append(0x1000 + 0x1000 * (s % 3) + 8 * w)
            t = end + 300
        samples[core] = SampleArrays(
            ts=np.asarray(ts_list, dtype=np.int64),
            ip=np.asarray(ip_list, dtype=np.int64),
            tag=np.full(len(ts_list), -1, dtype=np.int64),
        )
        switches[core] = rec
    return samples, switches, symtab


def build_fixture_trace(path, *, checksums: bool = True) -> None:
    samples, switches, symtab = fixture_parts()
    save_trace(
        path,
        samples,
        switches,
        symtab,
        meta={"fixture": "faults"},
        chunk_size=CHUNK,
        compress=False,
        checksums=checksums,
    )


@pytest.fixture(scope="session")
def clean_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("faults") / "clean.npz"
    build_fixture_trace(path)
    return path


@pytest.fixture(scope="session")
def clean_result(clean_path):
    return ingest_trace(
        clean_path, options=IngestOptions(workers=1, chunk_size=CHUNK)
    )


@pytest.fixture
def trace_copy(clean_path, tmp_path):
    """A throwaway copy of the clean container for in-place corruption."""
    dst = tmp_path / "trace.npz"
    shutil.copy(clean_path, dst)
    return dst
