"""Generator for the golden regression traces under ``tests/data/``.

The goldens pin the *exact* output of ``integrate()`` / ``breakdown()``
(and the merged multi-core view) so that any future change to the
integration hot path — vectorisation rework, chunking, parallelism —
must reproduce today's results bit for bit or fail loudly.

Run ``PYTHONPATH=src:. python tests/data/make_golden.py [NAME ...]`` to
regenerate the named goldens (all of them when no name is given): the
``.npz`` traces plus ``golden_expected.json`` for ``golden_a``..``c``.
Only do this when the output is *intended* to change; the whole point of
the goldens is that it never changes silently.  In particular the
checked-in ``golden_a``..``c`` were written by the version-1/2 writers
and are kept as the backward-compatibility corpus, so regenerate only
the one you mean to change.

The three traces exercise the paths that historically differ between
implementations:

* ``golden_a`` — one core, clean self-switching windows, plus samples
  outside every window (unmapped), unknown ips, and a sample exactly on
  a shared END/START boundary instant (assigned to the later window).
* ``golden_b`` — three cores with items migrating between cores, so the
  merged view must sum (item, function) pairs across shards.
* ``golden_c`` — timer-switching (multiple windows per item), a symbol
  name longer than 128 characters (regression for the old ``U128``
  truncation), saved in the version-2 chunked layout.

``golden_v4`` is the fault suite's fixture trace
(``tests/faults/conftest.py``) in the version-4 layout, stored
uncompressed so its bytes do not depend on the zlib build: today's
writer must reproduce it byte for byte.
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np

from repro.core.hybrid import integrate, merge_traces
from repro.core.records import SwitchRecords
from repro.core.symbols import SymbolTable
from repro.core.tracefile import save_trace
from repro.machine.pebs import SampleArrays
from repro.runtime.actions import SwitchKind

DATA_DIR = pathlib.Path(__file__).parent

#: >128 chars: would have been silently truncated by the old U128 dtype.
LONG_NAME = "ns::detail::" + "very_long_template_instantiation_" * 5 + "handler"


def _finish_samples(ts_list: list[int], ip_list: list[int]) -> SampleArrays:
    ts = np.asarray(ts_list, dtype=np.int64)
    ip = np.asarray(ip_list, dtype=np.int64)
    order = np.argsort(ts, kind="stable")
    return SampleArrays(
        ts=ts[order], ip=ip[order], tag=np.full(ts.shape[0], -1, dtype=np.int64)
    )


def _make_core(
    rng: np.random.Generator,
    core_id: int,
    symtab: SymbolTable,
    fn_names: list[str],
    item_plan: list[tuple[int, int]],
    *,
    t0: int = 1_000,
    unknown_ip: int | None = None,
    stray_every: int = 0,
    boundary_share_at: int = -1,
) -> tuple[SampleArrays, SwitchRecords]:
    """One core's synthetic switch log + samples.

    ``item_plan`` is ``[(item_id, n_windows)]`` in residency order;
    ``stray_every`` drops an out-of-window sample into every Nth gap;
    ``boundary_share_at`` makes window *i* end exactly where window
    *i + 1* starts, with a sample on the shared instant.
    """
    records = SwitchRecords(core_id)
    ts_list: list[int] = []
    ip_list: list[int] = []
    t = t0
    win_no = 0
    schedule = [(item, k) for item, n in item_plan for k in range(n)]
    for item_id, _ in schedule:
        start = t
        end = start + int(rng.integers(2_000, 20_000))
        records.append(start, item_id, SwitchKind.ITEM_START)
        records.append(end, item_id, SwitchKind.ITEM_END)
        for st in np.sort(rng.integers(start, end + 1, size=int(rng.integers(2, 12)))):
            fn = fn_names[int(rng.integers(0, len(fn_names)))]
            lo, hi = symtab.range_of(fn)
            ts_list.append(int(st))
            ip_list.append(int(rng.integers(lo, hi)))
        if unknown_ip is not None and rng.random() < 0.4:
            ts_list.append(int(rng.integers(start, end + 1)))
            ip_list.append(unknown_ip)
        if win_no == boundary_share_at:
            gap = 0
            # A sample exactly on the shared END/START instant: belongs
            # to the *later* window by the integration's tie rule.
            lo, hi = symtab.range_of(fn_names[0])
            ts_list.append(end)
            ip_list.append(int(rng.integers(lo, hi)))
        else:
            gap = int(rng.integers(500, 3_000))
            if stray_every and win_no % stray_every == 0:
                ts_list.append(end + 1 + int(rng.integers(0, gap - 1)))
                lo, hi = symtab.range_of(fn_names[0])
                ip_list.append(int(rng.integers(lo, hi)))
        t = end + gap
        win_no += 1
    return _finish_samples(ts_list, ip_list), records


def build_golden_a():
    rng = np.random.default_rng(20260801)
    symtab = SymbolTable.from_ranges(
        {
            "parse": (0x40_0000, 0x40_0400),
            "lookup": (0x40_0400, 0x40_0800),
            "compute": (0x40_0800, 0x40_1000),
            "emit": (0x40_1000, 0x40_1200),
        }
    )
    fns = ["parse", "lookup", "compute", "emit"]
    samples, switches = _make_core(
        rng,
        0,
        symtab,
        fns,
        [(i, 1) for i in range(1, 7)],
        unknown_ip=0x10,
        stray_every=2,
        boundary_share_at=2,
    )
    return {0: samples}, {0: switches}, symtab, {}


def build_golden_b():
    rng = np.random.default_rng(20260802)
    symtab = SymbolTable.from_ranges(
        {
            "rx": (0x50_0000, 0x50_0400),
            "classify": (0x50_0400, 0x50_0c00),
            "tx": (0x50_0c00, 0x50_1000),
        }
    )
    fns = ["rx", "classify", "tx"]
    s0, r0 = _make_core(rng, 0, symtab, fns, [(1, 1), (2, 1), (3, 1)])
    # Items 2 and 3 migrate: they also run on cores 1 and 2.
    s1, r1 = _make_core(rng, 1, symtab, fns, [(2, 1), (4, 1)], t0=40_000)
    s2, r2 = _make_core(rng, 2, symtab, fns, [(5, 2), (3, 1)], t0=80_000)
    return {0: s0, 1: s1, 2: s2}, {0: r0, 1: r1, 2: r2}, symtab, {}


def build_golden_c():
    rng = np.random.default_rng(20260803)
    symtab = SymbolTable.from_ranges(
        {
            "poll": (0x60_0000, 0x60_0400),
            LONG_NAME: (0x60_0400, 0x60_0800),
            "flush": (0x60_0800, 0x60_0a00),
        }
    )
    fns = ["poll", LONG_NAME, "flush"]
    # Timer-switching: items own several disjoint windows per core.
    s0, r0 = _make_core(rng, 0, symtab, fns, [(1, 1), (2, 1), (1, 2), (3, 1), (2, 1)])
    s1, r1 = _make_core(rng, 1, symtab, fns, [(7, 3), (8, 1)], t0=5_000)
    return {0: s0, 1: s1}, {0: r0, 1: r1}, symtab, {"chunk_size": 64}


SPECS = {
    "golden_a": build_golden_a,
    "golden_b": build_golden_b,
    "golden_c": build_golden_c,
}


def expected_for(samples_by_core, switches_by_core, symtab) -> dict:
    """The JSON-serialisable expectation block for one golden trace."""
    traces = {}
    per_core = {}
    for core in sorted(samples_by_core):
        t = integrate(samples_by_core[core], switches_by_core[core], symtab)
        traces[core] = t
        per_core[str(core)] = {
            "items": t.items(),
            "rows": [
                [e.item_id, e.fn_name, e.n_samples, e.elapsed_cycles, e.t_first, e.t_last]
                for e in t.rows(min_samples=1)
            ],
            "breakdowns": {str(i): t.breakdown(i) for i in t.items()},
            "window_cycles": {str(i): t.item_window_cycles(i) for i in t.items()},
            "total_samples": t.total_samples,
            "unmapped_samples": t.unmapped_samples,
            "unknown_ip_samples": t.unknown_ip_samples,
            "mapped_fraction": t.mapped_fraction,
        }
    merged = merge_traces([traces[c] for c in sorted(traces)])
    return {
        "cores": per_core,
        "merged": {
            "items": merged.items(),
            "breakdowns": {str(i): merged.breakdown(i) for i in merged.items()},
        },
    }


def write_golden_v4() -> None:
    from tests.faults.conftest import build_fixture_trace

    build_fixture_trace(DATA_DIR / "golden_v4.npz")
    print("golden_v4: fault fixture trace, version-4 layout")


def main(names: list[str]) -> None:
    unknown = set(names) - set(SPECS) - {"golden_v4"}
    if unknown:
        raise SystemExit(f"unknown golden(s): {', '.join(sorted(unknown))}")
    names = names or [*SPECS, "golden_v4"]
    if "golden_v4" in names:
        write_golden_v4()
    out = DATA_DIR / "golden_expected.json"
    expected = json.loads(out.read_text()) if out.exists() else {}
    specs = [n for n in SPECS if n in names]
    for name in specs:
        samples, switches, symtab, save_kwargs = SPECS[name]()
        save_trace(
            DATA_DIR / f"{name}.npz",
            samples,
            switches,
            symtab,
            meta={"golden": name},
            **save_kwargs,
        )
        expected[name] = expected_for(samples, switches, symtab)
        n = sum(len(s) for s in samples.values())
        print(f"{name}: {len(samples)} cores, {n} samples")
    if specs:
        out.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
