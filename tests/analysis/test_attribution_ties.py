"""Attribution order does not depend on the interpreter's hash seed.

Three functions exceed their group medians by exactly the same amount in
one outlier.  Ranked by excess alone they tie, so their order — and the
verdict's ``culprit`` — must come from a stable rule (names ascending,
as ``diff_traces`` ranks), not from the iteration order of a ``set`` of
names, which changes with ``PYTHONHASHSEED``.  Each seed runs in its own
interpreter, since the seed is fixed at start-up.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import repro

SCRIPT = """
import json
import numpy as np
from repro.analysis.diagnose import diagnose_trace
from repro.core.hybrid import HybridTrace
from repro.core.records import WindowColumns
from repro.core.symbols import SymbolTable

names = ("delta", "alpha", "charlie", "bravo")
symtab = SymbolTable.from_ranges(
    {n: (i * 100, i * 100 + 100) for i, n in enumerate(names)}
)
tied = [symtab.index_of(n) for n in ("delta", "alpha", "charlie")]
items = list(range(1, 8))
# Items 1-6 spend 100 cycles in each tied function inside a 400-cycle
# window; item 7 spends 300 in each inside 1000: +200 apiece, and the
# same 100 unattributed cycles as everyone else.
rows = np.asarray(
    [(i, f, 300 if i == 7 else 100) for i in items for f in tied], dtype=np.int64
)
trace = HybridTrace(
    symtab=symtab,
    windows=WindowColumns(
        item_id=np.asarray(items, dtype=np.int64),
        t_start=np.asarray([i * 10_000 for i in items], dtype=np.int64),
        t_end=np.asarray(
            [i * 10_000 + (1000 if i == 7 else 400) for i in items], dtype=np.int64
        ),
    ),
    item_ids=rows[:, 0],
    fn_idx=rows[:, 1],
    n_samples=np.full(len(rows), 4, dtype=np.int64),
    elapsed=rows[:, 2],
    t_first=np.zeros(len(rows), dtype=np.int64),
    t_last=rows[:, 2],
    total_samples=4 * len(rows),
    unmapped_samples=0,
    unknown_ip_samples=0,
)
(verdict,) = diagnose_trace(trace).outliers
print(json.dumps({
    "culprit": verdict.culprit,
    "ranking": [[a.fn_name, a.excess_cycles] for a in verdict.attributions],
}))
"""


def _run(hash_seed: int) -> dict:
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=src + (os.pathsep + path if path else ""),
    )
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout)


def test_tied_functions_rank_by_name_under_any_hash_seed():
    first, second = _run(1), _run(2)
    assert first == second
    assert first["ranking"] == [["alpha", 200], ["charlie", 200], ["delta", 200]]
    assert first["culprit"] == "alpha"
