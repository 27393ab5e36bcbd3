"""Differential diagnosis: localize a regression between two runs.

The paper's ACL case study in computable form: two traces of the *same
workload* — a healthy baseline and a fluctuating/regressed run — are
compared function by function.  For every function (plus the
:data:`~repro.analysis.diagnose.UNATTRIBUTED` stall pseudo-function) we
take the **median per-item elapsed time** in each run and rank functions
by the per-item excess of the regressed run over the baseline.  Medians,
not totals: the runs may have processed different item counts, and the
regression signature the paper cares about is "the same packet now costs
more in the trie walk", a per-item statement.

Functions are matched by *name*, so the two traces may carry different
symbol tables (rebuilt processes, ASLR) as long as symbolisation is
consistent.

Per-item vectors are assembled column-wise from the trace's arrays (one
``searchsorted`` to map rows to item slots, a loop only over the few
observed functions), so the per-item hot path never enters Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.diagnose import (
    DEFAULT_RESET_VALUE,
    UNATTRIBUTED,
    sample_confidence,
)
from repro.core.hybrid import HybridTrace
from repro.core.records import item_totals
from repro.errors import TraceError
from repro.obs.instrumented import pipeline as _obs


@dataclass(frozen=True)
class FunctionDelta:
    """One function's per-item cost change between the two runs."""

    fn_name: str
    #: Median per-item elapsed cycles in each run (0 if unobserved).
    base_median_per_item: float
    other_median_per_item: float
    #: ``other_median_per_item - base_median_per_item`` (signed).
    excess_per_item: float
    #: Aggregate effect: excess_per_item × items in the other run.
    excess_cycles: int
    #: Summed attributed cycles in each run, for context.
    base_total_cycles: int
    other_total_cycles: int
    #: Samples behind the other run's estimates for this function.
    n_samples: int
    #: Sample-density confidence in the per-item excess.
    confidence: float

    def describe(self, freq_ghz: float = 3.0) -> str:
        d_us = self.excess_per_item / freq_ghz / 1_000
        return (
            f"{self.fn_name}: {self.base_median_per_item:.0f} -> "
            f"{self.other_median_per_item:.0f} cycles/item "
            f"({d_us:+.2f} us/item, confidence {self.confidence:.2f})"
        )


@dataclass(frozen=True)
class DiffReport:
    """Function deltas between two runs, worst regression first."""

    deltas: tuple[FunctionDelta, ...]
    n_items_base: int
    n_items_other: int
    #: Median total residency per item in each run (window ground truth).
    base_median_total: float
    other_median_total: float
    reset_value: int
    #: Items per run whose windows overlap capture losses (shed samples,
    #: unrecovered journal spans); their evidence is incomplete, so every
    #: delta's confidence is discounted by the intact fraction of both
    #: runs rather than presented at full strength.
    n_degraded_base: int = 0
    n_degraded_other: int = 0
    #: Median per-item wait cycles in each run (0.0 when neither trace
    #: carried wait edges — older containers, in-memory diffs).
    base_wait_median: float = 0.0
    other_wait_median: float = 0.0
    #: Regression classification from the wait-vs-code split:
    #: ``"contention"`` when the median total's growth is mostly wait
    #: cycles, ``"code"`` when it is mostly function latency, ``"none"``
    #: when nothing regressed or no wait data was available to split.
    cause: str = "none"

    @property
    def wait_excess_per_item(self) -> float:
        """Growth of the per-item wait median (signed cycles)."""
        return self.other_wait_median - self.base_wait_median

    @property
    def regressions(self) -> list[FunctionDelta]:
        """Deltas where the other run is slower per item."""
        return [d for d in self.deltas if d.excess_per_item > 0]

    @property
    def top(self) -> FunctionDelta | None:
        """The largest per-item regression, or None if nothing regressed."""
        regs = self.regressions
        return regs[0] if regs else None

    @property
    def regressed(self) -> bool:
        return self.top is not None

    def describe(self, freq_ghz: float = 3.0, limit: int = 10) -> str:
        lines = [
            f"diff: {self.n_items_base} baseline item(s) vs "
            f"{self.n_items_other} item(s); median total "
            f"{self.base_median_total:.0f} -> {self.other_median_total:.0f} cycles"
        ]
        if self.n_degraded_base or self.n_degraded_other:
            lines.append(
                f"  degraded capture: {self.n_degraded_base} baseline / "
                f"{self.n_degraded_other} other item(s) overlap lost data; "
                "confidences discounted"
            )
        top = self.top
        if top is None:
            lines.append("  no per-item regression found")
        else:
            lines.append(
                f"  top excess-time contributor: {top.fn_name} "
                f"(+{top.excess_per_item:.0f} cycles/item, "
                f"confidence {top.confidence:.2f})"
            )
        if self.cause != "none":
            total_d = self.other_median_total - self.base_median_total
            lines.append(
                f"  cause: {self.cause} "
                f"(wait {self.wait_excess_per_item:+.0f} of "
                f"{total_d:+.0f} cycles/item growth)"
            )
        for d in self.deltas[:limit]:
            lines.append("  " + d.describe(freq_ghz))
        if len(self.deltas) > limit:
            lines.append(f"  ... and {len(self.deltas) - limit} more function(s)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The report's JSON payload (envelope keys are added by
        :func:`repro.analysis.report.envelope` at serialization time)."""
        return {
            "n_items_base": self.n_items_base,
            "n_items_other": self.n_items_other,
            "base_median_total": self.base_median_total,
            "other_median_total": self.other_median_total,
            "reset_value": self.reset_value,
            "n_degraded_base": self.n_degraded_base,
            "n_degraded_other": self.n_degraded_other,
            "base_wait_median": self.base_wait_median,
            "other_wait_median": self.other_wait_median,
            "cause": self.cause,
            "deltas": [
                {
                    "fn": d.fn_name,
                    "base_median_per_item": d.base_median_per_item,
                    "other_median_per_item": d.other_median_per_item,
                    "excess_per_item": d.excess_per_item,
                    "excess_cycles": d.excess_cycles,
                    "n_samples": d.n_samples,
                    "confidence": d.confidence,
                }
                for d in self.deltas
            ],
        }

    def to_json(self) -> str:
        from repro.analysis.report import render_json

        return render_json(self.to_dict(), kind="diff")


def _per_item_matrix(
    trace: HybridTrace, min_samples: int, include_unattributed: bool
) -> tuple[np.ndarray, dict[str, np.ndarray], dict[str, int], np.ndarray]:
    """Per-function per-item elapsed vectors, 0-filled over all items.

    Returns ``(items, fn_vectors, fn_sample_counts, window_totals)``
    where each vector is aligned to the ascending ``items`` array.
    """
    w_items, w_totals = item_totals(trace.window_columns)
    sampled = np.unique(trace.item_ids)
    # Items with windows but no mapped sample still occupy a slot: their
    # function costs are legitimately zero and their window time feeds
    # the stall pseudo-function.
    items = np.union1d(w_items, sampled)
    totals = np.zeros(items.shape[0], dtype=np.int64)
    if w_totals.shape[0]:
        totals[np.searchsorted(items, w_items)] = w_totals
    slot = np.searchsorted(items, trace.item_ids)
    vectors: dict[str, np.ndarray] = {}
    samples: dict[str, int] = {}
    ok = trace.n_samples >= min_samples
    for fi in np.unique(trace.fn_idx).tolist():
        rows = (trace.fn_idx == fi) & ok
        if not np.any(rows):
            continue
        vec = np.zeros(items.shape[0], dtype=np.int64)
        vec[slot[rows]] = trace.elapsed[rows]
        name = trace.symtab.names[int(fi)]
        vectors[name] = vec
        samples[name] = int(trace.n_samples[rows].sum())
    if include_unattributed:
        attributed = (
            np.sum(list(vectors.values()), axis=0)
            if vectors
            else np.zeros(items.shape[0], dtype=np.int64)
        )
        vectors[UNATTRIBUTED] = np.maximum(totals - attributed, 0)
        samples[UNATTRIBUTED] = int(trace.n_samples.sum())
    return items, vectors, samples, totals


#: A run must be at least this factor slower (median total) before the
#: contention/code classifier calls it a regression at all.
MIN_REGRESSION_RATIO = 1.02


def classify_cause(
    base_median_total: float,
    other_median_total: float,
    base_wait_median: float,
    other_wait_median: float,
    *,
    min_ratio: float = MIN_REGRESSION_RATIO,
) -> str:
    """Contention-caused vs code-caused, from the wait/latency split.

    The median total's growth decomposes into growth of wait cycles
    (recorded wait edges inside item windows) and growth of everything
    else (function latency).  Whichever part dominates names the cause;
    sub-``min_ratio`` growth is ``"none"`` — no regression to explain.
    """
    if base_median_total <= 0 or other_median_total < base_median_total * min_ratio:
        return "none"
    total_delta = other_median_total - base_median_total
    wait_delta = other_wait_median - base_wait_median
    return "contention" if wait_delta >= total_delta - wait_delta else "code"


def diff_traces(
    base: HybridTrace,
    other: HybridTrace,
    *,
    min_samples: int = 2,
    include_unattributed: bool = True,
    reset_value: int | None = None,
    degraded_base: set[int] | None = None,
    degraded_other: set[int] | None = None,
    base_item_waits: np.ndarray | None = None,
    other_item_waits: np.ndarray | None = None,
) -> DiffReport:
    """Rank functions by per-item excess of ``other`` over ``base``.

    Both traces must come from the same workload; item ids need not
    match (medians are compared, not item-by-item pairs).  The result's
    :attr:`~DiffReport.top` is the regression verdict — the function
    whose per-item median cost grew the most.

    ``reset_value`` is the sampling period R behind the confidence
    figures; when the runs used different R values pass the larger
    (conservative) one.

    ``degraded_base`` / ``degraded_other`` are item ids whose windows
    overlap capture losses (shed samples under overload, spans a crash
    recovery could not salvage).  Missing samples depress a function's
    apparent cost, so a degraded side biases the comparison; every
    delta's confidence is multiplied by the intact item fraction of both
    runs so the report can never be *more* confident on worse evidence.

    ``base_item_waits`` / ``other_item_waits`` are per-item wait-cycle
    totals (see :func:`repro.analysis.depgraph.item_wait_cycles`); when
    given, the report carries per-run wait medians and a
    contention-vs-code ``cause`` classification.  Traces without wait
    data leave ``cause="none"`` — the split cannot be computed, which is
    different from "no regression".
    """
    R = reset_value if reset_value is not None else DEFAULT_RESET_VALUE
    b_items, b_vec, b_n, b_totals = _per_item_matrix(
        base, min_samples, include_unattributed
    )
    o_items, o_vec, o_n, o_totals = _per_item_matrix(
        other, min_samples, include_unattributed
    )
    if b_items.shape[0] == 0 or o_items.shape[0] == 0:
        raise TraceError("diff_traces needs at least one item in each trace")
    n_b = int(b_items.shape[0])
    n_o = int(o_items.shape[0])
    n_deg_b = len(set(degraded_base or ()) & set(b_items.tolist()))
    n_deg_o = len(set(degraded_other or ()) & set(o_items.tolist()))
    intact = (1.0 - n_deg_b / n_b) * (1.0 - n_deg_o / n_o)

    deltas: list[FunctionDelta] = []
    for name in sorted(set(b_vec) | set(o_vec)):
        bv = b_vec.get(name)
        ov = o_vec.get(name)
        b_med = float(np.median(bv)) if bv is not None else 0.0
        o_med = float(np.median(ov)) if ov is not None else 0.0
        excess = o_med - b_med
        # Sample density per item in whichever run is sparser bounds how
        # well *both* medians are resolved.
        dens_b = (b_n.get(name, 0) / n_b) if bv is not None else 0.0
        dens_o = (o_n.get(name, 0) / n_o) if ov is not None else 0.0
        dens = min(d for d in (dens_b, dens_o) if d > 0) if (dens_b or dens_o) else 0.0
        deltas.append(
            FunctionDelta(
                fn_name=name,
                base_median_per_item=b_med,
                other_median_per_item=o_med,
                excess_per_item=excess,
                excess_cycles=int(round(excess * n_o)),
                base_total_cycles=int(bv.sum()) if bv is not None else 0,
                other_total_cycles=int(ov.sum()) if ov is not None else 0,
                n_samples=o_n.get(name, b_n.get(name, 0)),
                confidence=intact * sample_confidence(excess, max(1, int(dens)), R)
                if dens > 0
                else 0.0,
            )
        )
    deltas.sort(key=lambda d: d.excess_per_item, reverse=True)
    base_median_total = float(np.median(b_totals))
    other_median_total = float(np.median(o_totals))
    have_waits = base_item_waits is not None or other_item_waits is not None

    def _wait_median(arr) -> float:
        return float(np.median(np.asarray(arr))) if arr is not None and len(arr) else 0.0

    b_wait = _wait_median(base_item_waits)
    o_wait = _wait_median(other_item_waits)
    cause = (
        classify_cause(base_median_total, other_median_total, b_wait, o_wait)
        if have_waits
        else "none"
    )
    report = DiffReport(
        deltas=tuple(deltas),
        n_items_base=n_b,
        n_items_other=n_o,
        base_median_total=base_median_total,
        other_median_total=other_median_total,
        reset_value=R,
        n_degraded_base=n_deg_b,
        n_degraded_other=n_deg_o,
        base_wait_median=b_wait,
        other_wait_median=o_wait,
        cause=cause,
    )
    ins = _obs()
    ins.diff_runs.inc()
    n_reg = len(report.regressions)
    if n_reg:
        ins.diff_regressions.inc(n_reg)
    return report
