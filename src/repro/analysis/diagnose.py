"""Automated fluctuation diagnosis: robust baselines + excess attribution.

This is the closing step of the paper's workflow.  The raw material is a
:class:`~repro.core.hybrid.HybridTrace` — exact per-item residency from
the instrumented windows, estimated per-(item, function) elapsed time
from PEBS samples.  The engine turns that into verdicts:

1. **Classify.**  Each data-item's total residency is compared against a
   *robust* baseline of its similarity group (same packet type, same
   query size, ...): median ± k·σ where σ comes from the median absolute
   deviation (MAD), or a percentile band.  Robust statistics matter
   because the population we are hunting — items inflated by
   non-functional state — is exactly the population that would corrupt a
   mean/stddev baseline.
2. **Attribute.**  For every outlier, the item's per-function elapsed
   times are compared with the per-function group medians; functions are
   ranked by their share of the excess.  Window time no sampled function
   covers is tracked as the :data:`UNATTRIBUTED` pseudo-function, so
   stall-dominated outliers are *named*, not silently unexplained.
3. **Qualify.**  Every attribution carries a confidence derived from
   sample density: with reset value R, a per-(item, function) elapsed
   estimate is only resolved to about one inter-sample gap (~R cycles)
   at each end, so an excess must clear ``2R/sqrt(n)`` before it means
   much (:func:`sample_confidence`).

The same classification runs online: :class:`StreamingDiagnoser` rides
:func:`~repro.core.streaming.ingest_trace` and emits verdicts while the
trace is still streaming (with running baselines — a documented
approximation of the one-shot bands).  It is also the paper's §IV-C3
retention policy: an item's raw samples are kept exactly when it gets
an outlier verdict, and the verdict's culprit is what triggered the dump.

Everything batch is vectorised over :class:`~repro.core.records.WindowColumns`
— grouped medians and MADs are computed with one lexsort +
``reduceat``-style segmentation, never a per-item Python loop.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping

import numpy as np

from repro.core.hybrid import HybridTrace
from repro.core.records import item_totals
from repro.errors import TraceError
from repro.obs.instrumented import pipeline as _obs

#: Scale factor turning a median absolute deviation into a consistent
#: estimate of the standard deviation under normality.
SIGMA_PER_MAD = 1.4826

#: Reset value assumed when neither the caller nor the trace metadata
#: supplies one (the paper's default sampling period).
DEFAULT_RESET_VALUE = 8000

#: Baseline methods accepted by :func:`diagnose_trace`.
METHODS = ("mad", "percentile")

#: Pseudo-function name for window time no sampled function covers —
#: the stall/off-CPU signature (see HybridTrace.unattributed_cycles).
UNATTRIBUTED = "(unattributed/stall)"

#: Group key of every item when no similarity grouping is given: the
#: whole trace is then one group.
WHOLE_TRACE = "all"

#: Bound on :attr:`StreamingDiagnoser.verdicts`.  A months-long capture
#: feeds millions of items; past this many outlier verdicts the oldest
#: are evicted (and counted), while the aggregate counters stay exact.
MAX_ONLINE_VERDICTS = 100_000


def sample_confidence(
    excess_cycles: float, n_samples: int, reset_value: int
) -> float:
    """Confidence in [0, 1) that an excess-time attribution is resolvable.

    A per-(item, function) elapsed estimate is ``t_last - t_first`` over
    ``n`` samples taken every ~R cycles: each endpoint is uncertain by
    about one inter-sample gap, and averaging over the item population
    shrinks that by ``sqrt(n)``.  The confidence is the excess measured
    in units of itself plus that resolution floor::

        confidence = excess / (excess + 2R / sqrt(n))

    → 0 when the excess vanishes or nothing was sampled, → 1 when the
    excess dwarfs the sampling resolution.  Monotone in both ``excess``
    and ``n``, so rankings by excess·confidence are stable under R.
    """
    if excess_cycles <= 0 or n_samples <= 0 or reset_value <= 0:
        return 0.0
    floor = 2.0 * reset_value / math.sqrt(n_samples)
    return float(excess_cycles / (excess_cycles + floor))


# ---------------------------------------------------------------------------
# Vectorised grouped statistics


def grouped_median(codes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Median of ``values`` per group code; result indexed by code.

    ``codes`` must be integers in ``[0, n_groups)`` with every group
    nonempty.  One lexsort; medians picked by segment index arithmetic.
    """
    n_groups = int(codes.max()) + 1 if codes.shape[0] else 0
    order = np.lexsort((values, codes))
    sorted_codes = codes[order]
    sorted_vals = values[order]
    start = np.searchsorted(sorted_codes, np.arange(n_groups), side="left")
    end = np.searchsorted(sorted_codes, np.arange(n_groups), side="right")
    count = end - start
    if np.any(count == 0):
        raise TraceError("grouped_median: every group code must be populated")
    lo = start + (count - 1) // 2
    hi = start + count // 2
    return (sorted_vals[lo] + sorted_vals[hi]) / 2.0


def grouped_mad(
    codes: np.ndarray, values: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Median absolute deviation per group, given per-group centers."""
    dev = np.abs(values - centers[codes])
    return grouped_median(codes, dev)


def grouped_percentile(
    codes: np.ndarray, values: np.ndarray, q: float
) -> np.ndarray:
    """Per-group percentile ``q`` (0..100), nearest-rank, indexed by code."""
    n_groups = int(codes.max()) + 1 if codes.shape[0] else 0
    order = np.lexsort((values, codes))
    sorted_codes = codes[order]
    sorted_vals = values[order]
    start = np.searchsorted(sorted_codes, np.arange(n_groups), side="left")
    end = np.searchsorted(sorted_codes, np.arange(n_groups), side="right")
    count = end - start
    if np.any(count == 0):
        raise TraceError("grouped_percentile: every group code must be populated")
    rank = np.ceil(q / 100.0 * count).astype(np.int64)
    idx = start + np.clip(rank - 1, 0, count - 1)
    return sorted_vals[idx].astype(np.float64)


# ---------------------------------------------------------------------------
# Result model


@dataclass(frozen=True)
class BaselineBand:
    """The robust acceptance band of one similarity group."""

    group: Hashable
    n_items: int
    #: Group median of item totals (cycles).
    center: float
    #: Robust spread estimate (sigma-equivalent cycles; 0 if degenerate).
    spread: float
    #: Band edges: items with ``total > hi`` are outliers.
    lo: float
    hi: float
    method: str


@dataclass(frozen=True)
class FunctionAttribution:
    """One function's share of an outlier item's excess time."""

    fn_name: str
    #: Item's elapsed in this function minus the group median (cycles).
    excess_cycles: int
    #: Fraction of the item's total positive excess this function holds.
    share: float
    #: Samples behind the item's estimate for this function.
    n_samples: int
    #: Sample-density confidence (see :func:`sample_confidence`).
    confidence: float


@dataclass(frozen=True)
class ItemVerdict:
    """Classification of one data-item against its group baseline."""

    item_id: int
    group: Hashable
    total_cycles: int
    center_cycles: float
    #: Signed deviation in band-widths: exactly ``k_sigma`` at the edge.
    deviation: float
    is_outlier: bool
    #: Item total minus group center, clamped at 0 (cycles).
    excess_cycles: int
    #: Ranked by excess, descending; empty for non-outliers.
    attributions: tuple[FunctionAttribution, ...] = ()
    #: True when the item's windows overlap data the capture lost (shed
    #: samples under overload, spans a crash recovery could not salvage):
    #: the verdict was computed from incomplete evidence and should be
    #: read as "affected by degraded capture", not misattributed.
    degraded: bool = False
    #: Waiting-dependency chain of the item's window: hop dicts (see
    #: :meth:`repro.analysis.depgraph.WaitHop.to_dict`) from the item's
    #: own core to its true upstream blocker.  Empty when the container
    #: carries no wait edges or the item never waited — attribution by
    #: function latency is then the whole story.
    blocked_by: tuple = ()

    @property
    def culprit(self) -> str | None:
        """The top-ranked excess function, if any."""
        return self.attributions[0].fn_name if self.attributions else None

    def describe(self, freq_ghz: float = 3.0) -> str:
        total_us = self.total_cycles / freq_ghz / 1_000
        med_us = self.center_cycles / freq_ghz / 1_000
        head = (
            f"item {self.item_id} (group {self.group!r}): {total_us:.2f} us vs "
            f"baseline {med_us:.2f} us ({self.deviation:+.1f} band-widths)"
        )
        tail = " [degraded capture]" if self.degraded else ""
        if self.blocked_by:
            hop = self.blocked_by[0]
            tail += (
                f" [blocked {hop['wait_cycles']:,} cy on {hop['queue']} "
                f"({hop['kind']})]"
            )
        if not self.is_outlier:
            return head + " — within band" + tail
        if not self.attributions:
            return head + " — OUTLIER, no attributable excess" + tail
        top = self.attributions[0]
        return (
            head
            + f" — OUTLIER; top contributor {top.fn_name} "
            + f"(+{top.excess_cycles} cycles, {top.share:.0%} of excess, "
            + f"confidence {top.confidence:.2f})"
            + tail
        )


@dataclass(frozen=True)
class DiagnosisReport:
    """All verdicts of one run, plus the baselines they were judged by."""

    verdicts: tuple[ItemVerdict, ...]
    baselines: tuple[BaselineBand, ...]
    method: str
    k_sigma: float
    min_ratio: float
    min_samples: int
    reset_value: int

    @property
    def outliers(self) -> list[ItemVerdict]:
        """Outlier verdicts, most deviant first."""
        out = [v for v in self.verdicts if v.is_outlier]
        out.sort(key=lambda v: v.deviation, reverse=True)
        return out

    @property
    def degraded_items(self) -> list[ItemVerdict]:
        """Verdicts computed from incomplete capture data, item order."""
        return [v for v in self.verdicts if v.degraded]

    @property
    def fluctuating(self) -> bool:
        return any(v.is_outlier for v in self.verdicts)

    def describe(self, freq_ghz: float = 3.0, limit: int = 10) -> str:
        lines = [
            f"diagnosis: {len(self.verdicts)} item(s) in "
            f"{len(self.baselines)} group(s), method={self.method}"
        ]
        for b in sorted(self.baselines, key=lambda b: str(b.group)):
            lines.append(
                f"  group {b.group!r}: n={b.n_items} center={b.center:.0f} "
                f"spread={b.spread:.0f} band=[{b.lo:.0f}, {b.hi:.0f}]"
            )
        outs = self.outliers
        if not outs:
            lines.append("  no outliers")
        for v in outs[:limit]:
            lines.append("  " + v.describe(freq_ghz))
        if len(outs) > limit:
            lines.append(f"  ... and {len(outs) - limit} more outlier(s)")
        n_deg = len(self.degraded_items)
        if n_deg:
            lines.append(
                f"  {n_deg} item(s) overlap lost capture data (shed or "
                "unrecovered spans); their verdicts are marked degraded"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The report's JSON payload (envelope keys are added by
        :func:`repro.analysis.report.envelope` at serialization time)."""
        return {
            "method": self.method,
            "k_sigma": self.k_sigma,
            "min_ratio": self.min_ratio,
            "reset_value": self.reset_value,
            "baselines": [
                {
                    "group": str(b.group),
                    "n_items": b.n_items,
                    "center": b.center,
                    "spread": b.spread,
                    "lo": b.lo,
                    "hi": b.hi,
                }
                for b in self.baselines
            ],
            "degraded_items": [v.item_id for v in self.degraded_items],
            "outliers": [
                {
                    "item_id": v.item_id,
                    "group": str(v.group),
                    "total_cycles": v.total_cycles,
                    "center_cycles": v.center_cycles,
                    "deviation": v.deviation,
                    "excess_cycles": v.excess_cycles,
                    "degraded": v.degraded,
                    "attributions": [
                        {
                            "fn": a.fn_name,
                            "excess_cycles": a.excess_cycles,
                            "share": a.share,
                            "n_samples": a.n_samples,
                            "confidence": a.confidence,
                        }
                        for a in v.attributions
                    ],
                    "blocked_by": [dict(h) for h in v.blocked_by],
                }
                for v in self.outliers
            ],
        }

    def to_json(self) -> str:
        from repro.analysis.report import render_json

        return render_json(self.to_dict(), kind="diagnosis")


# ---------------------------------------------------------------------------
# One-shot engine


def _group_medians(per_item_bd: dict[int, dict[str, int]]) -> dict[str, float]:
    """Median elapsed per function over one group's members, names ascending.

    A member the function never ran in counts as 0.  Computed once per
    group, however many of its members are outliers.
    """
    names = sorted(set().union(*per_item_bd.values()))
    return {
        fn: float(np.median([bd.get(fn, 0) for bd in per_item_bd.values()]))
        for fn in names
    }


def _attribute(
    trace: HybridTrace,
    item: int,
    item_bd: dict[str, int],
    medians: dict[str, float],
    reset_value: int,
) -> tuple[FunctionAttribution, ...]:
    """Rank functions by their share of one outlier item's excess time.

    ``medians`` come in name order and the ranking sort is stable, so
    functions with equal excess rank by name.
    """
    total_mapped = sum(
        e.n_samples
        for e in (trace.estimate(item, f) for f in trace.breakdown(item, 0))
        if e is not None
    )
    attrs: list[FunctionAttribution] = []
    excesses: dict[str, int] = {}
    for fn, med in medians.items():
        excess = int(item_bd.get(fn, 0) - med)
        if excess > 0:
            excesses[fn] = excess
    total_excess = sum(excesses.values())
    for fn, excess in sorted(excesses.items(), key=lambda kv: -kv[1]):
        if fn == UNATTRIBUTED:
            n = total_mapped
        else:
            est = trace.estimate(item, fn)
            n = est.n_samples if est is not None else 0
        attrs.append(
            FunctionAttribution(
                fn_name=fn,
                excess_cycles=excess,
                share=excess / total_excess if total_excess else 0.0,
                n_samples=n,
                confidence=sample_confidence(excess, n, reset_value),
            )
        )
    return tuple(attrs)


def diagnose_trace(
    trace: HybridTrace,
    group_of: Mapping[int, Hashable] | Callable[[int], Hashable] | None = None,
    *,
    method: str = "mad",
    k_sigma: float = 3.5,
    min_ratio: float = 1.2,
    percentile: float = 99.0,
    min_samples: int = 2,
    reset_value: int | None = None,
    degraded_items: set[int] | None = None,
) -> DiagnosisReport:
    """Classify every item against its group baseline; attribute outliers.

    ``group_of`` maps item ids to similarity keys (the packet type, the
    query size); ``None`` treats the whole trace as one group — valid
    when the workload is homogeneous, and noisy otherwise.

    The band is robust: center = group median, spread = 1.4826·MAD
    (``method="mad"``) or a nearest-rank percentile
    (``method="percentile"``), and in both cases the upper edge is at
    least ``min_ratio``·center so that near-constant groups (MAD ≈ 0)
    do not flag microscopic jitter.  ``k_sigma`` is the MAD-band width;
    ``deviation`` in the verdicts is normalised so the upper edge sits at
    exactly ``k_sigma`` band-widths regardless of method.

    ``reset_value`` (the sampling period R) feeds attribution confidence;
    defaults to :data:`DEFAULT_RESET_VALUE` when unknown.

    ``degraded_items`` marks item ids whose evidence is known-incomplete
    (their windows overlap samples shed under overload or spans a crash
    recovery could not salvage).  Their verdicts still classify — the
    window ground truth survives — but carry ``degraded=True`` so a
    missing-samples artifact is never misread as attribution.
    """
    if method not in METHODS:
        raise TraceError(f"method must be one of {METHODS}, got {method!r}")
    if k_sigma <= 0:
        raise TraceError(f"k_sigma must be > 0, got {k_sigma}")
    if min_ratio < 1.0:
        raise TraceError(f"min_ratio must be >= 1.0, got {min_ratio}")
    if not 0 < percentile <= 100:
        raise TraceError(f"percentile must be in (0, 100], got {percentile}")
    R = reset_value if reset_value is not None else DEFAULT_RESET_VALUE
    lookup = (
        (lambda _i: WHOLE_TRACE)
        if group_of is None
        else (group_of if callable(group_of) else group_of.__getitem__)
    )

    items_arr, totals_arr = item_totals(trace.window_columns)
    sampled = set(trace.item_ids.tolist())
    if degraded_items:
        # A degraded item may have lost *every* sample (a whole shed or
        # unrecovered span); its window ground truth still classifies it,
        # and silently dropping it would hide exactly the loss the flag
        # exists to surface.
        sampled |= {int(i) for i in degraded_items}
    keep = np.asarray([i in sampled for i in items_arr.tolist()], dtype=bool)
    items_arr = items_arr[keep]
    totals_arr = totals_arr[keep].astype(np.float64)
    ins = _obs()
    ins.diag_runs.inc()
    if items_arr.shape[0] == 0:
        return DiagnosisReport(
            verdicts=(),
            baselines=(),
            method=method,
            k_sigma=k_sigma,
            min_ratio=min_ratio,
            min_samples=min_samples,
            reset_value=R,
        )

    # Group codes: stable order of first appearance in ascending item id.
    group_keys: list[Hashable] = []
    code_of: dict[Hashable, int] = {}
    codes = np.empty(items_arr.shape[0], dtype=np.int64)
    for pos, item in enumerate(items_arr.tolist()):
        key = lookup(int(item))
        if key not in code_of:
            code_of[key] = len(group_keys)
            group_keys.append(key)
        codes[pos] = code_of[key]

    centers = grouped_median(codes, totals_arr)
    if method == "mad":
        spread = SIGMA_PER_MAD * grouped_mad(codes, totals_arr, centers)
        hi = centers + np.maximum(k_sigma * spread, (min_ratio - 1.0) * centers)
        lo = centers - np.maximum(k_sigma * spread, (min_ratio - 1.0) * centers)
    else:
        p_hi = grouped_percentile(codes, totals_arr, percentile)
        p_lo = grouped_percentile(codes, totals_arr, 100.0 - percentile)
        hi = np.maximum(p_hi, min_ratio * centers)
        lo = np.minimum(p_lo, centers / max(min_ratio, 1e-9))
        spread = np.maximum(hi - centers, 0.0) / k_sigma
    # Normalise deviation so the upper band edge is at k_sigma widths.
    sigma_eff = np.maximum(hi - centers, 0.0) / k_sigma
    sigma_eff[sigma_eff == 0] = np.inf
    deviations = (totals_arr - centers[codes]) / sigma_eff[codes]
    outlier_mask = totals_arr > hi[codes]

    counts = np.bincount(codes, minlength=len(group_keys))
    baselines = tuple(
        BaselineBand(
            group=group_keys[c],
            n_items=int(counts[c]),
            center=float(centers[c]),
            spread=float(spread[c]),
            lo=float(lo[c]),
            hi=float(hi[c]),
            method=method,
        )
        for c in range(len(group_keys))
    )

    # Per-item breakdowns (incl. the stall pseudo-function) are needed
    # only for groups that actually contain outliers.
    members_of: dict[int, list[int]] = {}
    for item, c in zip(items_arr.tolist(), codes.tolist()):
        members_of.setdefault(c, []).append(item)
    bd_cache: dict[int, dict[int, dict[str, int]]] = {}
    medians_of: dict[int, dict[str, float]] = {}
    for c in set(codes[outlier_mask].tolist()):
        per_item = {}
        for m in members_of[c]:
            bd = dict(trace.breakdown(m, min_samples=min_samples))
            bd[UNATTRIBUTED] = trace.unattributed_cycles(m, min_samples=min_samples)
            per_item[m] = bd
        bd_cache[c] = per_item
        medians_of[c] = _group_medians(per_item)

    verdicts: list[ItemVerdict] = []
    center_of = centers.tolist()
    for item, c, is_out, total, deviation in zip(
        items_arr.tolist(),
        codes.tolist(),
        outlier_mask.tolist(),
        totals_arr.tolist(),
        deviations.tolist(),
    ):
        total = int(total)
        center = center_of[c]
        attrs: tuple[FunctionAttribution, ...] = ()
        if is_out:
            attrs = _attribute(trace, item, bd_cache[c][item], medians_of[c], R)
        verdicts.append(
            ItemVerdict(
                item_id=item,
                group=group_keys[c],
                total_cycles=total,
                center_cycles=center,
                deviation=deviation,
                is_outlier=is_out,
                excess_cycles=max(0, int(round(total - center))),
                attributions=attrs,
                degraded=bool(degraded_items) and item in degraded_items,
            )
        )
    ins.diag_items.inc(len(verdicts))
    n_out = int(np.count_nonzero(outlier_mask))
    if n_out:
        ins.diag_outliers.inc(n_out)
    return DiagnosisReport(
        verdicts=tuple(verdicts),
        baselines=baselines,
        method=method,
        k_sigma=k_sigma,
        min_ratio=min_ratio,
        min_samples=min_samples,
        reset_value=R,
    )


# ---------------------------------------------------------------------------
# Online engine


class _RunningGroup:
    """Running robust-ish baseline of one group: median + Welford sigma."""

    __slots__ = ("sorted_totals", "n", "mean", "m2", "fn_sum")

    def __init__(self) -> None:
        self.sorted_totals: list[int] = []
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.fn_sum: dict[str, int] = {}

    def add(self, total: int, breakdown: Mapping[str, int]) -> None:
        bisect.insort(self.sorted_totals, total)
        self.n += 1
        delta = total - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (total - self.mean)
        for fn, cyc in breakdown.items():
            self.fn_sum[fn] = self.fn_sum.get(fn, 0) + int(cyc)

    @property
    def median(self) -> float:
        s = self.sorted_totals
        m = len(s)
        return (s[(m - 1) // 2] + s[m // 2]) / 2.0 if m else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.m2 / (self.n - 1)) if self.n > 1 else 0.0

    def fn_mean(self, fn: str) -> float:
        """Mean elapsed in ``fn`` per member; a member that never ran it
        counts as 0, as in the batch group medians."""
        return self.fn_sum.get(fn, 0) / self.n if self.n else 0.0


class StreamingDiagnoser:
    """Online outlier verdicts and divergence-triggered sample retention.

    Implements the ``observe_item(item_id, breakdown, raw_bytes)``
    protocol that :func:`~repro.core.streaming.ingest_trace` (sequential
    path) and :func:`~repro.core.streaming.replay_into` feed, so it
    classifies each item the moment its windows close.

    The baseline is a *running* approximation of the one-shot band: the
    group's running median of totals with a Welford standard deviation
    for spread (the exact MAD is not incrementally maintainable at
    O(log n)).  An item is an outlier once its group holds at least
    ``min_baseline`` observations and its total exceeds
    ``median + max(k_sigma·std, (min_ratio−1)·median)``.  Item totals are
    the *sampled* per-function sums (window ground truth is not available
    mid-stream), so verdicts can differ near the band edge from the final
    one-shot report — which is why the facade re-runs the exact batch
    diagnosis on the finalized trace after the stream ends.

    Retention (paper §IV-C3): an item's ``raw_bytes`` are *dumped* (kept)
    exactly when it gets an outlier verdict, whose culprit is the dump's
    trigger; every other item's bytes are discarded.  The byte counters
    and :attr:`reduction_factor` account the policy, and the
    ``repro_online_*`` telemetry counters publish it.
    """

    def __init__(
        self,
        group_of: Mapping[int, Hashable] | Callable[[int], Hashable] | None = None,
        *,
        k_sigma: float = 3.5,
        min_ratio: float = 1.2,
        min_baseline: int = 5,
        reset_value: int | None = None,
        record_bytes: int = 240,
        on_verdict: Callable[[ItemVerdict], None] | None = None,
    ) -> None:
        if k_sigma <= 0:
            raise TraceError(f"k_sigma must be > 0, got {k_sigma}")
        if min_ratio < 1.0:
            raise TraceError(f"min_ratio must be >= 1.0, got {min_ratio}")
        if min_baseline < 2:
            raise TraceError(f"min_baseline must be >= 2, got {min_baseline}")
        self._lookup = (
            (lambda _i: WHOLE_TRACE)
            if group_of is None
            else (group_of if callable(group_of) else group_of.__getitem__)
        )
        self.k_sigma = k_sigma
        self.min_ratio = min_ratio
        self.min_baseline = min_baseline
        self.reset_value = (
            reset_value if reset_value is not None else DEFAULT_RESET_VALUE
        )
        self.record_bytes = record_bytes
        self.on_verdict = on_verdict
        self.items_observed = 0
        self.items_dumped = 0
        self.bytes_dumped = 0
        self.bytes_discarded = 0
        #: The newest :data:`MAX_ONLINE_VERDICTS` outlier verdicts, in
        #: observation order; older ones are counted in ``verdicts_evicted``.
        self.verdicts: list[ItemVerdict] = []
        self.verdicts_evicted = 0
        self._groups: dict[Hashable, _RunningGroup] = {}

    def observe_item(
        self, item_id: int, breakdown: Mapping[str, int], raw_bytes: int
    ) -> ItemVerdict | None:
        """Classify one completed item; returns its verdict when flagged.

        A flagged item's ``raw_bytes`` are accounted as dumped, any other
        item's as discarded.  The baseline is updated *after*
        classification, so an extreme item cannot vouch for itself.
        """
        self.items_observed += 1
        key = self._lookup(item_id)
        g = self._groups.setdefault(key, _RunningGroup())
        total = int(sum(breakdown.values()))
        verdict: ItemVerdict | None = None
        if g.n >= self.min_baseline:
            center = g.median
            band = max(self.k_sigma * g.std, (self.min_ratio - 1.0) * center)
            hi = center + band
            if total > hi and band > 0:
                n_samples = max(1, raw_bytes // self.record_bytes)
                excesses = {
                    fn: int(cyc - g.fn_mean(fn))
                    for fn, cyc in breakdown.items()
                    if cyc - g.fn_mean(fn) > 0
                }
                total_excess = sum(excesses.values())
                attrs = tuple(
                    FunctionAttribution(
                        fn_name=fn,
                        excess_cycles=exc,
                        share=exc / total_excess if total_excess else 0.0,
                        n_samples=n_samples,
                        confidence=sample_confidence(
                            exc, n_samples, self.reset_value
                        ),
                    )
                    for fn, exc in sorted(excesses.items(), key=lambda kv: -kv[1])
                )
                verdict = ItemVerdict(
                    item_id=item_id,
                    group=key,
                    total_cycles=total,
                    center_cycles=center,
                    deviation=(total - center) / (band / self.k_sigma),
                    is_outlier=True,
                    excess_cycles=max(0, int(round(total - center))),
                    attributions=attrs,
                )
        g.add(total, breakdown)
        ins = _obs()
        ins.online_items.inc()
        if verdict is None:
            self.bytes_discarded += raw_bytes
            ins.online_bytes_discarded.inc(raw_bytes)
            return None
        self.items_dumped += 1
        self.bytes_dumped += raw_bytes
        ins.online_dumped.inc()
        ins.online_bytes_dumped.inc(raw_bytes)
        ins.diag_online_verdicts.inc()
        self.verdicts.append(verdict)
        if len(self.verdicts) > MAX_ONLINE_VERDICTS:
            del self.verdicts[0]
            self.verdicts_evicted += 1
            ins.online_decisions_dropped.inc()
        if self.on_verdict is not None:
            self.on_verdict(verdict)
        return verdict

    @property
    def reduction_factor(self) -> float:
        """How much storage the policy saved (total / kept bytes)."""
        total = self.bytes_dumped + self.bytes_discarded
        if self.bytes_dumped == 0:
            return float("inf") if total > 0 else 1.0
        return total / self.bytes_dumped

    def summary(self) -> dict:
        """Policy outcome counters (for ingest reports and logs).

        Computed from running totals, not the verdict log — the log is
        bounded and may have evicted its oldest entries.
        """
        return {
            "items_observed": self.items_observed,
            "items_dumped": self.items_dumped,
            "items_discarded": self.items_observed - self.items_dumped,
            "verdicts_evicted": self.verdicts_evicted,
            "bytes_dumped": self.bytes_dumped,
            "bytes_discarded": self.bytes_discarded,
            "reduction_factor": self.reduction_factor,
            "groups": len(self._groups),
        }
