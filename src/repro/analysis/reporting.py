"""Plain-text rendering for benchmark output.

Benchmarks print the same rows/series the paper's tables and figures
show; these helpers keep that output aligned and consistent without any
plotting dependency.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Fixed-width table with a header rule, ready for printing."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but there are {len(headers)} headers"
            )
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    def fmt_row(row: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(row, widths))
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(r) for r in cells)
    return "\n".join(lines)


def format_ingest_report(
    stats, diag_summary: dict | None = None, coverage: dict | None = None
) -> str:
    """Render one streaming-ingest run's throughput (and online policy).

    ``stats`` is an :class:`~repro.core.streaming.IngestStats`;
    ``diag_summary`` the dict from
    :meth:`~repro.analysis.diagnose.StreamingDiagnoser.summary` when the
    online diagnoser rode along with the ingest; ``coverage`` the
    per-core :class:`~repro.core.integrity.CoverageStats` of a lenient
    run — cores whose data survived incomplete get a coverage row so a
    degraded report is never mistaken for a clean one.
    """
    rows = [
        ["cores", ", ".join(str(c) for c in stats.cores)],
        ["workers", f"{stats.workers} ({stats.pool})"],
        ["chunk size (samples)", stats.chunk_size or "(whole shard)"],
        ["chunks", stats.chunks],
        ["samples", stats.samples],
        ["wall time (s)", f"{stats.wall_s:.3f}"],
        ["throughput (MB/s)", f"{stats.mb_per_s:.1f}"],
        ["throughput (samples/s)", f"{stats.samples_per_s:,.0f}"],
    ]
    if stats.failed_cores:
        rows.append(
            ["FAILED cores", ", ".join(str(c) for c in stats.failed_cores)]
        )
    if coverage is not None:
        for core in sorted(coverage):
            cov = coverage[core]
            if cov.complete:
                continue
            detail = (
                "shard failed"
                if cov.shard_failed
                else f"samples {cov.sample_coverage:.1%}, "
                f"windows {cov.window_coverage:.1%}"
                + (
                    f", degraded items: "
                    + ", ".join(str(i) for i in cov.degraded_items)
                    if cov.degraded_items
                    else ""
                )
                + (", extent unknown" if cov.unknown_extent else "")
            )
            rows.append([f"core {core} coverage", detail])
    if diag_summary is not None:
        rows.append(["items observed online", diag_summary["items_observed"]])
        rows.append(["items dumped", diag_summary["items_dumped"]])
        red = diag_summary["reduction_factor"]
        rows.append(
            ["storage reduction", "inf" if red == float("inf") else f"{red:.1f}x"]
        )
    return format_table(["metric", "value"], rows, title="streaming ingest")


def ascii_series(
    xs: Sequence[float],
    ys: Sequence[float],
    width: int = 50,
    label: str = "",
) -> str:
    """A one-line-per-point log-friendly bar rendering of a series."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if not ys:
        return f"{label}: (empty)"
    top = max(ys)
    lines = [f"{label}:"] if label else []
    for x, y in zip(xs, ys):
        bar = "#" * max(1, int(round(width * (y / top)))) if top > 0 else ""
        lines.append(f"  {x:>12g}  {y:>12.3f}  {bar}")
    return "\n".join(lines)
