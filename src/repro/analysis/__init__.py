"""Experiment analysis: interval statistics, regressions, report rendering.

Machine-readable output goes through one door: the versioned envelope of
:mod:`repro.analysis.report` (re-exported here), which the
:mod:`repro.api` verbs' reports serialize through via ``to_json``.
"""

from repro.analysis.depgraph import (
    WaitHop,
    blocked_by_chain,
    describe_chain,
    heaviest_wait,
    item_wait_cycles,
)
from repro.analysis.distribution import LatencyStats, latency_stats, text_histogram
from repro.analysis.export import to_chrome_trace, to_csv, write_chrome_trace
from repro.analysis.intervals import IntervalStats, interval_stats
from repro.analysis.linearity import LinearFit, fit_interval_linearity
from repro.analysis.report import SCHEMA_VERSION, SCHEMAS, envelope, render_json
from repro.analysis.reporting import ascii_series, format_table
from repro.analysis.timeline import render_item_timeline

__all__ = [
    "IntervalStats",
    "LatencyStats",
    "LinearFit",
    "SCHEMAS",
    "SCHEMA_VERSION",
    "WaitHop",
    "ascii_series",
    "blocked_by_chain",
    "describe_chain",
    "envelope",
    "fit_interval_linearity",
    "format_table",
    "heaviest_wait",
    "interval_stats",
    "item_wait_cycles",
    "latency_stats",
    "render_item_timeline",
    "render_json",
    "text_histogram",
    "to_chrome_trace",
    "to_csv",
    "write_chrome_trace",
]
