"""repro — hybrid instrumentation + hardware-sampling fluctuation tracer.

A production-shaped reproduction of *"Diagnosing Performance Fluctuations
of High-throughput Software for Multi-core CPUs"* (Akiyama, Hirofuchi,
Takano; 2018) on a simulated multicore substrate.  See DESIGN.md for the
system inventory and EXPERIMENTS.md for paper-vs-measured results.

The supported import surface is the :mod:`repro.api` facade, re-exported
here::

    import repro

    repro.record("acl", out="run.npz")
    report = repro.diagnose("run.npz")
    delta = repro.diff("base.npz", "regressed.npz")
    print(delta.top)

Engine layers (:mod:`repro.machine`, :mod:`repro.runtime`,
:mod:`repro.core`, :mod:`repro.workloads` / :mod:`repro.acl`,
:mod:`repro.analysis`, :mod:`repro.obs`) remain importable by their full
module paths for custom assemblies (``from repro.core.hybrid import
integrate``).
"""

from repro.api import (
    AnomalyConfig,
    IngestOptions,
    OverloadPolicy,
    diagnose,
    diff,
    explain,
    integrate,
    load,
    record,
    recover,
)
from repro.errors import ReproError

__version__ = "1.2.0"

__all__ = [
    "AnomalyConfig",
    "IngestOptions",
    "OverloadPolicy",
    "ReproError",
    "diagnose",
    "diff",
    "explain",
    "integrate",
    "load",
    "record",
    "recover",
    "__version__",
]
