"""The paper's contribution: hybrid coarse-instrumentation + PEBS tracing.

Module map:

* :class:`~repro.core.instrument.MarkingTracer` — the coarse instrumentation
  (a marking function only at data-item switches).
* :class:`~repro.core.fulltrace.FullInstrumentationTracer` — the gprof-style
  per-function baseline the paper compares against.
* :func:`~repro.core.hybrid.integrate` — merge PEBS samples with switch
  records and a symbol table into per-data-item, per-function elapsed-time
  estimates (paper Section III-D steps 2 and 3).
* :mod:`~repro.core.profilelib` — averaged profiles (what traces are *not*).
* :mod:`~repro.core.streaming` — chunked, sharded ingestion; feeds the
  online diagnoser while it streams.
* :mod:`~repro.core.registertag` — Section V-A register-tag mapping.
* :mod:`~repro.core.overhead` — ref [6]-style overhead prediction.
* :mod:`~repro.core.storage` — trace encoding and data-rate accounting.

Diagnosis — which items fluctuate, and which function caused it, batch
or online — lives in :mod:`repro.analysis.diagnose`.  Import from the
defining submodule (``from repro.core.hybrid import integrate``), or use
the :mod:`repro.api` facade.
"""
