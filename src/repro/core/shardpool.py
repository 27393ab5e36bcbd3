"""Supervised worker pools: the shard-execution layer under ingestion.

Split out of :mod:`repro.core.streaming` so the same supervision
discipline — fresh pool per retry round, per-shard timeouts, exponential
backoff, permanent-vs-retryable classification — serves every consumer
of parallel or fallible work, not just container ingestion.  Users:

* :func:`repro.core.streaming.ingest_trace` fans core-shards out through
  :func:`run_supervised`;
* the ingestion daemon (:mod:`repro.service.daemon`) drives run
  compaction through :func:`supervised_call`, so a transiently failing
  compaction retries with backoff while a deterministic failure (a
  corrupt journal) fails fast instead of looping.

Shard workers are threads: they share the caller's address space (and
its open container reader), and the hot numpy and zlib calls release
the GIL.  A fork-based process backend was measured slower than one
thread on every host tried, so there is no other backend.

The classification rule is shared: a :class:`~repro.errors.TraceError`
is *permanent* — it is deterministic, the stored bytes will not change
on retry — while timeouts and any other exception (a transient
``OSError``, a ``MemoryError``) are *retryable*.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import time
from typing import Callable, TypeVar

from repro.errors import TraceError
from repro.obs.instrumented import pipeline as _obs
from repro.obs.spans import span

T = TypeVar("T")


def shard_round(
    jobs: list[tuple[int, tuple]],
    n_threads: int,
    shard_timeout: float | None,
    shard_fn,
) -> tuple[dict[int, tuple], dict[int, str], dict[int, str]]:
    """Run one attempt of every shard job in a fresh thread pool.

    Returns ``(done, retryable, permanent)`` keyed by core.  A
    :class:`~repro.errors.TraceError` is *permanent*: it is deterministic
    (the stored bytes will not change on retry).  Timeouts and any other
    exception are *retryable*.  The pool is terminated at the end of the
    round either way: ``terminate()`` rather than ``close()``/``join()``,
    because a hung shard never finishes and a graceful shutdown would
    hang the caller with it.  A thread cannot be killed, so a shard hung
    past its timeout is abandoned (its daemon thread blocks nothing).
    """
    done: dict[int, tuple] = {}
    retryable: dict[int, str] = {}
    permanent: dict[int, str] = {}
    ins = _obs()
    t_round = time.perf_counter()
    pool = multiprocessing.pool.ThreadPool(processes=n_threads)
    try:
        handles = [(core, pool.apply_async(shard_fn, args)) for core, args in jobs]
        for core, handle in handles:
            try:
                done[core] = handle.get(shard_timeout)
                ins.shard_wait.observe(time.perf_counter() - t_round)
            except multiprocessing.TimeoutError:
                retryable[core] = (
                    f"shard for core {core} exceeded its {shard_timeout:g}s timeout"
                )
            except TraceError as exc:
                permanent[core] = f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # transient worker failure
                retryable[core] = f"{type(exc).__name__}: {exc}"
    finally:
        pool.terminate()
    return done, retryable, permanent


def run_supervised(
    jobs: list[tuple[int, tuple]],
    n_threads: int,
    shard_timeout: float | None,
    max_retries: int,
    retry_backoff_s: float,
    shard_fn,
) -> tuple[dict[int, tuple], dict[int, str], dict[int, int]]:
    """Drive shard jobs to completion with bounded retries and backoff.

    ``max_retries`` bounds the *re*-attempts after the first try.  Each
    round runs in a fresh pool so a thread hung in round N cannot occupy
    a slot in round N+1.  Returns ``(results, failures, retries)`` keyed
    by core; a core appears in exactly one of the first two.
    """
    results: dict[int, tuple] = {}
    failures: dict[int, str] = {}
    retries: dict[int, int] = {}
    ins = _obs()
    outstanding = list(jobs)
    attempt = 0
    while outstanding:
        with span("ingest.round", attempt=attempt, shards=len(outstanding)):
            done, retryable, permanent = shard_round(
                outstanding,
                min(n_threads, len(outstanding)),
                shard_timeout,
                shard_fn,
            )
        results.update(done)
        failures.update(permanent)
        if not retryable:
            break
        attempt += 1
        if attempt > max_retries:
            failures.update(
                {
                    core: msg + f" (gave up after {max_retries} retries)"
                    for core, msg in retryable.items()
                }
            )
            break
        for core in retryable:
            retries[core] = attempt
        ins.shard_retries.inc(len(retryable))
        ins.pool_restarts.inc()
        outstanding = [(c, a) for c, a in outstanding if c in retryable]
        backoff = retry_backoff_s * (2 ** (attempt - 1))
        ins.backoff_seconds.inc(backoff)
        time.sleep(backoff)
    return results, failures, retries


def supervised_call(
    fn: Callable[[], T],
    *,
    max_retries: int,
    retry_backoff_s: float,
    sleep: Callable[[float], None] = time.sleep,
    label: str = "operation",
) -> T:
    """Run one fallible operation under the shard supervision discipline.

    Same classification as :func:`shard_round`: a
    :class:`~repro.errors.TraceError` is permanent and re-raised
    immediately; any other :class:`Exception` is retried up to
    ``max_retries`` times with exponential backoff starting at
    ``retry_backoff_s``.  ``sleep`` is injectable so async callers can
    substitute a non-blocking wait and tests can make it a no-op.
    """
    attempt = 0
    ins = _obs()
    while True:
        try:
            return fn()
        except TraceError:
            raise
        except Exception as exc:
            attempt += 1
            if attempt > max_retries:
                raise TraceError(
                    f"{label} failed after {max_retries} retries: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
            backoff = retry_backoff_s * (2 ** (attempt - 1))
            ins.backoff_seconds.inc(backoff)
            sleep(backoff)


__all__ = [
    "shard_round",
    "run_supervised",
    "supervised_call",
]
