"""Worker-pool supervision: hung shards, transient crashes, retries.

These tests inject misbehaving shard workers through ``ingest_trace``'s
``_shard_fn`` hook on two shard threads.  A thread cannot be killed: the
property under test is that the supervisor abandons a shard hung past
its timeout and the run still returns on time.  Timeouts are kept short
so a supervision bug shows up as a test failure, not a stalled suite
(CI adds a job-level timeout on top).
"""

from __future__ import annotations

import functools

import pytest

from repro.core.hybrid import traces_equal
from repro.core.integrity import KIND_SHARD
from repro.core.options import IngestOptions
from repro.core.streaming import ingest_trace
from repro.errors import ShardError, TraceError
from repro.testing.faults import flaky_then_integrate, hang_then_integrate
from tests.faults.conftest import CHUNK


def ingest(path, **kw):
    shard_fn = kw.pop("_shard_fn", None)
    opts = IngestOptions(workers=2, chunk_size=CHUNK).replace(**kw)
    return ingest_trace(path, options=opts, _shard_fn=shard_fn)


@pytest.mark.parametrize("workers", [2, 4])
def test_thread_shards_match_sequential(trace_copy, workers):
    # Shard threads share one reader; a damaged container must come out
    # exactly as the sequential ingest leaves it: traces, defects and
    # coverage alike.
    from repro.testing import faults as f

    f.flip_sample_bit(trace_copy, 0, chunk=1, column="ts", index=3, bit=60)
    f.flip_switch_bit(trace_copy, 1, index=4, bit=40)
    seq = ingest(trace_copy, workers=1, on_corruption="repair")
    par = ingest(trace_copy, workers=workers, on_corruption="repair")
    assert seq.quarantine.defects
    assert traces_equal(par.trace, seq.trace)
    for core, trace in seq.per_core.items():
        assert traces_equal(par.per_core[core], trace)
    assert par.quarantine.defects == seq.quarantine.defects
    assert par.coverage == seq.coverage


def test_hung_worker_strict_raises(clean_path):
    fn = functools.partial(hang_then_integrate, hang_cores=(1,), sleep_s=30.0)
    with pytest.raises(ShardError):
        ingest(clean_path, shard_timeout=0.75, max_retries=0, _shard_fn=fn)


def test_hung_worker_partial_merge(clean_path, clean_result):
    fn = functools.partial(hang_then_integrate, hang_cores=(1,), sleep_s=30.0)
    res = ingest(
        clean_path,
        on_corruption="quarantine",
        shard_timeout=0.75,
        max_retries=0,
        _shard_fn=fn,
    )
    # The healthy shard survives, bit for bit; the hung one is reported.
    assert res.stats.failed_cores == (1,)
    assert sorted(res.per_core) == [0]
    assert traces_equal(res.per_core[0], clean_result.per_core[0])
    cov = res.coverage[1]
    assert cov.shard_failed
    assert not cov.complete
    assert cov.sample_coverage == 0.0
    assert any(d.kind == KIND_SHARD and d.core == 1 for d in res.quarantine.defects)


def test_every_shard_hung_raises_even_lenient(clean_path):
    fn = functools.partial(hang_then_integrate, hang_cores=(0, 1), sleep_s=30.0)
    with pytest.raises(ShardError):
        ingest(
            clean_path,
            on_corruption="quarantine",
            shard_timeout=0.75,
            max_retries=0,
            _shard_fn=fn,
        )


def test_flaky_shard_recovers_on_retry(clean_path, clean_result, tmp_path):
    fn = functools.partial(
        flaky_then_integrate,
        marker_dir=str(tmp_path),
        fail_cores=(1,),
        fail_times=1,
    )
    res = ingest(
        clean_path,
        shard_timeout=30.0,
        max_retries=2,
        retry_backoff_s=0.01,
        _shard_fn=fn,
    )
    assert res.stats.failed_cores == ()
    assert res.coverage[1].retries == 1
    assert res.coverage[0].retries == 0
    assert traces_equal(res.trace, clean_result.trace)


def test_flaky_shard_exhausts_retries(clean_path, clean_result, tmp_path):
    fn = functools.partial(
        flaky_then_integrate,
        marker_dir=str(tmp_path),
        fail_cores=(1,),
        fail_times=5,
    )
    res = ingest(
        clean_path,
        on_corruption="quarantine",
        shard_timeout=30.0,
        max_retries=1,
        retry_backoff_s=0.01,
        _shard_fn=fn,
    )
    assert res.stats.failed_cores == (1,)
    assert traces_equal(res.per_core[0], clean_result.per_core[0])
    assert res.coverage[1].shard_failed


def test_corrupt_shard_is_not_retried(trace_copy, tmp_path):
    # A deterministic TraceError must fail immediately: retrying reads
    # the same corrupt bytes.  The marker dir stays empty because the
    # flaky wrapper is not involved — corruption comes from the file.
    from repro.testing import faults as f

    f.flip_sample_bit(trace_copy, 0, chunk=0, column="ts", index=3, bit=60)
    with pytest.raises(ShardError) as exc_info:
        ingest(trace_copy, shard_timeout=30.0, max_retries=3)
    assert "CorruptionError" in str(exc_info.value)


def test_supervision_parameter_validation():
    with pytest.raises(TraceError):
        IngestOptions(shard_timeout=0)
    with pytest.raises(TraceError):
        IngestOptions(max_retries=-1)
    with pytest.raises(TraceError):
        IngestOptions(on_corruption="ignore")
