"""Property tests for :class:`~repro.core.durable.AppendLog`.

Every durable log in the package (recording journal, store run
journals, catalog, replication ledger) is an ``AppendLog``, so one crash
rule covers them all: whatever a crash or a bad disk leaves behind — the
file cut at any byte, or one byte of any line destroyed — ``read()``
returns exactly the longest valid prefix of what was appended and flags
``torn`` exactly when bytes remain past it, and the next ``append`` —
from the process that opens the log after the crash — repairs the tail
so the log reads back as that prefix plus the new record.
"""

from __future__ import annotations

import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.durable import JournalLog
from repro.service.replica import LedgerLog
from repro.service.store import CatalogLog, RunJournalLog
from repro.testing.faults import CountingIO

LOGS = (JournalLog, RunJournalLog, CatalogLog, LedgerLog)

_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.text(max_size=12),
    st.lists(st.integers(min_value=0, max_value=9), max_size=3),
)
_bodies = st.dictionaries(st.text(min_size=1, max_size=6), _values, max_size=4)

#: Bytes that can never occur in valid UTF-8: writing one anywhere in a
#: line (its newline included) makes that line unreadable.
_POISON = st.sampled_from([0xC0, 0xC1, *range(0xF5, 0x100)])


def _record(log_cls, body: dict) -> dict:
    return {**{key: "x" for key in log_cls.REQUIRED}, **body}


def _append_all(log, records) -> list[int]:
    """Append ``records``; return each line's end offset in the file."""
    log.path.touch()
    for rec in records:
        log.append(rec)
    ends, pos = [], 0
    for line in log.path.read_bytes().splitlines(keepends=True):
        pos += len(line)
        ends.append(pos)
    assert len(ends) == len(records)
    return ends


@given(
    log_cls=st.sampled_from(LOGS),
    bodies=st.lists(_bodies, max_size=8),
    new_body=_bodies,
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_damaged_log_reads_its_longest_valid_prefix(log_cls, bodies, new_body, data):
    records = [_record(log_cls, b) for b in bodies]
    new = _record(log_cls, new_body)
    with tempfile.TemporaryDirectory() as tmp:
        log = log_cls(pathlib.Path(tmp) / "log.jsonl")
        ends = _append_all(log, records)
        raw = bytearray(log.path.read_bytes())
        if ends and data.draw(st.booleans(), label="corrupt"):
            line = data.draw(st.integers(0, len(ends) - 1), label="line")
            start = ends[line - 1] if line else 0
            at = data.draw(st.integers(start, ends[line] - 1), label="byte")
            raw[at] = data.draw(_POISON, label="poison")
            keep, torn = line, True
        else:
            # Anywhere, or right at a line's end with or without its newline.
            boundaries = [end - d for end in ends for d in (0, 1)]
            cuts = st.integers(0, len(raw))
            if boundaries:
                cuts = st.one_of(cuts, st.sampled_from(boundaries))
            cut = data.draw(cuts, label="cut")
            del raw[cut:]
            # A line counts once its JSON is whole, newline or not.
            keep = sum(1 for end in ends if end - 1 <= cut)
            torn = cut > (ends[keep - 1] if keep else 0)
        log.path.write_bytes(bytes(raw))

        reopened = log_cls(log.path)  # the next process after the crash
        assert reopened.read() == (records[:keep], torn)
        reopened.append(new)
        assert reopened.read() == (records[:keep] + [new], False)


@given(log_cls=st.sampled_from(LOGS), bodies=st.lists(_bodies, max_size=4))
@settings(max_examples=50, deadline=None)
def test_clean_append_costs_its_writes_only(log_cls, bodies):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        _append_all(log_cls(root / "log.jsonl"), [_record(log_cls, b) for b in bodies])
        io = CountingIO()
        log = log_cls(root / "log.jsonl", io)
        log.append(_record(log_cls, {}))
        assert io.ops == 2  # append + fsync
        log.append(_record(log_cls, {}), file=(root / "seg.npz", b"payload"))
        # tmp write + fsync + rename + fsync(dir), then append + fsync
        assert io.ops == 2 + 6
        assert (root / "seg.npz").read_bytes() == b"payload"
