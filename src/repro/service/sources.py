"""Pluggable segment sources feeding the shard protocol.

The daemon consumes *frames*; producers hold their trace data in one of
three shapes.  Each source turns its shape into the common wire unit —
the sealed-segment ``(record, segment file bytes)`` pair of
:mod:`repro.core.durable` — without re-encoding trace content:

* :func:`iter_journal_segments` walks a recording journal directory
  (a crashed or still-open durable capture) in seal order;
* :func:`journal_from_container` re-segments a *finalized* container
  back into journal form, so finished runs ship over the same protocol
  as crash leftovers;
* :class:`MemorySource` is an asyncio queue of frames (tests, in-process
  producers);
* :class:`StreamSource` decodes frames off any asyncio byte stream.
"""

from __future__ import annotations

import asyncio
import pathlib

from repro.core.durable import DurableTraceWriter, read_journal
from repro.core.options import IngestOptions
from repro.core.tracefile import TraceReader
from repro.errors import TraceError
from repro.service.protocol import MAX_FRAME_BYTES, Frame, FrameDecoder


def iter_journal_segments(jdir: str | pathlib.Path):
    """Yield ``(record, data)`` for every sealed segment, in seal order.

    ``record`` is the journal's seal line (already carrying seq, kind,
    crc and extent metadata); ``data`` is the segment file's bytes, as
    written (:func:`~repro.core.durable.encode_segment`).  A torn journal
    tail is expected after a producer crash and simply ends the
    iteration; a sealed segment whose file is missing raises
    :class:`~repro.errors.TraceError` — the journal promised bytes the
    producer can no longer supply, which the caller must surface rather
    than silently ship a shorter run.
    """
    jdir = pathlib.Path(jdir)
    records, _torn = read_journal(jdir)
    for rec in records:
        if rec.get("op") != "seal":
            continue
        seg = jdir / rec["file"]
        try:
            data = seg.read_bytes()
        except OSError as exc:
            raise TraceError(
                f"journal {jdir} sealed {rec['file']} but the segment "
                f"cannot be read: {exc}"
            ) from exc
        yield rec, data


def journal_from_container(
    container: str | pathlib.Path,
    workdir: str | pathlib.Path,
    *,
    options: IngestOptions | None = None,
) -> pathlib.Path:
    """Re-segment a finalized container into a journal directory.

    Returns the journal directory (under ``workdir``), laid out exactly
    as a durable capture would have left it *before* finalizing — which
    is what makes a finished run and a crashed capture identical on the
    wire.  ``options.chunk_size`` bounds each sample segment.
    """
    container = pathlib.Path(container)
    opts = options if options is not None else IngestOptions()
    workdir = pathlib.Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    target = workdir / container.name
    with TraceReader(container) as reader:
        writer = DurableTraceWriter(
            target, reader.symtab, dict(reader.meta), compress=False
        )
        for core in reader.sample_cores:
            for chunk in reader.iter_sample_chunks(core, opts.chunk_size):
                writer.append_samples(core, chunk)
        for core in reader.switch_cores:
            writer.append_switches(core, reader.switches(core))
    # Deliberately not finalized: the journal *is* the product here.
    return writer.dir


class MemorySource:
    """An in-memory frame source: a bounded asyncio queue with EOF.

    The producer side calls :meth:`put` / :meth:`close`; the consumer
    iterates ``async for frame in source``.  Used by tests and
    in-process producers to drive the daemon without a transport.
    """

    _EOF = object()

    def __init__(self, maxsize: int = 64) -> None:
        self._q: asyncio.Queue = asyncio.Queue(maxsize=maxsize)

    async def put(self, frame: Frame) -> None:
        await self._q.put(frame)

    async def close(self) -> None:
        await self._q.put(self._EOF)

    def __aiter__(self):
        return self

    async def __anext__(self) -> Frame:
        item = await self._q.get()
        if item is self._EOF:
            raise StopAsyncIteration
        return item


class StreamSource:
    """Decode frames off an asyncio byte stream (socket, pipe).

    Wraps a :class:`~repro.service.protocol.FrameDecoder`; EOF mid-frame
    raises :class:`~repro.errors.ProtocolError` exactly like any other
    truncation, so a producer dying mid-segment can never half-deliver.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        read_size: int = 256 * 1024,
    ) -> None:
        self._reader = reader
        self._decoder = FrameDecoder(max_frame_bytes)
        self._read_size = read_size
        self._pending: list[Frame] = []

    def __aiter__(self):
        return self

    async def __anext__(self) -> Frame:
        while not self._pending:
            data = await self._reader.read(self._read_size)
            if not data:
                self._decoder.finish()  # raises if the stream died mid-frame
                raise StopAsyncIteration
            self._pending = self._decoder.feed(data)
        return self._pending.pop(0)


__all__ = [
    "MemorySource",
    "StreamSource",
    "iter_journal_segments",
    "journal_from_container",
]
