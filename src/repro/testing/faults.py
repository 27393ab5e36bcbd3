"""Fault injection for trace containers and shard workers.

Every fault the ingestion pipeline claims to survive is injectable here,
against a real saved container, so tests assert each corruption policy's
exact behavior instead of trusting code inspection:

* storage faults — :func:`flip_sample_bit` (bit rot; checksums left
  stale on purpose), :func:`flip_stored_bit` (the same below the member
  codec, on the stored bytes), :func:`truncate_chunks` (torn write),
  :func:`misalign_columns` (partial column), :func:`shuffle_chunks`
  (out-of-order writer);
* semantic faults — :func:`drop_switch_records` /
  :func:`duplicate_switch_records` (log-buffer overrun, double marking);
* worker faults — :func:`hang_then_integrate` /
  :func:`flaky_then_integrate`, shard workers for ``ingest_trace``'s
  ``_shard_fn`` hook (a hung shard thread is abandoned, not killed);
* writer faults — shims over the durable recorder's
  :class:`~repro.core.durable.RecorderIO` syscall surface:
  :class:`CrashingIO` (SIGKILL before operation N, optionally tearing a
  write halfway), :class:`ENOSPCIO` (disk fills after a byte budget),
  :class:`FsyncFailingIO` (fsync starts failing with EIO).  Run a
  scenario once against :class:`CountingIO` to learn how many kill
  points it has; the kill-at-any-offset suite then enumerates them all.

Storage faults rewrite the ``.npz`` in place via :func:`rewrite_container`,
which decodes and re-encodes members with the container's own reader and
writer, so a fault lands in a current-version container;
``read_segment`` / ``write_segment`` are the recorder's own segment codec
(either layout in, the current one out) for faults in journal segments.
``refresh_checksums`` distinguishes the two corruption families: bit rot
happens *after* the checksum was computed (leave it stale, the mismatch is
the point), while writer bugs — shuffled chunks, duplicated marks —
produce self-consistent files whose *content* is wrong (refresh, so only
the semantic fault is visible).
"""

from __future__ import annotations

import errno
import os
import pathlib
import time
import zipfile

import numpy as np

from repro.core.durable import RecorderIO
from repro.core.durable import decode_segment as read_segment
from repro.core.durable import encode_segment as write_segment
from repro.core.integrity import member_crc
from repro.core.streaming import _integrate_core_shard
from repro.core.tracefile import (
    _HEADER,
    _member,
    _open_container,
    atomic_savez,
    with_header,
    write_zip,
)

_SAMPLE_COLS = ("ts", "ip", "tag")
_SWITCH_COLS = ("ts", "item", "kind")


def read_container(path: str | pathlib.Path) -> tuple[dict[str, np.ndarray], dict]:
    """All members (minus the header), decoded, plus the parsed header dict.

    Reads any container version through the reader's own decoder.
    """
    zf, header = _open_container(path)
    with zf:
        names = [n.removesuffix(".npy") for n in zf.namelist()]
        arrays = {n: _member(zf, header, n) for n in names if n != _HEADER}
    return arrays, header


def write_container(
    path: str | pathlib.Path, arrays: dict[str, np.ndarray], header: dict
) -> None:
    """Reassemble a container from mutated members (uncompressed).

    Written by the container writer itself, so the result is a current
    (version :data:`~repro.core.tracefile.FORMAT_VERSION`) container
    whose member table matches ``arrays``; the rest of ``header`` — the
    crc32 map and row counts included — is kept as given.
    """
    atomic_savez(path, with_header(arrays, header), compress=False)


def rewrite_container(
    path: str | pathlib.Path, mutate, *, refresh_checksums: bool = False
) -> None:
    """Apply ``mutate(arrays, header)`` to a saved container, in place.

    With ``refresh_checksums`` the header's crc32 map is recomputed from
    the mutated members (simulating a buggy-but-checksumming writer);
    without it, stale checksums expose the mutation as bit rot.
    """
    arrays, header = read_container(path)
    mutate(arrays, header)
    if refresh_checksums and "crc32" in header:
        header["crc32"] = {
            name: member_crc(arrays[name])
            for name in header["crc32"]
            if name in arrays
        }
    write_container(path, arrays, header)


def sample_member(header: dict, core: int, chunk: int, column: str) -> str:
    """Resolve a sample member name for either container layout."""
    if "sample_chunks" in header:
        return f"core{core}_s{chunk}_{column}"
    return f"core{core}_sample_{column}"


# ---------------------------------------------------------------------------
# Storage faults


def flip_sample_bit(
    path: str | pathlib.Path,
    core: int,
    *,
    chunk: int = 0,
    column: str = "ts",
    index: int = 0,
    bit: int = 60,
) -> None:
    """Bit rot: flip one bit of one stored sample value.

    Checksums are deliberately left stale — the crc32 mismatch is what a
    reader is supposed to notice.  Flipping a high bit of a ``ts`` value
    also breaks monotonicity, which is what lets the repair policy
    localise the damage to that single record.
    """

    def mutate(arrays: dict, header: dict) -> None:
        name = sample_member(header, core, chunk, column)
        arr = arrays[name].copy()
        arr[index] ^= np.int64(1) << np.int64(bit)
        arrays[name] = arr

    rewrite_container(path, mutate)


def flip_stored_bit(
    path: str | pathlib.Path, member: str, *, offset: int, bit: int
) -> None:
    """Bit rot below the member codec: flip one bit of a stored byte.

    The member's stored (inflated) bytes get bit ``bit`` of byte
    ``offset`` flipped and are deflated again, so the zip's own crc
    matches and only the header's crc32 map, left stale, notices.  For a
    version-4 integer member of ``n`` values, byte ``j`` of value ``i``
    is stored at offset ``j * n + i``.
    """
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
        stored = {info.filename: zf.read(info) for info in infos}
    data = bytearray(stored[member])
    data[offset] ^= 1 << bit
    stored[member] = bytes(data)
    compress = any(info.compress_type == zipfile.ZIP_DEFLATED for info in infos)
    with open(path, "wb") as fh:
        write_zip(fh, stored.items(), compress=compress)


def flip_switch_bit(
    path: str | pathlib.Path,
    core: int,
    *,
    column: str = "ts",
    index: int = 0,
    bit: int = 60,
) -> None:
    """Bit rot in the switch log (checksums left stale)."""

    def mutate(arrays: dict, header: dict) -> None:
        name = f"core{core}_switch_{column}"
        arr = arrays[name].copy()
        arr[index] ^= arr.dtype.type(1) << arr.dtype.type(bit)
        arrays[name] = arr

    rewrite_container(path, mutate)


def truncate_chunks(
    path: str | pathlib.Path, core: int, *, n_chunks: int = 1
) -> None:
    """Torn write: the last ``n_chunks`` chunk members never hit the disk.

    The header still claims them (the writer died after the directory
    update), so a reader sees missing members — the classic truncated
    container.
    """

    def mutate(arrays: dict, header: dict) -> None:
        total = int(header["sample_chunks"][str(core)])
        for k in range(total - n_chunks, total):
            for col in _SAMPLE_COLS:
                arrays.pop(f"core{core}_s{k}_{col}", None)

    rewrite_container(path, mutate)


def misalign_columns(
    path: str | pathlib.Path,
    core: int,
    *,
    chunk: int = 0,
    column: str = "ip",
    drop: int = 1,
    refresh_checksums: bool = True,
) -> None:
    """Partial column: one of a chunk's three columns lost its tail.

    Checksums are refreshed by default so the *length* disagreement is
    the only fault the reader sees (pass ``refresh_checksums=False`` to
    stack a checksum mismatch on top).
    """

    def mutate(arrays: dict, header: dict) -> None:
        name = sample_member(header, core, chunk, column)
        arrays[name] = arrays[name][:-drop]

    rewrite_container(path, mutate, refresh_checksums=refresh_checksums)


def shuffle_chunks(
    path: str | pathlib.Path,
    core: int,
    *,
    order: list[int] | None = None,
    refresh_checksums: bool = True,
) -> None:
    """Out-of-order writer: permute one core's stored chunks.

    Default permutation swaps the first two chunks.  Each chunk stays
    internally intact (and, by default, correctly checksummed): the fault
    is purely cross-chunk ordering, which is what lets the repair policy
    recover it losslessly.
    """

    def mutate(arrays: dict, header: dict) -> None:
        total = int(header["sample_chunks"][str(core)])
        perm = list(order) if order is not None else [1, 0] + list(range(2, total))
        if sorted(perm) != list(range(total)):
            raise ValueError(f"order must permute range({total}), got {perm}")
        old = {
            k: {c: arrays[f"core{core}_s{k}_{c}"] for c in _SAMPLE_COLS}
            for k in range(total)
        }
        for new_k, old_k in enumerate(perm):
            for c in _SAMPLE_COLS:
                arrays[f"core{core}_s{new_k}_{c}"] = old[old_k][c]
        rows = header.get("chunk_rows", {}).get(str(core))
        if rows is not None:
            header["chunk_rows"][str(core)] = [rows[k] for k in perm]

    rewrite_container(path, mutate, refresh_checksums=refresh_checksums)


# ---------------------------------------------------------------------------
# Semantic faults (switch log)


def _edit_switch_log(path, core, edit, refresh_checksums: bool) -> None:
    def mutate(arrays: dict, header: dict) -> None:
        names = [f"core{core}_switch_{c}" for c in _SWITCH_COLS]
        cols = [arrays[n] for n in names]
        for n, col in zip(names, edit(cols)):
            arrays[n] = col

    rewrite_container(path, mutate, refresh_checksums=refresh_checksums)


def drop_switch_records(
    path: str | pathlib.Path,
    core: int,
    indices: list[int],
    *,
    refresh_checksums: bool = True,
) -> None:
    """Log-buffer overrun: the given switch records were never written."""

    def edit(cols):
        n = int(cols[0].shape[0])
        keep = np.ones(n, dtype=bool)
        keep[np.asarray(indices, dtype=np.int64)] = False
        return [c[keep] for c in cols]

    _edit_switch_log(path, core, edit, refresh_checksums)


def duplicate_switch_records(
    path: str | pathlib.Path,
    core: int,
    index: int,
    *,
    refresh_checksums: bool = True,
) -> None:
    """Double marking: one switch record appears twice in a row."""

    def edit(cols):
        return [np.insert(c, index, c[index]) for c in cols]

    _edit_switch_log(path, core, edit, refresh_checksums)


# ---------------------------------------------------------------------------
# Writer-side faults: shims over the durable recorder's syscall surface.


class SimulatedCrash(BaseException):
    """Stands in for SIGKILL in the kill-at-any-offset tests.

    A ``BaseException`` on purpose: nothing in the write path may catch
    it (a real SIGKILL runs no handlers), so the writer is abandoned in
    exactly the state the interrupted syscall left on disk.
    """


class CountingIO(RecorderIO):
    """Real filesystem I/O that counts every syscall-surface operation.

    ``ops`` after a clean scenario run is the number of distinct kill
    points that scenario has; ``log`` records ``(op, filename)`` pairs
    for debugging a failing kill index.
    """

    def __init__(self) -> None:
        self.ops = 0
        self.log: list[tuple[str, str]] = []

    def _tick(self, op: str, path) -> None:
        self.ops += 1
        self.log.append((op, pathlib.Path(path).name))

    def makedirs(self, path):
        self._tick("makedirs", path)
        super().makedirs(path)

    def write_bytes(self, path, data):
        self._tick("write_bytes", path)
        super().write_bytes(path, data)

    def append_bytes(self, path, data):
        self._tick("append_bytes", path)
        super().append_bytes(path, data)

    def fsync_path(self, path):
        self._tick("fsync_path", path)
        super().fsync_path(path)

    def fsync_dir(self, path):
        self._tick("fsync_dir", path)
        super().fsync_dir(path)

    def replace(self, src, dst):
        self._tick("replace", src)
        super().replace(src, dst)

    def rmtree(self, path):
        self._tick("rmtree", path)
        super().rmtree(path)


class CrashingIO(CountingIO):
    """Kill the process *before* syscall-surface operation ``kill_at``.

    Operations ``0 .. kill_at-1`` complete normally; operation
    ``kill_at`` raises :class:`SimulatedCrash` instead of running.  With
    ``torn=True`` a killed ``write_bytes``/``append_bytes`` first lands
    the leading half of its payload — the torn-file state a real kill
    mid-``write(2)`` leaves behind.
    """

    def __init__(self, kill_at: int, *, torn: bool = False) -> None:
        super().__init__()
        self.kill_at = kill_at
        self.torn = torn

    def _tick(self, op: str, path) -> None:
        if self.ops >= self.kill_at:
            raise SimulatedCrash(f"killed before op {self.ops} ({op} {path})")
        super()._tick(op, path)

    def write_bytes(self, path, data):
        self._maybe_tear(path, data, append=False)
        super().write_bytes(path, data)

    def append_bytes(self, path, data):
        self._maybe_tear(path, data, append=True)
        super().append_bytes(path, data)

    def _maybe_tear(self, path, data, *, append: bool) -> None:
        if self.torn and self.ops == self.kill_at and len(data) > 1:
            half = data[: len(data) // 2]
            mode = "ab" if append else "wb"
            with open(path, mode) as fh:
                fh.write(half)


class ENOSPCIO(CountingIO):
    """The disk fills after ``capacity_bytes`` of journal/segment writes.

    The over-budget write raises ``OSError(ENOSPC)`` without touching
    the file, the way a full filesystem fails an ``O_APPEND`` write —
    the durable writer must surface it as a typed
    :class:`~repro.errors.TraceWriteError`.
    """

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__()
        self.capacity_bytes = capacity_bytes
        self.bytes_written = 0

    def _charge(self, path, n: int) -> None:
        if self.bytes_written + n > self.capacity_bytes:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        self.bytes_written += n

    def write_bytes(self, path, data):
        self._charge(path, len(data))
        super().write_bytes(path, data)

    def append_bytes(self, path, data):
        self._charge(path, len(data))
        super().append_bytes(path, data)


class FsyncFailingIO(CountingIO):
    """``fsync`` starts failing with EIO after ``ok_fsyncs`` successes.

    Models a dying disk (or an fsync-gate like a full thin-provisioned
    volume): data writes still appear to succeed, but durability
    barriers do not — the writer must refuse to report such a segment as
    sealed.
    """

    def __init__(self, ok_fsyncs: int) -> None:
        super().__init__()
        self.ok_fsyncs = ok_fsyncs
        self.fsyncs = 0

    def _fail_or_count(self, path) -> None:
        if self.fsyncs >= self.ok_fsyncs:
            raise OSError(errno.EIO, os.strerror(errno.EIO), str(path))
        self.fsyncs += 1

    def fsync_path(self, path):
        self._fail_or_count(path)
        super().fsync_path(path)

    def fsync_dir(self, path):
        self._fail_or_count(path)
        super().fsync_dir(path)


# ---------------------------------------------------------------------------
# Worker faults — shard workers for ingest_trace's ``_shard_fn`` hook; bind
# the fault parameters with functools.partial.


def hang_then_integrate(
    reader,
    core: int,
    chunk_size: int | None,
    policy: str,
    hang_cores: tuple[int, ...] = (),
    sleep_s: float = 600.0,
):
    """Shard worker that hangs on selected cores (supervision tests).

    The sleep stands in for a shard stuck in a dead spin or lost I/O.
    The supervisor cannot kill a thread: at the per-shard timeout it
    abandons the hung one and the run returns without it.
    """
    if core in hang_cores:
        time.sleep(sleep_s)
    return _integrate_core_shard(reader, core, chunk_size, policy)


def flaky_then_integrate(
    reader,
    core: int,
    chunk_size: int | None,
    policy: str,
    marker_dir: str = "",
    fail_cores: tuple[int, ...] = (),
    fail_times: int = 1,
):
    """Shard worker that crashes transiently, then succeeds on retry.

    Attempts are counted with ``O_EXCL`` marker files in ``marker_dir``,
    so the count is exact whichever pool thread, and whichever retry
    round's fresh pool, runs the attempt.
    """
    if core in fail_cores:
        for attempt in range(1, fail_times + 1):
            marker = os.path.join(marker_dir, f"core{core}.attempt{attempt}")
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                continue  # this attempt already burned on an earlier call
            raise RuntimeError(
                f"injected transient failure for core {core} (attempt {attempt})"
            )
    return _integrate_core_shard(reader, core, chunk_size, policy)
