"""Crash-safe trace recording: journaled segments, replayable recovery.

:func:`repro.core.tracefile.save_trace` is all-or-nothing: the container
exists only once the whole run is over, so a SIGKILL, ENOSPC, or power
cut mid-capture loses everything.  This module is the durable write path
that closes that gap (PAPER §IV's overhead discussion assumes
long-running production captures; a tracer that loses a night's trace to
one crash is not deployable):

* :class:`DurableTraceWriter` appends **sealed segments** — bounded,
  uncompressed zips of raw container members, each carrying its own
  header and per-member crc32 — to a journal directory next to the
  target container.  A segment is written to a temp name, fsync'd,
  renamed into place, and only then recorded in an fsync'd append-only
  journal (``journal.jsonl``).  The journal line is the commit point: a
  process killed at any instant leaves a recoverable prefix of
  fully-sealed segments.
* :func:`recover` replays the journal, salvages every sealed segment
  that still validates, reports everything else through the existing
  :class:`~repro.core.integrity.Defect` / ``QuarantineLog`` machinery,
  and assembles a valid container (atomic temp + rename).
  Replay is idempotent: running it twice yields the same container
  content and the same defect report.
* :meth:`DurableTraceWriter.finalize` **is** that replay run on the
  writer's own journal — the recovery path is exercised on every clean
  shutdown, not only after disasters.

The fsync discipline per segment is::

    write seg-N.npz.tmp → fsync(tmp) → rename(tmp, seg-N.npz)
      → fsync(dir) → append journal line → fsync(journal)

so every kill point loses at most the segment being sealed (reported as
``unsealed``), never a sealed one.  All syscalls go through a swappable
:class:`RecorderIO`, which is how the fault suite injects kills, torn
writes, ENOSPC, and fsync failures at every individual operation.
"""

from __future__ import annotations

import io as _io
import json
import os
import pathlib
import shutil
import zipfile
from dataclasses import dataclass, field

import numpy as np

from repro.core.integrity import (
    KIND_CHECKSUM,
    KIND_MISSING,
    KIND_SWITCH,
    KIND_UNREADABLE,
    KIND_UNSEALED,
    POLICY_STRICT,
    Defect,
    QuarantineLog,
    member_crc,
)
from repro.core.records import SwitchRecords
from repro.core.symbols import SymbolTable
from repro.core.tracefile import (
    _CODE_KIND,
    _KIND_CODE,
    _READ_ERRORS,
    FORMAT_VERSION,
    _json_member,
    _member,
    _symbol_arrays,
    atomic_savez,
    build_container_members,
    container_path,
    encode_member,
    member_table,
    write_zip,
)
from repro.errors import CorruptionError, RecoveryError, TraceError, TraceWriteError
from repro.machine.pebs import SampleArrays
from repro.obs.instrumented import pipeline as _obs

#: Journal format version, written into the manifest line.
JOURNAL_VERSION = 1

#: Suffix appended to the container path to name the journal directory.
JOURNAL_SUFFIX = ".journal"

_JOURNAL_FILE = "journal.jsonl"
_SEG_HEADER = "seg_json"

#: Segment kinds a journal may seal.
KIND_SEG_MANIFEST = "manifest"
KIND_SEG_SAMPLES = "samples"
KIND_SEG_SWITCH = "switch"
KIND_SEG_META = "meta"


def journal_dir_for(path: str | pathlib.Path) -> pathlib.Path:
    """The journal directory a durable write of ``path`` uses."""
    final = container_path(path)
    return final.with_name(final.name + JOURNAL_SUFFIX)


class RecorderIO:
    """The durable writer's syscall surface, one method per kill point.

    The default implementation is the real filesystem; the fault suite
    substitutes shims (see :mod:`repro.testing.faults`) that kill the
    process-under-test after N operations, tear writes halfway, or fail
    with ENOSPC — which is what lets the kill-at-any-offset tests
    enumerate every crash instant deterministically.
    """

    def makedirs(self, path: pathlib.Path) -> None:
        os.makedirs(path, exist_ok=True)

    def write_bytes(self, path: pathlib.Path, data: bytes) -> None:
        with open(path, "wb") as fh:
            fh.write(data)

    def append_bytes(self, path: pathlib.Path, data: bytes) -> None:
        with open(path, "ab") as fh:
            fh.write(data)
            fh.flush()

    def fsync_path(self, path: pathlib.Path) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def fsync_dir(self, path: pathlib.Path) -> None:
        # Not delegated through self.fsync_path: each surface method is
        # exactly one kill point, so shims must see one call per op.
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def replace(self, src: pathlib.Path, dst: pathlib.Path) -> None:
        os.replace(src, dst)

    def rmtree(self, path: pathlib.Path) -> None:
        shutil.rmtree(path, ignore_errors=True)


class AppendLog:
    """One fsync'd, append-only JSONL log and its crash rules.

    Every durable log in the package — the recording journal, the
    store's run journals and catalog, the replication ledger — is one of
    these.  The format is fixed per log by the subclass that owns it
    (:attr:`REQUIRED`, :attr:`SORT_KEYS`, :attr:`READ_ERROR`); callers
    only read, append, and repair.

    The crash rule: a record is a JSON object carrying the required
    keys, one per line (a final line that parses without its newline
    still counts).  The first line that is not a record ends the trusted
    prefix — an append-only log means nothing past its first corruption
    — and marks the log *torn*.  Appending after a torn or newline-less
    tail would fuse two records into one bad line, so :meth:`append`
    first repairs the file down to its trusted prefix.

    The tail check is a plain read, never a :class:`RecorderIO`
    operation, so a crash-free append costs exactly its write and fsync.
    It parses the file once per log object: after that the object trusts
    its own appends, and re-checks only when the file's size is not the
    size it left behind (a failed or interrupted write, or another
    writer).
    """

    #: Keys every record must carry.
    REQUIRED: tuple[str, ...] = ()
    #: Serialize records with sorted keys (else insertion order).
    SORT_KEYS = False
    #: Raised when the log exists but cannot be read.
    READ_ERROR: type[TraceError] = TraceError

    def __init__(self, path: pathlib.Path, io: RecorderIO | None = None) -> None:
        self.path = pathlib.Path(path)
        self._io = io if io is not None else RecorderIO()
        #: File size this object last left behind; None until checked.
        self._size: int | None = None

    def _encode(self, record: dict) -> bytes:
        return (json.dumps(record, sort_keys=self.SORT_KEYS) + "\n").encode("utf-8")

    def _scan(self) -> tuple[list[dict], bool, bytes]:
        """Parse the file; returns (records, torn, raw bytes)."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return [], False, b""
        except OSError as exc:
            raise self.READ_ERROR(f"cannot read {self.path}: {exc}") from exc
        records: list[dict] = []
        torn = False
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
                if not isinstance(rec, dict) or not all(
                    key in rec for key in self.REQUIRED
                ):
                    raise ValueError("not a record of this log")
            except (ValueError, UnicodeDecodeError):
                torn = True
                break
            records.append(rec)
        return records, torn, raw

    def read(self) -> tuple[list[dict], bool]:
        """The trusted prefix of records, and whether anything followed it.

        A missing file reads as empty; a torn tail is expected after a
        crash and reported via the flag, never as an error.
        """
        records, torn, _ = self._scan()
        return records, torn

    def repair(self) -> list[dict]:
        """Cut a torn or newline-less log back to its trusted prefix.

        Rewrites atomically (tmp → fsync → replace → fsync dir) and only
        when needed; returns the trusted records either way.
        """
        records, torn, raw = self._scan()
        if torn or (raw and not raw.endswith(b"\n")):
            self.rewrite(records)
        else:
            self._size = len(raw)
        return records

    def rewrite(self, records: list[dict]) -> None:
        """Atomically replace the whole log with ``records``."""
        data = b"".join(self._encode(r) for r in records)
        self._size = None
        try:
            _write_atomic(self._io, self.path, data)
        except OSError as exc:
            raise TraceWriteError(f"cannot rewrite {self.path}: {exc}") from exc
        self._size = len(data)

    def append(
        self, record: dict, file: tuple[pathlib.Path, bytes] | None = None
    ) -> None:
        """Durably append one record (after repairing a damaged tail).

        With ``file=(path, data)`` the record commits that file: it is
        written atomically first, and only then does the line land — a
        crash in between leaves an orphan the log never mentions.
        """
        try:
            on_disk = self.path.stat().st_size
        except OSError:
            on_disk = None  # missing or unreadable: let repair() decide
        if self._size is None or on_disk != self._size:
            self.repair()
        line = self._encode(record)
        size, self._size = self._size, None  # unknown until the line lands
        try:
            if file is not None:
                _write_atomic(self._io, *file)
            self._io.append_bytes(self.path, line)
            self._io.fsync_path(self.path)
        except OSError as exc:
            target = file[0] if file is not None else self.path
            raise TraceWriteError(f"cannot commit {target}: {exc}") from exc
        self._size = size + len(line)
        if file is not None:
            ins = _obs()
            ins.segments_sealed.inc()
            ins.journal_fsyncs.inc()
            ins.journal_bytes.inc(len(file[1]) + len(line))


class JournalLog(AppendLog):
    """A journal directory's ``journal.jsonl``: seal and finalize records."""

    REQUIRED = ("op",)
    READ_ERROR = RecoveryError


def _write_atomic(io: RecorderIO, path: pathlib.Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    io.write_bytes(tmp, data)
    io.fsync_path(tmp)
    io.replace(tmp, path)
    io.fsync_dir(path.parent)


# ---------------------------------------------------------------------------
# The segment codec

#: What decoding damaged segment bytes raises (``KeyError``: a missing member).
SEGMENT_READ_ERRORS = (*_READ_ERRORS, KeyError)


def encode_segment(record: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """One segment file's bytes: an uncompressed zip of ``arrays`` as raw
    container members (:func:`~repro.core.tracefile.encode_member`), then
    the ``seg_json`` header, ``record`` plus the ``members`` table."""
    header = dict(record, members=member_table(arrays))
    members = [(name, encode_member(a)) for name, a in arrays.items()]
    members.append((_SEG_HEADER, json.dumps(header).encode("utf-8")))
    buf = _io.BytesIO()
    write_zip(buf, members, compress=False)
    return buf.getvalue()


def decode_segment(data: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """A segment file's record and arrays; inverse of :func:`encode_segment`.

    As for containers, the header member's name tells the layout: raw
    ``seg_json``, or ``seg_json.npy`` from older writers, whose arrays
    are ``.npy`` members too (numpy's ``savez`` layout).  Damaged bytes
    raise one of :data:`SEGMENT_READ_ERRORS`.
    """
    with zipfile.ZipFile(_io.BytesIO(data)) as zf:
        header, raw = _json_member(zf, _SEG_HEADER)
        if not isinstance(header, dict):
            raise ValueError("segment header is not a JSON object")
        if raw:
            members = header.pop("members", None)
            if not isinstance(members, dict):
                raise ValueError("segment header has no members table")
            layout = {"version": FORMAT_VERSION, "members": members}
            names = list(members)
        else:
            layout = {"version": 1}  # .npy members, as containers before v4
            names = [
                n.removesuffix(".npy")
                for n in zf.namelist()
                if n.endswith(".npy") and n != _SEG_HEADER + ".npy"
            ]
        arrays = {name: _member(zf, layout, name) for name in names}
    return header, arrays


def segment_crc_failures(crc: dict, arrays: dict[str, np.ndarray]) -> list[str]:
    """The segment check: names in a seal record's ``crc`` map that
    ``arrays`` lack or whose crc32 differs (unlisted arrays pass).  A
    claimed crc that is not a number fails like a wrong one."""
    return [
        name
        for name, want in crc.items()
        if name not in arrays or member_crc(arrays[name]) != want
    ]


def _seg_name(seq: int) -> str:
    return f"seg-{seq:06d}.npz"


def _write_failed(path, exc: OSError) -> TraceWriteError:
    return TraceWriteError(f"durable recording failed at {path}: {exc}")


class DurableTraceWriter:
    """Append-only, crash-consistent recorder for one capture.

    Parameters
    ----------
    path:
        The container the capture finalizes into (``.npz`` appended when
        missing, as for :func:`~repro.core.tracefile.save_trace`).
    symtab, meta:
        Sealed immediately as segment 0 (the manifest), so *any* crash
        after construction leaves enough on disk to assemble a loadable
        container.
    compress:
        Compression of the **final** container.  Segments themselves are
        uncompressed zips of raw container members
        (:func:`encode_segment`) — the journal is transient and the
        capture hot path should not pay zlib.
    io:
        Syscall surface; tests substitute fault-injecting shims.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        symtab: SymbolTable,
        meta: dict | None = None,
        *,
        compress: bool = True,
        io: RecorderIO | None = None,
    ) -> None:
        self.path = container_path(path)
        self.dir = journal_dir_for(path)
        self.compress = compress
        self._io = io if io is not None else RecorderIO()
        self._journal = JournalLog(self.dir / _JOURNAL_FILE, self._io)
        self._seq = 0
        self.segments_sealed = 0
        self.finalized = False
        try:
            self._io.makedirs(self.dir)
        except OSError as exc:
            raise _write_failed(self.dir, exc) from exc
        manifest = dict(_symbol_arrays(symtab))
        self._seal(
            KIND_SEG_MANIFEST,
            manifest,
            extra={
                "journal_version": JOURNAL_VERSION,
                "out": str(self.path),
                "meta": meta or {},
            },
        )

    # -- recording ---------------------------------------------------------
    def append_samples(self, core: int, samples: SampleArrays) -> int:
        """Seal one core's next chunk of samples; returns the segment seq.

        Chunks must arrive in per-core timestamp order (each PEBS unit
        appends monotonically, so draining in capture order satisfies
        this); recovery preserves arrival order per core.
        """
        if self.finalized:
            raise TraceWriteError(f"{self.path}: writer already finalized")
        arrays = {"ts": samples.ts, "ip": samples.ip, "tag": samples.tag}
        n = len(samples)
        extra = {
            "core": int(core),
            "rows": n,
            "ts_lo": int(samples.ts[0]) if n else None,
            "ts_hi": int(samples.ts[-1]) if n else None,
        }
        return self._seal(KIND_SEG_SAMPLES, arrays, extra=extra)

    def append_switches(self, core: int, records: SwitchRecords, start: int = 0) -> int:
        """Seal a core's switch marks from index ``start`` onward."""
        if self.finalized:
            raise TraceWriteError(f"{self.path}: writer already finalized")
        ts = records.ts[start:]
        item = records.item[start:]
        kind = np.asarray(
            [_KIND_CODE[k] for k in records.kinds[start:]], dtype=np.int8
        )
        n = int(ts.shape[0])
        extra = {
            "core": int(records.core_id),
            "rows": n,
            "ts_lo": int(ts[0]) if n else None,
            "ts_hi": int(ts[-1]) if n else None,
        }
        del core  # the records carry their core id; kept for call symmetry
        return self._seal(
            KIND_SEG_SWITCH, {"ts": ts, "item": item, "kind": kind}, extra=extra
        )

    def append_meta(self, patch: dict) -> int:
        """Seal a metadata patch (merged over the manifest meta at assembly).

        Checkpoints use this to journal capture-side accounting — shed
        sample spans, adaptive-R history — so a crash-recovered container
        still carries the degradation record up to the last checkpoint.
        """
        if self.finalized:
            raise TraceWriteError(f"{self.path}: writer already finalized")
        payload = np.frombuffer(
            json.dumps(patch).encode("utf-8"), dtype=np.uint8
        ).copy()
        return self._seal(KIND_SEG_META, {"patch": payload}, extra={"rows": 0})

    def finalize(self, extra_meta: dict | None = None) -> "RecoveryReport":
        """Assemble the final container from the journal; clean up.

        This *is* a :func:`recover` run over the writer's own journal
        (strict: a clean shutdown that cannot validate its own segments
        is a bug, not a salvage situation), followed by a ``finalize``
        journal record and removal of the journal directory.
        """
        if self.finalized:
            raise TraceWriteError(f"{self.path}: writer already finalized")
        report = recover(
            self.dir,
            out=self.path,
            policy=POLICY_STRICT,
            extra_meta=extra_meta,
            _finalizing=True,
        )
        self._journal.append({"op": "finalize", "out": str(self.path)})
        _obs().journal_fsyncs.inc()
        self._io.rmtree(self.dir)
        self.finalized = True
        return report

    # -- internals ---------------------------------------------------------
    def _seal(self, kind: str, arrays: dict[str, np.ndarray], extra: dict) -> int:
        seq = self._seq
        record = {"op": "seal", "seq": seq, "kind": kind, "file": _seg_name(seq)}
        record.update(extra)
        record["crc"] = {name: member_crc(arr) for name, arr in arrays.items()}
        self._journal.append(
            record, file=(self.dir / record["file"], encode_segment(record, arrays))
        )
        self._seq += 1
        self.segments_sealed += 1
        return seq


# ---------------------------------------------------------------------------
# Recovery


@dataclass
class RecoveryReport:
    """What one journal replay salvaged, lost, and wrote."""

    out: pathlib.Path | None
    finalized: bool
    segments_sealed: int
    segments_recovered: int
    segments_lost: int
    segments_unsealed: int
    samples_recovered: int
    samples_lost: int
    marks_recovered: int
    marks_lost: int
    quarantine: QuarantineLog = field(default_factory=QuarantineLog)
    #: Per-core timestamp spans of lost sample data, ``(lo, hi)`` with
    #: ``None`` meaning unbounded on that side — the input the diagnosis
    #: layer uses to flag affected items as degraded.
    lost_spans: dict[int, list[tuple[int | None, int | None]]] = field(
        default_factory=dict
    )

    @property
    def complete(self) -> bool:
        """True iff nothing sealed or unsealed was lost."""
        return (
            self.segments_lost == 0
            and self.segments_unsealed == 0
            and self.samples_lost == 0
            and self.marks_lost == 0
        )

    def describe(self) -> str:
        head = (
            f"recovered {self.segments_recovered}/{self.segments_sealed} "
            f"sealed segment(s) -> {self.out}"
        )
        if self.complete:
            return head + " (no loss)"
        return head + (
            f"; lost {self.segments_lost} sealed + "
            f"{self.segments_unsealed} unsealed segment(s), "
            f"{self.samples_lost} sample(s), {self.marks_lost} switch mark(s)"
        )


def read_journal(jdir: str | pathlib.Path) -> tuple[list[dict], bool]:
    """Parse a journal directory's log; returns (records, torn_tail).

    Public entry point for consumers that walk a journal without
    replaying it — the ingestion service ships sealed segments listed
    here over the wire.  A torn final line is expected after a crash and
    reported via the flag, never as an error.
    """
    return JournalLog(pathlib.Path(jdir) / _JOURNAL_FILE).read()


def _load_segment(
    path: pathlib.Path, crc: dict
) -> tuple[dict[str, np.ndarray] | None, str, str]:
    """Read one sealed segment and check it against the ``crc`` map of
    its journal record: (arrays, defect_kind, detail), where ``arrays``
    is ``None`` unless the check passed."""
    try:
        _, arrays = decode_segment(path.read_bytes())
    except FileNotFoundError:
        return None, KIND_MISSING, f"segment file {path.name} is absent"
    except SEGMENT_READ_ERRORS as exc:
        return None, KIND_UNREADABLE, f"segment {path.name}: {exc}"
    bad = segment_crc_failures(crc, arrays)
    if bad:
        detail = f"segment {path.name}: crc32 mismatch in {', '.join(bad)}"
        return None, KIND_CHECKSUM, detail
    return arrays, "", ""


def _orphan_records(
    jdir: pathlib.Path, sealed_files: set[str]
) -> list[tuple[pathlib.Path, dict | None, dict[str, np.ndarray] | None]]:
    """Segment files the journal never sealed, as (path, record, arrays).

    ``record`` is the one embedded in the file, ``None`` when the file
    cannot be decoded or is a ``.tmp`` never renamed into place;
    ``arrays`` are set only when they pass that record's own crcs.
    """
    out = []
    for p in sorted(jdir.glob("seg-*.npz*")):
        if p.name in sealed_files:
            continue
        record = arrays = None
        if p.suffix == ".npz":
            try:
                record, arrays = decode_segment(p.read_bytes())
            except SEGMENT_READ_ERRORS:
                pass
            else:
                crc = record.get("crc") or {}
                if not isinstance(crc, dict) or segment_crc_failures(crc, arrays):
                    arrays = None
        out.append((p, record, arrays))
    return out


def _decode_switch_kinds(kind_codes: np.ndarray) -> list:
    return [_CODE_KIND[int(c)] for c in kind_codes.tolist()]


def recover(
    source: str | pathlib.Path,
    out: str | pathlib.Path | None = None,
    *,
    policy: str = "quarantine",
    salvage_unsealed: bool = False,
    extra_meta: dict | None = None,
    _finalizing: bool = False,
) -> RecoveryReport:
    """Replay a recording journal into a valid container.

    ``source`` is the journal directory, or the container path whose
    ``<path>.journal`` sibling should be replayed.  ``out`` defaults to
    the final path the manifest recorded.  Under ``policy="strict"`` any
    damaged sealed segment raises
    :class:`~repro.errors.CorruptionError`; the default ``"quarantine"``
    salvages what validates and reports the rest as
    :class:`~repro.core.integrity.Defect` records.  ``salvage_unsealed``
    additionally admits segments that were fully written and internally
    consistent but whose journal line never landed (default: report them
    as lost, so the journal alone states what the container contains).

    Replay is idempotent — the journal is never modified — and the
    assembled container loads cleanly under ``--on-corruption strict``.
    """
    src = pathlib.Path(source)
    jdir = src if src.is_dir() else journal_dir_for(src)
    if not jdir.is_dir():
        raise RecoveryError(
            f"no recording journal at {jdir} (nothing to recover; a "
            "finalized capture removes its journal)"
        )
    records, torn = JournalLog(jdir / _JOURNAL_FILE).read()
    manifest = next(
        (r for r in records if r.get("kind") == KIND_SEG_MANIFEST), None
    )
    if manifest is None:
        raise RecoveryError(
            f"{jdir}: journal has no sealed manifest — the recorder died "
            "before its first fsync; nothing recoverable"
        )
    ins = _obs()
    ins.recover_runs.inc()
    quarantine = QuarantineLog()
    lost_spans: dict[int, list[tuple[int | None, int | None]]] = {}
    # finalize() replays its own journal *before* appending the finalize
    # record, so it declares itself via _finalizing instead.
    finalized = _finalizing or any(r.get("op") == "finalize" for r in records)
    seals = [r for r in records if r.get("op") == "seal"]
    sealed_files = {r["file"] for r in seals if "file" in r}

    n_recovered = n_lost = 0
    samples_rec = samples_lost = marks_rec = marks_lost = 0
    symtab: SymbolTable | None = None
    meta: dict = dict(manifest.get("meta") or {})
    chunks_by_core: dict[int, list[SampleArrays]] = {}
    switch_parts: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}

    def _lose(rec: dict, kind: str, detail: str) -> None:
        nonlocal n_lost, samples_lost, marks_lost
        n_lost += 1
        core = int(rec.get("core", -1))
        rows = int(rec.get("rows", -1))
        lo, hi = rec.get("ts_lo"), rec.get("ts_hi")
        seg_kind = rec.get("kind")
        if seg_kind == KIND_SEG_SWITCH:
            kind = KIND_SWITCH
            if rows > 0:
                marks_lost += rows
        elif seg_kind == KIND_SEG_SAMPLES:
            if rows > 0:
                samples_lost += rows
            lost_spans.setdefault(core, []).append((lo, hi))
        if policy == POLICY_STRICT:
            raise CorruptionError(f"{jdir}: {detail}")
        quarantine.record(
            Defect(
                core=core,
                kind=kind,
                member=rec.get("file"),
                detail=detail,
                records_lost=rows,
                ts_lo=lo,
                ts_hi=hi,
            )
        )
        ins.segments_lost.inc()

    def _take(rec: dict, arrays: dict[str, np.ndarray]) -> None:
        """Fold one validated segment into the container's parts."""
        nonlocal n_recovered, samples_rec, marks_rec, symtab
        n_recovered += 1
        ins.segments_recovered.inc()
        seg_kind = rec.get("kind")
        if seg_kind == KIND_SEG_MANIFEST:
            symtab = SymbolTable.from_ranges(
                {
                    str(name): (int(lo), int(hi))
                    for name, lo, hi in zip(
                        arrays["sym_names"], arrays["sym_lo"], arrays["sym_hi"]
                    )
                }
            )
        elif seg_kind == KIND_SEG_SAMPLES:
            chunk = SampleArrays(
                ts=arrays["ts"], ip=arrays["ip"], tag=arrays["tag"]
            )
            chunks_by_core.setdefault(int(rec["core"]), []).append(chunk)
            samples_rec += len(chunk)
        elif seg_kind == KIND_SEG_SWITCH:
            switch_parts.setdefault(int(rec["core"]), []).append(
                (arrays["ts"], arrays["item"], arrays["kind"])
            )
            marks_rec += int(arrays["ts"].shape[0])
        elif seg_kind == KIND_SEG_META:
            meta.update(json.loads(bytes(arrays["patch"]).decode("utf-8")))

    for rec in seals:
        arrays, bad_kind, detail = _load_segment(
            jdir / rec["file"], rec.get("crc") or {}
        )
        if arrays is None:
            _lose(rec, bad_kind, detail)
        else:
            _take(rec, arrays)

    # Orphans: files the journal never sealed (the crash window).
    n_unsealed = 0
    for p, header, arrays in _orphan_records(jdir, sealed_files):
        readable = arrays is not None
        # A samples or switch orphan without a core has nowhere to go.
        seg_kind = header.get("kind") if readable else None
        if salvage_unsealed and (
            seg_kind == KIND_SEG_META
            or (
                seg_kind in (KIND_SEG_SAMPLES, KIND_SEG_SWITCH)
                and isinstance(header.get("core"), int)
            )
        ):
            _take(header, arrays)
            continue
        n_unsealed += 1
        rec = dict(header or {})
        rec["file"] = p.name
        detail = (
            f"segment {p.name} was written but never sealed in the journal"
            + ("" if readable else " (file torn or unreadable)")
        )
        _lose(rec, KIND_UNSEALED, detail)
        n_lost -= 1  # _lose counts sealed losses; track unsealed separately

    if torn:
        quarantine.record(
            Defect(
                core=-1,
                kind=KIND_UNSEALED,
                member=_JOURNAL_FILE,
                detail="journal tail torn mid-append (expected for a crash; "
                "the last unsealed segment is accounted above)",
                records_lost=0,
            )
        )

    if symtab is None:
        raise RecoveryError(
            f"{jdir}: manifest segment failed validation; cannot rebuild a "
            "container without the symbol table"
        )

    switches_by_core: dict[int, SwitchRecords] = {}
    for core, parts in switch_parts.items():
        ts = np.concatenate([p[0] for p in parts])
        item = np.concatenate([p[1] for p in parts])
        kind_codes = np.concatenate([p[2] for p in parts])
        switches_by_core[core] = SwitchRecords.from_arrays(
            core, ts, item, _decode_switch_kinds(kind_codes)
        )

    if extra_meta:
        meta.update(extra_meta)
    if not (finalized and n_lost == 0 and n_unsealed == 0):
        meta.setdefault("recovery", {})
        meta["recovery"] = {
            "finalized": finalized,
            "segments_recovered": n_recovered,
            "segments_lost": n_lost,
            "segments_unsealed": n_unsealed,
            "samples_lost": samples_lost,
            "marks_lost": marks_lost,
            "lost_spans": {
                str(c): [[lo, hi] for lo, hi in spans]
                for c, spans in lost_spans.items()
            },
        }

    out_path = container_path(out if out is not None else manifest["out"])
    arrays = build_container_members(
        # Explicit chunk lists: recovery keeps whatever segment boundaries
        # survived, so no concatenation of the (possibly huge) stream.
        {c: chunks for c, chunks in chunks_by_core.items()},
        switches_by_core,
        symtab,
        meta,
        chunk_size=None,
        checksums=True,
    )
    atomic_savez(out_path, arrays, compress=True)
    ins.samples_recovered.inc(samples_rec)
    return RecoveryReport(
        out=out_path,
        finalized=finalized,
        segments_sealed=len(seals),
        segments_recovered=n_recovered,
        segments_lost=n_lost,
        segments_unsealed=n_unsealed,
        samples_recovered=samples_rec,
        samples_lost=samples_lost,
        marks_recovered=marks_rec,
        marks_lost=marks_lost,
        quarantine=quarantine,
        lost_spans=lost_spans,
    )


# ---------------------------------------------------------------------------
# Flight-recorder segment ring


@dataclass
class _RingSamples:
    core: int
    samples: SampleArrays


@dataclass
class _RingSwitches:
    core: int
    ts: np.ndarray
    item: np.ndarray
    kinds: list


class SegmentRing:
    """Bounded in-memory ring of recent capture segments.

    The flight-recorder counterpart of :class:`DurableTraceWriter`: it
    accepts the same checkpoint deltas (``append_samples`` /
    ``append_switches`` / ``append_meta``) but retains only the newest
    ``capacity`` data segments, evicting the oldest — and *counting*
    what fell off, so a sealed incident bundle says exactly which spans
    its history no longer covers.  Metadata patches are tiny and
    load-bearing (shed spans, degradation flags); they are merged and
    kept whole, never evicted.

    :meth:`seal_incident` replays the retained segments through a fresh
    :class:`DurableTraceWriter` and finalizes it, producing a valid
    version-3 container with the triggering anomaly stamped into its
    meta — consumable by ``repro diagnose`` and ``repro push`` like any
    other trace.
    """

    def __init__(
        self,
        symtab: SymbolTable,
        meta: dict | None = None,
        *,
        capacity: int = 16,
    ) -> None:
        if capacity < 1:
            raise TraceWriteError(f"ring capacity must be >= 1, got {capacity}")
        self.symtab = symtab
        self.meta = dict(meta or {})
        self.capacity = capacity
        self._entries: list = []
        self._meta_patch: dict = {}
        self.appended_segments = 0
        self.evicted_segments = 0
        self.evicted_samples = 0
        self.evicted_marks = 0
        #: Per-core ``[lo, hi]`` timestamp spans of evicted sample data —
        #: the incident bundle's "history starts here" record.
        self.evicted_spans: dict[int, list[list[int]]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # -- writer-compatible surface ----------------------------------------
    def append_samples(self, core: int, samples: SampleArrays) -> int:
        seq = self.appended_segments
        self._entries.append(_RingSamples(core=int(core), samples=samples))
        self.appended_segments += 1
        self._evict()
        return seq

    def append_switches(self, core: int, records: SwitchRecords, start: int = 0) -> int:
        seq = self.appended_segments
        # Materialize the delta: the tracer keeps appending to
        # ``records``, so a live slice taken at seal time would cover a
        # different range than the checkpoint that produced it.
        self._entries.append(
            _RingSwitches(
                core=int(records.core_id),
                ts=records.ts[start:].copy(),
                item=records.item[start:].copy(),
                kinds=list(records.kinds[start:]),
            )
        )
        del core  # the records carry their core id; kept for call symmetry
        self.appended_segments += 1
        self._evict()
        return seq

    def append_meta(self, patch: dict) -> int:
        _deep_merge(self._meta_patch, patch)
        return -1

    def _evict(self) -> None:
        while len(self._entries) > self.capacity:
            gone = self._entries.pop(0)
            self.evicted_segments += 1
            if isinstance(gone, _RingSamples):
                n = len(gone.samples)
                self.evicted_samples += n
                if n:
                    self.evicted_spans.setdefault(gone.core, []).append(
                        [int(gone.samples.ts[0]), int(gone.samples.ts[-1])]
                    )
            else:
                self.evicted_marks += int(gone.ts.shape[0])

    def eviction_summary(self) -> dict:
        return {
            "segments": self.evicted_segments,
            "samples": self.evicted_samples,
            "marks": self.evicted_marks,
            "spans": {str(c): s for c, s in self.evicted_spans.items()},
        }

    # -- sealing -----------------------------------------------------------
    def seal_incident(
        self,
        path: str | pathlib.Path,
        incident: dict,
        *,
        io: RecorderIO | None = None,
        compress: bool = True,
    ) -> RecoveryReport:
        """Write the ring's contents as a tagged incident container.

        ``incident`` lands under the container's ``incident`` meta key,
        alongside a ``flightrec`` block recording what the bounded ring
        had already evicted.  Raises
        :class:`~repro.errors.TraceWriteError` on storage failure, like
        any durable write.
        """
        writer = DurableTraceWriter(
            path, self.symtab, self.meta, compress=compress, io=io
        )
        for entry in self._entries:
            if isinstance(entry, _RingSamples):
                writer.append_samples(entry.core, entry.samples)
            else:
                writer.append_switches(
                    entry.core,
                    SwitchRecords.from_arrays(
                        entry.core, entry.ts, entry.item, entry.kinds
                    ),
                )
        patch = dict(self._meta_patch)
        patch["incident"] = dict(incident)
        patch["flightrec"] = self.eviction_summary()
        writer.append_meta(patch)
        return writer.finalize()


def _deep_merge(dst: dict, src: dict) -> None:
    for key, value in src.items():
        if isinstance(value, dict) and isinstance(dst.get(key), dict):
            _deep_merge(dst[key], value)
        else:
            dst[key] = value


__all__ = [
    "AppendLog",
    "DurableTraceWriter",
    "JournalLog",
    "RecorderIO",
    "RecoveryReport",
    "SegmentRing",
    "recover",
    "read_journal",
    "journal_dir_for",
    "JOURNAL_VERSION",
    "SEGMENT_READ_ERRORS",
    "decode_segment",
    "encode_segment",
    "segment_crc_failures",
]
