"""Persistent trace files: dump a session, analyse offline.

The paper's prototype writes PEBS samples and switch logs to an SSD and
integrates them later (Section III-E).  This module is that workflow's
file format: one ``.npz`` container holding, per core, the raw sample
columns and switch records, plus the symbol table and free-form
metadata.  Loading gives everything needed to rerun the integration,
diagnosis, or call-graph guessing without the original process.

Four layouts share the container:

* **flat** (format version 1, still written when ``chunk_size`` is not
  given): one member per sample column per core.
* **chunked** (format version 2): each core's sample columns are split
  into bounded-size chunk members (``core{c}_s{k}_ts`` …).  Because zip
  members are decompressed individually on access, a chunked file can be
  integrated with bounded memory via :class:`TraceReader` — the layout
  behind :mod:`repro.core.streaming`.  The paper's data-rate analysis
  (Section IV-C3: 106–270 MB/s per core) is why this matters: a
  production trace does not fit in memory.
* **checksummed** (format version 3): either layout plus a per-member
  crc32 map and per-chunk row counts in the header, so a reader can
  detect bit rot, torn writes, and truncation *before* integrating — and,
  under a lenient corruption policy, skip or repair the damage instead of
  aborting (see :mod:`repro.core.integrity`).
* **raw, byte-shuffled** (format version 4, the one written today): the
  same members, but each is stored as its raw bytes instead of an
  ``.npy`` file, and the header lists every member's ``[dtype, shape]``
  under ``members``.  Integer members wider than one byte are stored as
  byte-planes (plane ``j`` holds byte ``j`` of every value) before
  deflate, which makes sample-dense containers ~3× smaller.  The crc32
  map still covers the decoded arrays, so it is the same map a v3
  writer produces.

Versions 1–3 store every member, the header included, as an ``.npy``
file (``header_json.npy``); version 4 stores the header as raw JSON
bytes (``header_json``).  :func:`load_trace` and :class:`TraceReader`
read all four; files written by older code load unchanged.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
import os
import pathlib
import zipfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.hybrid import HybridTrace, integrate, integrate_degraded
from repro.core.integrity import (
    KIND_CHECKSUM,
    KIND_LENGTH,
    KIND_MISSING,
    KIND_ORDER,
    KIND_SWITCH,
    KIND_UNREADABLE,
    POLICY_REPAIR,
    POLICY_STRICT,
    CoverageStats,
    Defect,
    QuarantineLog,
    check_policy,
    member_crc,
)
from repro.core.records import (
    ItemWindow,
    SwitchRecords,
    WindowColumns,
    pair_switch_columns,
    pair_switch_columns_lenient,
)
from repro.core.symbols import SymbolTable
from repro.errors import CorruptionError, TraceError, TraceWriteError
from repro.machine.pebs import SampleArrays
from repro.obs.instrumented import pipeline as _obs
from repro.runtime.actions import SwitchKind
from repro.runtime.waitedge import WaitColumns

#: Format version written into every file; bumped on layout changes.
#: Version 1 = flat per-core sample columns; version 2 adds the chunked
#: layout; version 3 adds the crc32 member checksums and per-chunk row
#: counts; version 4 stores members as raw (integer: byte-shuffled)
#: bytes instead of ``.npy`` files.  Readers accept 1..FORMAT_VERSION.
FORMAT_VERSION = 4

#: The header member: raw JSON bytes from version 4 on, a uint8 ``.npy``
#: array (``header_json.npy``) before.
_HEADER = "header_json"

_KIND_CODE = {SwitchKind.ITEM_START: 0, SwitchKind.ITEM_END: 1}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}

#: Exceptions zip / member decoding raise on damaged containers.
_READ_ERRORS = (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error)

#: Column suffixes of the optional per-core wait-edge member set
#: (``core{c}_wait_<col>``).  The member set is *optional* within format
#: version 3: containers without it (older writers, journal recovery)
#: load unchanged, and readers report an empty edge list.
_WAIT_COLS = (
    "ts",
    "cycles",
    "kind",
    "queue",
    "blocker_core",
    "blocker_ip",
    "waiter_ip",
)


def _wait_member_names(core: int) -> list[str]:
    return [f"core{core}_wait_{col}" for col in _WAIT_COLS]


def _symbol_arrays(symtab: SymbolTable) -> dict[str, np.ndarray]:
    names = [s.name for s in symtab]
    # Exact-width unicode dtype: a fixed "U128" silently truncated longer
    # symbol names (C++ mangled names easily exceed 128 chars).
    width = max((len(n) for n in names), default=1)
    return {
        "sym_lo": np.asarray([s.lo for s in symtab], dtype=np.int64),
        "sym_hi": np.asarray([s.hi for s in symtab], dtype=np.int64),
        "sym_names": np.asarray(names, dtype=f"U{max(width, 1)}"),
    }


def container_path(path: str | pathlib.Path) -> pathlib.Path:
    """The on-disk name a container write lands at.

    Mirrors numpy's ``savez``, which appended ``.npz`` to extension-less
    names, so the atomic write path names the same file the legacy
    direct write did.
    """
    p = pathlib.Path(path)
    return p if p.name.endswith(".npz") else p.with_name(p.name + ".npz")


#: OS error numbers worth naming in a TraceWriteError message.
_ERRNO_HINTS = {
    28: "disk full (ENOSPC)",
    13: "permission denied (EACCES)",
    30: "read-only filesystem (EROFS)",
    122: "quota exceeded (EDQUOT)",
}


def _write_error(path, exc: OSError) -> TraceWriteError:
    hint = _ERRNO_HINTS.get(exc.errno or 0)
    what = f"{hint}: {exc}" if hint else str(exc)
    return TraceWriteError(f"cannot write trace file {path}: {what}")


def _shuffled(dtype: np.dtype) -> bool:
    """Whether v4 stores members of ``dtype`` as byte-planes."""
    return dtype.kind in "iu" and dtype.itemsize > 1


def encode_member(arr: np.ndarray) -> bytes:
    """One member's version-4 stored bytes.

    Integer members wider than one byte are byte-shuffled: plane ``j``
    holds byte ``j`` of every value, so the slowly varying high bytes of
    timestamps and addresses sit together, where deflate finds long
    runs.  The shuffle only permutes bytes, so one flipped stored bit is
    still one flipped bit of one value: a corrupt timestamp stays
    localisable to its record.  Every other dtype is stored as is.
    """
    a = np.ascontiguousarray(arr)
    if _shuffled(a.dtype):
        return a.reshape(-1).view(np.uint8).reshape(-1, a.dtype.itemsize).T.tobytes()
    return a.tobytes()


def decode_member(raw: bytes, dtype: str, shape) -> np.ndarray:
    """Inverse of :func:`encode_member`: a writable ``dtype`` array of
    ``shape``; ``ValueError`` when the declaration is malformed or the
    bytes do not fit it."""
    try:
        dt = np.dtype(dtype)
        shape = tuple(operator.index(n) for n in shape)
    except TypeError as exc:
        raise ValueError(f"bad member declaration {dtype!r}, {shape!r}") from exc
    count = math.prod(shape)
    if dt.hasobject or len(raw) != count * dt.itemsize:
        raise ValueError(
            f"{len(raw)} stored bytes do not hold {count} x {dt.str}"
        )
    planes = np.frombuffer(raw, dtype=np.uint8)
    if _shuffled(dt):
        planes = planes.reshape(dt.itemsize, count).T
    return planes.copy().view(dt).reshape(shape)


def write_zip(fh, members, *, compress: bool) -> None:
    """Write ``(name, stored bytes)`` pairs to ``fh`` as one zip.

    Compressed members use deflate at zlib's default level (6).  Every
    entry carries ``ZipInfo``'s default 1980-01-01 timestamp, as numpy's
    ``savez`` entries do, so identical input gives a byte-identical
    file.  ``writestr`` knows each member's size up front and adds zip64
    records only to a member that needs them, so the bytes do not depend
    on which Python release wrote them.
    """
    method = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
    with zipfile.ZipFile(fh, "w", compression=method, allowZip64=True) as zf:
        for name, data in members:
            info = zipfile.ZipInfo(name)
            info.compress_type = method
            zf.writestr(info, data)


def atomic_savez(
    path: str | pathlib.Path, arrays: dict[str, np.ndarray], *, compress: bool
) -> pathlib.Path:
    """Durably write a v4 container: temp file + fsync + ``os.replace``.

    ``arrays`` is a member dict from :func:`build_container_members` (or
    :func:`with_header`); each member is stored by :func:`encode_member`.
    A crash at any instant leaves either the previous file intact or the
    new one complete — never a truncated container.  Parent directories
    are created, and storage failures surface as
    :class:`~repro.errors.TraceWriteError` instead of a raw ``OSError``.
    Returns the final path (``.npz`` appended when missing, see
    :func:`container_path`).
    """
    final = container_path(path)
    tmp = final.with_name(final.name + ".tmp")
    try:
        if final.parent and not final.parent.exists():
            final.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as fh:
            write_zip(
                fh,
                ((name, encode_member(a)) for name, a in arrays.items()),
                compress=compress,
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise _write_error(final, exc) from exc
    return final


def member_table(arrays: dict[str, np.ndarray]) -> dict[str, list]:
    """The v4 ``members`` table: ``{name: [dtype.str, shape]}``."""
    return {name: [a.dtype.str, list(a.shape)] for name, a in arrays.items()}


def with_header(arrays: dict[str, np.ndarray], header: dict) -> dict[str, np.ndarray]:
    """``arrays`` plus the v4 header member.

    The header is stamped with :data:`FORMAT_VERSION` and the
    ``members`` table (``{name: [dtype.str, shape]}``) the reader decodes
    each member by.
    """
    header = dict(header, version=FORMAT_VERSION, members=member_table(arrays))
    out = dict(arrays)
    out[_HEADER] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    ).copy()
    return out


def build_container_members(
    samples_by_core: dict[int, "SampleArrays | list[SampleArrays]"],
    switches_by_core: dict[int, SwitchRecords],
    symtab: SymbolTable,
    meta: dict | None,
    *,
    chunk_size: int | None,
    checksums: bool,
    waits_by_core: dict[int, WaitColumns] | None = None,
) -> dict[str, np.ndarray]:
    """Assemble the member dict of one container (header included).

    A core's samples may be a single :class:`SampleArrays` (chunked by
    ``chunk_size``, or flat when it is ``None``) or an explicit list of
    chunks — the form journal recovery produces, where chunk boundaries
    are whatever segments survived and need not share a size.

    ``waits_by_core`` adds the optional wait-edge member set (one
    ``core{c}_wait_*`` column group per core plus the shared
    ``wait_queue_names`` table); readers that predate it skip unknown
    members, so the format version does not change.
    """
    arrays: dict[str, np.ndarray] = {}
    header: dict = {
        "sample_cores": sorted(samples_by_core),
        "switch_cores": sorted(switches_by_core),
        "meta": meta or {},
        "chunk_rows": {},
    }
    pre_chunked = any(isinstance(s, list) for s in samples_by_core.values())
    if chunk_size is not None or pre_chunked:
        if chunk_size is not None:
            header["chunk_size"] = chunk_size
        header["sample_chunks"] = {}
    data_members: list[str] = []
    for core, s in samples_by_core.items():
        if chunk_size is None and not isinstance(s, list):
            arrays[f"core{core}_sample_ts"] = s.ts
            arrays[f"core{core}_sample_ip"] = s.ip
            arrays[f"core{core}_sample_tag"] = s.tag
            data_members += [
                f"core{core}_sample_ts",
                f"core{core}_sample_ip",
                f"core{core}_sample_tag",
            ]
            header["chunk_rows"][str(core)] = [len(s)]
        else:
            chunks = s if isinstance(s, list) else s.iter_chunks(chunk_size)
            n_chunks = 0
            rows: list[int] = []
            for k, chunk in enumerate(chunks):
                arrays[f"core{core}_s{k}_ts"] = chunk.ts
                arrays[f"core{core}_s{k}_ip"] = chunk.ip
                arrays[f"core{core}_s{k}_tag"] = chunk.tag
                data_members += [
                    f"core{core}_s{k}_ts",
                    f"core{core}_s{k}_ip",
                    f"core{core}_s{k}_tag",
                ]
                rows.append(len(chunk))
                n_chunks = k + 1
            header["sample_chunks"][str(core)] = n_chunks
            header["chunk_rows"][str(core)] = rows
    for core, r in switches_by_core.items():
        arrays[f"core{core}_switch_ts"] = r.ts
        arrays[f"core{core}_switch_item"] = r.item
        arrays[f"core{core}_switch_kind"] = np.asarray(
            [_KIND_CODE[k] for k in r.kinds], dtype=np.int8
        )
        data_members += [
            f"core{core}_switch_ts",
            f"core{core}_switch_item",
            f"core{core}_switch_kind",
        ]
    if waits_by_core:
        header["wait_cores"] = sorted(waits_by_core)
        queue_names: tuple[str, ...] = ()
        for core, w in waits_by_core.items():
            for col in _WAIT_COLS:
                name = f"core{core}_wait_{col}"
                arrays[name] = getattr(w, col)
                data_members.append(name)
            queue_names = queue_names or w.queue_names
        width = max((len(n) for n in queue_names), default=1)
        # Uncrc'd like the symbol-table members: a small name table whose
        # damage surfaces as a read error, not silent misattribution.
        arrays["wait_queue_names"] = np.asarray(
            list(queue_names), dtype=f"U{max(width, 1)}"
        )
    arrays.update(_symbol_arrays(symtab))
    if checksums:
        header["crc32"] = {name: member_crc(arrays[name]) for name in data_members}
    return with_header(arrays, header)


def save_trace(
    path: str | pathlib.Path,
    samples_by_core: dict[int, SampleArrays],
    switches_by_core: dict[int, SwitchRecords],
    symtab: SymbolTable,
    meta: dict | None = None,
    *,
    chunk_size: int | None = None,
    compress: bool = True,
    checksums: bool = True,
    waits_by_core: dict[int, WaitColumns] | None = None,
) -> None:
    """Write one trace container.

    ``chunk_size`` selects the chunked layout (each core's sample columns
    split into members of at most ``chunk_size`` samples); ``None`` keeps
    the flat layout that version-1 readers understand.
    ``compress=False`` writes a stored (uncompressed) zip — at the
    paper's per-core data rates, zlib becomes the ingest bottleneck.
    ``checksums=False`` omits the version-3 crc32 map (readers then skip
    checksum validation, as for files written by older versions).

    The write is atomic (temp file + ``os.replace``), parent directories
    are created, and storage failures raise
    :class:`~repro.errors.TraceWriteError` — an interrupted re-save never
    truncates an existing good trace.
    """
    if chunk_size is not None and chunk_size < 1:
        raise TraceError(f"chunk_size must be >= 1, got {chunk_size}")
    arrays = build_container_members(
        samples_by_core,
        switches_by_core,
        symtab,
        meta,
        chunk_size=chunk_size,
        checksums=checksums,
        waits_by_core=waits_by_core,
    )
    atomic_savez(path, arrays, compress=compress)


@dataclass
class TraceFile:
    """A loaded trace container."""

    symtab: SymbolTable
    meta: dict
    _samples: dict[int, SampleArrays]
    _switches: dict[int, SwitchRecords]
    _waits: dict[int, WaitColumns] = field(default_factory=dict)

    @property
    def sample_cores(self) -> list[int]:
        return sorted(self._samples)

    @property
    def wait_cores(self) -> list[int]:
        """Cores with recorded wait edges (empty for older containers)."""
        return sorted(self._waits)

    def waits(self, core: int) -> WaitColumns:
        """One core's wait edges; empty columns when the container has
        none (pre-wait-edge writers, journal recovery) — never an error,
        so blocked-by diagnosis degrades to an empty graph."""
        got = self._waits.get(core)
        return got if got is not None else WaitColumns.empty()

    def samples(self, core: int) -> SampleArrays:
        try:
            return self._samples[core]
        except KeyError:
            raise TraceError(f"trace file has no samples for core {core}")

    def switches(self, core: int) -> SwitchRecords:
        try:
            return self._switches[core]
        except KeyError:
            raise TraceError(f"trace file has no switch records for core {core}")

    def integrate(self, core: int, *, lenient: bool | None = None) -> HybridTrace:
        """Run the paper's integration for one core, offline.

        ``lenient=None`` (the default) auto-detects: containers sealed
        *mid-run* — flight-recorder incident bundles (``incident`` meta)
        and signal-interrupted durable sessions (``interrupted`` meta) —
        necessarily cut items in flight, leaving dangling START marks
        that strict integration rejects.  Those route through
        :func:`~repro.core.hybrid.integrate_degraded`, which pairs what
        genuinely paired and drops the cut marks.  Pass ``lenient=True``
        / ``False`` to force either path.
        """
        if lenient is None:
            lenient = "incident" in self.meta or "interrupted" in self.meta
        if lenient:
            trace, _coverage = integrate_degraded(
                self.samples(core), self.switches(core), self.symtab
            )
            return trace
        return integrate(self.samples(core), self.switches(core), self.symtab)


def _json_member(zf: zipfile.ZipFile, name: str):
    """Parse the JSON member ``name``: ``(value, raw)``, where ``raw``
    says it is stored as raw bytes (version 4), not as ``name.npy``
    (versions 1–3).  ``KeyError`` when neither is present."""
    raw = name in zf.namelist()
    if raw:
        text = zf.read(name)
    else:
        with zf.open(name + ".npy") as fh:
            text = np.lib.format.read_array(fh, allow_pickle=False).tobytes()
    try:
        return json.loads(text.decode("utf-8")), raw
    except RecursionError as exc:
        raise ValueError(f"{name} nests too deeply") from exc


def _open_container(path: str | pathlib.Path):
    """Open a container and parse its header (load_trace and TraceReader).

    Returns the open ``ZipFile`` and the header dict.  Every error path
    closes the file, including a truncated zip that makes the
    ``ZipFile`` constructor itself raise.
    """
    try:
        zf = zipfile.ZipFile(path)
    except _READ_ERRORS as exc:
        # Narrowed deliberately: KeyboardInterrupt and MemoryError must
        # propagate during ingestion instead of masquerading as a
        # corrupt file.
        raise TraceError(f"cannot read trace file {path}: {exc}") from exc
    try:
        try:
            header, raw_header = _json_member(zf, _HEADER)
        except KeyError:
            raise TraceError(f"{path} is not a repro trace file (no header)") from None
        except _READ_ERRORS as exc:  # also UnicodeDecodeError, JSONDecodeError
            raise TraceError(f"{path} has a corrupt header: {exc}") from exc
        version = header.get("version") if isinstance(header, dict) else None
        if not isinstance(version, int) or not 1 <= version <= FORMAT_VERSION:
            raise TraceError(
                f"trace file version {version} unsupported "
                f"(this build reads versions 1..{FORMAT_VERSION})"
            )
        if raw_header != (version >= 4) or (
            raw_header and not isinstance(header.get("members"), dict)
        ):
            raise TraceError(
                f"{path} has a corrupt header: its layout does not match "
                f"version {version}"
            )
    except BaseException:
        zf.close()
        raise
    return zf, header


def _member(zf: zipfile.ZipFile, header: dict, name: str) -> np.ndarray:
    """Decode one member by the container's version.

    Version 4 members are raw bytes declared in the header's ``members``
    table; versions 1–3 store ``.npy`` files.  A member the container
    lacks raises ``KeyError``; damaged bytes raise one of
    ``_READ_ERRORS``.
    """
    if header["version"] >= 4:
        decl = header["members"][name]
        if not isinstance(decl, list) or len(decl) != 2:
            raise ValueError(f"member {name} has a malformed declaration {decl!r}")
        return decode_member(zf.read(name), *decl)
    with zf.open(name + ".npy") as fh:
        return np.lib.format.read_array(fh, allow_pickle=False)


def _load_symtab(zf: zipfile.ZipFile, header: dict, path) -> SymbolTable:
    try:
        names, lo, hi = (
            _member(zf, header, key) for key in ("sym_names", "sym_lo", "sym_hi")
        )
    except KeyError as exc:
        raise TraceError(f"{path} is truncated: missing symbol member {exc}") from exc
    except _READ_ERRORS as exc:
        raise TraceError(f"{path} has an unreadable symbol table: {exc}") from exc
    return SymbolTable.from_ranges(
        {str(n): (int(a), int(b)) for n, a, b in zip(names, lo, hi)}
    )


def _sample_chunk_keys(header: dict, core: int) -> list[tuple[str, str, str]]:
    """Member-name triples (ts, ip, tag) for one core, in chunk order."""
    chunks = header.get("sample_chunks")
    if chunks is None:  # flat layout (v1, or later versions without chunking)
        return [
            (
                f"core{core}_sample_ts",
                f"core{core}_sample_ip",
                f"core{core}_sample_tag",
            )
        ]
    return [
        (f"core{core}_s{k}_ts", f"core{core}_s{k}_ip", f"core{core}_s{k}_tag")
        for k in range(int(chunks[str(core)]))
    ]


def _read_wait_columns(zf, header: dict, core: int, getter) -> WaitColumns:
    """Load one core's optional wait-edge columns via ``getter``.

    Any missing member degrades to empty columns — the member set is
    optional by contract, so a partially present one (hand-truncated
    file, older tooling that rewrote the container) must not make a
    reader refuse data it can otherwise serve.
    """
    if core not in (header.get("wait_cores") or []):
        return WaitColumns.empty()
    try:
        cols = {col: getter(f"core{core}_wait_{col}") for col in _WAIT_COLS}
        names = tuple(str(n) for n in _member(zf, header, "wait_queue_names"))
    except KeyError:
        return WaitColumns.empty()
    return WaitColumns(queue_names=names, **cols)


def _monotone_keep_mask(ts: np.ndarray) -> np.ndarray:
    """Mask keeping a longest non-decreasing subsequence of ``ts``.

    The repair policy's record-level surgery: records outside some
    longest non-decreasing subsequence are the minimal set whose removal
    restores sample order, so a single flipped timestamp costs exactly
    one record rather than the tail (or head) of the chunk.
    """
    n = int(ts.shape[0])
    tails: list[int] = []       # last value of the best subsequence per length
    tails_idx: list[int] = []   # index of that value
    prev = np.full(n, -1, dtype=np.int64)
    for i, v in enumerate(ts.tolist()):
        j = bisect.bisect_right(tails, v)
        if j == len(tails):
            tails.append(v)
            tails_idx.append(i)
        else:
            tails[j] = v
            tails_idx[j] = i
        if j > 0:
            prev[i] = tails_idx[j - 1]
    keep = np.zeros(n, dtype=bool)
    i = tails_idx[-1] if tails_idx else -1
    while i != -1:
        keep[i] = True
        i = int(prev[i])
    return keep


def _crc_mismatches(crc_map: dict, members) -> list[str]:
    """Names of the ``(name, array)`` members that fail the v3 crc32 map.

    A member the map does not list (older files, or checks switched off
    with an empty map) passes.
    """
    return [
        name
        for name, arr in members
        if name in crc_map and member_crc(arr) != int(crc_map[name])
    ]


def _checked_member(zf, header: dict, crc_map: dict, key: str, path) -> np.ndarray:
    """Read one member; :class:`CorruptionError` if it fails its crc32."""
    arr = _member(zf, header, key)
    if _crc_mismatches(crc_map, [(key, arr)]):
        raise CorruptionError(
            f"{path}: member {key} fails its crc32 check (stored {crc_map[key]})"
        )
    return arr


def load_trace(
    path: str | pathlib.Path, *, verify_checksums: bool = True
) -> TraceFile:
    """Read a container written by :func:`save_trace` (any layout).

    When the file carries the version-3 crc32 map, every data member is
    verified against it; a mismatch raises
    :class:`~repro.errors.CorruptionError`.  ``verify_checksums=False``
    skips that (e.g. to salvage what loads from a damaged file — for a
    policy-driven alternative use :class:`TraceReader` with
    :mod:`repro.core.streaming`).
    """
    zf, header = _open_container(path)
    crc_map = (header.get("crc32") or {}) if verify_checksums else {}

    def checked(key: str) -> np.ndarray:
        return _checked_member(zf, header, crc_map, key, path)

    with zf:
        symtab = _load_symtab(zf, header, path)
        samples: dict[int, SampleArrays] = {}
        for core in header["sample_cores"]:
            try:
                parts = [
                    SampleArrays(ts=checked(kt), ip=checked(ki), tag=checked(kg))
                    for kt, ki, kg in _sample_chunk_keys(header, core)
                ]
            except KeyError as exc:
                raise TraceError(
                    f"{path} is truncated: missing sample member {exc}"
                ) from exc
            if len(parts) == 1:
                samples[core] = parts[0]
            elif not parts:  # a sampled core that took no samples
                empty = np.empty(0, dtype=np.int64)
                samples[core] = SampleArrays(ts=empty, ip=empty.copy(), tag=empty.copy())
            else:
                samples[core] = SampleArrays(
                    ts=np.concatenate([p.ts for p in parts]),
                    ip=np.concatenate([p.ip for p in parts]),
                    tag=np.concatenate([p.tag for p in parts]),
                )
        switches: dict[int, SwitchRecords] = {}
        for core in header["switch_cores"]:
            kinds = [
                _CODE_KIND[int(c)]
                for c in checked(f"core{core}_switch_kind").tolist()
            ]
            switches[core] = SwitchRecords.from_arrays(
                core,
                checked(f"core{core}_switch_ts"),
                checked(f"core{core}_switch_item"),
                kinds,
            )
        waits: dict[int, WaitColumns] = {}
        for core in header.get("wait_cores") or []:
            w = _read_wait_columns(zf, header, core, checked)
            if len(w):
                waits[core] = w
    return TraceFile(
        symtab=symtab,
        meta=header["meta"],
        _samples=samples,
        _switches=switches,
        _waits=waits,
    )


class TraceReader:
    """Bounded-memory view of a trace container.

    Unlike :func:`load_trace`, which materialises every core's columns,
    a reader parses only the header and symbol table up front and hands
    out sample *chunks* on demand — zip members are decompressed
    individually, so a chunked file never needs more than one chunk of
    one core in memory.  Flat files are supported for backward
    compatibility, but their per-core columns are decompressed whole on
    first access (the best a v1 layout allows); chunk iteration then
    slices views.

    Per-chunk integrity checks (missing members, column-length agreement,
    crc32 when the v3 map is present, timestamp monotonicity) run on
    every access; the ``policy`` argument of the data methods selects
    what a failed check does — ``"strict"`` raises, ``"quarantine"``
    skips the chunk and records a :class:`~repro.core.integrity.Defect`,
    ``"repair"`` drops only the offending records where the corruption
    can be localised (falling back to quarantining the chunk where it
    cannot).

    Use as a context manager, or call :meth:`close`.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._zip, self._header = _open_container(path)
        try:
            self.symtab = _load_symtab(self._zip, self._header, path)
        except BaseException:
            self._zip.close()
            raise
        self.meta: dict = self._header["meta"]
        self.version: int = self._header["version"]
        #: Chunk size the file was written with (None for flat layouts).
        self.stored_chunk_size: int | None = self._header.get("chunk_size")
        self._crc: dict = self._header.get("crc32") or {}

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        self._zip.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- structure -------------------------------------------------------
    @property
    def sample_cores(self) -> list[int]:
        return sorted(self._header["sample_cores"])

    @property
    def switch_cores(self) -> list[int]:
        return sorted(self._header["switch_cores"])

    def _check_core(self, core: int) -> None:
        if core not in self._header["sample_cores"]:
            raise TraceError(f"trace file has no samples for core {core}")

    def n_switch_records(self, core: int) -> int:
        if core not in self._header["switch_cores"]:
            raise TraceError(f"trace file has no switch records for core {core}")
        name = f"core{core}_switch_ts"
        if self.version >= 4:
            return int(self._header["members"][name][1][0])
        return int(self._raw(name).shape[0])

    def _chunk_rows(self, core: int) -> list[int] | None:
        """Stored per-chunk row counts (v3), or None for older files."""
        rows = self._header.get("chunk_rows")
        if rows is None:
            return None
        got = rows.get(str(core))
        return [int(r) for r in got] if got is not None else None

    # -- data ------------------------------------------------------------
    def iter_sample_chunks(
        self,
        core: int,
        chunk_size: int | None = None,
        *,
        policy: str = POLICY_STRICT,
        quarantine: QuarantineLog | None = None,
        coverage: CoverageStats | None = None,
    ):
        """Yield one core's samples as bounded, integrity-checked chunks.

        ``chunk_size`` re-slices stored chunks (or a flat column) into
        pieces of at most that many samples; ``None`` yields the file's
        own chunking (the whole column for flat files).

        Under ``"repair"``, chunks that are internally sorted but start
        before the previous chunk's end are yielded as-is (no data is
        lost); the consumer must tolerate out-of-order chunks — feed them
        to a :class:`~repro.core.streaming.StreamingIntegrator` built
        with ``tolerate_reorder=True``.  ``quarantine`` and ``coverage``
        collect the defect and coverage accounting when given.
        """
        check_policy(policy)
        self._check_core(core)
        if chunk_size is not None and chunk_size < 1:
            raise TraceError(f"chunk_size must be >= 1, got {chunk_size}")
        quarantine = quarantine if quarantine is not None else QuarantineLog()
        coverage = coverage if coverage is not None else CoverageStats(core=core)
        for stored in self._validated_chunks(core, policy, quarantine, coverage):
            if chunk_size is None:
                yield stored
            else:
                yield from stored.iter_chunks(chunk_size)

    def _load_members(
        self, names: tuple[str, str, str]
    ) -> tuple[list[np.ndarray] | None, str, str]:
        """Load a chunk's column members; (arrays, defect_kind, detail)."""
        out = []
        for name in names:
            try:
                out.append(self._raw(name))
            except KeyError:
                return None, KIND_MISSING, f"member {name} is absent"
            except _READ_ERRORS as exc:
                return None, KIND_UNREADABLE, f"member {name}: {exc}"
        return out, "", ""

    def _validated_chunks(
        self,
        core: int,
        policy: str,
        quarantine: QuarantineLog,
        coverage: CoverageStats,
    ):
        """Generator behind :meth:`iter_sample_chunks`: one stored chunk a time."""
        ins = _obs()
        expected_rows = self._chunk_rows(core)
        prev_last: int | None = None
        for idx, names in enumerate(_sample_chunk_keys(self._header, core)):
            n_expected = (
                expected_rows[idx]
                if expected_rows is not None and idx < len(expected_rows)
                else -1
            )
            arrays, kind, detail = self._load_members(names)
            if arrays is None:
                if policy == POLICY_STRICT:
                    raise CorruptionError(
                        f"{self.path} is truncated or unreadable: {detail}"
                    )
                # Nothing to repair when the bytes are gone: both lenient
                # policies drop the chunk.  Without its timestamps the
                # affected span is open-ended from the previous chunk on.
                quarantine.record(
                    Defect(
                        core=core,
                        kind=kind,
                        member=names[0],
                        detail=detail + " (chunk dropped)",
                        records_lost=n_expected,
                        ts_lo=prev_last,
                        ts_hi=None,
                    )
                )
                coverage.chunks_dropped += 1
                ins.chunks_quarantined.inc()
                if n_expected >= 0:
                    coverage.samples_dropped += n_expected
                    ins.samples_dropped.inc(n_expected)
                else:
                    coverage.unknown_extent = True
                continue
            ts, ip, tag = arrays
            ins.bytes_read.inc(
                int(ts.nbytes) + int(ip.nbytes) + int(tag.nbytes)
            )
            chunk, ok = self._check_chunk(
                core, names, ts, ip, tag, n_expected, policy,
                prev_last, quarantine, coverage,
            )
            if not ok:
                continue
            if len(chunk):
                last = int(chunk.ts[-1])
                prev_last = last if prev_last is None else max(prev_last, last)
            yield chunk

    def _check_chunk(
        self,
        core: int,
        names: tuple[str, str, str],
        ts: np.ndarray,
        ip: np.ndarray,
        tag: np.ndarray,
        n_expected: int,
        policy: str,
        prev_last: int | None,
        quarantine: QuarantineLog,
        coverage: CoverageStats,
    ) -> tuple[SampleArrays, bool]:
        """Validate one stored chunk; returns (chunk, keep)."""
        member = names[0]
        ins = _obs()

        def drop(kind: str, detail: str, lost: int, lo, hi) -> tuple[SampleArrays, bool]:
            quarantine.record(
                Defect(
                    core=core, kind=kind, member=member,
                    detail=detail + " (chunk dropped)",
                    records_lost=lost, ts_lo=lo, ts_hi=hi,
                )
            )
            coverage.chunks_dropped += 1
            ins.chunks_quarantined.inc()
            if lost >= 0:
                coverage.samples_dropped += lost
                ins.samples_dropped.inc(lost)
            else:
                coverage.unknown_extent = True
            return SampleArrays(ts=ts, ip=ip, tag=tag), False

        # 1. Column lengths must agree (torn write / partial member).
        lens = (int(ts.shape[0]), int(ip.shape[0]), int(tag.shape[0]))
        repaired = False
        if len(set(lens)) != 1:
            m = min(lens)
            n_stored = n_expected if n_expected >= 0 else max(lens)
            detail = f"column lengths disagree {lens}"
            if policy == POLICY_STRICT:
                raise CorruptionError(f"{self.path} [{member}]: {detail}")
            span_lo = int(ts[m]) if int(ts.shape[0]) > m else prev_last
            span_hi = int(ts[-1]) if int(ts.shape[0]) > m else None
            if policy == POLICY_REPAIR and m > 0:
                quarantine.record(
                    Defect(
                        core=core, kind=KIND_LENGTH, member=member,
                        detail=detail + f" (truncated to {m} aligned records)",
                        records_lost=max(n_stored - m, 0),
                        ts_lo=span_lo, ts_hi=span_hi,
                    )
                )
                coverage.samples_dropped += max(n_stored - m, 0)
                coverage.chunks_repaired += 1
                ins.samples_dropped.inc(max(n_stored - m, 0))
                ins.chunks_repaired.inc()
                ts, ip, tag = ts[:m], ip[:m], tag[:m]
                repaired = True
            else:
                return drop(
                    KIND_LENGTH, detail, n_stored,
                    int(ts[0]) if len(ts) else prev_last,
                    int(ts[-1]) if len(ts) else None,
                )

        # 2. crc32 vs the v3 map (absent for older files -> skipped).
        bad_crc = (
            [] if repaired else _crc_mismatches(self._crc, zip(names, (ts, ip, tag)))
        )
        if bad_crc:
            ins.crc_failures.inc(len(bad_crc))
        # 3. Timestamp monotonicity within the chunk.
        unsorted = bool(ts.shape[0]) and bool(np.any(np.diff(ts) < 0))

        if bad_crc and not unsorted:
            # Corruption that cannot be localised to records: the flipped
            # bits left the timestamps ordered (or hit ip/tag), so no
            # record can be singled out — even repair drops the chunk.
            detail = f"crc32 mismatch in {', '.join(bad_crc)}"
            if policy == POLICY_STRICT:
                raise CorruptionError(f"{self.path} [{member}]: {detail}")
            return drop(
                KIND_CHECKSUM, detail, len(ts),
                int(ts.min()) if len(ts) else prev_last,
                int(ts.max()) if len(ts) else None,
            )
        if unsorted:
            detail = "timestamps out of order within chunk" + (
                f" (crc32 mismatch in {', '.join(bad_crc)})" if bad_crc else ""
            )
            if policy == POLICY_STRICT:
                raise CorruptionError(f"{self.path} [{member}]: {detail}")
            if policy != POLICY_REPAIR:
                return drop(
                    KIND_ORDER, detail, len(ts), int(ts.min()), int(ts.max())
                )
            # Repair: drop the minimal record set whose removal restores
            # order (a flipped timestamp localises itself by breaking it).
            keep = _monotone_keep_mask(ts)
            lost = int(np.count_nonzero(~keep))
            lo, hi = self._dropped_span(ts, keep, prev_last)
            quarantine.record(
                Defect(
                    core=core, kind=KIND_ORDER, member=member,
                    detail=detail + f" ({lost} offending record(s) dropped)",
                    records_lost=lost, ts_lo=lo, ts_hi=hi,
                )
            )
            coverage.samples_dropped += lost
            coverage.chunks_repaired += 1
            ins.samples_dropped.inc(lost)
            ins.chunks_repaired.inc()
            ts, ip, tag = ts[keep], ip[keep], tag[keep]
            repaired = True

        # 4. Cross-chunk order: a chunk starting before the previous
        #    chunk's end means the chunks were stored out of order.
        if (
            len(ts)
            and prev_last is not None
            and int(ts[0]) < prev_last
        ):
            detail = (
                f"chunk starts at {int(ts[0])}, before previous chunk end {prev_last}"
            )
            if policy == POLICY_STRICT:
                raise CorruptionError(f"{self.path} [{member}]: {detail}")
            if policy != POLICY_REPAIR:
                return drop(KIND_ORDER, detail, len(ts), int(ts[0]), int(ts[-1]))
            # Repair: nothing is corrupt inside the chunk — yield it and
            # let a reorder-tolerant integrator merge it (no data lost).

        if repaired:
            coverage.samples_kept += len(ts)
        else:
            coverage.chunks_kept += 1
            coverage.samples_kept += len(ts)
            ins.chunks_validated.inc()
        return SampleArrays(ts=ts, ip=ip, tag=tag), True

    @staticmethod
    def _dropped_span(
        ts: np.ndarray, keep: np.ndarray, prev_last: int | None
    ) -> tuple[int | None, int | None]:
        """Trustworthy ts bounds around dropped records (for Defect spans).

        Dropped records carry corrupt timestamps, so the span is taken
        from their nearest *kept* neighbours instead.
        """
        kept_pos = np.nonzero(keep)[0]
        lo: int | None = None
        hi: int | None = None
        open_hi = False
        for i in np.nonzero(~keep)[0].tolist():
            left = kept_pos[kept_pos < i]
            right = kept_pos[kept_pos > i]
            lo_i = int(ts[left[-1]]) if len(left) else prev_last
            if lo_i is not None:
                lo = lo_i if lo is None else min(lo, lo_i)
            if len(right):
                hi_i = int(ts[right[0]])
                hi = hi_i if hi is None else max(hi, hi_i)
            else:
                open_hi = True
        return lo, (None if open_hi else hi)

    def _switch_member_names(self, core: int) -> tuple[str, str, str]:
        if core not in self._header["switch_cores"]:
            raise TraceError(f"trace file has no switch records for core {core}")
        return (
            f"core{core}_switch_ts",
            f"core{core}_switch_item",
            f"core{core}_switch_kind",
        )

    def _raw(self, key: str) -> np.ndarray:
        """Read one member, unchecked."""
        return _member(self._zip, self._header, key)

    def _checked(self, key: str) -> np.ndarray:
        """Read one member under the strict crc32 check, like load_trace."""
        return _checked_member(self._zip, self._header, self._crc, key, self.path)

    def switch_window_columns(
        self,
        core: int,
        *,
        policy: str = POLICY_STRICT,
        quarantine: QuarantineLog | None = None,
        coverage: CoverageStats | None = None,
    ) -> WindowColumns:
        """Per-item residency windows for one core, as column arrays.

        Switch logs are two records per data-item — small next to the
        sample stream — so they are read whole; the pairing itself avoids
        the per-record state machine on well-formed logs, and the column
        form never materialises per-window Python objects.

        Under a lenient ``policy``, malformed logs (duplicated or dropped
        marks, corrupt timestamps) go through best-effort pairing: every
        window returned is a genuinely paired START/END, dropped marks
        are recorded in ``quarantine``, and the affected items land in
        ``coverage.degraded_items``.
        """
        check_policy(policy)
        quarantine = quarantine if quarantine is not None else QuarantineLog()
        coverage = coverage if coverage is not None else CoverageStats(core=core)
        names = self._switch_member_names(core)
        ts, item, kinds = map(self._raw, names)
        crc_bad = _crc_mismatches(self._crc, zip(names, (ts, item, kinds)))
        if crc_bad:
            _obs().crc_failures.inc(len(crc_bad))
            detail = f"crc32 mismatch in {', '.join(crc_bad)}"
            if policy == POLICY_STRICT:
                raise CorruptionError(f"{self.path}: switch log for core {core}: {detail}")
            quarantine.record(
                Defect(
                    core=core, kind=KIND_CHECKSUM, member=crc_bad[0],
                    detail=detail + " (lenient pairing applied)",
                    records_lost=0,
                )
            )
        if policy == POLICY_STRICT:
            return pair_switch_columns(
                core,
                ts,
                item,
                kinds,
                start_code=_KIND_CODE[SwitchKind.ITEM_START],
                end_code=_KIND_CODE[SwitchKind.ITEM_END],
            )
        lw = pair_switch_columns_lenient(
            core,
            ts,
            item,
            kinds,
            start_code=_KIND_CODE[SwitchKind.ITEM_START],
            end_code=_KIND_CODE[SwitchKind.ITEM_END],
        )
        coverage.switch_marks += lw.total_marks
        coverage.switch_marks_dropped += lw.dropped_marks
        if lw.dropped_marks:
            _obs().marks_dropped.inc(lw.dropped_marks)
            coverage.mark_degraded(lw.affected_items)
            quarantine.record(
                Defect(
                    core=core,
                    kind=KIND_SWITCH,
                    member=f"core{core}_switch_ts",
                    detail=(
                        f"{lw.dropped_marks} of {lw.total_marks} switch mark(s) "
                        f"unpaired (items {', '.join(map(str, lw.affected_items))})"
                    ),
                    records_lost=lw.dropped_marks,
                )
            )
        return lw.windows

    def switch_windows(self, core: int) -> list[ItemWindow]:
        """Per-item residency windows for one core, as objects."""
        return self.switch_window_columns(core).to_windows()

    def switches(self, core: int) -> SwitchRecords:
        """One core's switch log as a :class:`SwitchRecords` object.

        Checked against the crc32 map like :func:`load_trace`: a corrupt
        log raises :class:`CorruptionError` instead of being handed on.
        """
        ts, item, kind_codes = map(self._checked, self._switch_member_names(core))
        kinds = [_CODE_KIND[int(c)] for c in kind_codes.tolist()]
        return SwitchRecords.from_arrays(core, ts, item, kinds)

    @property
    def wait_cores(self) -> list[int]:
        """Cores with recorded wait edges (empty for older containers)."""
        return sorted(self._header.get("wait_cores") or [])

    def wait_columns(self, core: int) -> WaitColumns:
        """One core's wait edges; empty for containers without the
        optional member set (never an error)."""
        return _read_wait_columns(self._zip, self._header, core, self._checked)


def save_session(
    path: str | pathlib.Path,
    session,
    symtab: SymbolTable,
    meta: dict | None = None,
    *,
    chunk_size: int | None = None,
    compress: bool = True,
    checksums: bool = True,
) -> None:
    """Persist a :class:`~repro.session.TraceSession` (samples + switches,
    plus the optional wait-edge member set when the session recorded
    waits)."""
    samples = {c: u.finalize() for c, u in session.units.items()}
    switches = {
        c: session.tracer.records_for_core(c) for c in session.units
    }
    wait_log = getattr(session, "wait_log", None)
    waits = wait_log.per_core_columns() if wait_log is not None else None
    save_trace(
        path,
        samples,
        switches,
        symtab,
        meta,
        chunk_size=chunk_size,
        compress=compress,
        checksums=checksums,
        waits_by_core=waits or None,
    )
