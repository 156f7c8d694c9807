"""Trace persistence: the compiled binary format and trace-file specs.

Real deployments train from dataset files on disk — which is precisely the
property ScratchPipe exploits ("the training dataset records exactly which
indices to utilize ... for all upcoming training iterations").  This module
owns the one on-disk trace representation and its addressing:

* the **compiled binary format** (:func:`compile_trace` /
  :class:`CompiledTraceSource`) — a small JSON header plus a packed int32
  ID array, memmapped for zero-copy O(1) random access in any order.  The
  on-disk IDs have the dtype every in-memory trace stores
  (:data:`~repro.data.trace.SPARSE_ID_DTYPE`), so compiling a trace and
  reading it back changes neither its values nor its dtype.
  Compiling a TSV once removes parsing (and the TSV reader's
  rewind-on-backward-seek) from every later experiment, and compiling any
  other :class:`~repro.data.trace.TraceSource` (synthetic, scenario) is
  the way to persist a trace across runs (``repro.cli ingest`` does it
  from the command line);
* :class:`TraceFileSpec` — a frozen, hashable, picklable description of a
  trace **file** (path + sha256 pin + geometry mapping), the file-backed
  twin of :class:`~repro.data.scenarios.ScenarioSpec`: sweep grids and
  ``ExperimentSetup`` address real traces through it, so file-backed
  points ship through the existing spec-only worker dispatch.  It opens
  compiled traces and raw Criteo-style TSV files.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.data.trace import (
    SPARSE_ID_DTYPE,
    MaterialisedDataset,
    MiniBatch,
    TraceSource,
)
from repro.model.config import ModelConfig

#: Layout version stored in every compiled trace's header.
FORMAT_VERSION = 1

#: On-disk dtype of the sparse IDs: the in-memory :data:`SPARSE_ID_DTYPE`,
#: little-endian (``<i4``), so a compiled batch maps straight onto it.
_SPARSE_DISK_DTYPE = np.dtype(SPARSE_ID_DTYPE).newbyteorder("<")


class InvalidTraceFileSpecError(ValueError):
    """A trace-file specification with out-of-range or inconsistent fields."""


class TraceVerificationError(ValueError):
    """A trace file whose content does not match its pinned sha256."""


def sha256_file(path: Union[str, Path], chunk_bytes: int = 1 << 20) -> str:
    """Streaming sha256 of a file (lowercase hex digest)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk_bytes)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Compiled binary trace format
# ----------------------------------------------------------------------
#: File magic of the compiled format (versioned: bump the final byte on
#: layout changes).
COMPILED_MAGIC = b"REPRO-CTRACE\x01"

#: Alignment of the data section (memmap-friendly, covers any dtype).
_DATA_ALIGN = 64


def _compiled_header(path: Union[str, Path]) -> dict:
    """Read and validate a compiled trace's JSON header."""
    with open(path, "rb") as fh:
        magic = fh.read(len(COMPILED_MAGIC))
        if magic != COMPILED_MAGIC:
            raise TraceFormatError(
                f"{path} is not a compiled trace (bad magic {magic!r}); "
                "compile one with repro.data.io.compile_trace or "
                "`python -m repro.cli ingest`"
            )
        (header_len,) = np.frombuffer(fh.read(8), dtype="<u8")
        header = json.loads(fh.read(int(header_len)).decode("utf-8"))
    header["data_start"] = _aligned_data_start(int(header_len))
    return header


def _aligned_data_start(header_len: int) -> int:
    prelude = len(COMPILED_MAGIC) + 8 + header_len
    return (prelude + _DATA_ALIGN - 1) // _DATA_ALIGN * _DATA_ALIGN


def compile_trace(
    source: TraceSource,
    path: Union[str, Path],
    num_batches: Optional[int] = None,
    chunk_batches: int = 256,
) -> Path:
    """Compile any :class:`TraceSource` into the binary memmap format.

    Streams the source through its chunked interface (constant memory in
    the trace length), packs the sparse IDs as int32
    (:data:`~repro.data.trace.SPARSE_ID_DTYPE`) and publishes the
    file with an atomic rename, so readers never observe a half-written
    trace.  Dense features and labels, when the source carries them, are
    appended as float32 arrays in a second streaming pass.

    Args:
        source: Any trace source (``TsvTraceSource``, synthetic, scenario).
        path: Destination file.
        num_batches: Compile only the first ``num_batches`` batches.
        chunk_batches: Batches per streamed chunk.

    Returns:
        The destination path.
    """
    config = source.config
    total = len(source)
    num_batches = total if num_batches is None else min(num_batches, total)
    if num_batches < 1:
        raise TraceFormatError(f"num_batches must be >= 1, got {num_batches}")
    # Sources that declare dense-ness (the synthetic/scenario/TSV
    # sources) skip the batch-0 probe, so a TSV really is parsed only
    # once; opaque sources pay one probe parse of their first block.
    with_dense = getattr(source, "with_dense", None)
    if with_dense is None:
        with_dense = source.batch(0).dense is not None
    dense_width = config.num_dense_features if with_dense else 0
    sparse_shape = (
        num_batches, config.num_tables, config.batch_size,
        config.lookups_per_table,
    )
    arrays = {
        "sparse_ids": {
            "offset": 0,
            "dtype": _SPARSE_DISK_DTYPE.str,
            "shape": list(sparse_shape),
        },
    }
    cursor = int(np.prod(sparse_shape)) * _SPARSE_DISK_DTYPE.itemsize
    if with_dense:
        dense_shape = (num_batches, config.batch_size, dense_width)
        arrays["dense"] = {
            "offset": cursor, "dtype": "<f4", "shape": list(dense_shape),
        }
        cursor += int(np.prod(dense_shape)) * 4
        labels_shape = (num_batches, config.batch_size)
        arrays["labels"] = {
            "offset": cursor, "dtype": "<f4", "shape": list(labels_shape),
        }
    header = {
        "format_version": FORMAT_VERSION,
        "num_batches": num_batches,
        "num_tables": config.num_tables,
        "rows_per_table": config.rows_per_table,
        "lookups_per_table": config.lookups_per_table,
        "batch_size": config.batch_size,
        "num_dense_features": config.num_dense_features,
        "with_dense": with_dense,
        "arrays": arrays,
        "source": type(source).__name__,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = _aligned_data_start(len(header_bytes))

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(f".{path.name}.{os.getpid()}.part")

    def _check_batch(batch: MiniBatch, index: int) -> None:
        if batch.sparse_ids.shape != sparse_shape[1:]:
            raise TraceFormatError(
                f"batch {index} has sparse shape {batch.sparse_ids.shape}; "
                f"expected {sparse_shape[1:]}"
            )
        low = int(batch.sparse_ids.min())
        high = int(batch.sparse_ids.max())
        if low < 0 or high >= config.rows_per_table:
            raise TraceFormatError(
                f"batch {index} carries IDs outside "
                f"[0, {config.rows_per_table}): min {low}, max {high}"
            )
        if (batch.dense is not None) != with_dense:
            raise TraceFormatError("all batches must agree on dense presence")
        if with_dense:
            if batch.dense.shape != (config.batch_size, dense_width):
                raise TraceFormatError(
                    f"batch {index} has dense shape {batch.dense.shape}; "
                    f"expected {(config.batch_size, dense_width)}"
                )
            if batch.labels is None or batch.labels.shape != (
                config.batch_size,
            ):
                shape = None if batch.labels is None else batch.labels.shape
                raise TraceFormatError(
                    f"batch {index} has labels shape {shape}; dense-bearing "
                    f"traces need labels of shape {(config.batch_size,)}"
                )

    def _chunks():
        consumed = 0
        source.reset()
        for chunk in source.iter_chunks(
            chunk_batches=min(chunk_batches, num_batches)
        ):
            take = chunk[: num_batches - consumed]
            if take:
                yield consumed, take
            consumed += len(take)
            if consumed >= num_batches:
                return

    try:
        with open(scratch, "wb") as fh:
            fh.write(COMPILED_MAGIC)
            fh.write(np.uint64(len(header_bytes)).tobytes())
            fh.write(header_bytes)
            fh.write(
                b"\x00" * (
                    data_start - len(COMPILED_MAGIC) - 8 - len(header_bytes)
                )
            )
            # Single pass over the source: every section's extent is known
            # up front, so each array keeps its own write cursor and the
            # file is seek-positioned per chunk — a TSV source is parsed
            # (and its tokens hashed) exactly once, dense or not.
            cursors = {
                name: data_start + meta["offset"]
                for name, meta in arrays.items()
            }

            def _append(name: str, payload: np.ndarray, dtype: str) -> None:
                raw = np.ascontiguousarray(payload, dtype=dtype).tobytes()
                fh.seek(cursors[name])
                fh.write(raw)
                cursors[name] += len(raw)

            for start, chunk in _chunks():
                for offset, batch in enumerate(chunk):
                    _check_batch(batch, start + offset)
                    _append("sparse_ids", batch.sparse_ids, _SPARSE_DISK_DTYPE.str)
                    if with_dense:
                        _append("dense", batch.dense, "<f4")
                        _append("labels", batch.labels, "<f4")
            # Every section must land exactly on its computed extent —
            # a mismatch means a mis-shaped batch slipped through and the
            # file would read back garbage.
            for name, meta in arrays.items():
                expected = (
                    data_start + meta["offset"]
                    + int(np.prod(meta["shape"]))
                    * np.dtype(meta["dtype"]).itemsize
                )
                if cursors[name] != expected:
                    raise TraceFormatError(
                        f"compiled section {name!r} ended at byte "
                        f"{cursors[name]}, expected {expected}"
                    )
        os.replace(scratch, path)
    finally:
        scratch.unlink(missing_ok=True)
    return path


class CompiledTraceSource(TraceSource):
    """Zero-copy reader of a compiled binary trace.

    ``batch(i)`` slices a read-only memmap — O(1) for **any** access
    order (no cursor, no rewind, no parsing), so backward seeks that cost
    the TSV reader a full re-read are free here.  The per-batch views
    share the int32 on-disk representation, the dtype every trace source
    stores; consumers treat ``MiniBatch.sparse_ids`` as immutable, which
    the read-only mapping also enforces.

    Args:
        path: Compiled trace file (see :func:`compile_trace`).
        config: Optional geometry to validate against (raises on
            mismatch).  When omitted, a config is reconstructed from the
            header's geometry with default model hyper-parameters (the
            trace content depends only on the geometry).
        max_batches: Cap the exposed trace length.
    """

    def __init__(
        self,
        path: Union[str, Path],
        config: Optional[ModelConfig] = None,
        max_batches: Optional[int] = None,
    ) -> None:
        self.path = str(path)
        header = _compiled_header(path)
        version = int(header["format_version"])
        if version != FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported compiled-trace version {version}; "
                f"expected {FORMAT_VERSION}"
            )
        self.header = header
        self.num_tables = int(header["num_tables"])
        self.rows_per_table = int(header["rows_per_table"])
        self.lookups_per_table = int(header["lookups_per_table"])
        self.batch_size = int(header["batch_size"])
        self.with_dense = bool(header["with_dense"])
        self._num_batches = int(header["num_batches"])
        if max_batches is not None:
            if max_batches < 1:
                raise TraceFormatError(
                    f"max_batches must be >= 1, got {max_batches}"
                )
            self._num_batches = min(self._num_batches, max_batches)
        if config is None:
            config = ModelConfig().scaled(
                num_tables=self.num_tables,
                rows_per_table=self.rows_per_table,
                lookups_per_table=self.lookups_per_table,
                batch_size=self.batch_size,
                num_dense_features=int(
                    header.get("num_dense_features", 13)
                ),
            )
        self.config = config
        self.validate_against(config)
        data_start = header["data_start"]
        self._sparse = self._map("sparse_ids", data_start)
        self._dense = (
            self._map("dense", data_start) if self.with_dense else None
        )
        self._labels = (
            self._map("labels", data_start) if self.with_dense else None
        )

    def _map(self, name: str, data_start: int) -> np.ndarray:
        meta = self.header["arrays"][name]
        return np.memmap(
            self.path,
            dtype=np.dtype(meta["dtype"]),
            mode="r",
            offset=data_start + int(meta["offset"]),
            shape=tuple(meta["shape"]),
        )

    def validate_against(self, config: ModelConfig) -> None:
        """Raise if the compiled geometry does not match ``config``."""
        mismatches = []
        if self.num_tables != config.num_tables:
            mismatches.append("num_tables")
        if self.rows_per_table != config.rows_per_table:
            mismatches.append("rows_per_table")
        if self.lookups_per_table != config.lookups_per_table:
            mismatches.append("lookups_per_table")
        if self.batch_size != config.batch_size:
            mismatches.append("batch_size")
        if mismatches:
            raise TraceFormatError(
                "compiled trace/config geometry mismatch on: "
                + ", ".join(mismatches)
            )

    def __len__(self) -> int:
        return self._num_batches

    def batch(self, index: int) -> MiniBatch:
        if not 0 <= index < self._num_batches:
            raise IndexError(
                f"batch index {index} out of range [0, {self._num_batches})"
            )
        return MiniBatch(
            index=index,
            sparse_ids=self._sparse[index],
            dense=None if self._dense is None else self._dense[index],
            labels=None if self._labels is None else self._labels[index],
        )


# ----------------------------------------------------------------------
# TraceFileSpec — the spec-addressable description of a trace file
# ----------------------------------------------------------------------
#: Formats a TraceFileSpec can name; ``auto`` sniffs the compiled magic.
TRACE_FILE_FORMATS = ("auto", "compiled", "tsv")

_SHA256_RE = re.compile(r"^[0-9a-f]{64}$")


def sniff_trace_format(path: Union[str, Path]) -> str:
    """Detect a trace file's format from its magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(len(COMPILED_MAGIC))
    return "compiled" if head == COMPILED_MAGIC else "tsv"


@dataclass(frozen=True)
class TraceFileSpec:
    """Frozen, hashable, picklable description of one trace file.

    The file-backed twin of :class:`~repro.data.scenarios.ScenarioSpec`:
    a few dozen bytes naming *which bytes on disk* (path + optional sha256
    pin) and *how they map onto a model geometry* (batch size, table
    count, lookups, hash-bucket rows, dense handling).  Sweep grids and
    ``ExperimentSetup`` carry the spec — never the trace — so file-backed
    experiment points ride the existing spec-only worker dispatch and
    shared-memory trace publication unchanged.

    Attributes:
        path: Trace file location.
        format: One of :data:`TRACE_FILE_FORMATS` (``auto`` sniffs).
        sha256: Optional content pin; :meth:`open` refuses a file whose
            digest differs (:class:`TraceVerificationError`).
        max_batches: Cap the trace length (also bounds the TSV counting
            pass at construction).
        with_dense / num_dense_columns / allow_dense_pad: Dense-feature
            mapping, forwarded to :class:`~repro.data.tsv.TsvTraceSource`.
        batch_size / num_tables / lookups_per_table / rows_per_table:
            Geometry mapping applied to the base config by
            :meth:`configure` (``None`` keeps the base value).  For
            compiled files the geometry is read from the header and any
            override must agree with it.
    """

    path: str
    format: str = "auto"
    sha256: Optional[str] = None
    max_batches: Optional[int] = None
    with_dense: bool = False
    num_dense_columns: int = 13
    allow_dense_pad: bool = False
    batch_size: Optional[int] = None
    num_tables: Optional[int] = None
    lookups_per_table: Optional[int] = None
    rows_per_table: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.path, str):
            object.__setattr__(self, "path", str(self.path))
        if not self.path:
            raise InvalidTraceFileSpecError("trace spec needs a path")
        if self.format not in TRACE_FILE_FORMATS:
            raise InvalidTraceFileSpecError(
                f"unknown trace format {self.format!r}; expected one of "
                f"{TRACE_FILE_FORMATS}"
            )
        if self.sha256 is not None:
            digest = str(self.sha256).lower()
            if not _SHA256_RE.match(digest):
                raise InvalidTraceFileSpecError(
                    f"sha256 must be a 64-char hex digest, got {self.sha256!r}"
                )
            object.__setattr__(self, "sha256", digest)
        for name in (
            "max_batches", "batch_size", "num_tables", "lookups_per_table",
            "rows_per_table",
        ):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise InvalidTraceFileSpecError(
                    f"{name} must be an int >= 1 or None, got {value!r}"
                )
        if self.num_dense_columns < 0:
            raise InvalidTraceFileSpecError(
                "num_dense_columns must be >= 0, got "
                f"{self.num_dense_columns}"
            )

    # ------------------------------------------------------------------
    def resolved_format(self) -> str:
        """The concrete format (sniffing the file when ``auto``)."""
        if self.format != "auto":
            return self.format
        return sniff_trace_format(self.path)

    def verify(self) -> None:
        """Check the sha256 pin (no-op when unpinned)."""
        if self.sha256 is None:
            return
        actual = sha256_file(self.path)
        if actual != self.sha256:
            raise TraceVerificationError(
                f"{self.path} sha256 mismatch: expected {self.sha256}, "
                f"got {actual}"
            )

    def configure(self, base: ModelConfig) -> ModelConfig:
        """The model geometry this trace drives, derived from ``base``.

        Compiled files are authoritative about their geometry: overrides
        must agree with the header.  TSV files apply the spec's geometry
        overrides to ``base``.
        """
        geometry = (
            "batch_size", "num_tables", "lookups_per_table", "rows_per_table",
        )
        overrides = {
            name: getattr(self, name)
            for name in geometry
            if getattr(self, name) is not None
        }
        if self.resolved_format() == "compiled":
            header = _compiled_header(self.path)
            for name, value in overrides.items():
                if int(header[name]) != value:
                    raise InvalidTraceFileSpecError(
                        f"spec {name}={value} conflicts with the compiled "
                        f"header's {name}={header[name]} for {self.path}"
                    )
            overrides = {name: int(header[name]) for name in geometry}
        return base.scaled(**overrides) if overrides else base

    def open(self, config: Optional[ModelConfig] = None) -> TraceSource:
        """Verify and open the trace against a concrete geometry.

        ``config`` defaults to :meth:`configure` applied to the default
        :class:`ModelConfig`, and must match what the file can realise.
        """
        self.verify()
        if config is None:
            config = self.configure(ModelConfig())
        if self.resolved_format() == "compiled":
            source = CompiledTraceSource(
                self.path, config=config, max_batches=self.max_batches
            )
            if self.with_dense and not source.with_dense:
                raise InvalidTraceFileSpecError(
                    f"spec asks for dense features but {self.path} was "
                    "compiled without them"
                )
            return source
        from repro.data.tsv import TsvTraceSource

        return TsvTraceSource(
            self.path,
            config,
            num_dense_columns=self.num_dense_columns,
            with_dense=self.with_dense,
            max_batches=self.max_batches,
            allow_dense_pad=self.allow_dense_pad,
        )

    def materialise(
        self,
        config: Optional[ModelConfig] = None,
        num_batches: Optional[int] = None,
    ) -> MaterialisedDataset:
        """Open and pin (a prefix of) the trace in memory.

        The single mapping from a trace-file spec to the replayable
        dataset the experiment layer consumes — both the figure entry
        points and the sweep workers resolve file-backed points through
        it, so they cannot drift apart.  ``num_batches`` caps the prefix
        (clamped to the file's length).
        """
        source = self.open(config)
        total = len(source)
        cap = total if num_batches is None else min(num_batches, total)
        return MaterialisedDataset(source, num_batches=cap)
