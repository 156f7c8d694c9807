"""Criteo-style TSV ingestion with vectorised parsing and bulk hashing.

Each line of a Criteo-layout file is one sample::

    label <TAB> dense_1 ... dense_13 <TAB> cat_1 ... cat_26

Categorical tokens are hashed into ``rows_per_table`` buckets and
consecutive groups of ``lookups_per_table`` categorical columns feed
consecutive tables, so a file with at least ``num_tables *
lookups_per_table`` categorical columns drives any model geometry.

Token hashing is a **chunked SplitMix64 word hash**: the token's bytes
are read as little-endian 64-bit words (zero-padded tail), each word is
folded into the running state with one SplitMix64 avalanche round (the
length seeds the state, so zero-tailed tokens of different lengths stay
distinct), and the final state passes through the repo's
:func:`repro.data.trace.mix64` avalanche salted per table.  The whole
computation is pure integer arithmetic — stable across processes, Python
versions and numpy versions, which is the determinism contract file-backed
traces must honour (builtin ``hash()`` is interpreter-salted, and a
crc32-of-formatted-string hash costs a Python round-trip per token).

Parsing tokenises and hashes **whole blocks of batches at a time**: one
``np.frombuffer`` pass finds the field separators, one unaligned-word
gather + masked fold evaluates every token's hash at once, and a single
table-salted :func:`mix64` pass finishes the bucket IDs.  A per-token
loop over :func:`hash_token` (>=20x slower, as the ingest benchmark
records) is the equivalence-test oracle
``repro.testing.oracles.PerTokenTsvTraceSource``.

For repeated experiments, compile the file once with
:func:`repro.data.io.compile_trace` — the compiled form is memmapped with
O(1) random access and skips parsing entirely.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import TsvFormatError
from repro.data.trace import MiniBatch, TraceSource, mix64_scalar
from repro.model.config import ModelConfig

#: Salt namespacing the token-hash stream (folded through mix64 together
#: with the table index, so tables hash independently).
TOKEN_HASH_SALT = 0x75

_U64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB

#: Mask selecting the first ``rem`` bytes of a little-endian 8-byte word.
_WORD_MASKS = np.array(
    [(1 << (8 * i)) - 1 for i in range(8)] + [_U64], dtype=np.uint64
)

#: Zero padding appended to each parse blob so the final token's 8-byte
#: word windows stay in bounds without per-element clamping.
_BLOB_PAD = 8


def _fold_round_scalar(x: int) -> int:
    """One SplitMix64 avalanche round (scalar twin of :func:`_fold_round`)."""
    x = (x + _GOLDEN) & _U64
    x = ((x ^ (x >> 30)) * _MIX_1) & _U64
    x = ((x ^ (x >> 27)) * _MIX_2) & _U64
    return x ^ (x >> 31)


def _fold_round(x: np.ndarray) -> np.ndarray:
    """One SplitMix64 avalanche round over a uint64 array."""
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX_1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX_2)
    return x ^ (x >> np.uint64(31))


def hash_token(token: bytes, table: int, num_rows: int) -> int:
    """Bucket ID of one categorical token (scalar reference path).

    Bit-identical to the vectorised bulk hash: the token length seeds the
    state, each little-endian 8-byte word (zero-padded tail) folds in
    with one avalanche round, and a table-salted SplitMix64 finish maps
    into ``num_rows`` buckets.
    """
    h = len(token)
    for i in range(0, len(token), 8):
        h = _fold_round_scalar(h ^ int.from_bytes(token[i:i + 8], "little"))
    return mix64_scalar(h, table, TOKEN_HASH_SALT) % num_rows


def _bulk_token_hashes(
    blob: bytes, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Raw 64-bit hashes of many tokens in one vectorised pass.

    Args:
        blob: The text the tokens live in, with at least :data:`_BLOB_PAD`
            trailing pad bytes.
        starts: Flat int array of token start offsets into ``blob``.
        lengths: Token byte lengths, parallel to ``starts``.

    Returns:
        uint64 array of raw (pre-avalanche) hashes, parallel to
        ``starts`` — bit-identical to the :func:`hash_token` state.

    An ``as_strided`` view with 1-byte strides turns every blob offset
    into a little-endian uint64 load, so one gather + mask fetches each
    token's next 8 bytes for the fold; real Criteo tokens fit one word,
    so the common case is a single masked gather and one avalanche round
    over the whole block.
    """
    h = lengths.astype(np.uint64)
    maxlen = int(lengths.max(initial=0))
    if maxlen == 0:
        return h
    aligned = np.frombuffer(blob, dtype="<u8", count=len(blob) // 8)
    words = np.lib.stride_tricks.as_strided(
        aligned, shape=(len(blob) - 7,), strides=(1,)
    )
    starts = starts.astype(np.int64, copy=False)
    limit = words.shape[0] - 1
    for j in range(0, maxlen, 8):
        # j == 0 is always in bounds (a token's first word fits inside
        # the blob pad); later words can point past the view for tokens
        # *already exhausted* at this step — clamp them to any valid
        # offset, their zero mask discards the garbage load.
        index = starts if j == 0 else np.minimum(starts + j, limit)
        rem = np.clip(lengths - j, 0, 8)
        word = words[index] & _WORD_MASKS[rem]
        folded = _fold_round(h ^ word)
        h = np.where(lengths > j, folded, h)
    return h


class TsvTraceSource(TraceSource):
    """Stream mini-batches from a Criteo-style TSV file.

    Streaming-first: ``iter_chunks``/``__iter__`` read the file forward and
    never hold more than one chunk; random access (``batch(i)``) is
    supported for the pipeline's bounded lookahead by reading forward from
    the current cursor (and rewinding via :meth:`reset` when asked to seek
    backwards past the :data:`WINDOW_BATCHES`-batch retention window), so
    access patterns that move mostly forward — exactly what the 6-stage
    pipeline issues — stay O(file size) overall.

    Args:
        path: TSV file path.
        config: Model geometry the parsed batches must realise.
        num_dense_columns: Dense columns present **in the file** (13 for
            Criteo).  With ``with_dense`` this must equal
            ``config.num_dense_features`` unless ``allow_dense_pad`` opts
            into truncate/zero-fill mapping.
        with_dense: Also parse labels + dense features.
        max_batches: Cap the trace length.  The construction-time counting
            pass stops as soon as ``max_batches * batch_size`` valid
            samples are seen instead of scanning the whole file.
        allow_dense_pad: Documented opt-out for dense-width mismatches:
            extra file columns are truncated, missing ones zero-filled.
    """

    #: Retained parsed batches behind the cursor.  Must cover the deepest
    #: lookahead any builtin system issues (pipeline depth + future
    #: window) so a pipeline run never seeks backwards past the window.
    WINDOW_BATCHES = 16

    #: Lines tokenised per vectorised pass.  Hashing one
    #: batch at a time leaves the bulk hash dominated by fixed numpy call
    #: overhead; a block of several batches amortises it (the parsed
    #: batches queue up for the forward cursor, bounded by this constant).
    PARSE_BLOCK_LINES = 8192

    def __init__(
        self,
        path,
        config: ModelConfig,
        num_dense_columns: int = 13,
        with_dense: bool = False,
        max_batches: Optional[int] = None,
        allow_dense_pad: bool = False,
    ) -> None:
        if num_dense_columns < 0:
            raise TsvFormatError(
                f"num_dense_columns must be >= 0, got {num_dense_columns}"
            )
        if with_dense and not allow_dense_pad and (
            num_dense_columns != config.num_dense_features
        ):
            raise TsvFormatError(
                f"TSV file carries {num_dense_columns} dense columns but the "
                f"model expects {config.num_dense_features} dense features; "
                "silent truncation/zero-fill is almost always a mis-mapped "
                "geometry — pass allow_dense_pad=True to opt into it"
            )
        self.config = config
        self.path = str(path)
        self.num_dense_columns = num_dense_columns
        self.with_dense = with_dense
        self.allow_dense_pad = allow_dense_pad
        self._columns_needed = config.num_tables * config.lookups_per_table
        # Counting pass: sample count determines the trace length.  With
        # max_batches the scan stops as soon as enough valid samples are
        # seen (plus the width validation of the first line) instead of
        # reading — and counting — every remaining line of the file.
        needed = None if max_batches is None else max_batches * config.batch_size
        samples = 0
        with self._open() as fh:
            for line in fh:
                if not line.strip():
                    continue
                if samples == 0:
                    self._validate_line(line)
                samples += 1
                if needed is not None and samples >= needed:
                    break
        self._num_batches = samples // config.batch_size
        if max_batches is not None:
            self._num_batches = min(self._num_batches, max_batches)
        if self._num_batches < 1:
            raise TsvFormatError(
                f"TSV file holds {samples} samples — fewer than one "
                f"batch of {config.batch_size}"
            )
        self._window: Dict[int, MiniBatch] = {}
        self._next_to_parse = 0
        self._ready: List[MiniBatch] = []
        self._line_queue: List[bytes] = []
        self._tail = b""
        self._fh = None

    # ------------------------------------------------------------------
    # File plumbing (overridable: tests hook _open to count reads)
    # ------------------------------------------------------------------
    def _open(self):
        return open(self.path, "rb")

    def __len__(self) -> int:
        return self._num_batches

    def reset(self) -> None:
        """Rewind to the start of the file and drop the parse window."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._window.clear()
        self._ready.clear()
        self._line_queue.clear()
        self._tail = b""
        self._next_to_parse = 0

    def close(self) -> None:
        """Release the underlying file handle (reusable after: any later
        access reopens from the start)."""
        self.reset()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def _validate_line(self, line: bytes) -> None:
        fields = line.rstrip(b"\r\n").split(b"\t")
        needed = 1 + self.num_dense_columns + self._columns_needed
        if len(fields) < needed:
            raise TsvFormatError(
                f"TSV line has {len(fields)} fields; need >= {needed} "
                f"(1 label + {self.num_dense_columns} dense + "
                f"{self._columns_needed} categorical)"
            )

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    #: Bytes per bulk read of the parse cursor.
    READ_CHUNK_BYTES = 1 << 20

    def _read_lines(self, count: int) -> List[bytes]:
        """The next ``count`` valid (non-blank) lines of the file.

        Reads the file in megabyte chunks and splits lines in bulk — a
        per-line ``readline`` loop costs more than the vectorised hash it
        feeds.  Surplus lines of a chunk queue up for the next call.
        """
        if self._fh is None:
            self._fh = self._open()
        queue = self._line_queue
        while len(queue) < count:
            chunk = self._fh.read(self.READ_CHUNK_BYTES)
            if not chunk:
                if self._tail.strip():
                    queue.append(self._tail.rstrip(b"\r"))
                    self._tail = b""
                    continue
                raise EOFError(
                    f"TSV exhausted at batch {self._next_to_parse}"
                )
            data = self._tail + chunk
            parts = data.split(b"\n")
            self._tail = parts.pop()
            if b"\r" in data:
                queue.extend(
                    line[:-1] if line.endswith(b"\r") else line
                    for line in parts
                    if line.strip()
                )
            else:
                # Blank/whitespace-only lines are skipped (same rule as
                # the counting pass); real lines always hold tabs, so the
                # strip() filter stays off the fast path's critical ops.
                queue.extend(line for line in parts if line and line.strip())
        taken = queue[:count]
        del queue[:count]
        return taken

    def _parse_ids(self, lines: List[bytes], first_sample: int) -> np.ndarray:
        """Hash every categorical token of a block of lines in bulk."""
        cfg = self.config
        n = len(lines)
        blob = b"\n".join(lines) + b"\n" + b"\x00" * _BLOB_PAD
        buf = np.frombuffer(blob, dtype=np.uint8)
        # Newlines act as each line's final separator, so field k of line l
        # always ends at separator index base[l] + k.  Tab (9) and newline
        # (10) are adjacent codes, so one wraparound compare finds both.
        seps = np.flatnonzero((buf - np.uint8(9)) <= np.uint8(1))
        is_newline = buf[seps] == 10
        sep_count = np.flatnonzero(is_newline) + 1
        base = np.concatenate(([0], sep_count[:-1]))
        num_fields = sep_count - base
        min_fields = 1 + self.num_dense_columns + self._columns_needed
        if num_fields.min(initial=min_fields) < min_fields:
            bad = int(np.argmax(num_fields < min_fields))
            sample = first_sample + bad
            raise TsvFormatError(
                f"TSV sample {sample} has "
                f"{int(num_fields[bad]) - 1 - self.num_dense_columns} "
                f"categorical fields; need >= {self._columns_needed}"
            )
        # Field index of each needed categorical column, per line.
        ks = np.arange(self._columns_needed) + 1 + self.num_dense_columns
        idx = base[None, :] + ks[:, None]  # (columns_needed, n)
        starts = seps[idx - 1] + 1
        lengths = seps[idx] - starts
        raw = _bulk_token_hashes(blob, starts.ravel(), lengths.ravel())
        # Table-salted finish over the whole block at once:
        # mix64(x, table, SALT) is fold(fold(x ^ table) ^ SALT), and the
        # per-column table index broadcasts, so one pass covers all tables.
        tables = np.repeat(
            np.arange(cfg.num_tables, dtype=np.uint64),
            cfg.lookups_per_table,
        )
        mixed = _fold_round(
            _fold_round(raw.reshape(self._columns_needed, n) ^ tables[:, None])
            ^ np.uint64(TOKEN_HASH_SALT)
        ) % np.uint64(cfg.rows_per_table)
        # (columns, n) -> (tables, n, lookups)
        return np.ascontiguousarray(
            mixed.astype(np.int64)
            .reshape(cfg.num_tables, cfg.lookups_per_table, n)
            .transpose(0, 2, 1)
        )

    def _parse_dense(self, lines: List[bytes]):
        cfg = self.config
        dense = np.zeros(
            (len(lines), cfg.num_dense_features), dtype=np.float32
        )
        labels = np.zeros(len(lines), dtype=np.float32)
        for sample, line in enumerate(lines):
            fields = line.split(b"\t")
            raw = fields[1: 1 + self.num_dense_columns]
            for j in range(min(cfg.num_dense_features, len(raw))):
                dense[sample, j] = float(raw[j]) if raw[j] else 0.0
            labels[sample] = float(fields[0])
        return dense, labels

    def _fill_ready(self) -> None:
        """Parse the next block of up to :data:`PARSE_BLOCK_LINES` lines
        into the forward queue."""
        cfg = self.config
        first_batch = self._next_to_parse
        remaining = self._num_batches - first_batch
        block_batches = max(
            1, min(remaining, self.PARSE_BLOCK_LINES // cfg.batch_size)
        )
        lines = self._read_lines(block_batches * cfg.batch_size)
        ids = self._parse_ids(lines, first_batch * cfg.batch_size)
        dense = labels = None
        if self.with_dense:
            dense, labels = self._parse_dense(lines)
        for offset in range(block_batches):
            lo = offset * cfg.batch_size
            hi = lo + cfg.batch_size
            self._ready.append(MiniBatch(
                index=first_batch + offset,
                sparse_ids=ids[:, lo:hi, :],
                dense=None if dense is None else dense[lo:hi],
                labels=None if labels is None else labels[lo:hi],
            ))

    def _parse_next_batch(self) -> MiniBatch:
        if not self._ready:
            self._fill_ready()
        batch = self._ready.pop(0)
        self._next_to_parse = batch.index + 1
        return batch

    # ------------------------------------------------------------------
    # TraceSource surface
    # ------------------------------------------------------------------
    def batch(self, index: int) -> MiniBatch:
        if not 0 <= index < self._num_batches:
            raise IndexError(
                f"batch index {index} out of range [0, {self._num_batches})"
            )
        if index in self._window:
            return self._window[index]
        if index < self._next_to_parse:
            # Seeking backwards past the window: rewind and re-read.
            self.reset()
        while self._next_to_parse <= index:
            batch = self._parse_next_batch()
            self._window[batch.index] = batch
            # Bound the window to the pipeline's lookahead neighbourhood.
            floor = batch.index - self.WINDOW_BATCHES
            for stale in [k for k in self._window if k < floor]:
                del self._window[stale]
        return self._window[index]

    def iter_chunks(self, chunk_batches: int = 256) -> Iterator[List[MiniBatch]]:
        if chunk_batches < 1:
            raise TsvFormatError(f"chunk_batches must be >= 1, got {chunk_batches}")
        self.reset()
        chunk: List[MiniBatch] = []
        for index in range(self._num_batches):
            chunk.append(self.batch(index))
            if len(chunk) == chunk_batches:
                yield chunk
                chunk = []
        if chunk:
            yield chunk
