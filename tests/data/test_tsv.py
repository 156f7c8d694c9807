"""Tests for the vectorised TSV ingestion path (repro.data.tsv)."""

import io

import numpy as np
import pytest

from repro.data.tsv import TsvTraceSource, hash_token
from repro.model.config import tiny_config
from repro.testing.oracles import PerTokenTsvTraceSource


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=100, batch_size=4, lookups_per_table=2,
                       num_tables=2)


def _write_tsv(path, num_lines, num_cats, rng, empty_rate=0.15):
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(num_lines):
            cats = [
                "" if rng.random() < empty_rate
                else f"tok{rng.integers(0, 40)}"
                for _ in range(num_cats)
            ]
            fields = ["1"] + [str(d) for d in range(13)] + cats
            fh.write("\t".join(fields) + "\n")


class _CountingFile(io.BufferedReader):
    """Binary file wrapper counting line reads and bulk bytes read."""

    def __init__(self, raw, counter):
        super().__init__(raw)
        self._counter = counter

    def readline(self, *args):
        line = super().readline(*args)
        if line:
            self._counter["lines"] += 1
        return line

    def read(self, *args):
        data = super().read(*args)
        self._counter["bytes"] += len(data)
        return data

    def __next__(self):
        line = self.readline()
        if not line:
            raise StopIteration
        return line


class CountingTsvTraceSource(TsvTraceSource):
    """TsvTraceSource whose file opens and line reads are counted."""

    def __init__(self, *args, **kwargs):
        self.counter = {"lines": 0, "opens": 0, "bytes": 0}
        super().__init__(*args, **kwargs)

    def _open(self):
        self.counter["opens"] += 1
        return _CountingFile(io.FileIO(self.path, "r"), self.counter)


class TestEngineEquivalence:
    def test_numpy_matches_python_engine(self, cfg, tmp_path, rng):
        path = tmp_path / "t.tsv"
        _write_tsv(path, 24, 4, rng)
        fast = TsvTraceSource(path, cfg)
        slow = PerTokenTsvTraceSource(path, cfg)
        assert len(fast) == len(slow) == 6
        for i in range(6):
            assert np.array_equal(fast.batch(i).sparse_ids,
                                  slow.batch(i).sparse_ids)

    def test_empty_tokens_and_crlf(self, cfg, tmp_path):
        path = tmp_path / "t.tsv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for i in range(8):
                cats = ["", "x", "", f"y{i}"]
                fields = ["0"] + [str(d) for d in range(13)] + cats
                fh.write("\t".join(fields) + ("\r\n" if i % 2 else "\n"))
        fast = TsvTraceSource(path, cfg)
        slow = PerTokenTsvTraceSource(path, cfg)
        for i in range(2):
            assert np.array_equal(fast.batch(i).sparse_ids,
                                  slow.batch(i).sparse_ids)

    def test_long_tokens_mixed_with_short(self, cfg, tmp_path):
        """Multi-word tokens must not push exhausted tokens' word gathers
        out of bounds (regression: IndexError when a >8-byte token set
        maxlen while short tokens sat near the blob end)."""
        path = tmp_path / "long.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(8):
                # A multi-word token anywhere in the block makes maxlen > 8;
                # the 1-byte tokens at the very end of the last line are the
                # ones whose word-2 gather (start + 8) overruns the blob.
                cats = ["a-token-much-longer-than-eight-bytes", "s",
                        "x", "y"]
                fields = ["1"] + [str(d) for d in range(13)] + cats
                fh.write("\t".join(fields) + "\n")
        fast = TsvTraceSource(path, cfg)
        slow = PerTokenTsvTraceSource(path, cfg)
        for i in range(2):
            assert np.array_equal(fast.batch(i).sparse_ids,
                                  slow.batch(i).sparse_ids)

    def test_hash_is_process_stable(self):
        # Pinned values: the token hash is part of the on-disk determinism
        # contract — compiled traces built elsewhere must replay
        # identically, so these may only change with a conscious format
        # version bump.
        assert hash_token(b"", 0, 1 << 62) == 1529511751521642755
        assert hash_token(b"a", 0, 1 << 62) == 3582205214427116630
        assert hash_token(b"a", 1, 1 << 62) == 4426307749326337945
        assert hash_token(b"deadbeef", 3, 1 << 62) == 2435877408439042664
        # multi-word tokens exercise the chunked fold
        assert (hash_token(b"longer-than-eight-bytes-token", 2, 1 << 62)
                == 1080550181156758254)
        # zero-tailed tokens of different lengths stay distinct (the
        # length seeds the fold state)
        assert (hash_token(b"a", 0, 1 << 62)
                != hash_token(b"a\x00", 0, 1 << 62))

    def test_same_token_same_row_different_tables_differ(self, cfg, tmp_path):
        path = tmp_path / "t.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            for _ in range(4):
                fields = ["0"] + [str(d) for d in range(13)] + ["x"] * 4
                fh.write("\t".join(fields) + "\n")
        batch = TsvTraceSource(path, cfg).batch(0)
        assert len(set(batch.table_ids(0).tolist())) == 1
        assert batch.table_ids(0)[0] != batch.table_ids(1)[0]


class TestMaxBatchesCounting:
    def test_counting_pass_stops_early(self, cfg, tmp_path, rng):
        path = tmp_path / "big.tsv"
        _write_tsv(path, 400, 4, rng)
        capped = CountingTsvTraceSource(path, cfg, max_batches=2)
        # The construction scan must stop at max_batches * batch_size
        # samples, not read all 400 lines.
        assert len(capped) == 2
        assert capped.counter["lines"] == 2 * cfg.batch_size
        full = CountingTsvTraceSource(path, cfg)
        assert full.counter["lines"] == 400
        assert len(full) == 100

    def test_capped_content_matches_uncapped_prefix(self, cfg, tmp_path, rng):
        path = tmp_path / "t.tsv"
        _write_tsv(path, 40, 4, rng)
        capped = TsvTraceSource(path, cfg, max_batches=3)
        full = TsvTraceSource(path, cfg)
        assert len(capped) == 3
        for i in range(3):
            assert np.array_equal(capped.batch(i).sparse_ids,
                                  full.batch(i).sparse_ids)

    def test_blank_lines_do_not_count_as_samples(self, cfg, tmp_path, rng):
        path = tmp_path / "gaps.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(10):
                cats = [f"t{i}"] * 4
                fh.write("\t".join(["1"] + [str(d) for d in range(13)]
                                   + cats) + "\n")
                fh.write("\n")
        source = TsvTraceSource(path, cfg, max_batches=2)
        assert len(source) == 2


class TestDenseWidthValidation:
    def test_mismatch_fails_loudly_with_both_numbers(self, cfg, tmp_path, rng):
        path = tmp_path / "t.tsv"
        _write_tsv(path, 8, 4, rng)
        with pytest.raises(ValueError) as excinfo:
            TsvTraceSource(path, cfg, with_dense=True)  # 13 cols vs 4 feats
        assert "13" in str(excinfo.value)
        assert str(cfg.num_dense_features) in str(excinfo.value)
        assert "allow_dense_pad" in str(excinfo.value)

    def test_opt_out_restores_pad_truncate(self, cfg, tmp_path, rng):
        path = tmp_path / "t.tsv"
        _write_tsv(path, 8, 4, rng)
        source = TsvTraceSource(path, cfg, with_dense=True,
                                allow_dense_pad=True)
        batch = source.batch(0)
        assert batch.dense.shape == (4, cfg.num_dense_features)
        assert np.array_equal(batch.dense[0], [0.0, 1.0, 2.0, 3.0])

    def test_matching_width_needs_no_opt_out(self, tmp_path, rng):
        cfg13 = tiny_config(rows_per_table=100, batch_size=4,
                            lookups_per_table=2, num_tables=2,
                            num_dense_features=13)
        path = tmp_path / "t.tsv"
        _write_tsv(path, 8, 4, rng)
        batch = TsvTraceSource(path, cfg13, with_dense=True).batch(0)
        assert batch.dense.shape == (4, 13)
        assert batch.labels.shape == (4,)

    def test_id_only_parse_ignores_width(self, cfg, tmp_path, rng):
        # Metadata traces never read the dense columns; no opt-out needed.
        path = tmp_path / "t.tsv"
        _write_tsv(path, 8, 4, rng)
        assert TsvTraceSource(path, cfg).batch(0).dense is None


class TestSeekWindow:
    def test_forward_iteration_reads_file_once(self, cfg, tmp_path, rng):
        path = tmp_path / "t.tsv"
        _write_tsv(path, 64, 4, rng)
        file_bytes = path.stat().st_size
        source = CountingTsvTraceSource(path, cfg)
        construction_lines = source.counter["lines"]
        assert construction_lines == 64  # counting pass reads every line
        for i in range(len(source)):
            source.batch(i)
        # Forward pass: the file's bytes cross the parse cursor once.
        assert source.counter["bytes"] <= file_bytes
        assert source.counter["opens"] == 2  # counting pass + parse pass

    def test_lookahead_within_window_does_not_rewind(self, cfg, tmp_path, rng):
        path = tmp_path / "t.tsv"
        _write_tsv(path, 80, 4, rng)
        source = CountingTsvTraceSource(path, cfg)
        opens_before = source.counter["opens"]
        # The pipeline's access shape: plan batch i, peek future batches,
        # retire batch i - depth.  All within WINDOW_BATCHES.
        for i in range(4, 16):
            source.batch(i)
            source.batch(i - 4)
        assert source.counter["opens"] == opens_before + 1  # one parse pass

    def test_backward_seek_past_window_rewinds_exactly_once(
        self, cfg, tmp_path, rng
    ):
        path = tmp_path / "t.tsv"
        _write_tsv(path, 100, 4, rng)  # 25 batches > WINDOW_BATCHES
        source = CountingTsvTraceSource(path, cfg)
        far = source.batch(24).sparse_ids.copy()
        opens = source.counter["opens"]
        first = source.batch(0)  # 24 - 16 window: must rewind
        assert source.counter["opens"] == opens + 1
        # ... and exactly once: the rewound cursor serves batch 1 forward.
        source.batch(1)
        assert source.counter["opens"] == opens + 1
        assert np.array_equal(source.batch(24).sparse_ids, far)
        assert first.index == 0

    def test_window_covers_every_builtin_system_lookahead(self):
        """WINDOW_BATCHES must cover pipeline depth + future window.

        A pipelined run touches batches [i - depth, i + future_window]
        around its cursor; if the retention window were smaller, every
        pipeline cycle would trigger a full-file rewind.
        """
        from repro.api.registry import system_entries
        from repro.api.specs import PipelineSpec
        from repro.core.pipeline import PRICED_STAGE_OFFSETS

        pipeline_depth = max(PRICED_STAGE_OFFSETS.values()) + 1
        default_future = PipelineSpec().future_window
        for entry in system_entries():
            future = default_future
            # A builtin carrying a wider default future window would show
            # up here; today all share PipelineSpec's default.
            assert future + pipeline_depth <= TsvTraceSource.WINDOW_BATCHES, (
                f"{entry.name}: lookahead {future + pipeline_depth} exceeds "
                f"the TSV retention window {TsvTraceSource.WINDOW_BATCHES}"
            )

    def test_pipeline_run_over_tsv_never_rewinds(self, tmp_path, rng):
        """End-to-end guard: a real pipelined run stays forward-only."""
        from repro.api import CacheSpec, SystemSpec, build_system
        from repro.hardware.spec import DEFAULT_HARDWARE

        cfg = tiny_config(rows_per_table=100, batch_size=4,
                          lookups_per_table=2, num_tables=2)
        path = tmp_path / "t.tsv"
        _write_tsv(path, 96, 4, rng)
        source = CountingTsvTraceSource(path, cfg)
        system = build_system(
            SystemSpec(system="scratchpipe", cache=CacheSpec(fraction=0.5)),
            cfg, DEFAULT_HARDWARE,
        )
        stats = system.simulate_cache(source)
        assert len(stats) == 24
        # counting pass + at most one forward parse pass (iter_chunks or
        # batch() may each reopen once, but nothing rewinds mid-run).
        assert source.counter["opens"] <= 3
        assert source.counter["bytes"] <= 2 * path.stat().st_size
