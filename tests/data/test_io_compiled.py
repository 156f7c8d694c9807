"""Tests for the compiled binary trace format and TraceFileSpec."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.io import (
    COMPILED_MAGIC,
    CompiledTraceSource,
    InvalidTraceFileSpecError,
    TraceFileSpec,
    TraceVerificationError,
    compile_trace,
    sha256_file,
    sniff_trace_format,
)
from repro.data.trace import MaterialisedDataset, TraceSource, make_dataset
from repro.data.tsv import TsvTraceSource
from repro.model.config import tiny_config


@pytest.fixture
def cfg():
    return tiny_config(rows_per_table=300, batch_size=4, lookups_per_table=2,
                       num_tables=2)


def _write_tsv(path, num_lines, num_cats, rng):
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(num_lines):
            cats = [f"tok{rng.integers(0, 40)}" for _ in range(num_cats)]
            fields = ["1"] + [str(d) for d in range(13)] + cats
            fh.write("\t".join(fields) + "\n")


def assert_batches_equal(a, b):
    assert np.array_equal(a.sparse_ids, b.sparse_ids)
    assert (a.dense is None) == (b.dense is None)
    if a.dense is not None:
        assert np.array_equal(a.dense, b.dense)
        assert np.array_equal(a.labels, b.labels)


class TestRoundTrip:
    def test_bit_identical_to_materialised(self, cfg, tmp_path):
        source = make_dataset(cfg, "medium", seed=3, num_batches=9)
        reference = MaterialisedDataset(source)
        compiled = CompiledTraceSource(
            compile_trace(source, tmp_path / "t.rtrc"), config=cfg
        )
        assert len(compiled) == len(reference) == 9
        for i in range(9):
            assert_batches_equal(compiled.batch(i), reference.batch(i))

    def test_round_trip_after_reset_and_reiteration(self, cfg, tmp_path):
        source = make_dataset(cfg, "medium", seed=5, num_batches=7)
        reference = MaterialisedDataset(source)
        compiled = CompiledTraceSource(
            compile_trace(source, tmp_path / "t.rtrc"), config=cfg
        )
        first = [b.sparse_ids.copy() for chunk in
                 compiled.iter_chunks(chunk_batches=3) for b in chunk]
        compiled.reset()
        second = [b.sparse_ids.copy() for chunk in
                  compiled.iter_chunks(chunk_batches=2) for b in chunk]
        for i in range(7):
            assert np.array_equal(first[i], second[i])
            assert np.array_equal(first[i], reference.batch(i).sparse_ids)

    def test_dense_round_trip(self, cfg, tmp_path):
        source = make_dataset(cfg, "medium", seed=2, num_batches=4,
                              with_dense=True)
        reference = MaterialisedDataset(source)
        compiled = CompiledTraceSource(
            compile_trace(source, tmp_path / "t.rtrc"), config=cfg
        )
        for i in range(4):
            assert_batches_equal(compiled.batch(i), reference.batch(i))

    def test_tsv_round_trip(self, cfg, tmp_path, rng):
        path = tmp_path / "t.tsv"
        _write_tsv(path, 30, 4, rng)
        source = TsvTraceSource(path, cfg)
        compiled_path = compile_trace(source, tmp_path / "t.rtrc")
        reference = MaterialisedDataset(TsvTraceSource(path, cfg))
        compiled = CompiledTraceSource(compiled_path, config=cfg)
        assert len(compiled) == len(reference)
        for i in range(len(compiled)):
            assert_batches_equal(compiled.batch(i), reference.batch(i))

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        locality=st.sampled_from(["random", "low", "medium", "high"]),
        num_batches=st.integers(min_value=1, max_value=12),
    )
    def test_round_trip_property(self, tmp_path_factory, seed, locality,
                                 num_batches):
        cfg = tiny_config(rows_per_table=200, batch_size=4,
                          lookups_per_table=3, num_tables=2)
        source = make_dataset(cfg, locality, seed=seed,
                              num_batches=num_batches)
        reference = MaterialisedDataset(source)
        out = tmp_path_factory.mktemp("ctrace") / "t.rtrc"
        compiled = CompiledTraceSource(compile_trace(source, out), config=cfg)
        for i in range(num_batches):
            assert_batches_equal(compiled.batch(i), reference.batch(i))


class TestRandomAccess:
    def test_any_access_order(self, cfg, tmp_path):
        source = make_dataset(cfg, "medium", seed=1, num_batches=20)
        reference = MaterialisedDataset(source)
        compiled = CompiledTraceSource(
            compile_trace(source, tmp_path / "t.rtrc"), config=cfg
        )
        for i in (19, 0, 10, 3, 18, 1, 19, 0):
            assert np.array_equal(
                compiled.batch(i).sparse_ids, reference.batch(i).sparse_ids
            )

    def test_zero_copy_views(self, cfg, tmp_path):
        source = make_dataset(cfg, "medium", seed=1, num_batches=5)
        compiled = CompiledTraceSource(
            compile_trace(source, tmp_path / "t.rtrc"), config=cfg
        )
        batch = compiled.batch(3)
        # The batch is a view of the memmap (no per-access copy) and the
        # read-only mapping enforces the MiniBatch immutability contract.
        assert np.shares_memory(batch.sparse_ids, compiled._sparse)
        with pytest.raises((ValueError, OSError)):
            batch.sparse_ids[0, 0, 0] = 1

    def test_constant_state_no_cursor(self, cfg, tmp_path):
        """Backward access needs no rewind: batch() is a pure function."""
        source = make_dataset(cfg, "medium", seed=1, num_batches=8)
        compiled = CompiledTraceSource(
            compile_trace(source, tmp_path / "t.rtrc"), config=cfg
        )
        late = compiled.batch(7).sparse_ids.copy()
        early = compiled.batch(0).sparse_ids.copy()
        assert np.array_equal(compiled.batch(7).sparse_ids, late)
        assert np.array_equal(compiled.batch(0).sparse_ids, early)

    def test_out_of_range_batch(self, cfg, tmp_path):
        source = make_dataset(cfg, "low", seed=1, num_batches=2)
        compiled = CompiledTraceSource(
            compile_trace(source, tmp_path / "t.rtrc"), config=cfg
        )
        for index in (2, -1):
            with pytest.raises(IndexError):
                compiled.batch(index)

    def test_max_batches_caps_length(self, cfg, tmp_path):
        source = make_dataset(cfg, "medium", seed=1, num_batches=9)
        path = compile_trace(source, tmp_path / "t.rtrc")
        capped = CompiledTraceSource(path, config=cfg, max_batches=4)
        assert len(capped) == 4
        with pytest.raises(IndexError):
            capped.batch(4)


class TestFormatValidation:
    def test_bad_magic_rejected(self, cfg, tmp_path):
        path = tmp_path / "junk.rtrc"
        path.write_bytes(b"not a trace at all" * 4)
        with pytest.raises(ValueError, match="magic"):
            CompiledTraceSource(path)

    def test_geometry_mismatch_rejected(self, cfg, tmp_path):
        source = make_dataset(cfg, "medium", seed=1, num_batches=3)
        path = compile_trace(source, tmp_path / "t.rtrc")
        other = tiny_config(rows_per_table=300, batch_size=8,
                            lookups_per_table=2, num_tables=2)
        with pytest.raises(ValueError, match="batch_size"):
            CompiledTraceSource(path, config=other)

    def test_header_reconstructs_config(self, cfg, tmp_path):
        source = make_dataset(cfg, "medium", seed=1, num_batches=3)
        compiled = CompiledTraceSource(compile_trace(source, tmp_path / "t"))
        assert compiled.config.num_tables == cfg.num_tables
        assert compiled.config.rows_per_table == cfg.rows_per_table
        assert compiled.config.batch_size == cfg.batch_size
        assert compiled.config.lookups_per_table == cfg.lookups_per_table

    def test_empty_trace_rejected(self, cfg, tmp_path):
        class EmptySource(TraceSource):
            config = cfg

            def __len__(self):
                return 0

        out = tmp_path / "t.rtrc"
        with pytest.raises(ValueError, match="num_batches"):
            compile_trace(EmptySource(), out)
        assert not out.exists()

    def test_mixed_dense_rejected(self, cfg, tmp_path):
        with_dense = make_dataset(cfg, "low", seed=1, num_batches=1,
                                  with_dense=True)
        without = make_dataset(cfg, "low", seed=1, num_batches=1)
        mixed = MaterialisedDataset.from_batches(
            cfg, [with_dense.batch(0), without.batch(0)]
        )
        with pytest.raises(ValueError, match="dense"):
            compile_trace(mixed, tmp_path / "t.rtrc")

    def test_compile_rejects_out_of_range_ids(self, cfg, tmp_path):
        source = make_dataset(cfg, "medium", seed=1, num_batches=3)
        corrupt = MaterialisedDataset(source)
        corrupt.batch(1).sparse_ids[0, 0, 0] = cfg.rows_per_table + 7
        with pytest.raises(ValueError, match="outside"):
            compile_trace(corrupt, tmp_path / "t.rtrc")

    def test_partial_write_not_published(self, cfg, tmp_path):
        source = make_dataset(cfg, "medium", seed=1, num_batches=3)
        corrupt = MaterialisedDataset(source)
        corrupt.batch(2).sparse_ids[0, 0, 0] = -5
        out = tmp_path / "t.rtrc"
        with pytest.raises(ValueError):
            compile_trace(corrupt, out)
        assert not out.exists()
        assert not list(tmp_path.glob("*.part"))

    def test_sniff_formats(self, cfg, tmp_path, rng):
        source = make_dataset(cfg, "medium", seed=1, num_batches=3)
        compiled = compile_trace(source, tmp_path / "t.rtrc")
        assert sniff_trace_format(compiled) == "compiled"
        tsv = tmp_path / "t.tsv"
        _write_tsv(tsv, 4, 4, rng)
        assert sniff_trace_format(tsv) == "tsv"


class TestTraceFileSpec:
    def test_hashable_picklable_frozen(self, tmp_path):
        spec = TraceFileSpec(path=str(tmp_path / "x.tsv"), format="tsv",
                             batch_size=8, num_tables=2)
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))
        assert pickle.loads(pickle.dumps(spec)) == spec
        with pytest.raises(AttributeError):
            spec.path = "other"

    def test_validation(self):
        with pytest.raises(InvalidTraceFileSpecError, match="format"):
            TraceFileSpec(path="x", format="parquet")
        with pytest.raises(InvalidTraceFileSpecError, match="sha256"):
            TraceFileSpec(path="x", sha256="zz")
        with pytest.raises(InvalidTraceFileSpecError, match="batch_size"):
            TraceFileSpec(path="x", batch_size=0)
        # Uppercase digests normalise to the canonical lowercase form.
        digest = "AB" * 32
        assert TraceFileSpec(path="x", sha256=digest).sha256 == "ab" * 32

    def test_sha256_pin_verifies(self, cfg, tmp_path):
        source = make_dataset(cfg, "medium", seed=1, num_batches=3)
        path = compile_trace(source, tmp_path / "t.rtrc")
        good = TraceFileSpec(path=str(path), sha256=sha256_file(path))
        assert len(good.open(cfg)) == 3
        bad = TraceFileSpec(path=str(path), sha256="0" * 64)
        with pytest.raises(TraceVerificationError, match="mismatch"):
            bad.open(cfg)

    def test_configure_compiled_header_is_authoritative(self, cfg, tmp_path):
        source = make_dataset(cfg, "medium", seed=1, num_batches=3)
        path = compile_trace(source, tmp_path / "t.rtrc")
        spec = TraceFileSpec(path=str(path))
        configured = spec.configure(tiny_config())
        assert configured.batch_size == cfg.batch_size
        assert configured.rows_per_table == cfg.rows_per_table
        conflicting = TraceFileSpec(path=str(path), batch_size=999)
        with pytest.raises(InvalidTraceFileSpecError, match="conflicts"):
            conflicting.configure(tiny_config())

    def test_configure_tsv_applies_overrides(self, tmp_path, rng):
        tsv = tmp_path / "t.tsv"
        _write_tsv(tsv, 8, 4, rng)
        spec = TraceFileSpec(path=str(tsv), format="tsv", batch_size=2,
                             num_tables=2, lookups_per_table=2,
                             rows_per_table=77)
        configured = spec.configure(tiny_config())
        assert configured.batch_size == 2
        assert configured.rows_per_table == 77
        source = spec.open(configured)
        assert len(source) == 4
        assert source.batch(0).sparse_ids.shape == (2, 2, 2)

    def test_max_batches_caps_every_format(self, cfg, tmp_path, rng):
        source = make_dataset(cfg, "medium", seed=1, num_batches=6)
        compiled = compile_trace(source, tmp_path / "t.rtrc")
        tsv = tmp_path / "t.tsv"
        _write_tsv(tsv, 24, 4, rng)
        for path in (compiled, tsv):
            spec = TraceFileSpec(path=str(path), max_batches=2)
            assert len(spec.open(cfg)) == 2, path

    def test_with_dense_rejected_for_id_only_files(self, cfg, tmp_path):
        source = make_dataset(cfg, "medium", seed=1, num_batches=3)
        compiled = compile_trace(source, tmp_path / "t.rtrc")
        spec = TraceFileSpec(path=str(compiled), with_dense=True)
        with pytest.raises(InvalidTraceFileSpecError, match="dense"):
            spec.open(cfg)

    def test_compiled_magic_stable(self):
        # The on-disk format is a contract: changing the magic (or layout)
        # must bump the version byte consciously.
        assert COMPILED_MAGIC == b"REPRO-CTRACE\x01"


class TestPipelineCompatibility:
    def test_compiled_trace_drives_pipeline(self, cfg, tmp_path):
        """A compiled trace is a drop-in dataset for the ScratchPipe
        pipeline: it plans exactly the batches of its source."""
        from repro.core.pipeline import ScratchPipePipeline
        from repro.core.scratchpad import make_scratchpads

        source = make_dataset(cfg, "medium", seed=9, num_batches=8)
        compiled = CompiledTraceSource(
            compile_trace(source, tmp_path / "t.rtrc"), config=cfg
        )

        def run(dataset):
            return ScratchPipePipeline(
                config=cfg,
                scratchpads=make_scratchpads(cfg, 64),
                dataset_batches=dataset,
            ).run().cache_stats

        stats = run(compiled)
        assert len(stats) == 8
        assert stats == run(MaterialisedDataset(source))
