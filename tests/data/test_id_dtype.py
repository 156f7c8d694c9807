"""The sparse-ID dtype contract every trace source keeps.

Every source stores ``MiniBatch.sparse_ids`` as
:data:`repro.data.trace.SPARSE_ID_DTYPE` (int32), and
``MiniBatch.unique_table_ids`` widens each sorted-unique set to ``intp``,
the dtype that indexes the Hit-Map.  Narrowing the stored IDs must not
change a single value: each source's IDs, widened to int64, hash to the
digest the same source produced when it stored int64 IDs.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.shm import (
    _SHM_ATTACHED,
    _SHM_MANIFEST,
    _PublishedTraces,
    attach_shared_trace,
    install_manifest,
    publish_trace,
)
from repro.data.io import CompiledTraceSource, compile_trace
from repro.data.scenarios import (
    BurstSpec,
    ChurnSpec,
    CorrelationSpec,
    DriftSpec,
    ScenarioSpec,
    build_scenario,
)
from repro.data.trace import (
    SPARSE_ID_DTYPE,
    MaterialisedDataset,
    make_dataset,
)
from repro.data.tsv import TsvTraceSource
from repro.model.config import tiny_config

CRITEO_SAMPLE = (
    Path(__file__).resolve().parents[2]
    / "src" / "repro" / "data" / "fixtures" / "criteo_sample.tsv"
)

#: sha256 of each source's IDs as little-endian int64, batch after batch,
#: recorded when every source still stored int64 IDs.
INT64_DIGESTS = {
    "synthetic": "c932fe576038b8071bed6b5517b0c8b640dcf6d8903e2e7b30344ea0d979fb2d",
    "scenario": "a2bbf4a20cdc8bb75e9c8e7299dfa89e9a2b889f8bac75bd8250ca8fb330ef2a",
    "tsv": "1341f38b37c31585d9646008c938707d2eed8d95d7e8e88ef59e1105272c4993",
}


def config():
    return tiny_config(rows_per_table=5_000, batch_size=16,
                       lookups_per_table=3, num_tables=4)


def synthetic():
    return make_dataset(config(), "high", seed=3, num_batches=6)


def int64_digest(source):
    digest = hashlib.sha256()
    for i in range(len(source)):
        ids = source.batch(i).sparse_ids
        digest.update(np.ascontiguousarray(ids, dtype="<i8").tobytes())
    return digest.hexdigest()


@pytest.fixture
def shared_trace(retrack_segments):
    """A synthetic trace published to shared memory and attached back,
    as a sweep worker sees it; yields ``(attached trace, segment)``."""
    key = (config(), "dtype-contract")
    with _PublishedTraces() as published:
        publish_trace(key, MaterialisedDataset(synthetic()),
                      published.manifest, published.segments)
        install_manifest(published.manifest)
        try:
            (segment,) = published.segments
            yield attach_shared_trace(key), segment
        finally:
            name, _ = _SHM_MANIFEST.pop(key)
            _SHM_ATTACHED.pop(name).close()
            retrack_segments([segment])


@pytest.fixture(params=["synthetic", "scenario", "tsv", "compiled",
                        "shared_memory"])
def source_and_digest(request, tmp_path):
    """Each trace source, with the int64 digest its IDs must reproduce."""
    kind = request.param
    if kind == "synthetic":
        return synthetic(), INT64_DIGESTS["synthetic"]
    if kind == "scenario":
        spec = ScenarioSpec(
            locality="high",
            drift=DriftSpec(rate=37.0),
            churn=ChurnSpec(hot_fraction=0.05, period=3),
            burst=BurstSpec(period=4, duration=2, share=0.3, rows=40),
            correlation=CorrelationSpec(rho=0.5),
        )
        scenario = build_scenario(config(), spec, seed=3, num_batches=6)
        return scenario, INT64_DIGESTS["scenario"]
    if kind == "tsv":
        tsv = TsvTraceSource(CRITEO_SAMPLE, config(), max_batches=6)
        return tsv, INT64_DIGESTS["tsv"]
    if kind == "compiled":
        path = compile_trace(synthetic(), tmp_path / "trace.rtrc")
        return CompiledTraceSource(path), INT64_DIGESTS["synthetic"]
    attached, _ = request.getfixturevalue("shared_trace")
    return attached, INT64_DIGESTS["synthetic"]


def test_ids_are_int32_and_unique_sets_intp(source_and_digest):
    source, _ = source_and_digest
    assert SPARSE_ID_DTYPE is np.int32
    for i in range(len(source)):
        batch = source.batch(i)
        assert batch.sparse_ids.dtype == np.int32
        for table in range(batch.num_tables):
            unique = batch.unique_table_ids(table)
            assert unique.dtype == np.intp
            assert np.array_equal(unique, np.unique(batch.table_ids(table)))


def test_ids_equal_the_int64_draw(source_and_digest):
    source, expected = source_and_digest
    assert int64_digest(source) == expected


def test_shared_segment_holds_four_bytes_per_id(shared_trace):
    attached, segment = shared_trace
    num_ids = sum(attached.batch(i).sparse_ids.size
                  for i in range(len(attached)))
    assert segment.size == num_ids * 4
