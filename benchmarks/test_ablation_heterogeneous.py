"""Ablation — heterogeneous per-table locality (the production case).

The paper's benchmark traces give every table the same locality class, but
its own Figure 6(d) shows production models mix extremely hot and extremely
cold tables.  This ablation runs ScratchPipe over such a mixed trace and
shows the per-table miss traffic (hence the Collect/Exchange/Insert load)
concentrates on the cold tables — the cache "spends" its capacity where the
workload needs it, with no per-table tuning.
"""

import numpy as np

from conftest import run_once
from repro.analysis.report import banner, format_table
from repro.api import build_system, uniform_system_spec
from repro.data.distributions import UniformDistribution, ZipfDistribution
from repro.data.trace import MaterialisedDataset, SyntheticDataset
from repro.model.config import ModelConfig

#: Per-table exponents: two hot (Criteo-like), one medium, one cold.
TABLE_EXPONENTS = (0.95, 0.90, 0.65, None)  # None = uniform
WARMUP = 8


def test_heterogeneous_tables(benchmark, setup):
    config = ModelConfig(
        num_tables=len(TABLE_EXPONENTS),
        rows_per_table=setup.config.rows_per_table,
        embedding_dim=setup.config.embedding_dim,
        lookups_per_table=setup.config.lookups_per_table,
        batch_size=setup.config.batch_size,
    )
    distributions = tuple(
        UniformDistribution(config.rows_per_table) if s is None
        else ZipfDistribution(config.rows_per_table, s)
        for s in TABLE_EXPONENTS
    )

    def experiment():
        dataset = MaterialisedDataset(SyntheticDataset(
            config=config,
            distributions=distributions,
            seed=1,
            num_batches=setup.num_batches,
        ))
        system = build_system(
            uniform_system_spec("scratchpipe", 0.02),
            config, setup.hardware,
        )
        stats = system.simulate_cache(dataset)
        per_table = np.array([s.per_table_misses for s in stats[WARMUP:]])
        return per_table.mean(axis=0)

    mean_misses = run_once(benchmark, experiment)

    print(banner("Ablation: heterogeneous per-table locality (misses/batch)"))
    rows = [
        [f"table {t}",
         "uniform" if s is None else f"zipf s={s}",
         f"{mean_misses[t]:.0f}"]
        for t, s in enumerate(TABLE_EXPONENTS)
    ]
    print(format_table(["table", "distribution", "mean misses/batch"], rows))

    # Miss traffic concentrates on the colder tables, monotonically.
    assert mean_misses[0] < mean_misses[2] < mean_misses[3]
    assert mean_misses[3] > 3 * mean_misses[0]
