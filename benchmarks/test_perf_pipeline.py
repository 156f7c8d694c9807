"""Pipeline perf harness: planning + cache-management throughput.

Times the full ScratchPipe pipeline (Plan + Hit-Map + hold-mask +
replacement + hazard monitoring) and prints the throughputs it measured.
End-to-end performance is tracked by ``python3 -m bench``; this test
keeps two machine-independent gates on the cache-management layers.

Measured:

* metadata-only throughput at the three historical scales (the
  ``acceptance`` scale is 200 batches / 8 tables / 100k slots);
* a *select-flatness* pair: the identical workload run against 100k and 1M
  scratchpad slots.  Victim selection is O(misses) per cycle, so the cost
  must stay near-flat as the slot count grows 10x — the seed's full-scan
  policies degrade linearly instead;
* a functional-mode (with-storage) scale exercising the [Collect]/[Insert]
  data movement through the preallocated staging rings;
* the seed path, rebuilt from the ``repro.testing.oracles`` reference
  implementations (dict hazard monitor, per-cycle ``np.unique``,
  full-scan victim selection), at the acceptance scale, and the speedup
  over it.

``REPRO_SKIP_PERF_ASSERT=1`` prints the numbers without asserting the
speedup/flatness thresholds (for shared or overloaded boxes).
"""

import os
import sys
import time

import numpy as np

from repro.api import CacheSpec, SystemSpec, build_system
from repro.core.pipeline import HazardMonitor, ScratchPipePipeline
from repro.data.trace import MaterialisedDataset, make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import ModelConfig
from repro.core.scratchpad import make_scratchpads
from repro.testing.oracles import (
    PerCycleUniquePipeline,
    ScanHazardMonitor,
    use_scan_policies,
)

#: Metadata-only pipeline scales: (tables, rows/table, batch, lookups,
#: trace length, scratchpad slots).
SCALES = {
    "small": dict(
        num_tables=2, rows=100_000, batch=256, lookups=8,
        batches=100, slots=20_000,
    ),
    "medium": dict(
        num_tables=4, rows=500_000, batch=512, lookups=16,
        batches=150, slots=60_000,
    ),
    # The acceptance-criterion scale: 200 batches, 8 tables, 100k slots.
    "acceptance": dict(
        num_tables=8, rows=1_000_000, batch=512, lookups=20,
        batches=200, slots=100_000,
    ),
    # Select-flatness pair: same workload, 10x the slots.  O(misses)
    # selection keeps the cost near-flat; O(num_slots) scans do not.
    "flat_100k": dict(
        num_tables=8, rows=2_000_000, batch=512, lookups=20,
        batches=200, slots=100_000,
    ),
    "flat_1m": dict(
        num_tables=8, rows=2_000_000, batch=512, lookups=20,
        batches=200, slots=1_000_000,
    ),
}

#: Functional (with-storage) scale: misses move real rows through the
#: staging rings at [Collect]/[Insert].
FUNCTIONAL_SCALE = dict(
    num_tables=4, rows=200_000, batch=256, lookups=8,
    batches=150, slots=50_000, dim=32,
)

#: Hard gate, measured live against the retained seed path in the same
#: process — machine-independent.  PR 1's code measures ~10x on this
#: comparison and PR 2's 24-28x, so 12x separates the two with margin in
#: both directions while staying robust to wall-clock noise.
MIN_ACCEPTANCE_SPEEDUP = 12.0
MAX_FLATNESS_RATIO = 2.0


def _config(scale: dict) -> ModelConfig:
    return ModelConfig(
        num_tables=scale["num_tables"],
        rows_per_table=scale["rows"],
        embedding_dim=scale.get("dim", 32),
        lookups_per_table=scale["lookups"],
        batch_size=scale["batch"],
        bottom_mlp=(64, scale.get("dim", 32)),
        top_mlp=(64, 1),
    )


def _trace(cfg: ModelConfig, scale: dict) -> MaterialisedDataset:
    return MaterialisedDataset(
        make_dataset(cfg, "medium", seed=0, num_batches=scale["batches"])
    )


def _time_fast_path(scale: dict, trace: MaterialisedDataset = None) -> float:
    """Seconds for one monitored metadata-only run on the current code."""
    cfg = _config(scale)
    if trace is None:
        trace = _trace(cfg, scale)
    system = build_system(
        SystemSpec(
            system="scratchpipe",
            cache=CacheSpec(fraction=scale["slots"] / scale["rows"]),
        ),
        cfg, DEFAULT_HARDWARE,
    )
    assert system.table_slots == (scale["slots"],) * cfg.num_tables
    start = time.perf_counter()
    stats = system.simulate_cache(trace, monitor=HazardMonitor(strict=True))
    elapsed = time.perf_counter() - start
    assert len(stats) == scale["batches"]
    return elapsed


def _time_seed_path(scale: dict) -> float:
    """Seconds for the seed-equivalent run: dict monitor, per-cycle
    ``np.unique`` and full-scan victim selection (the paths the fast ones
    replaced, kept as the ``repro.testing.oracles`` reference
    implementations)."""
    cfg = _config(scale)
    trace = _trace(cfg, scale)
    pipeline = PerCycleUniquePipeline(
        config=cfg,
        scratchpads=use_scan_policies(make_scratchpads(cfg, scale["slots"])),
        dataset_batches=trace,
        monitor=ScanHazardMonitor(strict=True),
    )
    start = time.perf_counter()
    result = pipeline.run()
    elapsed = time.perf_counter() - start
    assert len(result.cache_stats) == scale["batches"]
    return elapsed


def _time_functional(scale: dict) -> float:
    """Seconds for a functional (with-storage) run: [Collect] gathers CPU
    rows and victim rows into the staging rings, [Insert] lands them."""
    cfg = _config(scale)
    trace = _trace(cfg, scale)
    rng = np.random.default_rng(0)
    cpu_tables = [
        rng.standard_normal((cfg.rows_per_table, cfg.embedding_dim)).astype(
            np.float32
        )
        for _ in range(cfg.num_tables)
    ]
    pipeline = ScratchPipePipeline(
        config=cfg,
        scratchpads=make_scratchpads(cfg, scale["slots"], with_storage=True),
        dataset_batches=trace,
        cpu_tables=cpu_tables,
    )
    start = time.perf_counter()
    result = pipeline.run()
    elapsed = time.perf_counter() - start
    assert len(result.cache_stats) == scale["batches"]
    return elapsed


def test_perf_pipeline_throughput_and_speedup():
    throughput = {}
    flat_cfg = _config(SCALES["flat_100k"])
    flat_trace = _trace(flat_cfg, SCALES["flat_100k"])
    for name, scale in SCALES.items():
        trace = flat_trace if name.startswith("flat_") else None
        seconds = _time_fast_path(scale, trace)
        throughput[name] = {
            "seconds": round(seconds, 4),
            "batches_per_sec": round(scale["batches"] / seconds, 2),
        }
    del flat_trace

    functional_seconds = _time_functional(FUNCTIONAL_SCALE)
    throughput["functional"] = {
        "seconds": round(functional_seconds, 4),
        "batches_per_sec": round(
            FUNCTIONAL_SCALE["batches"] / functional_seconds, 2
        ),
    }

    acceptance = SCALES["acceptance"]
    seed_seconds = _time_seed_path(acceptance)
    # Best-of-3 on the fast side: the speedup assertion should not fail
    # because another process stole the box during one pass.
    fast_seconds = min(
        throughput["acceptance"]["seconds"],
        _time_fast_path(acceptance),
        _time_fast_path(acceptance),
    )
    throughput["acceptance"] = {
        "seconds": round(fast_seconds, 4),
        "batches_per_sec": round(acceptance["batches"] / fast_seconds, 2),
    }
    speedup = seed_seconds / fast_seconds

    # Near-flat select cost vs slot count (best-of-2 on the 1M side, same
    # wall-clock noise argument).
    flatness = min(
        throughput["flat_1m"]["seconds"],
        _time_fast_path(SCALES["flat_1m"]),
    ) / throughput["flat_100k"]["seconds"]

    print(f"\npipeline throughput: {throughput}")
    print(f"seed-path acceptance run: {seed_seconds:.2f}s; "
          f"speedup {speedup:.1f}x (required >= {MIN_ACCEPTANCE_SPEEDUP}x)")
    print(f"select flatness (1M slots / 100k slots): {flatness:.2f}x "
          f"(required <= {MAX_FLATNESS_RATIO}x)")
    if os.environ.get("REPRO_SKIP_PERF_ASSERT"):
        # Shared/overloaded boxes can still print their numbers without
        # turning wall-clock noise into a red suite.
        return
    assert speedup >= MIN_ACCEPTANCE_SPEEDUP, (
        f"pipeline is only {speedup:.2f}x faster than the seed path at the "
        f"acceptance scale (need >= {MIN_ACCEPTANCE_SPEEDUP}x)"
    )
    assert flatness <= MAX_FLATNESS_RATIO, (
        f"victim selection cost grew {flatness:.2f}x going from 100k to 1M "
        f"slots (need <= {MAX_FLATNESS_RATIO}x; it should be O(misses), "
        "not O(num_slots))"
    )


if __name__ == "__main__":
    sys.exit(test_perf_pipeline_throughput_and_speedup())
