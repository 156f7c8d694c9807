"""Pipeline perf harness: planning + cache-management throughput.

Times the full ScratchPipe pipeline (Plan + Hit-Map + hold-mask +
replacement + hazard monitoring) and prints a trajectory entry in the
``BENCH_pipeline.json`` format.  The tracked file is read-only here (the
opt-in ``REPRO_STRICT_PERF`` comparison reads its previous entry); to add
a trajectory point, paste the printed entry into it by hand.

Measured:

* metadata-only throughput at the three historical scales (the
  ``acceptance`` scale — 200 batches / 8 tables / 100k slots — is the
  trajectory's headline number);
* a *select-flatness* pair: the identical workload run against 100k and 1M
  scratchpad slots.  Victim selection is O(misses) per cycle, so the cost
  must stay near-flat as the slot count grows 10x — the seed's full-scan
  policies degrade linearly instead;
* a functional-mode (with-storage) scale exercising the [Collect]/[Insert]
  data movement through the preallocated staging rings;
* the seed path, rebuilt from the ``repro.testing.oracles`` reference
  implementations (dict hazard monitor, per-cycle ``np.unique``,
  full-scan victim selection), at the acceptance scale, and the speedup
  over both it and the previous recorded entry;
* a ``pipelined`` lane: the acceptance scale run through the
  ``overlapped`` stage executor, recording what the cross-process
  Plan-ahead handoff costs (single-core boxes) or buys (multi-core).

``REPRO_SKIP_PERF_ASSERT=1`` prints the entry without asserting the
speedup/flatness thresholds (for shared or overloaded boxes).
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import CacheSpec, PipelineSpec, SystemSpec, build_system
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

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_pipeline.json"

#: Label of the printed entry.  Alongside the serial lanes it carries a
#: ``pipelined`` lane (the ``overlapped`` executor at the acceptance
#: scale) so the cross-process backend's overhead/benefit is part of the
#: trajectory.
RUN_LABEL = "pr10-overlapped-pipeline"
PREVIOUS_LABEL = "pr8-live-serve"

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
#: Advisory only (recorded + printed, asserted solely under
#: ``REPRO_STRICT_PERF=1``): the previous entry's batches/sec was recorded
#: on that PR's box, so the ratio is only meaningful when this run uses
#: comparable hardware.  1.0 is a no-regression gate against the PR 8
#: entry; PR 10 measures ~1.1-1.2x on the same box.
MIN_SPEEDUP_VS_PREVIOUS = 1.0
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


def _time_fast_path(
    scale: dict,
    trace: MaterialisedDataset = None,
    executor: str = "serial",
) -> float:
    """Seconds for one monitored metadata-only run on the current code."""
    cfg = _config(scale)
    if trace is None:
        trace = _trace(cfg, scale)
    system = build_system(
        SystemSpec(
            system="scratchpipe",
            cache=CacheSpec(fraction=scale["slots"] / scale["rows"]),
            pipeline=PipelineSpec(executor=executor),
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


def _previous_acceptance_bps(data: dict) -> float:
    """batches/sec of the previous entry's acceptance scale (0.0 if absent)."""
    for run in data.get("runs", []):
        if run.get("label") == PREVIOUS_LABEL:
            return float(
                run["throughput"]["acceptance"]["batches_per_sec"]
            )
    return 0.0


def _load() -> dict:
    if BENCH_PATH.exists():
        return json.loads(BENCH_PATH.read_text())
    return {"runs": []}


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

    # The PR 10 ``pipelined`` lane: the same monitored acceptance run
    # through the ``overlapped`` executor.  On a single-core box this
    # records the cross-process handoff's overhead (the planner workers
    # share the core with the parent); with real parallelism it records
    # the overlap benefit.  Either way it is the trajectory's honest
    # number, not a marketing one.
    pipelined_seconds = _time_fast_path(acceptance, executor="overlapped")
    throughput["pipelined"] = {
        "seconds": round(pipelined_seconds, 4),
        "batches_per_sec": round(
            acceptance["batches"] / pipelined_seconds, 2
        ),
        "executor": "overlapped",
    }

    # Near-flat select cost vs slot count (best-of-2 on the 1M side, same
    # wall-clock noise argument).
    flatness = min(
        throughput["flat_1m"]["seconds"],
        _time_fast_path(SCALES["flat_1m"]),
    ) / throughput["flat_100k"]["seconds"]

    data = _load()
    previous_bps = _previous_acceptance_bps(data)
    new_bps = acceptance["batches"] / fast_seconds
    speedup_vs_previous = (
        new_bps / previous_bps if previous_bps else float("nan")
    )

    entry = {
        "label": RUN_LABEL,
        "throughput": throughput,
        "seed_path_acceptance": {
            "seconds": round(seed_seconds, 4),
            "batches_per_sec": round(acceptance["batches"] / seed_seconds, 2),
        },
        "speedup_vs_seed_path": round(speedup, 2),
        "speedup_vs_previous": {
            "label": PREVIOUS_LABEL,
            "ratio": round(speedup_vs_previous, 2),
        },
        "select_flatness_1m_over_100k": round(flatness, 3),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }

    print(f"\n{RUN_LABEL} entry (not written; see module docs):")
    print(json.dumps(entry, indent=2))
    print(f"pipeline throughput: {throughput}")
    print(f"seed-path acceptance run: {seed_seconds:.2f}s; "
          f"speedup {speedup:.1f}x (required >= {MIN_ACCEPTANCE_SPEEDUP}x)")
    print(f"speedup vs {PREVIOUS_LABEL} entry: {speedup_vs_previous:.2f}x "
          f"(advisory; cross-run, >= {MIN_SPEEDUP_VS_PREVIOUS}x expected on "
          "comparable hardware)")
    print(f"select flatness (1M slots / 100k slots): {flatness:.2f}x "
          f"(required <= {MAX_FLATNESS_RATIO}x)")
    if os.environ.get("REPRO_SKIP_PERF_ASSERT"):
        # Shared/overloaded boxes can still record their trajectory point
        # without turning wall-clock noise into a red suite.
        return
    assert speedup >= MIN_ACCEPTANCE_SPEEDUP, (
        f"pipeline is only {speedup:.2f}x faster than the seed path at the "
        f"acceptance scale (need >= {MIN_ACCEPTANCE_SPEEDUP}x)"
    )
    if previous_bps and os.environ.get("REPRO_STRICT_PERF"):
        assert speedup_vs_previous >= MIN_SPEEDUP_VS_PREVIOUS, (
            f"acceptance throughput is only {speedup_vs_previous:.2f}x "
            f"the {PREVIOUS_LABEL} entry's recorded {previous_bps} "
            f"batches/sec (need >= {MIN_SPEEDUP_VS_PREVIOUS}x)"
        )
    assert flatness <= MAX_FLATNESS_RATIO, (
        f"victim selection cost grew {flatness:.2f}x going from 100k to 1M "
        f"slots (need <= {MAX_FLATNESS_RATIO}x; it should be O(misses), "
        "not O(num_slots))"
    )


if __name__ == "__main__":
    sys.exit(test_perf_pipeline_throughput_and_speedup())
