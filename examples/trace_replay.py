#!/usr/bin/env python3
"""Trace replay: persist a training trace and train from the file.

Demonstrates the property ScratchPipe is built on — the training dataset is
a file that records the sparse IDs of *all* upcoming iterations — by
generating a trace, compiling it to the binary trace format, and then
driving the full pipelined runtime (with its look-forward Plan stage)
straight off the memmapped file.

Run:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import DLRMModel, make_dataset, required_slots, tiny_config
from repro.core import HazardMonitor
from repro.data import CompiledTraceSource, compile_trace
from repro.model import SGD
from repro.systems import ScratchPipeTrainingRun

NUM_BATCHES = 20


def main() -> None:
    config = tiny_config(
        rows_per_table=1500, batch_size=16, lookups_per_table=3, num_tables=2
    )
    dataset = make_dataset(config, "high", seed=11, num_batches=NUM_BATCHES,
                           with_dense=True)

    with tempfile.TemporaryDirectory() as tmp:
        path = compile_trace(dataset, Path(tmp) / "criteo_like_trace.rtrc")
        print(f"compiled trace: {path.name} "
              f"({path.stat().st_size / 1e3:.0f} kB, {NUM_BATCHES} batches)")

        # Opening against the model's config validates the file's geometry.
        trace = CompiledTraceSource(path, config=config)

        init = DLRMModel.initialise(config, seed=3)
        run = ScratchPipeTrainingRun(
            config=config,
            cpu_tables=[t.weights.copy() for t in init.tables],
            dense_network=init.dense_network,
            num_slots=required_slots(config),
            optimizer=SGD(lr=0.02),
            monitor=HazardMonitor(strict=True),
        )
        result = run.run(trace)

        hit_rates = [s.hit_rate for s in result.cache_stats]
        print(f"trained {len(result.losses)} batches from the file")
        print(f"loss: {result.losses[0]:.4f} -> {result.losses[-1]:.4f}")
        print("Plan-stage hit rate as the cache warms: "
              + " ".join(f"{h:.0%}" for h in hit_rates[::4]))
        print("hazards: none (strict monitor); every Train gather was a hit")


if __name__ == "__main__":
    main()
