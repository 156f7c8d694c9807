#!/usr/bin/env python3
"""Training-cost planner: single-GPU ScratchPipe vs an 8-GPU cluster.

Reproduces Table I's comparison for a configurable model: estimates the
per-iteration latency of single-GPU ScratchPipe (p3.2xlarge) and of a
model-parallel GPU-only system (p3.16xlarge), then prices one million
training iterations on AWS.  Because ScratchPipe leaves SGD untouched,
equal iteration counts reach equal accuracy, making dollars-per-run the
honest comparison.

Run:  python examples/cost_planner.py [--tables 8] [--lookups 20]
"""

import argparse

from repro import ExperimentSetup, ModelConfig
from repro.analysis import format_table
from repro.api import build_system, uniform_system_spec
from repro.analysis.cost import cost_saving, multi_gpu_row, scratchpipe_row
from repro.data import LOCALITY_CLASSES
from repro.systems import MultiGpuSystem

WARMUP = 8


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tables", type=int, default=8,
                        help="number of embedding tables")
    parser.add_argument("--lookups", type=int, default=20,
                        help="gathers per table per sample")
    parser.add_argument("--cache", type=float, default=0.02,
                        help="GPU cache fraction of each table")
    parser.add_argument("--gpus", type=int, default=8,
                        help="GPU count of the cluster baseline")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    config = ModelConfig(num_tables=args.tables,
                         lookups_per_table=args.lookups)
    setup = ExperimentSetup(config=config, num_batches=14)
    print(f"Model: {config.model_bytes / 1e9:.0f} GB embeddings, "
          f"{args.lookups} lookups/table, batch {config.batch_size}")

    rows = []
    savings = []
    for locality in LOCALITY_CLASSES:
        trace = setup.trace(locality)
        sp_latency = build_system(
            uniform_system_spec("scratchpipe", args.cache),
            config, setup.hardware,
        ).run_trace(trace).mean_latency(WARMUP)
        mg_latency = MultiGpuSystem(
            config, setup.hardware, num_gpus=args.gpus
        ).run_trace(trace).mean_latency(0)
        sp = scratchpipe_row(locality.capitalize(), sp_latency)
        mg = multi_gpu_row(locality.capitalize(), mg_latency)
        rows.extend([sp.formatted(), mg.formatted()])
        savings.append(cost_saving(sp, mg))

    print()
    print(format_table(
        ["Dataset", "System", "AWS Instance", "Price/hr", "Iter. Time",
         "1M Iter. Cost"],
        rows,
    ))
    print(f"\nScratchPipe cost saving: "
          f"avg {sum(savings) / len(savings):.1f}x, max {max(savings):.1f}x "
          "(paper: avg 4.0x, max 5.7x)")


if __name__ == "__main__":
    main()
