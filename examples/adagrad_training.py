#!/usr/bin/env python3
"""Optimiser-state co-location: row-wise Adagrad inside the scratchpad.

Production DLRM training pairs the embeddings with row-wise Adagrad, whose
per-row accumulator must migrate with the row between CPU memory and the
GPU scratchpad.  This example trains the same trace two ways — sequential
reference Adagrad vs the pipelined scratchpad with an accumulator column
riding along every row — and verifies weights AND optimiser state match
bit-for-bit, even under constant evictions.

Run:  python examples/adagrad_training.py
"""

import numpy as np

from repro import DLRMModel, make_dataset, required_slots, tiny_config
from repro.core import HazardMonitor
from repro.model import AdagradOptimizer, augment_tables, split_tables
from repro.systems import ScratchPipeTrainingRun

NUM_BATCHES = 24
LR = 0.05


def main() -> None:
    config = tiny_config(
        rows_per_table=1200, batch_size=16, lookups_per_table=4, num_tables=2
    )
    dataset = make_dataset(config, "medium", seed=5, num_batches=NUM_BATCHES,
                           with_dense=True)

    # Sequential reference with row-wise Adagrad (float32 state, matching
    # the scratchpad's accumulator column).
    reference = DLRMModel.initialise(
        config, seed=11,
        optimizer=AdagradOptimizer(lr=LR, state_dtype=np.float32),
    )
    ref_losses = [reference.train_step(dataset.batch(i))
                  for i in range(NUM_BATCHES)]

    # Pipelined run with a deliberately tight cache: rows (and their
    # accumulators, the last column of each augmented table) constantly
    # evict to CPU and return.
    init = DLRMModel.initialise(config, seed=11)
    run = ScratchPipeTrainingRun(
        config=config,
        cpu_tables=augment_tables([t.weights for t in init.tables]),
        dense_network=init.dense_network,
        num_slots=required_slots(config, window_batches=6),
        optimizer=AdagradOptimizer(lr=LR, state_dtype=np.float32),
        monitor=HazardMonitor(strict=True),
    )
    result = run.run(dataset)
    weights, accumulators = split_tables(run.final_tables())

    weights_match = all(
        np.array_equal(weights[t], reference.tables[t].weights)
        for t in range(config.num_tables)
    )
    state_match = all(
        np.array_equal(
            accumulators[t],
            reference.optimizer._sparse[id(reference.tables[t])].accumulator(
                np.arange(config.rows_per_table)
            ),
        )
        for t in range(config.num_tables)
    )
    losses_match = np.allclose(result.losses, ref_losses, rtol=0, atol=0)

    print(f"trained {NUM_BATCHES} batches with row-wise Adagrad")
    print(f"loss: {result.losses[0]:.4f} -> {result.losses[-1]:.4f}")
    print(f"weights bit-identical to reference:      {weights_match}")
    print(f"accumulators bit-identical to reference: {state_match}")
    print(f"losses bit-identical to reference:       {losses_match}")
    nonzero = int((accumulators[0] > 0).sum())
    print(f"rows with live optimiser state (table 0): {nonzero} "
          f"of {config.rows_per_table}")


if __name__ == "__main__":
    main()
