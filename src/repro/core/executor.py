"""The executor names of the ScratchPipe pipeline, and the Plan shards
the stream uses.

There is one cycle loop, ``ScratchPipePipeline._stream_cycles``: which
stage of which in-flight batch runs at each cycle is fixed by the
paper's schedule (Section IV-C, Figure 10), in the calling process, on
a thread pool the stream owns.  Each cycle's [Plan] fans out over
contiguous table shards (:func:`_shard_tables` over
``REPRO_EXECUTOR_WORKERS`` shards, see :func:`_worker_count`) — shard 0
on the calling thread, the rest on the pool — and runs the per-shard
step ``ScratchPipePipeline._plan_shard``: plan each table, then let the
hazard monitor check it.  The calling thread records each table's
violations and re-raises a shard's error in table order.

A training run's [Train] goes to one more thread of that pool at cycle
start and is joined at cycle end, beside the cycle's Insert, Collect
and Plan, with numpy's OpenBLAS held at one thread for the stream
(``ScratchPipePipeline._stream_cycles`` gives the conditions and the
slot-disjointness argument).

:data:`EXECUTORS` lists the names a pipeline, spec, experiment setup
and ``--executor`` accept.  ``serial`` and ``overlapped`` run the same
schedule; ``overlapped`` stays an alias so that specs, sweep journals
and benchmark workloads that name it keep working.

Determinism contract: for a given pipeline, every executor name and
shard count yields bit-identical per-batch statistics, plans, losses,
hazard-violation lists, raised errors and final table/scratchpad
contents.  This holds because each table's Plan stream is a pure
function of that table's initial scratchpad state and the batch
sequence, and tables never share Plan state.
"""

from __future__ import annotations

import os
from typing import List, Tuple, Type

from repro._env import read_env
from repro.errors import ExecutorConfigError

#: The executor names every pipeline, spec, experiment setup and
#: ``--executor`` accepts, sorted.
EXECUTORS = ("overlapped", "serial")


def check_executor(name: str, error_cls: Type[Exception]) -> None:
    """Raise ``error_cls`` unless ``name`` is one of :data:`EXECUTORS`."""
    if name not in EXECUTORS:
        raise error_cls(
            f"unknown executor {name!r}; expected one of: {', '.join(EXECUTORS)}"
        )


def _worker_count(num_tables: int, busy_cores: int = 0) -> int:
    """Plan shard count: ``REPRO_EXECUTOR_WORKERS`` or a CPU-bound
    default, clamped to one shard per table.

    The default leaves ``busy_cores`` cores to the stream's other stage
    threads (the Train thread of a stream that overlaps its stages), and
    plans on at least one shard.
    """
    raw = read_env("REPRO_EXECUTOR_WORKERS")
    if raw is None:
        count = min(4, max(1, (os.cpu_count() or 1) - busy_cores))
    else:
        try:
            count = int(raw)
        except ValueError:
            raise ExecutorConfigError(
                f"REPRO_EXECUTOR_WORKERS must be an integer, got {raw!r}"
            ) from None
        if count < 1:
            raise ExecutorConfigError(
                f"REPRO_EXECUTOR_WORKERS must be >= 1, got {count}"
            )
    return max(1, min(count, num_tables))


def _shard_tables(num_tables: int, workers: int) -> List[Tuple[int, ...]]:
    """Contiguous, near-equal table shards — ascending across shards so
    concatenating per-shard results in shard order preserves table
    order."""
    base, extra = divmod(num_tables, workers)
    shards: List[Tuple[int, ...]] = []
    start = 0
    for index in range(workers):
        size = base + (1 if index < extra else 0)
        if size:
            shards.append(tuple(range(start, start + size)))
            start += size
    return shards
