"""End-to-end and per-layer benchmark of the ScratchPipe reproduction.

Run from the repository root::

    python3 -m bench run --seed 0                  # all workloads, untraced
    python3 -m bench run --workload plan_hot --trace 1
    python3 -m bench compare parent.jsonl change.jsonl

``BENCHMARK.json`` at the root names the workloads and metrics; see
``bench/README.md`` for what each measures and why.
"""
