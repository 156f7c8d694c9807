"""Memory-cap smoke test: constant-memory scenario streaming.

Guards the TraceSource streaming claim end-to-end: a drift scenario two
orders of magnitude longer than the baseline streams through
``ScratchPipeSystem`` with peak RSS below 2x the baseline run.  Any
accidental O(num_batches) retention — materialising the trace, collecting
per-batch stats, an unbounded pipeline batch cache — blows the bound by a
wide margin (per-batch stats alone would add ~50 B/batch; a materialised
1M-batch trace ~16 MB even at this toy geometry, against a ~40 MB
interpreter baseline).

Each run executes in a fresh subprocess so ``ru_maxrss`` (a high-water
mark) measures that run alone.  The default large scale is 100k batches to
keep the tier-1 wall-clock sane; the CI memory-smoke job sets
``REPRO_STREAM_FULL=1`` to run the full 1M-batch scale from the acceptance
criterion (~2 minutes).
"""

import os
import subprocess
import sys
from pathlib import Path

SMALL_BATCHES = 10_000
LARGE_BATCHES = (
    1_000_000 if os.environ.get("REPRO_STREAM_FULL") else 100_000
)

_CHILD = """
import resource, sys
from repro.api import build_system, uniform_system_spec
from repro.data.scenarios import DriftSpec, ScenarioSpec, build_scenario
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import tiny_config

num_batches = int(sys.argv[1])
cfg = tiny_config(
    rows_per_table=4000, batch_size=2, lookups_per_table=1, num_tables=1
)
spec = ScenarioSpec(locality="high", drift=DriftSpec(rate=2.0))
source = build_scenario(cfg, spec, seed=0, num_batches=num_batches)
system = build_system(
    uniform_system_spec("scratchpipe", 0.05),
    cfg, DEFAULT_HARDWARE,
)
totals = system.aggregate_cache_stats(source)
assert totals.batches == num_batches, totals.batches
assert totals.unique_ids > 0
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(f"RESULT {peak_kb} {totals.hit_rate:.6f}")
"""


def _streamed_peak_rss_kb(num_batches: int) -> int:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(num_batches)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    for line in out.stdout.splitlines():
        if line.startswith("RESULT "):
            return int(line.split()[1])
    raise AssertionError(f"no RESULT line in child output: {out.stdout!r}")


def test_streaming_rss_is_flat_in_trace_length():
    small_kb = _streamed_peak_rss_kb(SMALL_BATCHES)
    large_kb = _streamed_peak_rss_kb(LARGE_BATCHES)
    ratio = large_kb / small_kb
    print(
        f"\npeak RSS: {SMALL_BATCHES} batches -> {small_kb // 1024} MB, "
        f"{LARGE_BATCHES} batches -> {large_kb // 1024} MB "
        f"(ratio {ratio:.2f}x)"
    )
    assert ratio < 2.0, (
        f"streaming a {LARGE_BATCHES}-batch scenario used {ratio:.2f}x the "
        f"peak RSS of the {SMALL_BATCHES}-batch run; the constant-memory "
        "claim is broken"
    )
