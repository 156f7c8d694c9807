"""Ablation — dynamic (ScratchPipe) vs static cache hit rates.

Figure 6 plots the *static* cache's lookup-level hit rate.  A design
question DESIGN.md calls out is how the dynamic LRU cache's working-set
tracking compares against popularity pinning at equal capacity.  The honest
comparison is on the same denominator, so both rates here are **unique-ID**
rates per batch (each distinct row counted once): that is what determines
the Collect-stage traffic in ScratchPipe.  Lookup-level rates are far
higher on skewed traces (hot rows repeat within a batch) and are reported
alongside for reference.
"""

import numpy as np

from conftest import run_once
from repro.analysis.report import banner, format_table
from repro.api import build_system, uniform_system_spec
from repro.data.datasets import LOCALITY_CLASSES, locality_distribution

CACHE_FRACTION = 0.02
WARMUP = 8


def test_dynamic_vs_static_hit_rate(benchmark, setup):
    def experiment():
        out = {}
        hot_rows = int(CACHE_FRACTION * setup.config.rows_per_table)
        for locality in LOCALITY_CLASSES:
            trace = setup.trace(locality)
            # Static top-N, measured on the *unique IDs* of each batch.
            static_unique = []
            for i in range(WARMUP, len(trace)):
                batch = trace.batch(i)
                unique = np.unique(batch.sparse_ids.reshape(-1))
                static_unique.append(float((unique < hot_rows).mean()))
            # Dynamic LRU (ScratchPipe Plan stage), also unique-ID based.
            system = build_system(
                uniform_system_spec("scratchpipe", CACHE_FRACTION),
                setup.config, setup.hardware,
            )
            stats = system.simulate_cache(trace)
            dynamic = float(np.mean([s.hit_rate for s in stats[WARMUP:]]))
            lookup_level = locality_distribution(
                locality, setup.config.rows_per_table
            ).hit_rate(CACHE_FRACTION)
            out[locality] = (float(np.mean(static_unique)), dynamic,
                             lookup_level)
        return out

    out = run_once(benchmark, experiment)

    print(banner("Ablation: static vs dynamic unique-ID hit rate at 2%"))
    rows = [
        [locality, f"{static:.1%}", f"{dynamic:.1%}", f"{lookup:.1%}"]
        for locality, (static, dynamic, lookup) in out.items()
    ]
    print(format_table(
        ["locality", "static (unique)", "dynamic LRU (unique)",
         "static (lookup-level)"],
        rows,
    ))

    # The measured result — and the ablation's point: popularity pinning
    # achieves the *higher* unique-ID hit rate on skewed traces (LRU spends
    # slots on recent one-off tail rows), yet ScratchPipe still beats the
    # static system end-to-end (Figure 13) because its misses are
    # prefetched off the critical path instead of stalling training.  The
    # win comes from the always-hit pipelining, not from a better hit rate.
    uniques = {loc: v[1] for loc, v in out.items()}
    statics = {loc: v[0] for loc, v in out.items()}
    for locality in ("medium", "high"):
        assert statics[locality] > uniques[locality], locality
    # Skew helps both policies (ordering preserved).
    assert uniques["high"] > uniques["medium"] > uniques["random"]
    assert statics["high"] > statics["medium"] > statics["random"]
    # On uniform traffic no policy beats capacity, and recency == popularity.
    assert uniques["random"] < CACHE_FRACTION + 0.05
    assert abs(uniques["random"] - statics["random"]) < 0.05
