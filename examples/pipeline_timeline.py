#!/usr/bin/env python3
"""Pipeline timeline: visualise ScratchPipe's schedule and bottleneck.

Prices every stage of a paper-scale ScratchPipe run, renders the Figure 10
staircase schedule, and reports per-stage utilisation — showing how the
pipeline hides the CPU-side Collect/Insert latency behind Train.

Run:  python examples/pipeline_timeline.py [--locality random]
"""

import argparse

from repro import ExperimentSetup
from repro.api import build_system, uniform_system_spec
from repro.core.timeline import PipelineTimeline, render_ascii

CACHE_FRACTION = 0.02


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--locality", default="random",
                        choices=["random", "low", "medium", "high"])
    args = parser.parse_args()

    setup = ExperimentSetup(num_batches=14)
    system = build_system(
        uniform_system_spec("scratchpipe", CACHE_FRACTION),
        setup.config, setup.hardware,
    )
    trace = setup.trace(args.locality)
    stage_seconds = [
        breakdown.by_stage() for breakdown in system.stream_breakdowns(trace)
    ]
    timeline = PipelineTimeline(
        stage_seconds=stage_seconds, sync_seconds=setup.hardware.stage_sync_s
    )

    print(f"ScratchPipe schedule — {args.locality} trace, "
          f"{CACHE_FRACTION:.0%} cache\n")
    print(render_ascii(timeline.cycles(), max_cycles=12))

    print(f"\nsteady-state cycle:  "
          f"{timeline.steady_state_cycle_seconds() * 1e3:.2f} ms/iteration")
    print(f"bottleneck stage:    {timeline.bottleneck_stage()}")
    print("stage utilisation:")
    for stage, value in timeline.stage_utilisation().items():
        bar = "#" * int(value * 40)
        print(f"  {stage:9s} {value:5.1%} {bar}")

    sequential = sum(stage_seconds[-1].values())
    pipelined = timeline.steady_state_cycle_seconds()
    print(f"\nunpipelined stage sum: {sequential * 1e3:.2f} ms  ->  "
          f"pipelined cycle: {pipelined * 1e3:.2f} ms "
          f"({sequential / pipelined:.2f}x hidden by overlap)")


if __name__ == "__main__":
    main()
