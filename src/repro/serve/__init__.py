"""Live-traffic replay: open-loop arrivals, backpressure, latency tails.

The production layer ROADMAP item 1 asked for — traces replayed as *live*
traffic with seeded arrival processes, bounded inter-stage queues with
admission control, and exact p50/p95/p99 per-stage latency plus
SLA-violation rate.  Everything runs on a deterministic virtual clock;
``repro.analysis.sweep`` exposes it as the ``"serve"`` metric and the CLI
as the ``serve`` subcommand.

Quickstart::

    from repro import DEFAULT_HARDWARE, make_dataset, tiny_config
    from repro.api import build_system, uniform_system_spec
    from repro.serve import ArrivalSpec, ServeSpec, format_serve_report, replay

    cfg = tiny_config()
    trace = make_dataset(cfg, "medium", seed=0, num_batches=64)
    spec = uniform_system_spec("scratchpipe", cache_fraction=0.3)
    system = build_system(spec, cfg, DEFAULT_HARDWARE)
    report = replay(system, trace, ServeSpec(arrivals=ArrivalSpec(rate=400.0)))
    print(format_serve_report(report))
"""

from repro.serve.arrivals import (
    ADMISSION_POLICIES,
    ARRIVAL_KINDS,
    ArrivalSpec,
    ArrivalSpecError,
    ServeSpec,
    arrival_times,
    parse_arrivals,
    unit_gaps,
)
from repro.serve.loop import AdmissionRejectedError, replay
from repro.serve.report import (
    PERCENTILES,
    ServeReport,
    exact_percentiles,
    format_serve_report,
)

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_KINDS",
    "ArrivalSpec",
    "ArrivalSpecError",
    "ServeSpec",
    "arrival_times",
    "parse_arrivals",
    "unit_gaps",
    "AdmissionRejectedError",
    "replay",
    "PERCENTILES",
    "ServeReport",
    "exact_percentiles",
    "format_serve_report",
]
