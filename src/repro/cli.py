"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    python -m repro.cli fig13 --batches 12 --fractions 0.02 0.10
    python -m repro.cli --workers 4 fig13 --fractions 0.02 0.10
    python -m repro.cli fig15a --dims 64 128
    python -m repro.cli table1
    python -m repro.cli fig6
    python -m repro.cli overhead
    python -m repro.cli compare --locality medium --cache 0.02
    python -m repro.cli --scenario fast-drift fig13 --fractions 0.02
    python -m repro.cli --drift-rate 16 compare --locality high
    python -m repro.cli driftsweep --rates 0 1 16 64
    python -m repro.cli scenarios
    python -m repro.cli systems
    python -m repro.cli --cache-spec table0=0.04,rest=0.02 compare
    python -m repro.cli hetero --rhos 0 0.5 --splits 0.02 table0=0.04,rest=0.02
    python -m repro.cli trace criteo-sample
    python -m repro.cli ingest criteo-sample --out sample.rtrc
    python -m repro.cli --trace sample.rtrc fig13 --fractions 0.05
    python -m repro.cli serve --arrivals poisson:16
    python -m repro.cli serve --fractions 0.02 0.1 --rates 8 16 24

Every subcommand prints the same rows/series the corresponding paper table
or figure reports, using the calibrated analytic timing model.  The global
``--scenario`` / ``--drift-rate`` flags re-run any figure under a
time-varying workload (see :mod:`repro.data.scenarios`); omitting them
keeps the stationary legacy traces bit-identical.  Systems are always
constructed through ``repro.api.build_system``: ``--system`` picks any
registered design (or a full JSON ``SystemSpec``) and ``--cache-spec``
describes uniform or per-table heterogeneous caches.

Real traces: ``--trace <name-or-path>`` replays a trace file (a named
trace such as ``criteo-sample``, a Criteo-style TSV, or a compiled
``.rtrc`` produced by the ``ingest`` subcommand) through any
trace-consuming figure; ``trace`` inspects and verifies a file.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.analysis.cost import cost_saving
from repro.errors import ExperimentConfigError
from repro.analysis.experiments import (
    ExperimentSetup,
    effective_warmup,
    fig6_hit_rate,
    fig12b_scratchpipe_latency,
    fig13_speedup,
    fig14_energy,
    fig15a_dim_sensitivity,
    fig15b_lookup_sensitivity,
    heterogeneous_cache,
    overhead_vi_d,
    replacement_policy_sensitivity,
    serve_latency_grid,
    table1_cost,
)
from repro.analysis.experiments import drift_sensitivity, scenario_comparison
from repro.analysis.report import banner, format_breakdown, format_table
from repro.analysis.sweep import SweepGridError, grid_options
from repro.api import (
    CacheSpec,
    InvalidSystemSpecError,
    RegistryError,
    SystemSpec,
    as_system_spec,
    format_cache_spec,
    parse_cache_spec,
    registered_policies,
    system_entries,
    system_entry,
)
from repro.data.datasets import LOCALITY_CLASSES
from repro.data.io import (
    InvalidTraceFileSpecError,
    TraceVerificationError,
    compile_trace,
    sha256_file,
)
from repro.data.fetch import KNOWN_TRACES, resolve_trace
from repro.model.config import ModelConfig
from repro.data.scenarios import (
    SCENARIO_PRESETS,
    DriftSpec,
    ScenarioSpec,
    ScenarioSpecError,
    scenario_by_name,
)
from repro.serve import (
    ArrivalSpecError,
    ServeSpec,
    format_serve_report,
    parse_arrivals,
)


def _scenario(args: argparse.Namespace) -> "ScenarioSpec | None":
    spec = None
    try:
        if getattr(args, "scenario", None):
            spec = scenario_by_name(args.scenario)
        if getattr(args, "drift_rate", None) is not None:
            base = spec or ScenarioSpec()
            import dataclasses

            # Rate 0 is the documented drift-free baseline (as in
            # drift_sensitivity), not an error.
            drift = DriftSpec(rate=args.drift_rate) if args.drift_rate else None
            spec = dataclasses.replace(base, drift=drift)
    except ScenarioSpecError as error:
        raise SystemExit(f"invalid scenario: {error}") from None
    return spec


def _trace_file(args: argparse.Namespace):
    """Resolve the global ``--trace`` flag (None when absent)."""
    text = getattr(args, "trace", None)
    if not text:
        return None
    if getattr(args, "scenario", None) or (
        getattr(args, "drift_rate", None) is not None
    ):
        raise SystemExit(
            "--trace replays a recorded trace; the synthetic "
            "--scenario/--drift-rate processes cannot be applied on top"
        )
    try:
        return resolve_trace(text)
    except (InvalidTraceFileSpecError, FileNotFoundError) as error:
        raise SystemExit(f"invalid --trace: {error}") from None


#: Locality label used for points replaying a real trace file.
TRACE_LOCALITY = "trace"


def _setup(args: argparse.Namespace) -> ExperimentSetup:
    executor = getattr(args, "executor", None) or "serial"
    trace_file = _trace_file(args)
    try:
        if trace_file is None:
            return ExperimentSetup(
                num_batches=args.batches, scenario=_scenario(args),
                executor=executor,
            )
        config = trace_file.configure(ModelConfig())
    except ExperimentConfigError as error:
        raise SystemExit(f"invalid --executor: {error}") from None
    except (InvalidTraceFileSpecError, ValueError) as error:
        raise SystemExit(f"invalid --trace geometry: {error}") from None
    try:
        return ExperimentSetup(
            config=config, num_batches=args.batches, trace_file=trace_file,
            executor=executor,
        )
    except ExperimentConfigError as error:
        raise SystemExit(f"invalid --executor: {error}") from None


def _localities(args: argparse.Namespace, default=LOCALITY_CLASSES):
    """Locality axis: the four classes, or one label for a file trace."""
    return (TRACE_LOCALITY,) if getattr(args, "trace", None) else tuple(default)


def _reject_scenario_flags(args: argparse.Namespace, what: str) -> None:
    """Fail loudly where a scenario cannot apply, instead of silently
    printing stationary numbers under a scenario-labelled invocation."""
    if (getattr(args, "scenario", None)
            or getattr(args, "drift_rate", None) is not None):
        raise SystemExit(
            f"{what} does not consume traces, so the global "
            "--scenario/--drift-rate flags do not apply to it"
        )


def _cache_spec(args: argparse.Namespace) -> "CacheSpec | None":
    """Parse the global ``--cache-spec`` flag (None when absent)."""
    text = getattr(args, "cache_spec", None)
    if not text:
        return None
    try:
        return parse_cache_spec(text)
    except InvalidSystemSpecError as error:
        raise SystemExit(f"invalid --cache-spec: {error}") from None


def _dynamic_spec(
    args: argparse.Namespace, fraction: float, system: str = "scratchpipe"
) -> SystemSpec:
    """The spec of the dynamic system a command studies.

    Precedence: ``--system`` (name or JSON) picks the design, then — for
    designs that take a cache — ``--cache-spec`` overrides its cache and
    the command's ``--cache`` fraction fills a still-missing one.
    Cache-less designs (hybrid baselines, multi_gpu) build as-is.
    """
    try:
        if getattr(args, "system", None):
            spec = as_system_spec(args.system)
        else:
            spec = SystemSpec(system=system)
        if system_entry(spec.system).requires_cache:
            cache = _cache_spec(args) or spec.cache
            if cache is None:
                cache = CacheSpec(fraction=fraction)
            spec = dataclasses.replace(spec, cache=cache)
        elif _cache_spec(args) is not None:
            raise SystemExit(
                f"system {spec.system!r} takes no cache; "
                "--cache-spec does not apply to it"
            )
        executor = getattr(args, "executor", None)
        if executor:
            spec = dataclasses.replace(
                spec,
                pipeline=dataclasses.replace(spec.pipeline, executor=executor),
            )
        return spec
    except (InvalidSystemSpecError, RegistryError) as error:
        raise SystemExit(f"invalid system spec: {error}") from None


def cmd_fig6(args: argparse.Namespace) -> None:
    """Figure 6: static hit rate vs cache size."""
    _reject_scenario_flags(args, "fig6 (analytic hit-rate curves)")
    fractions, curves = fig6_hit_rate(
        cache_fractions=np.linspace(0.02, 1.0, args.points)
    )
    print(banner("Figure 6: static-cache hit rate vs cache size"))
    header = ["dataset"] + [f"{f:.0%}" for f in fractions[:: max(1, args.points // 8)]]
    rows = []
    for name, curve in curves.items():
        picks = curve[:: max(1, args.points // 8)]
        rows.append([name] + [f"{v:.2f}" for v in picks])
    print(format_table(header, rows))


def cmd_fig12b(args: argparse.Namespace) -> None:
    """Figure 12(b): ScratchPipe per-stage latency."""
    out = fig12b_scratchpipe_latency(
        _setup(args), cache_fractions=tuple(args.fractions),
        workers=args.workers, localities=_localities(args),
    )
    print(banner(
        "Figure 12(b): ScratchPipe per-stage mean_latency "
        f"(warmup={effective_warmup(args.batches)})"
    ))
    for locality, sizes in out.items():
        for size, stages in sizes.items():
            print(format_breakdown(f"{locality:7s} cache={size:4s}", stages))


def cmd_fig13(args: argparse.Namespace) -> None:
    """Figure 13: end-to-end speedups."""
    points = fig13_speedup(
        _setup(args), cache_fractions=tuple(args.fractions),
        workers=args.workers, localities=_localities(args),
    )
    _print_speedup_points(
        "Figure 13: speedup normalised to static cache", points,
        point_label="locality",
    )


def _print_speedup_points(
    title: str, points, point_label: str = "sweep point"
) -> None:
    print(banner(title))
    rows = []
    for p in points:
        s = p.speedups()
        rows.append([
            p.locality, f"{p.cache_fraction:.0%}", f"{s['hybrid']:.2f}",
            "1.00", f"{s['strawman']:.2f}", f"{s['scratchpipe']:.2f}",
        ])
    print(format_table(
        [point_label, "cache", "hybrid", "static", "strawman", "scratchpipe"],
        rows,
    ))


def cmd_fig15a(args: argparse.Namespace) -> None:
    """Figure 15(a): embedding-dimension sensitivity."""
    points = fig15a_dim_sensitivity(
        dims=tuple(args.dims), cache_fraction=args.cache, base=_setup(args),
        workers=args.workers,
    )
    _print_speedup_points("Figure 15(a): embedding-dimension sensitivity", points)


def cmd_fig15b(args: argparse.Namespace) -> None:
    """Figure 15(b): lookups-per-table sensitivity."""
    points = fig15b_lookup_sensitivity(
        lookups=tuple(args.lookups), cache_fraction=args.cache,
        base=_setup(args), workers=args.workers,
    )
    _print_speedup_points("Figure 15(b): lookups-per-table sensitivity", points)


def cmd_policies(args: argparse.Namespace) -> None:
    """Section VI-E: replacement-policy sensitivity."""
    out = replacement_policy_sensitivity(
        _setup(args), cache_fraction=args.cache, workers=args.workers,
        localities=_localities(args),
    )
    print(banner(
        "Section VI-E: replacement-policy sensitivity (mean_latency "
        f"ms/iter, warmup={effective_warmup(args.batches)})"
    ))
    policies = sorted(next(iter(out.values())))
    print(format_table(
        ["locality"] + policies,
        [
            [loc] + [f"{per_policy[p] * 1e3:.2f}" for p in policies]
            for loc, per_policy in out.items()
        ],
    ))


def cmd_fig14(args: argparse.Namespace) -> None:
    """Figure 14: energy of static cache vs ScratchPipe."""
    out = fig14_energy(
        _setup(args), cache_fraction=args.cache,
        localities=_localities(args),
    )
    print(banner("Figure 14: energy per iteration (J)"))
    rows = [
        [loc, f"{e['static_cache']:.1f}", f"{e['scratchpipe']:.1f}"]
        for loc, e in out.items()
    ]
    print(format_table(["locality", "static cache", "scratchpipe"], rows))


def cmd_table1(args: argparse.Namespace) -> None:
    """Table I: AWS training cost comparison."""
    rows = table1_cost(
        _setup(args), cache_fraction=args.cache,
        localities=_localities(args),
    )
    print(banner("Table I: training cost over 1M iterations"))
    cells = []
    for sp, mg in rows:
        cells.append(sp.formatted())
        cells.append(mg.formatted())
    print(format_table(
        ["Dataset", "System", "AWS Instance", "Price/hr", "Iter. Time",
         "1M Iter. Cost"],
        cells,
    ))
    savings = [cost_saving(sp, mg) for sp, mg in rows]
    print(f"\naverage saving {np.mean(savings):.1f}x, max {max(savings):.1f}x")


def cmd_overhead(args: argparse.Namespace) -> None:
    """Section VI-D: scratchpad memory overhead."""
    _reject_scenario_flags(args, "overhead (storage sizing)")
    out = overhead_vi_d()
    print(banner("Section VI-D: GPU scratchpad overhead"))
    print(format_table(
        ["component", "MB"],
        [[k, f"{v / 1e6:.0f}"] for k, v in out.items()],
    ))


def _cache_label(cache: CacheSpec) -> str:
    """Banner text for a cache spec: ``2% cache`` or the per-table split."""
    if cache.is_uniform and cache.fraction is not None:
        return f"{cache.fraction:.0%} cache"
    return format_cache_spec(cache)


def cmd_compare(args: argparse.Namespace) -> None:
    """Head-to-head latency of the designs on one trace.

    ``--cache-spec`` replaces the uniform ``--cache`` fraction for every
    cached design (including heterogeneous per-table splits); ``--system``
    appends an extra spec-built row to the comparison, named after its
    system and, for a cached design, its own cache.
    """
    if args.locality not in LOCALITY_CLASSES and not args.trace:
        raise SystemExit(
            f"unknown locality {args.locality!r}; pick from {LOCALITY_CLASSES}"
        )
    setup = _setup(args)
    trace = setup.trace(args.locality)
    cache = _cache_spec(args) or CacheSpec(fraction=args.cache)
    specs = {
        "hybrid": SystemSpec(system="hybrid"),
        "static_cache": SystemSpec(system="static_cache", cache=cache),
        "strawman": SystemSpec(system="strawman", cache=cache),
        "scratchpipe": SystemSpec(system="scratchpipe", cache=cache),
    }
    if getattr(args, "system", None):
        extra = _dynamic_spec(args, args.cache)
        name = f"custom ({extra.system})"
        if extra.cache is not None:
            name += f" {_cache_label(extra.cache)}"
        specs[name] = extra
    # The sequential baselines have no pipeline fill to exclude; the
    # pipelined designs warm up over (at most) the trace the run affords.
    pipelined_warmup = effective_warmup(args.batches)
    warmups = {"hybrid": 0, "static_cache": 0}
    results = {}
    for name, spec in specs.items():
        try:
            system = setup.build(spec)
        except InvalidSystemSpecError as error:
            raise SystemExit(f"invalid system spec for {name}: {error}") from None
        results[name] = system.run_trace(trace).mean_latency(
            warmups.get(name, pipelined_warmup)
        )
    print(banner(
        f"System comparison — {args.locality}, {_cache_label(cache)}, "
        f"mean_latency (warmup={pipelined_warmup}; baselines 0)"
    ))
    print(format_table(
        ["system", "mean_latency ms/iter", "vs static"],
        [
            [name, f"{t * 1e3:.2f}", f"{results['static_cache'] / t:.2f}x"]
            for name, t in results.items()
        ],
    ))


def cmd_serve(args: argparse.Namespace) -> None:
    """Live-traffic replay: p50/p95/p99 latency + SLA-violation report.

    One (cache, rate) cell prints the full per-stage percentile report;
    ``--fractions``/``--rates`` sweep a {cache fraction x arrival rate}
    grid through ``run_grid`` (so ``--workers``, ``--checkpoint`` and
    ``--resume`` behave exactly like every other figure).
    """
    if args.locality not in LOCALITY_CLASSES and not args.trace:
        raise SystemExit(
            f"unknown locality {args.locality!r}; pick from {LOCALITY_CLASSES}"
        )
    setup = _setup(args)
    try:
        arrivals = parse_arrivals(args.arrivals)
        serve = ServeSpec(
            arrivals=arrivals,
            queue_depth=args.queue_depth,
            admission_depth=args.admission_depth,
            admission=args.admission,
            sla_seconds=args.sla / 1e3 if args.sla is not None else None,
        )
    except ArrivalSpecError as error:
        raise SystemExit(f"invalid serve configuration: {error}") from None
    locality = _localities(args, default=(args.locality,))[0]
    fractions = tuple(args.fractions) if args.fractions else (args.cache,)
    rates = tuple(args.rates) if args.rates else (arrivals.rate,)
    out = serve_latency_grid(
        arrivals, setup, cache_fractions=fractions, rates=rates,
        locality=locality, serve=serve, workers=args.workers,
    )
    if len(out) == 1:
        print(format_serve_report(next(iter(out.values()))))
        return
    warmup = effective_warmup(args.batches)
    print(banner(
        f"Live replay — {locality}, {args.arrivals}, "
        f"end_to_end latency percentiles, warmup={warmup}"
    ))
    print(format_table(
        ["cache", "rate/s", "p50 ms", "p95 ms", "p99 ms",
         "SLA violations", "rejected"],
        [
            [f"{fraction:.0%}", f"{rate:g}"]
            + [f"{p * 1e3:.3f}" for p in report.end_to_end]
            + [f"{report.sla_violation_rate:.4f}", str(report.rejected)]
            for (fraction, rate), report in out.items()
        ],
    ))


def cmd_driftsweep(args: argparse.Namespace) -> None:
    """Hit rate vs hot-set drift rate (locality-sensitivity study)."""
    out = drift_sensitivity(
        _setup(args),
        drift_rates=tuple(args.rates),
        cache_fraction=args.cache,
        localities=tuple(args.localities),
        workers=args.workers,
        cache=_cache_spec(args),
    )
    print(banner("ScratchPipe hit rate vs hot-set drift rate (rows/batch)"))
    rates = tuple(args.rates)
    print(format_table(
        ["locality"] + [f"rate={r:g}" for r in rates],
        [
            [loc] + [f"{per_rate[r]:.1%}" for r in rates]
            for loc, per_rate in out.items()
        ],
    ))


def cmd_scenarios(args: argparse.Namespace) -> None:
    """ScratchPipe behaviour across the named scenario presets."""
    if args.scenario or args.drift_rate is not None:
        raise SystemExit(
            "the scenarios subcommand compares every preset; the global "
            "--scenario/--drift-rate flags do not apply to it"
        )
    specs = {name: SCENARIO_PRESETS[name] for name in sorted(SCENARIO_PRESETS)}
    out = scenario_comparison(
        specs,
        _setup(args),
        cache_fraction=args.cache,
        locality=args.locality,
        workers=args.workers,
        cache=_cache_spec(args),
    )
    print(banner(
        f"Scenario matrix — {args.locality} base locality, "
        f"{args.cache:.0%} cache, "
        f"mean_latency (warmup={effective_warmup(args.batches)})"
    ))
    print(format_table(
        ["scenario", "mean_latency ms/iter", "plan hit rate"],
        [
            [name, f"{row['mean_latency'] * 1e3:.2f}",
             f"{row['hit_rate']:.1%}"]
            for name, row in out.items()
        ],
    ))


def cmd_systems(args: argparse.Namespace) -> None:
    """List every registered system and replacement policy."""
    _reject_scenario_flags(args, "systems (registry listing)")
    print(banner("Registered systems (repro.api)"))
    print(format_table(
        ["name", "class", "cache", "description"],
        [
            [entry.name, entry.cls.__name__,
             "required" if entry.requires_cache else "-",
             entry.description]
            for entry in system_entries()
        ],
    ))
    print(f"\nreplacement policies: {', '.join(registered_policies())}")
    print("build any of these via --system <name>, a JSON SystemSpec, or "
          "repro.api.build_system(...)")


def cmd_hetero(args: argparse.Namespace) -> None:
    """Heterogeneous per-table caches under cross-table correlation."""
    setup = _setup(args)
    try:
        splits = {text: parse_cache_spec(text) for text in args.splits}
    except InvalidSystemSpecError as error:
        raise SystemExit(f"invalid --splits entry: {error}") from None
    override = _cache_spec(args)
    if override is not None:
        splits[format_cache_spec(override)] = override
    out = heterogeneous_cache(
        setup,
        rhos=tuple(args.rhos),
        cache_specs=splits or None,
        locality=args.locality,
        workers=args.workers,
    )
    print(banner(
        f"Hit rate vs correlation rho x per-table cache split — "
        f"{args.locality} base locality"
    ))
    rhos = tuple(args.rhos)
    print(format_table(
        ["cache split"] + [f"rho={rho:g}" for rho in rhos],
        [
            [name] + [f"{cells[rho]['hit_rate']:.1%}" for rho in rhos]
            for name, cells in out.items()
        ],
    ))
    print("\nper-table hit rates at the largest rho:")
    top_rho = rhos[-1]
    print(format_table(
        ["cache split", "per-table hit rate"],
        [
            [name,
             " ".join(f"{rate:.1%}" for rate in cells[top_rho]["per_table"])]
            for name, cells in out.items()
        ],
    ))


def cmd_lint(args: argparse.Namespace) -> None:
    """Run the AST invariant linter (same engine as python -m repro.lint)."""
    _reject_scenario_flags(args, "lint (static analysis, no workload)")
    from repro.lint.cli import run_lint

    code = run_lint(args)
    if code:
        raise SystemExit(code)


def cmd_validate(args: argparse.Namespace) -> None:
    """Cross-validate the analytic model against the functional simulator."""
    _reject_scenario_flags(args, "validate (fixed cross-check workloads)")
    from repro.analysis.validation import run_validation_suite
    from repro.model.config import ModelConfig

    config = ModelConfig(
        num_tables=2,
        rows_per_table=400_000,
        embedding_dim=32,
        lookups_per_table=4,
        batch_size=256,
        bottom_mlp=(64, 32),
        top_mlp=(64, 1),
    )
    reports = run_validation_suite(config, _setup(args).hardware)
    print(banner("Analytic model vs functional simulator"))
    print(format_table(
        ["quantity", "predicted", "measured", "abs error"],
        [
            [name, f"{r.predicted:.4g}", f"{r.measured:.4g}",
             f"{r.absolute_error:.4g}"]
            for name, r in reports.items()
        ],
    ))


def cmd_timeline(args: argparse.Namespace) -> None:
    """Render the Figure 10 pipeline schedule with stage utilisation."""
    from repro.core.timeline import PipelineTimeline, render_ascii

    if args.locality not in LOCALITY_CLASSES and not args.trace:
        raise SystemExit(
            f"unknown locality {args.locality!r}; pick from {LOCALITY_CLASSES}"
        )
    setup = _setup(args)
    spec = _dynamic_spec(args, args.cache)
    try:
        system = setup.build(spec)
    except InvalidSystemSpecError as error:
        raise SystemExit(f"invalid system spec: {error}") from None
    if not hasattr(system, "simulate_cache"):
        raise SystemExit(
            f"timeline needs a pipelined dynamic-cache system; "
            f"{spec.system!r} does not stream the metadata pipeline"
        )
    timeline = PipelineTimeline(
        stage_seconds=[
            breakdown.by_stage()
            for breakdown in system.stream_breakdowns(setup.trace(args.locality))
        ],
        sync_seconds=setup.hardware.stage_sync_s,
    )
    print(banner(
        f"Pipeline schedule — {args.locality}, {_cache_label(spec.cache)}"
    ))
    print(render_ascii(timeline.cycles(), max_cycles=12))
    print(f"\nsteady-state cycle: "
          f"{timeline.steady_state_cycle_seconds() * 1e3:.2f} ms; "
          f"bottleneck: {timeline.bottleneck_stage()}")
    print(format_table(
        ["stage", "utilisation"],
        [[s, f"{u:.1%}"] for s, u in timeline.stage_utilisation().items()],
    ))


def _resolve_trace_arg(args: argparse.Namespace):
    try:
        return resolve_trace(
            args.source, max_batches=getattr(args, "max_batches", None)
        )
    except (InvalidTraceFileSpecError, FileNotFoundError) as error:
        raise SystemExit(f"invalid trace: {error}") from None


def _spec_with_geometry(args: argparse.Namespace, spec):
    """Apply the ingest geometry flags onto a resolved TraceFileSpec."""
    overrides = {
        "batch_size": args.batch_size,
        "num_tables": args.tables,
        "lookups_per_table": args.lookups,
        "rows_per_table": args.rows,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if not overrides:
        return spec
    try:
        return dataclasses.replace(spec, **overrides)
    except InvalidTraceFileSpecError as error:
        raise SystemExit(f"invalid geometry: {error}") from None


def cmd_ingest(args: argparse.Namespace) -> None:
    """Compile a trace file into the binary memmap format."""
    _reject_scenario_flags(args, "ingest (format compilation)")
    spec = _spec_with_geometry(args, _resolve_trace_arg(args))
    try:
        config = spec.configure(ModelConfig())
        source = spec.open(config)
    except (InvalidTraceFileSpecError, TraceVerificationError,
            ValueError) as error:
        raise SystemExit(f"cannot open trace: {error}") from None
    out = args.out
    if out is None:
        stem = args.source.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        out = f"{stem}.rtrc"
    path = compile_trace(source, out)
    digest = sha256_file(path)
    print(banner(f"compiled {args.source} -> {path}"))
    print(format_table(
        ["field", "value"],
        [
            ["batches", str(len(source))],
            ["geometry",
             f"{config.num_tables} tables x {config.batch_size} batch x "
             f"{config.lookups_per_table} lookups"],
            ["rows_per_table", str(config.rows_per_table)],
            ["bytes", str(path.stat().st_size)],
            ["sha256", digest],
        ],
    ))
    print("\nreplay it with:  python -m repro.cli --trace "
          f"{path} fig13 --fractions 0.05")


def cmd_trace(args: argparse.Namespace) -> None:
    """Inspect (and verify) a trace file or list the known traces."""
    _reject_scenario_flags(args, "trace (file inspection)")
    if args.source is None:
        print(banner("Known traces (repro.data.fetch.KNOWN_TRACES)"))
        print(format_table(
            ["name", "format", "pinned", "description"],
            [
                [entry.name, entry.spec.format,
                 "yes" if entry.spec.sha256 else "-",
                 entry.description]
                for entry in KNOWN_TRACES.values()
            ],
        ))
        return
    spec = _resolve_trace_arg(args)
    try:
        spec.verify()
        verified = "verified" if spec.sha256 else "unpinned"
    except TraceVerificationError as error:
        raise SystemExit(f"verification failed: {error}") from None
    try:
        config = spec.configure(ModelConfig())
        source = spec.open(config)
    except (InvalidTraceFileSpecError, ValueError) as error:
        raise SystemExit(f"cannot open trace: {error}") from None
    print(banner(f"trace {args.source}"))
    # An unpinned multi-GB file is not re-hashed just for display; pin it
    # (or run `ingest`, which prints the digest) to see a sha256 here.
    print(format_table(
        ["field", "value"],
        [
            ["path", spec.path],
            ["format", spec.resolved_format()],
            ["sha256", spec.sha256 or "(unpinned)"],
            ["verification", verified],
            ["batches", str(len(source))],
            ["geometry",
             f"{config.num_tables} tables x {config.batch_size} batch x "
             f"{config.lookups_per_table} lookups"],
            ["rows_per_table", str(config.rows_per_table)],
        ],
    ))


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="ScratchPipe reproduction experiments"
    )
    parser.add_argument("--batches", type=int, default=14,
                        help="trace length per experiment point")
    parser.add_argument("--workers", type=int, default=1,
                        help="processes for sweep grids (1 = serial "
                             "reference path; results are identical for "
                             "any worker count)")
    parser.add_argument("--scenario", default=None,
                        choices=sorted(SCENARIO_PRESETS),
                        help="run the experiment under a named "
                             "time-varying workload scenario")
    parser.add_argument("--drift-rate", type=float, default=None,
                        help="shortcut: add hot-set drift at this rate "
                             "(rows/batch) to the scenario")
    parser.add_argument("--system", default=None,
                        help="registered system name or JSON SystemSpec "
                             "(compare/timeline; see the systems "
                             "subcommand for names)")
    parser.add_argument("--executor", default=None,
                        help="stage executor: 'serial' (default) or "
                             "'overlapped', an alias that runs the same "
                             "schedule.  Applies to figure commands and "
                             "to compare/timeline; figure output never "
                             "depends on this flag")
    parser.add_argument("--trace", default=None,
                        help="replay a real trace file through the "
                             "experiment: a known name (see the trace "
                             "subcommand), a Criteo-style TSV, or a "
                             "compiled trace from `ingest`")
    parser.add_argument("--cache-spec", default=None,
                        help="cache spec shorthand, e.g. "
                             "'table0=0.04,rest=0.02' — per-table "
                             "heterogeneous caches for the dynamic-cache "
                             "commands (compare/timeline/driftsweep/"
                             "scenarios/hetero)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="journal completed sweep points to this "
                             "JSONL file; a re-run with the same "
                             "checkpoint skips them (long-running grids "
                             "survive interrupts)")
    parser.add_argument("--resume", action="store_true",
                        help="require an existing --checkpoint journal "
                             "and continue it (guards against a typo'd "
                             "path silently starting from scratch)")
    parser.add_argument("--point-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-point wall-clock budget for parallel "
                             "grids; a stalled worker is killed and the "
                             "point retried")
    parser.add_argument("--point-retries", type=int, default=None,
                        metavar="N",
                        help="failed attempts a sweep point may retry "
                             "before quarantine (default 2)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig6", help="static hit-rate curves")
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(func=cmd_fig6)

    p = sub.add_parser("fig12b", help="ScratchPipe stage latency")
    p.add_argument("--fractions", type=float, nargs="+", default=[0.02])
    p.set_defaults(func=cmd_fig12b, supports_trace=True)

    p = sub.add_parser("fig13", help="end-to-end speedups")
    p.add_argument("--fractions", type=float, nargs="+", default=[0.02])
    p.set_defaults(func=cmd_fig13, supports_trace=True)

    p = sub.add_parser("fig15a", help="embedding-dimension sensitivity")
    p.add_argument("--dims", type=int, nargs="+", default=[64, 128, 256])
    p.add_argument("--cache", type=float, default=0.02)
    p.set_defaults(func=cmd_fig15a)

    p = sub.add_parser("fig15b", help="lookups-per-table sensitivity")
    p.add_argument("--lookups", type=int, nargs="+", default=[1, 20, 50])
    # 10%: the 50-lookup point's hazard floor (~4.1%) exceeds the 2%
    # fraction the fixed-geometry figures default to.
    p.add_argument("--cache", type=float, default=0.10)
    p.set_defaults(func=cmd_fig15b)

    p = sub.add_parser("policies", help="replacement-policy sensitivity")
    p.add_argument("--cache", type=float, default=0.02)
    p.set_defaults(func=cmd_policies, supports_trace=True)

    p = sub.add_parser("fig14", help="energy comparison")
    p.add_argument("--cache", type=float, default=0.02)
    p.set_defaults(func=cmd_fig14, supports_trace=True)

    p = sub.add_parser("table1", help="AWS cost comparison")
    p.add_argument("--cache", type=float, default=0.02)
    p.set_defaults(func=cmd_table1, supports_trace=True)

    p = sub.add_parser("overhead", help="scratchpad memory overhead")
    p.set_defaults(func=cmd_overhead)

    p = sub.add_parser("compare", help="the designs head-to-head on one trace")
    p.add_argument("--locality", default="medium")
    p.add_argument("--cache", type=float, default=0.02)
    p.set_defaults(func=cmd_compare, supports_system=True,
                   supports_cache_spec=True, supports_trace=True)

    p = sub.add_parser("serve",
                       help="live-traffic replay: p50/p95/p99 latency + "
                            "SLA-violation rate")
    # Default rate sits just under the paper-scale ScratchPipe capacity
    # (~21 iterations/s at 47.8 ms/iter), where queueing tails are
    # informative rather than pure overload.
    p.add_argument("--arrivals", default="poisson:16",
                   help="arrival process: poisson:<rate>, "
                        "bursty:<rate>[:factor[:period[:duration]]], or "
                        "diurnal:<rate>[:amplitude[:period]]")
    p.add_argument("--locality", default="medium")
    p.add_argument("--cache", type=float, default=0.02)
    p.add_argument("--fractions", type=float, nargs="+", default=None,
                   help="cache-fraction axis of the serve grid "
                        "(default: just --cache)")
    p.add_argument("--rates", type=float, nargs="+", default=None,
                   help="arrival-rate axis of the serve grid "
                        "(default: just the --arrivals rate)")
    p.add_argument("--queue-depth", type=int, default=4,
                   help="bounded buffer slots between pipeline stages")
    p.add_argument("--admission-depth", type=int, default=16,
                   help="entry-queue slots (reject policy only)")
    p.add_argument("--admission", choices=("queue", "reject"),
                   default="queue")
    p.add_argument("--sla", type=float, default=None, metavar="MS",
                   help="end-to-end SLA in milliseconds (default: 3x the "
                        "mean end-to-end service time)")
    p.set_defaults(func=cmd_serve, supports_trace=True)

    p = sub.add_parser("driftsweep", help="hit rate vs hot-set drift rate")
    p.add_argument("--rates", type=float, nargs="+",
                   default=[0.0, 1.0, 4.0, 16.0, 64.0])
    p.add_argument("--cache", type=float, default=0.02)
    p.add_argument("--localities", nargs="+", default=["medium", "high"])
    p.set_defaults(func=cmd_driftsweep, supports_cache_spec=True)

    p = sub.add_parser("scenarios", help="scenario-matrix comparison")
    p.add_argument("--cache", type=float, default=0.02)
    p.add_argument("--locality", default="medium")
    p.set_defaults(func=cmd_scenarios, supports_cache_spec=True)

    p = sub.add_parser("hetero",
                       help="hit rate vs {correlation rho x per-table "
                            "cache split}")
    p.add_argument("--rhos", type=float, nargs="+",
                   default=[0.0, 0.25, 0.5, 0.75])
    p.add_argument("--splits", nargs="+", default=[],
                   help="cache-spec shorthands to compare "
                        "(default: budget-matched uniform vs "
                        "table0=0.04,rest=0.02)")
    p.add_argument("--locality", default="medium")
    p.set_defaults(func=cmd_hetero, supports_cache_spec=True)

    p = sub.add_parser("systems", help="list registered systems + policies")
    p.set_defaults(func=cmd_systems)

    p = sub.add_parser("validate", help="model-vs-simulator cross-checks")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lint",
                       help="AST invariant linter (determinism, "
                            "spec-purity, error taxonomy, shm/env "
                            "discipline)")
    from repro.lint.cli import build_parser as _build_lint_parser
    _build_lint_parser(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("timeline", help="pipeline schedule + utilisation")
    p.add_argument("--locality", default="random")
    p.add_argument("--cache", type=float, default=0.02)
    p.set_defaults(func=cmd_timeline, supports_system=True,
                   supports_cache_spec=True, supports_trace=True)

    p = sub.add_parser("ingest",
                       help="compile a TSV/named trace into the binary "
                            "memmap format")
    p.add_argument("source",
                   help="known trace name (e.g. criteo-sample) or file path")
    p.add_argument("--out", default=None,
                   help="destination (default: <source stem>.rtrc)")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--tables", type=int, default=None)
    p.add_argument("--lookups", type=int, default=None)
    p.add_argument("--rows", type=int, default=None,
                   help="hash-bucket rows per table")
    p.add_argument("--max-batches", type=int, default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("trace",
                       help="inspect/verify a trace file (no argument: "
                            "list known traces)")
    p.add_argument("source", nargs="?", default=None,
                   help="known trace name or file path")
    p.add_argument("--max-batches", type=int, default=None)
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> None:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if args.system and not getattr(args, "supports_system", False):
        raise SystemExit(
            f"{args.command} does not build a single spec-driven system; "
            "--system does not apply to it"
        )
    if args.cache_spec and not getattr(args, "supports_cache_spec", False):
        raise SystemExit(
            f"{args.command} sweeps its own cache sizes; "
            "--cache-spec does not apply to it"
        )
    if args.trace and not getattr(args, "supports_trace", False):
        raise SystemExit(
            f"{args.command} does not replay a single trace; "
            "--trace does not apply to it"
        )
    if args.resume:
        if not args.checkpoint:
            raise SystemExit("--resume requires --checkpoint PATH")
        if not Path(args.checkpoint).exists():
            raise SystemExit(
                f"--resume: checkpoint journal {args.checkpoint} does not "
                "exist (drop --resume to start a fresh journal there)"
            )
    overrides = {}
    if args.checkpoint:
        overrides["checkpoint"] = args.checkpoint
    if args.point_timeout is not None:
        overrides["timeout"] = args.point_timeout
    if args.point_retries is not None:
        overrides["max_retries"] = args.point_retries
    try:
        with grid_options(**overrides):
            args.func(args)
    except SweepGridError as error:
        print(error.report.format(), file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
