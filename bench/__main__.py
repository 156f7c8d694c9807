"""Command line: ``run``, ``compare`` and ``baseline`` (plus the internal ``worker``).

``run`` starts one workload subprocess at a time: ``--repeats`` fresh
processes per workload, round-robin, which share the workload's
``--seconds`` of timed passes; with ``--trace 1`` instead one traced
process per workload.  It checks every output, prints each metric with
its unit and sample count, and with a single ``--workload`` ends with one
JSON line of the metrics named in ``BENCHMARK.json``.  Any failed check
makes it exit non-zero after the metrics are printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench import stats
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
BASELINE_FILE = Path(__file__).resolve().parent / "baseline.json"

#: A single-workload run finishes within 180 s, whatever its workers do.
SINGLE_RUN_DEADLINE_S = 170.0
#: Per-subprocess cap when several workloads run.
CHILD_TIMEOUT_S = 170.0

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunError(RuntimeError):
    """A workload subprocess failed to produce a result."""


def load_benchmark() -> dict:
    with open(BENCHMARK_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def load_baseline() -> dict:
    with open(BASELINE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint(numpy_version: Optional[str]) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


# ----------------------------------------------------------------------
# Workload subprocesses
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: float, traced: bool, check: bool,
              trace_out: Optional[str], timeout_s: float) -> dict:
    """Run one workload in a fresh process; return its result dict."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [sys.executable, "-m", "bench", "worker", "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds)]
    if not check:
        command.append("--no-check")
    if traced:
        command.append("--traced")
        if trace_out:
            command += ["--trace-out", trace_out]
    # A process group of its own lets a timeout take down the planners and
    # pool workers the program forks, too.  (This process runs no threads,
    # so ``preexec_fn`` is safe here.)
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, preexec_fn=os.setpgrp)
    try:
        out, _ = child.communicate(timeout=max(timeout_s, 1.0))
    except subprocess.TimeoutExpired:
        _stop_group(child.pid)
        child.communicate()
        raise RunError(f"{workload}: no result within {timeout_s:.0f}s") from None
    finally:
        # Helpers the program leaves behind (multiprocessing's resource
        # tracker outlives the worker by a moment) end with the group.
        _stop_group(child.pid)
    if child.returncode != 0:
        raise RunError(f"{workload}: worker exited with code {child.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError(f"{workload}: worker printed no result")
    return json.loads(lines[-1])


def _stop_group(group: int, grace_s: float = 5.0) -> None:
    """Kill every process left in ``group`` and wait until it is empty."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _rates(passes: List[dict]) -> List[float]:
    return [p["batches"] / p["seconds"] for p in passes]


def summarise(name: str, untraced: List[dict], traced: Optional[dict],
              baseline: dict, seed: int) -> dict:
    """One workload's metrics, layer numbers and check outcome."""
    results = untraced + ([traced] if traced else [])
    errors: List[str] = []
    for result in results:
        errors += [f"{name}: {e}" for e in result["errors"]]
        errors += [f"{name}: check {check} failed"
                   for check, ok in result["checks"].items() if not ok]
        if result["violations"]:
            errors.append(f"{name}: {result['violations']} hazard violations")
    digests = sorted({p["digest"] for r in results for p in r["passes"] + r["references"]})
    if len(digests) > 1:
        errors.append(f"{name}: outputs differ between passes or processes")
    expected = baseline.get("digests", {}).get(name)
    if digests and seed == baseline.get("seed") and expected and digests[0] != expected:
        errors.append(f"{name}: seed-{seed} output digest differs from bench/baseline.json")
    summary = {
        "correct": not errors,
        "errors": errors,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "digest": digests[0] if len(digests) == 1 else None,
        "metrics": {},
    }
    done = [r for r in untraced if r["passes"]]
    if done:
        intervals = [x for r in done for x in r["streams"]["intervals_ms"]]
        metrics = summary["metrics"]
        rates = [rate for r in done for rate in _rates(r["passes"])]
        metrics["batches_per_s"] = _metric("batches/s", rates, len(rates))
        for key, pct in (("batch_p50_ms", 50), ("batch_p95_ms", 95)):
            try:
                value = stats.percentile(intervals, pct)
            except ValueError as error:
                errors.append(f"{name}: {key}: {error}")
                summary["correct"] = False
            else:
                metrics[key] = {"value": value, "unit": "ms", "samples": len(intervals)}
        metrics["setup_s"] = _metric("s", [r["setup_s"] for r in done], len(done))
        metrics["peak_rss_mb"] = _metric("MB", [r["peak_rss_mb"] for r in done], len(done))
    if traced and traced["passes"]:
        summary["layers"] = _layers(traced)
    return summary


def _metric(unit: str, values: List[float], samples: int) -> dict:
    """The median of one number per pass or worker; the values stay."""
    return {"value": stats.median(values), "unit": unit, "samples": samples, "runs": values}


def _layers(traced: dict) -> Dict[str, float]:
    """Per-layer numbers of the traced process, with counts and overheads."""
    layers = dict(traced["layers"])
    streams = traced["streams"]
    batches = max(streams["batches"], 1)
    layers["plan.hit_ratio"] = streams["hits"] / streams["unique"] if streams["unique"] else 0.0
    layers["plan.unique_per_batch"] = streams["unique"] / batches
    layers["plan.misses_per_batch"] = streams["misses"] / batches
    layers["plan.writebacks_per_batch"] = streams["writebacks"] / batches
    layers["monitor.violations"] = traced["violations"]
    if "sweep" in traced:
        layers["sweep.retries"] = traced["sweep"]["retries"]
        layers["sweep.quarantined"] = traced["sweep"]["quarantined"]
    layers["executor.first_retire_ms"] = (
        stats.median(streams["first_retire_ms"]) if streams["first_retire_ms"] else 0.0
    )
    layers["trace.batches_per_s"] = stats.median(_rates(traced["passes"]))
    layers["trace.overhead"] = (
        1.0 - layers["trace.batches_per_s"] / stats.median(_rates(traced["references"]))
    )
    return layers


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _format(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"


def print_metrics(summaries: Dict[str, dict], spec: dict) -> None:
    """Every end-to-end number; a bound marks the ones ``BENCHMARK.json`` gates."""
    bounds = {m["name"]: f"{m['bound']:.0%}" for m in spec["end_to_end"]}
    gated = {w["name"] for w in spec["workloads"]}
    print(f"{'workload':22} {'metric':14} {'value':>10}  {'unit':10} {'bound':>5}  samples")
    for name, summary in summaries.items():
        for key, entry in summary["metrics"].items():
            bound = bounds.get(key, "-") if name in gated else "-"
            print(f"{name:22} {key:14} {_format(entry['value']):>10}  {entry['unit']:10} "
                  f"{bound:>5}  {entry['samples']}")
        print(f"{name:22} {'outputs':14} {'ok' if summary['correct'] else 'FAILED':>10}  "
              f"{'':10} {'':5}  {summary['attempted']} attempted, {summary['failed']} failed")


def print_layers(summaries: Dict[str, dict]) -> None:
    from bench.spans import SPAN_NAMES

    for name, summary in summaries.items():
        layers = summary.get("layers")
        if not layers:
            continue
        print(f"\n{name}: per-layer (traced run; self time per retired batch)")
        print(f"  {'span':32} {'calls/batch':>11} {'self ms/batch':>13} {'share':>7}")
        for span in SPAN_NAMES + ("executor.wait",):
            calls = layers[f"{span}.calls_per_batch"]
            share = layers[f"{span}.share"]
            if share == 0.0 and calls == 0.0:
                continue
            print(f"  {span:32} {calls:11.3g} {layers[f'{span}.self_ms_per_batch']:13.4f} "
                  f"{share:7.1%}")
        for key in ("trace.coverage", "trace.overhead", "executor.first_retire_ms",
                    "data.materialise.setup_share", "plan.hit_ratio",
                    "plan.unique_per_batch", "plan.misses_per_batch",
                    "plan.writebacks_per_batch", "replacement.victims_per_call",
                    "hitmap.assign_keys_per_call", "monitor.violations",
                    "sweep.retries", "sweep.quarantined", "sweep.dispatch_overhead_s"):
            if key in layers:
                print(f"  {key:46} {_format(layers[key]):>11}")


def result_line(summary: dict, spec: dict, traced: bool) -> Optional[str]:
    """The final JSON line, or ``None`` if a metric could not be measured."""
    metrics = {}
    for metric in spec["per_layer" if traced else "end_to_end"]:
        source = summary.get("layers", {}) if traced else summary["metrics"]
        value = source.get(metric["name"])
        if value is None:
            return None
        if isinstance(value, dict):
            value = value["value"]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def command_run(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        print("bench: --repeats must be at least 1", file=sys.stderr)
        return 2
    spec = load_benchmark()
    baseline = load_baseline()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = args.workload or list(WORKLOADS)
    deadline = time.monotonic() + (
        SINGLE_RUN_DEADLINE_S if len(names) == 1 else float("inf")
    )
    untraced: Dict[str, List[dict]] = {name: [] for name in names}
    traced: Dict[str, Optional[dict]] = dict.fromkeys(names)
    trace_out = os.path.abspath(args.trace_out) if args.trace_out else None
    if trace_out:
        os.makedirs(trace_out, exist_ok=True)
    try:
        if args.trace:
            for name in names:
                traced[name] = run_child(name, args.seed, args.seconds, True, True, trace_out,
                                         min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
        for _ in range(0 if args.trace else args.repeats):
            for name in names:
                # The workers of a run share its measuring time; a worker
                # whose last pass ended early leaves the rest to the next.
                done = untraced[name]
                measured = sum(p["seconds"] for r in done for p in r["passes"])
                budget = max(args.seconds - measured, 0.0) / (args.repeats - len(done))
                done.append(run_child(name, args.seed, budget, False, not done, None,
                                      min(CHILD_TIMEOUT_S, deadline - time.monotonic())))
    except RunError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    summaries = {
        name: summarise(name, untraced[name], traced[name], baseline, args.seed)
        for name in names
    }
    pair = [summaries.get(n, {}).get("digest")
            for n in ("plan_cold", "plan_cold_overlapped")]
    if all(pair) and pair[0] != pair[1]:
        summaries["plan_cold_overlapped"]["correct"] = False
        summaries["plan_cold_overlapped"]["errors"].append(
            "plan_cold_overlapped: outputs differ from plan_cold")
    first = untraced[names[0]][0] if untraced[names[0]] else traced[names[0]]
    box = fingerprint(first["numpy"])
    processes = "1 traced process" if args.trace else f"{args.repeats} processes"
    print(f"bench run: seed {args.seed}, {args.seconds:g} s and {processes} per workload, "
          f"{box['cpu_count']} cpus, {box['platform']}, Python {box['python']}, "
          f"numpy {box['numpy']}")
    print_metrics(summaries, spec)
    if args.trace:
        print_layers(summaries)
    if args.out:
        record = {
            "schema": 1, "seed": args.seed, "seconds": args.seconds,
            "repeats": args.repeats, "trace": int(args.trace),
            "fingerprint": box, "workloads": summaries,
        }
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    errors = [e for s in summaries.values() for e in s["errors"]]
    for error in errors:
        print(f"bench: {error}", file=sys.stderr)
    if len(names) == 1:
        line = result_line(summaries[names[0]], spec, bool(args.trace))
        if line is None:
            print("bench: a metric could not be measured", file=sys.stderr)
            return 1
        print(line)
    return 1 if errors else 0


def _load_set(path: str) -> List[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [run["workloads"][workload]["metrics"][metric]["value"]
            for run in runs if metric in run["workloads"].get(workload, {}).get("metrics", {})]


def _layer_values(runs: List[dict], workload: str, key: str) -> List[float]:
    return [run["workloads"][workload]["layers"][key] for run in runs
            if key in run["workloads"].get(workload, {}).get("layers", {})]


def command_compare(args: argparse.Namespace) -> int:
    spec = load_benchmark()
    parent, change = _load_set(args.parent), _load_set(args.change)
    workloads = [w for w in WORKLOADS
                 if any(w in r["workloads"] for r in parent)
                 and any(w in r["workloads"] for r in change)]
    regressed = False
    print(f"parent {args.parent} ({len(parent)} runs) vs change {args.change} "
          f"({len(change)} runs)")
    for workload in workloads:
        rows = []
        for metric in spec["end_to_end"]:
            a = _values(parent, workload, metric["name"])
            b = _values(change, workload, metric["name"])
            if not a or not b:
                continue
            verdict, won, pairs = stats.verdict(a, b, metric["better"], metric["bound"])
            regressed |= verdict == "regressed"
            rows.append((metric, a, b, verdict, won, pairs))
        worst = max((r[3] for r in rows), key=stats.VERDICTS.index, default="n/a")
        print(f"\n{workload}: {worst}")
        for metric, a, b, verdict, won, pairs in rows:
            print(f"  {metric['name']:15} {_spread_text(a)}  ->  {_spread_text(b)} "
                  f"{metric['unit']:10} won {won}/{pairs}  {verdict}")
        rate = _values(parent, workload, "batches_per_s")
        noise_share = stats.relative_spread(rate) if len(rate) > 1 else 0.0
        for metric in spec["per_layer"]:
            a = _layer_values(parent, workload, metric["name"])
            b = _layer_values(change, workload, metric["name"])
            if not a or not b or (stats.median(a) == 0 and stats.median(b) == 0):
                continue
            q1, q3 = stats.quartiles(a)
            delta = stats.median(b) - stats.median(a)
            noise = abs(delta) <= max(q3 - q1, noise_share * abs(stats.median(a)))
            print(f"  {metric['name']:40} {_format(stats.median(a)):>10} -> "
                  f"{_format(stats.median(b)):>10}  {'noise' if noise else 'delta'}")
    return 1 if regressed else 0


def _spread_text(values: List[float]) -> str:
    q1, q3 = stats.quartiles(values)
    return f"{_format(stats.median(values)):>9} [{_format(q1)}, {_format(q3)}]"


def command_baseline(args: argparse.Namespace) -> int:
    """Rewrite ``bench/baseline.json`` from seed-0 runs (untraced and traced)."""
    runs = [run for path in args.runs for run in _load_set(path)]
    spec = load_benchmark()
    seeds = {run["seed"] for run in runs}
    if seeds != {0}:
        print(f"bench: baseline runs must all use seed 0, got {sorted(seeds)}", file=sys.stderr)
        return 1
    baseline = {"seed": 0, "runs": len(runs), "seconds": runs[-1]["seconds"],
                "fingerprint": runs[-1]["fingerprint"],
                "digests": {}, "end_to_end": {}, "layer_shares": {}}
    for workload in [w for w in WORKLOADS if any(w in run["workloads"] for run in runs)]:
        digests = {run["workloads"][workload]["digest"] for run in runs
                   if workload in run["workloads"]}
        if len(digests) != 1 or None in digests:
            print(f"bench: {workload}: runs disagree on the output digest", file=sys.stderr)
            return 1
        baseline["digests"][workload] = digests.pop()
        units = {key: entry["unit"] for run in runs
                 for key, entry in run["workloads"].get(workload, {}).get("metrics", {}).items()}
        medians = {}
        for key, unit in units.items():
            values = _values(runs, workload, key)
            q1, q3 = stats.quartiles(values)
            medians[key] = {"median": stats.median(values), "q1": q1, "q3": q3,
                            "unit": unit, "runs": len(values)}
        baseline["end_to_end"][workload] = medians
        shares = {m["name"]: stats.median(_layer_values(runs, workload, m["name"]))
                  for m in spec["per_layer"]
                  if m["name"].endswith(".share") and _layer_values(runs, workload, m["name"])}
        baseline["layer_shares"][workload] = {k: v for k, v in shares.items() if v}
    with open(BASELINE_FILE, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def command_worker(args: argparse.Namespace) -> int:
    from bench.spans import Tracer, chrome_events
    from bench.workloads import run_workload

    tracer = Tracer() if args.traced else None
    sink_dir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        result = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, tracer, sink_dir,
            check=args.check,
        )
    finally:
        shutil.rmtree(sink_dir, ignore_errors=True)
    if tracer is not None and args.trace_out:
        path = os.path.join(args.trace_out, f"{args.workload}.trace.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": chrome_events(tracer, os.getpid(), args.workload)}, fh)
    print(json.dumps(result))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run workloads, check outputs, print metrics")
    run.add_argument("--workload", action="append", choices=list(WORKLOADS),
                     help="workload to run (repeatable; default: all)")
    run.add_argument("--seed", type=int, default=0, help="the only workload seed")
    run.add_argument("--seconds", type=float,
                     help="measuring time per workload, shared by its processes "
                          "(default: run_seconds of BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: run one traced process per workload instead, and "
                          "report the per-layer metrics")
    run.add_argument("--repeats", type=int, default=3,
                     help="fresh untraced processes per workload")
    run.add_argument("--out", help="append this run's record (one JSON line) to a file")
    run.add_argument("--trace-out", help="directory for Chrome trace-event files")
    run.set_defaults(handler=command_run)

    compare = sub.add_parser("compare", help="compare two sets of run records")
    compare.add_argument("parent")
    compare.add_argument("change")
    compare.set_defaults(handler=command_compare)

    baseline = sub.add_parser("baseline", help="rewrite bench/baseline.json from seed-0 runs")
    baseline.add_argument("runs", nargs="+")
    baseline.set_defaults(handler=command_baseline)

    worker = sub.add_parser("worker", help=argparse.SUPPRESS)
    worker.add_argument("--workload", required=True, choices=list(WORKLOADS))
    worker.add_argument("--seed", type=int, required=True)
    worker.add_argument("--seconds", type=float, required=True)
    worker.add_argument("--no-check", dest="check", action="store_false")
    worker.add_argument("--traced", action="store_true")
    worker.add_argument("--trace-out")
    worker.set_defaults(handler=command_worker)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
