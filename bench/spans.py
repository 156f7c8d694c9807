"""Spans around the calls into each layer, installed from outside ``src/``.

The benchmark measures the program as shipped: nothing under ``src/``
knows about tracing.  Instead :func:`instrument` replaces, for the
duration of a ``with`` block, the public functions of each layer (class
methods and module functions) with thin wrappers that open a span, call
the original and close the span.  Every span records its name, start,
end, parent span and the batch being retired, and is kept in memory
until the workload ends.

:class:`StreamClock` is the one wrapper the untraced run also installs:
it times every yield of ``ScratchPipePipeline.stream``, which is where a
batch retires.  In a traced run it also brackets each step of the stream
in a ``retire`` span, the root under which the pipeline's layer spans
nest.  Processes forked by the program (sweep pool workers) inherit the
clock; they append their retire times to files in ``sink_dir``, because
they return nothing else to the parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: Root span of one step of a pipeline stream (one retired batch).
RETIRE = "retire"


class Span(NamedTuple):
    """One closed span.  ``parent`` indexes :attr:`Tracer.spans` (-1: root);
    ``size`` is the work the call was handed (victims, keys), if counted."""

    name: str
    start: float
    end: float
    parent: int
    batch: int
    self_s: float
    size: int


class Tracer:
    """In-memory span recorder with self-time bookkeeping.

    A span's self time is its duration minus the durations of its direct
    children, so the self times of all spans under a root add up to the
    root's duration exactly.
    """

    def __init__(self) -> None:
        self.enabled = True
        #: Closed spans as plain ``Span``-ordered tuples (cheap to build on
        #: the hot path), ``None`` while a span is open.
        self.spans: List[Optional[tuple]] = []
        #: Batch index stamped on spans opened now (-1 outside a stream).
        self.batch = -1
        self._open: List[Tuple[int, str, int, int, float]] = []
        self._child_s: List[float] = []
        # A forked child (planner, pool worker) must not keep recording
        # into its copy: its spans would never reach the report.
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def begin(self, name: str, size: int = 0) -> None:
        index = len(self.spans)
        self.spans.append(None)
        self._open.append((index, name, self.batch, size, perf_counter()))
        self._child_s.append(0.0)

    def end(self) -> None:
        end = perf_counter()
        index, name, batch, size, start = self._open.pop()
        duration = end - start
        child_s = self._child_s.pop()
        if self._child_s:
            self._child_s[-1] += duration
        parent = self._open[-1][0] if self._open else -1
        self.spans[index] = (name, start, end, parent, batch, duration - child_s, size)

    def closed(self, start: int = 0, stop: Optional[int] = None) -> List[Span]:
        """Closed spans among ``spans[start:stop]``."""
        return [Span._make(s) for s in self.spans[start:stop] if s is not None]


def traced(fn: Callable, name: str, tracer: Tracer, size: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in a span named ``name``.

    ``size(*args, **kwargs)`` (optional) gives the span's ``size``.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.begin(name, 0 if size is None else size(*args, **kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()

    return wrapper


def _victims(policy, count, *args, **kwargs) -> int:
    return int(count)


def _keys(hit_map, keys, *args, **kwargs) -> int:
    return len(keys)


#: ``(span name, module, attribute path, size)``: the public call into each
#: layer.  ``Class.method`` paths are patched on that class and on every
#: subclass that overrides the method; bare names are module functions,
#: patched where their callers look them up.
SPAN_TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("replacement.select_eligible", "repro.core.replacement",
     "ReplacementPolicy.select_eligible", _victims),
    ("replacement.record_use", "repro.core.replacement",
     "ReplacementPolicy.record_use", None),
    ("monitor.on_plan", "repro.core.pipeline", "HazardMonitor.on_plan", None),
    ("hitmap.query", "repro.core.hitmap", "HitMap.query", None),
    ("hitmap.slots_raw", "repro.core.hitmap", "HitMap.slots_raw", None),
    ("hitmap.assign_many", "repro.core.hitmap", "HitMap.assign_many", _keys),
    ("holdmask.advance", "repro.core.holdmask", "HoldMask.advance", None),
    ("holdmask.hold_trusted", "repro.core.holdmask", "HoldMask.hold_trusted", None),
    ("scratchpad.plan_batch", "repro.core.scratchpad", "GpuScratchpad.plan_batch", None),
    ("scratchpad.read_slots_into", "repro.core.scratchpad",
     "GpuScratchpad.read_slots_into", None),
    ("scratchpad.read_slots", "repro.core.scratchpad", "GpuScratchpad.read_slots", None),
    ("scratchpad.write_slots", "repro.core.scratchpad", "GpuScratchpad.write_slots", None),
    ("trainer.train", "repro.systems.scratchpipe_system", "ScratchPipeTrainer.train", None),
    ("plan.slots_for", "repro.core.scratchpad", "TablePlan.slots_for", None),
    ("dense.forward", "repro.model.dlrm", "DenseNetwork.forward", None),
    ("dense.loss", "repro.model.dlrm", "DenseNetwork.loss", None),
    ("dense.backward", "repro.model.dlrm", "DenseNetwork.backward", None),
    ("dense.step", "repro.model.dlrm", "DenseNetwork.step", None),
    # The trainer calls the function through its own module's namespace.
    ("embedding.coalesce_gradients", "repro.systems.scratchpipe_system",
     "coalesce_gradients", None),
    ("data.materialise", "repro.data.trace", "MaterialisedDataset.__init__", None),
    # ``run_point`` imports ``replay`` from the package at call time.
    ("serve.replay", "repro.serve", "replay", None),
    ("sweep.run_point", "repro.analysis.sweep", "run_point", None),
)

#: Every span name :func:`instrument` records, in report order.
SPAN_NAMES = tuple(name for name, _, _, _ in SPAN_TARGETS)


def _patch_sites(module_name: str, path: str) -> List[Tuple[object, str]]:
    """``(owner, attribute)`` pairs to patch for one target."""
    module = importlib.import_module(module_name)
    if "." not in path:
        return [(module, path)]
    class_name, attr = path.split(".")
    pending = [getattr(module, class_name)]
    sites = []
    while pending:
        cls = pending.pop()
        if attr in vars(cls):
            sites.append((cls, attr))
        pending.extend(cls.__subclasses__())
    return sites


@contextmanager
def patched(replacements: Sequence[Tuple[object, str, Callable]]) -> Iterator[None]:
    """Set ``owner.attr = value`` for each triple, restoring on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap every :data:`SPAN_TARGETS` call in a span while the block runs."""
    replacements = []
    for name, module_name, path, size in SPAN_TARGETS:
        for owner, attr in _patch_sites(module_name, path):
            replacements.append(
                (owner, attr, traced(vars(owner)[attr], name, tracer, size))
            )
    with patched(replacements):
        yield


class StreamClock:
    """Times every ``ScratchPipePipeline.stream`` of this process and its forks.

    Each finished stream is recorded as a dict: ``start`` (first step),
    ``yields`` (one time per retired batch) and the summed
    ``unique``/``hits``/``misses``/``writebacks`` of the batch statistics
    it returned.  In the process that created the clock the records stay
    in memory; a forked process appends them, one JSON line per stream,
    to ``<sink_dir>/<pid>.jsonl``.
    """

    def __init__(self, tracer: Optional[Tracer] = None, sink_dir: Optional[str] = None) -> None:
        self.tracer = tracer
        self.sink_dir = sink_dir
        self._streams: List[dict] = []
        self._owner = os.getpid()

    def _record(self, record: dict) -> None:
        if os.getpid() == self._owner:
            self._streams.append(record)
        elif self.sink_dir is not None:
            path = os.path.join(self.sink_dir, f"{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as sink:
                sink.write(json.dumps(record) + "\n")

    def take(self) -> List[dict]:
        """Streams recorded in this process since the last call."""
        streams, self._streams = self._streams, []
        return streams

    def collect_sink(self) -> List[dict]:
        """Streams the forked processes wrote to ``sink_dir`` (then cleared)."""
        streams = []
        for entry in sorted(os.listdir(self.sink_dir)):
            path = os.path.join(self.sink_dir, entry)
            with open(path, encoding="utf-8") as sink:
                streams.extend(json.loads(line) for line in sink)
            os.remove(path)
        return streams

    def _clocked(self, steps: Iterator) -> Iterator:
        tracer = self.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        yields: List[float] = []
        record = {"start": perf_counter(), "yields": yields,
                  "unique": 0, "hits": 0, "misses": 0, "writebacks": 0}
        try:
            while True:
                if tracer is not None:
                    tracer.batch = len(yields)
                    tracer.begin(RETIRE)
                try:
                    stats = next(steps)
                except StopIteration:
                    return
                finally:
                    if tracer is not None:
                        tracer.end()
                        tracer.batch = -1
                yields.append(perf_counter())
                record["unique"] += stats.unique_ids
                record["hits"] += stats.hits
                record["misses"] += stats.misses
                record["writebacks"] += stats.writebacks
                yield stats
        finally:
            self._record(record)

    @contextmanager
    def installed(self) -> Iterator["StreamClock"]:
        from repro.core.pipeline import ScratchPipePipeline

        original = vars(ScratchPipePipeline)["stream"]

        @functools.wraps(original)
        def stream(pipeline, *args, **kwargs):
            return self._clocked(original(pipeline, *args, **kwargs))

        with patched([(ScratchPipePipeline, "stream", stream)]):
            yield self


def chrome_events(tracer: Tracer, pid: int, label: str) -> List[dict]:
    """The tracer's spans as Chrome trace-event ``X`` events (Perfetto)."""
    spans = tracer.closed()
    if not spans:
        return []
    origin = min(s.start for s in spans)
    names = {i: s[0] for i, s in enumerate(tracer.spans) if s is not None}
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
               "args": {"name": label}}]
    for s in spans:
        events.append({
            "name": s.name, "ph": "X", "pid": pid, "tid": 0,
            "ts": (s.start - origin) * 1e6, "dur": (s.end - s.start) * 1e6,
            "args": {"batch": s.batch, "parent": names.get(s.parent, "")},
        })
    return events
