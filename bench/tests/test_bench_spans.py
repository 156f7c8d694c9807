"""Span bookkeeping: self-time arithmetic and install/restore of wrappers."""

import itertools

import numpy as np

from bench import spans
from bench.spans import Tracer, instrument


def _fake_clock(monkeypatch, ticks):
    times = iter(ticks)
    monkeypatch.setattr(spans, "perf_counter", lambda: next(times))


def test_self_time_subtracts_direct_children_only(monkeypatch):
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    _fake_clock(monkeypatch, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer()
    tracer.begin("root")
    tracer.begin("a")
    tracer.begin("a1")
    tracer.end()
    tracer.end()
    tracer.begin("b")
    tracer.end()
    tracer.end()
    by_name = {s.name: s for s in tracer.closed()}
    assert by_name["root"].self_s == 3.0
    assert by_name["a"].self_s == 2.0
    assert by_name["a1"].self_s == 1.0
    assert by_name["b"].self_s == 4.0
    assert sum(s.self_s for s in tracer.closed()) == 10.0
    names = [s.name for s in tracer.closed()]
    assert by_name["a1"].parent == names.index("a")
    assert by_name["a"].parent == names.index("root")
    assert by_name["root"].parent == -1


def test_spans_keep_open_order_and_batch(monkeypatch):
    _fake_clock(monkeypatch, itertools.count())
    tracer = Tracer()
    tracer.batch = 7
    tracer.begin("outer")
    tracer.begin("inner")
    tracer.end()
    tracer.end()
    assert [s.name for s in tracer.closed()] == ["outer", "inner"]
    assert {s.batch for s in tracer.closed()} == {7}


def test_instrument_wraps_and_restores():
    from repro.core.hitmap import HitMap

    original = HitMap.assign_many
    tracer = Tracer()
    hit_map = HitMap(num_slots=4, num_rows=10)
    with instrument(tracer):
        assert HitMap.assign_many is not original
        hit_map.assign_many(np.array([1, 2]), np.array([0, 3]))
    assert HitMap.assign_many is original
    (span,) = [s for s in tracer.closed() if s.name == "hitmap.assign_many"]
    assert span.size == 2
    hit_map.assign_many(np.array([5]), np.array([1]))
    assert len(tracer.closed()) == 1


def test_disabled_tracer_records_nothing():
    from repro.core.holdmask import HoldMask

    tracer = Tracer()
    tracer.enabled = False
    with instrument(tracer):
        HoldMask(num_slots=4).advance()
    assert tracer.closed() == []
