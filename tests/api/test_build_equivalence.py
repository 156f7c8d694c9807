"""``build_system`` is the one door to every registered builtin system.

Hypothesis property tests pin a uniform cache spec to the same cache
spelled out as one override per table (the two ways ``CacheSpec``
resolves a table), the cache-less baselines to their plain
``(config, hardware)`` constructors, plus the heterogeneous path's
internal consistency.
"""

from dataclasses import replace

from hypothesis import given, settings, strategies as st
import pytest

from repro.api import (
    CacheSpec,
    SystemSpec,
    build_system,
    uniform_system_spec,
)
from repro.data.trace import MaterialisedDataset, make_dataset
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import tiny_config
from repro.systems import HybridSystem, MultiGpuSystem, OverlappedHybridSystem

CFG = tiny_config(
    rows_per_table=4000, batch_size=8, lookups_per_table=3, num_tables=2
)
TRACE = MaterialisedDataset(make_dataset(CFG, "medium", seed=3,
                                         num_batches=14))


def results_equal(a, b):
    assert a.iteration_times == b.iteration_times
    assert a.energies == b.energies
    for x, y in zip(a.breakdowns, b.breakdowns):
        assert x.by_stage() == y.by_stage()
    return True


def uniform_equals_per_table(spec):
    """Run ``spec`` and the same cache written out per table; both must
    produce bit-identical results."""
    rest = spec.cache
    spelled_out = replace(spec, cache=replace(rest, tables={
        table: CacheSpec(fraction=rest.fraction, policy=rest.policy)
        for table in range(CFG.num_tables)
    }))
    uniform = build_system(spec, CFG, DEFAULT_HARDWARE).run_trace(TRACE)
    per_table = build_system(spelled_out, CFG, DEFAULT_HARDWARE).run_trace(TRACE)
    return results_equal(uniform, per_table)


uniform_params = st.fixed_dictionaries({
    "fraction": st.sampled_from([0.05, 0.11, 0.4, 1.0]),
    "policy": st.sampled_from(["lru", "lfu", "random"]),
    "future_window": st.integers(min_value=0, max_value=3),
})


class TestUniformSpecEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(params=uniform_params)
    def test_scratchpipe_bit_identical(self, params):
        assert uniform_equals_per_table(uniform_system_spec(
            "scratchpipe", params["fraction"], policy=params["policy"],
            future_window=params["future_window"],
        ))

    @settings(max_examples=8, deadline=None)
    @given(params=uniform_params)
    def test_strawman_bit_identical(self, params):
        assert uniform_equals_per_table(uniform_system_spec(
            "strawman", params["fraction"], policy=params["policy"]
        ))

    @settings(max_examples=8, deadline=None)
    @given(fraction=st.sampled_from([0.05, 0.11, 0.4, 1.0]))
    def test_static_cache_bit_identical(self, fraction):
        assert uniform_equals_per_table(
            uniform_system_spec("static_cache", fraction)
        )

    def test_hybrid_bit_identical(self):
        via_spec = build_system("hybrid", CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        assert results_equal(
            via_spec, HybridSystem(CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        )

    def test_overlapped_hybrid_bit_identical(self):
        via_spec = build_system(
            "overlapped_hybrid", CFG, DEFAULT_HARDWARE
        ).run_trace(TRACE)
        assert results_equal(
            via_spec,
            OverlappedHybridSystem(CFG, DEFAULT_HARDWARE).run_trace(TRACE),
        )

    @pytest.mark.parametrize("num_gpus", [1, 2, 8])
    def test_multi_gpu_bit_identical(self, num_gpus):
        spec = SystemSpec(system="multi_gpu", num_gpus=num_gpus)
        via_spec = build_system(spec, CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        via_direct = MultiGpuSystem(
            CFG, DEFAULT_HARDWARE, num_gpus=num_gpus
        ).run_trace(TRACE)
        assert results_equal(via_spec, via_direct)

    @pytest.mark.parametrize("num_gpus", [1, 2])
    def test_multi_gpu_scratchpipe_bit_identical(self, num_gpus):
        assert uniform_equals_per_table(uniform_system_spec(
            "multi_gpu_scratchpipe", 0.1, num_gpus=num_gpus
        ))


class TestHeterogeneousPath:
    def heterogeneous_system(self):
        spec = SystemSpec(
            system="scratchpipe",
            cache=CacheSpec(
                fraction=0.05, policy="lru",
                tables={0: CacheSpec(fraction=0.25, policy="lfu")},
            ),
        )
        return build_system(spec, CFG, DEFAULT_HARDWARE)

    def test_per_table_index_structures_sized_independently(self):
        system = self.heterogeneous_system()
        assert system.table_slots == (1000, 200)
        assert system.table_policies == ("lfu", "lru")
        system.simulate_cache(TRACE, 4)
        pads = system._scratchpads
        assert [pad.num_slots for pad in pads] == [1000, 200]
        assert [pad.hold_mask.num_slots for pad in pads] == [1000, 200]
        assert [pad.policy.num_slots for pad in pads] == [1000, 200]
        assert [type(pad.policy).__name__ for pad in pads] == [
            "LfuPolicy", "LruPolicy",
        ]

    def test_per_table_stats_roll_up(self):
        system = self.heterogeneous_system()
        aggregate = system.aggregate_cache_stats(TRACE)
        assert sum(aggregate.per_table_hits) == aggregate.hits
        assert sum(aggregate.per_table_unique) == aggregate.unique_ids
        assert sum(aggregate.per_table_misses) == aggregate.misses
        rates = aggregate.per_table_hit_rates()
        assert len(rates) == CFG.num_tables
        assert all(0.0 <= rate <= 1.0 for rate in rates)

    def test_per_batch_stats_carry_per_table_hits(self):
        system = self.heterogeneous_system()
        for stats in system.simulate_cache(TRACE, 6):
            assert sum(stats.per_table_hits) == stats.hits
            assert sum(stats.per_table_unique) == stats.unique_ids

    def test_uniform_override_equals_flat_spec(self):
        """An override identical to the rest entry changes nothing."""
        flat = SystemSpec(system="scratchpipe",
                          cache=CacheSpec(fraction=0.05))
        padded = SystemSpec(
            system="scratchpipe",
            cache=CacheSpec(fraction=0.05,
                            tables={1: CacheSpec(fraction=0.05)}),
        )
        a = build_system(flat, CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        b = build_system(padded, CFG, DEFAULT_HARDWARE).run_trace(TRACE)
        assert results_equal(a, b)

    def test_static_cache_heterogeneous_hot_rows(self):
        spec = SystemSpec(
            system="static_cache",
            cache=CacheSpec(fraction=0.01,
                            tables={0: CacheSpec(fraction=0.5)}),
        )
        system = build_system(spec, CFG, DEFAULT_HARDWARE)
        assert system.table_hot_rows == (2000, 40)
        result = system.run_trace(TRACE)
        assert len(result.iteration_times) == len(TRACE)

    def test_scratchpad_spec_fields_are_honored(self):
        from repro.api import ScratchpadSpec

        spec = SystemSpec(
            system="scratchpipe",
            cache=CacheSpec(fraction=0.05),
            scratchpad=ScratchpadSpec(past_window=4, with_storage=True),
        )
        system = build_system(spec, CFG, DEFAULT_HARDWARE)
        system.simulate_cache(TRACE, 4)
        for pad in system._scratchpads:
            assert pad.storage is not None
            assert pad.past_window == 4

    def test_strawman_pins_past_window_at_zero(self):
        from repro.api import ScratchpadSpec

        spec = SystemSpec(
            system="strawman",
            cache=CacheSpec(fraction=0.05),
            scratchpad=ScratchpadSpec(past_window=4),
        )
        system = build_system(spec, CFG, DEFAULT_HARDWARE)
        system.run_trace(TRACE, 2)
        for pad in system._scratchpads:
            # Sequential execution fixes the past window at 0 regardless
            # of the spec (documented on ScratchpadSpec).
            assert pad.past_window == 0

    def test_strawman_heterogeneous(self):
        spec = SystemSpec(
            system="strawman",
            cache=CacheSpec(fraction=0.05,
                            tables={0: CacheSpec(fraction=0.25)}),
        )
        system = build_system(spec, CFG, DEFAULT_HARDWARE)
        assert system.table_slots == (1000, 200)
        system.run_trace(TRACE)
        assert [pad.num_slots for pad in system._scratchpads] == [1000, 200]

    def test_bigger_table_cache_improves_that_table(self):
        """End-to-end: giving table 0 a much bigger cache must not hurt it.

        Uses a long high-locality trace where the small cache evicts; the
        boosted table's hit rate must be at least the small-cache one.
        """
        cfg = tiny_config(
            rows_per_table=20_000, batch_size=16, lookups_per_table=4,
            num_tables=2,
        )
        trace = MaterialisedDataset(
            make_dataset(cfg, "high", seed=1, num_batches=120)
        )
        boosted = build_system(
            SystemSpec(system="scratchpipe",
                       cache=CacheSpec(fraction=0.03,
                                       tables={0: CacheSpec(fraction=0.2)})),
            cfg, DEFAULT_HARDWARE,
        ).aggregate_cache_stats(trace)
        rates = boosted.per_table_hit_rates()
        assert rates[0] > rates[1]
