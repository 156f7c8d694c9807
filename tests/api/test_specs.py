"""Spec validation + round-trip tests for repro.api.

The satellite contract: every spec field validates up front in
``__post_init__`` with a named :class:`InvalidSystemSpecError` (the
``InvalidZipfExponentError`` pattern), and SystemSpec <-> JSON <-> CLI
string forms are lossless, hash/eq-stable, and pickle small.
"""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    CacheSpec,
    InvalidSystemSpecError,
    build_system,
    PipelineSpec,
    ScratchpadSpec,
    SystemSpec,
    format_cache_spec,
    parse_cache_spec,
    uniform_system_spec,
)


class TestCacheSpecValidation:
    def test_needs_exactly_one_size(self):
        with pytest.raises(InvalidSystemSpecError, match="exactly one"):
            CacheSpec()
        with pytest.raises(InvalidSystemSpecError, match="exactly one"):
            CacheSpec(fraction=0.02, slots=100)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, float("nan")])
    def test_bad_fraction(self, fraction):
        with pytest.raises(InvalidSystemSpecError, match="cache_fraction"):
            CacheSpec(fraction=fraction)

    @pytest.mark.parametrize("slots", [0, -1, 0.5, "10"])
    def test_bad_slots(self, slots):
        with pytest.raises(InvalidSystemSpecError):
            CacheSpec(slots=slots)

    def test_unknown_policy_fails_at_construction(self):
        with pytest.raises(InvalidSystemSpecError, match="unknown policy"):
            CacheSpec(fraction=0.02, policy="mru")

    def test_policy_normalised_to_lowercase(self):
        upper = CacheSpec(fraction=0.02, policy="LRU")
        assert upper.policy == "lru"
        assert upper == CacheSpec(fraction=0.02, policy="lru")
        assert hash(upper) == hash(CacheSpec(fraction=0.02, policy="lru"))

    def test_duplicate_table_override(self):
        with pytest.raises(InvalidSystemSpecError, match="duplicate"):
            CacheSpec(
                fraction=0.02,
                tables=((0, CacheSpec(fraction=0.1)),
                        (0, CacheSpec(fraction=0.2))),
            )

    def test_nested_overrides_rejected(self):
        nested = CacheSpec(
            fraction=0.1, tables=((1, CacheSpec(fraction=0.2)),)
        )
        with pytest.raises(InvalidSystemSpecError, match="uniform"):
            CacheSpec(fraction=0.02, tables=((0, nested),))

    def test_negative_table_index(self):
        with pytest.raises(InvalidSystemSpecError, match=">= 0"):
            CacheSpec(fraction=0.02, tables=((-1, CacheSpec(fraction=0.1)),))

    def test_mapping_normalised_to_sorted_tuple(self):
        a = CacheSpec(fraction=0.02, tables={3: CacheSpec(fraction=0.1),
                                             1: CacheSpec(fraction=0.2)})
        b = CacheSpec(fraction=0.02, tables=((1, CacheSpec(fraction=0.2)),
                                             (3, CacheSpec(fraction=0.1))))
        assert a == b
        assert hash(a) == hash(b)
        assert [index for index, _ in a.tables] == [1, 3]

    def test_out_of_range_override_fails_at_resolve(self):
        spec = CacheSpec(fraction=0.02, tables={4: CacheSpec(fraction=0.1)})
        with pytest.raises(InvalidSystemSpecError, match="only 2 tables"):
            spec.resolve(num_tables=2, rows_per_table=1000)

    def test_resolve_matches_legacy_slot_formula(self):
        spec = CacheSpec(fraction=0.013)
        resolved = spec.resolve(num_tables=3, rows_per_table=12345)
        assert all(r.slots == max(1, int(0.013 * 12345)) for r in resolved)

    def test_resolve_heterogeneous(self):
        spec = CacheSpec(
            fraction=0.005, policy="random",
            tables={0: CacheSpec(fraction=0.04, policy="lfu"),
                    2: CacheSpec(slots=77)},
        )
        resolved = spec.resolve(num_tables=3, rows_per_table=10_000)
        assert [(r.slots, r.policy) for r in resolved] == [
            (400, "lfu"), (50, "random"), (77, "lru"),
        ]


class TestOtherSpecValidation:
    def test_scratchpad_past_window(self):
        with pytest.raises(InvalidSystemSpecError, match="past_window"):
            ScratchpadSpec(past_window=-1)

    def test_pipeline_future_window(self):
        with pytest.raises(InvalidSystemSpecError, match="future_window"):
            PipelineSpec(future_window=-1)

    def test_system_name_shape(self):
        for bad in ("", "Has Spaces", "UPPER", 7, "7starts_with_digit"):
            with pytest.raises(InvalidSystemSpecError, match="system name"):
                SystemSpec(system=bad)

    def test_num_gpus(self):
        with pytest.raises(InvalidSystemSpecError, match="num_gpus"):
            SystemSpec(num_gpus=0)

    def test_wrong_component_types(self):
        with pytest.raises(InvalidSystemSpecError, match="CacheSpec"):
            SystemSpec(cache=0.02)
        with pytest.raises(InvalidSystemSpecError, match="PipelineSpec"):
            SystemSpec(pipeline={"future_window": 2})


class TestUpFrontSystemValidation:
    """Regression: a bad policy/future_window/fraction fails when the spec
    is built, with a named error, never deep inside system construction;
    the cached systems take no positional cache parameters at all."""

    def test_scratchpipe_bad_policy_up_front(self, tiny_cfg, hardware):
        with pytest.raises(InvalidSystemSpecError, match="unknown policy"):
            build_system(
                uniform_system_spec("scratchpipe", 0.05, policy="mru"),
                tiny_cfg, hardware,
            )

    def test_scratchpipe_bad_future_window_up_front(self, tiny_cfg, hardware):
        with pytest.raises(InvalidSystemSpecError, match="future_window"):
            build_system(
                uniform_system_spec("scratchpipe", 0.05, future_window=-2),
                tiny_cfg, hardware,
            )

    def test_scratchpipe_bad_fraction_still_valueerror(self, tiny_cfg, hardware):
        with pytest.raises(ValueError, match="cache_fraction"):
            build_system(
                uniform_system_spec("scratchpipe", 1.5), tiny_cfg, hardware
            )

    def test_strawman_bad_policy_up_front(self, tiny_cfg, hardware):
        with pytest.raises(InvalidSystemSpecError, match="unknown policy"):
            build_system(
                uniform_system_spec("strawman", 0.05, policy="fifo"),
                tiny_cfg, hardware,
            )

    def test_spec_and_positional_args_conflict(self, tiny_cfg, hardware):
        from repro.systems import (
            MultiGpuScratchPipeSystem,
            ScratchPipeSystem,
            StaticCacheSystem,
            StrawmanSystem,
        )

        for cls in (ScratchPipeSystem, StrawmanSystem, StaticCacheSystem,
                    MultiGpuScratchPipeSystem):
            spec = SystemSpec(system=cls.name, cache=CacheSpec(fraction=0.05))
            with pytest.raises(TypeError):
                cls(tiny_cfg, hardware, 0.05, spec=spec)
            with pytest.raises(TypeError):
                cls(tiny_cfg, hardware, 0.05)


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
policies = st.sampled_from(["lru", "lfu", "random"])


def cache_entries(**kwargs):
    return st.one_of(
        st.builds(
            CacheSpec,
            fraction=st.floats(min_value=0.001, max_value=1.0,
                               allow_nan=False),
            policy=policies,
            **kwargs,
        ),
        st.builds(
            CacheSpec,
            slots=st.integers(min_value=1, max_value=10_000),
            policy=policies,
            **kwargs,
        ),
    )


cache_specs = cache_entries(
    tables=st.dictionaries(
        st.integers(min_value=0, max_value=7), cache_entries(), max_size=3
    )
)

system_specs = st.builds(
    SystemSpec,
    system=st.sampled_from(
        ["scratchpipe", "strawman", "static_cache", "multi_gpu_scratchpipe"]
    ),
    cache=cache_specs,
    scratchpad=st.builds(
        ScratchpadSpec,
        past_window=st.integers(min_value=0, max_value=5),
        with_storage=st.booleans(),
    ),
    pipeline=st.builds(
        PipelineSpec,
        future_window=st.integers(min_value=0, max_value=4),
    ),
    num_gpus=st.integers(min_value=1, max_value=8),
)


class TestRoundTrips:
    @settings(max_examples=50, deadline=None)
    @given(spec=system_specs)
    def test_json_round_trip_lossless(self, spec):
        assert SystemSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=50, deadline=None)
    @given(spec=cache_specs)
    def test_cli_string_round_trip_lossless(self, spec):
        assert parse_cache_spec(format_cache_spec(spec)) == spec

    @settings(max_examples=50, deadline=None)
    @given(spec=system_specs)
    def test_hash_eq_stable_across_rebuild(self, spec):
        clone = SystemSpec.from_dict(json.loads(spec.to_json()))
        assert clone == spec
        assert hash(clone) == hash(spec)

    @settings(max_examples=50, deadline=None)
    @given(spec=system_specs)
    def test_pickle_round_trip_small(self, spec):
        payload = pickle.dumps(spec)
        assert len(payload) < 4096
        assert pickle.loads(payload) == spec

    def test_json_is_plain_data(self):
        spec = SystemSpec(
            system="scratchpipe",
            cache=CacheSpec(fraction=0.005,
                            tables={0: CacheSpec(fraction=0.04)}),
        )
        data = json.loads(spec.to_json())
        assert data["cache"]["tables"]["0"]["fraction"] == 0.04

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(InvalidSystemSpecError, match="unknown system spec"):
            SystemSpec.from_dict({"system": "scratchpipe", "turbo": True})
        with pytest.raises(InvalidSystemSpecError, match="unknown cache"):
            CacheSpec.from_dict({"fraction": 0.02, "rows": 10})
        # Removed oracle selectors: old spec dicts naming them fail loudly.
        with pytest.raises(InvalidSystemSpecError, match="legacy_select"):
            SystemSpec.from_dict({
                "system": "scratchpipe",
                "scratchpad": {"past_window": 3, "legacy_select": True},
            })
        with pytest.raises(InvalidSystemSpecError, match="unique_cache"):
            SystemSpec.from_dict({
                "system": "scratchpipe",
                "pipeline": {"future_window": 2, "unique_cache": False},
            })


class TestCacheSpecParsing:
    def test_bare_fraction(self):
        assert parse_cache_spec("0.02") == CacheSpec(fraction=0.02)

    def test_policy_suffix(self):
        assert parse_cache_spec("0.02:random") == CacheSpec(
            fraction=0.02, policy="random"
        )

    def test_issue_example(self):
        spec = parse_cache_spec("table0=0.04,rest=0.005")
        assert spec.fraction == 0.005
        assert dict(spec.tables) == {0: CacheSpec(fraction=0.04)}

    def test_slots_form(self):
        spec = parse_cache_spec("0=4096s:lfu,rest=0.01")
        assert dict(spec.tables) == {0: CacheSpec(slots=4096, policy="lfu")}

    def test_missing_rest_rejected(self):
        with pytest.raises(InvalidSystemSpecError, match="rest="):
            parse_cache_spec("table0=0.04")

    def test_garbage_rejected(self):
        with pytest.raises(InvalidSystemSpecError):
            parse_cache_spec("tableX=0.04,rest=0.01")
        with pytest.raises(InvalidSystemSpecError):
            parse_cache_spec("")


class TestUniformSystemSpec:
    def test_cacheless(self):
        spec = uniform_system_spec("hybrid")
        assert spec.cache is None

    def test_cached(self):
        spec = uniform_system_spec("scratchpipe", 0.05, policy="lfu",
                                   future_window=3)
        assert spec.cache == CacheSpec(fraction=0.05, policy="lfu")
        assert spec.pipeline.future_window == 3
