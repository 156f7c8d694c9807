"""Build-time hazard-window floor enforcement (the ROADMAP-warned bug).

A dynamic cache sized below the hold-mask hazard window used to die
mid-run with ``CachePressureError``; ``build_system`` now rejects such
specs at construction with a named ``InvalidSystemSpecError`` — uniform
and per-table splits alike.
"""

import pytest

from repro.api import (
    CacheSpec,
    InvalidSystemSpecError,
    SystemSpec,
    build_system,
    parse_cache_spec,
)
from repro.api.specs import ScratchpadSpec
from repro.core.scratchpad import hazard_floor_slots, required_slots
from repro.hardware.spec import DEFAULT_HARDWARE
from repro.model.config import ModelConfig, tiny_config

PAPER = ModelConfig()

#: (past_window + 1) * lookups * batch at paper defaults = 163840 slots.
PAPER_FLOOR = hazard_floor_slots(PAPER)


class TestFloorFunction:
    def test_paper_geometry_floor(self):
        assert PAPER_FLOOR == 4 * 20 * 2048
        # The floor sits below the paper's smallest evaluated fraction...
        assert PAPER_FLOOR <= 0.02 * PAPER.rows_per_table
        # ...and above the 1% split ROADMAP warns about.
        assert PAPER_FLOOR > 0.01 * PAPER.rows_per_table

    def test_is_the_hold_mask_window_of_required_slots(self):
        assert hazard_floor_slots(PAPER, past_window=3) == required_slots(
            PAPER, window_batches=4
        )
        assert hazard_floor_slots(PAPER, past_window=0) == required_slots(
            PAPER, window_batches=1
        )

    def test_clamped_by_table_rows(self):
        cfg = tiny_config(rows_per_table=50, batch_size=64,
                          lookups_per_table=4)
        assert hazard_floor_slots(cfg) == 50


class TestBuildTimeRejection:
    def test_roadmap_warned_split_fails_at_build_time(self):
        """The exact table0=0.01,rest=0.02-style split ROADMAP warns about."""
        spec = SystemSpec(
            system="scratchpipe",
            cache=parse_cache_spec("table0=0.01,rest=0.02"),
        )
        with pytest.raises(InvalidSystemSpecError) as excinfo:
            build_system(spec, PAPER, DEFAULT_HARDWARE)
        message = str(excinfo.value)
        assert "table 0" in message            # names the table
        assert "100000" in message             # the requested slots
        assert str(PAPER_FLOOR) in message     # the floor
        assert "CachePressureError".lower() not in message.lower()

    def test_undersized_uniform_fraction_rejected(self):
        spec = SystemSpec(system="scratchpipe",
                          cache=CacheSpec(fraction=0.01))
        with pytest.raises(InvalidSystemSpecError, match="hazard-window"):
            build_system(spec, PAPER, DEFAULT_HARDWARE)

    def test_undersized_absolute_slots_rejected(self):
        spec = SystemSpec(system="scratchpipe",
                          cache=CacheSpec(slots=PAPER_FLOOR - 1))
        with pytest.raises(InvalidSystemSpecError, match="hazard-window"):
            build_system(spec, PAPER, DEFAULT_HARDWARE)

    def test_floor_exactly_met_passes(self):
        spec = SystemSpec(system="scratchpipe",
                          cache=CacheSpec(slots=PAPER_FLOOR))
        system = build_system(spec, PAPER, DEFAULT_HARDWARE)
        assert system.table_slots == (PAPER_FLOOR,) * PAPER.num_tables

    def test_paper_default_two_percent_passes(self):
        spec = SystemSpec(system="scratchpipe",
                          cache=CacheSpec(fraction=0.02))
        system = build_system(spec, PAPER, DEFAULT_HARDWARE)
        assert system.table_slots == (200000,) * PAPER.num_tables

    def test_hazard_safe_hetero_split_passes(self):
        spec = SystemSpec(
            system="scratchpipe",
            cache=parse_cache_spec("table0=0.04,rest=0.02"),
        )
        system = build_system(spec, PAPER, DEFAULT_HARDWARE)
        assert system.table_slots[0] == 400000
        assert system.table_slots[1] == 200000

    def test_floor_tracks_past_window(self):
        # A shallower hold mask lowers the floor proportionally.
        shallow = SystemSpec(
            system="scratchpipe",
            cache=CacheSpec(fraction=0.01),
            scratchpad=ScratchpadSpec(past_window=1),
        )
        system = build_system(shallow, PAPER, DEFAULT_HARDWARE)
        assert system.table_slots == (100000,) * PAPER.num_tables

    def test_error_is_a_value_error_subclass(self):
        spec = SystemSpec(system="scratchpipe",
                          cache=CacheSpec(fraction=0.001))
        with pytest.raises(ValueError):
            build_system(spec, PAPER, DEFAULT_HARDWARE)


class TestPerSystemFloors:
    def test_strawman_floor_is_one_batch(self):
        # Sequential design: only the current batch's misses must fit.
        one_batch = required_slots(PAPER, window_batches=1)
        ok = SystemSpec(system="strawman", cache=CacheSpec(slots=one_batch))
        build_system(ok, PAPER, DEFAULT_HARDWARE)
        too_small = SystemSpec(system="strawman",
                               cache=CacheSpec(slots=one_batch - 1))
        with pytest.raises(InvalidSystemSpecError, match="hazard-window"):
            build_system(too_small, PAPER, DEFAULT_HARDWARE)

    def test_multi_gpu_scratchpipe_has_the_scratchpipe_floor(self):
        # Each GPU runs ScratchPipe's own per-table caches, bounded by the
        # same hold-mask window: 0.5% is below the 1.6% floor.
        for num_gpus in (1, 2):
            spec = SystemSpec(system="multi_gpu_scratchpipe",
                              cache=CacheSpec(fraction=0.005),
                              num_gpus=num_gpus)
            with pytest.raises(InvalidSystemSpecError,
                               match="hazard-window") as excinfo:
                build_system(spec, PAPER, DEFAULT_HARDWARE)
            assert str(PAPER_FLOOR) in str(excinfo.value)

    def test_static_cache_has_no_floor(self):
        # The static cache never evicts — any sliver of a cache is valid.
        spec = SystemSpec(system="static_cache",
                          cache=CacheSpec(fraction=0.001))
        build_system(spec, PAPER, DEFAULT_HARDWARE)

    def test_tiny_geometry_floor(self):
        cfg = tiny_config()  # 4 lookups x 16 batch x 1000 rows
        floor = hazard_floor_slots(cfg)
        assert floor == 4 * 4 * 16  # 256 slots = 25.6% of the table
        bad = SystemSpec(system="scratchpipe", cache=CacheSpec(fraction=0.1))
        with pytest.raises(InvalidSystemSpecError, match="256"):
            build_system(bad, cfg, DEFAULT_HARDWARE)
        good = SystemSpec(system="scratchpipe", cache=CacheSpec(fraction=0.3))
        build_system(good, cfg, DEFAULT_HARDWARE)
