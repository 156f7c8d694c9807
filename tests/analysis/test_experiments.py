"""Tests for the experiment entry points (repro.analysis.experiments).

Runs every figure/table generator at reduced scale and asserts the *shape*
properties the paper reports (orderings, monotonicity, ranges), keeping the
full-scale sweeps to the benchmark harness.
"""

import numpy as np
import pytest

from repro.analysis.experiments import (
    ExperimentSetup,
    batch_size_sensitivity,
    fig3_access_counts,
    fig5_breakdown,
    fig6_hit_rate,
    fig12a_baseline_latency,
    fig12b_scratchpipe_latency,
    fig13_speedup,
    fig14_energy,
    fig15a_dim_sensitivity,
    fig15b_lookup_sensitivity,
    mlp_intensity_sensitivity,
    overhead_vi_d,
    replacement_policy_sensitivity,
    table1_cost,
)
from repro.data.datasets import LOCALITY_CLASSES
from repro.model.config import ModelConfig


@pytest.fixture(scope="module")
def setup():
    """Reduced-scale setup: same structure, ~100x less work.

    Sized so a 2% cache satisfies the Section VI-D sliding-window bound
    (0.02 * rows >= ~5x the per-batch unique IDs), and with the per-cycle
    sync overhead scaled down along with the workload so the reduced-scale
    run stays in the memory-bound regime the paper's shapes come from.
    """
    import dataclasses

    from repro.hardware.spec import DEFAULT_HARDWARE

    config = ModelConfig(
        num_tables=2,
        rows_per_table=1_200_000,
        embedding_dim=64,
        lookups_per_table=8,
        batch_size=512,
        bottom_mlp=(128, 64),
        top_mlp=(128, 64, 1),
    )
    hardware = dataclasses.replace(DEFAULT_HARDWARE, stage_sync_s=5e-5)
    return ExperimentSetup(config=config, hardware=hardware, num_batches=14)


class TestFig3:
    def test_curves_descend(self):
        curves = fig3_access_counts(num_rows=10**5, total_accesses=10**6,
                                    n_points=50)
        assert set(curves) == {"Alibaba", "Kaggle Anime", "MovieLens", "Criteo"}
        for curve in curves.values():
            assert np.all(np.diff(curve) <= 0)

    def test_criteo_steepest(self):
        curves = fig3_access_counts(num_rows=10**5, total_accesses=10**6,
                                    n_points=50)
        criteo_ratio = curves["Criteo"][0] / curves["Criteo"][-1]
        alibaba_ratio = curves["Alibaba"][0] / curves["Alibaba"][-1]
        assert criteo_ratio > alibaba_ratio


class TestFig5:
    def test_structure_and_caching_helps(self, setup):
        out = fig5_breakdown(setup, cache_fractions=(0.02,))
        assert set(out) == {"random", "low", "medium", "high"}
        for locality, designs in out.items():
            assert "hybrid" in designs and "static_2%" in designs
        # For high locality the static cache must cut CPU time noticeably.
        hybrid_cpu = (
            out["high"]["hybrid"]["cpu_embedding_forward"]
            + out["high"]["hybrid"]["cpu_embedding_backward"]
        )
        static_cpu = (
            out["high"]["static_2%"]["cpu_embedding_forward"]
            + out["high"]["static_2%"]["cpu_embedding_backward"]
        )
        assert static_cpu < hybrid_cpu


class TestFig6:
    def test_full_cache_always_hits(self):
        fractions, curves = fig6_hit_rate(cache_fractions=[0.02, 0.5, 1.0])
        for curve in curves.values():
            assert curve[-1] == pytest.approx(1.0)

    def test_criteo_knee(self):
        fractions, curves = fig6_hit_rate(cache_fractions=[0.02])
        assert curves["Criteo"][0] > 0.8


class TestFig12:
    def test_12a_static_reduces_cpu_share(self, setup):
        out = fig12a_baseline_latency(setup, cache_fractions=(0.02, 0.10))
        high = out["high"]
        total_0 = sum(high["0%"].values())
        total_10 = sum(high["10%"].values())
        assert total_10 < total_0

    def test_12b_stage_structure(self, setup):
        out = fig12b_scratchpipe_latency(setup, cache_fractions=(0.02,))
        stages = out["medium"]["2%"]
        assert set(stages) == {"plan", "collect", "exchange", "insert", "train"}
        assert all(v >= 0 for v in stages.values())

    def test_12b_collect_shrinks_with_locality(self, setup):
        out = fig12b_scratchpipe_latency(setup, cache_fractions=(0.02,))
        assert out["high"]["2%"]["collect"] < out["random"]["2%"]["collect"]


class TestFig13:
    def test_scratchpipe_always_fastest(self, setup):
        points = fig13_speedup(setup, cache_fractions=(0.02,))
        assert len(points) == 4
        for point in points:
            speedups = point.speedups()
            assert speedups["scratchpipe"] > speedups["strawman"] > 0
            assert speedups["scratchpipe"] > 1.0
            assert speedups["static_cache"] == 1.0

    def test_speedup_shrinks_with_locality(self, setup):
        points = {
            p.locality: p.speedups()["scratchpipe"]
            for p in fig13_speedup(setup, cache_fractions=(0.02,))
        }
        assert points["random"] > points["high"]


class TestFig14:
    def test_scratchpipe_uses_less_energy(self, setup):
        out = fig14_energy(setup)
        for locality, energies in out.items():
            assert energies["scratchpipe"] < energies["static_cache"]


class TestFig15:
    def test_dim_sensitivity_runs(self, setup):
        points = fig15a_dim_sensitivity(dims=(64, 128), base=setup)
        assert len(points) == 8
        assert all(p.speedups()["scratchpipe"] > 0.5 for p in points)

    def test_lookup_sensitivity_speedup_grows(self, setup):
        points = fig15b_lookup_sensitivity(lookups=(1, 8), base=setup)
        by_key = {p.locality: p.speedups()["scratchpipe"] for p in points}
        # More lookups -> heavier embedding traffic -> bigger win (Fig 15b).
        assert by_key["random/lookups=8"] > by_key["random/lookups=1"]


class TestSensitivityExtras:
    def test_replacement_policies_run(self, setup):
        out = replacement_policy_sensitivity(setup, cache_fraction=0.02,
                                             policies=("lru", "random"))
        for locality, results in out.items():
            assert set(results) == {"lru", "random"}
            assert all(v > 0 for v in results.values())

    def test_batch_size_sensitivity_runs(self, setup):
        points = batch_size_sensitivity(batch_sizes=(128, 256), base=setup)
        assert len(points) == 2


class TestTable1:
    def test_rows_and_savings(self, setup):
        rows = table1_cost(setup)
        assert len(rows) == 4
        for sp_row, mg_row in rows:
            assert sp_row.instance.name == "p3.2xlarge"
            assert mg_row.instance.name == "p3.16xlarge"
            # ScratchPipe must always be the cheaper option (Table I).
            assert sp_row.cost < mg_row.cost


class TestOverhead:
    def test_paper_bounds(self):
        out = overhead_vi_d()
        # Section VI-D: 960 MB worst-case Storage, < 4 GB total.
        assert out["storage_worst_case_bytes"] == pytest.approx(1.0066e9, rel=0.01)
        assert out["total_bytes"] < 4e9
        assert out["hitmap_bytes"] < 1e9


class TestMlpIntensity:
    def test_runs_and_positive(self, setup):
        from repro.analysis.experiments import mlp_intensity_sensitivity

        points = mlp_intensity_sensitivity(
            width_multipliers=(1, 2), base=setup
        )
        assert len(points) == 2
        for p in points:
            assert p.scratchpipe_s > 0
            assert p.speedups()["scratchpipe"] > 0.5


class TestGeometrySweepsKeepTheBaseSetup:
    """Each geometry sweep is Figure 13 on the base setup with only the
    config replaced: the base scenario (here a hot set drifting a table's
    worth of rows every few batches) must reach every variant."""

    @pytest.fixture(scope="class")
    def drifting(self):
        from repro.data.scenarios import DriftSpec, ScenarioSpec
        from repro.model.config import tiny_config

        config = tiny_config(
            rows_per_table=20_000, batch_size=8, lookups_per_table=2,
            num_tables=2,
        )
        return ExperimentSetup(
            config=config, num_batches=10, seed=3,
            scenario=ScenarioSpec(drift=DriftSpec(rate=4096.0)),
        )

    @pytest.mark.parametrize("sweep, values, vary, label, kwargs", [
        (fig15a_dim_sensitivity, (8, 16),
         lambda c, v: c.scaled(embedding_dim=v,
                               bottom_mlp=c.bottom_mlp[:-1] + (v,)),
         "dim={}", {}),
        (fig15b_lookup_sensitivity, (1, 3),
         lambda c, v: c.scaled(lookups_per_table=v), "lookups={}", {}),
        (batch_size_sensitivity, (8, 16),
         lambda c, v: c.scaled(batch_size=v), "batch={}",
         {"localities": ("random", "high")}),
        (mlp_intensity_sensitivity, (1, 2),
         lambda c, v: c.scaled(
             top_mlp=tuple(h * v for h in c.top_mlp[:-1]) + (1,)),
         "mlp_x{}", {"localities": ("random", "high")}),
    ], ids=["fig15a", "fig15b", "batch_size", "mlp_intensity"])
    def test_rows_equal_fig13_on_the_replaced_setup(
        self, drifting, sweep, values, vary, label, kwargs
    ):
        import dataclasses

        rows = sweep(values, 0.05, base=drifting, **kwargs)
        expected = [
            dataclasses.replace(
                point, locality=f"{point.locality}/{label.format(value)}"
            )
            for value in values
            for point in fig13_speedup(
                dataclasses.replace(
                    drifting, config=vary(drifting.config, value)
                ),
                cache_fractions=(0.05,),
                localities=kwargs.get("localities", LOCALITY_CLASSES),
            )
        ]
        assert rows == expected
