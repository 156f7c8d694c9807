"""Section VI-G ablation — ScratchPipe over multiple GPUs.

The paper argues (without numbers) that extending ScratchPipe to multi-GPU
training is viable but "likely not going to be cost-effective in terms of
TCO reduction", because the DNNs are not the bottleneck and the extra GPUs
sit underutilised.  This ablation quantifies that prediction with the
analytic model: speedup, scaling efficiency and cost ratio of 1/2/4/8-GPU
ScratchPipe.
"""

from conftest import run_once
from repro.analysis.report import banner, format_table
from repro.api import build_system, uniform_system_spec
from repro.data.trace import MaterialisedDataset, make_dataset
from repro.systems.multigpu_scratchpipe import tco_comparison

GPU_COUNTS = (1, 2, 4, 8)
WARMUP = 8


def test_ablation_multigpu_scratchpipe(benchmark, setup):
    def experiment():
        # High locality makes ScratchPipe Train-bound — the most favourable
        # case for adding GPUs — and the scaling is *still* poor, which is
        # the paper's argument.
        trace = MaterialisedDataset(
            make_dataset(setup.config, "high", seed=0,
                         num_batches=setup.num_batches)
        )
        single = build_system(
            uniform_system_spec("scratchpipe", 0.02),
            setup.config, setup.hardware,
        ).run_trace(trace).mean_latency(WARMUP)
        multi = {
            g: build_system(
                uniform_system_spec("multi_gpu_scratchpipe", 0.02, num_gpus=g),
                setup.config, setup.hardware,
            ).run_trace(trace).mean_latency(WARMUP)
            for g in GPU_COUNTS
        }
        return single, multi

    single, multi = run_once(benchmark, experiment)

    print(banner("Section VI-G ablation: multi-GPU ScratchPipe TCO "
                 f"(mean_latency, warmup={WARMUP})"))
    rows = []
    for g in GPU_COUNTS:
        out = tco_comparison(single, multi[g], num_gpus=g)
        rows.append([
            f"{g} GPU", f"{multi[g] * 1e3:.2f}",
            f"{out['speedup']:.2f}x",
            f"{out['scaling_efficiency']:.2f}",
            f"{out['cost_ratio']:.2f}x",
        ])
    print(format_table(
        ["config", "mean_latency ms/iter", "speedup", "scaling eff.",
         "cost vs 1 GPU"],
        rows,
    ))

    # The paper's prediction: viable but not cost-effective.
    eight = tco_comparison(single, multi[8], num_gpus=8)
    assert multi[8] <= multi[1]          # more GPUs never slower
    assert eight["speedup"] < 4.0        # far from linear scaling
    assert eight["cost_ratio"] > 1.5     # strictly worse TCO than 1 GPU
