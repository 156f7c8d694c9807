"""Hardware specifications for the ScratchPipe timing model.

The paper (Section V, Methodology) evaluates on a server with an Intel Xeon
E5-2698v4 (256 GB DDR4, 76.8 GB/s), an NVIDIA V100 (32 GB HBM2, 900 GB/s) and
PCIe gen3 x16 (16 GB/s per direction).  This module captures those numbers
plus the *effective*-throughput calibration constants that an analytic model
needs in order to land in the latency ranges the paper reports.

Calibration notes
-----------------
Peak bandwidth is never achieved by sparse embedding operations.  The paper's
own measurements imply an effective CPU-side gather throughput of roughly
3-4 GB/s (167.8 MB of gathered embeddings per iteration taking ~50 ms of
"CPU embedding forward" in Figure 5): random 512-byte row accesses on DDR4,
executed by a PyTorch ``EmbeddingBag``, are latency-bound rather than
bandwidth-bound.  The ``random_access_efficiency`` fields below encode that
gap and are documented next to each device.  Absolute latencies produced by
this model are expected to deviate from the authors' testbed, but orderings,
ratios and crossovers are preserved (the figure tests under ``benchmarks/``
assert them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HardwareSpecError


@dataclass(frozen=True)
class MemorySpec:
    """A DRAM device attached to either the CPU or the GPU.

    Attributes:
        name: Human readable device name.
        capacity_bytes: Total capacity in bytes.
        peak_bandwidth: Peak bandwidth in bytes/second.
        random_access_efficiency: Fraction of peak bandwidth achieved by
            random row-granular (~512 B) accesses such as embedding gathers
            and gradient scatters.  These are *dependent reads* — each miss
            chain stalls on memory latency.
        sequential_efficiency: Fraction of peak bandwidth achieved by
            streaming accesses such as gradient duplication buffers.
        scattered_write_efficiency: Fraction of peak achieved by full-row
            writes to random addresses (cache-eviction write-backs, Storage
            fills).  Store buffers and write combining keep these pipelined,
            so they land between random reads and pure streaming.
        access_latency_s: Fixed per-operation software/launch latency charged
            once per bulk operation (not per element).
    """

    name: str
    capacity_bytes: int
    peak_bandwidth: float
    random_access_efficiency: float
    sequential_efficiency: float
    scattered_write_efficiency: float = 0.25
    access_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_bytes < 1:
            raise HardwareSpecError(
                f"capacity_bytes must be >= 1, got {self.capacity_bytes}"
            )
        if self.peak_bandwidth <= 0:
            raise HardwareSpecError(
                f"peak_bandwidth must be positive, got {self.peak_bandwidth}"
            )
        for name in ("random_access_efficiency", "sequential_efficiency",
                     "scattered_write_efficiency"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise HardwareSpecError(
                    f"{name} must be in (0, 1], got {value}"
                )
        if self.access_latency_s < 0:
            raise HardwareSpecError(
                f"access_latency_s must be >= 0, got {self.access_latency_s}"
            )

    @property
    def random_bandwidth(self) -> float:
        """Effective bandwidth for random row-granular accesses (B/s)."""
        return self.peak_bandwidth * self.random_access_efficiency

    @property
    def sequential_bandwidth(self) -> float:
        """Effective bandwidth for streaming accesses (B/s)."""
        return self.peak_bandwidth * self.sequential_efficiency

    @property
    def scattered_write_bandwidth(self) -> float:
        """Effective bandwidth for scattered full-row writes (B/s)."""
        return self.peak_bandwidth * self.scattered_write_efficiency


@dataclass(frozen=True)
class LinkSpec:
    """A point-to-point interconnect such as PCIe or NVLink.

    Attributes:
        name: Human readable link name.
        bandwidth_per_direction: Bytes/second in each direction.
        latency_s: Fixed latency per transfer (DMA setup, driver overhead).
        full_duplex: Whether both directions can be used simultaneously.
        efficiency: Fraction of nominal bandwidth achieved by bulk copies.
    """

    name: str
    bandwidth_per_direction: float
    latency_s: float
    full_duplex: bool = True
    efficiency: float = 0.85

    def __post_init__(self) -> None:
        if self.bandwidth_per_direction <= 0:
            raise HardwareSpecError(
                "bandwidth_per_direction must be positive, got "
                f"{self.bandwidth_per_direction}"
            )
        if self.latency_s < 0:
            raise HardwareSpecError(
                f"latency_s must be >= 0, got {self.latency_s}"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise HardwareSpecError(
                f"efficiency must be in (0, 1], got {self.efficiency}"
            )

    @property
    def effective_bandwidth(self) -> float:
        """Achievable bytes/second per direction for bulk transfers."""
        return self.bandwidth_per_direction * self.efficiency


@dataclass(frozen=True)
class ComputeSpec:
    """Compute throughput of a processor used for the MLP cost model.

    Attributes:
        name: Human readable processor name.
        peak_flops: Peak FP32 floating point operations per second.
        mlp_efficiency: Fraction of peak achieved on the paper's MLP shapes
            (GEMMs with batch 2048 and hidden sizes of a few hundred reach
            only a modest fraction of peak on a V100).
        kernel_launch_s: Per-kernel launch overhead.
    """

    name: str
    peak_flops: float
    mlp_efficiency: float
    kernel_launch_s: float

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise HardwareSpecError(
                f"peak_flops must be positive, got {self.peak_flops}"
            )
        if not 0.0 < self.mlp_efficiency <= 1.0:
            raise HardwareSpecError(
                f"mlp_efficiency must be in (0, 1], got {self.mlp_efficiency}"
            )
        if self.kernel_launch_s < 0:
            raise HardwareSpecError(
                f"kernel_launch_s must be >= 0, got {self.kernel_launch_s}"
            )

    @property
    def effective_flops(self) -> float:
        """Achievable FLOP/s on DLRM MLP layers."""
        return self.peak_flops * self.mlp_efficiency


@dataclass(frozen=True)
class PowerSpec:
    """Socket-level power constants used by the energy model (Fig. 14).

    The paper aggregates ``pcm-power`` (CPU socket) and ``nvidia-smi`` (GPU
    board) readings and multiplies by execution time.  We attribute an
    active-power draw to whichever device a pipeline stage keeps busy and an
    idle draw otherwise.
    """

    cpu_active_w: float
    cpu_idle_w: float
    gpu_active_w: float
    gpu_idle_w: float

    def __post_init__(self) -> None:
        for name in ("cpu_active_w", "cpu_idle_w", "gpu_active_w",
                     "gpu_idle_w"):
            value = getattr(self, name)
            if value < 0:
                raise HardwareSpecError(
                    f"{name} must be >= 0, got {value}"
                )


GiB = 1024 ** 3
GB = 10 ** 9


def _xeon_ddr4() -> MemorySpec:
    """Intel Xeon E5-2698v4 socket with DDR4-2400 (Section V)."""
    return MemorySpec(
        name="Xeon E5-2698v4 DDR4",
        capacity_bytes=256 * GiB,
        peak_bandwidth=76.8 * GB,
        # Calibrated to the paper's measured CPU-side gather throughput
        # (~3.5 GB/s effective; latency-bound random 512 B rows through a
        # framework-level EmbeddingBag).
        random_access_efficiency=0.045,
        sequential_efficiency=0.55,
        scattered_write_efficiency=0.28,
        access_latency_s=40e-6,
    )


def _v100_hbm() -> MemorySpec:
    """NVIDIA V100 (32 GB HBM2, 900 GB/s)."""
    return MemorySpec(
        name="V100 HBM2",
        capacity_bytes=32 * GiB,
        peak_bandwidth=900.0 * GB,
        # GPU gathers coalesce across a warp; random 512 B rows reach a far
        # higher fraction of peak than the CPU does.
        random_access_efficiency=0.35,
        sequential_efficiency=0.80,
        scattered_write_efficiency=0.55,
        access_latency_s=8e-6,
    )


def _pcie_gen3() -> LinkSpec:
    """PCIe gen3 x16 (16 GB/s per direction, Section V)."""
    return LinkSpec(
        name="PCIe gen3 x16",
        bandwidth_per_direction=16.0 * GB,
        latency_s=15e-6,
        full_duplex=True,
        efficiency=0.80,
    )


def _nvlink() -> LinkSpec:
    """NVLink mesh of a p3.16xlarge (8x V100); per-GPU aggregate."""
    return LinkSpec(
        name="NVLink (per-GPU aggregate)",
        bandwidth_per_direction=150.0 * GB,
        latency_s=8e-6,
        full_duplex=True,
        efficiency=0.75,
    )


def _v100_compute() -> ComputeSpec:
    """V100 FP32 compute (14 TFLOP/s peak)."""
    return ComputeSpec(
        name="V100 FP32",
        peak_flops=14.0e12,
        # Calibrated to framework-level throughput on DLRM's MLP shapes
        # (small GEMMs plus per-op overheads reach only ~1.5 TFLOP/s; this
        # reproduces the paper's 16-19 ms GPU-only iteration (Table I) and
        # its observation that data-parallel MLP scaling yields little,
        # Section VI-G).
        mlp_efficiency=0.11,
        kernel_launch_s=10e-6,
    )


def _xeon_compute() -> ComputeSpec:
    """Xeon E5-2698v4 FP32 compute (20 cores, AVX2)."""
    return ComputeSpec(
        name="Xeon E5-2698v4 FP32",
        peak_flops=1.3e12,
        mlp_efficiency=0.20,
        kernel_launch_s=2e-6,
    )


def _default_power() -> PowerSpec:
    """Socket/board level power draws (Xeon TDP 135 W, V100 300 W)."""
    return PowerSpec(
        cpu_active_w=130.0,
        cpu_idle_w=45.0,
        gpu_active_w=260.0,
        gpu_idle_w=40.0,
    )


@dataclass(frozen=True)
class HardwareSpec:
    """Complete description of one training node.

    The default instance reproduces the paper's evaluation platform:
    Xeon E5-2698v4 + single V100 over PCIe gen3 (Section V).
    """

    cpu_memory: MemorySpec = field(default_factory=_xeon_ddr4)
    gpu_memory: MemorySpec = field(default_factory=_v100_hbm)
    pcie: LinkSpec = field(default_factory=_pcie_gen3)
    nvlink: LinkSpec = field(default_factory=_nvlink)
    gpu_compute: ComputeSpec = field(default_factory=_v100_compute)
    cpu_compute: ComputeSpec = field(default_factory=_xeon_compute)
    power: PowerSpec = field(default_factory=_default_power)
    # Per-pipeline-stage synchronisation overhead (stream sync, host logic).
    stage_sync_s: float = 1.2e-3

    def __post_init__(self) -> None:
        if self.stage_sync_s < 0:
            raise HardwareSpecError(
                f"stage_sync_s must be >= 0, got {self.stage_sync_s}"
            )


DEFAULT_HARDWARE = HardwareSpec()


@dataclass(frozen=True)
class AwsInstance:
    """AWS EC2 pricing entry used by Table I's training-cost comparison."""

    name: str
    price_per_hour: float
    num_gpus: int


# Prices exactly as quoted in Table I of the paper.
P3_2XLARGE = AwsInstance(name="p3.2xlarge", price_per_hour=3.06, num_gpus=1)
P3_16XLARGE = AwsInstance(name="p3.16xlarge", price_per_hour=24.48, num_gpus=8)
