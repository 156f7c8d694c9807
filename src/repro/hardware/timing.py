"""Per-primitive latency model for one DLRM training iteration.

This is the timing substrate every system design (hybrid CPU-GPU, static
cache, straw-man, ScratchPipe, multi-GPU) is built on.  Each method costs a
single primitive of Figure 4's training pipeline; systems compose them into
per-stage and per-iteration breakdowns.

All quantities are *counts of embedding rows* unless noted; the model config
supplies row geometry.  All returned times are seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HardwareSpecError
from repro.hardware.interconnect import Link
from repro.hardware.memory import RANDOM, SCATTERED_WRITE, SEQUENTIAL, MemoryDevice
from repro.hardware.spec import DEFAULT_HARDWARE, HardwareSpec
from repro.model.config import ModelConfig, mlp_flops

#: Bytes of one sparse feature ID (int64, matching PyTorch's index dtype).
ID_BYTES = 8

#: Backward-pass FLOP multiplier relative to forward (dgrad + wgrad GEMMs).
BACKWARD_FLOP_FACTOR = 2.0


@dataclass(frozen=True)
class CostModel:
    """Latency model binding a :class:`HardwareSpec` to a :class:`ModelConfig`.

    Attributes:
        hardware: The node being modelled.
        config: Model/workload geometry.
    """

    hardware: HardwareSpec = field(default_factory=lambda: DEFAULT_HARDWARE)
    config: ModelConfig = field(default_factory=ModelConfig)

    # ------------------------------------------------------------------
    # Device handles
    # ------------------------------------------------------------------
    @property
    def cpu_mem(self) -> MemoryDevice:
        """CPU DRAM cost model."""
        return MemoryDevice(self.hardware.cpu_memory)

    @property
    def gpu_mem(self) -> MemoryDevice:
        """GPU HBM cost model."""
        return MemoryDevice(self.hardware.gpu_memory)

    @property
    def pcie(self) -> Link:
        """CPU<->GPU link cost model."""
        return Link(self.hardware.pcie)

    @property
    def nvlink(self) -> Link:
        """GPU<->GPU link cost model."""
        return Link(self.hardware.nvlink)

    def _mem(self, device: str) -> MemoryDevice:
        if device == "cpu":
            return self.cpu_mem
        if device == "gpu":
            return self.gpu_mem
        raise HardwareSpecError(f"unknown device {device!r}; expected 'cpu' or 'gpu'")

    def _row_bytes(self, rows: float) -> float:
        return rows * self.config.row_bytes

    # ------------------------------------------------------------------
    # Embedding-layer primitives (Figure 2)
    # ------------------------------------------------------------------
    def embedding_gather(self, rows: float, device: str) -> float:
        """Gather ``rows`` embedding rows from ``device`` memory.

        Random row reads from the table plus a streaming write of the
        gathered output buffer.
        """
        mem = self._mem(device)
        payload = self._row_bytes(rows)
        return mem.read_time(payload, RANDOM) + mem.write_time(payload, SEQUENTIAL)

    def embedding_reduce(self, rows: float, device: str) -> float:
        """Sum-reduce ``rows`` gathered rows into per-sample pooled vectors.

        Streaming read of the gathered rows; the pooled output is small and
        folded into the same pass.
        """
        return self._mem(device).read_time(self._row_bytes(rows), SEQUENTIAL)

    def gradient_duplicate(self, rows: float, device: str) -> float:
        """Duplicate pooled gradients out to ``rows`` per-lookup gradients.

        Reads the pooled gradients (broadcast, cache friendly) and streams
        out one gradient row per lookup (Figure 2(b), left).
        """
        return self._mem(device).write_time(self._row_bytes(rows), SEQUENTIAL)

    def gradient_coalesce(self, rows: float, device: str) -> float:
        """Coalesce duplicated gradients of repeated IDs (Figure 2(b), middle).

        Modelled as one streaming read plus one streaming write of the
        duplicated-gradient buffer (segmented sort + reduce).
        """
        mem = self._mem(device)
        payload = self._row_bytes(rows)
        return mem.read_time(payload, SEQUENTIAL) + mem.write_time(payload, SEQUENTIAL)

    def gradient_scatter(self, unique_rows: float, device: str) -> float:
        """Apply coalesced gradients to ``unique_rows`` table rows (SGD).

        A random-access read-modify-write of each updated row.
        """
        return self._mem(device).read_modify_write_time(
            self._row_bytes(unique_rows), RANDOM
        )

    def embedding_backward(self, rows: float, unique_rows: float, device: str) -> float:
        """Full embedding backward: duplicate + coalesce + scatter."""
        return (
            self.gradient_duplicate(rows, device)
            + self.gradient_coalesce(rows, device)
            + self.gradient_scatter(unique_rows, device)
        )

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def id_transfer(self, n_ids: float) -> float:
        """Copy ``n_ids`` sparse feature IDs over PCIe (either direction)."""
        return self.pcie.transfer_time(n_ids * ID_BYTES)

    def row_transfer(self, rows: float) -> float:
        """Copy ``rows`` embedding rows over PCIe (one direction)."""
        return self.pcie.transfer_time(self._row_bytes(rows))

    def row_exchange(self, rows_to_gpu: float, rows_to_cpu: float) -> float:
        """Bidirectional PCIe exchange of embedding rows ([Exchange] stage)."""
        return self.pcie.exchange_time(
            self._row_bytes(rows_to_gpu), self._row_bytes(rows_to_cpu)
        )

    def pooled_transfer(self) -> float:
        """Copy the per-table pooled embeddings (or their gradients) over PCIe.

        Used by the hybrid baseline to ship reduced embeddings to the GPU for
        the feature interaction, and gradients back (Figure 4(a)).
        """
        return self.pcie.transfer_time(self.config.reduced_bytes_per_batch)

    # ------------------------------------------------------------------
    # Cache-management primitives
    # ------------------------------------------------------------------
    def hitmap_query(self, n_ids: float) -> float:
        """Probe the GPU Hit-Map with ``n_ids`` keys.

        Hash probes touch a few tens of bytes per key in GPU DRAM; charged
        as random accesses of one (key, value) slot per ID.
        """
        slot_bytes = 16.0  # 8 B key + 4 B value + padding
        return self.gpu_mem.read_time(n_ids * slot_bytes, RANDOM)

    def holdmask_update(self, n_slots: float) -> float:
        """Advance/set Hold-mask bits for ``n_slots`` slots (streaming)."""
        return self.gpu_mem.read_modify_write_time(n_slots * 1.0, SEQUENTIAL)

    def cache_fill(self, rows: float) -> float:
        """Write ``rows`` fetched rows into the GPU Storage array."""
        return self.gpu_mem.write_time(self._row_bytes(rows), SCATTERED_WRITE)

    def cache_evict_read(self, rows: float) -> float:
        """Read ``rows`` victim rows out of the GPU Storage array."""
        return self.gpu_mem.read_time(self._row_bytes(rows), RANDOM)

    def cpu_table_read(self, rows: float) -> float:
        """Gather ``rows`` missed rows from the CPU embedding table."""
        return self.cpu_mem.read_time(self._row_bytes(rows), RANDOM)

    def cpu_table_write(self, rows: float) -> float:
        """Write ``rows`` evicted rows back into the CPU embedding table.

        Write-backs are independent full-row stores, so they stream through
        store buffers far faster than the latency-bound gathers of
        :meth:`cpu_table_read` — which is why the paper's [Insert] stage is
        visibly cheaper than its [Collect] stage (Figure 12(b)).
        """
        return self.cpu_mem.write_time(self._row_bytes(rows), SCATTERED_WRITE)

    # ------------------------------------------------------------------
    # Dense (MLP + interaction) cost
    # ------------------------------------------------------------------
    def _mlp_time(self, flops: float, device: str, n_layers: int) -> float:
        compute = (
            self.hardware.gpu_compute if device == "gpu" else self.hardware.cpu_compute
        )
        return flops / compute.effective_flops + n_layers * compute.kernel_launch_s

    def dense_forward(self, device: str = "gpu") -> float:
        """Bottom MLP + feature interaction + top MLP forward."""
        cfg = self.config
        bottom = mlp_flops(cfg.num_dense_features, cfg.bottom_mlp, cfg.batch_size)
        top = mlp_flops(cfg.top_mlp_input_features(), cfg.top_mlp, cfg.batch_size)
        # Interaction: batched (T+1, d) x (d, T+1) GEMM per sample.
        n = cfg.interaction_inputs
        interaction = 2 * cfg.batch_size * n * n * cfg.embedding_dim
        n_layers = len(cfg.bottom_mlp) + len(cfg.top_mlp) + 1
        return self._mlp_time(bottom + top + interaction, device, n_layers)

    def dense_backward(self, device: str = "gpu") -> float:
        """Backward through top MLP, interaction and bottom MLP."""
        return BACKWARD_FLOP_FACTOR * self.dense_forward(device)

    def dense_train(self, device: str = "gpu") -> float:
        """Forward + backward + parameter update of the dense network."""
        return self.dense_forward(device) + self.dense_backward(device)

    # ------------------------------------------------------------------
    # Convenience whole-iteration aggregates
    # ------------------------------------------------------------------
    def gpu_resident_embedding_train(
        self, rows: float, unique_rows: float
    ) -> float:
        """Embedding fwd+bwd entirely in GPU memory (the ScratchPipe Train path)."""
        return (
            self.embedding_gather(rows, "gpu")
            + self.embedding_reduce(rows, "gpu")
            + self.embedding_backward(rows, unique_rows, "gpu")
        )
