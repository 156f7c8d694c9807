"""Composable time-varying workload scenarios.

The paper's argument — that a HitMap-driven GPU scratchpad can run ahead of
training because embedding accesses are highly skewed *and temporally
stable* — is exactly as strong as the workloads it is tested on.  This
module grows the repo's workload vocabulary from two stationary
distributions to a composable engine: a :class:`ScenarioSpec` is a small,
picklable, hashable description of a *popularity process over time*, and
:func:`build_scenario` turns it (plus model geometry and a seed) into a
deterministic, randomly-accessible, chunk-streamable :class:`ScenarioDataset`.

Processes (all optional, all composable):

* **Drift** — the hot set rotates through the row space at a constant rate
  (rows per batch), modelling slow popularity turnover.
* **Churn** — each hot rank is re-homed to a fresh random row on its own
  staggered schedule, so a fixed fraction of the hot set changes identity
  per period without any global resets.
* **Flash bursts** — periodically, a tiny set of rows grabs a fixed share
  of all traffic for a few batches (breaking-news / flash-sale spikes).
* **Diurnal cycle** — the Zipf exponent oscillates between a low and high
  locality over a configurable period (daytime browse vs nighttime tail).
* **Cross-table correlation** — tables share a fraction of their underlying
  uniform draws, so the same "user intent" touches hot rows in several
  tables at once.
* **Multi-epoch reshuffle** — the trace replays one epoch's batches in a
  per-epoch deterministic shuffle, the access pattern of real multi-epoch
  training jobs.

Determinism contract: batch ``i`` is a pure function of
``(spec, config, seed, i)``.  Time-varying state is never carried between
batches — phases, permutations and burst sets are all re-derived from the
batch index — so random access, chunked streaming and sweep workers that
regenerate from the spec all see bit-identical traces.

A :class:`ScenarioSpec` with no processes enabled is *bit-identical* to the
stationary :class:`~repro.data.trace.SyntheticDataset` path, which keeps
every existing figure reproducible under ``scenario=None`` semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.data.datasets import LOCALITY_CLASSES, locality_distribution
from repro.data.distributions import AccessDistribution, ZipfDistribution
from repro.data.trace import (
    SPARSE_ID_DTYPE,
    MiniBatch,
    SyntheticDataset,
    TraceSource,
)
from repro.model.config import ModelConfig


class ScenarioSpecError(ValueError):
    """A scenario specification with out-of-range or inconsistent fields."""


# ----------------------------------------------------------------------
# Process specs — small frozen dataclasses, picklable and hashable, so a
# sweep point can ship them to worker processes instead of whole traces.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DriftSpec:
    """Rotate the hot set through the row space.

    Attributes:
        rate: Rows the popularity ranking shifts per batch.  Rank ``r``
            maps to row ``(r + floor(rate * i)) % num_rows`` at batch
            ``i``, so after ``num_rows / rate`` batches every row has had
            its turn at the head.
    """

    rate: float = 1.0

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ScenarioSpecError(f"drift rate must be > 0, got {self.rate}")


@dataclass(frozen=True)
class ChurnSpec:
    """Staggered re-homing of hot ranks.

    Attributes:
        hot_fraction: Fraction of the table counted as "hot" (churned).
        period: Batches between re-homings *of one rank*.  Each hot rank
            re-rolls its target row every ``period`` batches on its own
            offset, so per batch roughly ``hot_size / period`` hot rows
            change identity — smooth churn, no synchronized resets.
    """

    hot_fraction: float = 0.02
    period: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ScenarioSpecError(
                f"hot_fraction must be in (0, 1], got {self.hot_fraction}"
            )
        if self.period < 1:
            raise ScenarioSpecError(
                f"churn period must be >= 1, got {self.period}"
            )


@dataclass(frozen=True)
class BurstSpec:
    """Flash bursts: a small row set grabs a share of all traffic.

    Attributes:
        period: Batches between burst onsets.
        duration: Batches each burst lasts (< period).
        share: Fraction of lookups redirected to the burst set while a
            burst is live.
        rows: Size of each burst's row set (drawn fresh per burst).
    """

    period: int = 128
    duration: int = 8
    share: float = 0.5
    rows: int = 16

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ScenarioSpecError(
                f"burst period must be >= 1, got {self.period}"
            )
        if not 0 < self.duration <= self.period:
            raise ScenarioSpecError(
                "burst duration must be in [1, period], got "
                f"{self.duration} (period {self.period})"
            )
        if not 0.0 < self.share <= 1.0:
            raise ScenarioSpecError(
                f"burst share must be in (0, 1], got {self.share}"
            )
        if self.rows < 1:
            raise ScenarioSpecError(
                f"burst rows must be >= 1, got {self.rows}"
            )


@dataclass(frozen=True)
class DiurnalSpec:
    """Sinusoidal oscillation of the Zipf exponent.

    Applies to Zipf bases; over the uniform ("random") base there is no
    skew to modulate and the cycle is a no-op.

    Attributes:
        low: Trough exponent (least skew).
        high: Peak exponent (most skew).
        period: Batches per full cycle.
    """

    low: float = 0.4
    high: float = 0.9
    period: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.low <= self.high < 1.0:
            raise ScenarioSpecError(
                "diurnal exponents must satisfy 0 < low <= high < 1, got "
                f"low={self.low} high={self.high}"
            )
        if self.period < 2:
            raise ScenarioSpecError(
                f"diurnal period must be >= 2, got {self.period}"
            )

    def exponent_at(self, batch_index: int) -> float:
        """Exponent of the given batch (cosine ramp, peak at phase 0)."""
        mid = 0.5 * (self.high + self.low)
        amplitude = 0.5 * (self.high - self.low)
        phase = 2.0 * math.pi * (batch_index % self.period) / self.period
        return mid + amplitude * math.cos(phase)


@dataclass(frozen=True)
class CorrelationSpec:
    """Cross-table correlation of lookup draws.

    Attributes:
        rho: Probability a lookup position reuses the batch's shared
            uniform draw instead of a table-private one.  With identical
            per-table distributions, ``rho`` is (up to rank collisions)
            the fraction of positions where all tables touch the same row.
    """

    rho: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise ScenarioSpecError(
                f"correlation rho must be in [0, 1], got {self.rho}"
            )


@dataclass(frozen=True)
class ReshuffleSpec:
    """Multi-epoch training: one epoch of content, reshuffled per epoch.

    Attributes:
        epoch_batches: Content batches per epoch.  Batch ``i`` replays
            content batch ``perm_e[i % epoch_batches]`` where ``perm_e`` is
            a deterministic permutation drawn per epoch ``e = i // epoch_batches``
            (epoch 0 is unshuffled: the canonical content order).
    """

    epoch_batches: int = 64

    def __post_init__(self) -> None:
        if self.epoch_batches < 1:
            raise ScenarioSpecError(
                f"epoch_batches must be >= 1, got {self.epoch_batches}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """A composable time-varying workload: base skew + optional processes.

    The spec deliberately carries no arrays and no model geometry — it is a
    few dozen bytes, hashable (usable as a cache key) and picklable (ships
    to sweep workers), and combines with a :class:`ModelConfig` and seed
    only at :func:`build_scenario` time.
    """

    locality: str = "medium"
    drift: Optional[DriftSpec] = None
    churn: Optional[ChurnSpec] = None
    burst: Optional[BurstSpec] = None
    diurnal: Optional[DiurnalSpec] = None
    correlation: Optional[CorrelationSpec] = None
    reshuffle: Optional[ReshuffleSpec] = None

    def __post_init__(self) -> None:
        if self.locality not in LOCALITY_CLASSES:
            raise ScenarioSpecError(
                f"unknown locality {self.locality!r}; "
                f"expected one of {LOCALITY_CLASSES}"
            )

    @property
    def is_stationary(self) -> bool:
        """True iff no time-varying process is enabled."""
        return all(
            p is None
            for p in (
                self.drift,
                self.churn,
                self.burst,
                self.diurnal,
                self.correlation,
                self.reshuffle,
            )
        )

    def with_locality(self, locality: str) -> "ScenarioSpec":
        """The same processes over a different base locality class."""
        return replace(self, locality=locality)


#: Named scenario presets — the scenario matrix experiments sweep over.
SCENARIO_PRESETS: Dict[str, ScenarioSpec] = {
    "stationary": ScenarioSpec(),
    "slow-drift": ScenarioSpec(drift=DriftSpec(rate=1.0)),
    "fast-drift": ScenarioSpec(drift=DriftSpec(rate=64.0)),
    "churn": ScenarioSpec(churn=ChurnSpec(hot_fraction=0.02, period=64)),
    "flash": ScenarioSpec(burst=BurstSpec(period=96, duration=8, share=0.5)),
    "diurnal": ScenarioSpec(diurnal=DiurnalSpec(low=0.4, high=0.9, period=192)),
    "correlated": ScenarioSpec(correlation=CorrelationSpec(rho=0.5)),
    "multi-epoch": ScenarioSpec(reshuffle=ReshuffleSpec(epoch_batches=48)),
    "kitchen-sink": ScenarioSpec(
        drift=DriftSpec(rate=4.0),
        burst=BurstSpec(period=96, duration=8, share=0.3),
        correlation=CorrelationSpec(rho=0.25),
    ),
}


def scenario_by_name(name: str) -> ScenarioSpec:
    """Look up a preset scenario (see :data:`SCENARIO_PRESETS`)."""
    try:
        return SCENARIO_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIO_PRESETS))
        raise ScenarioSpecError(
            f"unknown scenario {name!r}; expected one of: {known}"
        ) from None


# ----------------------------------------------------------------------
# Deterministic integer mixing — the O(1)-random-access workhorse
# (shared with the TSV ingestion path; see repro.data.trace.mix64)
# ----------------------------------------------------------------------
from repro.data.trace import mix64 as _mix64  # noqa: E402

#: Integer salts namespacing the per-purpose seed sequences.  Batch content
#: uses the length-2 tuple ``(seed, index)`` (the legacy SyntheticDataset
#: key); process state uses length-3 tuples so the streams never collide.
_SALT_RESHUFFLE = 0x5E5F
_SALT_BURST = 0xB1257


class ScenarioDataset(TraceSource):
    """Deterministic trace source realising a :class:`ScenarioSpec`.

    Batch ``i`` is generated from ``(seed, i)`` exactly like
    :class:`SyntheticDataset` — same RNG construction, same draw order —
    with the scenario's processes applied as pure functions of the batch
    index.  A stationary spec therefore reproduces the legacy synthetic
    trace bit-for-bit.
    """

    def __init__(
        self,
        config: ModelConfig,
        spec: ScenarioSpec,
        seed: int = 0,
        num_batches: int = 64,
        with_dense: bool = False,
    ) -> None:
        if num_batches < 1:
            raise ScenarioSpecError(f"num_batches must be >= 1, got {num_batches}")
        self.config = config
        self.spec = spec
        self.seed = seed
        self.num_batches = num_batches
        self.with_dense = with_dense
        self._base = locality_distribution(spec.locality, config.rows_per_table)
        self._perm_cache: Optional[Tuple[int, np.ndarray]] = None
        # The stationary fast path delegates to SyntheticDataset so the
        # "no processes" case shares code (and bit-identity is structural,
        # not coincidental).
        self._stationary: Optional[SyntheticDataset] = None
        if spec.is_stationary:
            self._stationary = SyntheticDataset(
                config=config,
                distributions=(self._base,),
                seed=seed,
                num_batches=num_batches,
                with_dense=with_dense,
            )

    def __len__(self) -> int:
        return self.num_batches

    # ------------------------------------------------------------------
    # Index-addressable process state
    # ------------------------------------------------------------------
    def _content_index(self, index: int) -> int:
        """Reshuffle: which content batch plays at position ``index``."""
        spec = self.spec.reshuffle
        if spec is None:
            return index
        epoch, offset = divmod(index, spec.epoch_batches)
        if epoch == 0:
            return offset
        # One-entry memo: the permutation is a pure function of
        # (seed, epoch), and accesses cluster within an epoch — rebuilding
        # it per batch would make reshuffle streaming O(n * epoch_batches).
        cached = self._perm_cache
        if cached is None or cached[0] != epoch:
            perm_rng = np.random.default_rng(
                (self.seed, _SALT_RESHUFFLE, epoch)
            )
            cached = (epoch, perm_rng.permutation(spec.epoch_batches))
            self._perm_cache = cached
        return int(cached[1][offset])

    def _distribution_at(self, content_index: int) -> AccessDistribution:
        """Base distribution for one batch (diurnal modulates the exponent).

        A diurnal cycle modulates the Zipf exponent, so over the uniform
        ("random") base — which has no skew to modulate — it is a no-op.
        That keeps whole-figure sweeps, which iterate every locality class
        including "random", runnable under any scenario.
        """
        spec = self.spec.diurnal
        if spec is None or not isinstance(self._base, ZipfDistribution):
            return self._base
        return ZipfDistribution(
            num_rows=self.config.rows_per_table,
            exponent=spec.exponent_at(content_index),
        )

    def _burst_rows(self, content_index: int) -> Optional[np.ndarray]:
        """Burst row set if a burst is live at this batch, else ``None``."""
        spec = self.spec.burst
        if spec is None:
            return None
        occurrence, offset = divmod(content_index, spec.period)
        if offset >= spec.duration:
            return None
        burst_rng = np.random.default_rng((self.seed, _SALT_BURST, occurrence))
        return burst_rng.integers(
            0, self.config.rows_per_table, size=spec.rows, dtype=np.int64
        )

    def _map_ranks_to_rows(
        self, ranks: np.ndarray, table: int, content_index: int
    ) -> np.ndarray:
        """Apply churn re-homing and drift rotation to popularity ranks."""
        num_rows = self.config.rows_per_table
        rows = ranks
        churn = self.spec.churn
        if churn is not None:
            hot_size = max(1, int(churn.hot_fraction * num_rows))
            hot = ranks < hot_size
            if hot.any():
                hot_ranks = ranks[hot]
                # Each rank re-rolls every `period` batches on its own
                # stagger, so churn is smooth rather than synchronized.
                stagger = _mix64(hot_ranks, self.seed, table, 0xC) % np.uint64(
                    churn.period
                )
                generation = (
                    np.uint64(content_index) + stagger
                ) // np.uint64(churn.period)
                # Fold (rank, generation) into one value per lookup; ranks
                # stay below the hot set size, far under the 2**32 shift.
                keyed = hot_ranks.astype(np.uint64) + (
                    generation << np.uint64(32)
                )
                rehomed = _mix64(keyed, self.seed, table, 0xA) % np.uint64(
                    num_rows
                )
                rows = rows.copy()
                rows[hot] = rehomed.astype(np.int64)
        drift = self.spec.drift
        if drift is not None:
            shift = int(drift.rate * content_index) % num_rows
            if shift:
                rows = (rows + shift) % num_rows
        return rows

    def _sample_table(
        self,
        table: int,
        content_index: int,
        dist: AccessDistribution,
        burst_rows: Optional[np.ndarray],
        rng: np.random.Generator,
        shared: Optional[Tuple[np.ndarray, np.ndarray]],
        n: int,
    ) -> np.ndarray:
        """Draw one table's flat lookup IDs for one batch.

        ``dist`` and ``burst_rows`` are table-independent per-batch state,
        computed once in :meth:`batch` and shared across tables.
        """
        if shared is not None:
            # The correlated-position mask is drawn once per batch, so a
            # position either shares its uniform across *all* tables or
            # none — rho is directly the all-tables-coupled fraction.
            shared_u, use_shared = shared
            private_u = rng.random(n)
            u = np.where(use_shared, shared_u, private_u)
            ranks = dist.rank_of_uniform(u)
        else:
            ranks = dist.sample(n, rng)
        if burst_rows is not None:
            spec = self.spec.burst
            redirected = rng.random(n) < spec.share
            picks = rng.integers(0, burst_rows.size, size=n)
            rows = self._map_ranks_to_rows(ranks, table, content_index)
            return np.where(redirected, burst_rows[picks], rows)
        return self._map_ranks_to_rows(ranks, table, content_index)

    # ------------------------------------------------------------------
    # TraceSource surface
    # ------------------------------------------------------------------
    def batch(self, index: int) -> MiniBatch:
        if not 0 <= index < self.num_batches:
            raise IndexError(
                f"batch index {index} out of range [0, {self.num_batches})"
            )
        if self._stationary is not None:
            return self._stationary.batch(index)
        cfg = self.config
        content_index = self._content_index(index)
        rng = np.random.default_rng((self.seed, content_index))
        n = cfg.batch_size * cfg.lookups_per_table
        shared = None
        if self.spec.correlation is not None:
            shared_u = rng.random(n)
            use_shared = rng.random(n) < self.spec.correlation.rho
            shared = (shared_u, use_shared)
        dist = self._distribution_at(content_index)
        burst_rows = self._burst_rows(content_index)
        ids = np.empty(
            (cfg.num_tables, cfg.batch_size, cfg.lookups_per_table),
            dtype=SPARSE_ID_DTYPE,
        )
        for table in range(cfg.num_tables):
            ids[table] = self._sample_table(
                table, content_index, dist, burst_rows, rng, shared, n
            ).reshape(cfg.batch_size, cfg.lookups_per_table)
        dense = None
        labels = None
        if self.with_dense:
            dense = rng.standard_normal(
                (cfg.batch_size, cfg.num_dense_features)
            ).astype(np.float32)
            labels = (rng.random(cfg.batch_size) < 0.5).astype(np.float32)
        return MiniBatch(index=index, sparse_ids=ids, dense=dense, labels=labels)


def build_scenario(
    config: ModelConfig,
    spec: ScenarioSpec,
    seed: int = 0,
    num_batches: int = 64,
    with_dense: bool = False,
) -> ScenarioDataset:
    """Instantiate the trace source a :class:`ScenarioSpec` describes."""
    return ScenarioDataset(
        config=config,
        spec=spec,
        seed=seed,
        num_batches=num_batches,
        with_dense=with_dense,
    )


# ----------------------------------------------------------------------
# Criteo-style TSV ingestion moved to repro.data.tsv (vectorised engine);
# re-exported here for backwards compatibility.
# ----------------------------------------------------------------------
from repro.data.tsv import TsvTraceSource  # noqa: E402,F401
