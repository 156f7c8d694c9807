"""Declarative system specifications: the system-side twin of ScenarioSpec.

PR 3 made *workloads* declarative: a :class:`~repro.data.scenarios.ScenarioSpec`
is a frozen, hashable, picklable value that sweep workers rebuild traces
from.  This module gives *systems* the same treatment.  A
:class:`SystemSpec` composes

* a :class:`CacheSpec` — cache capacity as a fraction or an absolute slot
  count, replacement policy, and optional **per-table overrides** (the
  heterogeneous-cache path: "table 0 gets 4 % LRU, the rest get 0.5 %
  random");
* a :class:`ScratchpadSpec` — hold-mask past window and storage
  materialisation;
* a :class:`PipelineSpec` — future-window lookahead depth and the stage
  executor;

plus the registered system name and a GPU count.  Every field is validated
eagerly in ``__post_init__`` with a named :class:`InvalidSystemSpecError`
(mirroring PR 3's ``InvalidZipfExponentError`` pattern), so a bad policy
name or future window fails at spec construction — not deep inside system
assembly.  :func:`repro.api.build_system` realises a spec against a
``(ModelConfig, HardwareSpec)`` pair.

Specs carry no arrays and no model geometry: they are a few dozen bytes,
hash/eq-stable, picklable (a ``SweepPoint`` ships ``(SystemSpec,
ScenarioSpec)`` pairs to worker processes) and round-trip losslessly
through JSON (:meth:`SystemSpec.to_json`) and the CLI shorthand
(:func:`parse_cache_spec` / :func:`format_cache_spec`).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.core.replacement import registered_policies


class InvalidSystemSpecError(ValueError):
    """A system specification with out-of-range or inconsistent fields."""


_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def _validate_system_name(name: object) -> None:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise InvalidSystemSpecError(
            "system name must be a lowercase identifier "
            f"([a-z][a-z0-9_]*), got {name!r}"
        )


@dataclass(frozen=True)
class ResolvedTableCache:
    """One table's cache, resolved against a concrete model geometry."""

    table: int
    slots: int
    policy: str
    fraction: Optional[float] = None


@dataclass(frozen=True)
class CacheSpec:
    """Capacity + policy of the dynamic cache, uniform or per-table.

    Exactly one of ``fraction``/``slots`` sizes the cache:

    Attributes:
        fraction: Cache size as a fraction of ``rows_per_table`` in
            ``(0, 1]``; resolved per table as
            ``max(1, int(fraction * rows_per_table))``.
        slots: Absolute slot count (>= 1) instead of a fraction.
        policy: Registered replacement-policy name (``"lru"``/``"lfu"``/
            ``"random"`` plus plugins).
        tables: Per-table overrides as a sorted tuple of
            ``(table_index, CacheSpec)`` pairs; override specs must
            themselves be uniform (no nested overrides).  Tables without an
            override use this spec's own fraction/slots/policy (the
            ``rest=`` entry of the CLI shorthand).  A mapping passed here
            is normalised to the sorted tuple, so hash/eq are stable.
    """

    fraction: Optional[float] = None
    slots: Optional[int] = None
    policy: str = "lru"
    tables: Tuple[Tuple[int, "CacheSpec"], ...] = ()

    def __post_init__(self) -> None:
        if (self.fraction is None) == (self.slots is None):
            raise InvalidSystemSpecError(
                "cache spec needs exactly one of fraction or slots, got "
                f"fraction={self.fraction!r} slots={self.slots!r}"
            )
        if self.fraction is not None:
            if isinstance(self.fraction, bool) or not isinstance(
                self.fraction, (int, float)
            ):
                raise InvalidSystemSpecError(
                    f"cache fraction must be a number, got {self.fraction!r}"
                )
            if not 0.0 < float(self.fraction) <= 1.0:
                raise InvalidSystemSpecError(
                    f"cache_fraction must be in (0, 1], got {self.fraction}"
                )
        if self.slots is not None:
            if isinstance(self.slots, bool) or not isinstance(self.slots, int):
                raise InvalidSystemSpecError(
                    f"cache slots must be an int, got {self.slots!r}"
                )
            if self.slots < 1:
                raise InvalidSystemSpecError(
                    f"cache slots must be >= 1, got {self.slots}"
                )
        if not isinstance(self.policy, str):
            raise InvalidSystemSpecError(
                f"policy must be a string, got {self.policy!r}"
            )
        if self.policy.lower() not in registered_policies():
            # A plugin policy may simply not have been discovered yet —
            # entry-point loading is lazy.  Trigger discovery once and
            # re-check before rejecting.
            from repro.api.registry import discover_plugins

            discover_plugins()
        known = registered_policies()
        if self.policy.lower() not in known:
            raise InvalidSystemSpecError(
                f"unknown policy {self.policy!r}; expected one of "
                f"{sorted(known)}"
            )
        # Canonical lowercase form so semantically identical specs compare
        # and hash equal (the sweep memoises systems by spec).
        object.__setattr__(self, "policy", self.policy.lower())
        # Normalise overrides (mapping or iterable of pairs) to the sorted
        # tuple canonical form so equal specs hash equal.
        overrides = self.tables
        if isinstance(overrides, Mapping):
            overrides = tuple(overrides.items())
        else:
            overrides = tuple(
                (index, spec) for index, spec in tuple(overrides)
            )
        overrides = tuple(sorted(overrides, key=lambda pair: pair[0]))
        object.__setattr__(self, "tables", overrides)
        seen = set()
        for index, spec in overrides:
            if isinstance(index, bool) or not isinstance(index, int) or index < 0:
                raise InvalidSystemSpecError(
                    f"table override index must be an int >= 0, got {index!r}"
                )
            if index in seen:
                raise InvalidSystemSpecError(
                    f"duplicate cache override for table {index}"
                )
            seen.add(index)
            if not isinstance(spec, CacheSpec):
                raise InvalidSystemSpecError(
                    f"table {index} override must be a CacheSpec, "
                    f"got {type(spec).__name__}"
                )
            if spec.tables:
                raise InvalidSystemSpecError(
                    f"table {index} override must be uniform "
                    "(no nested per-table overrides)"
                )

    @property
    def is_uniform(self) -> bool:
        """True iff every table shares this spec's fraction/slots/policy."""
        return not self.tables

    def table_spec(self, table: int) -> "CacheSpec":
        """The (uniform) spec governing one table."""
        for index, spec in self.tables:
            if index == table:
                return spec
        return self if self.is_uniform else replace(self, tables=())

    def num_slots(self, rows_per_table: int) -> int:
        """Resolved slot count of the default ("rest") entry."""
        if self.slots is not None:
            return self.slots
        return max(1, int(self.fraction * rows_per_table))

    def resolve(
        self,
        num_tables: int,
        rows_per_table: int,
        *,
        min_slots: Optional[int] = None,
        floor_what: str = "hazard-window floor",
    ) -> Tuple[ResolvedTableCache, ...]:
        """Per-table ``(slots, policy)`` against a concrete geometry.

        Raises :class:`InvalidSystemSpecError` when an override names a
        table outside ``[0, num_tables)`` — the first moment the table
        count is known — or, with ``min_slots``, when any table's resolved
        capacity falls below that floor (``build_system`` passes the
        system's hazard-window floor here, so undersized splits fail with
        a named spec error at construction instead of a mid-run
        ``CachePressureError``).
        """
        for index, _ in self.tables:
            if index >= num_tables:
                raise InvalidSystemSpecError(
                    f"cache override names table {index} but the model has "
                    f"only {num_tables} tables"
                )
        resolved = []
        for table in range(num_tables):
            spec = self.table_spec(table)
            slots = spec.num_slots(rows_per_table)
            if min_slots is not None and slots < min_slots:
                sizing = (
                    f"fraction {spec.fraction!r}"
                    if spec.fraction is not None
                    else "absolute slots"
                )
                raise InvalidSystemSpecError(
                    f"cache for table {table} resolves to {slots} slots "
                    f"({sizing} of {rows_per_table} rows), below the "
                    f"{floor_what} of {min_slots} slots at this geometry — "
                    "it could exhaust hazard-free victims mid-run; grow the "
                    f"table's cache to at least {min_slots} slots "
                    f"({min_slots / rows_per_table:.4g} of the table)"
                )
            resolved.append(
                ResolvedTableCache(
                    table=table,
                    slots=slots,
                    policy=spec.policy,
                    fraction=spec.fraction,
                )
            )
        return tuple(resolved)

    # ------------------------------------------------------------------
    # Lossless dict / JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON-types dict; inverse of :meth:`from_dict`."""
        out: dict = {"policy": self.policy}
        if self.fraction is not None:
            out["fraction"] = self.fraction
        if self.slots is not None:
            out["slots"] = self.slots
        if self.tables:
            out["tables"] = {
                str(index): spec.to_dict() for index, spec in self.tables
            }
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "CacheSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict keys)."""
        if not isinstance(data, Mapping):
            raise InvalidSystemSpecError(
                f"cache spec must be a mapping, got {type(data).__name__}"
            )
        unknown = set(data) - {"fraction", "slots", "policy", "tables"}
        if unknown:
            raise InvalidSystemSpecError(
                f"unknown cache spec fields: {sorted(unknown)}"
            )
        tables = data.get("tables") or {}
        if not isinstance(tables, Mapping):
            raise InvalidSystemSpecError(
                "cache spec 'tables' must map table index -> cache spec"
            )
        overrides = []
        for key, sub in tables.items():
            try:
                index = int(key)
            except (TypeError, ValueError):
                raise InvalidSystemSpecError(
                    f"table override key must be an integer, got {key!r}"
                ) from None
            overrides.append((index, cls.from_dict(sub)))
        return cls(
            fraction=data.get("fraction"),
            slots=data.get("slots"),
            policy=data.get("policy", "lru"),
            tables=tuple(overrides),
        )


@dataclass(frozen=True)
class ScratchpadSpec:
    """Scratchpad index configuration shared by every table's cache manager.

    Attributes:
        past_window: Hold-mask past window (3 in the paper's pipeline).
            The sequential straw-man has no concurrent batches to protect
            and always runs 0, ignoring this field.
        with_storage: Materialise a real Storage array (functional mode)
            instead of metadata-only index structures.
    """

    past_window: int = 3
    with_storage: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.past_window, bool) or not isinstance(
            self.past_window, int
        ) or self.past_window < 0:
            raise InvalidSystemSpecError(
                f"past_window must be an int >= 0, got {self.past_window!r}"
            )
        if not isinstance(self.with_storage, bool):
            raise InvalidSystemSpecError(
                f"with_storage must be a bool, got {self.with_storage!r}"
            )

    def to_dict(self) -> dict:
        return {
            "past_window": self.past_window,
            "with_storage": self.with_storage,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScratchpadSpec":
        unknown = set(data) - {"past_window", "with_storage"}
        if unknown:
            raise InvalidSystemSpecError(
                f"unknown scratchpad spec fields: {sorted(unknown)}"
            )
        return cls(
            past_window=data.get("past_window", 3),
            with_storage=data.get("with_storage", False),
        )


@dataclass(frozen=True)
class PipelineSpec:
    """Pipeline staging configuration.

    Attributes:
        future_window: Upcoming batches [Plan] protects (2 in the paper:
            the [Insert]-to-[Collect] distance).
        executor: Executor name (``repro.core.executor``):
            ``"serial"`` (default) or ``"overlapped"``, an alias that
            runs the same schedule.  Kept in the spec so specs and
            journal keys that name it stay valid.
    """

    future_window: int = 2
    executor: str = "serial"

    def __post_init__(self) -> None:
        if isinstance(self.future_window, bool) or not isinstance(
            self.future_window, int
        ) or self.future_window < 0:
            raise InvalidSystemSpecError(
                f"future_window must be an int >= 0, got "
                f"{self.future_window!r}"
            )
        from repro.core.executor import check_executor

        check_executor(self.executor, InvalidSystemSpecError)

    def to_dict(self) -> dict:
        return {
            "future_window": self.future_window,
            "executor": self.executor,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PipelineSpec":
        unknown = set(data) - {"future_window", "executor"}
        if unknown:
            raise InvalidSystemSpecError(
                f"unknown pipeline spec fields: {sorted(unknown)}"
            )
        return cls(
            future_window=data.get("future_window", 2),
            executor=data.get("executor", "serial"),
        )


@dataclass(frozen=True)
class SystemSpec:
    """A complete, declarative system description.

    The spec combines with a :class:`~repro.model.config.ModelConfig` and
    :class:`~repro.hardware.spec.HardwareSpec` only at
    :func:`repro.api.build_system` time — it carries no geometry, so one
    spec describes the same design point at any scale.

    Attributes:
        system: Registered system name (see ``repro.api.registered_systems``).
            Name *existence* is checked at build time so specs for plugin
            systems can be constructed before the plugin loads; every other
            field validates eagerly here.
        cache: Dynamic-cache configuration, or ``None`` for cache-less
            systems (hybrid baselines, the pure multi-GPU system).
        scratchpad: Scratchpad index configuration.
        pipeline: Pipeline staging configuration.
        num_gpus: GPU count for the multi-GPU design points.
            ``build_system`` rejects ``num_gpus != 1`` for single-GPU
            designs (registry ``uses_num_gpus`` metadata) rather than
            silently ignoring the field.
    """

    system: str = "scratchpipe"
    cache: Optional[CacheSpec] = None
    scratchpad: ScratchpadSpec = field(default_factory=ScratchpadSpec)
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    num_gpus: int = 1

    def __post_init__(self) -> None:
        _validate_system_name(self.system)
        if self.cache is not None and not isinstance(self.cache, CacheSpec):
            raise InvalidSystemSpecError(
                f"cache must be a CacheSpec or None, got "
                f"{type(self.cache).__name__}"
            )
        if not isinstance(self.scratchpad, ScratchpadSpec):
            raise InvalidSystemSpecError(
                "scratchpad must be a ScratchpadSpec, got "
                f"{type(self.scratchpad).__name__}"
            )
        if not isinstance(self.pipeline, PipelineSpec):
            raise InvalidSystemSpecError(
                f"pipeline must be a PipelineSpec, got "
                f"{type(self.pipeline).__name__}"
            )
        if isinstance(self.num_gpus, bool) or not isinstance(
            self.num_gpus, int
        ) or self.num_gpus < 1:
            raise InvalidSystemSpecError(
                f"num_gpus must be an int >= 1, got {self.num_gpus!r}"
            )

    # ------------------------------------------------------------------
    # Lossless dict / JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON-types dict; inverse of :meth:`from_dict`."""
        return {
            "system": self.system,
            "cache": None if self.cache is None else self.cache.to_dict(),
            "scratchpad": self.scratchpad.to_dict(),
            "pipeline": self.pipeline.to_dict(),
            "num_gpus": self.num_gpus,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SystemSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict keys)."""
        if not isinstance(data, Mapping):
            raise InvalidSystemSpecError(
                f"system spec must be a mapping, got {type(data).__name__}"
            )
        unknown = set(data) - {
            "system", "cache", "scratchpad", "pipeline", "num_gpus"
        }
        if unknown:
            raise InvalidSystemSpecError(
                f"unknown system spec fields: {sorted(unknown)}"
            )
        cache = data.get("cache")
        return cls(
            system=data.get("system", "scratchpipe"),
            cache=None if cache is None else CacheSpec.from_dict(cache),
            scratchpad=ScratchpadSpec.from_dict(data.get("scratchpad", {})),
            pipeline=PipelineSpec.from_dict(data.get("pipeline", {})),
            num_gpus=data.get("num_gpus", 1),
        )

    def to_json(self) -> str:
        """Compact JSON form (the CLI's ``--system`` also accepts it)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SystemSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise InvalidSystemSpecError(
                f"system spec is not valid JSON: {error}"
            ) from None
        return cls.from_dict(data)


def uniform_system_spec(
    system: str,
    cache_fraction: Optional[float] = None,
    policy: str = "lru",
    future_window: int = 2,
    num_gpus: int = 1,
) -> SystemSpec:
    """A spec with one cache fraction and policy shared by every table.

    ``cache_fraction=None`` yields a cache-less spec (hybrid baselines).
    Hand the result to :func:`~repro.api.build_system`; the spec-less
    ``SweepPoint`` fields funnel through here too, so a sweep point and a
    direct build of the same fields construct byte-identical systems.
    """
    cache = None
    if cache_fraction is not None:
        cache = CacheSpec(fraction=cache_fraction, policy=policy)
    return SystemSpec(
        system=system,
        cache=cache,
        pipeline=PipelineSpec(future_window=future_window),
        num_gpus=num_gpus,
    )


# ----------------------------------------------------------------------
# CLI shorthand: "table0=0.04,rest=0.005" <-> CacheSpec
# ----------------------------------------------------------------------
def _format_entry(spec: CacheSpec) -> str:
    if spec.fraction is not None:
        value = repr(float(spec.fraction))
    else:
        value = f"{spec.slots}s"
    if spec.policy != "lru":
        value += f":{spec.policy}"
    return value


def _parse_entry(text: str, context: str) -> CacheSpec:
    value, _, policy = text.partition(":")
    value = value.strip()
    policy = policy.strip() or "lru"
    fraction: Optional[float] = None
    slots: Optional[int] = None
    if value.endswith("s") and value[:-1].isdigit():
        slots = int(value[:-1])
    else:
        try:
            fraction = float(value)
        except ValueError:
            raise InvalidSystemSpecError(
                f"cannot parse cache size {value!r} in {context!r}; expected "
                "a fraction like 0.04 or an absolute slot count like 4096s"
            ) from None
    return CacheSpec(fraction=fraction, slots=slots, policy=policy)


def parse_cache_spec(text: str) -> CacheSpec:
    """Parse the CLI cache shorthand into a :class:`CacheSpec`.

    Grammar: comma-separated ``key=size[:policy]`` entries where ``key`` is
    ``rest`` (the default applied to all tables without an override) or
    ``tableN``/``N`` (a per-table override), and ``size`` is a fraction
    (``0.04``) or an absolute slot count (``4096s``).  A bare
    ``size[:policy]`` with no key is shorthand for ``rest=``.  Examples::

        0.02                      # uniform 2 % LRU
        0.02:random               # uniform 2 % random
        table0=0.04,rest=0.005    # heterogeneous: table 0 gets 4 %
        0=4096s:lfu,rest=0.01     # table 0: 4096 slots LFU, rest 1 % LRU
    """
    parts = [part.strip() for part in str(text).split(",") if part.strip()]
    if not parts:
        raise InvalidSystemSpecError(f"empty cache spec {text!r}")
    default: Optional[CacheSpec] = None
    overrides: Dict[int, CacheSpec] = {}
    for part in parts:
        key, eq, value = part.partition("=")
        if not eq:
            key, value = "rest", part
        key = key.strip().lower()
        entry = _parse_entry(value.strip(), part)
        if key in ("rest", "default", "*"):
            if default is not None:
                raise InvalidSystemSpecError(
                    f"cache spec {text!r} has more than one rest= entry"
                )
            default = entry
            continue
        if key.startswith("table"):
            key = key[len("table"):]
        if not key.isdigit():
            raise InvalidSystemSpecError(
                f"cannot parse cache spec entry {part!r}; keys are 'rest' "
                "or 'tableN'"
            )
        index = int(key)
        if index in overrides:
            raise InvalidSystemSpecError(
                f"duplicate cache override for table {index}"
            )
        overrides[index] = entry
    if default is None:
        raise InvalidSystemSpecError(
            f"cache spec {text!r} needs a rest=<size> entry naming the "
            "default for tables without an override"
        )
    return replace(default, tables=tuple(sorted(overrides.items())))


def format_cache_spec(spec: CacheSpec) -> str:
    """Inverse of :func:`parse_cache_spec` — lossless round-trip.

    ``parse_cache_spec(format_cache_spec(spec)) == spec`` for every
    :class:`CacheSpec` (fractions are emitted via ``repr`` so float
    precision survives).
    """
    parts = [f"table{index}={_format_entry(sub)}" for index, sub in spec.tables]
    parts.append(f"rest={_format_entry(spec)}")
    return ",".join(parts)
