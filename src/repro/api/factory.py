"""``build_system`` — the single factory every consumer assembles through.

Every figure, sweep grid, CLI command and example constructs systems by
handing a :class:`~repro.api.specs.SystemSpec` (or a registered name, or
the CLI's name-or-JSON string) to :func:`build_system`.  The factory
resolves the registered class and delegates to its
``from_spec(spec, config, hardware)`` constructor.  Uniform caches
(:func:`~repro.api.specs.uniform_system_spec`) and heterogeneous
per-table caches flow through the same door; the cached designs'
constructors take nothing but ``(config, hardware, *, spec=...)``.
"""

from __future__ import annotations

from typing import Union

from repro.api.registry import RegistryError, system_entry
from repro.api.specs import InvalidSystemSpecError, SystemSpec
from repro.hardware.spec import HardwareSpec
from repro.model.config import ModelConfig
from repro.systems.base import TrainingSystem


def as_system_spec(spec: Union[SystemSpec, str]) -> SystemSpec:
    """Coerce a spec, a registered name, or a JSON string to a SystemSpec."""
    if isinstance(spec, SystemSpec):
        return spec
    if isinstance(spec, str):
        text = spec.strip()
        if text.startswith("{"):
            return SystemSpec.from_json(text)
        return SystemSpec(system=text)
    raise InvalidSystemSpecError(
        f"expected a SystemSpec, a registered system name, or a JSON spec; "
        f"got {type(spec).__name__}"
    )


def build_system(
    spec: Union[SystemSpec, str],
    config: ModelConfig,
    hardware: HardwareSpec,
) -> TrainingSystem:
    """Realise a :class:`SystemSpec` against a concrete config + hardware.

    Raises :class:`InvalidSystemSpecError` (never a late construction
    error) when the spec names an unknown system, omits a required cache,
    or carries a cache for a cache-less baseline.
    """
    spec = as_system_spec(spec)
    try:
        entry = system_entry(spec.system)
    except RegistryError as error:
        raise InvalidSystemSpecError(str(error)) from None
    if entry.requires_cache and spec.cache is None:
        raise InvalidSystemSpecError(
            f"system {spec.system!r} requires a cache spec "
            "(SystemSpec.cache is None)"
        )
    if not entry.requires_cache and spec.cache is not None:
        raise InvalidSystemSpecError(
            f"system {spec.system!r} takes no cache, but the spec carries "
            "one — drop SystemSpec.cache or pick a cached design"
        )
    if not entry.uses_num_gpus and spec.num_gpus != 1:
        raise InvalidSystemSpecError(
            f"system {spec.system!r} is single-GPU but the spec asks for "
            f"num_gpus={spec.num_gpus} — the field would be silently "
            "ignored; pick a multi-GPU design or drop it"
        )
    if spec.cache is not None:
        # Hazard-window floor: a dynamic cache sized below the design's
        # hold-mask window can exhaust hazard-free victims mid-run.  With
        # the geometry now in hand, reject undersized uniform or per-table
        # splits here — a named spec error at construction instead of a
        # CachePressureError deep inside a run.
        floor = entry.cls.min_cache_slots(spec, config)
        spec.cache.resolve(
            config.num_tables,
            config.rows_per_table,
            min_slots=floor,
            floor_what=f"{spec.system} hazard-window floor",
        )
    return entry.cls.from_spec(spec, config, hardware)
