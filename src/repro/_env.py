"""The single process-environment accessor for :mod:`repro`.

Every ``os.environ`` read or write inside ``src/repro`` flows through this
module — the ``env-discipline`` lint rule (:mod:`repro.lint`) rejects
direct access anywhere else.  Funnelling the ambient environment through
one seam keeps the configuration surface auditable (``grep read_env`` is
the complete inventory of knobs), makes tests able to fake the whole
environment at one chokepoint, and stops sweep workers from growing
hidden parent/worker configuration skew.

The accessors deliberately stay thin wrappers: no caching, no type
coercion beyond what the caller asks for.  Caching environment reads
would silently break the cross-process fault-plan handoff in
:mod:`repro.testing.faults`, which round-trips plans through the
environment of freshly spawned workers.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "read_env",
    "write_env",
    "remove_env",
]


def read_env(name: str, default: Optional[str] = None) -> Optional[str]:
    """Read one environment variable (the ``os.environ.get`` seam)."""
    return os.environ.get(name, default)


def write_env(name: str, value: str) -> None:
    """Set one environment variable (inherited by later child processes)."""
    os.environ[name] = value


def remove_env(name: str) -> None:
    """Unset one environment variable; a no-op when already unset."""
    os.environ.pop(name, None)
