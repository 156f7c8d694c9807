"""Deterministic fault injection for resilience testing.

The sweep/dispatch machinery (``repro.analysis.sweep``) promises to survive
worker crashes, stalls and transient I/O failures; this module is the tool
those promises are tested against.  A :class:`FaultPlan` — a list of
:class:`FaultSpec` records — is installed into the environment
(:data:`FAULT_PLAN_ENV`), so it crosses the process boundary into pool
workers for free, and library code calls :func:`fault_point` at named
sites.  When no plan is installed the call is a single dict lookup.

Instrumented sites (grow this list as subsystems gain hooks):

* ``"sweep.point"``   — entry of :func:`repro.analysis.sweep.run_point`;
  the *detail* is the point label (``system:locality:cache:metric``).
* ``"pipeline.stage"`` — the ScratchPipe pipeline's stages, firing
  *inside* a running evaluation, on the thread that drives the cycle
  loop: detail ``"plan:<batch>"``, ``"collect:<batch>"``,
  ``"insert:<batch>"`` or ``"train:<batch>"`` as each stage of that
  batch starts (``train`` fires before Train is handed to its thread).
* ``"fetch.read"``     — each download attempt of
  :func:`repro.data.fetch.fetch_trace` (detail: the URL).

Determinism: arrivals at a site are counted per process, the optional
``probability`` gate is a pure function of ``(seed, site, arrival)`` (a
SplitMix64 hash, no global RNG), and the injection budget (``times``) is
enforced *across processes* through atomically-claimed ticket files in the
plan's ``state_dir`` — a killed-and-respawned worker that re-runs the same
point cannot be killed forever, because the budget travels with the plan,
not the process.

Fault modes:

* ``"kill"``  — ``SIGKILL`` the current process (an OOM killer stand-in).
* ``"raise"`` — raise :class:`InjectedFaultError`.
* ``"stall"`` — sleep ``stall_s`` seconds (drives per-point timeouts).
* ``"error"`` — raise ``urllib.error.URLError`` (a transient network
  failure, for the fetch retry path).
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Iterator, Optional, Tuple
from repro._env import read_env, remove_env, write_env
from repro.errors import FaultSpecError

#: Environment variable carrying the JSON-encoded active plan.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Fault modes a spec may name.
FAULT_MODES = ("kill", "raise", "stall", "error")


class InjectedFaultError(RuntimeError):
    """The error raised by ``mode="raise"`` faults (and only by them)."""


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject at a named site.

    Attributes:
        site: Instrumented site name (e.g. ``"sweep.point"``).
        mode: One of :data:`FAULT_MODES`.
        times: Total injection budget across *all* processes sharing the
            plan (enforced via ticket files in the plan's state dir).
        after: Arrivals at the site to let pass, per process, before the
            spec becomes eligible.
        match: Substring the site's ``detail`` must contain (empty: any).
        stall_s: Sleep length for ``mode="stall"``.
        probability: Chance of firing at an eligible arrival; decided by
            a pure hash of ``(seed, site, arrival)`` so runs replay.
        seed: Seed of the probability gate.
    """

    site: str
    mode: str
    times: int = 1
    after: int = 0
    match: str = ""
    stall_s: float = 60.0
    probability: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise FaultSpecError(
                f"unknown fault mode {self.mode!r}; expected one of "
                f"{FAULT_MODES}"
            )
        if self.times < 1:
            raise FaultSpecError(f"times must be >= 1, got {self.times}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(
                f"probability must be in [0, 1], got {self.probability}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """An installable set of faults plus the shared ticket directory."""

    faults: Tuple[FaultSpec, ...]
    state_dir: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "state_dir": self.state_dir,
                "faults": [asdict(spec) for spec in self.faults],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        return cls(
            faults=tuple(FaultSpec(**spec) for spec in payload["faults"]),
            state_dir=payload["state_dir"],
        )


#: Per-process arrival counters, keyed by site name.
# repro-lint: disable=worker-capture -- deliberately per-process: fault
# specs count arrivals within one process, and _worker_init calls
# reset_arrivals() so spawn and fork workers start from zero alike.
_ARRIVALS: Counter = Counter()


def reset_arrivals() -> None:
    """Zero this process's arrival counters (fresh-worker semantics)."""
    _ARRIVALS.clear()


@lru_cache(maxsize=4)
def _parse_plan(encoded: str) -> FaultPlan:
    return FaultPlan.from_json(encoded)


def _mix64(value: int) -> int:
    """SplitMix64 finaliser: a high-quality 64-bit hash."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def _fires(spec: FaultSpec, arrival: int) -> bool:
    """Pure probability gate: identical for every replay of the plan."""
    if spec.probability >= 1.0:
        return True
    if spec.probability <= 0.0:
        return False
    basis = _mix64(spec.seed * 0x10001 + arrival * 2 + len(spec.site))
    return (basis / 2.0**64) < spec.probability


def _claim_ticket(state_dir: str, spec_index: int, times: int) -> bool:
    """Atomically claim one of the spec's ``times`` injection tickets.

    ``O_CREAT | O_EXCL`` makes the claim race-free across the parent and
    every (possibly respawned) worker sharing the plan.
    """
    for k in range(times):
        path = os.path.join(state_dir, f"ticket-{spec_index}-{k}")
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except FileExistsError:
            continue
        except OSError:
            return False  # unusable state dir: never inject blindly
    return False


def injection_count(state_dir: str) -> int:
    """How many injections the plan sharing ``state_dir`` has fired."""
    try:
        return sum(
            1 for name in os.listdir(state_dir) if name.startswith("ticket-")
        )
    except OSError:
        return 0


def _fire(spec: FaultSpec, site: str, detail: str) -> None:
    if spec.mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if spec.mode == "stall":
        time.sleep(spec.stall_s)
        return
    if spec.mode == "error":
        import urllib.error

        raise urllib.error.URLError(
            f"injected transient failure at {site} ({detail})"
        )
    raise InjectedFaultError(f"injected fault at {site} ({detail})")


def fault_point(site: str, detail: str = "") -> None:
    """Library hook: maybe inject a fault at ``site``.

    A no-op (one environment lookup) unless a plan is installed in
    :data:`FAULT_PLAN_ENV`.  At most one spec fires per arrival — the
    first eligible one in plan order.
    """
    encoded = read_env(FAULT_PLAN_ENV)
    if not encoded:
        return
    plan = _parse_plan(encoded)
    arrival = _ARRIVALS[site]
    _ARRIVALS[site] = arrival + 1
    for index, spec in enumerate(plan.faults):
        if spec.site != site:
            continue
        if spec.match and spec.match not in detail:
            continue
        if arrival < spec.after:
            continue
        if not _fires(spec, arrival):
            continue
        if not _claim_ticket(plan.state_dir, index, spec.times):
            continue
        _fire(spec, site, detail)
        return


@contextmanager
def injected_faults(
    *specs: FaultSpec, state_dir: str
) -> Iterator[FaultPlan]:
    """Install a plan for the duration of a ``with`` block.

    The environment carries the plan into worker pools spawned inside the
    block; ``state_dir`` (caller-owned, typically a pytest ``tmp_path``)
    accumulates the claimed tickets — inspect progress with
    :func:`injection_count`.
    """
    os.makedirs(state_dir, exist_ok=True)
    plan = FaultPlan(faults=tuple(specs), state_dir=str(state_dir))
    previous = read_env(FAULT_PLAN_ENV)
    write_env(FAULT_PLAN_ENV, plan.to_json())
    reset_arrivals()
    try:
        yield plan
    finally:
        if previous is None:
            remove_env(FAULT_PLAN_ENV)
        else:
            write_env(FAULT_PLAN_ENV, previous)
        reset_arrivals()


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    encoded = read_env(FAULT_PLAN_ENV)
    if not encoded:
        return None
    return _parse_plan(encoded)
