"""The builtin rules: the codebase's contracts, machine-checked.

Each rule encodes an invariant this reproduction's guarantees rest on —
workers=1 vs N bit-identity, checkpoint/resume byte-identity, frozen
spec-only dispatch, the named-error taxonomy — so the aggressive
refactors the ROADMAP plans (cross-process pipelining, multi-tenant
specs) cannot silently regress them.  See each rule's docstring for the
contract and the escape hatch.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import SourceModule
from repro.lint.findings import Finding
from repro.lint.registry import LintRule, register_rule

__all__ = [
    "DeterminismRule",
    "SetOrderRule",
    "SpecPurityRule",
    "ErrorTaxonomyRule",
    "ShmDisciplineRule",
    "ProcessDisciplineRule",
    "OracleIsolationRule",
    "EnvDisciplineRule",
    "WorkerCaptureRule",
]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted names they import.

    ``import numpy as np`` -> ``{"np": "numpy"}``; ``from os import
    urandom as rnd`` -> ``{"rnd": "os.urandom"}``.  Good enough to
    resolve the module-level aliases this codebase (and most code) uses.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                aliases[local] = name.name if name.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


def _dotted_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an expression like ``np.random.rand`` to ``numpy.random.rand``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    head = aliases.get(parts[0], parts[0])
    return ".".join([head] + parts[1:])


def _allowed_path(rel: str, allowed: Sequence[str]) -> bool:
    """Whether a module path is on a rule's allowlist (suffix match)."""
    return any(rel.endswith(suffix) for suffix in allowed)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
#: ``random``-module functions that consume the hidden global RNG.
_GLOBAL_RANDOM_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
})

#: ``numpy.random`` module-level functions backed by the hidden legacy
#: global state (everything except the Generator/SeedSequence surface).
_LEGACY_NP_RANDOM_FNS = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "set_state", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald", "weibull",
    "zipf",
})

#: Ambient-entropy / wall-clock calls that are never allowed.
_AMBIENT_CALLS = frozenset({
    "time.time", "time.time_ns", "os.urandom", "uuid.uuid1", "uuid.uuid4",
})

#: Seeded constructors that become ambient-entropy sources with no args.
_NEEDS_SEED_ARG = frozenset({
    "numpy.random.default_rng", "numpy.random.SeedSequence", "random.Random",
})


@register_rule
class DeterminismRule(LintRule):
    """No unseeded RNG or wall-clock entropy in library code.

    Every figure, sweep and serve replay promises bit-identical reruns
    (workers=1 vs N, checkpoint resume).  One ``np.random.rand()`` or
    ``time.time()`` on a library path quietly voids that.  Flags the
    global-RNG surfaces of ``random`` and ``numpy.random``, wall-clock /
    OS entropy (``time.time``, ``os.urandom``, ``uuid.uuid4``,
    ``secrets.*``), and seedable constructors called without a seed
    (``np.random.default_rng()``, ``random.Random()``).  Injectable
    timing defaults (``time.monotonic``, ``time.sleep``,
    ``time.perf_counter``) are deliberately allowed — they parameterise
    retry/backoff clocks, not results.
    """

    name = "determinism"
    description = (
        "unseeded RNG / wall-clock entropy voids bit-identical reruns"
    )

    #: Module-path suffixes where ambient entropy is tolerated (none in
    #: this repo today; plugins may subclass and extend).
    allowed_modules: Tuple[str, ...] = ()

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if _allowed_path(module.rel, self.allowed_modules):
            return
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func, aliases)
            if dotted is None:
                continue
            if dotted in _AMBIENT_CALLS or dotted.startswith("secrets."):
                yield module.finding(
                    node, self.name,
                    f"{dotted}() is ambient entropy; thread a seed or an "
                    "injectable clock through the caller instead",
                )
            elif (
                dotted.startswith("random.")
                and dotted.split(".", 1)[1] in _GLOBAL_RANDOM_FNS
            ):
                yield module.finding(
                    node, self.name,
                    f"{dotted}() consumes the hidden global RNG; use a "
                    "seeded random.Random(seed) instance",
                )
            elif (
                dotted.startswith("numpy.random.")
                and dotted.split("numpy.random.", 1)[1]
                in _LEGACY_NP_RANDOM_FNS
            ):
                yield module.finding(
                    node, self.name,
                    f"{dotted}() uses numpy's hidden legacy global state; "
                    "use a seeded np.random.default_rng(seed)",
                )
            elif dotted in _NEEDS_SEED_ARG and not node.args:
                yield module.finding(
                    node, self.name,
                    f"{dotted}() without a seed draws OS entropy; pass an "
                    "explicit seed",
                )


# ----------------------------------------------------------------------
# set-order
# ----------------------------------------------------------------------
#: Order-insensitive consumers a set may feed directly.
_ORDER_FREE_CONSUMERS = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset",
})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


@register_rule
class SetOrderRule(LintRule):
    """Sets must not feed ordered output directly.

    Set iteration order depends on insertion history and, for strings,
    on ``PYTHONHASHSEED`` — iterating one into anything ordered (a loop
    body with side effects, ``list``/``tuple``/``enumerate``) breaks the
    cross-process determinism the sweep dispatch relies on.  Wrap the
    set in ``sorted(...)`` first; order-insensitive reducers (``len``,
    ``sum``, ``min``, ``any``, …) stay allowed.
    """

    name = "set-order"
    description = "iterating a set into ordered output is hash-order UB"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter):
                    yield module.finding(
                        node.iter, self.name,
                        "for-loop over a set has hash-dependent order; "
                        "iterate sorted(...) instead",
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp, ast.SetComp)):
                for gen in node.generators:
                    # A set comprehension re-hashes its elements, so a
                    # set *source* is harmless there; ordered outputs
                    # (list/dict/generator) are not.
                    if isinstance(node, ast.SetComp):
                        continue
                    if _is_set_expr(gen.iter):
                        yield module.finding(
                            gen.iter, self.name,
                            "comprehension over a set has hash-dependent "
                            "order; iterate sorted(...) instead",
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in ("list", "tuple", "enumerate", "iter")
                    and node.args
                    and _is_set_expr(node.args[0])
                ):
                    yield module.finding(
                        node, self.name,
                        f"{func.id}(set) materialises hash-dependent "
                        "order; use sorted(...)",
                    )


# ----------------------------------------------------------------------
# spec-purity
# ----------------------------------------------------------------------
#: Annotation atoms allowed in a frozen spec (hashable, picklable, and
#: stable across processes).  Nested specs/configs are allowed by name
#: pattern: anything ending in "Spec" plus the frozen config types.
_PURE_ATOMS = frozenset({
    "int", "float", "str", "bool", "bytes", "complex", "None",
    "Optional", "Union", "Tuple", "tuple", "FrozenSet", "frozenset",
    "Literal", "ModelConfig",
})

_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "bytearray"})


def _annotation_ok(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        # String annotations and the `None` atom.
        if node.value is None:
            return True
        if isinstance(node.value, str):
            try:
                return _annotation_ok(
                    ast.parse(node.value, mode="eval").body
                )
            except SyntaxError:
                return False
        return True  # Literal[...] members
    if isinstance(node, ast.Name):
        return node.id in _PURE_ATOMS or node.id.endswith("Spec")
    if isinstance(node, ast.Attribute):
        return node.attr in _PURE_ATOMS or node.attr.endswith("Spec")
    if isinstance(node, ast.Subscript):
        return _annotation_ok(node.value) and _annotation_ok(node.slice)
    if isinstance(node, ast.Tuple):
        return all(_annotation_ok(e) for e in node.elts)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_ok(node.left) and _annotation_ok(node.right)
    if isinstance(node, ast.Index):  # pragma: no cover - py<3.9 AST
        return _annotation_ok(node.value)
    return False


def _frozen_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        name = deco.func.id if isinstance(deco.func, ast.Name) else getattr(
            deco.func, "attr", "")
        if name != "dataclass":
            continue
        for kw in deco.keywords:
            if kw.arg == "frozen" and getattr(kw.value, "value", None) is True:
                return True
    return False


@register_rule
class SpecPurityRule(LintRule):
    """Frozen ``*Spec`` dataclasses must be pure dispatch currency.

    Specs are what crosses process boundaries: ``run_grid`` ships specs,
    never systems or traces, and checkpoint keys hash spec reprs.  That
    only works if every spec is deeply hashable/picklable (no list/dict/
    ndarray fields), carries no mutable defaults, and validates eagerly
    in ``__post_init__`` so a bad value fails at construction in the
    parent — not mid-grid in a worker.
    """

    name = "spec-purity"
    description = (
        "frozen *Spec dataclasses must be hashable, mutable-default-free, "
        "and eagerly validated"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Spec") or not _frozen_dataclass(node):
                continue
            has_post_init = any(
                isinstance(b, ast.FunctionDef) and b.name == "__post_init__"
                for b in node.body
            )
            if not has_post_init:
                yield module.finding(
                    node, self.name,
                    f"{node.name} needs an eager-validating __post_init__ "
                    "(bad values must fail at construction, not mid-grid)",
                )
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                    stmt.target, ast.Name
                ):
                    continue
                field_name = stmt.target.id
                if field_name.startswith("_"):
                    continue
                if not _annotation_ok(stmt.annotation):
                    yield module.finding(
                        stmt, self.name,
                        f"{node.name}.{field_name} is annotated "
                        f"{ast.unparse(stmt.annotation)!r}, which is not "
                        "hashable/picklable-safe spec currency",
                    )
                if stmt.value is not None:
                    yield from self._default_findings(
                        module, node.name, field_name, stmt
                    )

    def _default_findings(
        self,
        module: SourceModule,
        cls: str,
        field_name: str,
        stmt: ast.AnnAssign,
    ) -> Iterator[Finding]:
        value = stmt.value
        if isinstance(value, (ast.List, ast.Dict, ast.Set)):
            yield module.finding(
                stmt, self.name,
                f"{cls}.{field_name} has a mutable default",
            )
        elif isinstance(value, ast.Call):
            callee = value.func
            callee_name = (
                callee.id if isinstance(callee, ast.Name)
                else getattr(callee, "attr", "")
            )
            if callee_name in _MUTABLE_FACTORIES:
                yield module.finding(
                    stmt, self.name,
                    f"{cls}.{field_name} has a mutable default",
                )
            elif callee_name == "field":
                for kw in value.keywords:
                    if (
                        kw.arg == "default_factory"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id in _MUTABLE_FACTORIES
                    ):
                        yield module.finding(
                            stmt, self.name,
                            f"{cls}.{field_name} has a mutable "
                            "default_factory",
                        )


# ----------------------------------------------------------------------
# error-taxonomy
# ----------------------------------------------------------------------
_BARE_ERRORS = frozenset({"ValueError", "RuntimeError", "KeyError"})


@register_rule
class ErrorTaxonomyRule(LintRule):
    """Raises must use the named error hierarchy, not bare builtins.

    Every failure in ``src/repro`` has a named class (the
    ``InvalidSystemSpecError`` / ``InvalidZipfExponentError`` /
    ``SweepGridError`` pattern; the shared tail lives in
    :mod:`repro.errors`), each subclassing the builtin it refines so
    callers keep working.  A bare ``ValueError`` is uncatchable-precisely
    and unreportable by the CLI failure report.  ``TypeError`` for
    interface misuse and ``NotImplementedError`` stay allowed.
    """

    name = "error-taxonomy"
    description = (
        "raise named taxonomy errors (repro.errors), not bare "
        "ValueError/RuntimeError/KeyError"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id in _BARE_ERRORS:
                yield module.finding(
                    node, self.name,
                    f"bare {exc.id} — raise a named {exc.id} subclass "
                    "from repro.errors (message naming the offending "
                    "value)",
                )


# ----------------------------------------------------------------------
# shm-discipline
# ----------------------------------------------------------------------
@register_rule
class ShmDisciplineRule(LintRule):
    """``multiprocessing.shared_memory`` only in the segment manager.

    Raw segments leak on any exit path that is not exception-safe; PR 7
    concentrated the entire create/attach/close/unlink lifecycle (and
    the spawn-vs-fork resource-tracker dance) in
    ``repro/analysis/shm.py`` — the ``_PublishedTraces`` manager module —
    with a ``/dev/shm``-snapshot leak test over it.  Everything else
    publishes through that seam.
    """

    name = "shm-discipline"
    description = (
        "multiprocessing.shared_memory only inside repro/analysis/shm.py"
    )

    allowed_modules: Tuple[str, ...] = ("repro/analysis/shm.py",)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if _allowed_path(module.rel, self.allowed_modules):
            return
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if name.name.startswith("multiprocessing.shared_memory"):
                        yield module.finding(
                            node, self.name,
                            "import of multiprocessing.shared_memory "
                            "outside the _PublishedTraces manager module "
                            "(repro/analysis/shm.py)",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module == "multiprocessing.shared_memory" or (
                    node.module == "multiprocessing"
                    and any(n.name == "shared_memory" for n in node.names)
                ):
                    yield module.finding(
                        node, self.name,
                        "import of multiprocessing.shared_memory outside "
                        "the _PublishedTraces manager module "
                        "(repro/analysis/shm.py)",
                    )
            elif isinstance(node, ast.Attribute):
                dotted = _dotted_name(node, aliases)
                if dotted and dotted.startswith(
                    "multiprocessing.shared_memory"
                ):
                    yield module.finding(
                        node, self.name,
                        "direct multiprocessing.shared_memory use outside "
                        "the _PublishedTraces manager module "
                        "(repro/analysis/shm.py)",
                    )


# ----------------------------------------------------------------------
# process-discipline
# ----------------------------------------------------------------------
#: The ``multiprocessing`` surfaces that *spawn* processes.  Inspection
#: helpers (``get_start_method``, ``current_process``,
#: ``get_all_start_methods``, ``resource_tracker``) stay allowed
#: everywhere — they observe process state, they don't create it.
_SPAWN_PRIMITIVES = frozenset({"Process", "get_context", "Pool", "Manager"})


@register_rule
class ProcessDisciplineRule(LintRule):
    """No raw ``multiprocessing`` process spawning anywhere.

    A raw worker process needs liveness polling against a dead child,
    terminate+join on every exit path and queue teardown that cannot
    deadlock on the feeder thread; a stray ``mp.Process`` gets none of
    that and hangs CI on the first crashed child.  No module creates
    processes with ``Process``, ``get_context``, ``Pool`` or ``Manager``:
    process pools go through ``concurrent.futures`` (which owns its
    worker lifecycle), and introspection calls like
    ``get_start_method`` remain free.
    """

    name = "process-discipline"
    description = (
        "no multiprocessing process spawning (Process/get_context/Pool/"
        "Manager); use concurrent.futures"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module in ("multiprocessing",
                                   "multiprocessing.context"):
                    for name in node.names:
                        if name.name in _SPAWN_PRIMITIVES:
                            yield module.finding(
                                node, self.name,
                                f"importing multiprocessing.{name.name}; "
                                "start worker processes through "
                                "concurrent.futures",
                            )
            elif isinstance(node, ast.Attribute):
                dotted = _dotted_name(node, aliases)
                if dotted is None:
                    continue
                head, _, tail = dotted.rpartition(".")
                if (
                    head in ("multiprocessing", "multiprocessing.context")
                    and tail in _SPAWN_PRIMITIVES
                ):
                    yield module.finding(
                        node, self.name,
                        f"direct {dotted} use; start worker processes "
                        "through concurrent.futures",
                    )


# ----------------------------------------------------------------------
# oracle-isolation
# ----------------------------------------------------------------------
_ORACLES = "repro.testing.oracles"


def _from_base(node: ast.ImportFrom, rel: str) -> Optional[str]:
    """Dotted module a ``from ... import`` reads from, resolving relative
    imports against the ``repro`` package path in ``rel`` (``None`` when
    a relative import cannot be placed)."""
    if not node.level:
        return node.module
    parts = rel.split("/")
    if "repro" not in parts:
        return None
    package = parts[parts.index("repro"):-1]
    if node.level - 1 > len(package):
        return None
    base = package[: len(package) - (node.level - 1)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


@register_rule
class OracleIsolationRule(LintRule):
    """The equivalence oracles stay out of production code.

    ``repro.testing.oracles`` keeps the slow seed-style reference
    implementations (dict hazard monitor, full-scan victim selection,
    per-cycle ``np.unique`` planning, per-token TSV hashing) that the
    equivalence tests inject.  Production has one implementation per
    job; importing an oracle from any module outside ``repro/testing``
    would put a second one back on a production path.
    """

    name = "oracle-isolation"
    description = (
        "repro.testing.oracles imported only inside repro/testing/"
    )

    allowed_package = "repro/testing/"

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if f"/{self.allowed_package}" in f"/{module.rel}":
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                imported = [name.name for name in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = _from_base(node, module.rel)
                if base is None:
                    continue
                imported = [base] + [f"{base}.{n.name}" for n in node.names]
            else:
                continue
            if any(
                name == _ORACLES or name.startswith(_ORACLES + ".")
                for name in imported
            ):
                yield module.finding(
                    node, self.name,
                    f"import of {_ORACLES} outside repro/testing; the "
                    "equivalence oracles are for tests — production code "
                    "keeps one implementation per job",
                )


# ----------------------------------------------------------------------
# env-discipline
# ----------------------------------------------------------------------
_ENV_SURFACES = frozenset({"os.environ", "os.getenv", "os.putenv"})


@register_rule
class EnvDisciplineRule(LintRule):
    """``os.environ`` only through the ``repro._env`` accessor module.

    Scattered environment reads are invisible configuration: they skew
    parent/worker behaviour (a worker spawned before a late ``environ``
    write sees different config) and make the knob surface unauditable.
    ``repro/_env.py`` is the single seam; ``grep read_env`` is the
    complete knob inventory.
    """

    name = "env-discipline"
    description = "os.environ access only through repro/_env.py"

    allowed_modules: Tuple[str, ...] = ("repro/_env.py",)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if _allowed_path(module.rel, self.allowed_modules):
            return
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                for name in node.names:
                    if name.name in ("environ", "getenv", "putenv"):
                        yield module.finding(
                            node, self.name,
                            f"importing os.{name.name} bypasses the "
                            "repro._env accessor module",
                        )
            elif isinstance(node, ast.Attribute):
                dotted = _dotted_name(node, aliases)
                if dotted in _ENV_SURFACES:
                    yield module.finding(
                        node, self.name,
                        f"direct {dotted} access; read through "
                        "repro._env (read_env/write_env)",
                    )


# ----------------------------------------------------------------------
# worker-capture
# ----------------------------------------------------------------------
_EMPTY_FACTORIES = frozenset({
    "dict", "list", "set", "deque", "defaultdict", "Counter", "OrderedDict",
})

_MUTATOR_METHODS = frozenset({
    "append", "add", "update", "setdefault", "extend", "insert", "remove",
    "discard", "clear", "pop", "popleft", "appendleft",
})


def _empty_container_binding(stmt: ast.stmt) -> Optional[str]:
    """Name bound at module level to an empty mutable container, if any."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target, value = stmt.target, stmt.value
    else:
        return None
    if not isinstance(target, ast.Name):
        return None
    if isinstance(value, (ast.Dict, ast.List, ast.Set)) and not getattr(
        value, "keys", getattr(value, "elts", None)
    ):
        return target.id
    if isinstance(value, ast.Call):
        callee = value.func
        name = (
            callee.id if isinstance(callee, ast.Name)
            else getattr(callee, "attr", "")
        )
        if name in _EMPTY_FACTORIES:
            return target.id
    return None


@register_rule
class WorkerCaptureRule(LintRule):
    """Module-level mutable state mutated from functions needs a contract.

    ``run_grid`` dispatches functions into fork/spawn workers.  A
    module-level dict/list/set (or a ``global``-rebound flag) populated
    in the parent is silently *shadowed* in workers: fork snapshots it
    mid-state, spawn resets it — the classic source of workers=1 vs N
    divergence.  Flags (a) module-level empty-container bindings mutated
    inside functions of the same module and (b) ``global`` rebinds.
    Legitimate uses — import-time registries, process-local caches with a
    worker-init reset — must carry a justified inline suppression, which
    is exactly the documented contract the reviewer should see.
    """

    name = "worker-capture"
    description = (
        "module-level mutable state mutated from functions is fork/spawn "
        "shadowed"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        bindings: Dict[str, ast.stmt] = {}
        for stmt in module.tree.body:
            name = _empty_container_binding(stmt)
            if name is not None:
                bindings[name] = stmt
        if not bindings:
            globals_seen = self._global_rebinds(module)
            yield from self._report_globals(module, globals_seen, {})
            return
        mutated: Dict[str, Set[str]] = {}
        for func in self._functions(module.tree):
            for name in self._mutations_in(func, set(bindings)):
                mutated.setdefault(name, set()).add(func.name)
        for name in sorted(mutated):
            stmt = bindings[name]
            funcs = ", ".join(sorted(mutated[name]))
            yield module.finding(
                stmt, self.name,
                f"module-level mutable {name!r} is mutated by {funcs}(); "
                "parent-populated state is shadowed in fork/spawn workers "
                "— make the contract explicit (worker-init reset + "
                "justified suppression) or restructure",
            )
        globals_seen = self._global_rebinds(module)
        yield from self._report_globals(module, globals_seen, bindings)

    @staticmethod
    def _functions(tree: ast.Module) -> List[ast.FunctionDef]:
        out = []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append(node)
        return out

    @staticmethod
    def _mutations_in(
        func: ast.FunctionDef, names: Set[str]
    ) -> Set[str]:
        found: Set[str] = set()
        for node in ast.walk(func):
            # x.append(...) / x.update(...) style mutator calls
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in names
            ):
                found.add(node.func.value.id)
            # x[k] = v / del x[k] / x[k] += v
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in names
                ):
                    found.add(target.value.id)
        return found

    def _global_rebinds(
        self, module: SourceModule
    ) -> Dict[str, List[str]]:
        """Names rebound through ``global`` statements, per function."""
        rebinds: Dict[str, List[str]] = {}
        for func in self._functions(module.tree):
            declared: Set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    declared.update(node.names)
            if not declared:
                continue
            assigned: Set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            assigned.add(target.id)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    if isinstance(node.target, ast.Name):
                        assigned.add(node.target.id)
            for name in sorted(declared & assigned):
                rebinds.setdefault(name, []).append(func.name)
        return rebinds

    def _report_globals(
        self,
        module: SourceModule,
        rebinds: Dict[str, List[str]],
        container_bindings: Dict[str, ast.stmt],
    ) -> Iterator[Finding]:
        if not rebinds:
            return
        module_bindings: Dict[str, ast.stmt] = {}
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        module_bindings[target.id] = stmt
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                module_bindings[stmt.target.id] = stmt
        for name in sorted(rebinds):
            if name in container_bindings:
                continue  # already reported as a container mutation
            anchor = module_bindings.get(name)
            if anchor is None:
                continue
            funcs = ", ".join(sorted(set(rebinds[name])))
            yield module.finding(
                anchor, self.name,
                f"module-level {name!r} is rebound via 'global' by "
                f"{funcs}(); parent-set state is shadowed in fork/spawn "
                "workers — make the contract explicit (justified "
                "suppression) or restructure",
            )
