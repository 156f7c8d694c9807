"""Paired violating/clean fixtures for every builtin lint rule."""

import textwrap

import pytest

from repro.lint import lint_paths


def lint_source(tmp_path, source, select, rel="mod.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([path], select=[select], root=tmp_path)


def rules_found(run):
    return [f.rule for f in run.findings]


class TestDeterminism:
    def test_legacy_numpy_global_rng_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            import numpy as np
            x = np.random.rand(3)
            """, "determinism")
        assert rules_found(run) == ["determinism"]
        assert "numpy.random.rand" in run.findings[0].message

    def test_random_module_global_fns_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            import random
            random.seed(0)
            v = random.random()
            """, "determinism")
        assert len(run.findings) == 2

    def test_wall_clock_and_uuid_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            import time, uuid, os
            t = time.time()
            n = uuid.uuid4()
            b = os.urandom(8)
            """, "determinism")
        assert len(run.findings) == 3

    def test_unseeded_default_rng_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            import numpy as np
            from random import Random
            rng = np.random.default_rng()
            r = Random()
            """, "determinism")
        assert len(run.findings) == 2

    def test_seeded_and_injectable_clocks_clean(self, tmp_path):
        run = lint_source(tmp_path, """\
            import time
            import random
            import numpy as np
            rng = np.random.default_rng(7)
            r = random.Random(3)
            x = rng.random()
            t = time.monotonic()
            time.sleep(0.01)
            """, "determinism")
        assert run.clean

    def test_unrelated_attribute_chains_clean(self, tmp_path):
        run = lint_source(tmp_path, """\
            class Sim:
                def step(self):
                    return self.rng.random() + self.clock.time()
            """, "determinism")
        assert run.clean


class TestSetOrder:
    def test_for_loop_over_set_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            def f(items):
                for x in set(items):
                    print(x)
            """, "set-order")
        assert rules_found(run) == ["set-order"]

    def test_list_of_set_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            def f(a, b):
                return list({*a, *b})
            """, "set-order")
        assert rules_found(run) == ["set-order"]

    def test_comprehension_over_set_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            def f(items):
                return [x + 1 for x in frozenset(items)]
            """, "set-order")
        assert rules_found(run) == ["set-order"]

    def test_sorted_and_reducers_clean(self, tmp_path):
        run = lint_source(tmp_path, """\
            def f(items):
                for x in sorted(set(items)):
                    print(x)
                total = sum({len(i) for i in items})
                n = len(set(items))
                return total, n, max({1, 2})
            """, "set-order")
        assert run.clean

    def test_set_comprehension_from_set_clean(self, tmp_path):
        # A set output re-hashes anyway; only ordered outputs matter.
        run = lint_source(tmp_path, """\
            def f(items):
                return {x for x in set(items)}
            """, "set-order")
        assert run.clean


class TestSpecPurity:
    def test_mutable_default_and_annotation_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            from dataclasses import dataclass, field

            @dataclass(frozen=True)
            class BadSpec:
                items: list = field(default_factory=list)

                def __post_init__(self):
                    pass
            """, "spec-purity")
        messages = " ".join(f.message for f in run.findings)
        assert "default_factory" in messages
        assert "not hashable" in messages

    def test_missing_post_init_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class LazySpec:
                n: int = 1
            """, "spec-purity")
        assert any("__post_init__" in f.message for f in run.findings)

    def test_dict_literal_default_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class MapSpec:
                table: dict = {}

                def __post_init__(self):
                    pass
            """, "spec-purity")
        assert any("mutable default" in f.message for f in run.findings)

    def test_pure_spec_clean(self, tmp_path):
        run = lint_source(tmp_path, """\
            from dataclasses import dataclass
            from typing import Optional, Tuple

            @dataclass(frozen=True)
            class CacheSpec:
                fraction: float = 0.05
                policy: str = "lru"
                tiers: Tuple[int, ...] = ()
                parent: Optional["CacheSpec"] = None

                def __post_init__(self):
                    if self.fraction < 0:
                        raise ValueError(self.fraction)
            """, "spec-purity")
        assert run.clean

    def test_non_spec_and_unfrozen_classes_ignored(self, tmp_path):
        run = lint_source(tmp_path, """\
            from dataclasses import dataclass

            @dataclass
            class MutableSpec:
                items: list = None

            @dataclass(frozen=True)
            class NotACurrency:
                items: list = None
            """, "spec-purity")
        assert run.clean


class TestErrorTaxonomy:
    def test_bare_builtins_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            def f(x):
                if x < 0:
                    raise ValueError("negative")
                if x > 10:
                    raise RuntimeError("too big")
                raise KeyError(x)
            """, "error-taxonomy")
        assert len(run.findings) == 3

    def test_named_subclasses_and_reraise_clean(self, tmp_path):
        run = lint_source(tmp_path, """\
            class LoaderConfigError(ValueError):
                pass

            def f(x):
                if x is None:
                    raise TypeError("x must be an int")
                if x < 0:
                    raise LoaderConfigError(x)
                try:
                    return 1 / x
                except ZeroDivisionError:
                    raise
            """, "error-taxonomy")
        assert run.clean


class TestShmDiscipline:
    @pytest.mark.parametrize("stmt", [
        "from multiprocessing import shared_memory",
        "import multiprocessing.shared_memory",
        "from multiprocessing.shared_memory import SharedMemory",
    ])
    def test_imports_flagged(self, tmp_path, stmt):
        run = lint_source(tmp_path, stmt + "\n", "shm-discipline")
        assert "shm-discipline" in rules_found(run)

    def test_attribute_use_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            import multiprocessing as mp

            def grab(name):
                return mp.shared_memory.SharedMemory(name=name)
            """, "shm-discipline")
        assert "shm-discipline" in rules_found(run)

    def test_manager_module_allowed(self, tmp_path):
        run = lint_source(tmp_path, """\
            from multiprocessing import shared_memory

            def publish(name, size):
                return shared_memory.SharedMemory(name, create=True, size=size)
            """, "shm-discipline", rel="repro/analysis/shm.py")
        assert run.clean


class TestProcessDiscipline:
    @pytest.mark.parametrize("stmt", [
        "from multiprocessing import Process",
        "from multiprocessing import get_context",
        "from multiprocessing import Pool, Manager",
    ])
    def test_spawn_imports_flagged(self, tmp_path, stmt):
        run = lint_source(tmp_path, stmt + "\n", "process-discipline")
        assert "process-discipline" in rules_found(run)

    def test_attribute_spawn_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            import multiprocessing as mp

            def launch(fn):
                worker = mp.Process(target=fn)
                worker.start()
                return mp.get_context("fork")
            """, "process-discipline")
        assert len(run.findings) == 2

    def test_introspection_allowed(self, tmp_path):
        # shm.py's resource-tracker dance must stay clean: observing
        # process state is fine, creating processes is not.
        run = lint_source(tmp_path, """\
            import multiprocessing

            def tracked():
                if multiprocessing.get_start_method(allow_none=True) != "fork":
                    from multiprocessing import resource_tracker
                    return resource_tracker
                return multiprocessing.current_process().daemon
            """, "process-discipline")
        assert run.clean

    def test_executor_module_flagged(self, tmp_path):
        # No module is exempt, the stage-executor module included.
        run = lint_source(tmp_path, """\
            import multiprocessing

            def spawn(fn):
                context = multiprocessing.get_context("fork")
                return context.Process(target=fn, daemon=True)
            """, "process-discipline", rel="repro/core/executor.py")
        assert rules_found(run) == ["process-discipline"]


class TestOracleIsolation:
    @pytest.mark.parametrize("stmt", [
        "import repro.testing.oracles",
        "import repro.testing.oracles as oracles",
        "from repro.testing.oracles import ScanHazardMonitor",
        "from repro.testing import oracles",
        "from repro.testing import faults, oracles",
    ])
    def test_oracle_imports_flagged(self, tmp_path, stmt):
        run = lint_source(tmp_path, stmt + "\n", "oracle-isolation",
                          rel="repro/core/pipeline.py")
        assert rules_found(run) == ["oracle-isolation"]

    @pytest.mark.parametrize("stmt", [
        "from ..testing.oracles import ScanHazardMonitor",
        "from ..testing import oracles",
    ])
    def test_relative_oracle_imports_flagged(self, tmp_path, stmt):
        run = lint_source(tmp_path, stmt + "\n", "oracle-isolation",
                          rel="src/repro/core/pipeline.py")
        assert rules_found(run) == ["oracle-isolation"]

    def test_other_testing_modules_allowed(self, tmp_path):
        run = lint_source(tmp_path, """\
            from repro.testing import faults
            from repro.testing.faults import fault_point
            from ..testing.faults import FaultSpec
            """, "oracle-isolation", rel="src/repro/core/executor.py")
        assert run.clean

    def test_testing_package_allowed(self, tmp_path):
        run = lint_source(tmp_path, """\
            from repro.testing.oracles import ScanHazardMonitor
            from . import oracles
            """, "oracle-isolation", rel="src/repro/testing/helpers.py")
        assert run.clean


class TestEnvDiscipline:
    def test_environ_and_getenv_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            import os
            a = os.environ["HOME"]
            b = os.getenv("SHELL")
            """, "env-discipline")
        assert len(run.findings) == 2

    def test_from_import_flagged(self, tmp_path):
        run = lint_source(tmp_path, "from os import environ\n",
                          "env-discipline")
        assert rules_found(run) == ["env-discipline"]

    def test_accessor_module_allowed(self, tmp_path):
        run = lint_source(tmp_path, """\
            import os

            def read_env(name, default=None):
                return os.environ.get(name, default)
            """, "env-discipline", rel="repro/_env.py")
        assert run.clean


class TestWorkerCapture:
    def test_module_cache_mutated_in_function_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            _CACHE = {}

            def put(key, value):
                _CACHE[key] = value
            """, "worker-capture")
        assert rules_found(run) == ["worker-capture"]
        assert run.findings[0].line == 1
        assert "_CACHE" in run.findings[0].message

    def test_global_rebind_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            _INITIALISED = False

            def init():
                global _INITIALISED
                _INITIALISED = True
            """, "worker-capture")
        assert rules_found(run) == ["worker-capture"]

    def test_mutator_methods_flagged(self, tmp_path):
        run = lint_source(tmp_path, """\
            from collections import Counter

            _ARRIVALS = Counter()

            def bump(site):
                _ARRIVALS.update([site])
            """, "worker-capture")
        assert rules_found(run) == ["worker-capture"]

    def test_read_only_and_constants_clean(self, tmp_path):
        run = lint_source(tmp_path, """\
            _TABLE = {}
            _NAMES = ("a", "b")

            def get(key):
                return _TABLE.get(key)

            def local_state():
                cache = {}
                cache["x"] = 1
                return cache
            """, "worker-capture")
        assert run.clean

    def test_justified_suppression_silences(self, tmp_path):
        run = lint_source(tmp_path, """\
            # repro-lint: disable=worker-capture -- import-time registry,
            # rebuilt identically in every process.
            _RULES = {}

            def register(name, cls):
                _RULES[name] = cls
            """, "worker-capture")
        assert run.clean
        assert len(run.suppressed) == 1
