"""Fixture-driven tests for the ``sptransx check`` static-analysis rules.

Each fixture is a miniature project in a tmpdir using the same
``src/repro`` + ``tests/`` layout as the real repo, so the tests exercise
the actual driver (discovery, scoping, suppression filtering) — not just
the visitors.
"""

from pathlib import Path

import pytest

from repro.analysis import Finding, iter_checkers, iter_rules, run_checks


def make_project(tmp_path: Path, files: dict) -> Path:
    """Write ``{relpath: source}`` into a repo-shaped tmpdir."""
    for relpath, text in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return tmp_path


def rules_of(findings) -> set:
    return {f.rule for f in findings}


class TestFramework:
    def test_all_eleven_rules_registered(self):
        rule_ids = {rule for rule, _ in iter_rules()}
        assert rule_ids == {
            "dtype-ctor",
            "dtype-promotion",
            "fork-taint",
            "lock-state",
            "kernel-parity",
            "registry-model",
            "registry-roundtrip",
            "resource-lifecycle",
            "suppression-unused",
            "ann-recall",
            "unreachable-public",
        }

    def test_every_checker_describes_itself(self):
        for checker in iter_checkers():
            assert checker.name and checker.rule_ids and checker.description

    def test_empty_project_is_clean(self, tmp_path):
        assert run_checks(tmp_path) == []

    def test_findings_sorted_and_serialisable(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/sparse/b.py": "import numpy as np\nx = np.empty(3)\n",
            "src/repro/sparse/a.py": "import numpy as np\ny = np.zeros(3)\n",
        })
        findings = run_checks(tmp_path)
        assert [f.path for f in findings] == [
            "src/repro/sparse/a.py", "src/repro/sparse/b.py",
        ]
        payload = findings[0].to_dict()
        assert payload["rule"] == "dtype-ctor"
        assert payload["line"] == 2


class TestDtypeChecker:
    def test_bare_ctor_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/sparse/mod.py": (
                "import numpy as np\n"
                "def f(n):\n"
                "    return np.empty(n)\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["dtype-ctor"])
        assert len(findings) == 1
        assert findings[0].line == 3
        assert "np.empty" in findings[0].message

    def test_explicit_dtype_passes(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/sparse/mod.py": (
                "import numpy as np\n"
                "def f(n, dt):\n"
                "    a = np.empty(n, dtype=dt)\n"
                "    b = np.zeros((n, 2), dtype=np.float64)\n"
                "    c = np.arange(n, dtype=np.int64)\n"
                "    return a, b, c\n"
            ),
        })
        assert run_checks(tmp_path, rules=["dtype-ctor"]) == []

    def test_astype_builtin_float_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/nn/mod.py": (
                "def f(x):\n"
                "    return x.astype(float)\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["dtype-promotion"])
        assert len(findings) == 1
        assert "astype(float)" in findings[0].message

    def test_dtype_builtin_kwarg_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/losses/mod.py": (
                "import numpy as np\n"
                "x = np.zeros(4, dtype=float)\n"
            ),
        })
        assert rules_of(run_checks(tmp_path)) == {"dtype-promotion"}

    def test_float_literal_array_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/evaluation/mod.py": (
                "import numpy as np\n"
                "x = np.array([1.0, 2.0])\n"
            ),
        })
        assert rules_of(run_checks(tmp_path)) == {"dtype-promotion"}

    def test_optimizer_scratch_must_name_its_dtype(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/optim/mod.py": (
                "import numpy as np\n"
                "def scratch(param):\n"
                "    a = np.empty(param.data.shape)\n"
                "    b = np.empty(param.data.shape, dtype=param.data.dtype)\n"
                "    return a, b\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["dtype-ctor"])
        assert [f.line for f in findings] == [3]

    def test_known_triples_index_must_name_its_dtype(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/data/known.py": (
                "import numpy as np\n"
                "def rows(counts):\n"
                "    a = np.arange(counts.shape[0])\n"
                "    b = np.arange(counts.shape[0], dtype=np.int64)\n"
                "    return a, b, counts.astype(int)\n"
            ),
            # The rest of data/ stays outside the rule.
            "src/repro/data/loaders.py": "import numpy as np\nx = np.empty(3)\n",
        })
        findings = run_checks(tmp_path, rules=["dtype-ctor", "dtype-promotion"])
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("dtype-ctor", "src/repro/data/known.py", 3),
            ("dtype-promotion", "src/repro/data/known.py", 5),
        ]

    def test_ranking_walk_must_name_its_dtype(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/models/base.py": (
                "import numpy as np\n"
                "def walk(b):\n"
                "    scratch = np.empty(0)\n"
                "    tile = np.empty(b, dtype=np.float32)\n"
                "    return scratch, tile\n"
            ),
            # The rest of models/ stays outside the rule.
            "src/repro/models/transe.py": "import numpy as np\nx = np.empty(3)\n",
        })
        findings = run_checks(tmp_path, rules=["dtype-ctor"])
        assert [(f.path, f.line) for f in findings] == [("src/repro/models/base.py", 3)]

    def test_out_of_scope_module_ignored(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/utils/mod.py": "import numpy as np\nx = np.empty(3)\n",
        })
        assert run_checks(tmp_path, rules=["dtype-ctor"]) == []


class TestForkSafetyChecker:
    """The entry points and their direct imports, owned by fork-taint."""

    def _pool(self, body: str = "") -> str:
        return "from repro.serving import helpers\n" + body

    def test_module_level_lock_in_import_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/serving/pool.py": self._pool(),
            "src/repro/serving/helpers.py": (
                "import threading\n"
                "_LOCK = threading.Lock()\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["fork-taint"])
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/serving/helpers.py", 2)]

    def test_aliased_lock_import_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/serving/pool.py": (
                "from threading import RLock as L\n"
                "_GUARD = L()\n"
            ),
        })
        findings = run_checks(tmp_path)
        assert [(f.rule, f.line) for f in findings] == [("fork-taint", 2)]

    def test_aliased_threading_module_lock_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/serving/pool.py": (
                "import threading as th\n"
                "_G = th.Lock()\n"
            ),
        })
        findings = run_checks(tmp_path)
        assert [(f.rule, f.line) for f in findings] == [("fork-taint", 2)]

    def test_sqlite_connect_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/serving/pool.py": (
                "import sqlite3\n"
                "def open_store(path):\n"
                "    return sqlite3.connect(path)\n"
            ),
        })
        # open_store has no caller, which unreachable-public reports.
        findings = run_checks(tmp_path)
        assert [(f.rule, f.line) for f in findings] == [
            ("unreachable-public", 2), ("fork-taint", 3)]
        assert "in a module os.fork() duplicates" in findings[1].message

    def test_atexit_register_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/serving/pool.py": (
                "import atexit\n"
                "def install(handler):\n"
                "    atexit.register(handler)\n"
            ),
        })
        findings = run_checks(tmp_path)
        assert [(f.rule, f.line) for f in findings] == [
            ("unreachable-public", 2), ("fork-taint", 3)]

    def test_module_imported_from_a_package_is_a_direct_import(self, tmp_path):
        # `from repro.serving import helpers` with a serving/__init__.py:
        # helpers.py is still duplicated into every worker.
        make_project(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/serving/__init__.py": "",
            "src/repro/serving/pool.py": (
                "def start():\n"
                "    from repro.serving import helpers\n"
            ),
            "src/repro/serving/helpers.py": (
                "import sqlite3\n"
                "def open_store(path):\n"
                "    return sqlite3.connect(path)\n"
            ),
        })
        findings = run_checks(tmp_path)
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("unreachable-public", "src/repro/serving/helpers.py", 2),
            ("fork-taint", "src/repro/serving/helpers.py", 3),
            ("unreachable-public", "src/repro/serving/pool.py", 1)]

    def test_retired_rule_id_in_an_ignore_is_reported_stale(self, tmp_path):
        # fork-sqlite is folded into fork-taint; an ignore naming the old
        # id suppresses nothing, and suppression-unused says so.  (The
        # fixture's open_store has no caller, which unreachable-public reports.)
        make_project(tmp_path, {
            "src/repro/serving/pool.py": (
                "import sqlite3\n"
                "def open_store(p):\n"
                "    return sqlite3.connect(p)  # repro: ignore[fork-sqlite]\n"
            ),
        })
        findings = {f.rule: f for f in run_checks(tmp_path)}
        assert sorted((r, f.line) for r, f in findings.items()) == [
            ("fork-taint", 3), ("suppression-unused", 3),
            ("unreachable-public", 2)]
        assert "fork-sqlite" in findings["suppression-unused"].message

    def test_instance_lock_passes(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/serving/pool.py": (
                "import threading\n"
                "class T:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
            ),
        })
        # Only the fixture's unreferenced class is reported.
        assert [(f.rule, f.line) for f in run_checks(tmp_path)] == [
            ("unreachable-public", 2)]

    def test_unimported_module_not_in_scope(self, tmp_path):
        # The lock lives in a module the pool never imports: not in the
        # fork closure, so fork-taint has nothing to say about it.
        make_project(tmp_path, {
            "src/repro/serving/pool.py": "x = 1\n",
            "src/repro/serving/helpers.py": (
                "import threading\n"
                "_LOCK = threading.Lock()\n"
            ),
        })
        assert run_checks(tmp_path, rules=["fork-taint"]) == []

    def test_training_is_not_an_entry_point(self, tmp_path):
        # Training forks nothing: a lock that only training modules import
        # is outside every fork closure, whatever the module is called.
        make_project(tmp_path, {
            "src/repro/serving/pool.py": "x = 1\n",
            "src/repro/training/multiprocess.py": (
                "from repro.training import helpers\n"
            ),
            "src/repro/training/helpers.py": (
                "import threading\n"
                "_LOCK = threading.Lock()\n"
            ),
        })
        assert run_checks(tmp_path, rules=["fork-taint"]) == []

    def test_serving_pool_is_an_entry_point(self, tmp_path):
        # `serve --workers N` forks from serving/pool.py: a module-level lock
        # in a module the pool imports is inherited by every worker.
        make_project(tmp_path, {
            "src/repro/serving/pool.py": "from repro.serving import deadline\n",
            "src/repro/serving/deadline.py": (
                "import threading\n"
                "_LOCK = threading.Lock()\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["fork-taint"])
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("fork-taint", "src/repro/serving/deadline.py", 2)]


_LOCKED_CLASS = """\
import threading

class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        {bump_body}

    def _reset_locked(self):
        self.count = 0
"""


class TestLockDisciplineChecker:
    """The single-method cases of the lock contract, owned by lock-state."""

    def test_unlocked_mutation_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/serving/engine.py": _LOCKED_CLASS.format(
                bump_body="self.count += 1"
            ),
        })
        findings = run_checks(tmp_path, rules=["lock-state"])
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/serving/engine.py", 9)]
        assert "Engine.bump" in findings[0].message
        assert "self._lock" in findings[0].message

    def test_aliased_lock_class_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/serving/engine.py": _LOCKED_CLASS.replace(
                "import threading\n", "from threading import Lock as L\n"
            ).replace("threading.Lock()", "L()").format(
                bump_body="self.count += 1"
            ),
        })
        findings = run_checks(tmp_path, rules=["lock-state"])
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/serving/engine.py", 9)]

    def test_locked_mutation_passes(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/serving/engine.py": _LOCKED_CLASS.format(
                bump_body="with self._lock:\n            self.count += 1"
            ),
        })
        assert run_checks(tmp_path, rules=["lock-state"]) == []

    def test_locked_suffix_method_exempt(self, tmp_path):
        # _reset_locked mutates self.count bare, but the suffix marks the
        # caller-holds-lock convention.
        make_project(tmp_path, {
            "src/repro/serving/engine.py": _LOCKED_CLASS.format(
                bump_body="with self._lock:\n            self._reset_locked()"
            ),
        })
        assert run_checks(tmp_path, rules=["lock-state"]) == []

    def test_nested_callback_loses_the_lock(self, tmp_path):
        body = (
            "with self._lock:\n"
            "            def cb():\n"
            "                self.count += 1\n"
            "            return cb"
        )
        make_project(tmp_path, {
            "src/repro/serving/engine.py": _LOCKED_CLASS.format(bump_body=body),
        })
        findings = run_checks(tmp_path)
        assert [(f.rule, f.line) for f in findings] == [
            ("unreachable-public", 3), ("lock-state", 11)]
        assert "Engine.bump.<locals>.cb()" in findings[1].message

    def test_callback_method_passed_as_a_value_is_a_root(self, tmp_path):
        # No call edge reaches _expire: the Timer thread runs it, with no
        # lock held.
        make_project(tmp_path, {
            "src/repro/serving/engine.py": (
                "import threading\n"
                "\n"
                "class Engine:\n"
                "    def __init__(self):\n"
                "        self._lock = threading.Lock()\n"
                "        self.count = 0\n"
                "\n"
                "    def arm(self):\n"
                "        threading.Timer(1.0, self._expire).start()\n"
                "\n"
                "    def _expire(self):\n"
                "        self.count = 0\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["lock-state"])
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/serving/engine.py", 12)]
        assert findings[0].message.startswith("Engine._expire()")

    def test_class_without_lock_ignored(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/serving/stats.py": (
                "class Stats:\n"
                "    def __init__(self):\n"
                "        self.count = 0\n"
                "    def bump(self):\n"
                "        self.count += 1\n"
            ),
        })
        assert run_checks(tmp_path, rules=["lock-state"]) == []

    def test_outside_serving_checked_too(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/utils/engine.py": _LOCKED_CLASS.format(
                bump_body="self.count += 1"
            ),
        })
        findings = run_checks(tmp_path, rules=["lock-state"])
        assert [(f.path, f.line) for f in findings] == [
            ("src/repro/utils/engine.py", 9)]


class TestKernelParityChecker:
    FILES = {
        "src/repro/sparse/backends.py": (
            "def register_backend(name, fn=None):\n"
            "    pass\n"
            'register_backend("fast", None)\n'
            'register_backend("slow", None)\n'
        ),
        "src/repro/sparse/kernels.py": (
            "def covered_kernel(x):\n"
            "    return x\n"
            "def orphan_kernel(x):\n"
            "    return x\n"
            "def _private(x):\n"
            "    return x\n"
        ),
        "tests/sparse/test_parity.py": (
            'BACKEND = "fast"\n'
            "def test_covered_kernel():\n"
            "    assert covered_kernel\n"
        ),
    }

    def test_uncovered_backend_and_kernel_flagged(self, tmp_path):
        make_project(tmp_path, dict(self.FILES))
        findings = run_checks(tmp_path, rules=["kernel-parity"])
        messages = "\n".join(f.message for f in findings)
        assert len(findings) == 2
        assert '"slow"' in messages
        assert "orphan_kernel" in messages
        assert "_private" not in messages

    def test_full_coverage_passes(self, tmp_path):
        files = dict(self.FILES)
        files["tests/sparse/test_more.py"] = (
            'B = "slow"\n'
            "def test_orphan_kernel():\n"
            "    assert orphan_kernel\n"
        )
        make_project(tmp_path, files)
        assert run_checks(tmp_path, rules=["kernel-parity"]) == []

    def test_substring_name_does_not_count(self, tmp_path):
        # "fastest" must not cover backend "fast"-style word matching for
        # kernels: the kernel name needs a word-boundary match.
        files = dict(self.FILES)
        files["tests/sparse/test_parity.py"] = (
            'BACKEND = "fast"\n'
            'OTHER = "slow"\n'
            "def test_x():\n"
            "    assert covered_kernel and orphan_kernelish\n"
        )
        make_project(tmp_path, files)
        findings = run_checks(tmp_path, rules=["kernel-parity"])
        assert len(findings) == 1
        assert "orphan_kernel" in findings[0].message


    RANKING_FILES = {
        "src/repro/ranking.py": (
            "def l2_distance_matrix(q, t):\n"
            "    return q\n"
            "def squared_norms(rows):\n"
            "    return rows\n"
            "def _floating(dtype):\n"
            "    return dtype\n"
        ),
        "tests/test_ranking.py": (
            "def test_kernel():\n"
            "    assert l2_distance_matrix\n"
        ),
        # Naming the kernel anywhere else does not count: the oracle lives in
        # tests/test_ranking.py and so must the test.
        "tests/sparse/test_elsewhere.py": (
            "def test_other():\n"
            "    assert squared_norms\n"
        ),
    }

    def test_public_ranking_function_without_a_test_is_flagged(self, tmp_path):
        make_project(tmp_path, dict(self.RANKING_FILES))
        findings = run_checks(tmp_path, rules=["kernel-parity"])
        assert len(findings) == 1
        assert "squared_norms" in findings[0].message
        assert "tests/test_ranking.py" in findings[0].message
        assert findings[0].path.endswith("ranking.py")

    def test_ranking_functions_named_by_their_test_file_pass(self, tmp_path):
        files = dict(self.RANKING_FILES)
        files["tests/test_ranking.py"] += (
            "def test_norms():\n"
            "    assert squared_norms\n"
        )
        make_project(tmp_path, files)
        assert run_checks(tmp_path, rules=["kernel-parity"]) == []


class TestAnnRecallChecker:
    FILES = {
        "src/repro/ann/ivf.py": (
            "def register_index(kind):\n"
            "    def deco(cls):\n"
            "        return cls\n"
            "    return deco\n"
            '@register_index("ivf")\n'
            "class IVFIndex:\n"
            "    pass\n"
        ),
        "tests/ann/test_ivf.py": (
            'KIND = "ivf"\n'
            "def test_recall():\n"
            "    assert KIND\n"
        ),
    }

    def test_untested_index_kind_flagged(self, tmp_path):
        files = dict(self.FILES)
        files["src/repro/ann/hnsw.py"] = (
            "from repro.ann.ivf import register_index\n"
            '@register_index("hnsw")\n'
            "class HNSWIndex:\n"
            "    pass\n"
        )
        make_project(tmp_path, files)
        findings = run_checks(tmp_path, rules=["ann-recall"])
        assert len(findings) == 1
        assert '"hnsw"' in findings[0].message
        assert findings[0].path == "src/repro/ann/hnsw.py"

    def test_tested_index_kind_passes(self, tmp_path):
        make_project(tmp_path, dict(self.FILES))
        assert run_checks(tmp_path, rules=["ann-recall"]) == []

    def test_tests_outside_ann_suite_do_not_count(self, tmp_path):
        files = dict(self.FILES)
        files["tests/ann/test_ivf.py"] = "def test_nothing():\n    pass\n"
        files["tests/serving/test_other.py"] = 'KIND = "ivf"\n'
        make_project(tmp_path, files)
        findings = run_checks(tmp_path, rules=["ann-recall"])
        assert len(findings) == 1
        assert '"ivf"' in findings[0].message


_MODEL_FILES = {
    "src/repro/models/base.py": (
        "class KGEModel:\n"
        "    pass\n"
        "class SparseKGEModel(KGEModel):\n"
        "    pass\n"
    ),
    "src/repro/models/good.py": (
        "from repro.registry import register_model\n"
        "from repro.models.base import SparseKGEModel\n"
        '@register_model("good")\n'
        "class GoodModel(SparseKGEModel):\n"
        "    pass\n"
    ),
}


class TestRegistryChecker:
    def test_unregistered_concrete_model_flagged(self, tmp_path):
        files = dict(_MODEL_FILES)
        files["src/repro/models/bad.py"] = (
            "from repro.models.base import SparseKGEModel\n"
            "class BadModel(SparseKGEModel):\n"
            "    pass\n"
        )
        make_project(tmp_path, files)
        findings = run_checks(tmp_path, rules=["registry-model"])
        assert len(findings) == 1
        assert "BadModel" in findings[0].message

    def test_registered_and_transitive_pass(self, tmp_path):
        files = dict(_MODEL_FILES)
        files["src/repro/models/derived.py"] = (
            "from repro.registry import register_model\n"
            "from repro.models.good import GoodModel\n"
            '@register_model("derived")\n'
            "class DerivedModel(GoodModel):\n"
            "    pass\n"
        )
        make_project(tmp_path, files)
        assert run_checks(tmp_path, rules=["registry-model"]) == []

    def test_private_and_unrelated_classes_ignored(self, tmp_path):
        files = dict(_MODEL_FILES)
        files["src/repro/models/misc.py"] = (
            "from repro.models.base import SparseKGEModel\n"
            "class _Mixin(SparseKGEModel):\n"
            "    pass\n"
            "class PlainHelper:\n"
            "    pass\n"
        )
        make_project(tmp_path, files)
        assert run_checks(tmp_path, rules=["registry-model"]) == []

    def test_missing_field_in_serializer_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/registry.py": (
                "class ModelSpec:\n"
                "    model: str = ''\n"
                "    dim: int = 0\n"
                "    def to_dict(self):\n"
                "        return {'model': self.model, 'dim': self.dim}\n"
                "    @classmethod\n"
                "    def from_dict(cls, d):\n"
                "        return cls(model=d['model'])\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["registry-roundtrip"])
        assert len(findings) == 1
        assert "ModelSpec.dim" in findings[0].message
        assert "from_dict" in findings[0].message

    def test_dynamic_serializer_passes(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/training/config.py": (
                "from dataclasses import asdict\n"
                "class TrainingConfig:\n"
                "    epochs: int = 1\n"
                "    sanitize: bool = False\n"
                "    def to_dict(self):\n"
                "        return asdict(self)\n"
                "    @classmethod\n"
                "    def from_dict(cls, d):\n"
                "        return cls(**d)\n"
            ),
        })
        assert run_checks(tmp_path, rules=["registry-roundtrip"]) == []


class TestSuppressions:
    BAD = "import numpy as np\nx = np.empty(3)\n"

    def test_line_suppression(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/sparse/mod.py": (
                "import numpy as np\n"
                "x = np.empty(3)  # repro: ignore[dtype-ctor]\n"
            ),
        })
        assert run_checks(tmp_path) == []

    def test_line_suppression_is_rule_specific(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/sparse/mod.py": (
                "import numpy as np\n"
                "x = np.empty(3)  # repro: ignore[lock-state]\n"
            ),
        })
        # The dtype finding survives (wrong rule named), and the ignore
        # comment itself is reported stale.
        assert rules_of(run_checks(tmp_path)) == {
            "dtype-ctor", "suppression-unused",
        }
        assert rules_of(run_checks(tmp_path, rules=["dtype-ctor"])) == {
            "dtype-ctor",
        }

    def test_bare_ignore_suppresses_all_rules(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/sparse/mod.py": (
                "import numpy as np\n"
                "x = np.empty(3, dtype=float)  # repro: ignore\n"
            ),
        })
        assert run_checks(tmp_path) == []

    def test_file_suppression(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/sparse/mod.py": (
                "# repro: ignore-file[dtype-ctor]\n"
                "import numpy as np\n"
                "x = np.empty(3)\n"
                "y = np.zeros(4)\n"
            ),
        })
        assert run_checks(tmp_path) == []

    def test_suppression_does_not_leak_to_other_lines(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/sparse/mod.py": (
                "import numpy as np\n"
                "x = np.empty(3)  # repro: ignore[dtype-ctor]\n"
                "y = np.empty(4)\n"
            ),
        })
        findings = run_checks(tmp_path)
        assert len(findings) == 1
        assert findings[0].line == 3


_BATCHER = """\
import threading

class Batcher:
    def __init__(self):
        self._lock = threading.Lock()
        self._pending = []
        self._thread = threading.Thread(target=self._run)

    def _run(self):
        while True:
            self._drain()

    def _drain(self):
        {drain_body}

    def _flush_locked(self):
        self._pending = []
"""


class TestLockStateChecker:
    def test_two_deep_helper_chain_reports_full_chain(self, tmp_path):
        # Thread entry -> private helper -> _locked helper, nobody takes
        # the lock: the finding must carry the whole evidence chain.
        make_project(tmp_path, {
            "src/repro/training/batcher.py": _BATCHER.format(
                drain_body="self._flush_locked()"
            ),
        })
        findings = run_checks(tmp_path, rules=["lock-state"])
        assert len(findings) == 1
        assert (
            "Batcher._run() -> Batcher._drain() -> Batcher._flush_locked()"
            in findings[0].message
        )
        assert "self._pending" in findings[0].message
        assert "self._lock" in findings[0].message

    def test_lock_taken_midway_clears_the_chain(self, tmp_path):
        body = "with self._lock:\n            self._flush_locked()"
        make_project(tmp_path, {
            "src/repro/training/batcher.py": _BATCHER.format(drain_body=body),
        })
        assert run_checks(tmp_path, rules=["lock-state"]) == []

    CROSS = """\
import threading

class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._data = {}

    def evict(self):
        with self._lock:
            self._evict_locked()

    def _evict_locked(self):
        self._data = {}

class Engine:
    def __init__(self):
        self.cache = Cache()

    def reload(self):
        self.cache._evict_locked()
"""

    def test_cross_object_locked_call_without_lock(self, tmp_path):
        # Engine owns no lock at all, but reload() jumps straight into
        # Cache's caller-holds-the-lock helper: that *is* the race.
        # Cache.evict() itself (lock held) must stay clean.
        make_project(tmp_path, {"src/repro/serving/cache.py": self.CROSS})
        findings = run_checks(tmp_path, rules=["lock-state"])
        assert len(findings) == 1
        assert "Engine.reload() -> Cache._evict_locked()" in findings[0].message
        assert "self._data" in findings[0].message

    def test_unresolved_dispatch_makes_no_claim(self, tmp_path):
        # The helper is reached through a callable value; no edge, no claim.
        make_project(tmp_path, {
            "src/repro/training/batcher.py": _BATCHER.format(
                drain_body="fn = self._flush_locked\n        fn()"
            ),
        })
        assert run_checks(tmp_path, rules=["lock-state"]) == []


class TestResourceLifecycleChecker:
    def test_close_on_one_branch_only_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/data/io.py": (
                "import sqlite3\n"
                "\n"
                "def count_rows(path, flag):\n"
                "    conn = sqlite3.connect(path)\n"
                "    if flag:\n"
                "        conn.close()\n"
                "    return 0\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["resource-lifecycle"])
        assert len(findings) == 1
        assert "sqlite connection" in findings[0].message
        assert "count_rows()" in findings[0].message

    def test_interprocedural_acquirer_taints_caller(self, tmp_path):
        # make() returns an open handle, so calling it *is* an acquisition;
        # the leak is charged to the caller that drops it.
        make_project(tmp_path, {
            "src/repro/data/io.py": (
                "import sqlite3\n"
                "\n"
                "def make(path):\n"
                "    return sqlite3.connect(path)\n"
                "\n"
                "def use(path):\n"
                "    conn = make(path)\n"
                "    return conn.execute('select 1')\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["resource-lifecycle"])
        assert len(findings) == 1
        assert "call to make()" in findings[0].message
        assert "use()" in findings[0].message

    def test_with_del_and_escape_all_pass(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/data/io.py": (
                "import sqlite3\n"
                "import numpy as np\n"
                "\n"
                "def read_all(path):\n"
                "    with open(path) as fh:\n"
                "        return fh.read()\n"
                "\n"
                "def head(path):\n"
                "    block = np.load(path, mmap_mode='r')\n"
                "    out = block[:4].copy()\n"
                "    del block\n"
                "    return out\n"
                "\n"
                "def hand_off(path, sink):\n"
                "    conn = sqlite3.connect(path)\n"
                "    sink(conn)\n"
            ),
        })
        assert run_checks(tmp_path, rules=["resource-lifecycle"]) == []

    def test_raw_map_left_open_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/nn/rows.py": (
                "import mmap\n"
                "\n"
                "def head(path):\n"
                "    with open(path, 'rb') as fh:\n"
                "        m = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)\n"
                "    return bytes(m[:4])\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["resource-lifecycle"])
        assert len(findings) == 1
        assert "memory map acquired here" in findings[0].message
        assert "head()" in findings[0].message
        assert "close it (mmap.mmap)" in findings[0].message

    def test_raw_map_closed_or_held_by_an_owner_passes(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/nn/rows.py": (
                "import mmap\n"
                "\n"
                "def head(path):\n"
                "    with open(path, 'rb') as fh:\n"
                "        m = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)\n"
                "    out = m[:4]\n"
                "    m.close()\n"
                "    return out\n"
                "\n"
                "class Rows:\n"
                "    def __init__(self):\n"
                "        self._maps = {}\n"
                "\n"
                "    def mapping(self, key, fileno):\n"
                "        held = mmap.mmap(fileno, 0, access=mmap.ACCESS_READ)\n"
                "        self._maps[key] = held\n"
                "        return held\n"
                "\n"
                "    def close(self):\n"
                "        for held in self._maps.values():\n"
                "            held.close()\n"
                "\n"
                "def first(rows, fileno):\n"
                "    return rows.mapping(0, fileno)[:4]\n"
            ),
        })
        assert run_checks(tmp_path, rules=["resource-lifecycle"]) == []

    def test_anonymous_acquisition_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/data/io.py": (
                "def peek(path):\n"
                "    open(path).read()\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["resource-lifecycle"])
        assert len(findings) == 1
        assert "never bound" in findings[0].message

    def test_self_store_without_release_method_flagged(self, tmp_path):
        holder = (
            "import sqlite3\n"
            "\n"
            "class Holder:\n"
            "    def __init__(self, path):\n"
            "        self.conn = sqlite3.connect(path)\n"
        )
        make_project(tmp_path, {"src/repro/data/store.py": holder})
        findings = run_checks(tmp_path, rules=["resource-lifecycle"])
        assert len(findings) == 1
        assert "no close()/__exit__/__del__" in findings[0].message
        make_project(tmp_path, {
            "src/repro/data/store.py": holder + (
                "\n"
                "    def close(self):\n"
                "        self.conn.close()\n"
            ),
        })
        assert run_checks(tmp_path, rules=["resource-lifecycle"]) == []


    @pytest.mark.parametrize("acquire,kind", [
        ("open(path, 'rb')", "file handle"),
        ("sqlite3.connect(path)", "sqlite connection"),
        ("np.load(path, mmap_mode='r')", "memory map"),
        ("np.lib.format.open_memmap(path, mode='r')", "memory map"),
    ])
    def test_local_then_self_store_without_release_flagged(self, tmp_path,
                                                           acquire, kind):
        """The handle reaches ``self`` through a local: still the class's."""
        holder = (
            "import sqlite3\n"
            "import numpy as np\n"
            "\n"
            "class Holder:\n"
            "    def __init__(self, path):\n"
            f"        handle = {acquire}\n"
            "        self._handle = handle\n"
        )
        make_project(tmp_path, {"src/repro/data/store.py": holder})
        findings = run_checks(tmp_path, rules=["resource-lifecycle"])
        assert len(findings) == 1
        assert f"Holder stores an open {kind}" in findings[0].message
        make_project(tmp_path, {
            "src/repro/data/store.py": holder + (
                "\n"
                "    def close(self):\n"
                "        self._handle = None\n"
            ),
        })
        assert run_checks(tmp_path, rules=["resource-lifecycle"]) == []

    @pytest.mark.parametrize("store", [
        "        self.rows = np.load(path, mmap_mode='r')\n",
        "        rows = np.load(path, mmap_mode='r')\n"
        "        self.rows = rows\n",
    ])
    def test_class_holding_a_map_taints_the_caller_that_drops_it(self, tmp_path,
                                                                 store):
        """A class that keeps a map and can release it is an acquirer: a
        caller that neither closes nor hands on an instance leaks it."""
        module = (
            "import numpy as np\n"
            "\n"
            "class Rows:\n"
            "    def __init__(self, path):\n"
            f"{store}"
            "\n"
            "    def close(self):\n"
            "        del self.rows\n"
            "\n"
        )
        make_project(tmp_path, {"src/repro/nn/rows.py": module + (
            "def first(path):\n"
            "    rows = Rows(path)\n"
            "    return float(rows.rows[0, 0])\n"
        )})
        findings = run_checks(tmp_path, rules=["resource-lifecycle"])
        assert len(findings) == 1
        assert "call to Rows returns an open memory map" in findings[0].message
        make_project(tmp_path, {"src/repro/nn/rows.py": module + (
            "def first(path):\n"
            "    rows = Rows(path)\n"
            "    value = float(rows.rows[0, 0])\n"
            "    rows.close()\n"
            "    return value\n"
        )})
        assert run_checks(tmp_path, rules=["resource-lifecycle"]) == []

class TestForkTaintChecker:
    ENTRY = "src/repro/serving/pool.py"

    def test_lock_two_hops_down_reported_with_import_chain(self, tmp_path):
        # The rule walks the whole import closure, not just the direct
        # imports, and names the path that carries the hazard.
        make_project(tmp_path, {
            self.ENTRY: "from repro.serving import mid\n",
            "src/repro/serving/mid.py": "from repro.serving import deep\n",
            "src/repro/serving/deep.py": (
                "import threading\n"
                "_LOCK = threading.Lock()\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["fork-taint"])
        assert len(findings) == 1
        assert "serving/mid.py -> serving/deep.py" in findings[0].message

    def test_import_time_call_chain_reported(self, tmp_path):
        # CONN = make() at module level runs sqlite3.connect before the
        # fork; the finding carries the call chain, not just the import.
        # (Distance 2: in a direct import any connect would be flagged,
        # import-time or not.)
        make_project(tmp_path, {
            self.ENTRY: "from repro.serving import mid\n",
            "src/repro/serving/mid.py": "from repro.serving import deep\n",
            "src/repro/serving/deep.py": (
                "import sqlite3\n"
                "\n"
                "def make():\n"
                "    return sqlite3.connect('state.db')\n"
                "\n"
                "CONN = make()\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["fork-taint"])
        assert len(findings) == 1
        assert "call chain <module> -> make()" in findings[0].message

    def test_lock_two_hops_below_the_serving_pool_reported(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/serving/pool.py": "from repro.serving import engine\n",
            "src/repro/serving/engine.py": "from repro.data import known\n",
            "src/repro/data/known.py": (
                "import threading\n"
                "_LOCK = threading.Lock()\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["fork-taint"])
        assert len(findings) == 1
        assert ("serving/pool.py -> serving/engine.py -> data/known.py"
                in findings[0].message)

    def test_post_fork_function_body_not_flagged(self, tmp_path):
        # A connect inside a function that nothing calls at import time
        # runs post-fork in the worker — the documented-safe pattern.
        # (Distance 2: direct imports are held to the whole-file contract.)
        make_project(tmp_path, {
            self.ENTRY: "from repro.serving import mid\n",
            "src/repro/serving/mid.py": "from repro.serving import deep\n",
            "src/repro/serving/deep.py": (
                "import sqlite3\n"
                "\n"
                "def worker(path):\n"
                "    conn = sqlite3.connect(path)\n"
                "    conn.close()\n"
            ),
        })
        assert run_checks(tmp_path, rules=["fork-taint"]) == []


class TestForkTaintThreads:
    """A thread started at import time is a fork hazard; one started on first
    use (the row split's pool) is not."""

    ENTRY = "src/repro/serving/pool.py"

    def _deep(self, tmp_path, body):
        make_project(tmp_path, {
            self.ENTRY: "from repro.serving import mid\n",
            "src/repro/serving/mid.py": "from repro.sparse import deep\n",
            "src/repro/sparse/deep.py": body,
        })
        return run_checks(tmp_path, rules=["fork-taint"])

    def test_chained_start_at_module_level_flagged(self, tmp_path):
        findings = self._deep(tmp_path, (
            "import threading\n"
            "threading.Thread(target=print, daemon=True).start()\n"
        ))
        assert [(f.path, f.line) for f in findings] == [("src/repro/sparse/deep.py", 2)]
        assert "thread started at import time" in findings[0].message
        assert "serving/mid.py -> sparse/deep.py" in findings[0].message

    def test_bound_thread_started_at_module_level_flagged(self, tmp_path):
        findings = self._deep(tmp_path, (
            "import threading as th\n"
            "_WORKER = th.Thread(target=print)\n"
            "_WORKER.start()\n"
        ))
        assert [f.line for f in findings] == [3]

    def test_thread_started_by_an_import_time_call_flagged(self, tmp_path):
        findings = self._deep(tmp_path, (
            "from threading import Timer as T\n"
            "\n"
            "def _boot():\n"
            "    timer = T(1.0, print)\n"
            "    timer.start()\n"
            "\n"
            "_boot()\n"
        ))
        assert [f.line for f in findings] == [5]
        assert "call chain <module> -> _boot()" in findings[0].message

    def test_thread_started_on_first_use_passes(self, tmp_path):
        # The row split's shape: the pool is a plain object at import time
        # and its threads start inside a function only a caller runs.
        findings = self._deep(tmp_path, (
            "import threading\n"
            "\n"
            "class _Workers:\n"
            "    def __init__(self):\n"
            "        self.inboxes = []\n"
            "\n"
            "    def start(self):\n"
            "        thread = threading.Thread(target=print, daemon=True)\n"
            "        thread.start()\n"
            "        self.thread = threading.Thread(target=print)\n"
            "        self.thread.start()\n"
            "\n"
            "_WORKERS = {}\n"
            "_WORKER = threading.local()\n"
            "\n"
            "def _workers():\n"
            "    return _WORKERS.setdefault(0, _Workers())\n"
            "\n"
            "def split(task):\n"
            "    _workers().start()\n"
        ))
        assert findings == []

    def test_thread_built_but_not_started_passes(self, tmp_path):
        assert self._deep(tmp_path, (
            "import threading\n"
            "_WORKER = threading.Thread(target=print)\n"
        )) == []

    def test_thread_outside_the_fork_closure_passes(self, tmp_path):
        make_project(tmp_path, {
            self.ENTRY: "x = 1\n",
            "src/repro/serving/boot.py": (
                "import threading\n"
                "threading.Thread(target=print).start()\n"
            ),
        })
        assert run_checks(tmp_path, rules=["fork-taint"]) == []

    def test_row_split_is_in_the_real_fork_closure(self):
        # The lazily started pool passes the real tree with no suppression
        # (TestCheckCommand::test_real_repo_is_clean); this pins that the
        # rule does look at it.
        from repro.analysis.callgraph import CallGraph
        from repro.analysis.checkers.fork_taint import _fork_scope
        from repro.analysis.core import Project

        project = Project(Path(__file__).resolve().parents[2])
        chains, _ = _fork_scope(project, CallGraph.for_project(project))
        assert "sparse/kernels.py" in chains
        source = project.file("sparse/kernels.py").text
        assert "# repro: ignore" not in source


class TestSuppressionUnusedChecker:
    def test_stale_line_ignore_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/sparse/mod.py": (
                "import numpy as np\n"
                "x = np.empty(3, dtype=np.float64)  # repro: ignore[dtype-ctor]\n"
            ),
        })
        findings = run_checks(tmp_path)
        assert rules_of(findings) == {"suppression-unused"}
        assert "suppresses nothing" in findings[0].message

    def test_stale_file_ignore_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/sparse/mod.py": (
                "# repro: ignore-file[lock-state]\n"
                "X = 1\n"
            ),
        })
        assert rules_of(run_checks(tmp_path)) == {"suppression-unused"}

    def test_used_ignore_not_flagged(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/sparse/mod.py": (
                "import numpy as np\n"
                "x = np.empty(3)  # repro: ignore[dtype-ctor]\n"
            ),
        })
        assert run_checks(tmp_path) == []

    def test_docstring_example_is_not_a_suppression(self, tmp_path):
        # Only real comment tokens count; prose mentioning the marker
        # must neither suppress nor be reported stale.
        make_project(tmp_path, {
            "src/repro/sparse/mod.py": (
                '"""Suppress with ``# repro: ignore[dtype-ctor]``."""\n'
                "X = 1\n"
            ),
        })
        assert run_checks(tmp_path) == []

    def test_rules_restriction_is_conservative(self, tmp_path):
        # dtype-ctor did not run, so its ignore cannot be judged stale.
        make_project(tmp_path, {
            "src/repro/sparse/mod.py": (
                "import numpy as np\n"
                "x = np.empty(3, dtype=np.float64)  # repro: ignore[dtype-ctor]\n"
            ),
        })
        assert run_checks(tmp_path, rules=["suppression-unused"]) == []


class TestUnreachablePublicChecker:
    """Every flagged/not-flagged case carries an ``orphan`` control, so a
    build without the rule (which reports nothing) fails each test."""

    ORPHAN = "def orphan():\n    return 0\n"

    def flagged(self, tmp_path, files) -> set:
        files = dict(files)
        files["src/repro/utils/orphan.py"] = self.ORPHAN
        make_project(tmp_path, files)
        findings = run_checks(tmp_path, rules=["unreachable-public"])
        assert all(f.rule == "unreachable-public" for f in findings)
        return {f.message.split()[2] for f in findings}

    def test_name_referenced_only_by_tests_flagged(self, tmp_path):
        assert self.flagged(tmp_path, {
            "src/repro/utils/helpers.py": "def helper(x):\n    return x\n",
            "tests/test_helpers.py": (
                "from repro.utils.helpers import helper\n"
                "def test_helper():\n"
                "    assert helper(1) == 1\n"
            ),
        }) == {"orphan", "helper"}

    def test_name_referenced_only_by_itself_flagged(self, tmp_path):
        # Recursion, a self-returning factory and a docstring mention all sit
        # inside the definition's own span.
        findings = self.flagged(tmp_path, {
            "src/repro/utils/helpers.py": (
                "class Node:\n"
                '    """A Node links to the next Node."""\n'
                "    def clone(self) -> 'Node':\n"
                "        return Node()\n"
                "def depth(n):\n"
                "    return 0 if n == 0 else 1 + depth(n - 1)\n"
            ),
        })
        assert findings == {"orphan", "Node", "depth"}

    def test_reexports_and_all_lists_are_not_references(self, tmp_path):
        assert self.flagged(tmp_path, {
            "src/repro/utils/__init__.py": (
                "from repro.utils.helpers import helper\n"
                "__all__ = ['helper']\n"
            ),
            "src/repro/utils/helpers.py": (
                "__all__ = [\n"
                "    'helper',\n"
                "]\n"
                "def helper(x):\n"
                "    return x\n"
            ),
        }) == {"orphan", "helper"}

    def test_names_used_by_benchmarks_examples_or_the_package_pass(self, tmp_path):
        assert self.flagged(tmp_path, {
            "src/repro/utils/helpers.py": (
                "def for_bench():\n    return 1\n"
                "def for_example():\n    return 2\n"
                "class Internal:\n    pass\n"
            ),
            "src/repro/utils/user.py": (
                "from repro.utils.helpers import Internal\n"
                "_DEFAULT = Internal\n"
            ),
            "benchmarks/bench.py": "from repro.utils.helpers import for_bench\n",
            "examples/demo.py": "# calls for_example() on the way\n",
        }) == {"orphan"}

    def test_registered_names_pass(self, tmp_path):
        assert self.flagged(tmp_path, {
            "src/repro/models/mine.py": (
                "from repro.registry import register_model\n"
                "from repro import registry\n"
                '@register_model("mine")\n'
                "class MineModel:\n"
                "    pass\n"
                "@registry.register_index\n"
                "class MineIndex:\n"
                "    pass\n"
            ),
        }) == {"orphan"}

    def test_private_names_and_init_modules_are_not_checked(self, tmp_path):
        assert self.flagged(tmp_path, {
            "src/repro/utils/helpers.py": "def _private():\n    return 0\n",
            "src/repro/utils/__init__.py": "def lazy_attr():\n    return 0\n",
        }) == {"orphan"}

    def test_suppressed_name_passes(self, tmp_path):
        files = {
            "src/repro/utils/helpers.py": (
                "def kept_api(x):  # repro: ignore[unreachable-public]\n"
                "    return x\n"
            ),
            "src/repro/utils/orphan.py": self.ORPHAN,
        }
        make_project(tmp_path, files)
        findings = run_checks(tmp_path)
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("unreachable-public", "src/repro/utils/orphan.py", 1)]
        assert "delete it" in findings[0].message

    def test_async_functions_are_checked_too(self, tmp_path):
        assert self.flagged(tmp_path, {
            "src/repro/utils/helpers.py": (
                "async def fetch():\n    return 0\n"
                "async def used():\n    return 1\n"
            ),
            "src/repro/utils/user.py": "from repro.utils.helpers import used\n",
        }) == {"orphan", "fetch"}

    def test_only_top_level_names_are_checked(self, tmp_path):
        # Methods and nested helpers are reached through their owner.
        assert self.flagged(tmp_path, {
            "src/repro/utils/helpers.py": (
                "class Owner:\n"
                "    def never_called(self):\n"
                "        def inner():\n"
                "            return 0\n"
                "        return 1\n"
            ),
            "src/repro/utils/user.py": "import repro.utils.helpers as h\nh.Owner()\n",
        }) == {"orphan"}

    def test_match_is_on_whole_identifier_tokens(self, tmp_path):
        # ``helper_two`` and ``my_helper`` spell ``helper`` but do not name it.
        assert self.flagged(tmp_path, {
            "src/repro/utils/helpers.py": "def helper():\n    return 0\n",
            "src/repro/utils/user.py": (
                "def _use(helper_two, my_helper):\n"
                "    return helper_two + my_helper\n"
            ),
        }) == {"orphan", "helper"}

    def test_strings_and_comments_count_as_references(self, tmp_path):
        # Conservative: a name some source line spells out is never reported.
        assert self.flagged(tmp_path, {
            "src/repro/utils/helpers.py": (
                "def by_name():\n    return 0\n"
                "def in_comment():\n    return 1\n"
            ),
            "src/repro/utils/user.py": (
                "import importlib\n"
                "_FN = getattr(importlib.import_module('repro.utils.helpers'), 'by_name')\n"
                "# see in_comment for the slow path\n"
            ),
        }) == {"orphan"}

    def test_own_decorator_lines_are_part_of_the_definition(self, tmp_path):
        assert self.flagged(tmp_path, {
            "src/repro/utils/helpers.py": (
                "def tag(name):\n"
                "    return lambda fn: fn\n"
                "@tag('tagged')\n"
                "def tagged():\n"
                "    return 0\n"
            ),
        }) == {"orphan", "tagged"}

    @pytest.mark.parametrize("assignment", [
        "__all__: list = ['helper']\n",
        "__all__ = []\n__all__ += ['helper']\n",
    ], ids=["annotated", "augmented"])
    def test_every_form_of_all_is_not_a_reference(self, tmp_path, assignment):
        assert self.flagged(tmp_path, {
            "src/repro/utils/helpers.py": assignment + "def helper():\n    return 0\n",
        }) == {"orphan", "helper"}

    def test_finding_points_at_the_definition_and_names_its_kind(self, tmp_path):
        make_project(tmp_path, {
            "src/repro/utils/helpers.py": (
                "import functools\n"
                "\n"
                "@functools.lru_cache(maxsize=None)\n"
                "def cached():\n"
                "    return 0\n"
                "class Holder:\n"
                "    pass\n"
            ),
        })
        findings = run_checks(tmp_path, rules=["unreachable-public"])
        assert [(f.path, f.line, " ".join(f.message.split()[:3]))
                for f in findings] == [
            ("src/repro/utils/helpers.py", 4, "public function cached"),
            ("src/repro/utils/helpers.py", 6, "public class Holder"),
        ]
