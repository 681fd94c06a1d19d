"""Tests for the interprocedural engine: call graph + CFG/dataflow.

The fixtures are miniature projects in the real ``src/repro`` layout, so
keys come out exactly as checkers see them (``"serving/engine.py::C.m"``).
The last test class documents the *known-unresolvable* shapes: dynamic
dispatch must land in ``CallGraph.unresolved`` — never produce a wrong
edge — so checkers degrade gracefully (no edge ⇒ no claim).
"""

import ast
import textwrap
from pathlib import Path

from repro.analysis import CallGraph, Project, walk_shallow
from repro.analysis.dataflow import (
    ForwardAnalysis,
    Transfer,
    build_cfg,
)


def make_graph(tmp_path: Path, files: dict) -> CallGraph:
    """Write ``{package_relpath: source}`` and build the call graph."""
    for relpath, text in files.items():
        path = tmp_path / "src/repro" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return CallGraph.for_project(Project(tmp_path))


def callees(graph: CallGraph, key: str) -> set:
    return {site.callee for site in graph.calls_in(key) if site.callee}


class TestDirectCalls:
    def test_same_module_function_call(self, tmp_path):
        graph = make_graph(tmp_path, {"util/a.py": """\
            def helper():
                return 1

            def main():
                return helper()
        """})
        assert callees(graph, "util/a.py::main") == {"util/a.py::helper"}

    def test_self_method_call_resolves(self, tmp_path):
        graph = make_graph(tmp_path, {"serving/engine.py": """\
            class Engine:
                def run(self):
                    self._step()

                def _step(self):
                    pass
        """})
        assert callees(graph, "serving/engine.py::Engine.run") == {
            "serving/engine.py::Engine._step"
        }

    def test_self_call_through_base_class(self, tmp_path):
        graph = make_graph(tmp_path, {"serving/engine.py": """\
            class Base:
                def save(self):
                    pass

            class Engine(Base):
                def run(self):
                    self.save()
        """})
        # MRO walk: Engine has no save(), the edge lands on Base.save.
        assert callees(graph, "serving/engine.py::Engine.run") == {
            "serving/engine.py::Base.save"
        }

    def test_constructor_call_marks_instantiates(self, tmp_path):
        graph = make_graph(tmp_path, {"serving/cache.py": """\
            class LRUCache:
                def __init__(self, cap):
                    self.cap = cap

            def build():
                return LRUCache(8)
        """})
        (site,) = graph.calls_in("serving/cache.py::build")
        assert site.instantiates == "serving/cache.py::LRUCache"
        assert site.callee == "serving/cache.py::LRUCache.__init__"


class TestCrossModule:
    FILES = {
        "data/store.py": """\
            class Store:
                def get(self, key):
                    return key

            def open_store(path):
                return Store()
        """,
        "serving/engine.py": """\
            from repro.data.store import Store, open_store

            def load(path):
                return open_store(path)

            class Engine:
                def __init__(self):
                    self.store = Store()

                def lookup(self, key):
                    return self.store.get(key)
        """,
    }

    def test_from_import_symbol_call(self, tmp_path):
        graph = make_graph(tmp_path, self.FILES)
        assert callees(graph, "serving/engine.py::load") == {
            "data/store.py::open_store"
        }

    def test_ctor_typed_attribute_method_call(self, tmp_path):
        # self.store = Store() in __init__ types the attribute, so
        # self.store.get() resolves across the module boundary.
        graph = make_graph(tmp_path, self.FILES)
        assert callees(graph, "serving/engine.py::Engine.lookup") == {
            "data/store.py::Store.get"
        }

    def test_module_alias_attribute_call(self, tmp_path):
        graph = make_graph(tmp_path, {
            "data/store.py": self.FILES["data/store.py"],
            "serving/engine.py": """\
                import repro.data.store as store_mod

                def load(path):
                    return store_mod.open_store(path)
            """,
        })
        assert callees(graph, "serving/engine.py::load") == {
            "data/store.py::open_store"
        }

    def test_import_closure_includes_ancestor_inits(self, tmp_path):
        graph = make_graph(tmp_path, {
            "data/__init__.py": "",
            "data/store.py": "X = 1\n",
            "serving/engine.py": "from repro.data import store\n",
        })
        imported = graph.modules["serving/engine.py"].symbols.imported_modules
        # Importing repro.data.store executes repro/data/__init__.py too.
        assert imported == {"data/store.py", "data/__init__.py"}


class TestScopes:
    def test_nested_function_calls_not_attributed_to_outer(self, tmp_path):
        graph = make_graph(tmp_path, {"util/a.py": """\
            def target():
                pass

            def outer():
                def inner():
                    target()
                return inner
        """})
        # inner() runs later (callback/thread), so its call edge belongs
        # to the closure's own entry, not to outer().
        assert callees(graph, "util/a.py::outer") == set()
        assert callees(graph, "util/a.py::outer.<locals>.inner") == {
            "util/a.py::target"
        }

    def test_module_body_is_its_own_function(self, tmp_path):
        graph = make_graph(tmp_path, {"util/a.py": """\
            def setup():
                pass

            setup()
        """})
        assert callees(graph, "util/a.py::<module>") == {"util/a.py::setup"}
        # iter_functions() yields definitions only, never module bodies.
        quals = {fn.qualname for fn in graph.iter_functions()}
        assert quals == {"setup"}

    def test_walk_shallow_stops_at_nested_defs(self):
        tree = ast.parse(textwrap.dedent("""\
            def outer():
                a = 1
                def inner():
                    b = 2
        """)).body[0]
        names = {node.id for node in walk_shallow(tree)
                 if isinstance(node, ast.Name)}
        assert "a" in names
        assert "b" not in names  # inner's body is a different scope
        # ...but the nested def itself is yielded, so a visitor can see it.
        assert any(isinstance(node, ast.FunctionDef) and node.name == "inner"
                   for node in walk_shallow(tree))


class TestKnownUnresolvable:
    """Dynamic shapes the graph must refuse to resolve (documented limits)."""

    def test_registry_dispatch_is_unresolved(self, tmp_path):
        graph = make_graph(tmp_path, {"models/registry.py": """\
            _REGISTRY = {}

            def lookup(name):
                return _REGISTRY[name]

            def build(name):
                return lookup(name)()
        """})
        sites = graph.calls_in("models/registry.py::build")
        outer = [s for s in sites if s.name == "lookup()"]
        assert len(outer) == 1
        # lookup(name) resolves; calling its *result* cannot.
        assert outer[0].callee is None
        assert outer[0] in graph.unresolved

    def test_getattr_and_callable_values_are_unresolved(self, tmp_path):
        graph = make_graph(tmp_path, {"util/a.py": """\
            def run(obj, fn):
                getattr(obj, "step")()
                fn()
        """})
        assert callees(graph, "util/a.py::run") == set()
        assert len(graph.unresolved) >= 2

    def test_display_falls_back_to_key(self, tmp_path):
        graph = make_graph(tmp_path, {"util/a.py": "def f():\n    pass\n"})
        assert graph.display("util/a.py::f") == "f()"
        assert graph.display("no/such.py::g") == "no/such.py::g"


# --------------------------------------------------------------------- #
# CFG / dataflow
# --------------------------------------------------------------------- #
def parse_func(source: str) -> ast.FunctionDef:
    return ast.parse(textwrap.dedent(source)).body[0]


class _AssignedNames(Transfer):
    """Toy may-analysis: the set of names assigned on some path."""

    def initial(self):
        return frozenset()

    def copy(self, state):
        return state

    def join(self, a, b):
        return a | b

    def transfer(self, node, state):
        if node.kind == "stmt" and isinstance(node.stmt, ast.Assign):
            extra = {t.id for t in node.stmt.targets
                     if isinstance(t, ast.Name)}
            return state | frozenset(extra)
        return state


class TestCFG:
    def test_branches_rejoin_at_exit(self):
        func = parse_func("""\
            def f(flag):
                if flag:
                    a = 1
                else:
                    b = 2
                c = 3
        """)
        analysis = ForwardAnalysis(build_cfg(func), _AssignedNames()).run()
        # Path-insensitive join: both branch facts reach the exit.
        assert analysis.exit_state() == frozenset({"a", "b", "c"})

    def test_with_produces_enter_and_exit_nodes(self):
        func = parse_func("""\
            def f(path):
                with open(path) as fh:
                    data = fh.read()
        """)
        kinds = [node.kind for node in build_cfg(func).nodes]
        assert kinds.count("with-enter") == 1
        assert kinds.count("with-exit") == 1

    def test_early_return_routes_through_finally(self):
        func = parse_func("""\
            def f(flag):
                try:
                    if flag:
                        return 1
                finally:
                    cleanup = 1
                after = 1
        """)
        analysis = ForwardAnalysis(build_cfg(func), _AssignedNames()).run()
        # The return path runs a *copy* of the finally body, so `cleanup`
        # is assigned on every path out — including the early return.
        assert "cleanup" in analysis.exit_state()

    def test_explicit_raise_flows_to_raise_exit(self):
        func = parse_func("""\
            def f():
                bad = 1
                raise ValueError(bad)
        """)
        cfg = build_cfg(func)
        analysis = ForwardAnalysis(cfg, _AssignedNames()).run()
        assert analysis.exit_state() is None  # no normal path out
        assert analysis.state_in(cfg.raise_exit) == frozenset({"bad"})

    def test_loop_reaches_fixpoint(self):
        func = parse_func("""\
            def f(items):
                for item in items:
                    if item:
                        found = 1
                done = 1
        """)
        analysis = ForwardAnalysis(build_cfg(func), _AssignedNames()).run()
        assert analysis.exit_state() == frozenset({"found", "done"})

    def test_except_handler_sees_partial_body(self):
        func = parse_func("""\
            def f():
                try:
                    a = 1
                    b = 2
                except ValueError:
                    c = 3
        """)
        analysis = ForwardAnalysis(build_cfg(func), _AssignedNames()).run()
        # An exception may surface between the two assigns; the handler
        # join therefore includes the a-only prefix state.
        assert analysis.exit_state() == frozenset({"a", "b", "c"})
