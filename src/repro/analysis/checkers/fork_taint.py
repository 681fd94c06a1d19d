"""fork-taint checker: nothing fork-unsafe in what ``os.fork()`` duplicates.

``MultiprocessTrainer`` and the serving ``WorkerPool`` use ``fork``-start
workers: everything ``training/multiprocess.py`` or ``serving/pool.py``
imports is duplicated into child processes with whatever process-global
state the parent had.  Three hazards corrupt silently across a fork:

* a **lock** created at import time: if any parent thread holds it at
  fork time, every child inherits it locked forever (the classic
  logging deadlock);
* a **sqlite3 connection**: connections must never cross a fork; batch
  factories open their own handle post-fork instead;
* an **atexit handler**: handlers registered pre-fork re-run in every
  worker at child exit, typically re-flushing or deleting parent-owned
  resources;
* a **thread** started at import time: a fork copies only the forking
  thread, so the child holds whatever the thread had half done (a lock it
  held, a queue it was filling) with nobody left to finish it.  Threads
  started on first use, after the fork, are the safe pattern (the row split
  of :func:`repro.sparse.kernels.split_rows` looks its workers up by pid).

Scope, from one BFS over the call graph's module-level imports:

* **closure** — every module reachable from an entry point through
  module-level imports (what executes before ``os.fork()`` can run; lazy
  function-level imports execute in whichever process calls them).  In
  each one: a module-level lock assignment, plus any lock construction,
  ``sqlite3.connect``, ``atexit.register`` or ``.start()`` of a
  ``threading.Thread``/``Timer`` (constructed in the same call, or bound
  to a name or attribute in the same body) reachable from module-level
  *call sites* through resolved call edges (a top-level ``_X = _make()``
  runs ``_make`` at import time, wherever it is defined).
* **direct scope** — the entry points and every ``repro`` module they
  import at any nesting.  These modules are duplicated into every worker
  wholesale, so *any* ``sqlite3.connect`` or ``atexit.register`` in them
  is a finding, not only an import-time one.

Findings carry the evidence chain, e.g.::

    fork-taint: import chain training/multiprocess.py ->
    data/streaming.py -> x.py; call chain <module> -> make_conn():
    sqlite3 connections must never cross os.fork() ... (executes at
    import time inside the closure os.fork() duplicates into workers)

Graceful degradation: unresolved call targets (registries, callables as
values) end the walk — no edge, no claim.  Outside the direct scope,
hazards created inside functions that only run post-fork are deliberately
not flagged (that is the ``BatchFactory`` contract, not a bug).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    MODULE_BODY,
    module_to_relpath,
    walk_shallow,
)
from repro.analysis.checkers.lock_state import is_lock_ctor, lock_ctor_names
from repro.analysis.core import Checker, Finding, Project, SourceFile, register_checker

#: The modules that call ``os.fork()`` (through ``multiprocessing``'s
#: ``fork`` context): the data-parallel trainer and the serving pool.
_ENTRIES = ("training/multiprocess.py", "serving/pool.py")

_MAX_CALL_DEPTH = 8

_HAZARD_TEXT = {
    "lock": "a threading lock created at import time stays locked forever "
            "in every worker if any parent thread holds it at os.fork()",
    "sqlite": "sqlite3 connections must never cross os.fork(); open the "
              "handle inside the worker instead",
    "atexit": "atexit handlers registered pre-fork re-run in every worker "
              "at child exit",
    "thread": "a thread started at import time is not copied by os.fork(): "
              "every worker inherits what it had half done with no thread "
              "left to finish it; start it on first use instead",
}

#: ``threading`` classes whose ``.start()`` runs a thread.
_THREAD_TYPES = ("Thread", "Timer")

_IMPORT_TIME = "executes at import time inside the closure os.fork() " \
               "duplicates into workers"
_DUPLICATED = "in a module os.fork() duplicates into workers"


def _hazard_kind(node: ast.Call, ctor_names: FrozenSet[str],
                 thread_ctors: FrozenSet[str] = frozenset(),
                 threads: FrozenSet[str] = frozenset()) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.attr == "connect" and func.value.id == "sqlite3":
            return "sqlite"
        if func.attr == "register" and func.value.id == "atexit":
            return "atexit"
    if is_lock_ctor(node, ctor_names):
        return "lock"
    # ``Thread(...).start()``, or ``x.start()`` with ``x`` bound to one.
    if isinstance(func, ast.Attribute) and func.attr == "start" and (
            is_lock_ctor(func.value, thread_ctors)
            or ast.unparse(func.value) in threads):
        return "thread"
    return None


def _bound_threads(body: List[ast.stmt],
                   thread_ctors: FrozenSet[str]) -> FrozenSet[str]:
    """Names and attributes a body binds to a new thread (``t = Thread(...)``)."""
    return frozenset(
        ast.unparse(target)
        for stmt in body for node in walk_shallow(stmt)
        if isinstance(node, ast.Assign) and is_lock_ctor(node.value, thread_ctors)
        for target in node.targets)


def _direct_imports(project: Project, source: SourceFile) -> Set[str]:
    """``repro`` modules ``source`` imports anywhere, function bodies included."""
    out: Set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            # ``from repro.training import config`` imports a submodule.
            names = [node.module] + [
                f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        out.update(rel for rel in (module_to_relpath(project, name)
                                   for name in names) if rel)
    return out


def _fork_scope(project: Project, graph: CallGraph
                ) -> Tuple[Dict[str, Tuple[str, ...]], Set[str]]:
    """relpath -> shortest import chain from an entry, and the direct scope."""
    chains: Dict[str, Tuple[str, ...]] = {}
    direct: Dict[str, Tuple[str, ...]] = {}
    for entry in _ENTRIES:
        source = project.file(entry)
        if source is not None:
            chains[entry] = direct[entry] = (entry,)
            for rel in sorted(_direct_imports(project, source)):
                direct.setdefault(rel, (entry, rel))
    queue = list(chains)
    while queue:
        relpath = queue.pop(0)
        for imported in sorted(graph.modules[relpath].symbols.imported_modules):
            if imported not in chains:
                chains[imported] = chains[relpath] + (imported,)
                queue.append(imported)
    # Lazily imported direct modules are not in the import closure, but
    # the whole-file contract still covers them.
    for relpath, chain in direct.items():
        chains.setdefault(relpath, chain)
    return chains, set(direct)


@register_checker
class ForkTaintChecker(Checker):
    name = "fork-taint"
    rule_ids = ("fork-taint",)
    description = (
        "what training/multiprocess.py and serving/pool.py duplicate into "
        "workers must stay fork-safe: no locks, sqlite connections, atexit "
        "handlers or started threads at import time anywhere in their import "
        "closures, and no sqlite connections or atexit handlers at all in "
        "the entry points and the modules they import"
    )
    # The import closure can grow from any package file.
    trigger_prefixes = ("",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        self._project = project
        self._graph = CallGraph.for_project(project)
        self._findings: List[Finding] = []
        self._seen: Set[Tuple[str, int, int]] = set()
        chains, direct = _fork_scope(project, self._graph)

        for relpath in sorted(direct):
            source = project.file(relpath)
            for node in ast.walk(source.tree):
                # No lock constructor names: a lock is a hazard only when
                # it exists at fork time, which the walk below decides.
                kind = isinstance(node, ast.Call) and \
                    _hazard_kind(node, frozenset())
                if kind:
                    self._report(source, node, node, kind, chains[relpath],
                                 (), _DUPLICATED)

        for relpath, import_chain in sorted(chains.items()):
            source = project.file(relpath)
            if source is None:
                continue
            ctor_names = lock_ctor_names(source.tree)
            for stmt in source.tree.body:
                value = getattr(stmt, "value", None)
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and \
                        value is not None and is_lock_ctor(value, ctor_names):
                    # Reported at the statement; the module-body call walk
                    # sees the same constructor and skips it.
                    self._report(source, stmt, value, "lock", import_chain,
                                 (), _IMPORT_TIME)
            self._walk_calls(f"{relpath}::{MODULE_BODY}", import_chain,
                             ("<module>",), set())
        return self._findings

    # ------------------------------------------------------------------ #
    def _walk_calls(self, fn_key: str, import_chain: Tuple[str, ...],
                    call_chain: Tuple[str, ...], visited: Set[str]) -> None:
        if fn_key in visited or len(call_chain) > _MAX_CALL_DEPTH:
            return
        visited.add(fn_key)
        fn = self._graph.function(fn_key)
        if fn is None:
            return
        source = self._project.file(fn.relpath)
        if source is None:
            return
        ctor_names = lock_ctor_names(source.tree)
        thread_ctors = lock_ctor_names(source.tree, _THREAD_TYPES)
        body = fn.node.body if fn.qualname != MODULE_BODY else [
            s for s in source.tree.body
            if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))]
        threads = _bound_threads(body, thread_ctors)
        for stmt in body:
            for node in walk_shallow(stmt):
                if not isinstance(node, ast.Call):
                    continue
                kind = _hazard_kind(node, ctor_names, thread_ctors, threads)
                if kind is not None:
                    self._report(source, node, node, kind, import_chain,
                                 call_chain, _IMPORT_TIME)
                    continue
                site = self._graph.site(node)
                if site is not None and site.callee is not None:
                    self._walk_calls(
                        site.callee, import_chain,
                        call_chain + (self._graph.display(site.callee),),
                        visited)

    def _report(self, source: SourceFile, node: ast.AST, call: ast.Call,
                kind: str, import_chain: Tuple[str, ...],
                call_chain: Tuple[str, ...], where: str) -> None:
        """One finding per hazard call, however many paths reach it."""
        key = (source.relpath, call.lineno, call.col_offset)
        if key in self._seen:
            return
        self._seen.add(key)
        chain = "import chain " + " -> ".join(import_chain)
        if len(call_chain) > 1:
            chain += "; call chain " + " -> ".join(call_chain)
        self._findings.append(source.finding(
            "fork-taint", node, f"{chain}: {_HAZARD_TEXT[kind]} ({where})"))
