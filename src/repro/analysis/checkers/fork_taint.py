"""fork-taint checker: transitive fork-closure hazard detection.

The PR 7 ``fork-safety`` rules stop one import level away from the fork
entry points (``training/multiprocess.py``, ``serving/pool.py``) — a
module-level lock or an import-time
``sqlite3.connect`` two hops down the import graph forks into every
worker just as surely, but invisibly to a file-local rule.  This rule
walks the *transitive* module-level import closure over the call graph
and reports each hazard with the full chain that carries it into the
fork:

* **closure** — BFS from both entry points over module-level
  imports (what actually executes before ``os.fork()`` can run; lazy
  function-level imports execute in whichever process calls them and are
  out of scope).
* **import-time hazards** — in every closure module: a module-level
  ``threading.Lock``/``RLock`` assignment, plus any ``sqlite3.connect``,
  ``atexit.register`` or lock construction reachable from module-level
  *call sites* through resolved call edges (a top-level
  ``_X = _make()`` runs ``_make`` at import time, wherever it is
  defined).
* **dedup with fork-safety** — hazards that the file-local rules already
  flag (anything lexically inside an entry point or its direct imports)
  are skipped; this rule only reports what the old scope could not see.

Findings carry the evidence chain, e.g.::

    fork-taint: import chain training/multiprocess.py ->
    data/streaming.py -> x.py; call chain <module> -> make_conn():
    sqlite3.connect(...) executes at import time inside the fork closure

Graceful degradation: unresolved call targets (registries, callables as
values) end the walk — no edge, no claim.  Hazards created inside
functions that only run post-fork are deliberately not flagged (that is
the ``BatchFactory`` contract, not a bug).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, MODULE_BODY, walk_shallow
from repro.analysis.checkers.fork_safety import (
    _ENTRIES,
    _direct_scope,
    _lock_aliases,
    _threading_lock_call,
)
from repro.analysis.core import Checker, Finding, Project, register_checker

_MAX_CALL_DEPTH = 8

_HAZARD_TEXT = {
    "lock": "a threading lock created at import time stays locked forever "
            "in every worker if any parent thread holds it at os.fork()",
    "sqlite": "sqlite3 connections must never cross os.fork(); open the "
              "handle inside the worker instead",
    "atexit": "atexit handlers registered pre-fork re-run in every worker "
              "at child exit",
}


def _hazard_kind(node: ast.Call, lock_aliases: Set[str]) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.attr == "connect" and func.value.id == "sqlite3":
            return "sqlite"
        if func.attr == "register" and func.value.id == "atexit":
            return "atexit"
    if _threading_lock_call(node, lock_aliases):
        return "lock"
    return None


@register_checker
class ForkTaintChecker(Checker):
    name = "fork-taint"
    rule_ids = ("fork-taint",)
    description = (
        "the transitive import closures of training/multiprocess.py and "
        "serving/pool.py must stay fork-safe: no locks, sqlite connections, "
        "or atexit handlers created at import time anywhere os.fork() "
        "duplicates (call chains from module level included)"
    )
    # The import closure can grow from any package file.
    trigger_prefixes = ("",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        local_scope = set(_direct_scope(project))
        if not local_scope:
            return []
        graph = CallGraph.for_project(project)
        closure = self._import_closure(graph)

        findings: List[Finding] = []
        seen: Set[Tuple[str, int, int]] = set()
        for relpath, import_chain in sorted(closure.items()):
            source = project.file(relpath)
            if source is None:
                continue
            aliases = _lock_aliases(source.tree)
            # Module-level lock objects outside the file-local rules' scope.
            if relpath not in local_scope:
                for stmt in source.tree.body:
                    value = getattr(stmt, "value", None)
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and \
                            value is not None and \
                            _threading_lock_call(value, aliases):
                        findings.append(self._finding(
                            source, stmt, "lock", import_chain, ()))
                        # The module-body call walk sees the same ctor.
                        seen.add((relpath, value.lineno, value.col_offset))
            # Hazards reached from module-level call sites via call edges.
            findings.extend(self._walk_calls(
                project, graph, f"{relpath}::{MODULE_BODY}", import_chain,
                ("<module>",), local_scope, set(), seen))
        return findings

    # ------------------------------------------------------------------ #
    def _import_closure(self, graph: CallGraph) -> Dict[str, Tuple[str, ...]]:
        """relpath -> shortest import chain from a fork entry point."""
        chains: Dict[str, Tuple[str, ...]] = {entry: (entry,) for entry in _ENTRIES}
        queue = list(chains)
        while queue:
            relpath = queue.pop(0)
            module = graph.modules.get(relpath)
            if module is None:
                continue
            for imported in sorted(module.symbols.imported_modules):
                if imported not in chains:
                    chains[imported] = chains[relpath] + (imported,)
                    queue.append(imported)
        return chains

    def _walk_calls(self, project: Project, graph: CallGraph, fn_key: str,
                    import_chain: Tuple[str, ...],
                    call_chain: Tuple[str, ...], local_scope: Set[str],
                    visited: Set[str],
                    seen: Set[Tuple[str, int, int]]) -> List[Finding]:
        if fn_key in visited or len(call_chain) > _MAX_CALL_DEPTH:
            return []
        visited.add(fn_key)
        fn = graph.function(fn_key)
        if fn is None:
            return []
        source = project.file(fn.relpath)
        if source is None:
            return []
        findings: List[Finding] = []
        aliases = _lock_aliases(source.tree)
        body = fn.node.body if fn.qualname != MODULE_BODY else [
            s for s in source.tree.body
            if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))]
        for stmt in body:
            for node in walk_shallow(stmt):
                if not isinstance(node, ast.Call):
                    continue
                kind = _hazard_kind(node, aliases)
                if kind is not None:
                    covered_by_fork_safety = (
                        fn.relpath in local_scope
                        and (kind != "lock" or len(call_chain) == 1))
                    key = (fn.relpath, node.lineno, node.col_offset)
                    if not covered_by_fork_safety and key not in seen:
                        seen.add(key)
                        findings.append(self._finding(
                            source, node, kind, import_chain, call_chain))
                    continue
                site = graph.site(node)
                if site is not None and site.callee is not None:
                    findings.extend(self._walk_calls(
                        project, graph, site.callee, import_chain,
                        call_chain + (graph.display(site.callee),),
                        local_scope, visited, seen))
        return findings

    def _finding(self, source, node: ast.AST, kind: str,
                 import_chain: Tuple[str, ...],
                 call_chain: Tuple[str, ...]) -> Finding:
        chain = "import chain " + " -> ".join(import_chain)
        if len(call_chain) > 1:
            chain += "; call chain " + " -> ".join(call_chain)
        return source.finding(
            "fork-taint", node,
            f"{chain}: {_HAZARD_TEXT[kind]} (executes at import time "
            "inside the closure os.fork() duplicates into workers)")
