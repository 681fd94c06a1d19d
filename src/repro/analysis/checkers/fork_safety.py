"""fork-safety checker.

``MultiprocessTrainer`` and the serving ``WorkerPool`` use ``fork``-start
workers: everything importable from ``training/multiprocess.py`` or
``serving/pool.py`` is duplicated into child processes with whatever
process-global state the parent had.  Three classes of state are known to
corrupt silently across ``os.fork`` and are banned inside either entry
point's import closure:

* ``fork-module-lock`` — a module-level ``threading.Lock``/``RLock``:
  if any parent thread holds it at fork time, every child inherits it
  locked forever (the classic logging-deadlock).
* ``fork-sqlite`` — ``sqlite3.connect`` reachable from an entry module:
  SQLite connections must never cross a fork (the docs forbid sharing a
  connection between processes); batch factories open their own handle
  post-fork instead.
* ``fork-atexit`` — ``atexit.register`` in the closure: handlers
  registered pre-fork re-run in every worker at child exit, typically
  re-flushing or deleting parent-owned resources.

Scope: each entry point plus the first-party ``repro.*`` modules it
directly imports (one level — the modules whose globals the fork
demonstrably duplicates into the hot path).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.core import Checker, Finding, Project, SourceFile, register_checker

#: The modules that call ``os.fork()`` (through ``multiprocessing``'s
#: ``fork`` context): the data-parallel trainer and the serving pool.
_ENTRIES = ("training/multiprocess.py", "serving/pool.py")


def _module_to_relpath(project: Project, module: str) -> Optional[str]:
    """Map ``repro.data.batching`` to ``data/batching.py`` (or pkg init)."""
    if not module.startswith("repro."):
        return None
    tail = module[len("repro."):].replace(".", "/")
    for candidate in (f"{tail}.py", f"{tail}/__init__.py"):
        if project.file(candidate) is not None:
            return candidate
    return None


def _direct_imports(project: Project, source: SourceFile) -> List[str]:
    out: Set[str] = set()
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                rel = _module_to_relpath(project, alias.name)
                if rel:
                    out.add(rel)
        elif isinstance(node, ast.ImportFrom) and node.module:
            rel = _module_to_relpath(project, node.module)
            if rel:
                out.add(rel)
            else:
                # ``from repro.training import config`` style
                for alias in node.names:
                    rel = _module_to_relpath(
                        project, f"{node.module}.{alias.name}"
                    )
                    if rel:
                        out.add(rel)
    return sorted(out)


def _direct_scope(project: Project) -> List[str]:
    """The entry points present and the ``repro`` modules each imports directly."""
    scope: Set[str] = set()
    for entry in _ENTRIES:
        source = project.file(entry)
        if source is not None:
            scope.update([entry, *_direct_imports(project, source)])
    return sorted(scope)


def _threading_lock_call(node: ast.expr, lock_aliases: Set[str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in {"Lock", "RLock"}
        and isinstance(func.value, ast.Name)
        and func.value.id == "threading"
    ):
        return True
    return isinstance(func, ast.Name) and func.id in lock_aliases


def _lock_aliases(tree: ast.Module) -> Set[str]:
    """Names bound by ``from threading import Lock [as L], RLock``."""
    aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "threading":
            for alias in node.names:
                if alias.name in {"Lock", "RLock"}:
                    aliases.add(alias.asname or alias.name)
    return aliases


def _check_one(source: SourceFile) -> List[Finding]:
    findings: List[Finding] = []
    aliases = _lock_aliases(source.tree)

    # Module-level lock objects (only top-level statements — locks created
    # inside functions/classes are per-call or per-instance and fine).
    for stmt in source.tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = stmt.value
            if value is not None and _threading_lock_call(value, aliases):
                findings.append(
                    source.finding(
                        "fork-module-lock",
                        stmt,
                        "module-level threading lock in the fork closure: a "
                        "lock held at os.fork() time stays locked forever in "
                        "every worker; create it per-instance or post-fork",
                    )
                )

    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "connect"
                and isinstance(func.value, ast.Name)
                and func.value.id == "sqlite3"
            ):
                findings.append(
                    source.finding(
                        "fork-sqlite",
                        node,
                        "sqlite3.connect in the fork closure: connections "
                        "must not cross os.fork(); pass a path and open the "
                        "handle inside the worker (BatchFactory contract)",
                    )
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == "register"
                and isinstance(func.value, ast.Name)
                and func.value.id == "atexit"
            ):
                findings.append(
                    source.finding(
                        "fork-atexit",
                        node,
                        "atexit.register in the fork closure: handlers "
                        "registered pre-fork re-run in every worker at child "
                        "exit; use explicit close() on the owning object",
                    )
                )
    return findings


@register_checker
class ForkSafetyChecker(Checker):
    name = "fork-safety"
    rule_ids = ("fork-module-lock", "fork-sqlite", "fork-atexit")
    description = (
        "training/multiprocess.py, serving/pool.py and their direct repro "
        "imports must stay fork-safe: no module-level locks, sqlite "
        "connections, or atexit handlers in the closure fork duplicates into "
        "workers"
    )
    trigger_prefixes = ("training/", "serving/", "data/", "losses/", "models/",
                        "sparse/", "utils/")

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for relpath in _direct_scope(project):
            findings.extend(_check_one(project.file(relpath)))
        return findings
