"""lock-state checker: Lock-guarded state changes only under its lock.

The contract: a class that creates a ``threading.Lock``/``RLock`` in
``__init__`` promises that every post-construction write of the state
initialised alongside that lock happens with the lock held.  The
``RequestBatcher`` shutdown races fixed by hand in the serving tier
(``_closed`` flipped outside ``_submit_lock``) were exactly violations of
it.  The rule owns the whole scope of that contract, package-wide:

* **lock classes** — any class whose ``__init__`` assigns a lock
  constructor (:func:`is_lock_ctor`, aliases included) to ``self.X``; the
  other attributes ``__init__`` assigns are the guarded state.
* **roots**, each walked with *no* lock held:

  - thread entry points: public methods (the API surface another thread
    may call), dunders, ``do_*`` HTTP handler methods, and any method
    passed as ``threading.Thread(target=self.X)``;
  - every other non-``__init__``, non-``_locked`` method that no resolved
    same-object call edge reaches — a callback passed as a value, like
    ``threading.Timer(1.0, self._expire)``, runs on whatever thread
    fires it;
  - every nested ``def`` inside a method: a closure runs later, with
    whatever lock state its caller has, so the enclosing ``with`` does
    not cover it.

* **propagation** — from each root the checker walks the body tracking
  which locks are lexically held, and follows ``self.*`` call edges into
  private and ``_locked``-suffixed helpers carrying the held-lock set.
  Cross-object edges are followed only into ``*_locked`` methods of other
  lock classes, with an *empty* held set — calling another object's
  caller-holds-the-lock helper without its lock is exactly the race.
* **finding** — a write (``self.Y = / += / [...] =``, ``del self.Y``) to
  guarded state reached with no lock held, with the full call chain in
  the message::

      RequestBatcher._run() -> RequestBatcher._flush(): writes
      self._pending without self._submit_lock

Escape hatch: methods whose name ends in ``_locked`` are never roots — the
repo's convention for helpers whose *caller* holds the lock (e.g.
``InferenceEngine._entity_snapshot_locked``).

Graceful degradation: unresolved calls (dynamic dispatch, callables as
values) contribute no edges and therefore no claims; a chain the graph
cannot see is a chain this rule stays silent on.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, ClassInfo, FunctionInfo, self_attr
from repro.analysis.core import Checker, Finding, Project, register_checker

_MAX_CHAIN = 12
_LOCK_TYPES = ("Lock", "RLock")


def lock_ctor_names(tree: ast.Module,
                    kinds: Tuple[str, ...] = _LOCK_TYPES) -> FrozenSet[str]:
    """Call names that construct a ``threading`` lock in this module.

    ``threading.Lock``/``RLock`` and bare ``Lock``/``RLock`` always count;
    ``import threading as th`` adds ``th.Lock``/``th.RLock`` and
    ``from threading import Lock as L`` adds ``L``.  Other ``threading``
    classes are looked up the same way through ``kinds``.
    """
    modules = {"threading"}
    names = set(kinds)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name == "threading" and alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            names.update(alias.asname or alias.name for alias in node.names
                         if alias.name in kinds)
    names.update(f"{module}.{kind}" for module in modules for kind in kinds)
    return frozenset(names)


def is_lock_ctor(node: ast.expr, ctor_names: FrozenSet[str]) -> bool:
    """Is ``node`` a call of one of :func:`lock_ctor_names`?"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ctor_names
    return (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and f"{func.value.id}.{func.attr}" in ctor_names)


def _init_attrs(init: ast.FunctionDef) -> Set[str]:
    attrs: Set[str] = set()
    for node in ast.walk(init):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                name = self_attr(target)
                if name:
                    attrs.add(name)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            name = self_attr(node.target)
            if name:
                attrs.add(name)
    return attrs


def _lock_attrs(init: ast.FunctionDef, ctor_names: FrozenSet[str]) -> Set[str]:
    locks: Set[str] = set()
    for node in ast.walk(init):
        if isinstance(node, ast.Assign) and is_lock_ctor(node.value, ctor_names):
            for target in node.targets:
                name = self_attr(target)
                if name:
                    locks.add(name)
    return locks


def _mutated_attr(node: ast.AST) -> List[ast.expr]:
    """Mutation targets of an assignment-like node (``self.X`` or ``self.X[...]``)."""
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    out: List[ast.expr] = []
    for t in targets:
        if isinstance(t, ast.Subscript):
            t = t.value
        if isinstance(t, ast.Tuple):
            out.extend(e for e in t.elts)
        else:
            out.append(t)
    return out


class _ClassLocks:
    """Lock/guarded attribute sets of one class (both empty if lock-free).

    Lock-free classes still matter to the walk: their entry points can
    reach another object's ``_locked`` helper (``Engine.reload() ->
    cache._evict_locked()``) without that object's lock.
    """

    def __init__(self, info: ClassInfo, init: Optional[ast.FunctionDef],
                 ctor_names: FrozenSet[str]):
        self.info = info
        self.locks = _lock_attrs(init, ctor_names) if init else set()
        # No lock, nothing guarded: a lock-free class's own writes are
        # never findings — it participates only as a *caller* into some
        # other object's ``_locked`` helper.
        self.guarded = (_init_attrs(init) - self.locks) if self.locks else set()


def _find_init(info: ClassInfo) -> Optional[ast.FunctionDef]:
    for member in info.node.body:
        if isinstance(member, ast.FunctionDef) and member.name == "__init__":
            return member
    return None


def _thread_targets(info: ClassInfo) -> Set[str]:
    """Methods passed as ``threading.Thread(target=self.X)`` in this class."""
    targets: Set[str] = set()
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_thread = (
            isinstance(func, ast.Attribute) and func.attr == "Thread"
        ) or (isinstance(func, ast.Name) and func.id == "Thread")
        if not is_thread:
            continue
        for kw in node.keywords:
            if kw.arg == "target":
                name = self_attr(kw.value)
                if name:
                    targets.add(name)
    return targets


def _is_entry(name: str, thread_targets: Set[str]) -> bool:
    """Is this method a thread entry point of its class?"""
    if name == "__init__" or name.endswith("_locked"):
        return False
    if not name.startswith("_"):
        return True  # public API surface
    if name.startswith("__") and name.endswith("__"):
        return True  # dunder protocol methods (len, contains, enter, ...)
    if name.startswith("do_"):
        return True  # http.server handler convention
    return name in thread_targets


def _is_same_object_call(name: str) -> bool:
    """``self.X(...)``, not ``self.X.Y(...)``."""
    return name.startswith("self.") and "." not in name[5:]


class _PathVisitor(ast.NodeVisitor):
    """Walks one method body with a (carried + lexical) held-lock set.

    Reports unguarded writes and yields resolved same-object /
    cross-object call edges with the lock state at the call site.
    """

    def __init__(self, checker: "LockStateChecker", fn: FunctionInfo,
                 locks: _ClassLocks, held: frozenset,
                 chain: Tuple[str, ...]):
        self.checker = checker
        self.fn = fn
        self.locks = locks
        self.lexical: List[str] = []
        self.carried = held
        self.chain = chain

    def _held(self) -> frozenset:
        return self.carried | frozenset(self.lexical)

    def visit_With(self, node: ast.With) -> None:
        taken = [
            self_attr(item.context_expr)
            for item in node.items
            if self_attr(item.context_expr) in self.locks.locks
        ]
        self.lexical.extend(taken)
        self.generic_visit(node)
        del self.lexical[len(self.lexical) - len(taken):]

    visit_AsyncWith = visit_With

    def _check_write(self, node: ast.AST) -> None:
        if self._held():
            return
        for target in _mutated_attr(node):
            name = self_attr(target)
            if name and name in self.locks.guarded:
                self.checker._report(self.fn, self.locks, node, name,
                                     self.chain)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_write(node)
        self.generic_visit(node)

    visit_AugAssign = visit_Assign
    visit_AnnAssign = visit_Assign
    visit_Delete = visit_Assign

    def visit_Call(self, node: ast.Call) -> None:
        self.checker._follow_call(self.fn, node, self._held(), self.chain)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # closures run later, with unknown lock state: their own roots

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_Lambda = visit_FunctionDef


@register_checker
class LockStateChecker(Checker):
    name = "lock-state"
    rule_ids = ("lock-state",)
    description = (
        "no write to Lock-guarded state may be reachable with no lock held "
        "from a thread entry point, a callback method or a closure "
        "(interprocedural; follows _locked helper chains across call edges)"
    )
    # Interprocedural: any package change can add or remove a call edge.
    trigger_prefixes = ("",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        self._graph = CallGraph.for_project(project)
        self._project = project
        self._findings: List[Finding] = []
        self._class_locks: Dict[str, _ClassLocks] = {}
        self._targets: Dict[str, Set[str]] = {}
        self._visited: Set[Tuple[str, str, frozenset]] = set()

        ctor_names: Dict[str, FrozenSet[str]] = {}
        for key, info in self._graph.classes.items():
            if info.relpath not in ctor_names:
                ctor_names[info.relpath] = lock_ctor_names(
                    project.file(info.relpath).tree)
            self._class_locks[key] = _ClassLocks(
                info, _find_init(info), ctor_names[info.relpath])
            self._targets[key] = _thread_targets(info)

        reached = {
            site.callee
            for fn_key in self._graph.functions
            for site in self._graph.calls_in(fn_key)
            if site.callee is not None and _is_same_object_call(site.name)
        }
        for cls_key in sorted(self._class_locks):
            locks = self._class_locks[cls_key]
            for name in sorted(locks.info.methods):
                key = locks.info.methods[name]
                if name == "__init__" or name.endswith("_locked"):
                    continue
                if _is_entry(name, self._targets[cls_key]) or key not in reached:
                    self._walk(self._graph.functions[key], locks, frozenset(), ())

        for key in sorted(self._graph.functions):
            fn = self._graph.functions[key]
            owner = fn.qualname.split(".<locals>.", 1)[0]
            if owner == fn.qualname or "." not in owner:
                continue  # not a closure, or a closure of a plain function
            locks = self._class_locks.get(
                f"{fn.relpath}::{owner.split('.', 1)[0]}")
            if locks is not None:
                self._walk(fn, locks, frozenset(), ())
        return self._findings

    # ------------------------------------------------------------------ #
    def _walk(self, fn: FunctionInfo, locks: _ClassLocks,
              held: frozenset, chain: Tuple[str, ...]) -> None:
        if len(chain) >= _MAX_CHAIN:
            return
        # The lock context can differ per entry class (base-class methods
        # reached from different subclasses), so it is part of the memo key.
        memo = (fn.key, locks.info.key, held)
        if memo in self._visited:
            return
        self._visited.add(memo)
        if not isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        visitor = _PathVisitor(self, fn, locks, held,
                               chain + (self._graph.display(fn.key),))
        for stmt in fn.node.body:
            visitor.visit(stmt)

    def _follow_call(self, fn: FunctionInfo, node: ast.Call,
                     held: frozenset, chain: Tuple[str, ...]) -> None:
        site = self._graph.site(node)
        if site is None or site.callee is None:
            return  # unresolved: no edge, no claim
        callee = self._graph.functions.get(site.callee)
        if callee is None or callee.cls is None:
            return
        if _is_same_object_call(site.name):
            # Same-object call: carry the held set into private /_locked
            # helpers, keeping the *caller's* lock context (`self` is still
            # the same object even when the method resolved to a base
            # class).  Entry methods are roots of their own analysis.
            caller_locks = self._class_locks.get(fn.cls)
            if caller_locks is None:
                return
            if _is_entry(callee.name, self._targets[fn.cls]):
                return
            self._walk(callee, caller_locks, held, chain)
        elif callee.name.endswith("_locked"):
            # Cross-object edge into another object's caller-holds-the-lock
            # helper: we cannot prove the receiver's lock is held, so enter
            # with an empty held set — its guarded writes become findings.
            callee_locks = self._class_locks.get(callee.cls)
            if callee_locks is not None:
                self._walk(callee, callee_locks, frozenset(), chain)

    def _report(self, fn: FunctionInfo, locks: _ClassLocks,
                node: ast.AST, attr: str, chain: Tuple[str, ...]) -> None:
        source = self._project.file(fn.relpath)
        if source is None:
            return
        lock_names = " or ".join(
            "self." + name for name in sorted(locks.locks)
        )
        self._findings.append(
            source.finding(
                "lock-state",
                node,
                f"{' -> '.join(chain)}: writes self.{attr} without "
                f"{lock_names} — {chain[0]} can run with no lock held, and "
                "no call on this path takes it (suffix the method _locked "
                "if every caller holds the lock)",
            )
        )
