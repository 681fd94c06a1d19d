"""resource-lifecycle checker: close-on-all-paths for acquired handles.

The repo's hot paths juggle three kinds of OS-backed handles — SQLite
connections (``sqlite3.connect``), plain files (``open``), and memory maps
(``mmap.mmap``, ``np.load(..., mmap_mode=...)`` /
``np.lib.format.open_memmap``).  A handle that is opened but not released
on *every* normal path out of the function is a descriptor leak; a raw map
holds a duplicate of its file's descriptor until it is closed, so one made
per read inside a rescoring loop leaks a descriptor per read.

Mechanics, per function (forward dataflow over the :mod:`dataflow` CFG):

* an **acquisition** bound to a local starts ``open``;
* ``x.close()`` (files, connections, ``mmap.mmap``), ``del x`` (the
  canonical release for ``np.memmap``, which has no ``close()``), and
  ``with x:`` move it to ``closed``;
* passing the handle to *any* call, returning/yielding it, or storing it
  on an object moves it to ``escaped`` — ownership transferred, the
  caller/consumer is now responsible;
* at the function's normal exits, a handle still ``open`` on some path is
  a finding at the acquisition site.  Paths that end in an explicit
  ``raise`` are not charged (error paths may legitimately leak to the
  supervisor); ``finally`` blocks are modelled on early returns.

Interprocedural half — **acquirer propagation**: a function whose return
value is an open handle (``return sqlite3.connect(p)`` or ``return conn``)
is itself an acquisition site for its callers, found via the call graph
and iterated to a fixpoint.  Constructors of *resource classes* (a class
that stores a primitive handle on ``self`` and defines ``close``/
``__exit__``/``__del__``) count the same way.  A class that stores a file,
SQLite or map handle on ``self`` — the acquiring call itself, or a local
bound to one in the same method (``f = open(p); self._f = f``) — but
defines no release method at all is flagged directly.

Graceful degradation: handles reached through unresolved calls, container
comprehensions, or attribute chains the graph cannot type produce no
claim.  Anonymous ``open(...)``/``sqlite3.connect(...)`` expressions that
are neither bound, managed, passed on, nor returned are flagged
syntactically (``open(p).read()`` leaks the descriptor until GC).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo, walk_shallow
from repro.analysis.core import Checker, Finding, Project, register_checker
from repro.analysis.dataflow import CFGNode, ForwardAnalysis, Transfer, build_cfg

_OPEN, _CLOSED, _ESCAPED = "open", "closed", "escaped"

_KIND_TEXT = {
    "file": "file handle",
    "sqlite": "sqlite connection",
    "mmap": "memory map",
}
_RELEASE_HINT = {
    "file": "close it, use `with`, or hand it to an owner that closes it",
    "sqlite": "close it, use `with contextlib.closing(...)`, or pass it on",
    "mmap": ("close it (mmap.mmap), `del` it once copied out (np.memmap "
             "has no close), or hand it to an owner that closes it"),
}


def acquisition_kind(node: ast.Call) -> Optional[str]:
    """'file' | 'sqlite' | 'mmap' when ``node`` acquires an OS handle."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "file"
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    if (func.attr == "connect" and isinstance(base, ast.Name)
            and base.id == "sqlite3"):
        return "sqlite"
    if (func.attr == "load" and isinstance(base, ast.Name)
            and base.id in ("np", "numpy")):
        for kw in node.keywords:
            if kw.arg == "mmap_mode" and not (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is None):
                return "mmap"
        return None
    if func.attr == "open_memmap" or (
            func.attr == "mmap" and isinstance(base, ast.Name)
            and base.id == "mmap"):
        return "mmap"
    return None


def _single_name_target(stmt: ast.Assign) -> Optional[str]:
    if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    return None


def _call_arg_values(call: ast.Call) -> Iterable[ast.expr]:
    for arg in call.args:
        yield arg.value if isinstance(arg, ast.Starred) else arg
    for kw in call.keywords:
        yield kw.value


class _Site:
    """One acquisition site inside one function."""

    __slots__ = ("sid", "node", "kind", "via")

    def __init__(self, sid: str, node: ast.Call, kind: str,
                 via: Optional[str] = None):
        self.sid = sid
        self.node = node
        self.kind = kind
        self.via = via  # callee display name when acquired through a call


class _ResourceTransfer(Transfer):
    """Lattice: per-site status (open/closed/escaped) + var bindings."""

    def __init__(self, checker: "ResourceLifecycleChecker",
                 fn: FunctionInfo):
        self.checker = checker
        self.fn = fn
        self.sites: Dict[str, _Site] = {}
        self.returns_kind: Set[str] = set()

    # ---- lattice ----------------------------------------------------- #
    def join(self, a: Dict, b: Dict) -> Dict:
        out: Dict[str, str] = {}
        for key in set(a) | set(b):
            va, vb = a.get(key), b.get(key)
            if key.startswith("r:"):
                if _ESCAPED in (va, vb):
                    out[key] = _ESCAPED
                elif _OPEN in (va, vb):
                    out[key] = _OPEN
                else:
                    out[key] = _CLOSED
            elif va == vb and va is not None:
                out[key] = va  # binding agrees on both paths
        return out

    # ---- helpers ----------------------------------------------------- #
    def _site_for_call(self, node: ast.Call) -> Optional[_Site]:
        kind = acquisition_kind(node)
        via = None
        if kind is None:
            callee = self.checker._graph.resolve(node)
            site = self.checker._graph.site(node)
            if callee is not None and callee in self.checker._acquirers:
                kind = self.checker._acquirers[callee]
                via = self.checker._graph.display(callee)
            elif (site is not None and site.instantiates is not None
                  and site.instantiates in self.checker._resource_classes):
                kind = self.checker._resource_classes[site.instantiates]
                via = self.checker._graph.classes[site.instantiates].name
        if kind is None:
            return None
        sid = f"{node.lineno}:{node.col_offset}"
        if sid not in self.sites:
            self.sites[sid] = _Site(sid, node, kind, via)
        return self.sites[sid]

    def _bind(self, state: Dict, name: str, site: _Site) -> None:
        state[f"v:{name}"] = site.sid
        state[f"r:{site.sid}"] = _OPEN

    def _status(self, state: Dict, name: str) -> Optional[str]:
        sid = state.get(f"v:{name}")
        return None if sid is None else state.get(f"r:{sid}")

    def _mark(self, state: Dict, name: str, status: str) -> None:
        sid = state.get(f"v:{name}")
        if sid is not None:
            state[f"r:{sid}"] = status

    def _drop(self, state: Dict, name: str) -> None:
        state.pop(f"v:{name}", None)

    def _escape_names_in(self, state: Dict, expr: ast.expr) -> None:
        """Escape bindings surrendered by value position (tuple/list/...)."""
        if isinstance(expr, ast.Name):
            self._mark(state, expr.id, _ESCAPED)
        elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                self._escape_names_in(state, elt)
        elif isinstance(expr, ast.Dict):
            for value in expr.values:
                if value is not None:
                    self._escape_names_in(state, value)

    # ---- transfer ----------------------------------------------------- #
    def transfer(self, node: CFGNode, state: Dict) -> Dict:
        if node.kind == "with-enter" and node.item is not None:
            ce = node.item.context_expr
            if isinstance(ce, ast.Name):
                # `with handle:` — the with guarantees release on all exits.
                self._mark(state, ce.id, _CLOSED)
            return state
        if node.kind == "loop-test" and isinstance(node.stmt,
                                                   (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.stmt.target):
                if isinstance(sub, ast.Name):
                    self._drop(state, sub.id)
            return state
        if node.kind != "stmt" or node.stmt is None:
            return state
        stmt = node.stmt

        # Handles passed to any call escape (ownership transferred).
        for sub in walk_shallow(stmt):
            if isinstance(sub, ast.Call):
                for arg in _call_arg_values(sub):
                    if isinstance(arg, ast.Name):
                        self._mark(state, arg.id, _ESCAPED)
            elif isinstance(sub, (ast.Yield, ast.YieldFrom)):
                if sub.value is not None:
                    self._escape_names_in(state, sub.value)

        if isinstance(stmt, ast.Assign):
            self._assign(state, stmt)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                self._drop(state, stmt.target.id)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self._mark(state, target.id, _CLOSED)
                    self._drop(state, target.id)
        elif isinstance(stmt, ast.Return):
            self._return(state, stmt)
        elif isinstance(stmt, ast.Expr):
            self._expr(state, stmt.value)
        return state

    def _assign(self, state: Dict, stmt: ast.Assign) -> None:
        name = _single_name_target(stmt)
        value = stmt.value
        if isinstance(value, ast.Call):
            site = self._site_for_call(value)
            if site is not None and name is not None:
                self._bind(state, name, site)
                return
        if isinstance(value, ast.Name):
            sid = state.get(f"v:{value.id}")
            if sid is not None:
                if name is not None:
                    state[f"v:{name}"] = sid  # alias
                else:
                    state[f"r:{sid}"] = _ESCAPED  # stored on an object
                return
        if name is not None:
            self._drop(state, name)  # rebound to something untracked
        else:
            self._escape_names_in(state, value)

    def _return(self, state: Dict, stmt: ast.Return) -> None:
        value = stmt.value
        if value is None:
            return
        if isinstance(value, ast.Call):
            kind = acquisition_kind(value)
            if kind is None:
                callee = self.checker._graph.resolve(value)
                if callee is not None:
                    kind = self.checker._acquirers.get(callee)
            if kind is not None:
                self.returns_kind.add(kind)
            return
        if isinstance(value, ast.Name):
            if self._status(state, value.id) == _OPEN:
                sid = state[f"v:{value.id}"]
                self.returns_kind.add(self.sites[sid].kind)
        self._escape_names_in(state, value)

    def _expr(self, state: Dict, value: ast.expr) -> None:
        if not isinstance(value, ast.Call):
            return
        func = value.func
        if (isinstance(func, ast.Attribute) and func.attr == "close"
                and isinstance(func.value, ast.Name)):
            self._mark(state, func.value.id, _CLOSED)


class ResourceLifecycleChecker(Checker):
    name = "resource-lifecycle"
    rule_ids = ("resource-lifecycle",)
    description = (
        "acquired handles (open/sqlite3.connect/mmap.mmap/mmap-mode "
        "np.load/open_memmap) must be closed on every normal path, managed by "
        "`with`, or handed off; functions returning open handles taint "
        "their callers (interprocedural)"
    )
    # Interprocedural: acquirer status can change from any package file.
    trigger_prefixes = ("",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        self._project = project
        self._graph = CallGraph.for_project(project)
        self._resource_classes = self._find_resource_classes()
        self._acquirers: Dict[str, str] = {}

        # Fixpoint over "returns an open handle" (chains of factories).
        results: List[Tuple[FunctionInfo, List[_Site], Set[str]]] = []
        for _round in range(4):
            results = [self._analyze(fn) for fn in self._analyzable()]
            acquirers: Dict[str, str] = {}
            for fn, _open_sites, kinds in results:
                for kind in kinds:
                    acquirers[fn.key] = kind
            if acquirers == self._acquirers:
                break
            self._acquirers = acquirers
        findings: List[Finding] = [
            f for fn, open_sites, _k in results
            for f in self._leak_findings(fn, open_sites)
        ]
        findings.extend(self._self_store_findings())
        findings.extend(self._orphan_findings())
        return findings

    # ------------------------------------------------------------------ #
    def _analyzable(self) -> Iterable[FunctionInfo]:
        for fn in self._graph.iter_functions():
            if isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield fn

    def _analyze(self, fn: FunctionInfo
                 ) -> Tuple[FunctionInfo, List[_Site], Set[str]]:
        transfer = _ResourceTransfer(self, fn)
        analysis = ForwardAnalysis(build_cfg(fn.node), transfer).run()
        exit_state = analysis.exit_state() or {}
        open_sites = [
            transfer.sites[key[2:]]
            for key, status in exit_state.items()
            if key.startswith("r:") and status == _OPEN
        ]
        return fn, open_sites, transfer.returns_kind

    def _leak_findings(self, fn: FunctionInfo,
                       open_sites: Sequence[_Site]) -> Iterable[Finding]:
        source = self._project.file(fn.relpath)
        if source is None:
            return
        for site in sorted(open_sites, key=lambda s: s.node.lineno):
            what = _KIND_TEXT[site.kind]
            origin = (f"call to {site.via} returns an open {what}"
                      if site.via else f"{what} acquired here")
            yield source.finding(
                "resource-lifecycle",
                site.node,
                f"{origin} is still open on a normal path out of "
                f"{fn.qualname}(); {_RELEASE_HINT[site.kind]}",
            )

    # ------------------------------------------------------------------ #
    def _find_resource_classes(self) -> Dict[str, str]:
        """Class key -> handle kind, for classes owning a primitive handle."""
        out: Dict[str, str] = {}
        for key, info in self._graph.classes.items():
            if not self._has_release(key):
                continue
            for _node, kind in self._self_stored_handles(info.node):
                out.setdefault(key, kind)
        return out

    @classmethod
    def _self_stored_handles(cls, class_node: ast.ClassDef
                             ) -> Iterable[Tuple[ast.Assign, str]]:
        """``(assignment, kind)`` of each handle a method stores on ``self``:
        the acquiring call itself, or a local the method bound to one."""
        for member in class_node.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            assigns = [node for node in walk_shallow(member)
                       if isinstance(node, ast.Assign)]
            bound: Dict[str, str] = {}
            for node in assigns:
                name = _single_name_target(node)
                kind = (acquisition_kind(node.value)
                        if isinstance(node.value, ast.Call) else None)
                if name is not None and kind is not None:
                    bound[name] = kind
            for node in assigns:
                if not cls._is_self_store(node):
                    continue
                if isinstance(node.value, ast.Call):
                    kind = acquisition_kind(node.value)
                elif isinstance(node.value, ast.Name):
                    kind = bound.get(node.value.id)
                else:
                    kind = None
                if kind is not None:
                    yield node, kind

    def _has_release(self, class_key: str) -> bool:
        return any(
            self._graph.resolve_method(class_key, name) is not None
            for name in ("close", "__exit__", "__del__")
        )

    @staticmethod
    def _is_self_store(stmt: ast.Assign) -> bool:
        return any(
            isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
            and t.value.id == "self"
            for t in stmt.targets
        )

    def _self_store_findings(self) -> Iterable[Finding]:
        """Classes that store a handle on ``self`` but can never release it."""
        for key, info in self._graph.classes.items():
            if self._has_release(key):
                continue
            source = self._project.file(info.relpath)
            if source is None:
                continue
            for node, kind in self._self_stored_handles(info.node):
                yield source.finding(
                    "resource-lifecycle",
                    node,
                    f"{info.name} stores an open {_KIND_TEXT[kind]} on "
                    "self but defines no close()/__exit__/__del__; the "
                    "handle can never be released",
                )

    # ------------------------------------------------------------------ #
    def _orphan_findings(self) -> Iterable[Finding]:
        """Anonymous file/sqlite acquisitions that nothing can ever close."""
        for fn in self._analyzable():
            source = self._project.file(fn.relpath)
            if source is None:
                continue
            consumed = self._consumed_calls(fn)
            for stmt in fn.node.body:
                for node in self._body_walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    kind = acquisition_kind(node)
                    if kind not in ("file", "sqlite"):
                        continue
                    if id(node) in consumed:
                        continue
                    yield source.finding(
                        "resource-lifecycle",
                        node,
                        f"anonymous {_KIND_TEXT[kind]} is never bound: "
                        "nothing can close it (leaks until GC); bind it "
                        "or use a `with` block",
                    )

    @staticmethod
    def _body_walk(stmt: ast.stmt) -> Iterable[ast.AST]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return ()
        return walk_shallow(stmt)

    def _consumed_calls(self, fn: FunctionInfo) -> Set[int]:
        """Call nodes whose handle is bound, managed, passed on, or returned."""
        consumed: Set[int] = set()
        for stmt in fn.node.body:
            for node in self._body_walk(stmt):
                if isinstance(node, ast.Assign):
                    consumed.add(id(node.value))
                elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                    if node.value is not None:
                        consumed.add(id(node.value))
                        if isinstance(node.value, (ast.Tuple, ast.List)):
                            consumed.update(id(e) for e in node.value.elts)
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        consumed.add(id(item.context_expr))
                elif isinstance(node, ast.Call):
                    consumed.update(id(a) for a in _call_arg_values(node))
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    # Comprehension-produced handles: container owns them;
                    # no per-element claim (graceful degradation).
                    consumed.update(id(sub) for sub in ast.walk(node))
        return consumed


register_checker(ResourceLifecycleChecker)
