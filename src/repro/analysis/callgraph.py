"""Interprocedural layer of ``sptransx check``: the project call graph.

PR 7's checkers are file-local: a helper that mutates engine state without
the lock two calls deep, or an SQLite handle that leaks across a fork
through an intermediate module, passes silently.  This module gives the
checkers a whole-program view — which function calls which — so rules can
propagate facts (holds-lock, owns-resource, reached-from-fork-closure)
along real call edges instead of guessing from file boundaries.

Resolution is deliberately *heuristic but honest*: everything Python makes
statically visible is resolved (module-level imports and symbols, direct
calls, ``self.method()`` through base classes, ``self.attr.method()`` when
the attribute's class is inferable from ``__init__`` assignments or
parameter annotations, locally-constructed objects), and everything else —
dynamic dispatch through the model/backend registries, callables passed as
values, ``getattr`` — lands in :attr:`CallGraph.unresolved` rather than
producing a wrong edge.  Checkers built on the graph must therefore degrade
gracefully (no edge ⇒ no claim), never false-positive on dynamism.

Layout of keys (strings, stable across builds):

* module:      ``"serving/engine.py"`` (package-relative path)
* function:    ``"serving/engine.py::top_k"``
* method:      ``"serving/engine.py::InferenceEngine.close"``
* class:       ``"serving/engine.py::InferenceEngine"`` (in :attr:`classes`)
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import Project, SourceFile

__all__ = ["CallGraph", "CallSite", "FunctionInfo", "ClassInfo", "ModuleInfo",
           "walk_shallow"]

_NESTED_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function/class scopes.

    The roots themselves are yielded; a nested def/lambda is yielded (so a
    visitor can notice it exists) but its body is not entered — nested
    scopes execute at a different time with different lock/resource state,
    so facts must never leak across the boundary.
    """
    stack: List[ast.AST] = [node]
    first = True
    while stack:
        current = stack.pop()
        yield current
        if not first and isinstance(current, _NESTED_SCOPES):
            continue
        first = False
        stack.extend(ast.iter_child_nodes(current))

#: Module-level pseudo-function holding a module's top-level statements.
MODULE_BODY = "<module>"


def module_to_relpath(project: Project, module: str,
                      package_name: str = "repro") -> Optional[str]:
    """Map a dotted ``repro.*`` module name to its package relpath."""
    prefix = package_name + "."
    if module == package_name:
        return "__init__.py" if project.file("__init__.py") else None
    if not module.startswith(prefix):
        return None
    tail = module[len(prefix):].replace(".", "/")
    for candidate in (f"{tail}.py", f"{tail}/__init__.py"):
        if project.file(candidate) is not None:
            return candidate
    return None


@dataclass
class FunctionInfo:
    """One function or method definition."""

    key: str
    relpath: str
    qualname: str                     # "Class.method" or "func" or MODULE_BODY
    node: Optional[ast.AST]           # FunctionDef/AsyncFunctionDef; None for <module>
    cls: Optional[str] = None         # owning class key, if a method

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ClassInfo:
    """One class definition with resolved bases and attribute types."""

    key: str
    relpath: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)       # resolved class keys
    methods: Dict[str, str] = field(default_factory=dict)  # name -> function key
    attr_types: Dict[str, str] = field(default_factory=dict)  # self.X -> class key


@dataclass
class CallSite:
    """One call expression, resolved or not.

    ``callee`` is the resolved function key (``None`` when resolution
    failed — dynamic dispatch, external library, computed callable).
    ``instantiates`` carries the class key when the call constructs a
    known project class (``callee`` then points at its ``__init__`` if
    one is defined).
    """

    caller: str
    node: ast.Call
    name: str                         # printable callee ("self._drain", "np.load")
    callee: Optional[str] = None
    instantiates: Optional[str] = None


class _ModuleSymbols:
    """Import/definition bindings visible at a module's top level."""

    def __init__(self) -> None:
        #: local name -> ("module", relpath) | ("symbol", relpath, name)
        self.imports: Dict[str, Tuple] = {}
        self.functions: Dict[str, str] = {}   # name -> function key
        self.classes: Dict[str, str] = {}     # name -> class key
        #: every first-party relpath whose import executes at module load
        #: time (including dotted imports that bind no local name, and the
        #: ancestor package __init__s Python runs on the way down).
        self.imported_modules: Set[str] = set()


@dataclass
class ModuleInfo:
    relpath: str
    symbols: _ModuleSymbols


def _call_name(func: ast.expr) -> str:
    """Best-effort printable name of a call target expression."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return f"{_call_name(func.value)}.{func.attr}"
    if isinstance(func, ast.Call):
        return _call_name(func.func) + "()"
    return "<expr>"


class CallGraph:
    """Call edges + symbol/class resolution over a :class:`Project`.

    Build once per check run (:meth:`for_project` memoises on the project
    instance) and query:

    * :meth:`resolve` — callee key for a specific ``ast.Call`` node
    * :meth:`calls_in` — every call site inside one function
    * :meth:`resolve_method` — MRO walk over resolved base classes
    * :meth:`infer_type` — heuristic class of an expression in a context
    """

    def __init__(self, project: Project):
        self.project = project
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._calls: Dict[str, List[CallSite]] = {}
        self._by_node: Dict[int, CallSite] = {}
        self.unresolved: List[CallSite] = []
        self._build()

    # -------------------------------------------------------------- #
    # Construction
    # -------------------------------------------------------------- #
    @classmethod
    def for_project(cls, project: Project) -> "CallGraph":
        """The project's call graph, built once and cached on the project."""
        cached = getattr(project, "_callgraph_cache", None)
        if cached is None:
            cached = cls(project)
            project._callgraph_cache = cached  # type: ignore[attr-defined]
        return cached

    def _build(self) -> None:
        sources = list(self.project.files)
        for src in sources:
            self._collect_module(src)
        for src in sources:
            self._resolve_class_hierarchy(src)
        for src in sources:
            self._infer_attr_types(src)
        for src in sources:
            self._collect_calls(src)

    def _collect_module(self, src: SourceFile) -> None:
        symbols = _ModuleSymbols()
        self.modules[src.relpath] = ModuleInfo(src.relpath, symbols)
        module_key = f"{src.relpath}::{MODULE_BODY}"
        self.functions[module_key] = FunctionInfo(
            key=module_key, relpath=src.relpath, qualname=MODULE_BODY, node=src.tree)
        for stmt in src.tree.body:
            self._bind_import(src, symbols, stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = f"{src.relpath}::{stmt.name}"
                self.functions[key] = FunctionInfo(
                    key=key, relpath=src.relpath, qualname=stmt.name, node=stmt)
                symbols.functions[stmt.name] = key
                self._register_nested(src, stmt.name, stmt)
            elif isinstance(stmt, ast.ClassDef):
                cls_key = f"{src.relpath}::{stmt.name}"
                info = ClassInfo(key=cls_key, relpath=src.relpath,
                                 name=stmt.name, node=stmt)
                self.classes[cls_key] = info
                symbols.classes[stmt.name] = cls_key
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        mkey = f"{src.relpath}::{stmt.name}.{member.name}"
                        self.functions[mkey] = FunctionInfo(
                            key=mkey, relpath=src.relpath,
                            qualname=f"{stmt.name}.{member.name}",
                            node=member, cls=cls_key)
                        info.methods[member.name] = mkey
                        self._register_nested(
                            src, f"{stmt.name}.{member.name}", member)

    def _register_nested(self, src: SourceFile, parent_qual: str,
                         parent: ast.AST) -> None:
        """Register closures as their own functions (``outer.<locals>.inner``).

        A closure executes at a different time than its enclosing scope
        (callback, thread target, factory product), so its call sites must
        not be attributed to the outer function.  Nested defs get ``cls=None``
        even inside methods — their ``self`` binding is a free variable the
        graph does not model.
        """
        for node in walk_shallow(parent):
            if node is parent or not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            qual = f"{parent_qual}.<locals>.{node.name}"
            key = f"{src.relpath}::{qual}"
            self.functions[key] = FunctionInfo(
                key=key, relpath=src.relpath, qualname=qual, node=node)
            self._register_nested(src, qual, node)

    def _bind_import(self, src: SourceFile, symbols: _ModuleSymbols,
                     stmt: ast.stmt) -> None:
        # Imports nested under `if TYPE_CHECKING:` / try blocks still bind at
        # the top level for resolution purposes.
        for node in ast.walk(stmt) if isinstance(stmt, (ast.If, ast.Try)) else (stmt,):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    rel = module_to_relpath(self.project, alias.name)
                    if rel is not None:
                        self._note_imported(symbols, rel)
                        local = alias.asname or alias.name.split(".")[0]
                        if alias.asname or "." not in alias.name:
                            symbols.imports[local] = ("module", rel)
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                rel = module_to_relpath(self.project, node.module)
                if rel is not None:
                    self._note_imported(symbols, rel)
                for alias in node.names:
                    local = alias.asname or alias.name
                    sub = module_to_relpath(self.project,
                                            f"{node.module}.{alias.name}")
                    if sub is not None:
                        # ``from repro.data import sqlite_store``
                        self._note_imported(symbols, sub)
                        symbols.imports[local] = ("module", sub)
                    elif rel is not None:
                        symbols.imports[local] = ("symbol", rel, alias.name)

    def _note_imported(self, symbols: _ModuleSymbols, rel: str) -> None:
        symbols.imported_modules.add(rel)
        # Importing a submodule executes every ancestor package __init__.
        parts = rel.split("/")[:-1]
        for depth in range(len(parts)):
            init = "/".join(parts[:depth + 1]) + "/__init__.py"
            if self.project.file(init) is not None:
                symbols.imported_modules.add(init)

    # -------------------------------------------------------------- #
    # Symbol resolution
    # -------------------------------------------------------------- #
    def _lookup_symbol(self, relpath: str, name: str,
                       _seen: Optional[Set] = None) -> Optional[Tuple[str, str]]:
        """Resolve ``name`` in ``relpath``'s namespace to ("class"|"function", key).

        Follows one level of re-export chains (``from x import Y`` where x
        itself imported Y) with a cycle guard.
        """
        module = self.modules.get(relpath)
        if module is None:
            return None
        seen = _seen or set()
        if (relpath, name) in seen:
            return None
        seen.add((relpath, name))
        symbols = module.symbols
        if name in symbols.classes:
            return ("class", symbols.classes[name])
        if name in symbols.functions:
            return ("function", symbols.functions[name])
        bound = symbols.imports.get(name)
        if bound is None:
            return None
        if bound[0] == "symbol":
            return self._lookup_symbol(bound[1], bound[2], seen)
        return None

    def resolve_method(self, class_key: str, method: str,
                       _seen: Optional[Set[str]] = None) -> Optional[str]:
        """Function key implementing ``method`` on ``class_key`` (MRO walk)."""
        seen = _seen or set()
        if class_key in seen:
            return None
        seen.add(class_key)
        info = self.classes.get(class_key)
        if info is None:
            return None
        if method in info.methods:
            return info.methods[method]
        for base in info.bases:
            found = self.resolve_method(base, method, seen)
            if found is not None:
                return found
        return None

    def _resolve_class_ref(self, relpath: str, expr: ast.expr) -> Optional[str]:
        """Class key for a base-class / annotation expression, if first-party."""
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            # String annotation: ``server: "InferenceServer"``.
            try:
                expr = ast.parse(expr.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(expr, ast.Subscript):      # Optional[X] / List[X]
            return None
        if isinstance(expr, ast.Name):
            found = self._lookup_symbol(relpath, expr.id)
            if found and found[0] == "class":
                return found[1]
            return None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            module = self.modules.get(relpath)
            if module is None:
                return None
            bound = module.symbols.imports.get(expr.value.id)
            if bound and bound[0] == "module":
                found = self._lookup_symbol(bound[1], expr.attr)
                if found and found[0] == "class":
                    return found[1]
        return None

    def _resolve_class_hierarchy(self, src: SourceFile) -> None:
        for stmt in src.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            info = self.classes[f"{src.relpath}::{stmt.name}"]
            for base in stmt.bases:
                resolved = self._resolve_class_ref(src.relpath, base)
                if resolved is not None:
                    info.bases.append(resolved)

    # -------------------------------------------------------------- #
    # Receiver-type heuristics
    # -------------------------------------------------------------- #
    def _infer_attr_types(self, src: SourceFile) -> None:
        for stmt in src.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            info = self.classes[f"{src.relpath}::{stmt.name}"]
            # Class-level annotations (``server: "InferenceServer"``).
            for member in stmt.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    typed = self._resolve_class_ref(src.relpath, member.annotation)
                    if typed is not None:
                        info.attr_types[member.target.id] = typed
            for member in stmt.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                params = self._annotated_params(src.relpath, member)
                for node in walk_shallow(member):
                    if not isinstance(node, ast.Assign):
                        continue
                    for target in node.targets:
                        attr = self_attr(target)
                        if not attr:
                            continue
                        typed = self._infer_value_type(src.relpath, node.value,
                                                       params, info)
                        if typed is not None:
                            info.attr_types.setdefault(attr, typed)

    def _annotated_params(self, relpath: str,
                          func: ast.AST) -> Dict[str, str]:
        out: Dict[str, str] = {}
        for arg in list(func.args.posonlyargs) + list(func.args.args) + list(
                func.args.kwonlyargs):
            if arg.annotation is not None:
                typed = self._resolve_class_ref(relpath, arg.annotation)
                if typed is not None:
                    out[arg.arg] = typed
        return out

    def _infer_value_type(self, relpath: str, value: ast.expr,
                          params: Dict[str, str],
                          cls: Optional[ClassInfo]) -> Optional[str]:
        """Class key of a value expression: ctor call, typed param, typed attr."""
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                found = self._lookup_symbol(relpath, func.id)
                if found and found[0] == "class":
                    return found[1]
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                module = self.modules.get(relpath)
                bound = module.symbols.imports.get(func.value.id) if module else None
                if bound and bound[0] == "module":
                    found = self._lookup_symbol(bound[1], func.attr)
                    if found and found[0] == "class":
                        return found[1]
            return None
        if isinstance(value, ast.Name):
            return params.get(value.id)
        attr = self_attr(value)
        if attr and cls is not None:
            return cls.attr_types.get(attr)
        if isinstance(value, ast.Attribute):
            base = self._infer_value_type(relpath, value.value, params, cls)
            if base is not None:
                based = self.classes.get(base)
                if based is not None:
                    return based.attr_types.get(value.attr)
        return None

    def infer_type(self, relpath: str, expr: ast.expr,
                   cls_key: Optional[str] = None,
                   local_types: Optional[Dict[str, str]] = None) -> Optional[str]:
        """Heuristic class key of ``expr`` inside (module, class) context."""
        cls = self.classes.get(cls_key) if cls_key else None
        if isinstance(expr, ast.Name) and local_types and expr.id in local_types:
            return local_types[expr.id]
        return self._infer_value_type(relpath, expr, local_types or {}, cls)

    # -------------------------------------------------------------- #
    # Call-edge extraction
    # -------------------------------------------------------------- #
    def _collect_calls(self, src: SourceFile) -> None:
        module_key = f"{src.relpath}::{MODULE_BODY}"

        def walk_function(fn: FunctionInfo, body: Sequence[ast.stmt]) -> None:
            local_types = {}
            if fn.node is not None and isinstance(
                    fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local_types.update(self._annotated_params(src.relpath, fn.node))
            cls = self.classes.get(fn.cls) if fn.cls else None
            for stmt in body:
                if isinstance(stmt, _NESTED_SCOPES):
                    continue  # nested defs are their own entries
                for node in walk_shallow(stmt):
                    if isinstance(node, ast.Assign) and isinstance(
                            node.value, (ast.Call, ast.Name, ast.Attribute)):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                typed = self._infer_value_type(
                                    src.relpath, node.value, local_types, cls)
                                if typed is not None:
                                    local_types[target.id] = typed
                    if isinstance(node, ast.Call):
                        self._record_call(src, fn, node, local_types)

        for key, fn in list(self.functions.items()):
            if fn.relpath != src.relpath:
                continue
            if fn.qualname == MODULE_BODY:
                # Module-level statements, minus def/class bodies.
                body = [s for s in src.tree.body
                        if not isinstance(s, (ast.FunctionDef,
                                              ast.AsyncFunctionDef, ast.ClassDef))]
                walk_function(fn, body)
            elif isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk_function(fn, fn.node.body)
        # Decorator / default / base expressions at class+module level also
        # execute at import time; attribute them to <module>.
        fn = self.functions[module_key]
        for stmt in src.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for deco in stmt.decorator_list:
                    for node in ast.walk(deco):
                        if isinstance(node, ast.Call):
                            self._record_call(src, fn, node, {})

    def _record_call(self, src: SourceFile, fn: FunctionInfo, node: ast.Call,
                     local_types: Dict[str, str]) -> None:
        if id(node) in self._by_node:
            return
        callee, instantiates = self._resolve_call(src.relpath, fn, node,
                                                  local_types)
        site = CallSite(caller=fn.key, node=node, name=_call_name(node.func),
                        callee=callee, instantiates=instantiates)
        self._calls.setdefault(fn.key, []).append(site)
        self._by_node[id(node)] = site
        if callee is None and instantiates is None:
            self.unresolved.append(site)

    def _resolve_call(self, relpath: str, fn: FunctionInfo, node: ast.Call,
                      local_types: Dict[str, str]
                      ) -> Tuple[Optional[str], Optional[str]]:
        func = node.func
        cls = self.classes.get(fn.cls) if fn.cls else None
        # plain name: local function / class ctor / imported symbol
        if isinstance(func, ast.Name):
            found = self._lookup_symbol(relpath, func.id)
            if found is None:
                return None, None
            kind, key = found
            if kind == "function":
                return key, None
            init = self.resolve_method(key, "__init__")
            return init, key
        if not isinstance(func, ast.Attribute):
            return None, None
        # self.method(...)
        if isinstance(func.value, ast.Name) and func.value.id == "self" and cls:
            method = self.resolve_method(cls.key, func.attr)
            return method, None
        # module.func(...) / module.Class(...)
        if isinstance(func.value, ast.Name):
            module = self.modules.get(relpath)
            bound = (module.symbols.imports.get(func.value.id)
                     if module else None)
            if bound and bound[0] == "module":
                found = self._lookup_symbol(bound[1], func.attr)
                if found is None:
                    return None, None
                kind, key = found
                if kind == "function":
                    return key, None
                init = self.resolve_method(key, "__init__")
                return init, key
        # typed receiver: local var / self.attr / chained attrs
        receiver = self.infer_type(relpath, func.value,
                                   cls.key if cls else None, local_types)
        if receiver is not None:
            method = self.resolve_method(receiver, func.attr)
            return method, None
        return None, None

    # -------------------------------------------------------------- #
    # Queries
    # -------------------------------------------------------------- #
    def resolve(self, node: ast.Call) -> Optional[str]:
        """Resolved callee key for a call node seen during the build."""
        site = self._by_node.get(id(node))
        return site.callee if site is not None else None

    def site(self, node: ast.Call) -> Optional[CallSite]:
        return self._by_node.get(id(node))

    def calls_in(self, function_key: str) -> List[CallSite]:
        return self._calls.get(function_key, [])

    def function(self, key: str) -> Optional[FunctionInfo]:
        return self.functions.get(key)

    def iter_functions(self, *prefixes: str) -> Iterator[FunctionInfo]:
        """Defined functions/methods (no module bodies), optionally by prefix."""
        for fn in self.functions.values():
            if fn.qualname == MODULE_BODY:
                continue
            if not prefixes or any(fn.relpath.startswith(p) for p in prefixes):
                yield fn

    def display(self, key: str) -> str:
        """Human-readable ``Class.method()`` / ``func()`` form of a key."""
        fn = self.functions.get(key)
        if fn is None:
            return key
        return f"{fn.qualname}()"


def self_attr(node: ast.expr) -> str:
    """``X`` when node is ``self.X``, else empty string."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return ""
