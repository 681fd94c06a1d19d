"""Per-function forward dataflow for ``sptransx check`` rules.

A deliberately small abstract-interpretation layer: each function body is
lowered to a statement-level control-flow graph (``with``/``try``-aware,
path-insensitive), and a checker supplies a :class:`Transfer` — the lattice
(``initial``/``join``/``equals``) plus a per-node ``transfer`` function.
:class:`ForwardAnalysis` then runs the standard worklist algorithm to a
fixpoint and exposes the state flowing into every node, most usefully the
state at the function's normal exits (where the resource-lifecycle rule
asks "is anything still open?").

CFG shape notes — tuned for what the rules need, not for completeness:

* ``with`` statements produce explicit ``with-enter``/``with-exit`` nodes
  per item, so a transfer function can model guaranteed release.
* every statement inside a ``try`` body gets an edge to each handler's
  catch node (an exception can surface anywhere in the body).
* ``return`` / ``break`` / ``continue`` route through *copies* of the
  enclosing ``finally`` bodies before reaching their target, so a
  ``finally: handle.close()`` is visible on the early-return path without
  merging it into the fall-through path.
* explicit ``raise`` flows to a separate ``raise-exit``; implicit
  exception exits are not modelled (treating every call as may-raise would
  drown the rules in impossible leak paths).
"""

from __future__ import annotations

import ast
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = ["CFG", "CFGNode", "Transfer", "ForwardAnalysis", "build_cfg"]


class CFGNode:
    """One CFG node: a simple statement or a structural pseudo-op."""

    __slots__ = ("kind", "stmt", "item", "succs", "index")

    def __init__(self, kind: str, stmt: Optional[ast.AST] = None,
                 item: Optional[ast.withitem] = None, index: int = 0):
        self.kind = kind          # entry|exit|raise-exit|stmt|loop-test|
        self.stmt = stmt          # with-enter|with-exit|catch
        self.item = item
        self.succs: List["CFGNode"] = []
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        line = getattr(self.stmt, "lineno", "?")
        return f"<CFGNode {self.kind}@{line} ->{len(self.succs)}>"


class CFG:
    """Control-flow graph of one function body."""

    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self.entry = self._new("entry")
        self.exit = self._new("exit")
        self.raise_exit = self._new("raise-exit")

    def _new(self, kind: str, stmt: Optional[ast.AST] = None,
             item: Optional[ast.withitem] = None) -> CFGNode:
        node = CFGNode(kind, stmt, item, index=len(self.nodes))
        self.nodes.append(node)
        return node


class _Loop:
    __slots__ = ("test", "breaks", "finally_depth")

    def __init__(self, test: CFGNode, finally_depth: int):
        self.test = test
        self.breaks: List[CFGNode] = []
        self.finally_depth = finally_depth


class _Finally:
    __slots__ = ("stmts",)

    def __init__(self, stmts: Sequence[ast.stmt]):
        self.stmts = stmts


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self._loops: List[_Loop] = []
        self._finallys: List[_Finally] = []

    # ---- plumbing --------------------------------------------------- #
    def _node(self, kind: str, stmt: Optional[ast.AST],
              frontier: List[CFGNode],
              item: Optional[ast.withitem] = None) -> CFGNode:
        node = self.cfg._new(kind, stmt, item)
        for prev in frontier:
            prev.succs.append(node)
        return node

    def _seq(self, stmts: Sequence[ast.stmt],
             frontier: List[CFGNode]) -> List[CFGNode]:
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _through_finallys(self, frontier: List[CFGNode],
                          down_to: int = 0) -> List[CFGNode]:
        """Route ``frontier`` through copies of enclosing finally bodies."""
        saved = self._finallys
        for depth in range(len(saved) - 1, down_to - 1, -1):
            self._finallys = saved[:depth]
            frontier = self._seq(saved[depth].stmts, frontier)
        self._finallys = saved
        return frontier

    # ---- statement lowering ----------------------------------------- #
    def _stmt(self, stmt: ast.stmt, frontier: List[CFGNode]) -> List[CFGNode]:
        if not frontier:
            return []  # unreachable code after return/raise/break
        if isinstance(stmt, ast.Return):
            node = self._node("stmt", stmt, frontier)
            ends = self._through_finallys([node])
            for end in ends:
                end.succs.append(self.cfg.exit)
            return []
        if isinstance(stmt, ast.Raise):
            node = self._node("stmt", stmt, frontier)
            ends = self._through_finallys([node])
            for end in ends:
                end.succs.append(self.cfg.raise_exit)
            return []
        if isinstance(stmt, (ast.Break, ast.Continue)):
            node = self._node("stmt", stmt, frontier)
            if self._loops:
                loop = self._loops[-1]
                ends = self._through_finallys([node],
                                              down_to=loop.finally_depth)
                if isinstance(stmt, ast.Break):
                    loop.breaks.extend(ends)
                else:
                    for end in ends:
                        end.succs.append(loop.test)
            return []
        if isinstance(stmt, ast.If):
            test = self._node("stmt", stmt, frontier)
            then_out = self._seq(stmt.body, [test])
            else_out = self._seq(stmt.orelse, [test]) if stmt.orelse else [test]
            return then_out + else_out
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            test = self._node("loop-test", stmt, frontier)
            self._loops.append(_Loop(test, len(self._finallys)))
            body_out = self._seq(stmt.body, [test])
            for end in body_out:
                end.succs.append(test)
            loop = self._loops.pop()
            else_out = (self._seq(stmt.orelse, [test])
                        if stmt.orelse else [test])
            return else_out + loop.breaks
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                frontier = [self._node("with-enter", stmt, frontier, item=item)]
            frontier = self._seq(stmt.body, frontier)
            for item in reversed(stmt.items):
                if not frontier:
                    break
                frontier = [self._node("with-exit", stmt, frontier, item=item)]
            return frontier
        if isinstance(stmt, ast.Try):
            has_finally = bool(stmt.finalbody)
            if has_finally:
                self._finallys.append(_Finally(stmt.finalbody))
            before = len(self.cfg.nodes)
            body_out = self._seq(stmt.body, frontier)
            body_nodes = self.cfg.nodes[before:]
            handler_outs: List[CFGNode] = []
            for handler in stmt.handlers:
                catch_sources = body_nodes if body_nodes else list(frontier)
                catch = self._node("catch", handler, catch_sources)
                handler_outs.extend(self._seq(handler.body, [catch]))
            else_out = (self._seq(stmt.orelse, body_out)
                        if stmt.orelse else body_out)
            merged = else_out + handler_outs
            if has_finally:
                self._finallys.pop()
                merged = self._seq(stmt.finalbody, merged)
            return merged
        # Simple statement (Assign, Expr, Delete, Assert, nested def, ...).
        return [self._node("stmt", stmt, frontier)]

    def build(self, body: Sequence[ast.stmt]) -> CFG:
        frontier = self._seq(body, [self.cfg.entry])
        for end in frontier:
            end.succs.append(self.cfg.exit)
        return self.cfg


def build_cfg(func: ast.AST) -> CFG:
    """CFG of a ``FunctionDef``/``AsyncFunctionDef`` body."""
    return _Builder().build(func.body)


class Transfer:
    """The analysis a checker plugs into :class:`ForwardAnalysis`.

    States must form a finite-height lattice under :meth:`join` or the
    worklist will not terminate; the default implementations treat states
    as plain dicts compared with ``==``.
    """

    def initial(self) -> Any:
        return {}

    def copy(self, state: Any) -> Any:
        return dict(state)

    def join(self, a: Any, b: Any) -> Any:  # pragma: no cover - abstract
        raise NotImplementedError

    def equals(self, a: Any, b: Any) -> bool:
        return a == b

    def transfer(self, node: CFGNode, state: Any) -> Any:  # pragma: no cover
        raise NotImplementedError


class ForwardAnalysis:
    """Worklist forward dataflow over one CFG with a :class:`Transfer`."""

    def __init__(self, cfg: CFG, transfer: Transfer):
        self.cfg = cfg
        self.transfer = transfer
        self._in: Dict[int, Any] = {}
        self._out: Dict[int, Any] = {}

    def run(self) -> "ForwardAnalysis":
        tf = self.transfer
        self._in[self.cfg.entry.index] = tf.initial()
        worklist = [self.cfg.entry]
        # Finite-lattice states converge quickly; the guard only protects
        # against a checker-supplied transfer that is not monotone.
        budget = max(64, len(self.cfg.nodes)) * 64
        while worklist and budget > 0:
            budget -= 1
            node = worklist.pop(0)
            state_in = self._in.get(node.index)
            if state_in is None:
                continue
            state_out = tf.transfer(node, tf.copy(state_in))
            previous = self._out.get(node.index)
            if previous is not None and tf.equals(previous, state_out):
                continue
            self._out[node.index] = state_out
            for succ in node.succs:
                merged = (tf.copy(state_out)
                          if succ.index not in self._in
                          else tf.join(self._in[succ.index],
                                       tf.copy(state_out)))
                if (succ.index not in self._in
                        or not tf.equals(self._in[succ.index], merged)):
                    self._in[succ.index] = merged
                    if succ not in worklist:
                        worklist.append(succ)
        return self

    def state_in(self, node: CFGNode) -> Optional[Any]:
        return self._in.get(node.index)

    def exit_state(self) -> Optional[Any]:
        """Joined state over every normal (non-raise) path out of the function."""
        return self._in.get(self.cfg.exit.index)
