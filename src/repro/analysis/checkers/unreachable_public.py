"""unreachable-public checker.

A public function, class or method that nothing in the program, the
benchmarks or the examples refers to is carried, not used: no spec field,
CLI flag or harness can reach it, and only its own tests keep it alive.
This rule reports every such name so an orphan is deleted (or deliberately
kept with a visible suppression) instead of accumulating.

* ``unreachable-public`` findings point at the ``def``/``class`` line of a
  public top-level name in a non-``__init__`` module under ``src/repro``,
  or of a public method or property of a public top-level class.
* A name counts as reached when code refers to it outside its own
  definition, in the package sources, ``benchmarks/`` or ``examples/``: a
  ``Name``, an ``Attribute``, an import alias, or a string constant equal
  to the name (``getattr(obj, "name")``).  Comments and docstrings are
  prose, not references.  ``__init__.py`` files and ``__all__`` lists do
  not count: a re-export is not a use.  Tests do not count either.
* A name registered by a ``register_*`` decorator is reached through its
  registry and is exempt; its methods are not.

Matching is by name, not by type, so the rule is conservative: one
``x.close()`` anywhere keeps every public ``close`` method alive.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    SourceFile,
    register_checker,
)

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_init(src: SourceFile) -> bool:
    return src.relpath.rsplit("/", 1)[-1] == "__init__.py"


def _registered(node: ast.AST) -> bool:
    """Does a ``register_*`` decorator (bare or called) register ``node``?"""
    for deco in getattr(node, "decorator_list", ()):
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = (target.id if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute) else "")
        if name.startswith("register_"):
            return True
    return False


def _public(body: List[ast.stmt], kinds=_DEFS) -> Iterator[ast.AST]:
    for stmt in body:
        if isinstance(stmt, kinds) and not stmt.name.startswith("_"):
            yield stmt


def _is_all(stmt: ast.stmt) -> bool:
    """Is ``stmt`` a module-level assignment to ``__all__``?"""
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign))
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _prose(tree: ast.AST) -> Set[int]:
    """``id()`` of every string that is a statement of its own: docstrings
    and other bare string literals, which document rather than refer."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


def _references(node: ast.AST, prose: Set[int]) -> Iterator[str]:
    """Every name that code under ``node`` refers to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")
            if sub.asname:
                yield sub.asname
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in prose):
            yield sub.value


def _module_references(tree: ast.Module) -> Counter:
    prose = _prose(tree)
    return Counter(
        name
        for stmt in tree.body
        if not _is_all(stmt)
        for name in _references(stmt, prose)
    )


@register_checker
class UnreachablePublicChecker(Checker):
    name = "unreachable-public"
    rule_ids = ("unreachable-public",)
    description = (
        "every public top-level def/class under src/repro, and every public "
        "method of a public top-level class, is referred to by code "
        "(a Name, an Attribute, an import or an equal string) in src/, "
        "benchmarks/ or examples/ outside its own definition; comments, "
        "docstrings, __init__ re-exports, __all__ lists and tests do not count"
    )
    # Removing a reference anywhere can orphan a name, so diff mode always
    # re-evaluates.
    trigger_prefixes = ("",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        modules = [src for src in project.files if not _is_init(src)]
        references: Counter = Counter()
        for src in modules + project.reference_files:
            references.update(_module_references(src.tree))

        findings: List[Finding] = []
        for src in modules:
            prose = _prose(src.tree)
            for node, owner, body in self._definitions(src.tree):
                if owner is None and _registered(node):
                    continue
                # A property's setter, or any redefinition in the same body,
                # is part of the definition, not a use of it.
                own = sum(1 for sib in body
                          if isinstance(sib, _DEFS) and sib.name == node.name
                          for name in _references(sib, prose) if name == node.name)
                if references[node.name] > own:
                    continue
                findings.append(src.finding(
                    "unreachable-public", node, self._message(node, owner)))
        return findings

    @staticmethod
    def _definitions(tree: ast.Module
                     ) -> Iterator[Tuple[ast.AST, Optional[ast.ClassDef], list]]:
        """``(node, owner, body)``: public top-level defs (owner ``None``) and
        the public methods of public top-level classes (owner the class),
        with the statement list each is defined in."""
        for node in _public(tree.body):
            yield node, None, tree.body
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield method, node, node.body

    @staticmethod
    def _message(node: ast.AST, owner: Optional[ast.ClassDef]) -> str:
        if owner is not None:
            what = f"method {owner.name}.{node.name}"
        elif isinstance(node, ast.ClassDef):
            what = f"class {node.name}"
        else:
            what = f"function {node.name}"
        return (
            f"public {what} is referred to nowhere in src/, benchmarks/ or "
            "examples/ outside its own definition; delete it, or mark "
            "deliberate API with `# repro: ignore[unreachable-public]`"
        )
