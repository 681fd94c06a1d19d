"""unreachable-public checker.

A public top-level function or class that nothing in the program, the
benchmarks or the examples names is carried, not used: no spec field, CLI
flag or harness can reach it, and only its own tests keep it alive.  This
rule reports every such name so an orphan is deleted (or deliberately kept
with a visible suppression) instead of accumulating.

* ``unreachable-public`` findings point at the ``def``/``class`` line of a
  public top-level name in a non-``__init__`` module under ``src/repro``.
* A name counts as reached when it appears as an identifier token anywhere
  in the package sources, ``benchmarks/`` or ``examples/`` outside its own
  definition.  ``__init__.py`` files and ``__all__`` lists do not count: a
  re-export is not a use.  Tests do not count either.
* Names registered by a ``register_*`` decorator are reached through their
  registry and are exempt.

Like ``kernel-parity`` the match is textual (identifier tokens, strings and
comments included), so the rule is conservative: it never reports a name
that some source line spells out.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from typing import Iterable, Iterator, List, Set, Tuple

from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    SourceFile,
    register_checker,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def _public_defs(tree: ast.Module) -> Iterator[ast.AST]:
    for stmt in tree.body:
        if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")):
            yield stmt


def _all_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    """Line spans of module-level ``__all__`` assignments."""
    spans: List[Tuple[int, int]] = []
    for stmt in tree.body:
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign))
                   else [])
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            spans.append((stmt.lineno, stmt.end_lineno or stmt.lineno))
    return spans


def _span(node: ast.AST) -> Tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno or node.lineno


def _tokens(lines: List[str], spans: Iterable[Tuple[int, int]] = ()) -> Counter:
    """Identifier-token counts of ``lines``, skipping the 1-based ``spans``."""
    skipped: Set[int] = set()
    for first, last in spans:
        skipped.update(range(first, last + 1))
    return Counter(
        tok
        for lineno, line in enumerate(lines, start=1)
        if lineno not in skipped
        for tok in _IDENT_RE.findall(line)
    )


@register_checker
class UnreachablePublicChecker(Checker):
    name = "unreachable-public"
    rule_ids = ("unreachable-public",)
    description = (
        "every public top-level def/class under src/repro must be named "
        "somewhere in src/, benchmarks/ or examples/ outside its own "
        "definition, __init__ re-exports and __all__ lists"
    )
    # Removing a reference anywhere can orphan a name, so diff mode always
    # re-evaluates.
    trigger_prefixes = ("",)

    def check_project(self, project: Project) -> Iterable[Finding]:
        modules = [src for src in project.files if not _is_init(src)]
        references: Counter = Counter()
        for src in modules:
            references.update(_tokens(src.text.splitlines(), _all_spans(src.tree)))
        for src in project.reference_files:
            references.update(_tokens(src.text.splitlines()))

        findings: List[Finding] = []
        for src in modules:
            lines = src.text.splitlines()
            for node in _public_defs(src.tree):
                if _registered(node):
                    continue
                first, last = _span(node)
                own = _tokens(lines[first - 1:last])[node.name]
                if references[node.name] > own:
                    continue
                kind = "class" if isinstance(node, ast.ClassDef) else "function"
                findings.append(src.finding(
                    "unreachable-public",
                    node,
                    f"public {kind} {node.name} is named nowhere in src/, "
                    "benchmarks/ or examples/ outside its own definition; "
                    "delete it, or mark deliberate API with "
                    "`# repro: ignore[unreachable-public]`",
                ))
        return findings
