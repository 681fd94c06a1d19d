"""dtype-preservation checker.

PR 6 established the contract that the kernel layer, ranking tiles, and
loss paths preserve the caller's floating dtype — a float32 model must
never silently widen to float64 mid-pipeline.  Two rule ids enforce the
static side of that contract inside the hot-path modules (``sparse/``,
``nn/``, ``losses/``, ``evaluation/``, ``ann/``, ``optim/`` — whose blocked
updates allocate scratch next to fp32 tables — ``ranking.py``, whose
table walk mixes fp32 tiles with fp64 keys, ``data/synthetic.py``,
``data/known.py``, whose index arrays feed the rank kernel, and
``models/base.py``, which sizes that walk's blocks):

* ``dtype-ctor`` — ``np.zeros/empty/ones/full/arange`` without an explicit
  ``dtype=``.  Bare constructors default to float64 (int64 for arange),
  which either widens a float32 pipeline or relies on a platform default.
* ``dtype-promotion`` — constructs that force float64 promotion: passing
  the *builtin* ``float``/``int`` where a dtype is expected
  (``astype(float)``, ``dtype=float``) and ``np.array``/``np.asarray`` of
  float-literal lists without a ``dtype=``.

Intentional float64 sites (metric accumulators, rank vectors) carry a
``# repro: ignore[dtype-ctor]`` suppression so the intent is visible at
the call site.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.core import Checker, Finding, Project, SourceFile, register_checker

#: Constructors whose dtype defaults are a promotion hazard, mapped to the
#: positional index at which ``dtype`` may be passed without a keyword.
_CTOR_DTYPE_POS = {
    "zeros": 1,
    "empty": 1,
    "ones": 1,
    "full": 2,
    "arange": 3,
}

_NUMPY_NAMES = {"np", "numpy"}

_SCOPES = ("sparse/", "nn/", "losses/", "evaluation/", "ann/", "optim/")
_SCOPE_FILES = ("ranking.py", "data/synthetic.py", "data/known.py", "models/base.py")


def _is_numpy_attr(func: ast.expr, names: Iterable[str]) -> bool:
    return (
        isinstance(func, ast.Attribute)
        and func.attr in names
        and isinstance(func.value, ast.Name)
        and func.value.id in _NUMPY_NAMES
    )


def _has_dtype(call: ast.Call, positional_index: int) -> bool:
    if any(kw.arg == "dtype" for kw in call.keywords):
        return True
    return len(call.args) > positional_index


def _is_builtin_float_dtype(node: ast.expr) -> bool:
    """``float``/``int``/``"float"`` passed where a dtype is expected."""
    if isinstance(node, ast.Name) and node.id in {"float", "int"}:
        return True
    return isinstance(node, ast.Constant) and node.value in {"float", "int"}


def _literal_contains_float(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Tuple)):
        return any(_literal_contains_float(e) for e in node.elts)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _literal_contains_float(node.operand)
    return False


class _DtypeVisitor(ast.NodeVisitor):
    def __init__(self, source: SourceFile):
        self.source = source
        self.findings: List[Finding] = []

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if _is_numpy_attr(func, _CTOR_DTYPE_POS):
            ctor = func.attr  # type: ignore[union-attr]
            if not _has_dtype(node, _CTOR_DTYPE_POS[ctor]):
                self.findings.append(
                    self.source.finding(
                        "dtype-ctor",
                        node,
                        f"np.{ctor}(...) without an explicit dtype= defaults to "
                        f"{'int64' if ctor == 'arange' else 'float64'}; "
                        "name the dtype so hot-path precision is deliberate",
                    )
                )
            else:
                self._check_dtype_value(node)
        elif isinstance(func, ast.Attribute) and func.attr == "astype":
            if node.args and _is_builtin_float_dtype(node.args[0]):
                self.findings.append(
                    self.source.finding(
                        "dtype-promotion",
                        node,
                        "astype(float) promotes to float64 via the Python "
                        "builtin; spell the numpy dtype explicitly "
                        "(np.float64 if widening is intended)",
                    )
                )
        elif _is_numpy_attr(func, {"array", "asarray", "full_like", "asanyarray"}):
            self._check_dtype_value(node)
            if not _has_dtype(node, positional_index=10**6):
                if node.args and _literal_contains_float(node.args[0]):
                    self.findings.append(
                        self.source.finding(
                            "dtype-promotion",
                            node,
                            "float literals without dtype= build a float64 "
                            "array; pass dtype= to keep the pipeline's "
                            "precision",
                        )
                    )
        self.generic_visit(node)

    def _check_dtype_value(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg == "dtype" and _is_builtin_float_dtype(kw.value):
                self.findings.append(
                    self.source.finding(
                        "dtype-promotion",
                        node,
                        "dtype=float is the Python builtin (always float64); "
                        "use an explicit numpy dtype",
                    )
                )


@register_checker
class DtypePreservationChecker(Checker):
    name = "dtype"
    rule_ids = ("dtype-ctor", "dtype-promotion")
    description = (
        "hot-path numpy constructors and casts must name their dtype so "
        "float32 pipelines never silently widen to float64"
    )

    def interesting(self, relpath: str) -> bool:
        return relpath in _SCOPE_FILES or any(
            relpath.startswith(p) for p in _SCOPES
        )

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        visitor = _DtypeVisitor(source)
        visitor.visit(source.tree)
        return visitor.findings
