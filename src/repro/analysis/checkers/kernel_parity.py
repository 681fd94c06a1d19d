"""kernel-parity coverage checker.

Every SpMM backend ships with a parity test (a kernel is only trustworthy
because ``tests/sparse/`` asserts equality against the reference), and every
public kernel in ``sparse/kernels.py`` is exercised by name.  The ranking
kernels in ``ranking.py`` are held to the same rule against
``tests/test_ranking.py``, where their textbook oracle lives.  This rule
makes that *coverage* machine-checked: adding ``register_backend("mynew",
...)`` without a ``tests/sparse/`` test containing the string ``"mynew"`` —
or a public kernel function no test names — fails ``sptransx check`` before
a reviewer ever has to remember the convention.

* ``kernel-parity`` findings point at the registration / ``def`` line of
  the uncovered backend or kernel.
* Backends count as covered when their registry name appears as a string
  literal in any ``tests/sparse/*.py``; kernels when their function name
  appears as a bare word in their test file(s).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Tuple

from repro.analysis.core import Checker, Finding, Project, register_checker

_BACKENDS_FILE = "sparse/backends.py"
_TESTS_PREFIX = "tests/sparse/"
#: Kernel module -> where its parity tests live (a directory prefix or a file).
_KERNEL_TESTS = {
    "sparse/kernels.py": _TESTS_PREFIX,
    "ranking.py": "tests/test_ranking.py",
}


def _registered_backends(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    out: List[Tuple[str, ast.AST]] = []
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Name)
            and stmt.value.func.id == "register_backend"
            and stmt.value.args
            and isinstance(stmt.value.args[0], ast.Constant)
            and isinstance(stmt.value.args[0].value, str)
        ):
            out.append((stmt.value.args[0].value, stmt))
    return out


def _public_kernels(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    return [
        (stmt.name, stmt)
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
    ]


@register_checker
class KernelParityChecker(Checker):
    name = "kernel-parity"
    rule_ids = ("kernel-parity",)
    description = (
        "every registered SpMM backend and public sparse/kernels.py function "
        "must be named by a parity test under tests/sparse/, every public "
        "ranking.py function by tests/test_ranking.py"
    )
    trigger_prefixes = ("sparse/", "ranking.py", *_KERNEL_TESTS.values())

    def check_project(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []

        def corpus_under(prefix: str) -> str:
            return "\n".join(t.text for t in project.test_files
                             if t.relpath.startswith(prefix))

        backend_corpus = corpus_under(_TESTS_PREFIX)

        backends_src = project.file(_BACKENDS_FILE)
        if backends_src is not None:
            for name, node in _registered_backends(backends_src.tree):
                if (f'"{name}"' not in backend_corpus
                        and f"'{name}'" not in backend_corpus):
                    findings.append(
                        backends_src.finding(
                            "kernel-parity",
                            node,
                            f'backend "{name}" is registered but no '
                            f"tests/sparse/ test names it; add a bit-identical "
                            "parity test against the reference backend",
                        )
                    )

        for kernels_file, tests_prefix in _KERNEL_TESTS.items():
            kernels_src = project.file(kernels_file)
            if kernels_src is None:
                continue
            corpus = corpus_under(tests_prefix)
            for name, node in _public_kernels(kernels_src.tree):
                if not re.search(rf"\b{re.escape(name)}\b", corpus):
                    findings.append(
                        kernels_src.finding(
                            "kernel-parity",
                            node,
                            f"public kernel {name}() has no {tests_prefix} "
                            "test naming it; fused kernels are only safe "
                            "with an exact-parity test",
                        )
                    )
        return findings
