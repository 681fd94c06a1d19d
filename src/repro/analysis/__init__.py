"""Static analysis for repo-wide invariants (``sptransx check``).

See :mod:`repro.analysis.core` for the framework,
:mod:`repro.analysis.callgraph` / :mod:`repro.analysis.dataflow` for the
interprocedural engine (project call graph + per-function forward
dataflow), and :mod:`repro.analysis.checkers` for the shipped rules:

==================  =====================================================
rule id             invariant
==================  =====================================================
dtype-ctor          hot-path numpy constructors name their dtype
dtype-promotion     no builtin-float dtypes / fp64-forcing literals
fork-taint          no lock, sqlite connection, atexit handler or started
                    thread in what os.fork() duplicates into workers,
                    with the import/call chain (interprocedural)
lock-state          no lock-free call path from a thread entry point,
                    callback or closure to a write of Lock-guarded
                    state (interprocedural)
resource-lifecycle  acquired handles (open/sqlite/mmap) close on every
                    path, or escape to an owner (interprocedural)
kernel-parity       every backend/kernel has a tests/sparse/ parity test,
                    every ranking.py kernel a tests/test_ranking.py one
registry-model      every concrete model carries @register_model
registry-roundtrip  spec dataclass fields survive to_dict/from_dict
ann-recall          every registered ANN index kind has a tests/ann/ test
suppression-unused  every ``# repro: ignore`` still suppresses something
unreachable-public  every public top-level name, and every public method
                    of a public top-level class, is referred to by code
                    in src/, benchmarks/ or examples/ (comments,
                    docstrings, tests, re-exports and __all__ lists do
                    not count)
==================  =====================================================

Suppress per line with ``# repro: ignore[rule-id]`` or per file with
``# repro: ignore-file[rule-id]``.
"""

from repro.analysis.callgraph import CallGraph, CallSite, walk_shallow
from repro.analysis.core import (
    Checker,
    Finding,
    Project,
    SourceFile,
    changed_files,
    iter_checkers,
    iter_rules,
    register_checker,
    run_checks,
)
from repro.analysis.dataflow import (
    CFG,
    CFGNode,
    ForwardAnalysis,
    Transfer,
    build_cfg,
)
from repro.analysis.reporters import render_github, render_json, render_text

__all__ = [
    "CFG",
    "CFGNode",
    "CallGraph",
    "CallSite",
    "Checker",
    "Finding",
    "ForwardAnalysis",
    "Project",
    "SourceFile",
    "Transfer",
    "build_cfg",
    "changed_files",
    "iter_checkers",
    "iter_rules",
    "register_checker",
    "render_github",
    "render_json",
    "render_text",
    "run_checks",
    "walk_shallow",
]
