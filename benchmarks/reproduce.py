"""The one reproduction runner: every claim of the paper, measured and judged.

    PYTHONPATH=src python -m benchmarks.reproduce [--only fig7,table8]
                                                  [--scale toy|default|<float>] [--out DIR]

Runs the selected :class:`~benchmarks.common.Case` definitions and writes
``REPRODUCTION.json`` (per case: rows, verdict ``holds`` / ``does_not_hold``,
detail, seconds; plus scale, seeds, environment) and ``REPRODUCTION.md``, the
table of *claim / our number / holds?* rendered from it.  The copies at the
repo root are the default-scale run; a claim that does not hold there is
reported as such, never tuned away.  When ``--out`` already holds a report at
the same scale and seeds, ``--only`` replaces just the named cases in it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy

from benchmarks import accuracy_cases, model_cases, timing_cases
from benchmarks.common import Case

CASES: Dict[str, Case] = {
    case.name: case
    for case in sorted(timing_cases.CASES + model_cases.CASES + accuracy_cases.CASES,
                       key=lambda case: (case.paper_ref == "", case.name))
}
#: Multiplier on every case's default workload.
SCALES = {"toy": 0.1, "default": 1.0}
#: Accuracy cases average over all of these; the others build from the first.
SEEDS = (0, 1, 2)
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README_BEGIN = "<!-- reproduction-table:begin -->"
README_END = "<!-- reproduction-table:end -->"


def _rounded(value):
    """Six significant digits: enough to read, and diffs stay small."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def run_cases(names: Sequence[str], scale: float, seeds: Sequence[int]) -> dict:
    """Run the named cases and return the report ``REPRODUCTION.json`` holds."""
    report = {
        "scale": scale,
        "seeds": list(seeds),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "cases": [],
    }
    for name in names:
        case = CASES[name]
        start = time.perf_counter()
        rows = case.run(scale, seeds)
        seconds = time.perf_counter() - start
        ok, detail = case.holds(rows)
        report["cases"].append(_rounded({
            "name": case.name,
            "paper_ref": case.paper_ref,
            "repo_ref": case.repo_ref,
            "claim": case.claim,
            "deterministic": case.deterministic,
            "columns": list(case.columns),
            "rows": rows,
            "verdict": "holds" if ok else "does_not_hold",
            "detail": detail,
            "seconds": seconds,
        }))
    return report


def merge_into_existing(report: dict, out_dir: str) -> dict:
    """``report`` plus the cases it did not run, from the report in ``out_dir``.

    Only a report at the same scale and seeds is merged, and cases keep the
    :data:`CASES` order; otherwise ``report`` is returned as it is.
    """
    path = os.path.join(out_dir, "REPRODUCTION.json")
    if not os.path.exists(path):
        return report
    with open(path, encoding="utf-8") as handle:
        previous = json.load(handle)
    if (previous["scale"], previous["seeds"]) != (report["scale"], report["seeds"]):
        return report
    by_name = {case["name"]: case for case in previous["cases"] + report["cases"]}
    return {**report, "cases": [by_name[name] for name in CASES if name in by_name]}


def render_table(report: dict) -> str:
    """The *claim / our number / holds?* table, one row per case."""
    def cell(text: str) -> str:
        return text.replace("|", "\\|").replace("\n", " ")

    lines = ["| case | source | claim | our number | holds? |",
             "|---|---|---|---|---|"]
    for case in report["cases"]:
        verdict = "yes" if case["verdict"] == "holds" else "**no**"
        lines.append(f"| `{case['name']}` | {cell(case['paper_ref'] or case['repo_ref'])} "
                     f"| {cell(case['claim'])} | {cell(case['detail'])} | {verdict} |")
    return "\n".join(lines)


def render_markdown(report: dict) -> str:
    """``REPRODUCTION.md``: generated from the report, never edited by hand."""
    env = report["environment"]
    failing = [c["name"] for c in report["cases"] if c["verdict"] != "holds"]
    seconds = sum(c["seconds"] for c in report["cases"])
    return "\n".join([
        "# Reproduction report",
        "",
        "Generated by `python -m benchmarks.reproduce` from `REPRODUCTION.json`; do not edit.",
        "",
        f"Scale {report['scale']:g} (1 = default), seeds {report['seeds']}, "
        f"{seconds:.0f} s on {env['cpus']} {env['machine']} CPUs, Python {env['python']}, "
        f"NumPy {env['numpy']}, SciPy {env['scipy']}. Timing cases interleave the two sides "
        "after one warm-up each; `table1`, `fig7` and `fig8` read one shared measurement. "
        "Rows behind each number are in the JSON.",
        "",
        render_table(report),
        "",
        (f"{len(failing)} of {len(report['cases'])} claims do not hold at this scale: "
         + ", ".join(f"`{name}`" for name in failing) + "."
         if failing else f"All {len(report['cases'])} claims hold at this scale."),
        "",
    ])


def render_readme(readme: str, report: dict) -> str:
    """``readme`` with the table between the ``reproduction-table`` markers replaced."""
    head, rest = readme.split(README_BEGIN, 1)
    _, tail = rest.split(README_END, 1)
    return f"{head}{README_BEGIN}\n{render_table(report)}\n{README_END}{tail}"


def write_report(report: dict, out_dir: str) -> None:
    """Write the JSON, the Markdown, and — next to a README that quotes it — its table."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "REPRODUCTION.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    with open(os.path.join(out_dir, "REPRODUCTION.md"), "w", encoding="utf-8") as handle:
        handle.write(render_markdown(report))
    readme_path = os.path.join(out_dir, "README.md")
    if os.path.exists(readme_path):
        with open(readme_path, encoding="utf-8") as handle:
            readme = handle.read()
        with open(readme_path, "w", encoding="utf-8") as handle:
            handle.write(render_readme(readme, report))


def parse_scale(text: str) -> float:
    """``toy`` / ``default`` / a positive float (argparse reports a ValueError)."""
    scale = SCALES[text] if text in SCALES else float(text)
    if not scale > 0:
        raise ValueError(text)
    return scale


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the paper's claims and write REPRODUCTION.json / .md.")
    parser.add_argument("--only", default=",".join(CASES),
                        help="comma-separated case names (default: all of %(default)s)")
    parser.add_argument("--scale", type=parse_scale, default=SCALES["default"],
                        help="toy, default, or a positive multiplier on every case's "
                             "default workload")
    parser.add_argument("--out", default=REPO_ROOT,
                        help="directory for REPRODUCTION.json and REPRODUCTION.md "
                             "(default: the repo root, i.e. the checked-in copies)")
    args = parser.parse_args(argv)
    names = [name for name in args.only.split(",") if name]
    unknown = [name for name in names if name not in CASES]
    if unknown:
        parser.error(f"unknown case(s) {', '.join(unknown)}; choose from {', '.join(CASES)}")
    report = run_cases(names, args.scale, SEEDS if args.scale >= 1 else SEEDS[:2])
    report = merge_into_existing(report, args.out)
    write_report(report, args.out)
    print(render_table(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
