"""The repo's end-to-end benchmark: one entry point, four workloads.

    python3 benchmarks/e2e/run.py --workload train_mem --seed 0 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py                  # all four, passes interleaved
    python3 benchmarks/e2e/run.py --aa             # two sets of ten seeds each
    python3 benchmarks/e2e/run.py --smoke          # toy scale, < 10 s

Every pass runs in a fresh subprocess (``worker.py``) doing fixed work; this
file only schedules passes, pools their samples and prints the result.  The
last line of standard output is one JSON object (see ``README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.abspath(os.path.join(HERE, "..", ".."))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from benchmarks.e2e import spec  # noqa: E402
from benchmarks.e2e.common import THREAD_PINS, percentile, pin_threads  # noqa: E402
from benchmarks.e2e.spans import Tracer  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
#: Scratch space of the passes (SQLite files, bucket slabs, artifacts);
#: inside the checkout because the benchmark may write nowhere else.
WORK_DIR = os.path.join(HERE, ".work")
RESULTS_DIR = os.path.join(HERE, "results")
#: Three passes must end within the 180 s the builder's driver gives one run.
PASS_TIMEOUT_S = 50.0


class PassFailed(RuntimeError):
    """A worker exited non-zero, timed out, or wrote no result."""


# --------------------------------------------------------------------------- #
# Running passes
# --------------------------------------------------------------------------- #
def run_pass(workload: str, seed: int, cfg: Dict[str, object],
             trace: bool) -> Dict[str, object]:
    """One pass in a fresh process; returns the worker's result record."""
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    result_path = os.path.join(workdir, "result.json")
    env = pin_threads(dict(os.environ))
    env["TMPDIR"] = workdir  # the program's own temp files stay in the checkout
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--config", json.dumps(cfg),
           "--workdir", workdir, "--result", result_path]
    # Own process group: a timeout must also take the server grandchild down.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        try:
            _, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise PassFailed(f"{workload}: pass exceeded {PASS_TIMEOUT_S:g} s")
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise PassFailed(f"{workload}: worker exited {proc.returncode}\n"
                             f"{stderr[-4000:]}")
        with open(result_path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def aggregate(passes: List[Dict[str, object]], scaled: bool = True) -> Dict[str, float]:
    """End-to-end metrics of one workload from its untraced passes.

    Each pass's times are first brought to the reference box's speed with the
    kernel median the pass measured next to them (``scaled=False`` skips
    that).  Rates, memory and set-up are then the median over passes, so one
    slow burst spoils one pass and not the run; latency percentiles pool
    every sample.
    """
    def factor(kernel: Optional[Dict[str, float]]) -> float:
        if not scaled or kernel is None:
            return 1.0
        return spec.CALIBRATION_REFERENCE_S / sum(kernel.values())

    pooled = [x * factor(p["timed_kernel"]) for p in passes
              for x in p["latencies_ms"]]
    median = statistics.median
    return {
        "throughput_per_s": median([p["throughput_per_s"] / factor(p["timed_kernel"])
                                    for p in passes]),
        "latency_p50_ms": percentile(pooled, 50),
        "latency_p90_ms": percentile(pooled, 90),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "setup_s": median([s["seconds"] * factor(s["kernel"])
                           for p in passes for s in p["setups"]]),
    }


def verdict(passes: List[Dict[str, object]]) -> Dict[str, object]:
    """Output checks and op counts over ``passes`` (all of one workload)."""
    failed_checks = sorted({name for p in passes
                            for name, ok in p["checks"].items() if not ok})
    if any(p["exact"] != passes[0]["exact"] for p in passes):
        failed_checks.append("exact_quantities_repeat")
    return {"correct": not failed_checks, "failed_checks": failed_checks,
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "exact": passes[0]["exact"]}


# --------------------------------------------------------------------------- #
# Environment capture
# --------------------------------------------------------------------------- #
def environment(sample_pass: Dict[str, object]) -> Dict[str, object]:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"nproc": os.cpu_count(),
            "thread_pins": {name: "1" for name in THREAD_PINS},
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_commit": commit or "unknown",
            **sample_pass.get("env", {})}


def write_json(out_dir: str, name: str, payload: Dict[str, object]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


# --------------------------------------------------------------------------- #
# Modes
# --------------------------------------------------------------------------- #
def untraced_report(workload: str, passes, cfg, seed: int, args) -> Dict[str, object]:
    units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    return {"workload": workload, "seed": seed, "seconds": args.seconds,
            "config": cfg, **verdict(passes),
            "samples": sum(len(p["latencies_ms"]) for p in passes),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in aggregate(passes).items()},
            "unscaled": aggregate(passes, scaled=False),
            "passes": passes,
            "environment": environment(passes[0])}


def run_traced(workload: str, seed: int, args) -> Dict[str, object]:
    """``--trace 1``: one untraced and one traced pass; per-layer metrics.

    End-to-end numbers never come from here; the untraced pass is only the
    base the tracing overhead is measured against.
    """
    cfg = spec.sizes(workload, args.seconds, args.smoke)
    del cfg["passes"]  # a traced run is one untraced and one traced pass
    plain = run_pass(workload, seed, cfg, False)
    traced = run_pass(workload, seed, cfg, True)
    layers = dict(traced["layers"])
    base = aggregate([plain])["throughput_per_s"]
    layers["trace.overhead_pct"] = 100.0 * (
        base - aggregate([traced])["throughput_per_s"]) / base
    metrics = {}
    for layer in spec.PER_LAYER:
        name = layer["name"]
        if workload in layer["on"]:
            value = layers[name]  # KeyError: the worker dropped a promised metric
        else:
            value = 0.0  # the layer does no work on this workload
        metrics[name] = {"value": value, "unit": layer["unit"]}
    tracer = Tracer()
    tracer.spans = traced["spans"]
    write_json(args.out, f"trace_{workload}.json", {
        "workload": workload, "seed": seed, "config": cfg,
        "op_latency_p50_ms": percentile(traced["latencies_ms"], 50),
        "op_seconds_total": sum(traced["latencies_ms"]) / 1e3,
        "self_seconds": tracer.self_seconds(),  # "op" is the unattributed part
        "timed_kernel": traced["timed_kernel"],  # layer times are unscaled
        "layers": layers, "spans": traced["spans"]})
    return {"workload": workload, "seed": seed, "seconds": args.seconds,
            **verdict([plain, traced]), "metrics": metrics}


def run_set(workloads: List[str], seed: int, args) -> Dict[str, Dict[str, object]]:
    """The untraced passes of each workload, interleaved when there are
    several, so every workload's samples span the whole set instead of one
    contiguous window."""
    configs = {w: spec.sizes(w, args.seconds, args.smoke) for w in workloads}
    count = {w: configs[w].pop("passes") for w in workloads}
    passes: Dict[str, List] = {w: [] for w in workloads}
    for index in range(max(count.values())):
        for workload in workloads:
            if index >= count[workload]:
                continue
            passes[workload].append(run_pass(workload, seed, configs[workload], False))
            log(f"  pass {index + 1}/{count[workload]} {workload} seed {seed}: "
                f"{passes[workload][-1]['throughput_per_s']:.6g} /s unscaled")
    return {w: untraced_report(w, passes[w], configs[w], seed, args)
            for w in workloads}


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


def compare_sets(sets: List[Dict[str, List[Dict[str, object]]]]
                 ) -> List[Dict[str, object]]:
    """One row per workload x metric: each set's median over its runs and
    spread, and the medians' relative difference, each held to the metric's
    bound.  ``within`` is the builder's driver's rule: the medians agree and,
    except for ``setup_s``, both spreads stay within the bound; a ``setup_s``
    spread over the bound is flagged (``spread_exceeded``) but not counted."""
    rows = []
    for workload in sets[0]:
        for metric in spec.END_TO_END:
            name, bound = metric["name"], metric["bound"]
            row = {"workload": workload, "metric": name, "bound": bound}
            for label, reports in zip("ab", sets):
                values = [r["metrics"][name]["value"] for r in reports[workload]]
                row[label] = statistics.median(values)
                row[f"spread_{label}"] = spread(values)
                row[f"values_{label}"] = values
                row[f"unscaled_spread_{label}"] = spread(
                    [r["unscaled"][name] for r in reports[workload]])
            row["rel_diff"] = abs(row["b"] - row["a"]) / row["a"]
            row["spread_exceeded"] = max(row["spread_a"], row["spread_b"]) > bound
            row["within"] = row["rel_diff"] <= bound and (
                name == "setup_s" or not row["spread_exceeded"])
            rows.append(row)
    return rows


def run_aa(args) -> int:
    """Two sets of the same code, ``--runs`` seeds per workload in each, judged
    the way the builder's driver judges the benchmark (``compare_sets``)."""
    sets: List[Dict[str, List[Dict[str, object]]]] = []
    shared: Dict[str, object] = {}  # the same in every run: written once
    for label in "AB":
        reports: Dict[str, List] = {w: [] for w in args.workloads}
        for seed in range(args.seed, args.seed + args.runs):
            for workload in args.workloads:
                log(f"set {label} seed {seed} {workload}")
                report = run_set([workload], seed, args)[workload]
                for record in report["passes"]:
                    del record["latencies_ms"]  # per-pass values stay
                shared["environment"] = report.pop("environment")
                shared.setdefault("configs", {})[workload] = report.pop("config")
                reports[workload].append(report)
        sets.append(reports)
    rows = compare_sets(sets)
    for row in rows:
        flag = ""
        if not row["within"]:
            flag = "  EXCEEDED"
        elif row["spread_exceeded"]:
            flag = "  spread EXCEEDED (set-up: reported, not counted)"
        print(f"{row['workload']:13s} {row['metric']:17s} "
              f"A={row['a']:<11.6g} B={row['b']:<11.6g} "
              f"diff={100 * row['rel_diff']:5.2f}%  "
              f"spread A={100 * row['spread_a']:5.2f}% B={100 * row['spread_b']:5.2f}% "
              f"(unscaled {100 * row['unscaled_spread_a']:.1f}% "
              f"{100 * row['unscaled_spread_b']:.1f}%)  "
              f"bound={100 * row['bound']:.0f}%{flag}")
    runs = [r for reports in sets for per in reports.values() for r in per]
    correct = all(r["correct"] for r in runs)
    repeats = all(a["exact"] == b["exact"] and a["attempted"] == b["attempted"]
                  and a["failed"] == b["failed"]
                  for w in args.workloads for a, b in zip(sets[0][w], sets[1][w]))
    ok = correct and repeats and all(row["within"] for row in rows)
    for workload in args.workloads:
        print(f"{workload:13s} exact (first seed) A={sets[0][workload][0]['exact']} "
              f"B={sets[1][workload][0]['exact']}")
    write_json(args.out, "aa.json", {
        "first_seed": args.seed, "runs": args.runs, "seconds": args.seconds,
        "rows": rows, "all_correct": correct, "exact_quantities_repeat": repeats,
        "agree": ok, **shared, "sets": sets})
    print(json.dumps({"agree": ok}))
    return 0 if ok else 1


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def print_report(report: Dict[str, object]) -> None:
    """Every metric by name and unit, then the one-line JSON result last."""
    print(f"# {report['workload']} seed={report['seed']} "
          f"attempted={report['attempted']} failed={report['failed']} "
          f"exact={report['exact']}")
    for name, metric in report["metrics"].items():
        print(f"{name:32s} {metric['value']:<14.6g} {metric['unit']}")
    if not report["correct"]:
        print(f"FAILED CHECKS: {report['failed_checks']}")
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="run one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds every generated input")
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="scales every op count by seconds / %d" % spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true",
                        help="two sets of --runs seeds per workload; exit 1 unless "
                             "medians and spreads stay within the bounds")
    parser.add_argument("--runs", type=int, default=spec.AA_RUNS,
                        help="seeds per workload in each --aa set")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=RESULTS_DIR,
                        help="directory for run_*/trace_*/aa JSON files")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repo root and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds must be positive and --runs at least 1")
    if args.write_spec:
        write_json(ROOT, "BENCHMARK.json", spec.benchmark_json())
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        log("the program under test (src/repro) is not in this checkout")
        return 2
    args.workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    try:
        if args.aa:
            return run_aa(args)
        if args.trace:
            reports = {w: run_traced(w, args.seed, args) for w in args.workloads}
        else:
            reports = run_set(args.workloads, args.seed, args)
            for workload, report in reports.items():
                write_json(args.out, f"run_{workload}.json", report)
        for report in reports.values():
            print_report(report)
        return 0 if all(r["correct"] for r in reports.values()) else 1
    except PassFailed as exc:
        log(str(exc))
        return 1
    finally:
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)


if __name__ == "__main__":
    sys.exit(main())
