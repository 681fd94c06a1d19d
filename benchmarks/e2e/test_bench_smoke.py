"""Tier-1 smoke for the end-to-end benchmark.

Runs ``run.py --smoke`` (all four workloads at toy scale, server subprocess
included) and checks that ``BENCHMARK.json`` matches ``spec.py`` and the
builder's contract: names, units, directions, bounds and rationales.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from benchmarks.e2e import run as bench_run, spec  # noqa: E402

RUN = os.path.join(ROOT, "benchmarks", "e2e", "run.py")


def _run(*flags: str, out: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *flags, "--out", out], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_smoke_runs_all_four_workloads(tmp_path):
    done = _run("--smoke", out=str(tmp_path))
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(spec.WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec.END_TO_END}
        for metric in spec.END_TO_END:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"] and got["value"] > 0
    for workload in spec.WORKLOADS:
        with open(tmp_path / f"run_{workload}.json", encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["seed"] == 0
        assert {"nproc", "thread_pins", "python", "numpy", "scipy", "HAVE_NUMBA",
                "DEFAULT_BACKEND", "git_commit"} <= set(report["environment"])
        assert set(report["unscaled"]) == set(report["metrics"])
        for record in report["passes"]:
            assert {"loadavg_start", "loadavg_end", "setups", "timed_kernel",
                    "throughput_per_s"} <= set(record)
            assert all(s["seconds"] > 0 and s["kernel"]["core_s"] > 0
                       for s in record["setups"])


def test_smoke_trace_emits_every_per_layer_metric(tmp_path):
    done = _run("--smoke", "--workload", "train_stream", "--trace", "1",
                out=str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert list(result["metrics"]) == spec.LAYER_NAMES
    assert result["metrics"]["nn.bucket_faults"]["value"] > 0
    assert result["metrics"]["serving.health_rtt_ms"]["value"] == 0
    with open(tmp_path / "trace_train_stream.json", encoding="utf-8") as handle:
        trace = json.load(handle)
    assert {"id", "name", "start", "end", "parent", "op"} <= set(trace["spans"][0])


def _reports(values):
    """Runs of one workload whose every metric takes ``values`` in turn."""
    return {"w": [{"metrics": {m["name"]: {"value": v} for m in spec.END_TO_END},
                   "unscaled": {m["name"]: v for m in spec.END_TO_END}}
                  for v in values]}


def test_aa_comparison_flags_medians_and_spreads_over_the_bound():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    rows = bench_run.compare_sets([_reports(steady), _reports(steady)])
    assert len(rows) == len(spec.END_TO_END) and all(r["within"] for r in rows)
    assert all(r["rel_diff"] == 0 and r["spread_a"] < 0.02 for r in rows)

    shifted = bench_run.compare_sets([_reports(steady),
                                      _reports([1.3 * v for v in steady])])
    assert not any(r["within"] for r in shifted)  # 30 % apart: over every bound

    wide = [60.0, 80.0, 100.0, 120.0, 140.0]
    noisy = bench_run.compare_sets([_reports(wide), _reports(wide)])
    # A spread over the bound is flagged on every metric; as in the builder's
    # driver it fails the comparison on all of them but setup_s.
    assert all(r["spread_exceeded"] for r in noisy)
    assert [r["metric"] for r in noisy if r["within"]] == ["setup_s"]


def test_benchmark_json_matches_spec_and_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert doc == spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == [spec.BENCH_PATH]
    assert 1 <= doc["run_seconds"] <= 60

    assert len(doc["workloads"]) == 4
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        why = workload["why"]
        assert 0 < len(why) <= 200 and "\n" not in why and why.endswith(".")

    assert len(doc["end_to_end"]) == 5
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])

    e2e_names = {m["name"] for m in doc["end_to_end"]}
    layer_names = set(spec.LAYER_NAMES)
    for metric, layer in zip(doc["per_layer"], spec.PER_LAYER):
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("higher", "lower")
        # Every per-layer metric says what it is expected to move, and where.
        assert layer["moves"] in e2e_names | layer_names
        assert layer["on"] and set(layer["on"]) <= set(spec.WORKLOADS)

    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(spec.NAME_RE.match(name) for name in names)
