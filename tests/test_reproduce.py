"""Tier-1 tests for the reproduction runner (``benchmarks/reproduce.py``)."""

import json
import os
import shutil
import sys
import time

import numpy as np
import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from benchmarks import reproduce  # noqa: E402
from benchmarks.common import (  # noqa: E402
    MODEL_PAIRS,
    interleaved_ratio,
    load_scaled_dataset,
    make_batch,
    paired_models,
)

VERDICTS = {"holds", "does_not_hold"}


@pytest.fixture(scope="module")
def checked_in():
    with open(os.path.join(REPO_ROOT, "REPRODUCTION.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def toy():
    return reproduce.run_cases(list(reproduce.CASES), reproduce.SCALES["toy"],
                               reproduce.SEEDS[:2])


class TestEveryCaseAtToyScale:
    def test_rows_match_declared_columns_and_verdicts_exist(self, toy):
        assert [case["name"] for case in toy["cases"]] == list(reproduce.CASES)
        for case in toy["cases"]:
            assert case["rows"], case["name"]
            for row in case["rows"]:
                assert list(row) == case["columns"], case["name"]
            assert case["verdict"] in VERDICTS
            assert case["detail"]
        json.dumps(toy, allow_nan=False)

    def test_deterministic_verdicts_reproduce_the_checked_in_ones(self, toy, checked_in):
        recorded = {case["name"]: case["verdict"] for case in checked_in["cases"]}
        deterministic = [case for case in toy["cases"] if case["deterministic"]]
        assert {case["name"] for case in deterministic} == {
            "table5", "table6", "table7", "table8", "fig9", "appendixD"}
        for case in deterministic:
            assert case["verdict"] == recorded[case["name"]], case["name"]


class TestCheckedInReport:
    def test_is_the_full_default_scale_run(self, checked_in):
        assert checked_in["scale"] == reproduce.SCALES["default"]
        assert len(checked_in["seeds"]) >= 3
        assert [case["name"] for case in checked_in["cases"]] == list(reproduce.CASES)
        assert all(case["verdict"] in VERDICTS for case in checked_in["cases"])

    def test_markdown_and_readme_are_generated_not_edited(self, checked_in):
        with open(os.path.join(REPO_ROOT, "REPRODUCTION.md"), encoding="utf-8") as handle:
            assert handle.read() == reproduce.render_markdown(checked_in)
        with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as handle:
            readme = handle.read()
        assert reproduce.render_readme(readme, checked_in) == readme

    def test_every_case_names_its_source_and_claim(self):
        for case in reproduce.CASES.values():
            assert case.claim.strip(), case.name
            if case.name == "rowsparse_scaling":
                assert case.repo_ref.strip()
            else:
                assert case.paper_ref.strip(), case.name


class TestOnlyReplacesNamedCases:
    @staticmethod
    def _run_only(out_dir, *argv):
        reproduce.main(["--only", "table7", "--out", str(out_dir), *argv])
        with open(os.path.join(out_dir, "REPRODUCTION.json"), encoding="utf-8") as handle:
            return json.load(handle)

    def test_other_entries_of_a_same_scale_report_are_kept(self, tmp_path, checked_in):
        for name in ("REPRODUCTION.json", "README.md"):
            shutil.copy(os.path.join(REPO_ROOT, name), tmp_path / name)
        merged = self._run_only(tmp_path)
        assert [case["name"] for case in merged["cases"]] == list(reproduce.CASES)
        for before, after in zip(checked_in["cases"], merged["cases"]):
            if after["name"] != "table7":
                assert after == before
        with open(tmp_path / "REPRODUCTION.md", encoding="utf-8") as handle:
            assert handle.read() == reproduce.render_markdown(merged)
        with open(tmp_path / "README.md", encoding="utf-8") as handle:
            readme = handle.read()
        assert reproduce.render_readme(readme, merged) == readme

    def test_a_report_at_another_scale_is_replaced(self, tmp_path):
        shutil.copy(os.path.join(REPO_ROOT, "REPRODUCTION.json"), tmp_path)
        fresh = self._run_only(tmp_path, "--scale", "toy")
        assert [case["name"] for case in fresh["cases"]] == ["table7"]


class TestInterleavedRatio:
    @staticmethod
    def _steps(seconds_a, seconds_b, cold_factor=50):
        """Two sleeps; whichever is called first overall pays ``cold_factor`` times."""
        state = {"cold": True}

        def step(seconds):
            def run():
                time.sleep(seconds * (cold_factor if state["cold"] else 1))
                state["cold"] = False
            return run

        return step(seconds_a), step(seconds_b)

    def test_cold_start_of_whichever_runs_first_does_not_move_the_ratio(self):
        """Timing A to completion and then B — the parent's protocol — charges
        the cold start to A and reads 0.5 as ~5; interleaved it stays 0.5."""
        a, b = self._steps(0.005, 0.010)
        result = interleaved_ratio(a, b, warmup=1, rounds=5)
        assert result["ratio"] == pytest.approx(0.5, rel=0.10)
        assert result["a_iqr_s"] >= 0.0 and result["b_iqr_s"] >= 0.0

    def test_both_orders_agree(self):
        a, b = self._steps(0.005, 0.010)
        forward = interleaved_ratio(a, b, warmup=1, rounds=5)["ratio"]
        b, a = self._steps(0.010, 0.005)
        backward = interleaved_ratio(b, a, warmup=1, rounds=5)["ratio"]
        assert forward * backward == pytest.approx(1.0, rel=0.15)


@pytest.mark.parametrize("model_name", list(MODEL_PAIRS))
def test_paired_models_start_from_the_same_loss(model_name):
    kg = load_scaled_dataset("WN18", scale=0.5)
    batch = make_batch(kg, 256)
    sparse, dense = paired_models(model_name, kg, seed=3, dim=16)
    np.testing.assert_allclose(sparse.loss(batch).item(), dense.loss(batch).item(),
                               rtol=1e-8)
