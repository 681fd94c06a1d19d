"""End-to-end tests for the ``sptransx check`` CLI and ``--diff`` mode."""

import json
import subprocess
from pathlib import Path

import pytest

from repro.analysis import run_checks
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_project(root: Path, files: dict) -> Path:
    for relpath, text in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root

BAD_FILES = {
    "src/repro/sparse/mod.py": "import numpy as np\nx = np.empty(3)\n",
}
GOOD_FILES = {
    "src/repro/sparse/mod.py": (
        "import numpy as np\nx = np.empty(3, dtype=np.float64)\n"
    ),
}


class TestCheckCommand:
    def test_known_bad_fixture_exits_nonzero(self, tmp_path, capsys):
        make_project(tmp_path, BAD_FILES)
        assert main(["check", "--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "dtype-ctor" in out
        assert "src/repro/sparse/mod.py:2" in out

    def test_known_good_fixture_exits_zero(self, tmp_path, capsys):
        make_project(tmp_path, GOOD_FILES)
        assert main(["check", "--root", str(tmp_path)]) == 0
        assert "no invariant violations" in capsys.readouterr().out

    def test_real_repo_is_clean(self, capsys):
        # The acceptance bar: the shipped tree passes its own checker.
        assert main(["check", "--root", str(REPO_ROOT)]) == 0

    def test_json_format(self, tmp_path, capsys):
        make_project(tmp_path, BAD_FILES)
        assert main(["check", "--root", str(tmp_path),
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == 1
        assert payload["findings"][0]["rule"] == "dtype-ctor"
        assert payload["findings"][0]["line"] == 2

    def test_rules_restriction(self, tmp_path, capsys):
        make_project(tmp_path, BAD_FILES)
        assert main(["check", "--root", str(tmp_path),
                     "--rules", "lock-state"]) == 0

    def test_unknown_rule_rejected(self, tmp_path):
        make_project(tmp_path, GOOD_FILES)
        with pytest.raises(SystemExit):
            main(["check", "--root", str(tmp_path), "--rules", "no-such-rule"])

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 10
        for rule in ("dtype-ctor", "fork-taint", "lock-state",
                     "kernel-parity", "registry-roundtrip"):
            assert rule in out

    def test_explicit_paths_restrict_file_checkers(self, tmp_path, capsys):
        files = dict(BAD_FILES)
        files["src/repro/nn/other.py"] = (
            "import numpy as np\ny = np.zeros(2)\n"
        )
        make_project(tmp_path, files)
        assert main(["check", "--root", str(tmp_path),
                     "src/repro/nn/other.py"]) == 1
        out = capsys.readouterr().out
        assert "nn/other.py" in out
        assert "sparse/mod.py" not in out


def _git(root: Path, *argv: str) -> None:
    subprocess.run(
        ["git", "-C", str(root), "-c", "user.name=t",
         "-c", "user.email=t@example.com", *argv],
        check=True,
        capture_output=True,
    )


@pytest.fixture
def git_project(tmp_path):
    """A committed fixture repo: serving/ violation at HEAD, sparse/ clean."""
    make_project(tmp_path, {
        "src/repro/sparse/mod.py": (
            "import numpy as np\nx = np.empty(3, dtype=np.float64)\n"
        ),
        "src/repro/serving/engine.py": (
            "import threading\n"
            "class Engine:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.count = 0\n"
            "    def bump(self):\n"
            "        self.count += 1\n"
        ),
    })
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    return tmp_path


class TestDiffMode:
    def test_diff_restricts_to_changed_files(self, git_project):
        # Make sparse/mod.py dirty with a fresh violation; nn/old.py's
        # violation is untouched since HEAD so its *file-scoped* finding
        # must not re-report.  Interprocedural rules are project-scoped and
        # re-run whole (like kernel-parity), so lock-state still sees the
        # serving race.
        make_project(git_project, {
            "src/repro/nn/old.py": "import numpy as np\ny = np.zeros(2)\n",
        })
        _git(git_project, "add", "-A")
        _git(git_project, "commit", "-q", "-m", "old violation")
        (git_project / "src/repro/sparse/mod.py").write_text(
            "import numpy as np\nx = np.empty(3)\n", encoding="utf-8"
        )
        findings = run_checks(git_project, diff_ref="HEAD")
        assert {(f.rule, f.path) for f in findings} == {
            ("dtype-ctor", "src/repro/sparse/mod.py"),
            ("lock-state", "src/repro/serving/engine.py"),
        }
        full = run_checks(git_project)
        assert {(f.rule, f.path) for f in full} == {
            ("dtype-ctor", "src/repro/nn/old.py"),
            ("dtype-ctor", "src/repro/sparse/mod.py"),
            ("lock-state", "src/repro/serving/engine.py"),
        }

    def test_clean_diff_reports_nothing(self, git_project):
        assert run_checks(git_project, diff_ref="HEAD") == []

    def test_changed_test_file_retriggers_project_checker(self, git_project):
        # kernel-parity is project-level; touching only tests/sparse/ must
        # still re-run it (trigger_prefixes), catching a deleted parity test.
        make_project(git_project, {
            "src/repro/sparse/kernels.py": "def spmm(x):\n    return x\n",
            "tests/sparse/test_k.py": "def test_spmm():\n    assert spmm\n",
        })
        _git(git_project, "add", "-A")
        _git(git_project, "commit", "-q", "-m", "kernel + parity test")
        (git_project / "tests/sparse/test_k.py").write_text(
            "def test_nothing():\n    pass\n", encoding="utf-8"
        )
        findings = run_checks(git_project, diff_ref="HEAD")
        parity = [f for f in findings if f.rule == "kernel-parity"]
        assert len(parity) == 1
        assert "spmm" in parity[0].message

    def test_diff_cli_flag(self, git_project, capsys):
        (git_project / "src/repro/sparse/mod.py").write_text(
            "import numpy as np\nx = np.empty(3)\n", encoding="utf-8"
        )
        assert main(["check", "--root", str(git_project),
                     "--diff", "HEAD"]) == 1
        assert "dtype-ctor" in capsys.readouterr().out

    def test_bad_ref_is_a_clean_error(self, git_project):
        with pytest.raises(SystemExit):
            main(["check", "--root", str(git_project),
                  "--diff", "no-such-ref"])


class TestReporters:
    def test_github_format_emits_error_annotations(self, tmp_path, capsys):
        make_project(tmp_path, BAD_FILES)
        assert main(["check", "--root", str(tmp_path),
                     "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=src/repro/sparse/mod.py,line=2,col=5," in out
        assert "title=dtype-ctor::" in out
        assert "sptransx check: 1 violation" in out

    def test_github_format_clean_run(self, tmp_path, capsys):
        make_project(tmp_path, GOOD_FILES)
        assert main(["check", "--root", str(tmp_path),
                     "--format", "github"]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out

    def test_fingerprint_survives_line_shift(self, tmp_path, capsys):
        # Baselines must match findings across rebases: the fingerprint
        # hashes rule + path + snippet, never the line number.
        def fingerprint():
            main(["check", "--root", str(tmp_path), "--format", "json"])
            payload = json.loads(capsys.readouterr().out)
            (finding,) = payload["findings"]
            return finding["line"], finding["fingerprint"]

        make_project(tmp_path, BAD_FILES)
        line_a, fp_a = fingerprint()
        shifted = "import numpy as np\n\n\nx = np.empty(3)\n"
        make_project(tmp_path, {"src/repro/sparse/mod.py": shifted})
        line_b, fp_b = fingerprint()
        assert line_a != line_b
        assert fp_a == fp_b
