"""Core of the ``sptransx check`` static-analysis framework.

The repo accumulated a set of cross-cutting invariants (dtype preservation
through the kernel layer, fork safety in the processes that fork, lock
discipline in every class that owns a lock, kernel-parity test coverage,
registry completeness) that example-based tests can only spot-check.
This package encodes each invariant once, as an AST-level rule run over
the whole source tree, so a regression anywhere in the codebase fails CI
even when no existing test happens to exercise the broken path.

Three layers:

* :class:`Finding` — one rule violation at a file:line.
* :class:`Checker` — a rule implementation.  Checkers either inspect one
  file at a time (``check_file``) or the whole project (``check_project``,
  for cross-file rules like kernel-parity coverage).  Concrete checkers
  live in :mod:`repro.analysis.checkers` and register themselves with
  :func:`register_checker`.
* :class:`Project` / :func:`run_checks` — the driver: discovers sources,
  parses once, fans files out to checkers, and filters results through
  suppression comments.

Suppressions::

    x = np.empty(n)  # repro: ignore[dtype-ctor]
    # repro: ignore[lock-state]           (suppresses this physical line)
    # repro: ignore-file[fork-taint]      (anywhere: suppresses whole file)
    # repro: ignore                       (all rules, this line)

No third-party dependencies: everything here is stdlib ``ast`` + ``re``.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import subprocess
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "Checker",
    "Project",
    "SourceFile",
    "register_checker",
    "iter_checkers",
    "iter_rules",
    "run_checks",
    "changed_files",
]

#: Matches ``repro: ignore[rule-a,rule-b]`` / ``repro: ignore-file[...]``
#: comments.  A bare ``repro: ignore`` (no bracket) suppresses every rule.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*(?P<kind>ignore-file|ignore)"
    r"(?:\[(?P<rules>[A-Za-z0-9_,\- ]+)\])?"
)

#: Sentinel meaning "all rules suppressed".
_ALL_RULES = frozenset({"*"})


@dataclass(frozen=True)
class Finding:
    """One rule violation: ``path:line:col  rule  message``.

    ``snippet`` is the source line the finding points at (used for the
    content-based fingerprint; empty when unavailable).
    """

    rule: str
    path: str  # repo-root-relative, posix separators
    line: int
    col: int
    message: str
    snippet: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def fingerprint(self) -> str:
        """Stable content-based identity: rule + path + normalized snippet.

        Deliberately excludes the line number, so a finding keeps its
        fingerprint when unrelated edits shift the file — the property a
        future baseline ("known findings") file needs to not churn on
        every rebase.
        """
        normalized = " ".join(self.snippet.split())
        digest = hashlib.sha256(
            f"{self.rule}\0{self.path}\0{normalized}".encode("utf-8")
        )
        return digest.hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }


def _iter_comments(text: str) -> Iterator[Tuple[int, str]]:
    """(lineno, comment_text) for every comment token in ``text``.

    Falls back to a line scan on tokenize errors (sources are already
    ast-parsed before this runs, so that path is effectively dead).
    """
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                yield tok.start[0], tok.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "#" in line:
                yield lineno, line[line.index("#"):]


class _SuppressionEntry:
    """One ``# repro: ignore...`` comment, with use tracking."""

    __slots__ = ("kind", "line", "rules", "used", "comment")

    def __init__(self, kind: str, line: int, rules: frozenset, comment: str):
        self.kind = kind        # "file" | "line"
        self.line = line        # physical line of the comment
        self.rules = rules      # rule ids, or _ALL_RULES
        self.used = False       # did it suppress at least one finding?
        self.comment = comment  # verbatim text, for the unused message


class _Suppressions:
    """Per-file suppression state parsed from ``# repro:`` comments.

    Real COMMENT tokens only (via ``tokenize``): a suppression example
    inside a docstring documents the syntax, it does not suppress — and
    must not be reported as a stale ignore either.
    """

    def __init__(self, text: str):
        self.entries: List[_SuppressionEntry] = []
        for lineno, comment in _iter_comments(text):
            m = _SUPPRESS_RE.search(comment)
            if m is None:
                continue
            raw = m.group("rules")
            rules = frozenset(
                r.strip() for r in raw.split(",") if r.strip()
            ) if raw else frozenset(_ALL_RULES)
            kind = "file" if m.group("kind") == "ignore-file" else "line"
            self.entries.append(
                _SuppressionEntry(kind, lineno, rules, m.group(0).strip())
            )

    def is_suppressed(self, rule: str, line: int) -> bool:
        hit = False
        for entry in self.entries:
            if not (entry.rules & {rule, "*"}):
                continue
            if entry.kind == "file" or entry.line == line:
                entry.used = True
                hit = True
        return hit


class SourceFile:
    """A parsed source file plus its suppression table.

    ``relpath`` is relative to the *package* root (``src/repro``) for
    package sources, or to the repo root (``tests/...``) for test files —
    checkers scope themselves by these paths.  ``display_path`` is always
    repo-root-relative and is what appears in findings.
    """

    def __init__(self, path: Path, relpath: str, display_path: str):
        self.path = path
        self.relpath = relpath
        self.display_path = display_path
        self.text = path.read_text(encoding="utf-8")
        self._tree: Optional[ast.AST] = None
        self._suppressions: Optional[_Suppressions] = None

    @property
    def tree(self) -> ast.Module:
        if self._tree is None:
            self._tree = ast.parse(self.text, filename=str(self.path))
        return self._tree  # type: ignore[return-value]

    @property
    def suppressions(self) -> _Suppressions:
        if self._suppressions is None:
            self._suppressions = _Suppressions(self.text)
        return self._suppressions

    def line_text(self, line: int) -> str:
        lines = self.text.splitlines()
        return lines[line - 1] if 1 <= line <= len(lines) else ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=rule,
            path=self.display_path,
            line=line,
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            snippet=self.line_text(line),
        )


class Project:
    """The file set ``run_checks`` operates on.

    ``root`` is the repo root; package sources are discovered under
    ``<root>/<package>`` (default ``src/repro``) and test files under
    ``<root>/tests``.  Fixture projects in the test-suite use the same
    layout in a tmpdir, so checkers never special-case the real repo.
    """

    def __init__(self, root: Path, package: str = "src/repro"):
        self.root = Path(root)
        self.package = package
        self.package_root = self.root / package
        self.tests_root = self.root / "tests"
        self._files: Optional[List[SourceFile]] = None
        self._test_files: Optional[List[SourceFile]] = None
        self._by_relpath: Dict[str, SourceFile] = {}

    @staticmethod
    def _load(path: Path, relpath: str, display: str) -> Optional[SourceFile]:
        try:
            return SourceFile(path, relpath, display)
        except (OSError, UnicodeDecodeError):
            return None

    @property
    def files(self) -> List[SourceFile]:
        if self._files is None:
            out: List[SourceFile] = []
            if self.package_root.is_dir():
                for path in sorted(self.package_root.rglob("*.py")):
                    rel = path.relative_to(self.package_root).as_posix()
                    display = path.relative_to(self.root).as_posix()
                    src = self._load(path, rel, display)
                    if src is not None:
                        out.append(src)
                        self._by_relpath[rel] = src
            self._files = out
        return self._files

    @property
    def test_files(self) -> List[SourceFile]:
        if self._test_files is None:
            out: List[SourceFile] = []
            if self.tests_root.is_dir():
                for path in sorted(self.tests_root.rglob("*.py")):
                    rel = path.relative_to(self.root).as_posix()
                    src = self._load(path, rel, rel)
                    if src is not None:
                        out.append(src)
            self._test_files = out
        return self._test_files

    def file(self, relpath: str) -> Optional[SourceFile]:
        self.files  # ensure index built
        return self._by_relpath.get(relpath)

    def iter_package(self, *prefixes: str) -> Iterator[SourceFile]:
        """Package files whose relpath starts with any prefix (all if none)."""
        for src in self.files:
            if not prefixes or any(
                src.relpath == p or src.relpath.startswith(p) for p in prefixes
            ):
                yield src

    def source_for_display_path(self, display_path: str) -> Optional[SourceFile]:
        for src in self.files:
            if src.display_path == display_path:
                return src
        for src in self.test_files:
            if src.display_path == display_path:
                return src
        return None


class Checker:
    """Base class for one invariant.

    Subclasses set ``name`` (registry key), ``rule_ids`` (the ids findings
    carry — one checker may emit several), and ``description``.  File-scoped
    rules override :meth:`interesting` + :meth:`check_file`; cross-file
    rules override :meth:`check_project`.  ``trigger_prefixes`` lets
    ``--diff`` mode decide whether a project-level rule must re-run for a
    given changed-file set.
    """

    name: str = ""
    rule_ids: Tuple[str, ...] = ()
    description: str = ""
    #: package-relative prefixes (or ``tests/...`` repo-relative ones) whose
    #: modification requires re-running this checker in ``--diff`` mode.
    trigger_prefixes: Tuple[str, ...] = ()

    def interesting(self, relpath: str) -> bool:
        return False

    def check_file(self, source: SourceFile, project: Project) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()

    def triggered_by(self, relpaths: Sequence[str]) -> bool:
        if not self.trigger_prefixes:
            return any(self.interesting(r) for r in relpaths)
        return any(
            r == p or r.startswith(p)
            for r in relpaths
            for p in self.trigger_prefixes
        )


_CHECKERS: Dict[str, Checker] = {}


def register_checker(cls):
    """Class decorator: instantiate and register a :class:`Checker`."""
    instance = cls()
    if not instance.name or not instance.rule_ids:
        raise ValueError(f"checker {cls.__name__} must set name and rule_ids")
    _CHECKERS[instance.name] = instance
    return cls


def _ensure_builtin_checkers() -> None:
    # Importing the subpackage triggers the @register_checker decorators.
    from repro.analysis import checkers  # noqa: F401


def iter_checkers() -> List[Checker]:
    _ensure_builtin_checkers()
    return [c for _, c in sorted(_CHECKERS.items())]


def iter_rules() -> List[Tuple[str, str]]:
    """``(rule_id, description)`` pairs for every registered rule."""
    out: List[Tuple[str, str]] = []
    for checker in iter_checkers():
        for rule in checker.rule_ids:
            out.append((rule, checker.description))
    return sorted(out)


def changed_files(root: Path, ref: str) -> List[str]:
    """Repo-relative .py paths changed since ``ref`` (committed or dirty)."""
    proc = subprocess.run(
        ["git", "-C", str(root), "diff", "--name-only", ref, "--"],
        capture_output=True,
        text=True,
        check=True,
    )
    return [
        line.strip()
        for line in proc.stdout.splitlines()
        if line.strip().endswith(".py")
    ]


def _package_relpaths(project: Project, repo_relative: Iterable[str]) -> List[str]:
    """Map repo-relative paths to package/test relpaths the checkers use."""
    prefix = project.package.rstrip("/") + "/"
    out = []
    for p in repo_relative:
        p = p.strip().replace("\\", "/")
        if p.startswith(prefix):
            out.append(p[len(prefix):])
        elif p.startswith("tests/"):
            out.append(p)
    return out


def run_checks(
    root: Path,
    *,
    rules: Optional[Sequence[str]] = None,
    paths: Optional[Sequence[str]] = None,
    diff_ref: Optional[str] = None,
    package: str = "src/repro",
) -> List[Finding]:
    """Run every registered checker over the project and return findings.

    ``rules`` restricts to the given rule ids; ``paths`` (repo-relative) or
    ``diff_ref`` (git ref) restrict the file set.  Findings suppressed by
    ``# repro: ignore`` comments are dropped, and the result is sorted by
    (path, line, col, rule).
    """
    project = Project(Path(root), package=package)
    restriction: Optional[Set[str]] = None
    if diff_ref is not None:
        restriction = set(_package_relpaths(project, changed_files(project.root, diff_ref)))
    if paths is not None:
        explicit = set(_package_relpaths(project, paths))
        restriction = explicit if restriction is None else (restriction & explicit)

    wanted = set(rules) if rules else None
    findings: List[Finding] = []
    executed_rules: Set[str] = set()
    for checker in iter_checkers():
        if wanted is not None and not (wanted & set(checker.rule_ids)):
            continue
        if restriction is not None:
            if not checker.triggered_by(sorted(restriction)):
                continue
        executed_rules.update(checker.rule_ids)
        for src in project.files:
            if not checker.interesting(src.relpath):
                continue
            if restriction is not None and src.relpath not in restriction:
                continue
            findings.extend(checker.check_file(src, project))
        findings.extend(checker.check_project(project))

    kept: List[Finding] = []
    for f in findings:
        if wanted is not None and f.rule not in wanted:
            continue
        src = project.source_for_display_path(f.path)
        if src is not None and src.suppressions.is_suppressed(f.rule, f.line):
            continue
        kept.append(f)
    kept.extend(_unused_suppressions(project, executed_rules, restriction))
    # Project-level checkers may emit duplicates when run under multiple
    # rule restrictions; dedup on the full identity.
    unique = {(f.rule, f.path, f.line, f.col, f.message): f for f in kept}
    return sorted(unique.values(), key=Finding.sort_key)


def _unused_suppressions(
    project: Project,
    executed_rules: Set[str],
    restriction: Optional[Set[str]],
) -> List[Finding]:
    """``suppression-unused`` findings: ignores that suppressed nothing.

    Runs after the main filter pass, which marks every suppression entry
    that consumed a finding.  Conservative by construction:

    * an entry is judged only when every rule it names actually executed
      this run (``--rules``/``--diff`` may have skipped the checker that
      would have used it);
    * a bare ``# repro: ignore`` is judged only when *all* registered
      rules ran;
    * only package sources are scanned — test files embed suppression
      comments inside fixture string literals.
    """
    if "suppression-unused" not in executed_rules:
        return []
    all_rules = {rule for rule, _ in iter_rules()}
    out: List[Finding] = []
    for src in project.files:
        if restriction is not None and src.relpath not in restriction:
            continue
        for entry in src.suppressions.entries:
            if entry.used:
                continue
            named = set() if entry.rules == _ALL_RULES else set(entry.rules)
            # Typo'd rule names can never be used; judge on the known part
            # (or on every rule for bare/unknown-only ignores).
            required = (named & all_rules) or all_rules
            if not required <= executed_rules:
                continue
            scope = "file" if entry.kind == "file" else "this line"
            finding = Finding(
                rule="suppression-unused",
                path=src.display_path,
                line=entry.line,
                col=1,
                message=(
                    f"`{entry.comment}` suppresses nothing: no "
                    f"{'/'.join(sorted(named)) if named else 'rule'} "
                    f"finding on {scope}; remove the stale comment"
                ),
                snippet=src.line_text(entry.line),
            )
            if not src.suppressions.is_suppressed(finding.rule, finding.line):
                out.append(finding)
    return out
