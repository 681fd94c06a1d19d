"""The ranking walk split over pinned workers against the inline walk.

:func:`repro.ranking.walk_table` hands its candidate blocks, a round of one
block per CPU at a time, to :func:`repro.sparse.kernels.split_rows`; each
share counts into its own part of the sink (``RankCounter.fork``) and the
parts are merged at the end.  Every case here runs the same walk split (this
process, every CPU) and inline — with the split patched away in process, and
in a child process whose affinity is one CPU — and compares the ranks, the
counter's ``settled`` counts, its unresolved mask, its target keys and the
``KeepKeys`` blocks bit for bit.  Blocks are shrunk to a few rows so tables
of a few dozen rows walk in several rounds.

Mutations tried against this file, each failing the tests named:

* every share counting into the caller's sink, nothing forked or merged:
  ``test_split_walk_equals_the_inline_walk`` and the one-CPU child test;
* a ``merge`` that drops ``_doubt``: ``test_fork_merge_equals_one_counter``
  and the non-finite ``test_fixed_cases_split_equal_inline`` cases;
* a ``merge`` that drops ``settled``, or copies the last part's targets
  whatever they hold: both of those and the in-process property;
* a ``merge`` that takes the non-NaN targets only, which loses the bits of
  a NaN a tile computed: ``test_fixed_cases_split_equal_inline`` on the
  non-finite TransR case and the one-CPU child test;
* a share that does not hand back its FLOP tally:
  ``test_flop_totals_equal_the_inline_walk``;
* a share run with grad mode on: ``test_workers_build_no_tape``.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ranking
from repro.autograd.function import flop_counter
from repro.autograd.tensor import Tensor, is_grad_enabled
from repro.evaluation.ranks import RankCounter, stack_exclusions
from repro.models import SpTorusE, SpTransE, SpTransH, SpTransR
from repro.sparse import kernels

CPUS = len(os.sched_getaffinity(0))
#: Whether this process splits a walk at all: two CPUs, one BLAS thread.
SPLITS = CPUS >= 2 and kernels.blas_threads() == 1

MODELS = {
    "TransE": lambda n, r, d: SpTransE(n, r, d, rng=0),
    "TransE-P3": lambda n, r, d: SpTransE(n, r, d, rng=0, partitions=3),
    "TransE-L1": lambda n, r, d: SpTransE(n, r, d, dissimilarity="L1", rng=0),
    "TorusE": lambda n, r, d: SpTorusE(n, r, d, rng=0),
    "TransH": lambda n, r, d: SpTransH(n, r, d, rng=0),
    "TransH-L1": lambda n, r, d: SpTransH(n, r, d, dissimilarity="L1", rng=0),
    "TransR": lambda n, r, d: SpTransR(n, r, d, relation_dim=max(1, d - 1), rng=0),
}
TABLES = ["random", "ties", "non_finite", "all_equal"]


def _inline():
    """The walk with the split patched away: every block on this thread."""
    return mock.patch.object(ranking, "split_shares", lambda: 1)


@pytest.fixture
def shares_seen(monkeypatch):
    """``(share, shares, thread name)`` of every share of a walk's split."""
    seen = []
    real = ranking.split_rows

    def spy(n_rows, block, task):
        def recorded(start, stop, share, shares):
            seen.append((share, shares, threading.current_thread().name))
            task(start, stop, share, shares)
        real(n_rows, block, recorded)

    monkeypatch.setattr(ranking, "split_rows", spy)
    return seen


def _assert_split(seen):
    if not SPLITS:
        return
    split = [entry for entry in seen if entry[1] == CPUS]
    assert split, "no round was split"
    assert all(name.startswith("repro-rows-cpu") for *_, name in split)


def _close(model):
    close = getattr(getattr(model, "embeddings", None), "close", None)
    if close is not None:
        close()


@st.composite
def _cases(draw):
    n = draw(st.integers(12, 48))
    return {"model": draw(st.sampled_from(sorted(MODELS))),
            "n": n, "r": draw(st.integers(1, 3)), "d": draw(st.integers(2, 6)),
            "b": draw(st.integers(1, 5)), "table": draw(st.sampled_from(TABLES)),
            "seed": draw(st.integers(0, 2 ** 16)),
            # Rows per candidate block: at least two blocks, so two rounds
            # or more at two CPUs.
            "tile": draw(st.integers(2, n // 2)),
            "filtered": draw(st.booleans()),
            # Targets and exclusions only in a round's second block.
            "second": draw(st.booleans())}


def _table(kind, rng, n, d):
    rows = rng.standard_normal((n, d))
    if kind == "ties":
        rows = rng.integers(-1, 2, (n, d)).astype(np.float64)
    elif kind == "non_finite":
        picked = rng.choice(n, max(1, n // 5), replace=False)
        rows[picked] = rng.choice([np.nan, np.inf, -np.inf], (picked.size, d))
    elif kind == "all_equal":
        rows[:] = rng.integers(-2, 3, d)  # every key ties: every query re-walks
    return rows


def _build(case):
    rng = np.random.default_rng(case["seed"])
    n, d, b, tile = case["n"], case["d"], case["b"], case["tile"]
    model = MODELS[case["model"]](n, case["r"], d)
    for name, param in model.named_parameters():
        if "bucket" not in name:
            param.data[...] = 0.5 * rng.standard_normal(param.shape)
    model.entity_table().write_rows(np.arange(n), _table(case["table"], rng, n, d))
    pool = np.arange(n)
    if case["second"]:
        pool = pool[(pool // tile) % 2 == 1]
    heads, tails = rng.choice(pool, b), rng.choice(pool, b)
    relations = rng.integers(0, case["r"], b)
    exclusions = [None, None]
    if case["filtered"]:
        exclusions = [[rng.choice(pool, rng.integers(0, pool.size + 1), replace=False)
                       for _ in range(b)] for _ in range(2)]
    return model, (heads, relations, tails, *exclusions)


def _tiled(model, tile, b):
    """Candidate blocks of ``tile`` rows for a walk of ``2b`` queries."""
    width = max(model.embedding_dim, getattr(model, "relation_dim", 0))
    return (mock.patch.object(ranking, "RANK_TILE_ELEMENTS", tile * 2 * b),
            mock.patch.object(type(model), "RANK_BLOCK_ELEMENTS", tile * 2 * b * width))


def outputs(case, tiled=True):
    """Everything a case's walks produce, by name.

    The counter's walk of the chunk's ``2b`` queries (ranks, unresolved
    mask, ``settled``, target keys), the ``KeepKeys`` walk of the same
    queries (the fp64 re-walk's block), ``rank_triples`` and
    ``score_all_tails`` (distance tiles into ``KeepKeys``).  ``tiled=False``
    leaves the block sizes to a caller that patched them already.
    """
    model, (heads, relations, tails, tail_ex, head_ex) = _build(case)
    b, n = heads.shape[0], model.n_entities
    tile, block = (_tiled(model, case["tile"], b) if tiled
                   else (contextlib.nullcontext(), contextlib.nullcontext()))
    try:
        with tile, block, np.errstate(all="ignore"):
            anchor_rows = model.entity_embedding_rows(np.concatenate([heads, tails]))
            stacked = np.concatenate([relations, relations])
            groups = model._query_groups(anchor_rows, stacked, b)
            lo, hi = model._target_key_brackets(groups, np.roll(anchor_rows, b, axis=0))
            counter = RankCounter(n, np.concatenate([tails, heads]),
                                  stack_exclusions((tail_ex, head_ex), b, n), lo, hi)
            model._walk_keys(groups, counter)
            ranks, unresolved = counter.ranks()
            keep = ranking.KeepKeys(2 * b, n)
            model._walk_keys(groups, keep)
            return {"ranks": ranks, "unresolved": unresolved,
                    "settled": counter.settled, "target": counter.target,
                    "keys": keep.keys,
                    "rank_triples": np.concatenate(model.rank_triples(
                        heads, relations, tails, tail_ex, head_ex)),
                    "score_all_tails": model.score_all_tails(heads, relations)}
    finally:
        _close(model)


def _assert_same(got, want):
    assert sorted(got) == sorted(want)
    for name in got:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


def digest(result):
    h = hashlib.sha256()
    for name in sorted(result):
        h.update(name.encode())
        h.update(np.ascontiguousarray(result[name]).tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------------- #
# Split against inline
# --------------------------------------------------------------------------- #
@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=_cases())
def test_split_walk_equals_the_inline_walk(case):
    got = outputs(case)
    with _inline():
        want = outputs(case)
    _assert_same(got, want)
    if case["table"] == "all_equal":
        assert got["unresolved"].all()


def test_a_split_happens(shares_seen):
    case = {"model": "TransE", "n": 40, "r": 2, "d": 4, "b": 3, "table": "random",
            "seed": 1, "tile": 5, "filtered": True, "second": False}
    outputs(case)
    _assert_split(shares_seen)


#: Fixed cases for the one-CPU child: every model and table kind.
CHILD_CASES = [
    {"model": model, "n": 30 + 3 * i, "r": 1 + i % 3, "d": 3 + i % 3, "b": 2 + i % 4,
     "table": TABLES[i % len(TABLES)], "seed": 100 + i, "tile": 4 + i % 3,
     "filtered": i % 2 == 0, "second": i % 3 == 1}
    for i, model in enumerate(sorted(MODELS) * 2)]


@pytest.mark.parametrize("case", CHILD_CASES, ids=lambda case: f"{case['model']}-"
                         f"{case['table']}-{case['seed']}")
def test_fixed_cases_split_equal_inline(case):
    got = outputs(case)
    with _inline():
        want = outputs(case)
    _assert_same(got, want)


def test_one_cpu_child_walks_inline_to_the_same_bits():
    """A process whose affinity is one CPU starts no worker and walks every
    block inline; its results equal this process's split walks.  The child
    imports numpy before it narrows its affinity, so its BLAS runs as many
    threads as this process's and rounds each tile the same way."""
    here = [digest(outputs(case)) for case in CHILD_CASES]
    script = (
        "import numpy, os, sys, threading\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        "import test_walk_split as t\n"
        "for case in t.CHILD_CASES:\n"
        "    print(t.digest(t.outputs(case)))\n"
        "print('threads', threading.active_count())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.split("\n")
    assert "threads 1" in lines
    assert lines[:len(here)] == here


def test_concurrent_walks_each_equal_the_inline_walk():
    """More walking threads than CPUs, switching every microsecond: a walk
    that finds the pool busy counts every block into its first part on its
    own thread, and each result still equals its inline walk."""
    base = {"model": "TransE", "n": 40, "r": 2, "d": 4, "b": 3, "table": "random",
            "tile": 5, "filtered": True, "second": False}
    cases = [dict(base, seed=200 + i) for i in range(2 * CPUS + 2)]
    got, failures = [None] * len(cases), []

    def walker(i):
        try:
            for _ in range(3):
                got[i] = digest(outputs(cases[i], tiled=False))
                if got[i] != want[i]:
                    failures.append(i)
        except Exception as exc:  # reported below with the case's index
            failures.append((i, repr(exc)))

    # The block sizes are patched once, here: a patch entered and left by
    # each thread could restore another thread's value on exit.
    tile, block = _tiled(MODELS["TransE"](40, 2, 4), base["tile"], base["b"])
    interval = sys.getswitchinterval()
    with tile, block:
        with _inline():
            want = [digest(outputs(case, tiled=False)) for case in cases]
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walker, args=(i,))
                       for i in range(len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [] and got == want


@pytest.mark.parametrize("max_resident", [1, 2])
def test_partitioned_walk_faults_as_the_inline_walk(max_resident, tmp_path,
                                                   shares_seen):
    """P = 4: the caller pulls each round's blocks itself, so the buckets
    fault in the inline walk's order and as often."""
    def run(directory):
        model = SpTransE(120, 3, 4, rng=2, partitions=4, max_resident=max_resident,
                         partition_dir=str(directory))
        rng = np.random.default_rng(3)
        triples = np.stack([rng.integers(0, 120, 20), rng.integers(0, 3, 20),
                            rng.integers(0, 120, 20)], axis=1)
        tile, block = _tiled(model, 7, 20)
        try:
            with tile, block:
                before = model.entity_table().stats()["faults"]
                ranks = np.concatenate(model.rank_triples(*triples.T))
                return ranks.tobytes(), model.entity_table().stats()["faults"] - before
        finally:
            _close(model)

    got = run(tmp_path / "split")
    _assert_split(shares_seen)
    with _inline():
        want = run(tmp_path / "inline")
    assert got == want
    assert got[1] > 4  # more faults than buckets: the walk did page


# --------------------------------------------------------------------------- #
# RankCounter.fork / merge
# --------------------------------------------------------------------------- #
@st.composite
def _tilings(draw):
    b, n = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    keys = rng.integers(-3, 4, (b, n)).astype(np.float64) / 4
    keys[rng.random((b, n)) < 0.05] = np.nan
    cuts = np.unique(np.r_[0, np.sort(rng.integers(0, n + 1, draw(st.integers(0, 4)))), n])
    groups = draw(st.integers(1, min(3, b)))
    owner = rng.integers(0, groups, b)
    return {"keys": keys, "cuts": cuts, "owner": owner, "groups": groups,
            "true": rng.integers(0, n, b),
            "exclusions": (rng.integers(0, b, 2 * b), rng.integers(0, n, 2 * b)),
            "approximate": draw(st.booleans()),
            "margin": draw(st.sampled_from([0.0, 0.1, 1.0])),
            "parts": draw(st.integers(1, 4)), "seed": seed}


def _tiles(t):
    """``(keys, rows, start, margin, settle)`` covering every (query,
    candidate) pair once: column ranges by row groups."""
    keys, out = t["keys"], []
    for start, stop in zip(t["cuts"][:-1], t["cuts"][1:]):
        for g in range(t["groups"]):
            rows = np.flatnonzero(t["owner"] == g)
            if not rows.size:
                continue
            tile = keys[rows, start:stop]
            if not t["approximate"]:
                out.append((np.ascontiguousarray(tile), rows, int(start), None, None))
                continue
            # fp32 keys within ``margin`` of the exact ones; settling reads
            # the exact keys back with no slack.
            approx = (tile + t["margin"] * np.random.default_rng(start).uniform(
                -1, 1, tile.shape)).astype(np.float32)

            def settle(j, c, rows=rows, start=start):
                return keys[rows[j], start + c], np.zeros(j.size)
            out.append((approx, rows, int(start),
                        np.full(rows.size, t["margin"] + 1e-6), settle))
    return out


def _state(counter):
    ranks, unresolved = counter.ranks()
    return [ranks.tobytes(), unresolved.tobytes(), counter.settled.tobytes(),
            counter.target.tobytes()]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(t=_tilings())
def test_fork_merge_equals_one_counter(t):
    keys = t["keys"]
    target = keys[np.arange(keys.shape[0]), t["true"]]
    lo, hi = target - 0.2, target + 0.2

    def counter():
        return RankCounter(keys.shape[1], t["true"], t["exclusions"], lo, hi)

    tiles = _tiles(t)
    one = counter()
    with np.errstate(invalid="ignore"):
        for tile in tiles:
            one.count(*tile)
        whole = counter()
        parts = [whole.fork() for _ in range(t["parts"])]
        # Any split of the tile sequence, each part's tiles in any order.
        assign = np.random.default_rng(t["seed"]).integers(0, t["parts"], len(tiles))
        for k in np.random.default_rng(t["seed"] + 1).permutation(len(tiles)):
            parts[assign[k]].count(*tiles[k])
        for part in parts:
            whole.merge(part)
    assert _state(whole) == _state(one)


def test_fork_shares_the_queries_and_owns_its_counts():
    counter = RankCounter(5, np.array([1, 2]), None, np.zeros(2), np.ones(2))
    part = counter.fork()
    assert part.lo is counter.lo and part.true is counter.true
    part.count(np.full((2, 5), 0.5), slice(None), 0)
    assert not counter.settled.any() and np.isnan(counter.target).all()
    counter.merge(part)
    np.testing.assert_array_equal(counter.target, [0.5, 0.5])


# --------------------------------------------------------------------------- #
# Failures, FLOPs, the tape
# --------------------------------------------------------------------------- #
def _walk_residual(model, b=4, residual=None):
    rng = np.random.default_rng(9)
    heads, relations = rng.integers(0, model.n_entities, b), rng.integers(0, 2, b)
    groups = model._query_groups(model.entity_embedding_rows(heads), relations, b)
    keep = ranking.KeepKeys(b, model.n_entities)
    tile, block = _tiled(model, 6, b)
    with tile, block:
        if residual is not None:
            with mock.patch.object(model, "_residual_keys", residual):
                model._walk_keys(groups, keep)
        else:
            model._walk_keys(groups, keep)
    return keep.keys


@pytest.mark.skipif(not SPLITS, reason="the walk splits at two CPUs and one BLAS thread")
def test_worker_exception_reaches_the_caller_and_the_pool_stays_usable():
    model = SpTransE(60, 2, 4, dissimilarity="L1", rng=4)
    real = model._residual_keys

    def failing(queries, cand, direction):
        if threading.current_thread().name.startswith("repro-rows-cpu"):
            raise ValueError("block failed")
        return real(queries, cand, direction)

    for _ in range(2):
        with pytest.raises(ValueError, match="block failed"):
            _walk_residual(model, residual=failing)
    got = _walk_residual(model)
    with _inline():
        want = _walk_residual(model)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["TransE-L1", "TorusE", "TransH"])
def test_flop_totals_equal_the_inline_walk(name, shares_seen):
    """Residual and distance tiles count through autograd ops and
    ``l2_distance_matrix``; each share tallies its own and the caller adds
    the tallies, once."""
    case = {"model": name, "n": 48, "r": 2, "d": 4, "b": 4, "table": "random",
            "seed": 5, "tile": 6, "filtered": True, "second": False}
    with flop_counter() as outer, flop_counter() as split:
        outputs(case)
    _assert_split(shares_seen)
    with _inline(), flop_counter() as inline:
        outputs(case)
    assert split.flops > 0
    assert split.per_op == inline.per_op == outer.per_op


def test_workers_build_no_tape(shares_seen):
    model = SpTransH(60, 2, 4, dissimilarity="L1", rng=4)
    real = model._residual_keys
    seen = []

    def recording(queries, cand, direction):
        probe = Tensor(np.zeros(1), requires_grad=True)
        seen.append((threading.current_thread().name, is_grad_enabled(),
                     probe.requires_grad))
        return real(queries, cand, direction)

    _walk_residual(model, residual=recording)
    _assert_split(shares_seen)
    assert seen and not any(grad or requires for _, grad, requires in seen)


@pytest.mark.skipif(CPUS < 2 or kernels.blas_threads() == 0,
                    reason="needs two CPUs and a BLAS whose thread count reads")
def test_a_multi_threaded_blas_walks_inline():
    """At two BLAS threads the walk stays on the calling thread (a pinned
    worker calling a threaded sgemm stalls); at one it splits."""
    script = (
        "import sys, threading\n"
        f"sys.path.insert(0, {os.path.dirname(__file__)!r})\n"
        "import test_walk_split as t\n"
        "t.outputs(t.CHILD_CASES[1])\n"
        "print(t.kernels.blas_threads(), sum(thread.name.startswith('repro-rows')\n"
        "                                    for thread in threading.enumerate()))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    seen = {}
    for threads in (1, 2):
        env["OPENBLAS_NUM_THREADS"] = str(threads)
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        seen[threads] = tuple(int(x) for x in result.stdout.split())
    assert seen == {1: (1, CPUS), 2: (2, 0)}
