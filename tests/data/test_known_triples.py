"""KnownTriples against a plain ``set`` + ``dict`` oracle on generated graphs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import KGDataset, KnownTriples

#: Entity-id offsets: a dense graph, and one whose ids sit near 2**40, where a
#: composite ``anchor * n + relation`` key would leave int64.
OFFSETS = (0, 2**40 - 3)


@st.composite
def graphs(draw):
    """``(triples, oracle set, tails dict, heads dict, probe ids)`` of a small graph.

    Few entities and relations, many triples: duplicates, ``head == tail``,
    single-relation graphs and ``(anchor, relation)`` pairs without any known
    triple all turn up; an empty triple list is the empty graph.
    """
    n_entities = draw(st.integers(1, 6))
    n_relations = draw(st.integers(1, 3))
    offset = draw(st.sampled_from(OFFSETS))
    rel_offset = draw(st.sampled_from(OFFSETS))
    entity = st.integers(0, n_entities - 1).map(lambda e: e + offset)
    relation = st.integers(0, n_relations - 1).map(lambda r: r + rel_offset)
    triples = draw(st.lists(st.tuples(entity, relation, entity), max_size=40))
    known = set(triples)
    tails, heads = {}, {}
    for h, r, t in known:
        tails.setdefault((h, r), set()).add(t)
        heads.setdefault((t, r), set()).add(h)
    # Probe ids: everything in the graph plus ids on either side of it.
    entities = sorted({e + offset for e in range(-1, n_entities + 2) if e + offset >= 0}
                      | {0, 2**40 + 7})
    relations = sorted({r + rel_offset for r in range(-1, n_relations + 2)
                        if r + rel_offset >= 0} | {0})
    return triples, known, tails, heads, entities, relations


def as_array(triples):
    return np.array(triples, dtype=np.int64).reshape(-1, 3)


SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


class TestSetProtocol:
    @given(graphs())
    @SETTINGS
    def test_len_iter_eq_in(self, graph):
        triples, oracle, _, _, entities, relations = graph
        known = KnownTriples(as_array(triples))
        assert len(known) == len(oracle)
        listed = list(known)
        assert listed == sorted(oracle)
        assert all(type(x) is int for triple in listed for x in triple)
        assert known == oracle and oracle == known
        assert not known != oracle
        assert known != oracle | {(0, 0, 2**41)}
        assert bool(known) == bool(oracle)
        for h in entities:
            for r in relations:
                for t in entities:
                    assert ((h, r, t) in known) == ((h, r, t) in oracle)

    def test_in_rejects_non_triples(self):
        known = KnownTriples([(0, 0, 1)])
        assert (0, 0, 1) in known
        assert (np.int64(0), np.int64(0), np.int64(1)) in known
        for item in ("abc", (0, 0), (0, 0, 1, 2), None, 7, ("a", "b", "c"),
                     (0, 0, 2**70), (-1, 0, 1)):
            assert item not in known

    def test_set_operators_come_with_the_abc(self):
        known = KnownTriples([(0, 0, 1), (1, 0, 2)])
        assert known & {(0, 0, 1), (5, 5, 5)} == {(0, 0, 1)}
        assert known | {(5, 5, 5)} == {(0, 0, 1), (1, 0, 2), (5, 5, 5)}
        assert known <= {(0, 0, 1), (1, 0, 2), (3, 3, 3)}
        assert known.isdisjoint({(9, 9, 9)})
        with pytest.raises(TypeError):
            hash(known)

    def test_rows_are_unique_sorted_and_read_only(self):
        known = KnownTriples(as_array([(2, 0, 1), (0, 1, 0), (2, 0, 1), (0, 0, 5)]))
        np.testing.assert_array_equal(known.triples,
                                      [[0, 0, 5], [0, 1, 0], [2, 0, 1]])
        assert known.triples.dtype == np.int64
        with pytest.raises(ValueError):
            known.triples[0, 0] = 9
        with pytest.raises(ValueError):
            known.values("tail", 2, 0)[0] = 9


class TestLookups:
    @given(graphs())
    @SETTINGS
    def test_values(self, graph):
        triples, _, tails, heads, entities, relations = graph
        known = KnownTriples(as_array(triples))
        for side, oracle in (("tail", tails), ("head", heads)):
            for anchor in entities:
                for relation in relations:
                    got = known.values(side, anchor, relation)
                    assert got.dtype == np.int64
                    assert got.tolist() == sorted(oracle.get((anchor, relation), ()))

    @given(graphs(), st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_exclusions(self, graph, seed):
        triples, _, tails, heads, entities, relations = graph
        known = KnownTriples(as_array(triples))
        rng = np.random.default_rng(seed)
        b = int(rng.integers(0, 12))
        anchors = rng.choice(entities, size=b)
        rels = rng.choice(relations, size=b)
        for side, oracle in (("tail", tails), ("head", heads)):
            rows, cols = known.exclusions(side, anchors, rels)
            assert rows.dtype == cols.dtype == np.int64
            assert rows.shape == cols.shape and rows.ndim == 1
            want = [sorted(oracle.get((int(a), int(r)), ()))
                    for a, r in zip(anchors, rels)]
            got = [cols[rows == i].tolist() for i in range(b)]
            assert got == want
            assert (np.diff(rows) >= 0).all()
            assert rows.size == sum(map(len, want))

    @given(graphs(), st.integers(0, 2**32 - 1))
    @SETTINGS
    def test_contains(self, graph, seed):
        triples, oracle, _, _, entities, relations = graph
        known = KnownTriples(as_array(triples))
        rng = np.random.default_rng(seed)
        b = int(rng.integers(0, 30))
        probes = np.stack([rng.choice(entities, size=b), rng.choice(relations, size=b),
                           rng.choice(entities, size=b)], axis=1).astype(np.int64)
        if triples:  # make sure members are probed, not only near misses
            probes = np.concatenate([probes, as_array(triples)[:10]])
        mask = known.contains(probes)
        assert mask.dtype == np.bool_ and mask.shape == (probes.shape[0],)
        assert mask.tolist() == [tuple(row) in oracle for row in probes.tolist()]

    @given(graphs())
    @SETTINGS
    def test_coerce(self, graph):
        triples, oracle, _, _, _, _ = graph
        known = KnownTriples(as_array(triples))
        assert KnownTriples.coerce(known) is known
        for plain in (oracle, list(triples), as_array(triples), frozenset(oracle)):
            coerced = KnownTriples.coerce(plain)
            assert isinstance(coerced, KnownTriples)
            assert coerced == known
            np.testing.assert_array_equal(coerced.triples, known.triples)


class TestEdges:
    def test_empty_graph(self):
        for known in (KnownTriples(), KnownTriples(set()),
                      KnownTriples(np.empty((0, 3), dtype=np.int64))):
            assert len(known) == 0 and list(known) == [] and known == set()
            assert (0, 0, 0) not in known
            assert known.values("tail", 0, 0).shape == (0,)
            rows, cols = known.exclusions("head", np.array([0, 3]), np.array([0, 1]))
            assert rows.shape == cols.shape == (0,)
            assert known.contains(np.array([[0, 0, 0], [1, 2, 3]])).tolist() == [False, False]
            assert known.contains(np.empty((0, 3), dtype=np.int64)).shape == (0,)

    def test_large_ids_do_not_collide(self):
        """Pairs that a wrapped ``anchor * 2**40 + relation`` key would merge."""
        big = 2**40
        triples = [(big, big - 1, 5), (big - 1, big, 6), (big, big, big),
                   (0, big, 1), (1, 0, 1)]
        known = KnownTriples(triples)
        assert known == set(triples)
        assert known.values("tail", big, big - 1).tolist() == [5]
        assert known.values("tail", big - 1, big).tolist() == [6]
        assert known.values("head", big, big).tolist() == [big]
        assert known.values("tail", big, 0).tolist() == []
        probes = np.array(triples + [(big, big - 1, 6), (big - 1, big, 5)])
        assert known.contains(probes).tolist() == [True] * 5 + [False] * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            KnownTriples([(0, 0, -1)])
        with pytest.raises(ValueError):
            KnownTriples(np.zeros((4, 2), dtype=np.int64))
        known = KnownTriples([(0, 0, 1)])
        with pytest.raises(ValueError, match="side"):
            known.values("relation", 0, 0)
        with pytest.raises(ValueError, match="side"):
            known.exclusions("both", np.array([0]), np.array([0]))
        with pytest.raises(ValueError, match="align"):
            known.exclusions("tail", np.array([0, 1]), np.array([0]))

    def test_dataset_returns_the_index_over_all_splits(self):
        kg = KGDataset(triples=np.array([[0, 0, 1], [1, 0, 2], [2, 1, 0], [0, 0, 1],
                                         [3, 1, 3], [1, 1, 1]]))
        split = kg.split_train_valid_test(0.2, 0.2, rng=0)
        known = split.known_triples()
        assert isinstance(known, KnownTriples)
        assert known == {tuple(row) for row in split.split.all_triples().tolist()}

    def test_footprint_is_a_fraction_of_the_tuple_set(self):
        rng = np.random.default_rng(0)
        triples = np.stack([rng.integers(0, 3000, 20000), rng.integers(0, 11, 20000),
                            rng.integers(0, 3000, 20000)], axis=1)
        known = KnownTriples(triples)
        # 24 B/row + 8 B/value on each side + the pair and anchor pointers;
        # the set of tuples it replaces measured 173 B/triple.
        assert known.nbytes <= 90 * len(known)
