"""Tests for file loaders and the SQLite-backed store."""

import numpy as np
import pytest

from repro.data import SQLiteKGStore, load_csv, load_triples_file, load_tsv, load_ttl
from repro.data.loaders import parse_ttl_lines
from repro.data.synthetic import generate_synthetic_kg


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "kg.csv"
    path.write_text(
        "alice,knows,bob\n"
        "bob,knows,carol\n"
        "\n"
        "carol,likes,alice\n"
    )
    return str(path)


@pytest.fixture
def tsv_file(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("h\tr\tt\nalice\tknows\tbob\nbob\tlikes\tcarol\n")
    return str(path)


@pytest.fixture
def ttl_file(tmp_path):
    path = tmp_path / "kg.ttl"
    path.write_text(
        "@prefix ex: <http://example.org/> .\n"
        "# a comment line\n"
        "ex:alice ex:knows ex:bob .\n"
        "<http://example.org/bob> <http://example.org/knows> <http://example.org/carol> .\n"
        'ex:carol ex:name "Carol" .\n'
    )
    return str(path)


class TestCSVLoader:
    def test_load_and_vocab(self, csv_file):
        kg = load_csv(csv_file)
        assert kg.n_triples == 3
        assert kg.n_entities == 3
        assert kg.n_relations == 2
        assert kg.entity_vocab.index("alice") == 0

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/file.csv")

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError):
            load_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError):
            load_csv(str(path))

    def test_custom_columns(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("x,alice,knows,bob\nx,bob,knows,carol\n")
        kg = load_csv(str(path), columns=(1, 2, 3))
        assert kg.n_triples == 2

    def test_tsv_with_header(self, tsv_file):
        kg = load_tsv(tsv_file, skip_header=True)
        assert kg.n_triples == 2
        assert kg.n_relations == 2


class TestTTLLoader:
    def test_load(self, ttl_file):
        kg = load_ttl(ttl_file)
        assert kg.n_triples == 3
        assert kg.n_relations == 2  # knows, name
        assert "http://example.org/alice" in kg.entity_vocab

    def test_prefix_expansion(self):
        triples = list(parse_ttl_lines([
            "@prefix ex: <http://ex.org/> .",
            "ex:a ex:p ex:b .",
        ]))
        assert triples == [("http://ex.org/a", "http://ex.org/p", "http://ex.org/b")]

    def test_semicolon_and_comma_shorthand(self):
        triples = list(parse_ttl_lines([
            "<s> <p> <o1> ;",
            "<p2> <o2> ,",
            "<o3> .",
        ]))
        assert ("s", "p", "o1") in triples
        assert ("s", "p2", "o2") in triples
        assert ("s", "p2", "o3") in triples

    def test_malformed_statement(self):
        with pytest.raises(ValueError):
            list(parse_ttl_lines(["<s> <p> ."]))

    def test_literal_object(self):
        triples = list(parse_ttl_lines(['<s> <p> "some value" .']))
        assert triples[0][2] == "some value"


class TestDispatch:
    def test_by_extension(self, csv_file, tsv_file, ttl_file):
        assert load_triples_file(csv_file).n_triples == 3
        assert load_triples_file(ttl_file).n_triples == 3

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "kg.parquet"
        path.write_text("x")
        with pytest.raises(ValueError):
            load_triples_file(str(path))


class TestSQLiteStore:
    def test_ingest_and_counts(self):
        kg = generate_synthetic_kg(30, 4, 100, rng=0, valid_fraction=0.1, test_fraction=0.1)
        with SQLiteKGStore() as store:
            store.ingest_dataset(kg)
            assert store.n_entities == kg.n_entities
            assert store.n_relations == kg.n_relations
            assert store.n_triples("train") == kg.split.n_train
            assert store.n_triples(None) == (kg.split.n_train + kg.split.n_valid
                                             + kg.split.n_test)

    def test_block_bounds_and_fetch_block_cover_a_split(self):
        kg = generate_synthetic_kg(20, 3, 70, rng=5, valid_fraction=0.2)
        with SQLiteKGStore() as store:
            store.ingest_dataset(kg)
            for split in ("train", "valid"):
                bounds = store.block_bounds(16, split=split)
                total = sum(store.fetch_block(lo, hi, split=split).shape[0]
                            for lo, hi in bounds)
                assert total == store.n_triples(split)
            fetched = np.concatenate(
                [store.fetch_block(lo, hi) for lo, hi in store.block_bounds(16)],
                axis=0)
            np.testing.assert_array_equal(fetched, kg.split.train)

    def test_file_backed_store(self, tmp_path):
        path = str(tmp_path / "kg.db")
        kg = generate_synthetic_kg(10, 2, 20, rng=3)
        store = SQLiteKGStore(path)
        store.ingest_dataset(kg)
        store.close()
        reopened = SQLiteKGStore(path)
        assert reopened.n_triples("train") == 20
        reopened.close()

    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    def test_fetch_block_returns_each_split_in_order(self, split):
        kg = generate_synthetic_kg(25, 3, 90, rng=7, valid_fraction=0.2,
                                   test_fraction=0.2)
        with SQLiteKGStore() as store:
            store.ingest_dataset(kg)
            expected = getattr(kg.split, split)
            assert store.n_triples(split) == expected.shape[0]
            fetched = store.fetch_block(0, store.n_triples(split) - 1, split=split)
            np.testing.assert_array_equal(fetched, expected)
            assert fetched.dtype == np.int64

    def test_second_ingest_appends_rows_and_keeps_the_vocabularies(self):
        kg = generate_synthetic_kg(15, 2, 40, rng=2)
        with SQLiteKGStore() as store:
            store.ingest_dataset(kg)
            store.ingest_dataset(kg)
            assert store.n_entities == kg.n_entities
            assert store.n_relations == kg.n_relations
            stored = store.fetch_block(0, store.n_triples("train") - 1)
            np.testing.assert_array_equal(
                stored, np.concatenate([kg.split.train, kg.split.train]))

    def test_fetch_block_of_an_empty_range_is_empty(self):
        kg = generate_synthetic_kg(10, 2, 20, rng=4)
        with SQLiteKGStore() as store:
            store.ingest_dataset(kg)
            assert store.fetch_block(5, 4).shape == (0, 3)
            assert store.fetch_block(0, -1, split="valid").shape == (0, 3)

    def test_meta_round_trips_and_overwrites(self):
        with SQLiteKGStore() as store:
            assert store.get_meta("fingerprint") is None
            store.set_meta("fingerprint", "abc")
            assert store.get_meta("fingerprint") == "abc"
            store.set_meta("fingerprint", 12)
            assert store.get_meta("fingerprint") == "12"

    def test_meta_survives_reopening(self, tmp_path):
        path = str(tmp_path / "kg.db")
        with SQLiteKGStore(path) as store:
            store.set_meta("spec", "{}")
        with SQLiteKGStore(path) as reopened:
            assert reopened.get_meta("spec") == "{}"

    def test_block_bounds_of_an_empty_split(self):
        kg = generate_synthetic_kg(10, 2, 20, rng=4)
        with SQLiteKGStore() as store:
            store.ingest_dataset(kg)
            assert store.n_triples("valid") == 0
            assert store.block_bounds(8, split="valid") == []
