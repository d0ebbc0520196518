import gc
import os
import warnings

import numpy as np
import pytest

from proxkg.kgdata import (ContractError, DataError, augment_inverse,
                           ingest_dataset, load_kg, sample_edge_dropout, save_kg)
from conftest import kg_from_triples, write_triples


def _ingest(tmp_path, train, valid=(), test=()):
    paths = []
    for name, rows in (("train", train), ("valid", valid), ("test", test)):
        p = tmp_path / f"{name}.txt"
        write_triples(p, rows)
        paths.append(p)
    return ingest_dataset(*paths)


def test_ingest_counts_and_interning(tmp_path):
    kg = _ingest(tmp_path,
                 train=[("a", "r0", "b"), ("b", "r1", "c")],
                 valid=[("a", "r0", "c")],
                 test=[("d", "r0", "a")])
    assert kg.n_entities == 4
    assert kg.n_relations == 2
    assert [len(kg.train), len(kg.valid), len(kg.test)] == [2, 1, 1]
    # first occurrence in train, then valid, then test
    assert kg.entities.surface(0) == "a"
    assert kg.entities.surface(3) == "d"
    assert kg.report["unseen_entities"] == ["d"]


def test_ingest_round_trip_vocabulary(tmp_path):
    kg = _ingest(tmp_path, train=[("x", "likes", "y"), ("y", "likes", "z")])
    for i in range(kg.n_entities):
        assert kg.entities.lookup(kg.entities.surface(i)) == i
    for i in range(kg.n_relations):
        assert kg.relations.lookup(kg.relations.surface(i)) == i


def test_ingest_empty_train_degenerate(tmp_path):
    kg = _ingest(tmp_path, train=[], test=[("a", "r", "b")])
    assert kg.n_entities == 2
    assert kg.n_relations == 1
    assert len(kg.train) == 0


def test_ingest_malformed_line(tmp_path):
    p = tmp_path / "train.txt"
    p.write_text("a\tb\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(DataError, match="train.txt:1"):
        ingest_dataset(p, empty, empty)


def test_ingest_rejects_duplicates(tmp_path):
    with pytest.raises(DataError, match="duplicate"):
        _ingest(tmp_path, train=[("a", "r", "b"), ("a", "r", "b")])


def test_ingest_accepts_crlf(tmp_path):
    p = tmp_path / "train.txt"
    p.write_bytes(b"a\tr\tb\r\nc\tr\td\r\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    kg = ingest_dataset(p, empty, empty)
    assert len(kg.train) == 2


def test_augment_inverse_basic():
    kg = kg_from_triples([("a", "r0", "b")])
    aug = augment_inverse(kg)
    assert aug.n_relations == 2
    assert len(aug.train) == 2
    h, r, t = aug.train[1]
    assert (h, r, t) == (kg.entities.lookup("b"), 1, kg.entities.lookup("a"))
    assert aug.relations.surface(1) == "r0_reverse"
    assert aug.augmented


def test_augment_inverse_double_raises():
    aug = augment_inverse(kg_from_triples([("a", "r", "b")]))
    with pytest.raises(ContractError):
        augment_inverse(aug)


def test_augment_inverse_empty_train():
    kg = kg_from_triples([], test=[("a", "r", "b")])
    aug = augment_inverse(kg)
    assert len(aug.train) == 0
    assert aug.n_relations == 2


def test_augment_counts_double():
    kg = kg_from_triples([("a", "r0", "b"), ("b", "r0", "c"), ("c", "r1", "a")])
    aug = augment_inverse(kg)
    assert len(aug.train) == 2 * len(kg.train)
    assert np.array_equal(aug.raw_train(), kg.train)


def test_edge_dropout_boundaries():
    aug = augment_inverse(kg_from_triples([("a", "r", "b"), ("b", "r", "c")]))
    assert len(sample_edge_dropout(aug, 7, 0.0)) == len(aug.train)
    assert len(sample_edge_dropout(aug, 7, 1.0)) == 0


def test_edge_dropout_deterministic_subset():
    rows = [(f"e{i}", "r", f"e{i+1}") for i in range(100)]
    aug = augment_inverse(kg_from_triples(rows))
    a = sample_edge_dropout(aug, 42, 0.3)
    b = sample_edge_dropout(aug, 42, 0.3)
    assert np.array_equal(a, b)
    assert set(a) <= set(range(len(aug.train)))
    c = sample_edge_dropout(aug, 43, 0.3)
    assert not np.array_equal(a, c)


def test_edge_dropout_binomial_interval():
    # 10,000 edges at drop 0.3: kept count within the 99.99% binomial band
    rows = [(f"a{i}", "r", f"b{i}") for i in range(5000)]
    aug = augment_inverse(kg_from_triples(rows))
    for seed in range(5):
        kept = len(sample_edge_dropout(aug, seed, 0.3))
        assert 6500 <= kept <= 7500


def test_edge_dropout_requires_augmented():
    kg = kg_from_triples([("a", "r", "b")])
    with pytest.raises(ContractError):
        sample_edge_dropout(kg, 0, 0.5)


def test_kg_serialization_round_trip(tmp_path):
    kg = augment_inverse(kg_from_triples(
        [("a", "r0", "b"), ("b", "r1", "c")], valid=[("a", "r1", "c")]))
    path = tmp_path / "kg.npz"
    save_kg(kg, path)
    back = load_kg(path)
    assert back.augmented
    assert back.num_raw_relations == 2
    assert np.array_equal(back.train, kg.train)
    assert np.array_equal(back.valid, kg.valid)
    assert back.entities.surfaces() == kg.entities.surfaces()
    assert back.relations.surfaces() == kg.relations.surfaces()
    # the file lands at exactly the path given, with no ".npz" appended
    save_kg(kg, tmp_path / "kg")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kg", "kg.npz"]
    assert load_kg(tmp_path / "kg").entities.surfaces() == kg.entities.surfaces()


def test_kg_file_holds_no_object_arrays(tmp_path):
    kg = kg_from_triples([("a", "r0", "b"), ("b\u00e9", "r1", "")])
    kg.report = {"note": "caf\u00e9 \u0000"}
    path = tmp_path / "kg.npz"
    save_kg(kg, path)
    with np.load(path, allow_pickle=False) as z:
        assert not any(z[name].dtype.hasobject for name in z.files)
        assert z["entities"].dtype.kind == "U"
    back = load_kg(path)
    assert back.entities.surfaces() == ["a", "b", "b\u00e9", ""]
    assert back.report == kg.report


def test_kg_surface_ending_in_nul_is_data_error(tmp_path):
    kg = kg_from_triples([("a", "r0", "a\x00")])
    with pytest.raises(DataError):
        save_kg(kg, tmp_path / "kg.npz")


class _SideEffect:
    """Unpickles by creating a directory, so running the pickle is visible."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return os.mkdir, (self.marker,)


def test_load_kg_never_unpickles(tmp_path):
    kg = kg_from_triples([("a", "r0", "b")])
    good = tmp_path / "good.npz"
    save_kg(kg, good)
    marker = tmp_path / "unpickled"
    with np.load(good, allow_pickle=True) as z:   # a file this test just wrote
        arrays = {name: z[name] for name in z.files}
    arrays["entities"] = np.array([_SideEffect(str(marker)), "b"], dtype=object)
    evil = tmp_path / "evil.npz"
    np.savez(evil, **arrays)
    with pytest.raises(DataError):
        load_kg(evil)
    assert not marker.exists()


def test_load_damaged_kg_closes_its_file(tmp_path):
    path = tmp_path / "kg.npz"
    save_kg(kg_from_triples([("a", "r0", "b")]), path)
    path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(DataError):
            load_kg(path)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
