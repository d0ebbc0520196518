import dataclasses
import re
import struct
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxkg.kgdata import ContractError, DataError, KnowledgeGraph, Vocabulary, augment_inverse
from proxkg.proximity import (HEAD_QUERY, TAIL_QUERY, QAPairIndex,
                              SPMMatrix, accumulate_spm, build_proximity_graph,
                              export_proximity_tsv, extract_qa_pairs,
                              load_proximity_graph, pm, proximity_stats,
                              save_proximity_graph)
from synth import random_kg
from conftest import kg_from_triples, spm_records


def brute_force_spm(index, M):
    """Oracle: enumerate every answer pair of every QA pair, no skipping."""
    entries = {}
    for pair in index.pairs:
        answers = sorted(pair.answers)
        if len(answers) < 2:
            continue
        value = max(M - len(answers), 0) / (M - 2)
        for a, b in combinations(answers, 2):
            entries[(a, b)] = entries.get((a, b), 0.0) + value
    return {k: v for k, v in entries.items() if v > 0.0}


def dict_spm(kg, M):
    """Reference: the dict-of-sets extraction and dict accumulation, as sorted records.

    Each pair sums the integer numerators M - |A| of its shared queries and
    divides once by M - 2.
    """
    tail_answers, head_answers = {}, {}
    for h, r, t in kg.raw_train().tolist():
        tail_answers.setdefault((h, r), set()).add(t)
        head_answers.setdefault((t, r), set()).add(h)
    numerators = {}
    for answers in [*tail_answers.values(), *head_answers.values()]:
        if 2 <= len(answers) < M:
            for key in combinations(sorted(answers), 2):
                numerators[key] = numerators.get(key, 0) + M - len(answers)
    return spm_records({key: total / (M - 2) for key, total in numerators.items()})


def test_extract_qa_pairs_toy():
    kg = kg_from_triples([("a", "r", "b"), ("a", "r", "c")])
    e = kg.entities.lookup
    index = extract_qa_pairs(kg)
    by_query = {(p.direction, p.anchor, p.relation): p for p in index.pairs}
    tail = by_query[(TAIL_QUERY, e("a"), 0)]
    assert tail.answers == frozenset({e("b"), e("c")})
    assert by_query[(HEAD_QUERY, e("b"), 0)].answers == {e("a")}
    assert by_query[(HEAD_QUERY, e("c"), 0)].answers == {e("a")}
    assert len(index.pairs) == 3


def test_extract_single_triple_two_singletons():
    kg = kg_from_triples([("a", "r", "b")])
    index = extract_qa_pairs(kg)
    assert len(index.pairs) == 2
    assert all(len(p.answers) == 1 for p in index.pairs)


def test_total_answers_is_twice_train(rng):
    kg = random_kg(rng, 30, 4, 200)
    index = extract_qa_pairs(kg)
    assert len(index.answers) == 2 * len(kg.train)


def test_pm_values():
    assert pm(50, 2) == 1.0
    assert pm(3, 2) == 1.0
    assert pm(50, 50) == 0.0
    assert pm(50, 120) == 0.0
    assert pm(50, 26) == pytest.approx(0.5)


def test_pm_rejects_bad_cutoff():
    assert pm(2 ** 32 - 1, 2) == 1.0
    for M in (2, 2 ** 32):          # pm needs M > 2; the graph file holds M in 32 bits
        with pytest.raises(ContractError):
            pm(M, 5)
        with pytest.raises(ContractError):
            accumulate_spm(QAPairIndex(np.empty((0, 3), np.int64), np.zeros(1, np.int64),
                                       np.empty(0, np.int64)), M)


def test_accumulate_spm_rejects_key_overflow():
    # (i * n + j) * M + (M - |A|) needs n * n * M < 2**63
    index = QAPairIndex(np.array([[TAIL_QUERY, 0, 0]]), np.array([0, 2]), np.array([0, 2 ** 31]))
    with pytest.raises(ContractError):
        accumulate_spm(index, 3)


@given(M=st.integers(3, 1000), size=st.integers(2, 2000))
def test_pm_bounds_property(M, size):
    value = pm(M, size)
    assert 0.0 <= value <= 1.0
    if size > 2:
        assert pm(M, size - 1) >= value


def test_accumulate_spm_worked_example():
    # q1 -> {a, b}, q2 -> {a, b, c}, M=4: ab = 1 + 0.5, ac = bc = 0.5
    index = QAPairIndex(np.array([[TAIL_QUERY, 10, 0], [TAIL_QUERY, 11, 0]]),
                        np.array([0, 2, 5]), np.array([0, 1, 0, 1, 2]))
    assert accumulate_spm(index, 4).entries == {(0, 1): 1.5, (0, 2): 0.5, (1, 2): 0.5}


def test_accumulate_spm_singleton_empty():
    index = QAPairIndex(np.array([[TAIL_QUERY, 0, 0]]), np.array([0, 1]), np.array([1]))
    assert accumulate_spm(index, 4).entries == {}


def test_accumulate_spm_skips_large_sets():
    index = QAPairIndex(np.array([[TAIL_QUERY, 0, 0]]), np.array([0, 10]), np.arange(10))
    assert accumulate_spm(index, 5).entries == {}


@pytest.mark.parametrize("M", [3, 4, 10])
def test_spm_matches_brute_force_oracle(M):
    rng = np.random.default_rng(M)
    for trial in range(20):
        n_e = int(rng.integers(5, 50))
        n_r = int(rng.integers(1, 5))
        n_train = int(rng.integers(10, min(300, n_e * n_e * n_r // 2)))
        kg = random_kg(rng, n_e, n_r, n_train)
        index = extract_qa_pairs(kg)
        fast = accumulate_spm(index, M).entries
        oracle = brute_force_spm(index, M)
        assert set(fast) == set(oracle)
        for key in oracle:
            assert fast[key] == pytest.approx(oracle[key], abs=1e-12)


@pytest.mark.parametrize("M", [3, 4, 10, 50])
def test_spm_records_equal_dict_pipeline(M):
    rng = np.random.default_rng(100 + M)
    kgs = [random_kg(rng, int(rng.integers(20, 60)), int(rng.integers(1, 5)), 150)
           for _ in range(10)]
    # a dense graph, its train triples fed in shuffled order: many queries of
    # mixed sizes share each pair, so a float sum of pm values in any query
    # order would differ from the exact quotient in the last bits
    dense = random_kg(rng, 14, 6, 500)
    dense.train = dense.train[rng.permutation(len(dense.train))]
    for kg in kgs + [dense]:
        want = dict_spm(kg, M)
        assert accumulate_spm(extract_qa_pairs(kg), M).records.tobytes() == want.tobytes()
        augmented = extract_qa_pairs(augment_inverse(kg))
        assert accumulate_spm(augmented, M).records.tobytes() == want.tobytes()


def test_train_triple_order_changes_nothing(tmp_path):
    rng = np.random.default_rng(7)
    kg = random_kg(rng, 14, 6, 500)
    shuffled = dataclasses.replace(kg, train=kg.train[rng.permutation(len(kg.train))])
    outputs = []
    for name, graph_kg in (("kg", kg), ("shuffled", shuffled)):
        spm = accumulate_spm(extract_qa_pairs(graph_kg), 50)
        graph = build_proximity_graph(spm, 0.0, graph_kg.n_entities)
        path = tmp_path / f"{name}.bin"
        save_proximity_graph(graph, path)
        outputs.append((spm.records.tobytes(), graph.edges.tobytes(), path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_exact_weight_at_threshold_makes_no_edge():
    # entities 0 and 1 share four queries of sizes 8, 10, 9, 11 at M=12: the
    # numerators 4 + 2 + 3 + 1 over 10 are exactly 1.0, while the float sum
    # 0.4 + 0.2 + 0.3 + 0.1 in that order is 1.0000000000000002
    sets = [[0, 1, *range(2, 8)], [0, 1, *range(8, 16)],
            [0, 1, *range(16, 23)], [0, 1, *range(23, 32)]]
    index = QAPairIndex(np.array([[TAIL_QUERY, 100 + q, 0] for q in range(4)]),
                        np.cumsum([0] + [len(s) for s in sets]), np.concatenate(sets))
    spm = accumulate_spm(index, 12)
    assert spm.entries[(0, 1)] == 1.0
    assert build_proximity_graph(spm, 1.0, 32).n_edges == 0


def test_build_graph_threshold_strict():
    spm = SPMMatrix(spm_records({(0, 1): 1.5, (0, 2): 0.5}), M=4)
    graph = build_proximity_graph(spm, 1.0, 3)
    assert graph.n_edges == 1
    assert graph.edges.tolist() == [(0, 1, 1.5)]
    # boundary: equality does not connect
    assert build_proximity_graph(SPMMatrix(spm_records({(0, 1): 0.5}), 4), 0.5, 2).n_edges == 0


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -1.0])
def test_build_graph_rejects_threshold_outside_finite_range(threshold):
    spm = SPMMatrix(spm_records({(0, 1): 1.5}), M=4)
    with pytest.raises(ContractError, match="threshold I"):
        build_proximity_graph(spm, threshold, 2)


def test_build_graph_empty():
    assert build_proximity_graph(SPMMatrix(spm_records({}), 4), 0.0, 5).n_edges == 0


def test_threshold_monotonicity(rng):
    kg = random_kg(rng, 40, 3, 250)
    spm = accumulate_spm(extract_qa_pairs(kg), 10)
    thresholds = [0.0, 0.3, 0.7, 1.5, 3.0]
    edge_sets = []
    for I in thresholds:
        g = build_proximity_graph(spm, I, kg.n_entities)
        edge_sets.append({(int(i), int(j)) for i, j, _ in g.edge_list()})
    for low, high in zip(edge_sets, edge_sets[1:]):
        assert high <= low


def test_proximity_stats():
    spm = SPMMatrix(spm_records({(0, 1): 1.5, (0, 2): 0.5}), M=4)
    graph = build_proximity_graph(spm, 1.0, 3)
    stats = proximity_stats(graph)
    assert stats["n_edges"] == 1
    assert stats["isolated_entities"] == 1
    assert stats["degree_histogram"] == {"0": 1, "1": 2}
    degrees = sum(int(k) * v for k, v in stats["degree_histogram"].items())
    assert degrees == 2 * stats["n_edges"]
    empty = proximity_stats(build_proximity_graph(SPMMatrix(spm_records({}), 4), 0.0, 3))
    assert empty["n_edges"] == 0
    assert empty["isolated_entities"] == 3


def test_graph_serialization_round_trip(tmp_path, rng):
    kg = random_kg(rng, 30, 3, 200)
    spm = accumulate_spm(extract_qa_pairs(kg), 10)
    graph = build_proximity_graph(spm, 0.5, kg.n_entities)
    path = tmp_path / "graph.bin"
    save_proximity_graph(graph, path)
    back = load_proximity_graph(path)
    assert back.n_entities == graph.n_entities
    assert back.threshold == graph.threshold
    assert back.M == graph.M
    assert back.edges.dtype == graph.edges.dtype
    assert np.array_equal(back.edges, graph.edges)
    # identical inputs give bit-identical serializations
    path2 = tmp_path / "graph2.bin"
    save_proximity_graph(graph, path2)
    assert path.read_bytes() == path2.read_bytes()


class _FailingRecords(np.ndarray):
    """Edge records whose bytes cannot be produced, so a save fails after its header."""

    def tobytes(self, order="C"):
        raise OSError("no space left on device")


def test_failed_graph_save_leaves_previous_file(tmp_path, rng):
    kg = random_kg(rng, 30, 3, 200)
    graph = build_proximity_graph(accumulate_spm(extract_qa_pairs(kg), 10), 0.5, kg.n_entities)
    path = tmp_path / "proximity_graph.bin"
    save_proximity_graph(graph, path)
    before = path.read_bytes()
    graph.edges = graph.edges[:-1].view(_FailingRecords)
    with pytest.raises(OSError):
        save_proximity_graph(graph, path)
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


def test_graph_tsv_export(tmp_path):
    spm = SPMMatrix(spm_records({(1, 2): 2.25, (0, 1): 1.5}), M=4)
    graph = build_proximity_graph(spm, 1.0, 3)
    path = tmp_path / "graph.tsv"
    export_proximity_tsv(graph, path)
    assert path.read_text() == "0\t1\t1.5\n1\t2\t2.25\n"


def test_graph_bytes_match_independent_encoding(tmp_path, rng):
    """The file is a '<IQdIQ' header and '<QQd' records sorted by (i, j), one per edge."""
    kg = random_kg(rng, 30, 3, 200)
    spm = accumulate_spm(extract_qa_pairs(kg), 10)
    graph = build_proximity_graph(spm, 0.5, kg.n_entities)
    rows = sorted((i, j, w) for (i, j), w in spm.entries.items() if w > 0.5)
    assert rows
    want = b"PXGR" + struct.pack("<IQdIQ", 1, kg.n_entities, 0.5, 10, len(rows))
    want += b"".join(struct.pack("<QQd", i, j, w) for i, j, w in rows)
    path = tmp_path / "graph.bin"
    save_proximity_graph(graph, path)
    assert path.read_bytes() == want
    assert load_proximity_graph(path).edge_list().tolist() == [list(map(float, r)) for r in rows]


def test_proximity_stats_weight_quantiles(rng):
    kg = random_kg(rng, 30, 3, 200)
    spm = accumulate_spm(extract_qa_pairs(kg), 10)
    graph = build_proximity_graph(spm, 0.5, kg.n_entities)
    # every edge weight counted once from each endpoint's neighbourhood
    per_endpoint = [w for (i, j), w in spm.entries.items() if w > 0.5 for _ in (i, j)]
    qs = np.quantile(per_endpoint, [0.0, 0.25, 0.5, 0.75, 1.0])
    got = proximity_stats(graph)["weight_quantiles"]
    assert [got[k] for k in ("min", "q25", "median", "q75", "max")] == qs.tolist()


def _saved_graph(tmp_path):
    graph = build_proximity_graph(SPMMatrix(spm_records({(0, 1): 1.5, (1, 2): 2.0}), M=4), 1.0, 3)
    path = tmp_path / "graph.bin"
    save_proximity_graph(graph, path)
    return path, path.read_bytes()


@pytest.mark.parametrize("cut", [1, 24, 60])  # last record partly, one record, into the header
def test_load_rejects_truncated_file(tmp_path, cut):
    path, data = _saved_graph(tmp_path)
    path.write_bytes(data[:-cut])
    with pytest.raises(DataError):
        load_proximity_graph(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path, data = _saved_graph(tmp_path)
    path.write_bytes(data + b"\0" * 24)
    with pytest.raises(DataError):
        load_proximity_graph(path)


def test_load_rejects_out_of_range_entity(tmp_path):
    path, data = _saved_graph(tmp_path)
    path.write_bytes(data[:-24] + struct.pack("<QQd", 1, 3, 2.0))
    with pytest.raises(DataError):
        load_proximity_graph(path)


@pytest.mark.parametrize("records", [
    [(0, 1, 1.5), (0, 1, 1.5)],
    [(1, 2, 2.0), (0, 1, 1.5)],
    [(1, 0, 1.5)],
    [(1, 1, 1.5)],
    [(0, 1, float("nan"))],
    [(0, 1, 0.5)],
    [(0, 1, 1.0)],
], ids=["repeated", "unsorted", "i_above_j", "self_loop", "nan_weight", "weight_below_threshold",
        "weight_at_threshold"])
def test_load_rejects_records_a_save_cannot_write(tmp_path, records):
    path = tmp_path / "graph.bin"
    path.write_bytes(b"PXGR" + struct.pack("<IQdIQ", 1, 3, 1.0, 4, len(records))
                     + b"".join(struct.pack("<QQd", *record) for record in records))
    with pytest.raises(DataError, match=re.escape(str(path))):
        load_proximity_graph(path)


@pytest.mark.parametrize("threshold, M", [(float("nan"), 4), (float("inf"), 4), (-3.0, 4),
                                          (1.0, 2), (1.0, 0)],
                         ids=["I_nan", "I_inf", "I_negative", "M_2", "M_0"])
def test_load_rejects_a_header_a_build_cannot_write(tmp_path, threshold, M):
    """The header's I and M obey the rules that build a graph, even with no record to test."""
    path = tmp_path / "graph.bin"
    path.write_bytes(b"PXGR" + struct.pack("<IQdIQ", 1, 3, threshold, M, 0))
    with pytest.raises(DataError, match=re.escape(str(path))):
        load_proximity_graph(path)


def test_answer_ids_past_int32_pair_keys_stay_exact():
    """Pair key i * n + j reaches 2.5e9 here, past int32, however SciPy holds the answers."""
    n = 50_000
    no_triples = np.empty((0, 3), np.int64)
    kg = KnowledgeGraph(Vocabulary(f"e{i}" for i in range(n)), Vocabulary(["r"]),
                        np.array([[0, 0, n - 2], [0, 0, n - 1]]), no_triples, no_triples)
    records = accumulate_spm(extract_qa_pairs(kg), 50).records
    assert records.tolist() == [(n - 2, n - 1, 1.0)]
