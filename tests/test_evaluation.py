import numpy as np
import pytest
from scipy import sparse

import proxkg.evaluation as ev
from proxkg import kgdata
from proxkg.decoder import DecoderConfig, init_decoder_params
from proxkg.encoder import EncoderConfig, ProximityAdjacency, init_encoder_params
from proxkg.evaluation import (NTYPE_LABELS, build_filter_index, evaluate,
                               evaluation_queries, filtered_rank,
                               metrics_from_ranks, ntype_bins, ntype_mrr_breakdown,
                               ntype_report, score_all_queries)
from proxkg.kgdata import ContractError, answer_rows, augment_inverse, query_answers
from proxkg.proximity import accumulate_spm, build_proximity_graph, extract_qa_pairs
from synth import random_kg
from conftest import kg_from_triples


def sort_rank_oracle(scores, target, known_true):
    """Sort-based tie-averaged rank with the same filter rule."""
    masked = scores.astype(float).copy()
    for e in known_true:
        masked[e] = -np.inf
    order = np.argsort(-masked, kind="stable")
    ranks = np.empty(len(masked))
    pos = 1
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and masked[order[j]] == masked[order[i]]:
            j += 1
        avg = (pos + pos + (j - i) - 1) / 2.0
        for k in range(i, j):
            ranks[order[k]] = avg
        pos += j - i
        i = j
    return ranks[target]


def rank_one(scores, target, known):
    """filtered_rank on a single row whose filter row holds the entities in ``known``."""
    scores = np.array(scores, dtype=float)[None]
    filter_row = np.zeros_like(scores)
    filter_row[0, list(known)] = 1.0
    return filtered_rank(scores, np.array([target]), sparse.csr_array(filter_row))[0]


def test_filtered_rank_three_way_tie():
    scores = np.array([0.9, 0.9, 0.9, 0.1])
    assert rank_one(scores, 0, set()) == 2.0


def test_filtered_rank_strict_top():
    scores = np.array([0.1, 0.9, 0.3])
    assert rank_one(scores, 1, set()) == 1.0


def test_filtered_rank_masks_known_true():
    scores = np.array([0.9, 0.8, 0.7])
    assert rank_one(scores, 2, set()) == 3.0
    assert rank_one(scores, 2, {0, 1}) == 1.0


def test_filtered_rank_keeps_target_in_filter():
    # the filter holds the target itself; its score is read first and restored
    scores = np.array([0.5, 0.4, 0.6])
    assert rank_one(scores, 0, {0}) == rank_one(scores, 0, set()) == 2.0
    assert rank_one(scores, 0, {0, 2}) == 1.0


def test_filtered_rank_matches_sort_oracle():
    rng = np.random.default_rng(99)
    for case in range(1000):
        n = int(rng.integers(3, 40))
        if case % 3 == 0:
            # engineered tie clusters from a tiny value alphabet
            scores = rng.choice([0.1, 0.5, 0.9], size=n)
        else:
            scores = rng.uniform(0, 1, n)
        target = int(rng.integers(n))
        others = [e for e in range(n) if e != target]
        known = set(rng.choice(others, size=int(rng.integers(0, min(5, n - 1))),
                               replace=False).tolist()) if n > 1 else set()
        got = rank_one(scores, target, known)
        assert got == sort_rank_oracle(scores, target, known)


def test_filtered_rank_batch_matches_sort_oracle():
    """One call over many rows, each with its own query and filter, equals the per-row oracle."""
    rng = np.random.default_rng(17)
    n_e, n_rel, n_rows = 30, 4, 300
    cases = np.stack([rng.integers(8, size=n_rows), rng.integers(n_rel, size=n_rows),
                      rng.integers(n_e, size=n_rows)], axis=1)
    # repeated queries share a filter; some filters hold the row's own target
    filters = {(a, r): set(rng.choice(n_e, size=int(rng.integers(0, 12)), replace=False).tolist())
               for a in range(8) for r in range(n_rel)}
    queries, table = query_answers(np.array([(a, r, e) for (a, r), f in filters.items()
                                             for e in f], dtype=np.int64).reshape(-1, 3),
                                   n_rel, n_e)
    scores = np.where(rng.random((n_rows, n_e)) < 0.5,
                      rng.choice([0.1, 0.5, 0.9], size=(n_rows, n_e)),
                      rng.uniform(0, 1, (n_rows, n_e)))
    got = filtered_rank(scores.copy(), cases[:, 2], answer_rows(queries, table, cases))
    assert any(t in filters[(a, r)] for a, r, t in cases.tolist())
    for row, (a, r, t) in enumerate(cases.tolist()):
        assert got[row] == sort_rank_oracle(scores[row], t, filters[(a, r)] - {t})


def test_rank_monotone_in_target_score():
    rng = np.random.default_rng(5)
    scores = rng.uniform(0, 1, 20)
    target = 3
    base = rank_one(scores, target, set())
    scores2 = scores.copy()
    scores2[target] += 0.2
    assert rank_one(scores2, target, set()) <= base


def test_filter_soundness():
    rng = np.random.default_rng(6)
    scores = rng.uniform(0, 1, 20)
    base = rank_one(scores, 4, set())
    for extra in range(3):
        filt = set(range(extra + 1)) - {4}
        assert rank_one(scores, 4, filt) <= base


def test_metrics_single_case():
    m = metrics_from_ranks(np.array([2.0]))
    assert m["mrr"] == 0.5
    assert m["mr"] == 2.0
    assert m["hits1"] == 0.0
    assert m["hits3"] == 1.0
    assert m["hits10"] == 1.0


def test_metrics_ordering_property():
    ranks = np.array([1.0, 2.5, 4.0, 11.0, 1.5])
    m = metrics_from_ranks(ranks)
    assert m["hits1"] <= m["hits3"] <= m["hits10"]
    assert 0 < m["mrr"] <= 1
    assert m["mr"] >= 1


def test_evaluation_queries_both_directions():
    kg = augment_inverse(kg_from_triples([("a", "r", "b")], test=[("a", "r", "c")]))
    cases = evaluation_queries(kg, "test")
    e, inv_r = kg.entities.lookup, kg.num_raw_relations
    assert cases.tolist() == [[e("a"), 0, e("c")], [e("c"), 0 + inv_r, e("a")]]


def test_filter_index_covers_all_splits():
    kg = augment_inverse(kg_from_triples(
        [("a", "r", "b")], valid=[("a", "r", "c")], test=[("a", "r", "d")]))
    queries, table = build_filter_index(kg)
    e = kg.entities.lookup

    def answers(anchor, rel):
        return set(answer_rows(queries, table, np.array([[anchor, rel, 0]])).indices.tolist())

    assert answers(e("a"), 0) == {e("b"), e("c"), e("d")}
    assert answers(e("b"), kg.num_raw_relations) == {e("a")}
    assert np.array_equal(queries, np.unique(queries, axis=0)) and table.has_canonical_format


def test_evaluate_perfect_model(rng):
    kg = augment_inverse(random_kg(rng, 8, 3, 20))
    pgraph = build_proximity_graph(accumulate_spm(extract_qa_pairs(kg), 4), 0.0, kg.n_entities)

    # hand-built scorer: patch batch_scorer with a perfect scorer
    def perfect_scorer(params, kg_, prox, ec, dc):
        def score(queries):
            out = np.zeros((len(queries), kg_.n_entities))
            for i, (a, r) in enumerate(queries.tolist()):
                # give the true target(s) of the train split top score
                for h, rr, t in kg_.train:
                    if (h, rr) == (a, r):
                        out[i, t] = 1.0
            return out
        return score

    original = ev.batch_scorer
    ev.batch_scorer = perfect_scorer
    try:
        m = ev.evaluate({}, kg, None, EncoderConfig(dim=8, kg_only=True),
                        DecoderConfig(dim=8), split="train")
    finally:
        ev.batch_scorer = original
    assert m["mrr"] == 1.0
    assert m["hits1"] == 1.0


def test_unknown_split_is_contract_error():
    kg = augment_inverse(kg_from_triples([("a", "r", "b")]))
    with pytest.raises(ContractError):
        evaluation_queries(kg, "bogus")


def overlap_kg(rng):
    """Random KG whose valid/test queries share answers with each other and with train."""
    return augment_inverse(random_kg(rng, 12, 3, 40, 12, 13))


def oracle_filter(kg):
    """(anchor, relation) -> known answers, from plain sets over train and both eval splits."""
    n_raw = kg.num_raw_relations
    known = {}
    for h, r, t in kg.train.tolist():
        known.setdefault((h, r), set()).add(t)
    for split in (kg.valid, kg.test):
        for h, r, t in split.tolist():
            known.setdefault((h, r), set()).add(t)
            known.setdefault((t, r + n_raw), set()).add(h)
    return known


def oracle_ranks(kg, score_of):
    """Per-case sort oracle over the test split's cases, in triple order."""
    n_raw, known = kg.num_raw_relations, oracle_filter(kg)
    cases = [c for h, r, t in kg.test.tolist() for c in ((h, r, t), (t, r + n_raw, h))]
    return cases, np.array([sort_rank_oracle(score_of(i, a, r), t, known[(a, r)] - {t})
                            for i, (a, r, t) in enumerate(cases)])


def test_evaluate_matches_per_case_oracle(monkeypatch):
    rng = np.random.default_rng(2024)
    kg = overlap_kg(rng)
    n_rel = kg.n_relations
    table = rng.choice([0.2, 0.5, 0.8], size=(kg.n_entities * n_rel, kg.n_entities))

    def table_scorer(params, kg_, prox, ec, dc):
        return lambda queries: table[queries[:, 0] * n_rel + queries[:, 1]]

    cases, want = oracle_ranks(kg, lambda i, a, r: table[a * n_rel + r])
    batch_size = 4
    assert len(cases) > batch_size and len(cases) % batch_size
    assert np.any(want % 1)                        # tied targets
    train_q = {(h, r) for h, r, _ in kg.train.tolist()}
    valid_q = {(h, r) for h, r, _ in kg.valid.tolist()}
    assert any((a, r) in train_q for a, r, _ in cases)
    assert any((a, r) in valid_q for a, r, _ in cases)

    monkeypatch.setattr(ev, "batch_scorer", table_scorer)
    enc, dec = EncoderConfig(dim=8, kg_only=True), DecoderConfig(dim=8)
    got = evaluate({}, kg, None, enc, dec, split="test", batch_size=batch_size)
    assert got == {**metrics_from_ranks(want), "split": "test"}

    def label_of(n):
        return ("N=0" if n == 0 else "N=1" if n == 1 else "1<N<=10" if n <= 10
                else "10<N<=100" if n <= 100 else "100<N<=500" if n <= 500 else "N>500")

    train = kg.train.tolist()
    grouped = {}
    for (a, r, _), rank in zip(cases, want):
        n = sum(1 for h, rr, _ in train if (h, rr) == (a, r))
        grouped.setdefault(label_of(n), []).append(1.0 / rank)
    breakdown = ntype_mrr_breakdown({}, kg, None, enc, dec, split="test", batch_size=batch_size)
    assert breakdown["mrr_by_range"] == {label: float(np.mean(grouped[label]))
                                         for label in NTYPE_LABELS if label in grouped}
    assert breakdown["count_by_range"] == {label: len(grouped[label])
                                           for label in NTYPE_LABELS if label in grouped}


def test_evaluate_model_scores_match_per_case_oracle():
    rng = np.random.default_rng(2025)
    kg = overlap_kg(rng)
    enc = EncoderConfig(dim=8, kg_only=True)
    dec = DecoderConfig(dim=8, n_filters=4, kernel=2)
    params = init_encoder_params(enc, kg.n_entities, kg.n_relations, rng)
    params.update(init_decoder_params(dec, kg.n_entities, rng))
    n_raw, batch_size = kg.num_raw_relations, 3
    queries = [q for h, r, t in kg.test.tolist() for q in ((h, r), (t, r + n_raw))]
    scores = score_all_queries(params, kg, None, enc, dec, queries, batch_size)
    _, want = oracle_ranks(kg, lambda i, a, r: scores[i])
    assert len(want) % batch_size
    got = evaluate(params, kg, None, enc, dec, split="test", batch_size=batch_size)
    assert got == {**metrics_from_ranks(want), "split": "test"}


def test_evaluation_records_no_autodiff_graph(rng, monkeypatch):
    kg = augment_inverse(random_kg(rng, 8, 3, 15))
    enc = EncoderConfig(dim=8, kg_only=True)
    dec = DecoderConfig(dim=8, n_filters=4, kernel=2)
    params = init_encoder_params(enc, kg.n_entities, kg.n_relations, rng)
    params.update(init_decoder_params(dec, kg.n_entities, rng))
    outputs = []

    def recorded(fn):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            outputs.extend(out if isinstance(out, tuple) else [out])
            return out
        return call

    monkeypatch.setattr(ev, "encode", recorded(ev.encode))
    monkeypatch.setattr(ev, "conve_score", recorded(ev.conve_score))
    evaluate(params, kg, None, enc, dec, split="train")
    assert len(outputs) > 2
    assert all(out._backward is None and not out._parents for out in outputs)


def test_ntype_binning():
    def ntype_of(n):
        return NTYPE_LABELS[ntype_bins([n])[0]]

    assert ntype_of(0) == "N=0"
    assert ntype_of(1) == "N=1"
    assert ntype_of(2) == ntype_of(10) == "1<N<=10"
    assert ntype_of(11) == ntype_of(100) == "10<N<=100"
    assert ntype_of(101) == ntype_of(500) == "100<N<=500"
    assert ntype_of(501) == "N>500"


def test_ntype_report_toy():
    kg = augment_inverse(kg_from_triples(
        [("a", "r", "b"), ("a", "r", "c")],
        test=[("a", "r", "d"), ("x", "r", "y")]))
    report = ntype_report(kg, "test")
    by_label = {row["label"]: row["count"] for row in report["ranges"]}
    # (a,r,?) has 2 train answers; (?,r,d) 0; (x,r,?) 0; (?,r,y) 0
    assert by_label["1<N<=10"] == 1
    assert by_label["N=0"] == 3
    assert report["total"] == 2 * len(kg.test)
    assert sum(row["rate"] for row in report["ranges"]) == pytest.approx(1.0)


def test_ntype_report_empty_test():
    kg = augment_inverse(kg_from_triples([("a", "r", "b")]))
    report = ntype_report(kg, "test")
    assert report["total"] == 0
    assert all(row["count"] == 0 for row in report["ranges"])


def test_ntype_partition_counts(rng):
    kg = augment_inverse(random_kg(rng, 10, 2, 20))
    # move some triples into test by rebuilding
    report = ntype_report(kg, "train")
    assert report["total"] == 2 * len(kg.raw_train())


def test_ntype_breakdown_single_range_equals_overall(rng):
    kg = augment_inverse(random_kg(rng, 8, 3, 15))
    pgraph = build_proximity_graph(accumulate_spm(extract_qa_pairs(kg), 4), 0.0, kg.n_entities)
    enc = EncoderConfig(dim=8)
    dec = DecoderConfig(dim=8, n_filters=4, kernel=2)
    params = init_encoder_params(enc, kg.n_entities, kg.n_relations, rng)
    params.update(init_decoder_params(dec, kg.n_entities, rng))
    prox = ProximityAdjacency(pgraph)
    breakdown = ntype_mrr_breakdown(params, kg, prox, enc, dec, split="train")
    overall = evaluate(params, kg, prox, enc, dec, split="train")
    weighted = sum(breakdown["mrr_by_range"][label] * breakdown["count_by_range"][label]
                   for label in breakdown["mrr_by_range"])
    assert weighted / sum(breakdown["count_by_range"].values()) == pytest.approx(overall["mrr"])
    # empty ranges omitted
    assert set(breakdown["mrr_by_range"]) <= set(NTYPE_LABELS)
    for label in NTYPE_LABELS:
        if label not in breakdown["count_by_range"]:
            assert label not in breakdown["mrr_by_range"]


def test_nan_target_score_is_a_numeric_error_not_a_rank():
    scores = np.array([[0.3, np.nan, 0.1], [0.2, 0.5, 0.4]])
    with pytest.raises(kgdata.NumericError):
        filtered_rank(scores, np.array([1, 0]), sparse.csr_array((2, 3)))


def test_nan_score_of_another_entity_counts_above_the_target():
    assert rank_one([np.nan, np.nan, 0.1], 2, set()) == rank_one([0.5, 0.4, 0.1], 2, set()) == 3.0
    # NaN, better, tied and worse scores in one block; row 1's filter masks one of its NaNs
    scores = np.array([[0.3, np.nan, 0.3, 0.9, 0.1], [np.nan, 0.2, 0.7, 0.2, np.nan]])
    known = sparse.csr_array(([1.0], ([1], [4])), shape=(2, 5))
    assert filtered_rank(scores, np.array([0, 1]), known).tolist() == [3.5, 3.5]


def test_evaluate_with_nan_logits_raises_instead_of_a_perfect_score():
    kg = augment_inverse(random_kg(np.random.default_rng(0), 30, 3, 120, 10, 10))
    enc, dec = EncoderConfig(dim=16, kg_only=True), DecoderConfig(dim=16)
    rng = np.random.default_rng(0)
    params = init_encoder_params(enc, kg.n_entities, kg.n_relations, rng)
    params.update(init_decoder_params(dec, kg.n_entities, rng))
    assert evaluate(params, kg, None, enc, dec, split="test")["mrr"] <= 1.0
    params["fc_b"].data[:] = np.nan
    with pytest.raises(kgdata.NumericError):
        evaluate(params, kg, None, enc, dec, split="test")
