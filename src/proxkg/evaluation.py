"""Filtered ranking evaluation with tie-averaged ranks.

Every evaluation triple is scored in both directions: (h, r, ?) against
the tail and (t, r_inverse, ?) against the head, over the augmented
relation set. All other entities known to answer the query anywhere in
train/valid/test are masked out before ranking. Scores are the decoder's
logits, which do not saturate, and equal scores are resolved by averaging
the optimistic and pessimistic rank.

Known answers are one ``kgdata.query_answers`` CSR table, the form training
reads its targets from; ``kgdata.answer_rows`` takes each block's filter rows
from it. Cases are scored and ranked one ``batch_size`` block at a time, so
no score matrix or filter over the whole split is ever held.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from . import autodiff as ad
from .decoder import DecoderConfig, conve_score
from .encoder import EncoderConfig, ProximityAdjacency, RelationalAdjacency, encode
from .kgdata import (ContractError, KnowledgeGraph, NumericError, answer_rows, inverse_triples,
                     query_answers)

NTYPE_LABELS = ("N=0", "N=1", "1<N<=10", "10<N<=100", "100<N<=500", "N>500")
NTYPE_UPPER = (0, 1, 10, 100, 500)    # inclusive upper answer count of each bounded range


def filtered_rank(scores: np.ndarray, targets: np.ndarray,
                  known: sparse.csr_array) -> np.ndarray:
    """Tie-averaged rank of each row's target after masking the row's other known answers.

    ``scores`` is a [B, n_e] block, overwritten in place; ``targets`` holds
    the B target entities; ``known`` is a SciPy sparse [B, n_e] array whose
    nonzero cells are each row's known answers. rank = (upper + lower) / 2
    where upper counts strictly better scores and lower additionally counts
    exact ties. A NaN target score has no rank, so it raises ``NumericError``.
    """
    rows = np.arange(len(scores))
    s_t = scores[rows, targets]
    if np.isnan(s_t).any():
        raise NumericError("a ranked target's score is NaN")
    scores[known.nonzero()] = -np.inf
    scores[rows, targets] = s_t
    upper = 1 + (scores > s_t[:, None]).sum(axis=1)
    ties = (scores == s_t[:, None]).sum(axis=1) - 1
    return (upper + (upper + ties)) / 2.0


def evaluation_queries(kg: KnowledgeGraph, split: str) -> np.ndarray:
    """[n, 3] (anchor, relation, target) cases: (h, r, t), then (t, r_inverse, h), per triple."""
    if not kg.augmented:
        raise ContractError("evaluation requires an augmented knowledge graph")
    triples = kg.raw_train() if split == "train" else kg.split(split)
    inverse = inverse_triples(triples, kg.num_raw_relations)
    return np.stack([triples, inverse], axis=1).reshape(-1, 3)


def build_filter_index(kg: KnowledgeGraph) -> tuple[np.ndarray, sparse.csr_array]:
    """``query_answers`` over every known (anchor, relation, answer).

    Relations are in the augmented id space: the augmented train split holds
    both directions already; valid and test add both of theirs.
    """
    known = np.concatenate([kg.train, evaluation_queries(kg, "valid"),
                            evaluation_queries(kg, "test")])
    return query_answers(known, kg.n_relations, kg.n_entities)


def batch_scorer(params: dict, kg: KnowledgeGraph, prox: ProximityAdjacency | None,
                 encoder_config: EncoderConfig, decoder_config: DecoderConfig):
    """Encodes once under the full (undropped) graph; returns ``score(queries)``.

    ``score`` maps a [B, 2] (anchor, relation) block to its [B, n_e] logit
    matrix. Parameters are wrapped as constants, so no op records a backward graph.
    """
    params = {name: ad.Tensor(p.data) for name, p in params.items()}
    adj = RelationalAdjacency(kg.train, kg.n_entities)
    E, R = encode(params, adj, prox, encoder_config)

    def score(queries: np.ndarray) -> np.ndarray:
        h, r = ad.gather_rows(E, queries[:, 0]), ad.gather_rows(R, queries[:, 1])
        return conve_score(h, r, E, params, decoder_config).data

    return score


def score_all_queries(params: dict, kg: KnowledgeGraph, prox: ProximityAdjacency | None,
                      encoder_config: EncoderConfig, decoder_config: DecoderConfig,
                      queries, batch_size: int = 512) -> np.ndarray:
    """Logit matrix [len(queries), n_e], scored batch_size queries at a time."""
    queries = np.asarray(queries, dtype=np.int64).reshape(-1, 2)
    score = batch_scorer(params, kg, prox, encoder_config, decoder_config)
    out = np.empty((len(queries), kg.n_entities))
    for start in range(0, len(queries), batch_size):
        out[start:start + batch_size] = score(queries[start:start + batch_size])
    return out


def _rank_cases(params, kg, prox, encoder_config, decoder_config, cases, batch_size=512):
    queries, table = build_filter_index(kg)
    score = batch_scorer(params, kg, prox, encoder_config, decoder_config)
    ranks = np.empty(len(cases))
    for start in range(0, len(cases), batch_size):
        block = cases[start:start + batch_size]
        ranks[start:start + len(block)] = filtered_rank(score(block[:, :2]), block[:, 2],
                                                        answer_rows(queries, table, block))
    return ranks


def metrics_from_ranks(ranks: np.ndarray) -> dict:
    return {
        "mrr": float((1.0 / ranks).mean()),
        "mr": float(ranks.mean()),
        "hits1": float((ranks <= 1).mean()),
        "hits3": float((ranks <= 3).mean()),
        "hits10": float((ranks <= 10).mean()),
        "n_queries": int(len(ranks)),
    }


def evaluate(params: dict, kg: KnowledgeGraph, prox: ProximityAdjacency | None,
             encoder_config: EncoderConfig, decoder_config: DecoderConfig,
             split: str = "valid", batch_size: int = 512) -> dict:
    """MRR / MR / Hits@{1,3,10} over both query directions of a split."""
    cases = evaluation_queries(kg, split)
    if not len(cases):
        raise ContractError(f"split {split!r} is empty")
    ranks = _rank_cases(params, kg, prox, encoder_config, decoder_config, cases, batch_size)
    result = metrics_from_ranks(ranks)
    result["split"] = split
    return result


def ntype_bins(counts) -> np.ndarray:
    """Index into NTYPE_LABELS of each answer count."""
    return np.digitize(counts, NTYPE_UPPER, right=True)


def train_answer_counts(kg: KnowledgeGraph, cases: np.ndarray) -> np.ndarray:
    """Number of train triples answering each case's (anchor, relation) query."""
    queries, table = query_answers(kg.train, kg.n_relations, kg.n_entities)
    return np.diff(answer_rows(queries, table, cases).indptr)


def ntype_report(kg: KnowledgeGraph, split: str = "test") -> dict:
    """Bin both directions of every evaluation triple by its train answer count."""
    cases = evaluation_queries(kg, split)
    bins = np.bincount(ntype_bins(train_answer_counts(kg, cases)), minlength=len(NTYPE_LABELS))
    total = len(cases)
    return {
        "split": split,
        "total": total,
        "ranges": [
            {"label": label, "count": int(count), "rate": (int(count) / total) if total else 0.0}
            for label, count in zip(NTYPE_LABELS, bins)
        ],
    }


def ntype_mrr_breakdown(params: dict, kg: KnowledgeGraph, prox: ProximityAdjacency | None,
                        encoder_config: EncoderConfig, decoder_config: DecoderConfig,
                        split: str = "test", batch_size: int = 512) -> dict:
    """Per answer-count range MRR; empty ranges are omitted."""
    cases = evaluation_queries(kg, split)
    bins = ntype_bins(train_answer_counts(kg, cases))
    reciprocal = 1.0 / _rank_cases(params, kg, prox, encoder_config, decoder_config, cases,
                                   batch_size)
    counts = np.bincount(bins, minlength=len(NTYPE_LABELS))
    present = [i for i, count in enumerate(counts) if count]
    return {
        "split": split,
        "mrr_by_range": {NTYPE_LABELS[i]: float(np.mean(reciprocal[bins == i])) for i in present},
        "count_by_range": {NTYPE_LABELS[i]: int(counts[i]) for i in present},
    }
