"""Filtered ranking evaluation with tie-averaged ranks.

Every evaluation triple is scored in both directions: (h, r, ?) against
the tail and (t, r_inverse, ?) against the head, over the augmented
relation set. All other entities known to answer the query anywhere in
train/valid/test are masked out before ranking. Equal scores are resolved
by averaging the optimistic and pessimistic rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .decoder import DecoderConfig, conve_score
from .encoder import EncoderConfig, ProximityAdjacency, RelationalAdjacency, encode
from .kgdata import ContractError, KnowledgeGraph

NTYPE_LABELS = ("N=0", "N=1", "1<N<=10", "10<N<=100", "100<N<=500", "N>500")


@dataclass
class RankResult:
    query: tuple[int, int]
    target: int
    rank: float
    filtered: bool


def filtered_rank(scores: np.ndarray, target: int, known_true) -> RankResult:
    """Tie-averaged rank of the target after masking other known-true entities.

    rank = (upper + lower) / 2 where upper counts strictly better scores
    and lower additionally counts exact ties.
    """
    known_true = np.asarray(sorted(known_true), dtype=np.int64)
    if target in known_true:
        raise ContractError("target must not be in the filter set")
    masked = scores.astype(np.float64, copy=True)
    filtered = known_true.size > 0
    if filtered:
        masked[known_true] = -np.inf
    s_t = masked[target]
    upper = 1 + int((masked > s_t).sum())
    ties = int((masked == s_t).sum()) - 1
    rank = (upper + (upper + ties)) / 2.0
    return RankResult(query=(-1, -1), target=target, rank=rank, filtered=filtered)


def build_filter_index(kg: KnowledgeGraph) -> dict[tuple[int, int], set[int]]:
    """All known answers per (anchor, relation) query across every split.

    Relations are in the augmented id space: (h, r) collects tails,
    (t, r_inverse) collects heads.
    """
    if not kg.augmented:
        raise ContractError("filter index requires an augmented knowledge graph")
    n_raw = kg.num_raw_relations
    index: dict[tuple[int, int], set[int]] = {}
    for split in ("valid", "test"):
        for h, r, t in kg.split(split):
            index.setdefault((int(h), int(r)), set()).add(int(t))
            index.setdefault((int(t), int(r) + n_raw), set()).add(int(h))
    for h, r, t in kg.train:
        index.setdefault((int(h), int(r)), set()).add(int(t))
        # augmented train already contains the inverse triples
    return index


def evaluation_queries(kg: KnowledgeGraph, split: str) -> list[tuple[int, int, int]]:
    """(anchor, relation, target) cases; each triple yields both directions."""
    n_raw = kg.num_raw_relations
    cases = []
    triples = kg.raw_train() if split == "train" else kg.split(split)
    for h, r, t in triples:
        cases.append((int(h), int(r), int(t)))
        cases.append((int(t), int(r) + n_raw, int(h)))
    return cases


def score_all_queries(params: dict, kg: KnowledgeGraph, prox: ProximityAdjacency | None,
                      encoder_config: EncoderConfig, decoder_config: DecoderConfig,
                      queries: list[tuple[int, int]], batch_size: int = 512) -> np.ndarray:
    """Probability matrix [len(queries), n_e] under the full (undropped) graph."""
    adj = RelationalAdjacency(kg.train, None, kg.n_entities)
    # constants only: the encoder graph is freed before the batch loop
    E_const, R_const = (Tensor(t.data) for t in encode(params, adj, prox, encoder_config))
    out = np.empty((len(queries), kg.n_entities))
    anchors = np.asarray([q[0] for q in queries], dtype=np.int64)
    rels = np.asarray([q[1] for q in queries], dtype=np.int64)
    for start in range(0, len(queries), batch_size):
        sl = slice(start, min(start + batch_size, len(queries)))
        h = Tensor(E_const.data[anchors[sl]])
        r = Tensor(R_const.data[rels[sl]])
        out[sl] = conve_score(h, r, E_const, params, decoder_config, training=False).data
    return out


def _rank_cases(params, kg, prox, encoder_config, decoder_config, cases, batch_size=512):
    filter_index = build_filter_index(kg)
    queries = [(a, r) for a, r, _ in cases]
    scores = score_all_queries(params, kg, prox, encoder_config, decoder_config,
                               queries, batch_size)
    ranks = np.empty(len(cases))
    for i, (anchor, rel, target) in enumerate(cases):
        known = filter_index.get((anchor, rel), set()) - {target}
        ranks[i] = filtered_rank(scores[i], target, known).rank
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
    if not cases:
        raise ContractError(f"split {split!r} is empty")
    ranks = _rank_cases(params, kg, prox, encoder_config, decoder_config, cases, batch_size)
    result = metrics_from_ranks(ranks)
    result["split"] = split
    return result


def ntype_of(n: int) -> str:
    if n == 0:
        return NTYPE_LABELS[0]
    if n == 1:
        return NTYPE_LABELS[1]
    if n <= 10:
        return NTYPE_LABELS[2]
    if n <= 100:
        return NTYPE_LABELS[3]
    if n <= 500:
        return NTYPE_LABELS[4]
    return NTYPE_LABELS[5]


def train_answer_counts(kg: KnowledgeGraph) -> dict[tuple[int, int], int]:
    """Number of raw-train answers per (anchor, augmented relation) query."""
    n_raw = kg.num_raw_relations if kg.augmented else kg.n_relations
    counts: dict[tuple[int, int], int] = {}
    for h, r, t in kg.raw_train():
        counts[(int(h), int(r))] = counts.get((int(h), int(r)), 0) + 1
        counts[(int(t), int(r) + n_raw)] = counts.get((int(t), int(r) + n_raw), 0) + 1
    return counts


def ntype_report(kg: KnowledgeGraph, split: str = "test") -> dict:
    """Bin both directions of every evaluation triple by its train answer count."""
    if not kg.augmented:
        raise ContractError("the report requires an augmented knowledge graph")
    counts = train_answer_counts(kg)
    bins = {label: 0 for label in NTYPE_LABELS}
    for anchor, rel, _ in evaluation_queries(kg, split):
        bins[ntype_of(counts.get((anchor, rel), 0))] += 1
    total = sum(bins.values())
    return {
        "split": split,
        "total": total,
        "ranges": [
            {"label": label, "count": bins[label],
             "rate": (bins[label] / total) if total else 0.0}
            for label in NTYPE_LABELS
        ],
    }


def ntype_mrr_breakdown(params: dict, kg: KnowledgeGraph, prox: ProximityAdjacency | None,
                        encoder_config: EncoderConfig, decoder_config: DecoderConfig,
                        split: str = "test", batch_size: int = 512) -> dict:
    """Per answer-count range MRR; empty ranges are omitted."""
    counts = train_answer_counts(kg)
    cases = evaluation_queries(kg, split)
    ranks = _rank_cases(params, kg, prox, encoder_config, decoder_config, cases, batch_size)
    grouped: dict[str, list[float]] = {}
    for (anchor, rel, _), rank in zip(cases, ranks):
        grouped.setdefault(ntype_of(counts.get((anchor, rel), 0)), []).append(1.0 / rank)
    return {
        "split": split,
        "mrr_by_range": {label: float(np.mean(grouped[label]))
                         for label in NTYPE_LABELS if label in grouped},
        "count_by_range": {label: len(grouped[label])
                           for label in NTYPE_LABELS if label in grouped},
    }
