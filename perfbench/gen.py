"""Seeded synthetic knowledge graphs shaped like FB15k-237.

Relation frequencies and per-relation tail popularities follow fixed Zipf
count profiles; only which entity or relation takes which rank, and the
heads, are drawn from the seed. So every seed gives the same answer-set
size profile (and nearly the same amount of work) on different graphs.
Unlike ``proxkg.synth.random_kg`` the generator is vectorised and yields the
large skewed answer sets that load a proximity build at M=500.
"""

from __future__ import annotations

import numpy as np


def zipf_weights(n: int, skew: float) -> np.ndarray:
    """Probabilities proportional to rank**-skew, largest first."""
    w = np.arange(1, n + 1, dtype=np.float64) ** -skew
    return w / w.sum()


def zipf_counts(total: int, n: int, skew: float) -> np.ndarray:
    """Split ``total`` into ``n`` counts proportional to rank**-skew, largest first."""
    counts = np.floor(total * zipf_weights(n, skew)).astype(np.int64)
    counts[: total - counts.sum()] += 1
    return counts


def _draw(rng, n_entities, n_relations, n_triples, rel_skew, tail_skew, head_skew):
    rel_of_rank = rng.permutation(n_relations)
    head_p = zipf_weights(n_entities, head_skew)
    head_of_rank = rng.permutation(n_entities)
    parts = []
    for rank, count in enumerate(zipf_counts(n_triples, n_relations, rel_skew)):
        if count == 0:
            continue
        tail_of_rank = rng.permutation(n_entities)
        tails = np.repeat(tail_of_rank, zipf_counts(count, n_entities, tail_skew))
        heads = head_of_rank[rng.choice(n_entities, size=count, p=head_p)]
        parts.append(np.stack([heads, np.full(count, rel_of_rank[rank]), tails], axis=1))
    return np.concatenate(parts).astype(np.int64)


def generate(n_entities: int, n_relations: int, n_train: int, n_test: int, seed: int,
             rel_skew: float = 1.0, tail_skew: float = 1.1, head_skew: float = 0.8):
    """Distinct (train, test) triple arrays [n, 3] of (head, relation, tail) ids.

    Test triples come from the same distribution and never occur in train.
    """
    rng = np.random.default_rng(seed)
    wanted = n_train + n_test
    keys = np.empty(0, dtype=np.int64)
    base = np.int64(n_entities)
    while len(keys) < wanted:
        t = _draw(rng, n_entities, n_relations, wanted - len(keys) + wanted // 20 + 16,
                  rel_skew, tail_skew, head_skew)
        new = (t[:, 0] * n_relations + t[:, 1]) * base + t[:, 2]
        _, first = np.unique(new, return_index=True)
        new = new[np.sort(first)]
        keys = np.concatenate([keys, new[~np.isin(new, keys)]])
    keys = keys[rng.permutation(len(keys))[:wanted]]
    triples = np.stack([keys // base // n_relations, keys // base % n_relations, keys % base], axis=1)
    return triples[:n_train], triples[n_train:]


def answer_set_sizes(train: np.ndarray) -> np.ndarray:
    """Distinct-answer counts of every (h, r, ?) and (?, r, t) query over raw triples."""
    sizes = []
    for anchor in (0, 2):
        _, counts = np.unique(train[:, [anchor, 1]], axis=0, return_counts=True)
        sizes.append(counts)
    return np.concatenate(sizes)


def input_stats(train: np.ndarray, test: np.ndarray, n_entities: int, M: int) -> dict:
    """Statistics printed next to each workload's metrics."""
    sizes = answer_set_sizes(train)
    loaded = sizes[(sizes >= 2) & (sizes < M)]
    return {
        "entities": n_entities,
        "raw_triples": int(len(train)),
        "augmented_edges": int(2 * len(train)),
        "test_triples": int(len(test)),
        "qa_pairs": int(len(sizes)),
        "pair_increments": int((loaded * (loaded - 1) // 2).sum()),
        "answer_set_p50": float(np.percentile(sizes, 50)),
        "answer_set_p99": float(np.percentile(sizes, 99)),
        "answer_set_max": int(sizes.max()),
    }

