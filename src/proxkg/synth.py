"""Synthetic knowledge graphs for end-to-end tests.

The clustered generator builds a graph where entity clusters repeatedly
co-answer the same queries (so they end up tightly connected in the
proximity graph) and a prediction relation whose held-out facts are
inferable from cluster co-membership. It is the fixture for comparing the
full encoder against the knowledge-graph-only variant.
"""

from __future__ import annotations

import numpy as np

from .kgdata import KnowledgeGraph, Vocabulary


def _make_kg(train, valid, test, entities, relations) -> KnowledgeGraph:
    ev, rv = Vocabulary(entities), Vocabulary(relations)

    def enc(triples):
        return np.asarray(
            [(ev.lookup(h), rv.lookup(r), ev.lookup(t)) for h, r, t in triples],
            dtype=np.int64).reshape(-1, 3)

    return KnowledgeGraph(ev, rv, enc(train), enc(valid), enc(test))


def random_kg(rng: np.random.Generator, n_entities: int, n_relations: int,
              n_train: int, n_valid: int = 0, n_test: int = 0) -> KnowledgeGraph:
    """Uniform random triples with exact-duplicate rejection across the train split."""
    capacity = n_entities * n_entities * n_relations
    if n_train + n_valid + n_test > capacity // 2:
        raise ValueError("requested more unique triples than the space can supply")
    entities = [f"e{i}" for i in range(n_entities)]
    relations = [f"r{i}" for i in range(n_relations)]
    seen = set()

    def draw(n):
        out = []
        while len(out) < n:
            h, t = rng.integers(n_entities, size=2)
            r = rng.integers(n_relations)
            key = (int(h), int(r), int(t))
            if key in seen:
                continue
            seen.add(key)
            out.append((entities[h], relations[r], entities[t]))
        return out

    return _make_kg(draw(n_train), draw(n_valid), draw(n_test), entities, relations)


def clustered_kg(rng: np.random.Generator, n_clusters: int = 7, cluster_size: int = 20,
                 anchors_per_cluster: int = 8, sources_per_cluster: int = 16,
                 train_fraction: float = 0.8, cross_links: int = 6,
                 n_noise: int = 200) -> KnowledgeGraph:
    """Clustered benchmark with a held-out relation predictable from co-membership.

    Per cluster: several anchor entities each link to every member via the
    grouping relation, making members heavy co-answers of shared queries;
    a pool of source entities each hold the prediction relation to a
    random train fraction of the members, with the rest held out as test
    facts. A held-out fact is a train fact for most sibling sources, so
    cluster co-membership, not a memorised answer set, is what predicts
    it. Each anchor also links to a few members of other clusters, mixing
    the raw adjacency while the co-answer statistics still separate
    clusters, and noise triples over extra relations round out the graph.
    """
    entities, relations = [], ["groups", "predicts", "noise_a", "noise_b", "noise_c"]
    members, anchors, sources = [], [], []
    for c in range(n_clusters):
        cluster_members = [f"m{c}_{i}" for i in range(cluster_size)]
        cluster_anchors = [f"a{c}_{j}" for j in range(anchors_per_cluster)]
        members.append(cluster_members)
        anchors.append(cluster_anchors)
        sources.append([f"s{c}_{k}" for k in range(sources_per_cluster)])
        entities.extend(cluster_members + cluster_anchors + sources[c])

    train, test = [], []
    for c in range(n_clusters):
        other = [m for d in range(n_clusters) if d != c for m in members[d]]
        for a in anchors[c]:
            for m in members[c]:
                train.append((a, "groups", m))
            for i in rng.choice(len(other), size=cross_links, replace=False):
                train.append((a, "groups", other[i]))
        n_train_members = int(round(train_fraction * cluster_size))
        for s in sources[c]:
            order = rng.permutation(cluster_size)
            for i in order[:n_train_members]:
                train.append((s, "predicts", members[c][i]))
            for i in order[n_train_members:]:
                test.append((s, "predicts", members[c][i]))

    seen = set(train)
    noise_rels = ("noise_a", "noise_b", "noise_c")
    while n_noise > 0:
        h, t = rng.choice(len(entities), size=2, replace=False)
        r = noise_rels[rng.integers(len(noise_rels))]
        trip = (entities[h], r, entities[t])
        if trip in seen:
            continue
        seen.add(trip)
        train.append(trip)
        n_noise -= 1

    valid = test[::2]
    test = test[1::2]
    return _make_kg(train, valid, test, entities, relations)


def write_kg_files(kg: KnowledgeGraph, directory) -> tuple[str, str, str]:
    """Dump the splits as the standard tab-separated files."""
    import os

    paths = []
    for name in ("train", "valid", "test"):
        path = os.path.join(directory, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for h, r, t in kg.split(name):
                fh.write(f"{kg.entities.surface(int(h))}\t{kg.relations.surface(int(r))}\t"
                         f"{kg.entities.surface(int(t))}\n")
        paths.append(path)
    return tuple(paths)
