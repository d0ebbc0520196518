"""Shared-query proximity extraction and proximity-graph construction.

Any two entities that answer the same query are considered semantically
close; the closeness of one shared query decays with the size of its
answer set, and closeness accumulates over all queries in the train
split. Pairs whose accumulated value exceeds a threshold become edges of
an undirected weighted proximity graph.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .kgdata import ContractError, DataError, KnowledgeGraph

HEAD_QUERY = 0  # (?, r, t): anchor is the tail
TAIL_QUERY = 1  # (h, r, ?): anchor is the head

_MAGIC = b"PXGR"
_VERSION = 1
_HEADER = struct.Struct("<IQdIQ")  # version, n_entities, threshold, M, n_edges
EDGE_DTYPE = np.dtype([("i", "<u8"), ("j", "<u8"), ("w", "<f8")])


@dataclass
class QAPair:
    direction: int
    anchor: int
    relation: int
    answers: frozenset[int]


@dataclass
class QAPairIndex:
    pairs: list[QAPair]

    def total_answers(self) -> int:
        return sum(len(p.answers) for p in self.pairs)


@dataclass
class SPMMatrix:
    """Sparse accumulated proximity keyed by unordered entity pair (i, j), i < j."""

    entries: dict[tuple[int, int], float]
    M: int

    def get(self, i: int, j: int) -> float:
        return self.entries.get((min(i, j), max(i, j)), 0.0)


@dataclass
class ProximityGraph:
    """Undirected weighted graph holding each edge once.

    ``edges`` is an EDGE_DTYPE array of (i, j, w) records with i < j,
    sorted by (i, j); its bytes are the on-disk record block.
    """

    n_entities: int
    threshold: float
    M: int
    edges: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_list(self) -> np.ndarray:
        """Unique undirected edges as an (n_edges, 3) float array of (i, j, w) rows, i < j."""
        return np.column_stack([self.edges["i"], self.edges["j"], self.edges["w"]])


def extract_qa_pairs(kg: KnowledgeGraph) -> QAPairIndex:
    """One QA pair per distinct (direction, anchor, relation) over raw train triples.

    Each train triple lands in exactly two pairs, one per query direction,
    so the answer multiset (before set dedup) totals 2x the train count.
    """
    if len(kg.raw_train()) == 0:
        raise ContractError("QA-pair extraction requires a non-empty train split")
    tail_answers: dict[tuple[int, int], set[int]] = {}
    head_answers: dict[tuple[int, int], set[int]] = {}
    for h, r, t in kg.raw_train():
        tail_answers.setdefault((int(h), int(r)), set()).add(int(t))
        head_answers.setdefault((int(t), int(r)), set()).add(int(h))

    pairs = [QAPair(TAIL_QUERY, anchor, rel, frozenset(answers))
             for (anchor, rel), answers in tail_answers.items()]
    pairs += [QAPair(HEAD_QUERY, anchor, rel, frozenset(answers))
              for (anchor, rel), answers in head_answers.items()]
    return QAPairIndex(pairs)


def pm(M: int, answer_set_size: int) -> float:
    """Pairwise proximity contributed by one query with the given answer-set size.

    Equals 1 for two answers, decays linearly, and is 0 once the set
    reaches the cutoff size M.
    """
    if M <= 2:
        raise ContractError(f"answer-set cutoff M must exceed 2, got {M}")
    if answer_set_size < 2:
        raise ContractError("pairwise proximity needs at least two answers")
    return max(M - answer_set_size, 0) / (M - 2)


def accumulate_spm(index: QAPairIndex, M: int) -> SPMMatrix:
    """Sum per-query proximity over all QA pairs into a sparse symmetric map.

    Queries with answer sets of size >= M contribute exactly zero and are
    skipped before enumerating their quadratic pair set.
    """
    if M <= 2:
        raise ContractError(f"answer-set cutoff M must exceed 2, got {M}")
    entries: dict[tuple[int, int], float] = {}
    for pair in index.pairs:
        size = len(pair.answers)
        if size < 2 or size >= M:
            continue
        value = pm(M, size)
        for a, b in combinations(sorted(pair.answers), 2):
            key = (a, b)
            entries[key] = entries.get(key, 0.0) + value
    return SPMMatrix(entries, M)


def build_proximity_graph(spm: SPMMatrix, threshold: float, n_entities: int) -> ProximityGraph:
    """Connect an undirected edge wherever the accumulated value strictly exceeds the threshold."""
    if threshold < 0:
        raise ContractError(f"threshold must be non-negative, got {threshold}")
    n = len(spm.entries)
    pairs = np.fromiter(spm.entries, dtype=np.dtype((np.uint64, 2)), count=n)
    weights = np.fromiter(spm.entries.values(), dtype=np.float64, count=n)
    keep = weights > threshold
    i, j, w = pairs[keep, 0], pairs[keep, 1], weights[keep]
    order = np.lexsort((j, i))
    edges = np.empty(len(order), EDGE_DTYPE)
    edges["i"], edges["j"], edges["w"] = i[order], j[order], w[order]
    return ProximityGraph(n_entities, threshold, spm.M, edges)


def proximity_stats(graph: ProximityGraph) -> dict:
    endpoints = np.concatenate([graph.edges["i"], graph.edges["j"]]).astype(np.int64)
    degrees = np.bincount(endpoints, minlength=graph.n_entities)
    values, counts = np.unique(degrees, return_counts=True)
    stats = {
        "n_entities": graph.n_entities,
        "n_edges": graph.n_edges,
        "threshold": graph.threshold,
        "M": graph.M,
        "isolated_entities": int((degrees == 0).sum()),
        "degree_histogram": {str(k): v for k, v in zip(values.tolist(), counts.tolist())},
    }
    if graph.n_edges:
        # each weight once per endpoint, as the entities' neighbourhoods see it
        w = graph.edges["w"]
        qs = np.quantile(np.concatenate([w, w]), [0.0, 0.25, 0.5, 0.75, 1.0])
        stats["weight_quantiles"] = {"min": qs[0], "q25": qs[1], "median": qs[2], "q75": qs[3], "max": qs[4]}
    else:
        stats["weight_quantiles"] = None
    return stats


def save_proximity_graph(graph: ProximityGraph, path) -> None:
    """Versioned binary: header then (i, j, weight) records sorted by (i, j)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_HEADER.pack(_VERSION, graph.n_entities, graph.threshold, graph.M, graph.n_edges))
        fh.write(graph.edges.tobytes())


def load_proximity_graph(path) -> ProximityGraph:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ContractError(f"not a proximity-graph file: bad magic {magic!r}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise DataError(f"truncated proximity-graph header in {path}")
        version, n_entities, threshold, M, n_edges = _HEADER.unpack(header)
        if version != _VERSION:
            raise ContractError(f"unsupported proximity-graph version {version}")
        payload = fh.read()
    if len(payload) != n_edges * EDGE_DTYPE.itemsize:
        raise DataError(f"proximity-graph file {path} declares {n_edges} edges "
                        f"but holds {len(payload)} record bytes")
    edges = np.frombuffer(payload, dtype=EDGE_DTYPE)
    if n_edges and max(edges["i"].max(), edges["j"].max()) >= n_entities:
        raise DataError(f"proximity-graph file {path} has an entity id >= {n_entities}")
    return ProximityGraph(n_entities, threshold, M, edges)


def export_proximity_tsv(graph: ProximityGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{i}\t{j}\t{w!r}\n" for i, j, w in graph.edges.tolist())
