"""Shared-query proximity extraction and proximity-graph construction.

Any two entities that answer the same query are considered semantically
close; the closeness of one shared query decays with the size of its
answer set, and closeness accumulates over all queries in the train
split. Pairs whose accumulated value exceeds a threshold become edges of
an undirected weighted proximity graph.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .kgdata import (ContractError, DataError, KnowledgeGraph, atomic_write, augment_inverse,
                     query_answers)

HEAD_QUERY = 0  # (?, r, t): anchor is the tail
TAIL_QUERY = 1  # (h, r, ?): anchor is the head

_MAGIC = b"PXGR"
_VERSION = 1
_HEADER = struct.Struct("<IQdIQ")  # version, n_entities, threshold, M, n_edges
EDGE_DTYPE = np.dtype([("i", "<u8"), ("j", "<u8"), ("w", "<f8")])


QAPair = namedtuple("QAPair", "direction anchor relation answers")


@dataclass
class QAPairIndex:
    """QA pairs as CSR arrays; pair q's distinct answers are answers[offsets[q]:offsets[q + 1]]."""

    queries: np.ndarray   # [Q, 3] (direction, anchor, raw relation)
    offsets: np.ndarray
    answers: np.ndarray   # ascending within each pair

    def total_answers(self) -> int:
        return len(self.answers)

    @property
    def pairs(self) -> tuple[QAPair, ...]:
        """Read-only QAPair view of the arrays, built on each access."""
        answers, offsets = self.answers.tolist(), self.offsets.tolist()
        return tuple(QAPair(d, a, r, frozenset(answers[lo:hi]))
                     for (d, a, r), lo, hi in zip(self.queries.tolist(), offsets, offsets[1:]))


@dataclass
class SPMMatrix:
    """Accumulated proximity as EDGE_DTYPE (i, j, w) ``records``, i < j, sorted by (i, j)."""

    records: np.ndarray
    M: int

    def get(self, i: int, j: int) -> float:
        i, j = min(i, j), max(i, j)
        r = self.records
        lo, hi = np.searchsorted(r["i"], i, "left"), np.searchsorted(r["i"], i, "right")
        k = lo + np.searchsorted(r["j"][lo:hi], j)
        return float(r["w"][k]) if k < hi and r["j"][k] == j else 0.0

    @property
    def entries(self) -> MappingProxyType:
        """Read-only ``{(i, j): w}`` view of the records, built on each access."""
        r = self.records
        return MappingProxyType(dict(zip(zip(r["i"].tolist(), r["j"].tolist()), r["w"].tolist())))


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

    These are the augmented split's train queries, relation r + n_raw being
    the head query (?, r, t), in the order they first appear there. Each
    train triple lands in two pairs, so the answers total 2x the train count.
    """
    if len(kg.raw_train()) == 0:
        raise ContractError("QA-pair extraction requires a non-empty train split")
    if not kg.augmented:
        kg = augment_inverse(kg)
    n_rel, n_raw = kg.n_relations, kg.num_raw_relations
    queries, offsets, answers = query_answers(kg.train, n_rel, kg.n_entities)
    _, first_row = np.unique(kg.train[:, 0] * n_rel + kg.train[:, 1], return_index=True)
    order = np.argsort(first_row)
    sizes = np.diff(offsets)[order]
    new_offsets = np.append(0, np.cumsum(sizes))
    answers = answers[np.repeat(offsets[order] - new_offsets[:-1], sizes) + np.arange(len(answers))]
    anchor, rel = queries[order].T
    direction = np.where(rel >= n_raw, HEAD_QUERY, TAIL_QUERY)
    return QAPairIndex(np.stack([direction, anchor, rel % n_raw], axis=1), new_offsets, answers)


def pm(M: int, answer_set_size):
    """Pairwise proximity contributed by one query with the given answer-set size(s).

    Equals 1 for two answers, decays linearly, and is 0 once the set
    reaches the cutoff size M.
    """
    if M <= 2:
        raise ContractError(f"answer-set cutoff M must exceed 2, got {M}")
    size = np.asarray(answer_set_size)
    if np.any(size < 2):
        raise ContractError("pairwise proximity needs at least two answers")
    return np.maximum(M - size, 0) / (M - 2)


def accumulate_spm(index: QAPairIndex, M: int) -> SPMMatrix:
    """Sum per-query proximity over all QA pairs into sorted (i, j, w) records.

    Queries with answer sets of size >= M contribute exactly zero and are
    skipped before enumerating their quadratic pair set. Each pair's weight
    is summed from 0.0 in index order, one query at a time.
    """
    sizes = np.diff(index.offsets)
    n_q = len(sizes)
    loaded = (sizes >= 2) & (sizes < M)
    value = np.zeros(n_q)
    value[loaded] = pm(M, sizes[loaded])     # also rejects M <= 2
    n = int(index.answers.max()) + 1 if len(index.answers) else 1
    if n * n * n_q >= 2 ** 63:
        raise ContractError(f"{n} entities and {n_q} queries overflow int64 pair keys")
    # one key (i * n + j) * n_q + q per pair increment sorts by pair, then by query
    keys = [np.empty(0, np.int64)]
    for size in np.unique(sizes[loaded]).tolist():
        q = np.flatnonzero(sizes == size)
        block = index.answers[index.offsets[q, None] + np.arange(size)]
        a, b = np.triu_indices(size, 1)
        keys.append(((block[:, a] * n + block[:, b]) * n_q + q[:, None]).ravel())
    keys = np.concatenate(keys)
    keys.sort()
    weights = value[keys % n_q]
    keys //= n_q
    first = np.ones(len(keys), bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    records = np.empty(int(first.sum()), EDGE_DTYPE)
    records["i"], records["j"] = np.divmod(keys[first], n)
    # bincount adds in input order, so each pair sums its queries in index order
    records["w"] = np.bincount(np.cumsum(first) - 1, weights=weights)
    return SPMMatrix(records, M)


def build_proximity_graph(spm: SPMMatrix, threshold: float, n_entities: int) -> ProximityGraph:
    """Connect an undirected edge wherever the accumulated value strictly exceeds the threshold."""
    if threshold < 0:
        raise ContractError(f"threshold must be non-negative, got {threshold}")
    return ProximityGraph(n_entities, threshold, spm.M, spm.records[spm.records["w"] > threshold])


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
    with atomic_write(path) as fh:
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
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{i}\t{j}\t{w!r}\n" for i, j, w in graph.edges.tolist())
