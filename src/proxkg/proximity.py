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
                     query_answers, read_exact)

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
    the head query (?, r, t), in ``kgdata.query_answers`` order: sorted by
    (anchor, augmented relation), whatever the order of the train triples.
    Each train triple lands in two pairs, so the answers total 2x the train
    count.
    """
    if len(kg.raw_train()) == 0:
        raise ContractError("QA-pair extraction requires a non-empty train split")
    if not kg.augmented:
        kg = augment_inverse(kg)
    n_raw = kg.num_raw_relations
    queries, table = query_answers(kg.train, kg.n_relations, kg.n_entities)
    anchor, rel = queries.T
    direction = np.where(rel >= n_raw, HEAD_QUERY, TAIL_QUERY)
    # SciPy may store the table's indices as int32; accumulate_spm's pair keys need int64
    return QAPairIndex(np.stack([direction, anchor, rel % n_raw], axis=1),
                       table.indptr.astype(np.int64), table.indices.astype(np.int64))


def check_cutoff(M: int) -> None:
    """The one rule for the answer-set cutoff: pm needs M > 2, and the graph file stores M in 32 bits."""
    if not 2 < M < 2 ** 32:
        raise ContractError(f"answer-set cutoff M must exceed 2 and be below 2**32, got {M}")


def check_threshold(threshold: float) -> None:
    """The one rule for the edge threshold I: finite and non-negative."""
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ContractError(f"threshold I must be finite and non-negative, got {threshold}")


def pm(M: int, answer_set_size):
    """Pairwise proximity contributed by one query with the given answer-set size(s).

    Equals 1 for two answers, decays linearly, and is 0 once the set
    reaches the cutoff size M.
    """
    check_cutoff(M)
    size = np.asarray(answer_set_size)
    if np.any(size < 2):
        raise ContractError("pairwise proximity needs at least two answers")
    return np.maximum(M - size, 0) / (M - 2)


def accumulate_spm(index: QAPairIndex, M: int) -> SPMMatrix:
    """Sum per-query proximity over all QA pairs into sorted (i, j, w) records.

    Queries with answer sets of size >= M contribute exactly zero and are
    skipped before enumerating their quadratic pair set. Each pair sums the
    integer numerators M - |A| of pm over its shared queries and divides
    once by M - 2, so its weight is one correctly rounded quotient, the same
    whatever the order of the queries or of the train triples.
    """
    check_cutoff(M)
    sizes = np.diff(index.offsets)
    loaded = (sizes >= 2) & (sizes < M)
    n = int(index.answers.max()) + 1 if len(index.answers) else 1
    if n * n * M >= 2 ** 63:
        raise ContractError(f"{n} entities at cutoff M={M} overflow int64 pair keys")
    # one key (i * n + j) * M + (M - |A|) per pair increment: the pair and pm's numerator
    keys = [np.empty(0, np.int64)]
    for size in np.unique(sizes[loaded]).tolist():
        q = np.flatnonzero(sizes == size)
        block = index.answers[index.offsets[q, None] + np.arange(size)]
        a, b = np.triu_indices(size, 1)
        keys.append(((block[:, a] * n + block[:, b]) * M + (M - size)).ravel())
    keys = np.concatenate(keys)
    keys.sort()
    keys, numerators = np.divmod(keys, M)
    first = np.ones(len(keys), bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    records = np.empty(int(first.sum()), EDGE_DTYPE)
    records["i"], records["j"] = np.divmod(keys[first], n)
    # integer sums below 2**53 are exact in float64, so one division rounds each weight
    records["w"] = np.bincount(np.cumsum(first) - 1, weights=numerators) / (M - 2)
    return SPMMatrix(records, M)


def build_proximity_graph(spm: SPMMatrix, threshold: float, n_entities: int) -> ProximityGraph:
    """Connect an undirected edge wherever the accumulated value strictly exceeds the threshold."""
    check_threshold(threshold)
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
    """Reads a ``save_proximity_graph`` file; records it could not have written are a DataError."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ContractError(f"not a proximity-graph file: {path} (bad magic {magic!r})")
        version, n_entities, threshold, M, n_edges = _HEADER.unpack(
            read_exact(fh, _HEADER.size, f"proximity-graph header in {path}"))
        if version != _VERSION:
            raise ContractError(f"unsupported proximity-graph version {version}")
        try:
            check_threshold(threshold)
            check_cutoff(M)
        except ContractError as exc:
            raise DataError(f"proximity-graph file {path}: {exc}") from None
        payload = fh.read()
    if len(payload) != n_edges * EDGE_DTYPE.itemsize:
        raise DataError(f"proximity-graph file {path} declares {n_edges} edges "
                        f"but holds {len(payload)} record bytes")
    edges = np.frombuffer(payload, dtype=EDGE_DTYPE)
    if n_edges and max(edges["i"].max(), edges["j"].max()) >= n_entities:
        raise DataError(f"proximity-graph file {path} has an entity id >= {n_entities}")
    i, j, w = edges["i"], edges["j"], edges["w"]
    if not (np.all(i < j) and np.all((i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1])))):
        raise DataError(f"proximity-graph file {path}: records are not strictly increasing "
                        "(i, j) pairs with i < j")
    if not np.all(np.isfinite(w) & (w > threshold)):
        raise DataError(f"proximity-graph file {path} has a weight that is not a finite "
                        f"value above its threshold {threshold}")
    return ProximityGraph(n_entities, threshold, M, edges)


def export_proximity_tsv(graph: ProximityGraph, path) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{i}\t{j}\t{w!r}\n" for i, j, w in graph.edges.tolist())
