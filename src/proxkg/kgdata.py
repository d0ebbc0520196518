"""Triple-store ingestion, vocabulary interning, and graph transforms.

Datasets arrive as tab-separated ``head<TAB>relation<TAB>tail`` files, one
triple per line, the de-facto distribution format of the standard link
prediction benchmarks.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

INVERSE_SUFFIX = "_reverse"


class DataError(Exception):
    """Malformed or inconsistent input data."""


class ContractError(Exception):
    """An operation was called outside its contract."""


class NumericError(Exception):
    """A computation went non-finite: a training loss, or a score being ranked."""


class Vocabulary:
    """Dense interning of surface strings; first-seen order is preserved."""

    def __init__(self, surfaces=()):
        self._to_id: dict[str, int] = {}
        self._to_surface: list[str] = []
        for surface in surfaces:
            self.intern(surface)

    def intern(self, surface: str) -> int:
        idx = self._to_id.get(surface)
        if idx is None:
            idx = len(self._to_surface)
            self._to_id[surface] = idx
            self._to_surface.append(surface)
        return idx

    def lookup(self, surface: str) -> int:
        return self._to_id[surface]

    def surface(self, idx: int) -> str:
        return self._to_surface[idx]

    def __contains__(self, surface: str) -> bool:
        return surface in self._to_id

    def __len__(self) -> int:
        return len(self._to_surface)

    def surfaces(self) -> list[str]:
        return list(self._to_surface)


@dataclass
class KnowledgeGraph:
    """Immutable triple store with split tags and interned vocabularies.

    Triples are int64 arrays of shape [n, 3] (head, relation, tail).
    """

    entities: Vocabulary
    relations: Vocabulary
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    augmented: bool = False
    num_raw_relations: int | None = None
    report: dict = field(default_factory=dict)

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def split(self, name: str) -> np.ndarray:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise ContractError(f"unknown split {name!r}") from None

    def raw_train(self) -> np.ndarray:
        """Train triples before inverse augmentation."""
        if not self.augmented:
            return self.train
        return self.train[: len(self.train) // 2]


def read_lines(path, error=DataError) -> list[str]:
    """The lines of a UTF-8 text file, endings kept; undecodable bytes raise ``error``."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def _parse_split(path, entities: Vocabulary, relations: Vocabulary) -> np.ndarray:
    triples = []
    seen = set()
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}")
        if line in seen:
            raise DataError(f"{path}:{lineno}: duplicate triple {line!r} within split")
        seen.add(line)
        h, r, t = fields
        triples.append((entities.intern(h), relations.intern(r), entities.intern(t)))
    return np.asarray(triples, dtype=np.int64).reshape(-1, 3)


def ingest_dataset(train_path, valid_path, test_path) -> KnowledgeGraph:
    """Read the three split files and intern all vocabularies.

    Interning order is deterministic: first occurrence in train, then
    valid, then test. Entities or relations appearing only outside the
    train split are accepted and flagged in the ingestion report.
    """
    entities = Vocabulary()
    relations = Vocabulary()
    train = _parse_split(train_path, entities, relations)
    n_e_train, n_r_train = len(entities), len(relations)
    valid = _parse_split(valid_path, entities, relations)
    test = _parse_split(test_path, entities, relations)

    unseen_entities = [entities.surface(i) for i in range(n_e_train, len(entities))]
    unseen_relations = [relations.surface(i) for i in range(n_r_train, len(relations))]
    report = {
        "n_entities": len(entities),
        "n_relations": len(relations),
        "counts": {"train": len(train), "valid": len(valid), "test": len(test)},
        "unseen_entities": unseen_entities,
        "unseen_relations": unseen_relations,
    }
    return KnowledgeGraph(entities, relations, train, valid, test, report=report)


def inverse_triples(triples: np.ndarray, n_raw: int) -> np.ndarray:
    """The inverse (t, r + n_raw, h) of each raw triple (h, r, t), in triple order."""
    return triples[:, [2, 1, 0]] + [0, n_raw, 0]


def augment_inverse(kg: KnowledgeGraph) -> KnowledgeGraph:
    """Add one inverse train triple (t, r_inv, h) per original (h, r, t).

    Inverse relation ids occupy [n_r, 2*n_r); valid/test splits are left
    untouched (inverse evaluation queries are generated at ranking time).
    """
    if kg.augmented:
        raise ContractError("knowledge graph is already augmented")
    n_r = kg.n_relations
    relations = Vocabulary(kg.relations.surfaces())
    for surface in kg.relations.surfaces():
        inv = surface + INVERSE_SUFFIX
        if inv in relations:
            raise DataError(f"inverse name collision: {inv!r} already exists")
        relations.intern(inv)

    return KnowledgeGraph(
        kg.entities,
        relations,
        np.concatenate([kg.train, inverse_triples(kg.train, n_r)]),
        kg.valid,
        kg.test,
        augmented=True,
        num_raw_relations=n_r,
        report=dict(kg.report),
    )


def query_answers(triples: np.ndarray, n_relations: int,
                  n_entities: int) -> tuple[np.ndarray, sparse.csr_array]:
    """Distinct (anchor, relation) queries of a triple set with a CSR table of their answers.

    Returns ``(queries, table)``: ``queries`` is [Q, 2] sorted by (anchor,
    relation), and row q of the [Q, n_entities] ``table`` holds 1 at each of
    query q's distinct answers, in ascending column order.
    """
    keys = (triples[:, 0] * n_relations + triples[:, 1]) * n_entities + triples[:, 2]
    query, answers = np.divmod(np.unique(keys), n_entities)
    unique_query, starts = np.unique(query, return_index=True)
    queries = np.stack(np.divmod(unique_query, n_relations), axis=1)
    table = sparse.csr_array((np.ones(len(answers)), answers, np.append(starts, len(answers))),
                             shape=(len(queries), n_entities))
    return queries, table


def answer_rows(queries: np.ndarray, table: sparse.csr_array,
                cases: np.ndarray) -> sparse.csr_array:
    """[len(cases), n_e] CSR rows of a ``query_answers`` table, one per case's (anchor, relation).

    A query the table does not hold reads as an empty row.
    """
    n = 1 + int(max(queries[:, 1].max(initial=0), cases[:, 1].max(initial=0)))
    keys, wanted = queries[:, 0] * n + queries[:, 1], cases[:, 0] * n + cases[:, 1]
    pos = np.searchsorted(keys, wanted)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == wanted[hit]
    # one 1 per found case, at its table row: the product copies those rows
    pick = sparse.csr_array((np.ones(hit.sum()), pos[hit], np.append(0, np.cumsum(hit))),
                            shape=(len(cases), len(queries)))
    return pick @ table


def sample_edge_dropout(kg: KnowledgeGraph, seed: int, drop_rate: float) -> np.ndarray:
    """Boolean mask over the train triples, True where one batch's message-passing view keeps it.

    Each triple is kept independently with probability 1 - drop_rate;
    deterministic for a fixed seed.
    """
    if not 0.0 <= drop_rate <= 1.0:
        raise ContractError(f"drop_rate must be in [0,1], got {drop_rate}")
    if not kg.augmented:
        raise ContractError("edge dropout operates on the augmented train split")
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.random(len(kg.train)) >= drop_rate


@contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open a temporary file beside ``path`` for writing, then rename it over ``path``.

    The rename happens only when the ``with`` block completes, so a write that
    raises leaves the previous file as it was; the temporary file is removed
    either way.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def read_exact(fh, n: int, what: str) -> bytearray:
    """The next ``n`` bytes of ``fh``, read into a new writable buffer; if the file is
    shorter, a DataError before any read."""
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise DataError(f"truncated {what}")
    buf = bytearray(n)
    fh.readinto(buf)
    return buf


def _unicode_array(strings: list[str]) -> np.ndarray:
    array = np.asarray(strings, dtype=str)
    # a fixed-width unicode array drops trailing NULs, which would merge distinct surfaces
    if array.tolist() != strings:
        raise DataError("a surface string ending in NUL cannot be stored")
    return array


def save_kg(kg: KnowledgeGraph, path) -> None:
    """One ``.npz`` of plain arrays: vocabularies and the report are unicode arrays.

    Written through a file handle, so numpy appends no ``.npz`` to ``path``.
    """
    with atomic_write(path) as fh:
        np.savez_compressed(
            fh,
            entities=_unicode_array(kg.entities.surfaces()),
            relations=_unicode_array(kg.relations.surfaces()),
            train=kg.train,
            valid=kg.valid,
            test=kg.test,
            augmented=np.asarray([kg.augmented]),
            num_raw_relations=np.asarray([-1 if kg.num_raw_relations is None
                                          else kg.num_raw_relations]),
            report=np.asarray([json.dumps(kg.report)]),
        )


def load_kg(path) -> KnowledgeGraph:
    """Reads a ``save_kg`` file without unpickling anything.

    A damaged or incomplete file, a bare ``.npy`` array, a file holding pickled
    object arrays, one whose triples name an id outside the vocabularies, or an
    augmented one whose train split is not its raw half followed by that half's
    inverses is a DataError.
    """
    try:
        # np.load leaves a file it opened itself open when the zip is damaged
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as z:
            num_raw = int(z["num_raw_relations"][0])
            kg = KnowledgeGraph(
                Vocabulary(z["entities"].tolist()),
                Vocabulary(z["relations"].tolist()),
                z["train"].astype(np.int64).reshape(-1, 3),
                z["valid"].astype(np.int64).reshape(-1, 3),
                z["test"].astype(np.int64).reshape(-1, 3),
                augmented=bool(z["augmented"][0]),
                num_raw_relations=None if num_raw < 0 else num_raw,
                report=json.loads(str(z["report"][0])),
            )
    except (zipfile.BadZipFile, zlib.error, EOFError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"damaged or pickled knowledge graph file {path} "
                        f"(re-run ingest): {exc}") from None
    for name in ("train", "valid", "test"):
        triples = kg.split(name)
        if triples.size and (triples.min() < 0 or triples[:, [0, 2]].max() >= kg.n_entities
                             or triples[:, 1].max() >= kg.n_relations):
            raise DataError(f"{name} triples in {path} name an entity id outside "
                            f"[0, {kg.n_entities}) or a relation id outside [0, {kg.n_relations})")
    n_raw, half = kg.num_raw_relations, len(kg.train) // 2
    if kg.augmented and (n_raw is None or kg.n_relations != 2 * n_raw or len(kg.train) % 2
                         or not np.array_equal(kg.train[half:],
                                               inverse_triples(kg.train[:half], n_raw))):
        raise DataError(f"augmented knowledge graph file {path} is inconsistent: its train "
                        "split must be raw triples followed by their inverses, over "
                        f"2 x {n_raw} raw relations, not {kg.n_relations} (re-run ingest)")
    return kg
