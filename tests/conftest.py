import numpy as np
import pytest

from proxkg.kgdata import KnowledgeGraph, Vocabulary
from proxkg.proximity import EDGE_DTYPE


def write_triples(path, triples):
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in triples:
            fh.write(f"{h}\t{r}\t{t}\n")


def kg_from_triples(train, valid=(), test=()):
    """Build a KnowledgeGraph directly from surface triples, train-first interning."""
    entities, relations = Vocabulary(), Vocabulary()

    def enc(rows):
        out = [(entities.intern(h), relations.intern(r), entities.intern(t))
               for h, r, t in rows]
        return np.asarray(out, dtype=np.int64).reshape(-1, 3)

    tr, va, te = enc(train), enc(valid), enc(test)
    return KnowledgeGraph(entities, relations, tr, va, te)


def spm_records(entries):
    """SPMMatrix records of an ``{(i, j): w}`` dict, sorted by (i, j)."""
    return np.array(sorted((i, j, w) for (i, j), w in entries.items()), dtype=EDGE_DTYPE)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
