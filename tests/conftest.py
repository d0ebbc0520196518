import json
import struct

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


def rewrite_checkpoint(path, blobs):
    """Rewrite the checkpoint file at ``path`` to hold exactly ``blobs``, its header otherwise kept."""
    data = path.read_bytes()
    header = json.loads(data[16:16 + int.from_bytes(data[8:16], "little")])
    header["blobs"] = [{"name": name, "shape": list(blob.shape)} for name, blob in blobs.items()]
    raw = json.dumps(header).encode()
    path.write_bytes(data[:8] + struct.pack("<Q", len(raw)) + raw
                     + b"".join(np.asarray(blob, np.float64).tobytes() for blob in blobs.values()))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
