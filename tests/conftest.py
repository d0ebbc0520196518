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


def rewrite_checkpoint_header(path, edit, version=None):
    """Rewrite the checkpoint at ``path`` with ``edit(header)`` as its JSON header, stored as
    ``version`` if one is given; its blobs are kept."""
    data = path.read_bytes()
    end = 16 + int.from_bytes(data[8:16], "little")
    raw = json.dumps(edit(json.loads(data[16:end]))).encode()
    head = data[:8] if version is None else data[:4] + struct.pack("<I", version)
    path.write_bytes(head + struct.pack("<Q", len(raw)) + raw + data[end:])


# version-2 decoder configs no save wrote, each storing the reshape (2, 4): with no dim, a
# text dim and a negative one
LEGACY_DECODERS = {
    "no_dim": lambda dec: {k: v for k, v in dec.items() if k != "dim"},
    "text_dim": lambda dec: {**dec, "dim": "x"},
    "negative_dim": lambda dec: {**dec, "dim": -4},
}


def legacy_decoder_header(case):
    """A header edit for ``rewrite_checkpoint_header``: the ``LEGACY_DECODERS`` case's decoder."""
    return lambda header: {**header, "decoder_config": {
        **LEGACY_DECODERS[case](header["decoder_config"]), "reshape_h": 2, "reshape_w": 4}}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
