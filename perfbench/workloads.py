"""The benchmark's workloads: inputs, set-up, one unit of timed work, output checks.

Every call into proxkg goes through a module attribute (``training.Trainer``,
``proximity.accumulate_spm``, ...) so that the tracer's patches see it.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import gen
from proxkg import encoder, evaluation, kgdata, proximity, training
from proxkg.decoder import DecoderConfig, init_decoder_params

DIM = 200
TRAIN_BATCH = 256
EVAL_BATCH = 512
THRESHOLD = 1.0         # the proximity threshold I
CHECK_SAMPLE = 100      # test triples in the ranking cross-check (200 ranked cases)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str             # "train" or "eval"
    why: str
    n_entities: int
    n_relations: int
    n_train: int          # raw train triples (augmented edges are twice as many)
    n_test: int = 0
    M: int = 50

    @property
    def items_per_unit(self) -> int:
        return TRAIN_BATCH if self.kind == "train" else 2 * self.n_test


WORKLOADS = {w.name: w for w in (
    Workload("train_dense", "train",
             "dense message passing: gr_layer forward+backward dominates the training step",
             n_entities=2000, n_relations=50, n_train=30000),
    Workload("eval_filtered", "eval",
             "forward-only scoring of every entity plus filtered ranking, "
             "after a proximity build at M=500 in set-up",
             n_entities=14541, n_relations=237, n_train=30000, n_test=1000, M=500),
)}


def make_inputs(w: Workload, seed: int) -> kgdata.KnowledgeGraph:
    """The raw (unaugmented) knowledge graph the program is given."""
    train, test = gen.generate(w.n_entities, w.n_relations, w.n_train, w.n_test, seed)
    entities, relations = kgdata.Vocabulary(), kgdata.Vocabulary()
    for i in range(w.n_entities):
        entities.intern(f"e{i}")
    for i in range(w.n_relations):
        relations.intern(f"r{i}")
    return kgdata.KnowledgeGraph(entities, relations, train, np.empty((0, 3), np.int64), test)


def model_configs():
    enc = encoder.EncoderConfig(dim=DIM, kg_layers=1, prox_layers=1,
                                composition="additive", weight_scheme="attention")
    return enc, DecoderConfig(dim=DIM)


def build_proximity(kg, w: Workload, scratch: str | None = None):
    """extract -> accumulate -> threshold [-> save -> load]."""
    index = proximity.extract_qa_pairs(kg)
    spm = proximity.accumulate_spm(index, w.M)
    graph = proximity.build_proximity_graph(spm, THRESHOLD, kg.n_entities)
    loaded = None
    if scratch is not None:
        path = os.path.join(scratch, "proximity.bin")
        proximity.save_proximity_graph(graph, path)
        loaded = proximity.load_proximity_graph(path)
    return index, spm, graph, loaded


class Run:
    """One workload's program state after set-up; ``unit()`` does one unit of timed work."""

    def __init__(self, w: Workload, raw: kgdata.KnowledgeGraph, scratch: str, span=None):
        self.w = w
        self.span = span or (lambda name: nullcontext())
        self.kg = kgdata.augment_inverse(raw)
        self.enc, self.dec = model_configs()
        self.losses: list[float] = []
        self.last = None
        if w.kind == "train":
            self.built = build_proximity(self.kg, w)
            graph = self.built[2]
            cfg = training.TrainConfig(batch_size=TRAIN_BATCH, seed=0)
            self.trainer = training.Trainer(self.kg, graph, self.enc, self.dec, cfg)
            self.batches = iter(())
            self.unit()                                              # warm-up step
        else:
            self.built = build_proximity(self.kg, w, scratch)
            graph = self.built[3]                                    # the reloaded graph
            rng = np.random.Generator(np.random.PCG64(0))
            self.params = encoder.init_encoder_params(self.enc, self.kg.n_entities,
                                                      self.kg.n_relations, rng)
            self.params.update(init_decoder_params(self.dec, self.kg.n_entities, rng))
            self.prox = encoder.ProximityAdjacency(graph)
            queries = self._cases(self.kg.test[:EVAL_BATCH // 2])[:, :2]
            evaluation.score_all_queries(self.params, self.kg, self.prox, self.enc, self.dec,
                                         [tuple(q) for q in queries.tolist()])  # warm-up batch

    def unit(self):
        w = self.w
        if w.kind == "train":
            with self.span("training.batch"):
                batch = next(self.batches, None)
                if batch is None:
                    t = self.trainer
                    self.batches = training.build_batches(
                        t.queries, t.answer_lists, self.kg.n_entities, TRAIN_BATCH,
                        t.train_config.label_smoothing, t.rng)
                    batch = next(self.batches)
            self.losses.append(self.trainer.step(batch))
        else:
            self.last = evaluation.evaluate(self.params, self.kg, self.prox, self.enc, self.dec,
                                            split="test", batch_size=EVAL_BATCH)

    def release(self):
        """Free the previous unit's output, so the next unit does not pay for it."""
        self.last = None

    def _cases(self, triples: np.ndarray) -> np.ndarray:
        """(anchor, relation, target) rows, both directions of each triple, in triple order."""
        n_raw = self.kg.num_raw_relations
        inverse = np.stack([triples[:, 2], triples[:, 1] + n_raw, triples[:, 0]], axis=1)
        return np.stack([triples, inverse], axis=1).reshape(-1, 3)

    # ---- output checks, run outside the timed window; each returns (name, ok, detail)

    def unit_check(self):
        """Cheap check of the latest unit's output, done after every unit."""
        if self.w.kind == "train":
            loss = self.losses[-1]
            return "loss finite", bool(np.isfinite(loss)), f"{loss!r}"
        if self.w.kind == "eval":
            want = 2 * len(self.kg.test)
            return "n_queries = 2 x |test|", self.last["n_queries"] == want, \
                f"{self.last['n_queries']} vs {want}"
        return None

    def final_checks(self, raw: kgdata.KnowledgeGraph) -> list[tuple[str, bool, str]]:
        if self.w.kind == "train":
            first, last = self.losses[0], self.losses[-1]
            return [("last loss < first loss", last < first, f"{first!r} -> {last!r}")]
        return self._prox_checks(raw) + [self._ranking_check()]

    def _prox_checks(self, raw):
        w = self.w
        index, spm, graph, loaded = self.built
        sizes = gen.answer_set_sizes(raw.train).astype(np.float64)
        got_sizes = np.sort(self._answer_set_sizes(index))
        pm = np.where(sizes >= 2, np.maximum(w.M - sizes, 0) / (w.M - 2), 0.0)
        want = float((pm * sizes * (sizes - 1) / 2).sum())
        mass = float(sum(spm.entries.values()))
        edges = graph.edge_list()
        same = (loaded.n_entities, loaded.threshold, loaded.M) == \
            (graph.n_entities, graph.threshold, graph.M) and np.array_equal(loaded.edge_list(), edges)
        return [
            ("SPM mass = sum pm(M,|A|) C(|A|,2)", bool(np.isclose(mass, want, rtol=1e-9, atol=0)),
             f"{mass!r} vs {want!r}"),
            ("QA answer-set sizes = distinct queries' answer counts",
             np.array_equal(got_sizes, np.sort(sizes)),
             f"{len(got_sizes)} vs {len(sizes)} QA pairs, {got_sizes.sum()} vs "
             f"{int(sizes.sum())} answers"),
            ("edge weights > I", bool(len(edges) == 0 or edges[:, 2].min() > THRESHOLD),
             f"min {edges[:, 2].min() if len(edges) else None!r}"),
            ("save/load round trip exact", same, f"{loaded.n_edges} of {graph.n_edges} edges"),
        ]

    def _ranking_check(self):
        """MRR of ``evaluate`` on a sample vs an independent vectorised tie-averaged ranking."""
        kg = self.kg
        sample, rest = kg.test[:CHECK_SAMPLE], kg.test[CHECK_SAMPLE:]
        sub = kgdata.KnowledgeGraph(kg.entities, kg.relations, kg.train,
                                    np.concatenate([kg.valid, rest]), sample, augmented=True,
                                    num_raw_relations=kg.num_raw_relations)
        got = evaluation.evaluate(self.params, sub, self.prox, self.enc, self.dec,
                                  split="test", batch_size=EVAL_BATCH)["mrr"]
        cases = self._cases(sample)
        scores = evaluation.score_all_queries(self.params, kg, self.prox, self.enc, self.dec,
                                              [tuple(q) for q in cases[:, :2].tolist()],
                                              EVAL_BATCH)
        n_e, n_rel = kg.n_entities, kg.n_relations
        known = np.concatenate([kg.train, self._cases(np.concatenate([kg.valid, kg.test]))])
        known_keys = (known[:, 0] * n_rel + known[:, 1]) * n_e + known[:, 2]
        cand = (cases[:, :1] * n_rel + cases[:, 1:2]) * n_e + np.arange(n_e)
        mask = np.isin(cand, known_keys)
        mask[np.arange(len(cases)), cases[:, 2]] = False
        masked = np.where(mask, -np.inf, scores)
        s_t = masked[np.arange(len(cases)), cases[:, 2]][:, None]
        better = (masked > s_t).sum(axis=1)
        ties = (masked == s_t).sum(axis=1) - 1
        want = float((1.0 / (1 + better + ties / 2)).mean())
        return "sample MRR = independent ranking", bool(np.isclose(got, want, rtol=1e-12, atol=0)), \
            f"{got!r} vs {want!r}"

    @staticmethod
    def _answer_set_sizes(index) -> np.ndarray:
        return np.array([len(p.answers) for p in index.pairs], dtype=np.int64)

    def proximity_counts(self) -> dict:
        """Counts read from the latest proximity build's outputs.

        They are fixed by the input graph, M and I: a correct change to the
        proximity pipeline leaves every one of them as it is.
        """
        index, spm, graph = self.built[:3]
        sizes = self._answer_set_sizes(index)
        loaded = sizes[(sizes >= 2) & (sizes < self.w.M)]
        return {
            "proximity.qa_pairs": len(index.pairs),
            "proximity.pair_increments": int((loaded * (loaded - 1) // 2).sum()),
            "proximity.spm_entries": len(spm.entries),
            "proximity.edges": graph.n_edges,
            "proximity.edge_yield": graph.n_edges / len(spm.entries) if spm.entries else 0.0,
        }
