"""Layer spans recorded from outside proxkg.

Each traced name is patched in the module that calls it: ``training`` and
``evaluation`` import ``encode``, ``conve_score`` and friends by name, so the
patch goes on those modules, while the encoder layers and the autodiff ops
are looked up as module globals at call time. An autodiff op called inside a
layer also gets its output's ``_backward`` closure wrapped, so the backward
walk's time is attributed to the layer that built that part of the graph.

Spans stay in memory as (id, parent, name, start, end, tag) and are written
out when the run ends. The patches change no arithmetic, so a traced run
computes bit-identical results.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

from proxkg import autodiff, encoder, evaluation, kgdata, proximity, training

OPS = ("add", "sub", "mul", "scale", "matmul", "transpose", "reshape", "concat", "tsum",
       "mean", "log", "clip", "tanh", "relu", "sigmoid", "dropout", "gather_rows",
       "segment_weighted_sum", "segment_softmax", "conv2d")

# (object patched, attribute, span name)
PATCHES = [
    (kgdata, "augment_inverse", "kgdata.augment"),
    (training, "sample_edge_dropout", "kgdata.edge_dropout"),
    (proximity, "extract_qa_pairs", "proximity.extract_qa"),
    (proximity, "accumulate_spm", "proximity.accumulate_spm"),
    (proximity, "build_proximity_graph", "proximity.build_graph"),
    (proximity, "save_proximity_graph", "proximity.save"),
    (proximity, "load_proximity_graph", "proximity.load"),
    (encoder, "ProximityAdjacency", "encoder.proximity_adjacency"),
    (training, "ProximityAdjacency", "encoder.proximity_adjacency"),
    (training, "RelationalAdjacency", "encoder.adjacency"),
    (evaluation, "RelationalAdjacency", "encoder.adjacency"),
    (training, "encode", "encoder.encode"),
    (evaluation, "encode", "encoder.encode"),
    (encoder, "gr_layer", "encoder.gr_layer"),
    (encoder, "gp_layer", "encoder.gp_layer"),
    (encoder, "relation_mlp", "encoder.relation_mlp"),
    (training, "conve_score", "decoder.conve_score"),
    (training, "bce_loss", "decoder.bce_loss"),
    (training.Trainer, "__init__", "training.trainer_init"),
    (training.Trainer, "step", "training.step"),
    (training.Adam, "step", "training.optimizer"),
    (training.SGD, "step", "training.optimizer"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "build_filter_index", "evaluation.filter_index"),
    (evaluation, "score_all_queries", "evaluation.score_all"),
    (evaluation, "conve_score", "evaluation.score_batch"),
    (evaluation, "filtered_rank", "evaluation.filtered_rank"),
]


class Tracer:
    """In-memory span recorder; ``installed()`` patches proxkg for its duration."""

    def __init__(self):
        self.spans: list[list] = []      # [id, parent, name, start, end, tag]
        self._open: list[int] = []       # ids of the spans enclosing the current call
        self._layer: list[str] = []      # names of the enclosing non-autodiff spans
        # autodiff ops run, bytes of their outputs, bytes of score matrices returned
        self.counts = {"ops": 0, "op_bytes": 0, "score_bytes": 0}

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        sid = len(self.spans)
        rec = [sid, self._open[-1] if self._open else None, name, 0.0, 0.0, tag]
        self.spans.append(rec)
        self._open.append(sid)
        layer = not name.startswith("autodiff.")
        if layer:
            self._layer.append(name)
        rec[3] = time.perf_counter()
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._open.pop()
            if layer:
                self._layer.pop()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if name == "evaluation.score_all":
                self.counts["score_bytes"] += out.nbytes
            return out
        return traced

    def _wrap_op(self, fn, name):
        def traced(*args, **kwargs):
            tag = self._layer[-1] if self._layer else None
            with self.span(name, tag):
                out = fn(*args, **kwargs)
            if any(out is a for a in args):      # identity ops such as eval-mode dropout
                return out
            self.counts["ops"] += 1
            self.counts["op_bytes"] += out.data.nbytes
            if out._backward is not None:
                out._backward = self._wrap_backward(out._backward, name + ".bwd", tag)
            return out
        return traced

    def _wrap_backward(self, fn, name, tag):
        def traced(g):
            with self.span(name, tag):
                return fn(g)
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for obj, attr, name in PATCHES:
                saved.append((obj, attr, getattr(obj, attr)))
                setattr(obj, attr, self._wrap(getattr(obj, attr), name))
            for op in OPS:
                saved.append((autodiff, op, getattr(autodiff, op)))
                setattr(autodiff, op, self._wrap_op(getattr(autodiff, op), "autodiff." + op))
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, tag in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "tag": tag}) + "\n")


class SpanTree:
    """Durations, self times and layer attribution of the spans under one root."""

    def __init__(self, spans: list[list], root: int):
        first = spans[root]
        end_id = root + 1
        while end_id < len(spans) and spans[end_id][3] < first[4]:
            end_id += 1
        self.spans = spans[root:end_id]
        self.total = first[4] - first[3]
        child = {}
        for sid, parent, _, start, end, _ in self.spans[1:]:
            child[parent] = child.get(parent, 0.0) + (end - start)
        self.self_time = {s[0]: (s[4] - s[3]) - child.get(s[0], 0.0) for s in self.spans}

    def time(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s[4] - s[3] for s in self.spans if s[2] == name)

    def self_of(self, name: str) -> float:
        return sum(self.self_time[s[0]] for s in self.spans if s[2] == name)

    def backward_of(self, layer: str) -> float:
        """Backward time of the op closures recorded while ``layer`` ran forward."""
        return sum(s[4] - s[3] for s in self.spans if s[5] == layer and s[2].endswith(".bwd"))

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]


def median(values) -> float:
    return statistics.median(values) if len(values) else 0.0


REPORTED_OPS = ("gather_rows", "segment_weighted_sum", "segment_softmax", "matmul", "conv2d",
                "mul", "add", "tanh", "sigmoid", "log", "clip", "dropout")
LAYERS = ("encoder.gr_layer", "encoder.gp_layer", "encoder.relation_mlp",
          "decoder.conve_score", "decoder.bce_loss")
# spans whose time counts once per set-up when the timed units never run them
SETUP_SPANS = ("kgdata.augment", "training.trainer_init", "encoder.proximity_adjacency",
               "proximity.extract_qa", "proximity.accumulate_spm", "proximity.build_graph",
               "proximity.save", "proximity.load")

# per-layer metrics in report order: (name, unit, better)
LAYER_METRICS = (
    [(f"{layer}.{d}_ms", "ms", "lower") for layer in LAYERS[:3] for d in ("fwd", "bwd")]
    + [("encoder.adjacency_ms", "ms", "lower"), ("encoder.encode_s", "s", "lower"),
       ("encoder.proximity_adjacency_s", "s", "lower"),
       ("autodiff.backward_ms", "ms", "lower"), ("autodiff.backward_walk_ms", "ms", "lower")]
    + [(f"autodiff.{op}.{d}_ms", "ms", "lower") for op in REPORTED_OPS for d in ("fwd", "bwd")]
    + [("autodiff.ops_per_step", "count", "lower"), ("autodiff.graph_mb_per_step", "MB", "lower")]
    + [(f"{layer}.{d}_ms", "ms", "lower") for layer in LAYERS[3:] for d in ("fwd", "bwd")]
    + [("training.batch_ms", "ms", "lower"), ("training.optimizer_ms", "ms", "lower"),
       ("training.trainer_init_s", "s", "lower"), ("training.step_self_ms", "ms", "lower"),
       ("kgdata.edge_dropout_ms", "ms", "lower"), ("kgdata.augment_s", "s", "lower")]
    + [(f"proximity.{n}_s", "s", "lower")
       for n in ("extract_qa", "accumulate_spm", "build_graph", "save", "load")]
    + [("evaluation.filter_index_s", "s", "lower"), ("evaluation.score_batch_ms", "ms", "lower"),
       ("evaluation.rank_us", "us", "lower"), ("evaluation.score_matrix_mb", "MB", "lower")]
    + [("trace.overhead_pct", "%", "lower"), ("trace.unattributed_pct", "%", "lower")]
)


def layer_metrics(units: list[SpanTree], setup: SpanTree, unit_counts: dict[str, int],
                  cases: int) -> dict[str, float]:
    """Per-layer values: medians over the traced units, in the units LAYER_METRICS names.

    Times are per unit of work (training step, proximity build, evaluate
    call), except ``score_batch_ms`` (per scored batch) and ``rank_us`` (per
    ranked case); a span in SETUP_SPANS that no unit runs is taken from the
    traced set-up. Counts are the first traced unit's ``Tracer.counts``.
    """
    def per_unit(fn):
        return median([fn(t) for t in units])

    def timed(name):
        value = per_unit(lambda t: t.time(name))
        if value == 0.0 and name in SETUP_SPANS:
            value = setup.time(name)
        return value

    m = {}
    for layer in LAYERS:
        m[f"{layer}.fwd_ms"] = timed(layer) * 1e3
        m[f"{layer}.bwd_ms"] = per_unit(lambda t: t.backward_of(layer)) * 1e3
    m["encoder.adjacency_ms"] = timed("encoder.adjacency") * 1e3
    m["encoder.encode_s"] = timed("encoder.encode")
    m["encoder.proximity_adjacency_s"] = timed("encoder.proximity_adjacency")
    m["autodiff.backward_ms"] = timed("autodiff.backward") * 1e3
    m["autodiff.backward_walk_ms"] = per_unit(lambda t: t.self_of("autodiff.backward")) * 1e3
    for op in REPORTED_OPS:
        m[f"autodiff.{op}.fwd_ms"] = timed(f"autodiff.{op}") * 1e3
        m[f"autodiff.{op}.bwd_ms"] = timed(f"autodiff.{op}.bwd") * 1e3
    m["autodiff.ops_per_step"] = unit_counts["ops"]
    m["autodiff.graph_mb_per_step"] = unit_counts["op_bytes"] / 2**20
    m["training.batch_ms"] = timed("training.batch") * 1e3
    m["training.optimizer_ms"] = timed("training.optimizer") * 1e3
    m["training.trainer_init_s"] = timed("training.trainer_init")
    m["training.step_self_ms"] = per_unit(lambda t: t.self_of("training.step")) * 1e3
    m["kgdata.edge_dropout_ms"] = timed("kgdata.edge_dropout") * 1e3
    m["kgdata.augment_s"] = timed("kgdata.augment")
    for n in ("extract_qa", "accumulate_spm", "build_graph", "save", "load"):
        m[f"proximity.{n}_s"] = timed(f"proximity.{n}")
    m["evaluation.filter_index_s"] = timed("evaluation.filter_index")
    m["evaluation.score_batch_ms"] = median([d for t in units
                                             for d in t.durations("evaluation.score_batch")]) * 1e3
    m["evaluation.rank_us"] = timed("evaluation.filtered_rank") / cases * 1e6 if cases else 0.0
    m["evaluation.score_matrix_mb"] = unit_counts["score_bytes"] / 2**20
    m["trace.unattributed_pct"] = per_unit(lambda t: t.self_time[t.spans[0][0]] / t.total) * 100
    return m


def shares(units: list[SpanTree]) -> dict[str, float]:
    """Disjoint parts of the units' summed time, as fractions; 'other' is what no part covers."""
    parts = {layer: sum(t.time(layer) + t.backward_of(layer) for t in units) for layer in LAYERS}
    for name in ("encoder.adjacency", "kgdata.edge_dropout", "training.batch",
                 "training.optimizer", "evaluation.filter_index", "evaluation.score_batch",
                 "evaluation.filtered_rank", "encoder.proximity_adjacency",
                 "proximity.extract_qa", "proximity.accumulate_spm", "proximity.build_graph",
                 "proximity.save", "proximity.load"):
        parts[name] = sum(t.time(name) for t in units)
    parts["autodiff.backward_walk"] = sum(t.self_of("autodiff.backward") for t in units)
    total = sum(t.total for t in units)
    parts["other"] = total - sum(parts.values())
    return {k: v / total for k, v in parts.items()}
