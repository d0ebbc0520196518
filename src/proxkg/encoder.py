"""Chained two-graph encoder.

Entity embeddings pass first through a relation-aware GNN over the triple
store, then through a homogeneous GNN over the proximity graph; relation
embeddings go through a one-hidden-layer MLP and are never updated by the
graph layers. A knowledge-graph-only variant bypasses the proximity stage
entirely while leaving the relation path unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .kgdata import ContractError
from .proximity import ProximityGraph

COMPOSITIONS = ("additive", "multiplicative", "mlp")
WEIGHT_SCHEMES = ("prior", "gcn", "attention")


@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 200
    kg_layers: int = 1
    prox_layers: int = 1
    composition: str = "additive"
    weight_scheme: str = "attention"
    kg_only: bool = False
    allow_any_depth: bool = False

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.dim <= 0:
            raise ContractError(f"embedding dim must be positive, got {self.dim}")
        if self.composition not in COMPOSITIONS:
            raise ContractError(f"unknown composition {self.composition!r}")
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise ContractError(f"unknown weight scheme {self.weight_scheme!r}")
        if not self.allow_any_depth:
            for name, val in (("kg_layers", self.kg_layers), ("prox_layers", self.prox_layers)):
                if val not in (1, 2, 3):
                    raise ContractError(f"{name} must be in {{1,2,3}} (set allow_any_depth to override)")


class RelationalAdjacency:
    """Edge arrays (src, rel, dst) of the active message-passing graph.

    An edge (h, r, t) delivers the composed (h, r) message to t. Degrees
    are taken over the active edge set and floored at 1 so weight formulas
    never divide by zero (zero-degree nodes receive no messages anyway).
    """

    def __init__(self, triples: np.ndarray, keep: np.ndarray | None = None, n_entities: int = 0):
        if keep is not None:
            triples = triples[keep]
        self.src = triples[:, 0].astype(np.int64)
        self.rel = triples[:, 1].astype(np.int64)
        self.dst = triples[:, 2].astype(np.int64)
        self.n_entities = n_entities
        self.out_deg = np.bincount(self.src, minlength=n_entities).astype(np.float64)
        self.in_deg = np.bincount(self.dst, minlength=n_entities).astype(np.float64)

    @property
    def n_edges(self) -> int:
        return len(self.src)


def compose(e: Tensor, r: Tensor, mode: str, params: dict | None = None) -> Tensor:
    """Fuse entity and relation message content."""
    if mode == "additive":
        return ad.add(e, r)
    if mode == "multiplicative":
        return ad.mul(e, r)
    if mode == "mlp":
        pre = ad.add(ad.matmul(ad.concat([e, r], axis=1), params["comp_W"]), params["comp_b"])
        return ad.tanh(pre)
    raise ContractError(f"unknown composition {mode!r}")


def messages(entities: Tensor, relations: Tensor, adj: RelationalAdjacency,
             config: EncoderConfig, params: dict) -> list[tuple[Tensor, np.ndarray]]:
    """The composed messages as (table, ids) terms: phi[k] = sum of table[ids[k]] over terms.

    Additive composition is E[src] + R[rel], so its terms are the entity and
    relation tables themselves and no [E, d] array is built. The other
    compositions build phi and index it by edge.
    """
    if config.composition == "additive":
        return [(entities, adj.src), (relations, adj.rel)]
    phi = compose(ad.gather_rows(entities, adj.src), ad.gather_rows(relations, adj.rel),
                  config.composition, params)
    return [(phi, np.arange(adj.n_edges))]


def relational_weights(adj: RelationalAdjacency, e_current: Tensor,
                       terms: list[tuple[Tensor, np.ndarray]], scheme: str) -> Tensor:
    """Per-edge aggregation weight.

    prior: reciprocal of the source out-degree; gcn: symmetric-normalized
    1/sqrt(d_dst * d_src); attention: softmax over each destination's
    neighborhood of the dot product between its current state and the
    composed message, given as the ``messages`` terms.
    """
    if scheme == "prior":
        return Tensor(1.0 / np.maximum(adj.out_deg[adj.src], 1.0))
    if scheme == "gcn":
        return Tensor(1.0 / np.sqrt(np.maximum(adj.in_deg[adj.dst], 1.0) * np.maximum(adj.out_deg[adj.src], 1.0)))
    if scheme == "attention":
        scores = reduce(ad.add, [ad.edge_dot(e_current, adj.dst, table, ids) for table, ids in terms])
        return ad.segment_softmax(scores, adj.dst, adj.n_entities)
    raise ContractError(f"unknown weight scheme {scheme!r}")


def gr_layer(entities: Tensor, relations: Tensor, adj: RelationalAdjacency,
             W: Tensor, config: EncoderConfig, params: dict) -> Tensor:
    """One relation-aware layer: weighted composed-neighbor sum, transform, tanh, residual."""
    terms = messages(entities, relations, adj, config, params)
    alpha = relational_weights(adj, entities, terms, config.weight_scheme)
    n = reduce(ad.add, [ad.edge_sum(alpha, adj.dst, ids, table, adj.n_entities)
                        for table, ids in terms])
    return ad.add(ad.tanh(ad.matmul(n, W)), entities)


class ProximityAdjacency:
    """Directed expansion of the proximity graph with pre-normalized weights.

    Each undirected edge (i, j) becomes the messages j -> i and i -> j,
    ordered by (dst, src).

    The per-neighborhood softmax of the accumulated proximity values is a
    fixed function of the graph, so it is computed once with numpy and
    held as a constant.
    """

    def __init__(self, graph: ProximityGraph):
        i, j = graph.edges["i"].astype(np.int64), graph.edges["j"].astype(np.int64)
        dst, src = np.concatenate([i, j]), np.concatenate([j, i])
        order = np.lexsort((src, dst))
        self.src = src[order]
        self.dst = dst[order]
        self.n_entities = graph.n_entities
        weights = np.concatenate([graph.edges["w"], graph.edges["w"]])[order]
        self.alpha = ad.segment_softmax(Tensor(weights), self.dst, graph.n_entities).data


def gp_layer(entities: Tensor, prox: ProximityAdjacency, W: Tensor) -> Tensor:
    """One proximity layer: fixed-softmax neighbor average, transform, tanh, residual."""
    n = ad.edge_sum(Tensor(prox.alpha), prox.dst, prox.src, entities, prox.n_entities)
    return ad.add(ad.tanh(ad.matmul(n, W)), entities)


def relation_mlp(relations: Tensor, params: dict) -> Tensor:
    """One hidden layer of the embedding dim with tanh, then a linear output layer."""
    hidden = ad.tanh(ad.add(ad.matmul(relations, params["rel_mlp_W1"]), params["rel_mlp_b1"]))
    return ad.add(ad.matmul(hidden, params["rel_mlp_W2"]), params["rel_mlp_b2"])


def encode(params: dict, adj: RelationalAdjacency, prox: ProximityAdjacency | None,
           config: EncoderConfig) -> tuple[Tensor, Tensor]:
    """Full encoder pass: entity embeddings through both GNN stages, relations through the MLP.

    The relation-aware layers always consume the initial relation
    embedding; with kg_only the proximity stage is skipped and the first
    stage's output feeds the decoder directly.
    """
    E = params["entity_embed"]
    R = params["relation_embed"]
    for l in range(config.kg_layers):
        E = gr_layer(E, R, adj, params[f"kg_W{l}"], config, params)
    if not config.kg_only:
        if prox is None:
            raise ContractError("proximity adjacency required unless kg_only is set")
        if prox.n_entities != params["entity_embed"].shape[0]:
            raise ContractError("proximity graph entity count does not match embeddings")
        for l in range(config.prox_layers):
            E = gp_layer(E, prox, params[f"prox_W{l}"])
    return E, relation_mlp(R, params)


def init_encoder_params(config: EncoderConfig, n_entities: int, n_relations: int,
                        rng: np.random.Generator) -> dict:
    """Uniform init in [-1/sqrt(d), 1/sqrt(d)] for all embeddings and transforms."""
    d = config.dim
    bound = 1.0 / np.sqrt(d)

    def u(*shape):
        return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

    params = {
        "entity_embed": u(n_entities, d),
        "relation_embed": u(n_relations, d),
        "rel_mlp_W1": u(d, d),
        "rel_mlp_b1": u(d),
        "rel_mlp_W2": u(d, d),
        "rel_mlp_b2": u(d),
    }
    for l in range(config.kg_layers):
        params[f"kg_W{l}"] = u(d, d)
    for l in range(config.prox_layers):
        params[f"prox_W{l}"] = u(d, d)
    if config.composition == "mlp":
        params["comp_W"] = u(2 * d, d)
        params["comp_b"] = u(d)
    return params
