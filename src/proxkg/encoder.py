"""Chained two-graph encoder.

Entity embeddings pass first through a relation-aware GNN over the triple
store, then through a homogeneous GNN over the proximity graph; relation
embeddings go through a one-hidden-layer MLP and are never updated by the
graph layers. A knowledge-graph-only variant bypasses the proximity stage
entirely while leaving the relation path unchanged.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import autodiff as ad
from .autodiff import Tensor
from .kgdata import ContractError
from .proximity import ProximityGraph

COMPOSITIONS = ("additive", "multiplicative", "mlp")
WEIGHT_SCHEMES = ("prior", "gcn", "attention")
MAX_DIM = 2 ** 20     # widest embedding a config accepts; the paper's widths are 200 to 1000


def check_dim(dim: int) -> None:
    """Reject an embedding width outside [1, MAX_DIM], before the decoder's reshape search on it."""
    if not 0 < dim <= MAX_DIM:
        raise ContractError(f"embedding dim must be in [1, {MAX_DIM}], got {dim}")


@dataclass(frozen=True)
class EncoderConfig:
    dim: int = 200
    kg_layers: int = 1
    prox_layers: int = 1
    composition: str = "additive"
    weight_scheme: str = "attention"
    kg_only: bool = False

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        check_dim(self.dim)
        if self.composition not in COMPOSITIONS:
            raise ContractError(f"unknown composition {self.composition!r}")
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise ContractError(f"unknown weight scheme {self.weight_scheme!r}")
        if self.kg_layers < 0 or self.prox_layers < 0:
            raise ContractError("kg_layers and prox_layers must be non-negative")


class RelationalAdjacency:
    """Edge arrays (src, rel, dst) of the message-passing graph, sorted by dst.

    An edge (h, r, t) delivers the composed (h, r) message to t. One stable
    sort orders the edges by destination, so the edge ops' CSR rows need no
    sort and each destination's rows are gathered as one run; ``order`` holds
    each edge's input row, and ``kept`` selects an edge-dropout view along it.
    """

    def __init__(self, triples: np.ndarray, n_entities: int):
        self.n_entities = n_entities
        self.order = np.argsort(triples[:, 2], kind="stable")
        self.src, self.rel, self.dst = np.ascontiguousarray(triples[self.order].T, dtype=np.int64)

    def kept(self, keep: np.ndarray) -> RelationalAdjacency:
        """The view of the edges whose boolean ``keep``, indexed by input row, is True."""
        view, on = copy.copy(self), keep[self.order]
        view.order, view.src, view.rel, view.dst = (self.order[on], self.src[on], self.rel[on],
                                                    self.dst[on])
        return view

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
        return ad.tanh(ad.affine(ad.concat([e, r], axis=1), params["comp_W"], params["comp_b"]))
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
    composed message, given as the ``messages`` terms. Degrees count
    ``adj``'s edges, so an edge's own endpoints have degree at least 1.
    """
    if scheme == "prior":
        return Tensor(1.0 / np.bincount(adj.src)[adj.src])
    if scheme == "gcn":
        return Tensor(1.0 / np.sqrt(np.bincount(adj.dst)[adj.dst] * np.bincount(adj.src)[adj.src]))
    if scheme == "attention":
        return ad.segment_softmax(ad.edge_dot(e_current, adj.dst, terms), adj.dst, adj.n_entities)
    raise ContractError(f"unknown weight scheme {scheme!r}")


def gr_layer(entities: Tensor, relations: Tensor, adj: RelationalAdjacency,
             W: Tensor, config: EncoderConfig, params: dict) -> Tensor:
    """One relation-aware layer: weighted composed-neighbor sum, transform, tanh, residual."""
    terms = messages(entities, relations, adj, config, params)
    alpha = relational_weights(adj, entities, terms, config.weight_scheme)
    n = ad.edge_sum(alpha, adj.dst, terms, adj.n_entities)
    return ad.add(ad.tanh(ad.matmul(n, W)), entities)


class ProximityAdjacency:
    """Directed expansion of the proximity graph with pre-normalized weights.

    Each undirected edge (i, j) becomes the messages j -> i and i -> j,
    ordered by (dst, src) as the rows of the canonical CSR matrix W + W^T.

    The per-neighborhood softmax of the accumulated proximity values is a
    fixed function of the graph, so it is computed once with numpy and
    held as a constant.
    """

    def __init__(self, graph: ProximityGraph):
        i, j = graph.edges["i"].astype(np.int64), graph.edges["j"].astype(np.int64)
        n = self.n_entities = graph.n_entities
        W = sparse.csr_array((graph.edges["w"], (i, j)), shape=(n, n))
        S = W + W.T     # i < j, so no cell is summed: the data are the records' weights
        self.dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(S.indptr))
        self.src = S.indices.astype(np.int64)
        self.alpha = ad.segment_softmax(Tensor(S.data), self.dst, n).data


def gp_layer(entities: Tensor, prox: ProximityAdjacency, W: Tensor) -> Tensor:
    """One proximity layer: fixed-softmax neighbor average, transform, tanh, residual."""
    n = ad.edge_sum(Tensor(prox.alpha), prox.dst, [(entities, prox.src)], prox.n_entities)
    return ad.add(ad.tanh(ad.matmul(n, W)), entities)


def relation_mlp(relations: Tensor, params: dict) -> Tensor:
    """One hidden layer of the embedding dim with tanh, then a linear output layer."""
    hidden = ad.tanh(ad.affine(relations, params["rel_mlp_W1"], params["rel_mlp_b1"]))
    return ad.affine(hidden, params["rel_mlp_W2"], params["rel_mlp_b2"])


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


def encoder_param_shapes(config: EncoderConfig, n_entities: int,
                         n_relations: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every encoder parameter, in initialisation order."""
    d = config.dim
    shapes = {"entity_embed": (n_entities, d), "relation_embed": (n_relations, d),
              "rel_mlp_W1": (d, d), "rel_mlp_b1": (d,), "rel_mlp_W2": (d, d), "rel_mlp_b2": (d,)}
    shapes.update({f"kg_W{l}": (d, d) for l in range(config.kg_layers)})
    shapes.update({f"prox_W{l}": (d, d) for l in range(config.prox_layers)})
    if config.composition == "mlp":
        shapes.update(comp_W=(2 * d, d), comp_b=(d,))
    return shapes


def init_encoder_params(config: EncoderConfig, n_entities: int, n_relations: int,
                        rng: np.random.Generator) -> dict:
    """Uniform init in [-1/sqrt(d), 1/sqrt(d)] for all embeddings and transforms."""
    bound = 1.0 / np.sqrt(config.dim)
    return {name: Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
            for name, shape in encoder_param_shapes(config, n_entities, n_relations).items()}
