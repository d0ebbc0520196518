import dataclasses

import numpy as np
import pytest

import proxkg.autodiff as ad
from proxkg.autodiff import Tensor
from proxkg.encoder import (COMPOSITIONS, WEIGHT_SCHEMES, EncoderConfig, ProximityAdjacency,
                            RelationalAdjacency, compose, encode, gp_layer, gr_layer,
                            init_encoder_params, relational_weights, relation_mlp)
from proxkg.kgdata import ContractError, augment_inverse
from proxkg.proximity import (EDGE_DTYPE, ProximityGraph, SPMMatrix, accumulate_spm,
                              build_proximity_graph, extract_qa_pairs)
from proxkg.synth import random_kg
from conftest import kg_from_triples, spm_records


def naive_compose(e, r, mode, params):
    if mode == "additive":
        return e + r
    if mode == "multiplicative":
        return e * r
    cat = np.concatenate([e, r])
    return np.tanh(cat @ params["comp_W"].data + params["comp_b"].data)


def naive_gr_layer(E, R, edges, mode, scheme, W, params, n_entities):
    """Dense-loop reference for one relation-aware layer."""
    out_deg = np.zeros(n_entities)
    in_deg = np.zeros(n_entities)
    for s, _, d in edges:
        out_deg[s] += 1
        in_deg[d] += 1
    new = E.copy()
    for i in range(n_entities):
        incoming = [(s, r) for s, r, d in edges if d == i]
        if not incoming:
            new[i] = np.tanh(np.zeros(E.shape[1]) @ W) + E[i]
            continue
        phis = [naive_compose(E[s], R[r], mode, params) for s, r in incoming]
        if scheme == "prior":
            alphas = [1.0 / out_deg[s] for s, _ in incoming]
        elif scheme == "gcn":
            alphas = [1.0 / np.sqrt(in_deg[i] * out_deg[s]) for s, _ in incoming]
        else:
            scores = np.array([E[i] @ phi for phi in phis])
            ex = np.exp(scores - scores.max())
            alphas = ex / ex.sum()
        n = sum(a * phi for a, phi in zip(alphas, phis))
        new[i] = np.tanh(n @ W) + E[i]
    return new


def ref_gather_dot(table, ids, other):
    """out[k] = <table[ids[k]], other[k]>, as gr_layer scored attention before edge_dot."""
    ids = np.asarray(ids, dtype=np.int64)
    rows = table.data[ids]

    def bw(g):
        g_table = np.zeros(table.data.shape)
        np.add.at(g_table, ids, g[:, None] * other.data)
        return [(table, g_table), (other, g[:, None] * rows)]

    return ad._make(np.einsum("ij,ij->i", rows, other.data), (table, other), bw)


def ref_segment_weighted_sum(values, weights, segments, n):
    """Scatter of weights[k] * values[k] into row segments[k], as both layers summed before edge_sum."""
    segments = np.asarray(segments, dtype=np.int64)

    def bw(g):
        g_rows = g[segments]
        return [(values, g_rows * weights.data[:, None]),
                (weights, np.einsum("ij,ij->i", g_rows, values.data))]

    out = np.zeros((n,) + values.data.shape[1:])
    np.add.at(out, segments, values.data * weights.data[:, None])
    return ad._make(out, (values, weights), bw)


def reference_gr_layer(entities, relations, adj, W, config, params):
    """gr_layer as gather -> compose -> weight -> scatter, with every [E, d] array built."""
    phi = compose(ad.gather_rows(entities, adj.src), ad.gather_rows(relations, adj.rel),
                  config.composition, params)
    if config.weight_scheme == "attention":
        alpha = ad.segment_softmax(ref_gather_dot(entities, adj.dst, phi), adj.dst, adj.n_entities)
    elif config.weight_scheme == "prior":
        alpha = Tensor(1.0 / np.maximum(adj.out_deg[adj.src], 1.0))
    else:
        alpha = Tensor(1.0 / np.sqrt(np.maximum(adj.in_deg[adj.dst], 1.0)
                                     * np.maximum(adj.out_deg[adj.src], 1.0)))
    n = ref_segment_weighted_sum(phi, alpha, adj.dst, adj.n_entities)
    return ad.add(ad.tanh(ad.matmul(n, W)), entities)


def reference_gp_layer(entities, prox, W):
    e_src = ad.gather_rows(entities, prox.src)
    n = ref_segment_weighted_sum(e_src, Tensor(prox.alpha), prox.dst, prox.n_entities)
    return ad.add(ad.tanh(ad.matmul(n, W)), entities)


def naive_neighbors(graph):
    """Per-entity (j, w) lists sorted by j, built from the unique edge list."""
    neighbors = [[] for _ in range(graph.n_entities)]
    for i, j, w in graph.edge_list():
        neighbors[int(i)].append((int(j), w))
        neighbors[int(j)].append((int(i), w))
    return [sorted(ns) for ns in neighbors]


def naive_gp_layer(E, graph, W):
    new = E.copy()
    for i, ns in enumerate(naive_neighbors(graph)):
        if not ns:
            continue
        weights = np.array([w for _, w in ns])
        ex = np.exp(weights - weights.max())
        alphas = ex / ex.sum()
        n = sum(a * E[j] for a, (j, _) in zip(alphas, ns))
        new[i] = np.tanh(n @ W) + E[i]
    return new


def toy_setup(rng, composition="additive", weight_scheme="attention",
              kg_layers=1, prox_layers=1, dim=6):
    kg = augment_inverse(kg_from_triples([
        ("a", "r0", "b"), ("a", "r0", "c"), ("b", "r1", "c"),
        ("d", "r0", "e"), ("e", "r1", "a"), ("c", "r1", "f"),
    ]))
    config = EncoderConfig(dim=dim, kg_layers=kg_layers, prox_layers=prox_layers,
                           composition=composition, weight_scheme=weight_scheme)
    params = init_encoder_params(config, kg.n_entities, kg.n_relations, rng)
    pgraph = build_proximity_graph(accumulate_spm(extract_qa_pairs(kg), 4), 0.0, kg.n_entities)
    adj = RelationalAdjacency(kg.train, None, kg.n_entities)
    return kg, config, params, pgraph, adj


def test_compose_identities(rng):
    e = Tensor(rng.uniform(-1, 1, (3, 4)))
    zero = Tensor(np.zeros((3, 4)))
    one = Tensor(np.ones((3, 4)))
    assert np.allclose(compose(e, zero, "additive").data, e.data)
    assert np.allclose(compose(e, one, "multiplicative").data, e.data)
    params = {"comp_W": Tensor(np.zeros((8, 4))), "comp_b": Tensor(np.zeros(4))}
    assert np.all(compose(e, one, "mlp", params).data == 0)


def test_relational_weights_formulas(rng):
    # one source with outdegree 4
    triples = np.array([[0, 0, 1], [0, 0, 2], [0, 0, 3], [0, 0, 4]])
    adj = RelationalAdjacency(triples, None, 5)
    E = Tensor(rng.uniform(-1, 1, (5, 3)))
    phi = [(Tensor(rng.uniform(-1, 1, (4, 3))), np.arange(4))]
    assert np.allclose(relational_weights(adj, E, phi, "prior").data, 0.25)
    # gcn: d_dst=4, d_src=1 -> 0.5
    fan_in = np.array([[i, 0, 4] for i in range(4)])
    adj_in = RelationalAdjacency(fan_in, None, 5)
    assert np.allclose(relational_weights(adj_in, E, phi, "gcn").data, 0.5)
    # attention with a single neighbor is 1
    single = RelationalAdjacency(np.array([[0, 0, 1]]), None, 2)
    w = relational_weights(single, Tensor(rng.uniform(-1, 1, (2, 3))),
                           [(Tensor(rng.uniform(-1, 1, (1, 3))), np.arange(1))], "attention")
    assert np.allclose(w.data, [1.0])


@pytest.mark.parametrize("scheme", ["prior", "gcn", "attention"])
def test_gr_layer_zero_transform_is_identity(rng, scheme):
    kg, config, params, _, adj = toy_setup(rng, weight_scheme=scheme)
    E = params["entity_embed"]
    out = gr_layer(E, params["relation_embed"], adj, Tensor(np.zeros((6, 6))), config, params)
    assert np.allclose(out.data, E.data, atol=1e-15)


def test_gr_layer_isolated_entity_unchanged(rng):
    kg, config, params, _, _ = toy_setup(rng)
    # entity 5 ("f" as destination only via c->f; make an adjacency without it)
    adj = RelationalAdjacency(kg.train[:2], None, kg.n_entities)
    out = gr_layer(params["entity_embed"], params["relation_embed"], adj,
                   params["kg_W0"], config, params)
    for i in range(kg.n_entities):
        if adj.in_deg[i] == 0:
            assert np.allclose(out.data[i], params["entity_embed"].data[i], atol=1e-15)


@pytest.mark.parametrize("composition", ["additive", "multiplicative", "mlp"])
@pytest.mark.parametrize("scheme", ["prior", "gcn", "attention"])
def test_gr_layer_matches_naive_reference(rng, composition, scheme):
    kg, config, params, _, adj = toy_setup(rng, composition, scheme)
    out = gr_layer(params["entity_embed"], params["relation_embed"], adj,
                   params["kg_W0"], config, params)
    edges = [(int(h), int(r), int(t)) for h, r, t in kg.train]
    expected = naive_gr_layer(params["entity_embed"].data, params["relation_embed"].data,
                              edges, composition, scheme, params["kg_W0"].data,
                              params, kg.n_entities)
    assert np.max(np.abs(out.data - expected)) < 1e-10


def test_gp_layer_zero_transform_identity(rng):
    kg, config, params, pgraph, _ = toy_setup(rng)
    prox = ProximityAdjacency(pgraph)
    E = params["entity_embed"]
    out = gp_layer(E, prox, Tensor(np.zeros((6, 6))))
    assert np.allclose(out.data, E.data, atol=1e-15)


def test_gp_layer_equal_neighbors(rng):
    # node 0 has two neighbors with equal weight and equal embeddings v
    graph = build_proximity_graph(SPMMatrix(spm_records({(0, 1): 2.0, (0, 2): 2.0}), 4), 0.0, 3)
    v = rng.uniform(-1, 1, 4)
    E = np.stack([rng.uniform(-1, 1, 4), v, v])
    W = rng.uniform(-1, 1, (4, 4))
    out = gp_layer(Tensor(E), ProximityAdjacency(graph), Tensor(W))
    assert np.allclose(out.data[0], np.tanh(v @ W) + E[0], atol=1e-12)


def test_gp_layer_matches_naive_reference(rng):
    kg, config, params, pgraph, _ = toy_setup(rng)
    prox = ProximityAdjacency(pgraph)
    out = gp_layer(params["entity_embed"], prox, params["prox_W0"])
    expected = naive_gp_layer(params["entity_embed"].data, pgraph, params["prox_W0"].data)
    assert np.max(np.abs(out.data - expected)) < 1e-10


def test_proximity_alpha_rows_sum_to_one(rng):
    kg, _, _, pgraph, _ = toy_setup(rng)
    prox = ProximityAdjacency(pgraph)
    sums = np.bincount(prox.dst, weights=prox.alpha, minlength=pgraph.n_entities)
    non_isolated = np.bincount(prox.dst, minlength=pgraph.n_entities) > 0
    assert np.all(np.abs(sums[non_isolated] - 1.0) < 1e-12)


def test_encode_zero_transforms_residual_identity(rng):
    kg, config, params, pgraph, adj = toy_setup(rng, kg_layers=2, prox_layers=2)
    for name in ("kg_W0", "kg_W1", "prox_W0", "prox_W1", "rel_mlp_W2", "rel_mlp_b2"):
        params[name] = Tensor(np.zeros_like(params[name].data), requires_grad=True)
    E_enc, R_enc = encode(params, adj, ProximityAdjacency(pgraph), config)
    assert np.max(np.abs(E_enc.data - params["entity_embed"].data)) < 1e-12
    assert np.all(R_enc.data == 0)


def test_encode_full_matches_naive_chain(rng):
    kg, config, params, pgraph, adj = toy_setup(rng, kg_layers=2, prox_layers=2)
    E_enc, R_enc = encode(params, adj, ProximityAdjacency(pgraph), config)
    edges = [(int(h), int(r), int(t)) for h, r, t in kg.train]
    E = params["entity_embed"].data
    R0 = params["relation_embed"].data.copy()
    for l in range(2):
        # the relation matrix fed to every layer is the initial one
        E = naive_gr_layer(E, R0, edges, "additive", "attention",
                           params[f"kg_W{l}"].data, params, kg.n_entities)
    for l in range(2):
        E = naive_gp_layer(E, pgraph, params[f"prox_W{l}"].data)
    assert np.max(np.abs(E_enc.data - E)) < 1e-10
    hidden = np.tanh(R0 @ params["rel_mlp_W1"].data + params["rel_mlp_b1"].data)
    assert np.max(np.abs(R_enc.data - (hidden @ params["rel_mlp_W2"].data
                                       + params["rel_mlp_b2"].data))) < 1e-12


def test_ablation_ignores_proximity_graph(rng):
    kg, config, params, pgraph, adj = toy_setup(rng)
    config = dataclasses.replace(config, kg_only=True)
    E1, R1 = encode(params, adj, ProximityAdjacency(pgraph), config)
    # perturb the proximity weights arbitrarily
    pgraph.edges["w"] = pgraph.edges["w"] * 7.5 + 1.0
    E2, R2 = encode(params, adj, ProximityAdjacency(pgraph), config)
    assert np.array_equal(E1.data, E2.data)
    assert np.array_equal(R1.data, R2.data)
    E3, _ = encode(params, adj, None, config)
    assert np.array_equal(E1.data, E3.data)


def test_encode_entity_permutation_equivariance(rng):
    kg, config, params, pgraph, adj = toy_setup(rng)
    E_enc, _ = encode(params, adj, ProximityAdjacency(pgraph), config)
    perm = rng.permutation(kg.n_entities)
    inv = np.argsort(perm)
    # permute entity rows and all entity ids in both graphs
    params_p = dict(params)
    params_p["entity_embed"] = Tensor(params["entity_embed"].data[inv], requires_grad=True)
    triples_p = kg.train.copy()
    triples_p[:, 0] = perm[triples_p[:, 0]]
    triples_p[:, 2] = perm[triples_p[:, 2]]
    adj_p = RelationalAdjacency(triples_p, None, kg.n_entities)
    spm_p = SPMMatrix(spm_records({(min(perm[i], perm[j]), max(perm[i], perm[j])): w
                                   for i, j, w in pgraph.edges.tolist()}), pgraph.M)
    pgraph_p = build_proximity_graph(spm_p, pgraph.threshold, kg.n_entities)
    E_enc_p, _ = encode(params_p, adj_p, ProximityAdjacency(pgraph_p), config)
    assert np.max(np.abs(E_enc_p.data[perm] - E_enc.data)) < 1e-10


def test_encode_vocabulary_mismatch(rng):
    kg, config, params, pgraph, adj = toy_setup(rng)
    pgraph.n_entities = kg.n_entities + 1
    with pytest.raises(ContractError):
        encode(params, adj, ProximityAdjacency(pgraph), config)


def test_config_validation():
    with pytest.raises(ContractError):
        EncoderConfig(dim=0).validate()
    with pytest.raises(ContractError):
        EncoderConfig(kg_layers=5).validate()
    EncoderConfig(kg_layers=5, allow_any_depth=True).validate()
    with pytest.raises(ContractError):
        EncoderConfig(composition="other").validate()


def test_encoder_gradients_flow(rng):
    kg, config, params, pgraph, adj = toy_setup(rng)
    E_enc, R_enc = encode(params, adj, ProximityAdjacency(pgraph), config)
    ad.add(ad.tsum(E_enc), ad.tsum(R_enc)).backward()
    for name in ("entity_embed", "relation_embed", "kg_W0", "prox_W0", "rel_mlp_W1"):
        assert params[name].grad is not None
        assert np.any(params[name].grad != 0)


def outputs_and_grads(layer, params, rng_seed):
    """A layer's output and the gradients of a fixed random mix of it, on fresh parameter copies."""
    live = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
    out = layer(live)
    mix = np.random.default_rng(rng_seed).uniform(-1, 1, out.shape)
    ad.tsum(ad.mul(out, Tensor(mix))).backward()
    return out.data, {k: t.grad for k, t in live.items() if t.grad is not None}


def random_multigraph(rng, n_entities=12, n_linked=9, n_relations=4, n_edges=40):
    """Triples over the first n_linked entities (the rest isolated), with one (src, dst)
    pair repeated through every relation and one triple repeated outright."""
    triples = np.column_stack([rng.integers(0, n_linked, n_edges),
                               rng.integers(0, n_relations, n_edges),
                               rng.integers(0, n_linked, n_edges)])
    repeated = np.array([[0, r, 1] for r in range(n_relations)] + [[2, 1, 3], [2, 1, 3]])
    return RelationalAdjacency(np.concatenate([triples, repeated]), None, n_entities)


@pytest.mark.parametrize("composition", COMPOSITIONS)
@pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
def test_gr_layer_matches_gather_scatter_reference(rng, composition, scheme):
    adj = random_multigraph(rng)
    config = EncoderConfig(dim=5, composition=composition, weight_scheme=scheme)
    params = init_encoder_params(config, adj.n_entities, 4, rng)

    def run(layer):
        return outputs_and_grads(lambda p: layer(p["entity_embed"], p["relation_embed"], adj,
                                                 p["kg_W0"], config, p), params, 99)

    out, grads = run(gr_layer)
    ref_out, ref_grads = run(reference_gr_layer)
    assert np.max(np.abs(out - ref_out)) < 1e-10
    assert sorted(grads) == sorted(ref_grads)
    for name, grad in grads.items():
        assert np.max(np.abs(grad - ref_grads[name])) < 1e-10, name
    isolated = adj.in_deg == 0
    assert isolated[9:].all() and np.array_equal(out[isolated], params["entity_embed"].data[isolated])


def test_gp_layer_matches_gather_scatter_reference(rng):
    pairs = np.unique(np.sort(rng.integers(0, 9, (30, 2)), axis=1), axis=0)
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    edges = np.empty(len(pairs), EDGE_DTYPE)
    edges["i"], edges["j"], edges["w"] = pairs[:, 0], pairs[:, 1], rng.uniform(0, 3, len(pairs))
    prox = ProximityAdjacency(ProximityGraph(12, 0.0, 4, edges))
    params = {"E": Tensor(rng.uniform(-1, 1, (12, 5))), "W": Tensor(rng.uniform(-1, 1, (5, 5)))}

    def run(layer):
        return outputs_and_grads(lambda p: layer(p["E"], prox, p["W"]), params, 98)

    out, grads = run(gp_layer)
    ref_out, ref_grads = run(reference_gp_layer)
    assert np.max(np.abs(out - ref_out)) < 1e-10
    for name in ("E", "W"):
        assert np.max(np.abs(grads[name] - ref_grads[name])) < 1e-10, name
    assert np.array_equal(out[9:], params["E"].data[9:])


@pytest.mark.parametrize("composition", COMPOSITIONS)
@pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
def test_gr_layer_empty_graph_returns_input(rng, composition, scheme):
    kg, config, params, _, _ = toy_setup(rng, composition, scheme)
    adj = RelationalAdjacency(kg.train, np.zeros(len(kg.train), dtype=bool), kg.n_entities)
    out, grads = outputs_and_grads(lambda p: gr_layer(p["entity_embed"], p["relation_embed"], adj,
                                                      p["kg_W0"], config, p), params, 97)
    assert adj.n_edges == 0
    assert np.array_equal(out, params["entity_embed"].data)     # residual plus tanh(0 W)
    assert np.array_equal(grads["kg_W0"], np.zeros((6, 6)))
    assert all(np.isfinite(g).all() for g in grads.values())


def test_gp_layer_empty_graph_returns_input(rng):
    kg, config, params, _, _ = toy_setup(rng)
    spm = accumulate_spm(extract_qa_pairs(kg), 4)
    prox = ProximityAdjacency(build_proximity_graph(spm, spm.records["w"].max() + 1.0, kg.n_entities))
    out, grads = outputs_and_grads(lambda p: gp_layer(p["entity_embed"], prox, p["prox_W0"]),
                                   params, 96)
    assert len(prox.src) == 0
    assert np.array_equal(out, params["entity_embed"].data)
    assert np.array_equal(grads["prox_W0"], np.zeros((6, 6)))
