import numpy as np
import pytest

import proxkg.autodiff as ad
from proxkg.autodiff import Tensor
from proxkg.encoder import (EncoderConfig, ProximityAdjacency, RelationalAdjacency,
                            compose, encode, gp_layer, gr_layer, init_encoder_params,
                            relational_weights, relation_mlp)
from proxkg.kgdata import ContractError, augment_inverse
from proxkg.proximity import (SPMMatrix, accumulate_spm, build_proximity_graph,
                              extract_qa_pairs)
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
    phi = Tensor(rng.uniform(-1, 1, (4, 3)))
    assert np.allclose(relational_weights(adj, E, phi, "prior").data, 0.25)
    # gcn: d_dst=4, d_src=1 -> 0.5
    fan_in = np.array([[i, 0, 4] for i in range(4)])
    adj_in = RelationalAdjacency(fan_in, None, 5)
    assert np.allclose(relational_weights(adj_in, E, phi, "gcn").data, 0.5)
    # attention with a single neighbor is 1
    single = RelationalAdjacency(np.array([[0, 0, 1]]), None, 2)
    w = relational_weights(single, Tensor(rng.uniform(-1, 1, (2, 3))),
                           Tensor(rng.uniform(-1, 1, (1, 3))), "attention")
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
    config.kg_only = True
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
