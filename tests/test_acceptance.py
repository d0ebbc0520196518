"""Acceptance gate: one test per release criterion.

Each test is self-contained and prints a single pass/fail/skip line under
``pytest -v``. Criteria 1 and 2 need the official benchmark files; when
they are absent the tests skip with download instructions rather than
fabricating a pass.
"""

import dataclasses
import os
import time

import numpy as np
import pytest
from scipy import sparse

import proxkg.autodiff as ad
from proxkg import training
from proxkg.autodiff import Tensor
from proxkg.decoder import DecoderConfig, bce_loss, conve_score
from proxkg.encoder import (EncoderConfig, ProximityAdjacency, RelationalAdjacency,
                            encode, init_encoder_params)
from proxkg.evaluation import NTYPE_LABELS, evaluate, ntype_mrr_breakdown, ntype_report
from proxkg.kgdata import augment_inverse, ingest_dataset
from proxkg.proximity import accumulate_spm, build_proximity_graph, extract_qa_pairs
from proxkg.synth import clustered_kg, random_kg
from proxkg.training import TrainConfig, Trainer

from test_autodiff import check_gradient, finite_diff
from test_evaluation import rank_one, sort_rank_oracle
from test_proximity import brute_force_spm

DATA_DIR = os.environ.get(
    "PROXKG_DATA", os.path.join(os.path.dirname(__file__), os.pardir, "data"))

# published reference statistics for the two standard benchmarks
TABLE1 = {
    "FB15k-237": dict(n_entities=14_541, n_relations=237,
                      train=272_115, valid=17_535, test=20_466),
    "WN18RR": dict(n_entities=40_943, n_relations=11,
                   train=86_835, valid=3_034, test=3_134),
}
TABLE3_COUNTS = {
    "FB15k-237": (6_881, 2_929, 11_368, 10_965, 5_359, 3_430),
    "WN18RR": (2_827, 970, 1_657, 581, 233, 0),
}
TABLE3_RATES = {
    "FB15k-237": (0.17, 0.07, 0.28, 0.27, 0.13, 0.08),
    "WN18RR": (0.45, 0.15, 0.26, 0.09, 0.04, 0.00),
}


def benchmark_paths(name):
    directory = os.path.join(DATA_DIR, name)
    paths = [os.path.join(directory, f"{split}.txt")
             for split in ("train", "valid", "test")]
    if not all(os.path.exists(p) for p in paths):
        pytest.skip(
            f"{name} files not found; place the official train.txt/valid.txt/test.txt "
            f"under {directory} or point PROXKG_DATA at their parent directory")
    return paths


def test_criterion_1_dataset_fidelity():
    start = time.monotonic()
    for name, expected in TABLE1.items():
        kg = ingest_dataset(*benchmark_paths(name))
        assert kg.n_entities == expected["n_entities"], name
        assert kg.n_relations == expected["n_relations"], name
        assert len(kg.train) == expected["train"], name
        assert len(kg.split("valid")) == expected["valid"], name
        assert len(kg.split("test")) == expected["test"], name
    assert time.monotonic() - start < 10.0


def test_criterion_2_ntype_fidelity():
    start = time.monotonic()
    for name in TABLE1:
        kg = augment_inverse(ingest_dataset(*benchmark_paths(name)))
        report = ntype_report(kg, split="test")
        counts = {row["label"]: row["count"] for row in report["ranges"]}
        rates = {row["label"]: row["rate"] for row in report["ranges"]}
        assert report["total"] == sum(TABLE3_COUNTS[name])
        for label, count, rate in zip(NTYPE_LABELS, TABLE3_COUNTS[name],
                                      TABLE3_RATES[name]):
            assert counts[label] == count, f"{name} {label}"
            assert abs(rates[label] - rate) <= 0.005, f"{name} {label}"
    assert time.monotonic() - start < 30.0


def test_criterion_3_spm_oracle_equivalence():
    rng = np.random.default_rng(2024)
    cutoffs = (3, 4, 10)
    for trial in range(100):
        n_e = int(rng.integers(5, 51))
        n_r = int(rng.integers(1, 5))
        n_train = int(rng.integers(10, min(301, n_e * n_e * n_r // 2)))
        kg = random_kg(rng, n_e, n_r, n_train)
        index = extract_qa_pairs(kg)
        M = cutoffs[trial % len(cutoffs)]
        fast = accumulate_spm(index, M).entries
        oracle = brute_force_spm(index, M)
        assert set(fast) == set(oracle)
        for key, value in oracle.items():
            assert abs(fast[key] - value) <= 1e-12


def test_criterion_4_gradient_suite():
    rng = np.random.default_rng(31)

    # every differentiable primitive against central finite differences
    A = rng.uniform(-1, 1, (3, 4))
    B = rng.uniform(-1, 1, (3, 4))
    C = rng.uniform(-1, 1, (4, 2))
    for op in (ad.add, ad.sub, ad.mul):
        check_gradient(op, [A, B])
    check_gradient(lambda t: ad.scale(t, 1.7), [A])
    check_gradient(ad.matmul, [A, C])
    check_gradient(ad.transpose, [A])
    check_gradient(lambda t: ad.reshape(t, (4, 3)), [A])
    check_gradient(lambda a, b: ad.concat([a, b], axis=1), [A, B])
    check_gradient(lambda t: ad.tsum(t, axis=0), [A])
    check_gradient(ad.mean, [A])
    check_gradient(ad.log, [rng.uniform(0.2, 2.0, (3, 4))])
    check_gradient(lambda t: ad.clip(t, 0.05, 0.95), [rng.uniform(0.2, 0.8, (3, 4))])
    for op in (ad.tanh, ad.sigmoid):
        check_gradient(op, [A])
    check_gradient(ad.relu, [np.where(np.abs(A) < 1e-3, 0.5, A)])
    check_gradient(lambda t: ad.gather_rows(t, [0, 2, 2, 1]), [A])
    check_gradient(lambda t, o: ad.mul(ad.edge_dot(t, [2, 0, 2], o, [1, 1, 0]),
                                       Tensor(np.arange(1.0, 4.0))), [A, B])
    edge_rng = np.random.default_rng(32)           # leaves rng's draws below as they were
    mix = Tensor(edge_rng.uniform(-1, 1, (2, 4)))
    check_gradient(lambda w, x: ad.mul(ad.edge_sum(w, [0, 1, 1], [2, 0, 2], x, 2), mix),
                   [edge_rng.uniform(-1, 1, 3), A])
    w_const = Tensor(edge_rng.uniform(-1, 1, 3))
    check_gradient(lambda x: ad.mul(ad.edge_sum(w_const, [0, 1, 1], [2, 0, 2], x, 2), mix), [A])
    check_gradient(lambda v, w: ad.segment_weighted_sum(v, w, [0, 1, 1], 2),
                   [A, rng.uniform(-1, 1, 3)])
    check_gradient(lambda s: ad.mul(ad.segment_softmax(s, [0, 0, 1], 2),
                                    Tensor(np.arange(1.0, 4.0))),
                   [rng.uniform(-1, 1, 3)])
    check_gradient(ad.conv2d, [rng.uniform(-1, 1, (2, 2, 4, 3)),
                               rng.uniform(-1, 1, (2, 2, 2, 2))])
    fused_rng = np.random.default_rng(34)          # leaves rng's draws below as they were
    check_gradient(ad.affine, [A, C, fused_rng.uniform(-1, 1, 2)])      # bias over rows
    check_gradient(lambda x, e, b: ad.affine(x, ad.transpose(e), b),     # the scoring product
                   [C.T, fused_rng.uniform(-1, 1, (5, 4)), fused_rng.uniform(-1, 1, 5)])
    conv_inp, conv_f = fused_rng.uniform(-1, 1, (2, 2, 4, 3)), fused_rng.uniform(-1, 1, (2, 2, 2, 2))
    # no conv output within 1e-3 of the relu's kink, where a difference step of 1e-5 could cross it
    assert np.abs(ad.conv2d(Tensor(conv_inp), Tensor(conv_f)).data).min() > 1e-3
    check_gradient(ad.conv2d_relu, [conv_inp, conv_f])
    bce_rng = np.random.default_rng(33)            # leaves rng's draws below as they were
    logits = np.append(bce_rng.uniform(-3, 3, 6), [30.0, -30.0]).reshape(2, 4)
    bce_targets = sparse.csr_array(bce_rng.uniform(0, 1, (2, 4)))
    check_gradient(lambda x: ad.bce_with_logits(x, bce_targets), [logits])
    eps = 0.1                                      # label-smoothed: floor plus scaled answers
    answers = sparse.csr_array((bce_rng.uniform(0, 1, (2, 4)) > 0.5) * (1 - eps))
    check_gradient(lambda x: ad.bce_with_logits(x, answers, eps / 4), [logits])

    # full encoder + decoder loss on a toy instance (n_e = 6, d = 4)
    kg = augment_inverse(random_kg(rng, n_entities=6, n_relations=2, n_train=12))
    enc_cfg = EncoderConfig(dim=4, kg_layers=1, prox_layers=1, weight_scheme="attention")
    dec_cfg = DecoderConfig(dim=4, n_filters=3, kernel=2, dropout_input=0.0,
                            dropout_feature=0.0, dropout_hidden=0.0)
    params = init_encoder_params(enc_cfg, kg.n_entities, kg.n_relations, rng)
    from proxkg.decoder import init_decoder_params
    params.update(init_decoder_params(dec_cfg, kg.n_entities, rng))
    pgraph = build_proximity_graph(accumulate_spm(extract_qa_pairs(kg), 10),
                                   0.0, kg.n_entities)
    prox = ProximityAdjacency(pgraph)
    adj = RelationalAdjacency(kg.train, None, kg.n_entities)
    queries = kg.train[:4, :2]
    targets = rng.uniform(0.1, 0.9, (4, kg.n_entities))

    def loss_of(tensors):
        E_enc, R_enc = encode(tensors, adj, prox, enc_cfg)
        h = ad.gather_rows(E_enc, queries[:, 0])
        r = ad.gather_rows(R_enc, queries[:, 1])
        out = conve_score(h, r, E_enc, tensors, dec_cfg, training=False)
        return bce_loss(out, sparse.csr_array(targets))

    live = {k: Tensor(p.data.copy(), requires_grad=True) for k, p in params.items()}
    loss_of(live).backward()
    coord_rng = np.random.default_rng(7)
    for name, tensor in live.items():
        flat = tensor.data.reshape(-1)
        grad = np.zeros_like(tensor.grad).reshape(-1) if tensor.grad is None \
            else tensor.grad.reshape(-1)
        n_coords = min(flat.size, 10)
        for i in coord_rng.choice(flat.size, size=n_coords, replace=False):
            def scalar_at(x):
                frozen = {k: Tensor(t.data) for k, t in live.items()}
                probe = flat.copy()
                probe[i] = x
                frozen[name] = Tensor(probe.reshape(tensor.data.shape))
                return float(loss_of(frozen).data)
            h = 1e-5
            num = (scalar_at(flat[i] + h) - scalar_at(flat[i] - h)) / (2 * h)
            denom = max(abs(num), 1.0)
            assert abs(grad[i] - num) / denom < 1e-4, f"{name}[{i}]"


def test_criterion_5_ranking_oracle():
    rng = np.random.default_rng(404)
    for case in range(1000):
        n = int(rng.integers(3, 50))
        if case % 3 == 0:
            scores = rng.choice([0.1, 0.5, 0.9], size=n)  # engineered tie clusters
        else:
            scores = rng.uniform(0, 1, n)
        target = int(rng.integers(n))
        others = [e for e in range(n) if e != target]
        n_known = int(rng.integers(0, min(6, n - 1)))
        known = set(rng.choice(others, size=n_known, replace=False).tolist())
        assert rank_one(scores, target, known) == sort_rank_oracle(scores, target, known)


def test_criterion_6_encoder_identities():
    rng = np.random.default_rng(88)
    kg = augment_inverse(random_kg(rng, n_entities=10, n_relations=3, n_train=24))
    config = EncoderConfig(dim=6, kg_layers=2, prox_layers=2, weight_scheme="attention")
    params = init_encoder_params(config, kg.n_entities, kg.n_relations, rng)
    pgraph = build_proximity_graph(accumulate_spm(extract_qa_pairs(kg), 8),
                                   0.0, kg.n_entities)
    adj = RelationalAdjacency(kg.train, None, kg.n_entities)

    # zero transforms: the residual chain returns the raw embeddings
    zeroed = dict(params)
    for name in ("kg_W0", "kg_W1", "prox_W0", "prox_W1", "rel_mlp_W2", "rel_mlp_b2"):
        zeroed[name] = Tensor(np.zeros_like(params[name].data), requires_grad=True)
    E_enc, _ = encode(zeroed, adj, ProximityAdjacency(pgraph), config)
    assert np.max(np.abs(E_enc.data - params["entity_embed"].data)) <= 1e-12

    # ablation flag: output invariant to arbitrary proximity perturbations
    config = dataclasses.replace(config, kg_only=True)
    E1, _ = encode(params, adj, ProximityAdjacency(pgraph), config)
    pgraph.edges["w"] = pgraph.edges["w"] * 3.0 + 2.0
    E2, _ = encode(params, adj, ProximityAdjacency(pgraph), config)
    E3, _ = encode(params, adj, None, config)
    assert np.array_equal(E1.data, E2.data)
    assert np.array_equal(E1.data, E3.data)

    # proximity attention rows are a proper distribution
    prox = ProximityAdjacency(pgraph)
    sums = np.bincount(prox.dst, weights=prox.alpha, minlength=kg.n_entities)
    occupied = np.bincount(prox.dst, minlength=kg.n_entities) > 0
    assert np.max(np.abs(sums[occupied] - 1.0)) <= 1e-12


def test_criterion_7_overfit_sanity():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    kg = augment_inverse(random_kg(rng, n_entities=8, n_relations=3, n_train=20))
    pgraph = build_proximity_graph(accumulate_spm(extract_qa_pairs(kg), 10),
                                   0.0, kg.n_entities)
    enc = EncoderConfig(dim=32, kg_layers=1, prox_layers=1, weight_scheme="attention")
    dec = DecoderConfig(dim=32, n_filters=8, kernel=3, dropout_input=0.0,
                        dropout_feature=0.0, dropout_hidden=0.0)
    trn = TrainConfig(batch_size=64, learning_rate=5e-3, optimizer="adam",
                      epochs=200, edge_drop_rate=0.1, label_smoothing=0.0,
                      seed=0)
    trainer = Trainer(kg, pgraph, enc, dec, trn)
    mrr = 0.0
    for _ in range(trn.epochs):
        trainer.run_epoch()
        if trainer.epoch % 10 == 0:
            mrr = evaluate(trainer.params, kg, trainer.prox, enc, dec,
                           split="train")["mrr"]
            if mrr == 1.0:
                break
    if mrr != 1.0:
        mrr = evaluate(trainer.params, kg, trainer.prox, enc, dec, split="train")["mrr"]
    elapsed = time.monotonic() - start
    assert mrr == 1.0, f"train MRR {mrr} after {trainer.epoch} epochs"
    assert elapsed < 60.0


@pytest.mark.slow
def test_criterion_8_ablation_direction():
    start = time.monotonic()
    seeds = range(5)
    gaps = []
    pooled = {label: {"full": 0.0, "kg": 0.0, "n": 0} for label in NTYPE_LABELS}
    for seed in seeds:
        kg = augment_inverse(clustered_kg(np.random.default_rng(100 + seed)))
        pgraph = build_proximity_graph(
            accumulate_spm(extract_qa_pairs(kg), 50), 1.0, kg.n_entities)
        results = {}
        for variant, kg_only in (("full", False), ("kg", True)):
            enc = EncoderConfig(dim=32, kg_layers=1, prox_layers=2,
                                weight_scheme="attention", kg_only=kg_only)
            dec = DecoderConfig(dim=32, n_filters=8, kernel=3, dropout_input=0.1,
                                dropout_feature=0.1, dropout_hidden=0.2)
            trn = TrainConfig(batch_size=256, learning_rate=1e-3, optimizer="adam",
                              epochs=300, edge_drop_rate=0.1, seed=seed)
            trainer = Trainer(kg, pgraph, enc, dec, trn)
            trainer.train()
            results[variant] = (
                evaluate(trainer.params, kg, trainer.prox, enc, dec, split="test")["mrr"],
                ntype_mrr_breakdown(trainer.params, kg, trainer.prox, enc, dec,
                                    split="test"))
        gaps.append(results["full"][0] - results["kg"][0])
        full_bd, kg_bd = results["full"][1], results["kg"][1]
        for label, count in full_bd["count_by_range"].items():
            assert kg_bd["count_by_range"][label] == count
            pooled[label]["full"] += count * full_bd["mrr_by_range"][label]
            pooled[label]["kg"] += count * kg_bd["mrr_by_range"][label]
            pooled[label]["n"] += count
    elapsed = time.monotonic() - start

    wins = sum(gap >= 0.02 for gap in gaps)
    assert wins >= 4, f"only {wins}/5 seeds show a >=0.02 MRR gap: {gaps}"
    bin_gaps = {label: (cell["full"] - cell["kg"]) / cell["n"]
                for label, cell in pooled.items() if cell["n"] > 0}
    widest = max(bin_gaps, key=bin_gaps.get)
    assert widest == "10<N<=100", f"largest gap in {widest}, not 10<N<=100: {bin_gaps}"
    assert elapsed < 900.0


def test_criterion_9_full_scale_statement():
    # the full-scale configuration is documented, not acceptance-gated
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read().lower()
    assert "full-scale" in text
    # the published hyper-parameter grid ships with the trainer
    assert training.GRID_BATCH_SIZES == (256, 512, 1024)
    assert training.GRID_LEARNING_RATES == (1e-4, 3e-4, 5e-3)
    assert training.GRID_DIMS == (500, 1000)
    assert training.GRID_LAYERS == (1, 2, 3)
    assert training.GRID_DROP_RATES == (0.1, 0.3, 0.5, 0.7, 1.0)
    assert training.GRID_M == (25, 50, 100, 500)
    assert training.GRID_I == (0.5, 1.0, 3.0, 5.0)
