import tracemalloc

import numpy as np
import pytest
from scipy import sparse

import proxkg.autodiff as ad
from proxkg import decoder
from proxkg.autodiff import Tensor
from proxkg.decoder import (DecoderConfig, bce_loss, conve_score, default_reshape,
                            init_decoder_params)
from proxkg.encoder import MAX_DIM, EncoderConfig
from proxkg.evaluation import filtered_rank
from proxkg.kgdata import ContractError


def naive_conve(h, r, E_enc, params, cfg):
    """Loop-based reference for the full decoder forward, no dropout."""
    B = h.shape[0]
    out = np.zeros((B, E_enc.shape[0]))
    F = params["conv_filters"].data
    k = cfg.kernel
    for b in range(B):
        grid = np.concatenate([h[b].reshape(cfg.reshape_h, cfg.reshape_w),
                               r[b].reshape(cfg.reshape_h, cfg.reshape_w)], axis=0)
        oh, ow = cfg.conv_out_hw
        maps = np.zeros((cfg.n_filters, oh, ow))
        for c in range(cfg.n_filters):
            for y in range(oh):
                for x in range(ow):
                    maps[c, y, x] = np.sum(grid[y:y + k, x:x + k] * F[c, 0])
        feat = np.maximum(maps, 0.0).reshape(-1)
        proj = np.maximum(feat @ params["fc_W"].data + params["fc_b"].data, 0.0)
        out[b] = E_enc @ proj + params["entity_bias"].data
    return out


def no_dropout_config(dim, n_filters=4, kernel=2):
    return DecoderConfig(dim=dim, n_filters=n_filters, kernel=kernel,
                         dropout_input=0.0, dropout_feature=0.0, dropout_hidden=0.0)


def test_default_reshape_rule():
    assert default_reshape(200) == (10, 20)
    assert default_reshape(8) == (2, 4)
    assert default_reshape(16) == (4, 4)
    assert default_reshape(7) == (1, 7)


@pytest.mark.parametrize("config", [EncoderConfig, DecoderConfig])
def test_huge_dim_is_config_error_before_any_reshape_search(config, monkeypatch):
    def refuse(dim):
        raise AssertionError(f"reshape searched for dim {dim}")

    monkeypatch.setattr(decoder, "default_reshape", refuse)
    for dim in (MAX_DIM + 1, 10 ** 14, 10 ** 24):
        with pytest.raises(ContractError, match="embedding dim"):
            config(dim=dim)
    monkeypatch.undo()
    assert config(dim=MAX_DIM).dim == MAX_DIM


def test_shape_arithmetic():
    cfg = DecoderConfig(dim=200)
    assert (cfg.reshape_h, cfg.reshape_w) == (10, 20)
    assert cfg.conv_out_hw == (18, 18)
    assert cfg.flat_dim == 32 * 18 * 18 == 10368


def test_config_validation():
    with pytest.raises(ContractError):
        DecoderConfig(dim=8, kernel=5).validate()  # stacked input is 4x4
    for bad in (dict(kernel=0), dict(n_filters=0), dict(dropout_input=1.0),
                dict(dropout_feature=-0.1), dict(dropout_hidden=float("nan"))):
        with pytest.raises(ContractError):
            DecoderConfig(dim=8, **bad).validate()


def zero_weight_params(cfg, entity_bias):
    """Decoder parameters whose every logit is the entity's bias."""
    return {
        "conv_filters": Tensor(np.zeros((cfg.n_filters, 1, cfg.kernel, cfg.kernel))),
        "fc_W": Tensor(np.zeros((cfg.flat_dim, cfg.dim))),
        "fc_b": Tensor(np.zeros(cfg.dim)),
        "entity_bias": Tensor(np.asarray(entity_bias, dtype=float), requires_grad=True),
    }


def test_zero_weights_score_half(rng):
    cfg = no_dropout_config(8)
    params = zero_weight_params(cfg, np.zeros(5))
    h = Tensor(rng.uniform(-1, 1, (3, 8)))
    r = Tensor(rng.uniform(-1, 1, (3, 8)))
    out = conve_score(h, r, Tensor(rng.uniform(-1, 1, (5, 8))), params, cfg)
    assert np.allclose(out.data, 0.0)      # logit 0: probability one half


def test_conve_matches_naive_reference(rng):
    cfg = no_dropout_config(8)
    params = init_decoder_params(cfg, 5, rng)
    h = rng.uniform(-1, 1, (4, 8))
    r = rng.uniform(-1, 1, (4, 8))
    E_enc = rng.uniform(-1, 1, (5, 8))
    out = conve_score(Tensor(h), Tensor(r), Tensor(E_enc), params, cfg)
    expected = naive_conve(h, r, E_enc, params, cfg)
    assert np.max(np.abs(out.data - expected)) < 1e-10


@pytest.mark.parametrize("n_e", [3000, 20000])
def test_conve_score_writes_each_large_array_once(rng, n_e):
    """A graph-free score holds at most one logit array and one conv map at a time."""
    cfg = DecoderConfig(dim=200)
    B = 64
    params = {k: Tensor(p.data) for k, p in init_decoder_params(cfg, n_e, rng).items()}
    h, r = Tensor(rng.uniform(-1, 1, (B, cfg.dim))), Tensor(rng.uniform(-1, 1, (B, cfg.dim)))
    E_enc = Tensor(rng.uniform(-1, 1, (n_e, cfg.dim)))
    tracemalloc.start()
    try:
        out = conve_score(h, r, E_enc, params, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (B, n_e)
    conv_map = B * cfg.flat_dim * 8
    assert peak <= 1.1 * (out.data.nbytes + conv_map)


def test_conve_dim_mismatch(rng):
    cfg = no_dropout_config(8)
    params = init_decoder_params(cfg, 5, rng)
    with pytest.raises(ContractError):
        conve_score(Tensor(np.ones((2, 6))), Tensor(np.ones((2, 6))),
                    Tensor(np.ones((5, 8))), params, cfg)


def test_conve_training_dropout_deterministic(rng):
    cfg = DecoderConfig(dim=8, n_filters=4, kernel=2)
    params = init_decoder_params(cfg, 5, rng)
    h = Tensor(rng.uniform(-1, 1, (4, 8)))
    r = Tensor(rng.uniform(-1, 1, (4, 8)))
    E = Tensor(rng.uniform(-1, 1, (5, 8)))
    a = conve_score(h, r, E, params, cfg, dropout_key=(3, 7)).data
    b = conve_score(h, r, E, params, cfg, dropout_key=(3, 7)).data
    c = conve_score(h, r, E, params, cfg, dropout_key=(3, 8)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bce_perfect_prediction():
    t = np.array([[1.0, 0.0, 0.0, 1.0]])
    loss = bce_loss(Tensor(np.where(t == 1.0, 40.0, -40.0)), sparse.csr_array(t))
    assert float(loss.data) <= 1e-6


def test_bce_uniform_half_is_ln2(rng):
    t = (rng.uniform(0, 1, (3, 7)) > 0.5).astype(float)
    loss = bce_loss(Tensor(np.zeros((3, 7))), sparse.csr_array(t))
    assert float(loss.data) == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_matches_naive_sum(rng):
    o = rng.uniform(0.05, 0.95, (4, 9))
    t = rng.uniform(0.0, 1.0, (4, 9))
    loss = bce_loss(Tensor(np.log(o / (1 - o))), sparse.csr_array(t))
    expected = -(t * np.log(o) + (1 - t) * np.log(1 - o)).mean()
    assert float(loss.data) == pytest.approx(expected, abs=1e-10)


def test_bce_confidently_wrong_keeps_gradient(rng):
    cfg = no_dropout_config(8)
    n_e = 5
    params = zero_weight_params(cfg, np.full(n_e, -40.0))
    out = conve_score(Tensor(rng.uniform(-1, 1, (1, 8))), Tensor(rng.uniform(-1, 1, (1, 8))),
                      Tensor(rng.uniform(-1, 1, (n_e, 8))), params, cfg)
    bce_loss(out, sparse.csr_array(np.full((1, n_e), 0.9))).backward()
    # (sigmoid(-40) - 0.9) / N per cell, sigmoid(-40) being 4e-18
    assert np.allclose(params["entity_bias"].grad, -0.9 / n_e, rtol=1e-12, atol=0.0)


def test_bce_confidently_wrong_loss_is_unbounded():
    loss = bce_loss(Tensor(np.array([[-800.0, 800.0]])),
                    sparse.csr_array(np.array([[1.0, 0.0]])))
    assert float(loss.data) == pytest.approx(800.0, abs=1e-9)


def test_large_logits_rank_apart(rng):
    cfg = no_dropout_config(8)
    params = zero_weight_params(cfg, [40.0, 41.0, 0.0])
    out = conve_score(Tensor(rng.uniform(-1, 1, (1, 8))), Tensor(rng.uniform(-1, 1, (1, 8))),
                      Tensor(rng.uniform(-1, 1, (3, 8))), params, cfg)
    no_known = sparse.csr_array(out.shape)
    rank = filtered_rank(out.data.copy(), np.array([0]), no_known)
    assert rank.tolist() == [2.0]       # logit 40 ranks below 41, not tied with it


def test_decoder_gradient_finite_differences(rng):
    cfg = no_dropout_config(8)
    params = init_decoder_params(cfg, 5, rng)
    h0 = rng.uniform(-1, 1, (2, 8))
    r0 = rng.uniform(-1, 1, (2, 8))
    E0 = rng.uniform(-1, 1, (5, 8))
    t = (rng.uniform(0, 1, (2, 5)) > 0.5).astype(float)

    def loss_value():
        out = conve_score(Tensor(h0), Tensor(r0), Tensor(E0), params, cfg)
        return bce_loss(out, sparse.csr_array(t))

    loss = loss_value()
    loss.backward()
    h = 1e-5
    for name, p in params.items():
        grad = p.grad
        flat = p.data.reshape(-1)
        for idx in rng.choice(flat.size, size=min(8, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = float(loss_value().data)
            flat[idx] = orig - h
            down = float(loss_value().data)
            flat[idx] = orig
            num = (up - down) / (2 * h)
            rel = abs(grad.reshape(-1)[idx] - num) / max(abs(num), 1e-3)
            assert rel < 1e-4, f"{name}[{idx}]"
