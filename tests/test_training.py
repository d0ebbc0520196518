import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

import proxkg.autodiff as ad
from proxkg.autodiff import Tensor
from proxkg.decoder import DecoderConfig, bce_loss, conve_score
from proxkg.encoder import COMPOSITIONS, WEIGHT_SCHEMES, EncoderConfig, encode
from proxkg.kgdata import ContractError, DataError, augment_inverse
from proxkg.proximity import accumulate_spm, build_proximity_graph, extract_qa_pairs
from synth import random_kg
from proxkg import training
from proxkg.training import (SGD, Adam, NumericError, TrainConfig, Trainer,
                             build_batches, config_digest, grid_search,
                             check_checkpoint, load_checkpoint, make_configs,
                             train_query_table, write_trial_table)
from conftest import (kg_from_triples, legacy_decoder_header, rewrite_checkpoint,
                      rewrite_checkpoint_header)

# flat run settings of the toy model, as the CLI would pass them
TOY_SETTINGS = dict(dim=8, kg_layers=1, prox_layers=1, n_filters=4, kernel=2,
                    dropout_input=0.0, dropout_feature=0.0, dropout_hidden=0.0,
                    label_smoothing=0.1, batch_size=16, learning_rate=1e-2, epochs=3,
                    edge_drop_rate=0.1, seed=5, allow_off_grid=True)


def validated_kg(seed=3):
    """A toy knowledge graph with a validation split."""
    return augment_inverse(random_kg(np.random.default_rng(seed), 8, 3, 20, n_valid=4))


def toy_pipeline(rng, kg_only=False, **train_kw):
    kg = augment_inverse(random_kg(rng, 8, 3, 20))
    pgraph = build_proximity_graph(accumulate_spm(extract_qa_pairs(kg), 4), 0.0, kg.n_entities)
    enc, dec, trn = make_configs({**TOY_SETTINGS, "kg_only": kg_only, **train_kw})
    return kg, pgraph, enc, dec, trn


def test_make_configs_routes_keys_to_every_config():
    enc, dec, trn = make_configs(TOY_SETTINGS)
    assert enc == EncoderConfig(dim=8, kg_layers=1, prox_layers=1)
    assert dec == DecoderConfig(dim=8, n_filters=4, kernel=2, dropout_input=0.0,
                                dropout_feature=0.0, dropout_hidden=0.0)
    assert trn == TrainConfig(batch_size=16, learning_rate=1e-2, epochs=3, edge_drop_rate=0.1,
                              seed=5, label_smoothing=0.1)
    # shared keys reach both configs that have them; absent keys keep the field defaults
    enc, dec, trn = make_configs({"dim": 12, "label_smoothing": 0.3, "out_dir": "ignored"})
    assert (enc.dim, dec.dim, (dec.reshape_h, dec.reshape_w)) == (12, 12, (3, 4))
    assert not hasattr(dec, "label_smoothing") and trn.label_smoothing == 0.3
    assert enc == EncoderConfig(dim=12)
    assert trn == TrainConfig(label_smoothing=0.3)


@pytest.mark.parametrize("bad", [{"kg_layers": 4, "allow_off_grid": False}, {"kernel": 99},
                                 {"optimizer": "rmsprop"}])
def test_make_configs_validates_each_config(bad):
    with pytest.raises(ContractError):
        make_configs({**TOY_SETTINGS, **bad})


@pytest.mark.parametrize("cls, bad", [(EncoderConfig, {"dim": 0}), (DecoderConfig, {"dim": -4}),
                                      (DecoderConfig, {"kernel": 0}),
                                      (TrainConfig, {"eval_every": -1}),
                                      (TrainConfig, {"seed": -1})])
def test_configs_are_checked_when_built_and_frozen(cls, bad):
    with pytest.raises(ContractError):
        cls(**bad)
    config = cls()
    name, value = next(iter(bad.items()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, value)


@pytest.mark.parametrize("eps", [-0.1, 1.0, 1.5])
def test_train_config_rejects_label_smoothing_outside_unit_interval(eps):
    with pytest.raises(ContractError):
        TrainConfig(label_smoothing=eps).validate()


def test_make_configs_grid_validation():
    with pytest.raises(ContractError, match="batch_size"):
        make_configs({"batch_size": 100})
    with pytest.raises(ContractError, match="edge_drop_rate"):
        make_configs({"batch_size": 256, "edge_drop_rate": 0.2})
    make_configs({"batch_size": 256, "edge_drop_rate": 0.3})
    make_configs({"batch_size": 100, "allow_off_grid": True})
    # depth is on the same grid, under the same switch
    with pytest.raises(ContractError, match="kg_layers"):
        make_configs({"kg_layers": 5})
    with pytest.raises(ContractError, match="prox_layers"):
        make_configs({"prox_layers": 5})
    assert make_configs({"kg_layers": 5, "allow_off_grid": True})[0].kg_layers == 5
    # a negative depth is no depth at all, whatever the switch
    with pytest.raises(ContractError):
        make_configs({"kg_layers": -1, "allow_off_grid": True})


def test_off_grid_switch_leaves_on_grid_configs_alone():
    on_grid = {"kg_layers": 2, "prox_layers": 3, "batch_size": 512, "edge_drop_rate": 0.5}
    assert (config_digest(*make_configs({**on_grid, "allow_off_grid": True}))
            == config_digest(*make_configs(on_grid)))


def test_query_table_and_multihot_targets(rng):
    kg = augment_inverse(kg_from_triples(
        [("a", "r", "b"), ("a", "r", "c"), ("a", "r", "d"), ("b", "r", "c")]))
    queries, answers = train_query_table(kg)
    distinct = {(int(h), int(r)) for h, r, _ in kg.train}
    assert len(queries) == len(distinct)
    batches = list(build_batches(queries, answers, kg.n_entities, 100, 0.0,
                                 np.random.default_rng(0)))
    assert len(batches) == 1
    batch = batches[0]
    targets = batch.targets.toarray() + batch.floor
    for row, (anchor, rel) in enumerate(batch.queries):
        expected = {int(t) for h, r, t in kg.train if (h, r) == (anchor, rel)}
        assert set(batch.targets[[row]].indices) == expected
        assert set(np.flatnonzero(targets[row])) == expected
        assert np.all(np.isin(targets[row], [0.0, 1.0]))


def test_query_table_matches_dict_reference(rng):
    kg = augment_inverse(random_kg(rng, 15, 4, 80))
    answers = {}
    for h, r, t in kg.train.tolist():
        answers.setdefault((h, r), set()).add(t)
    keys = sorted(answers)
    queries, table = train_query_table(kg)
    assert queries.dtype == np.int64 and queries.tolist() == [list(k) for k in keys]
    assert table.shape == (len(keys), kg.n_entities) and np.all(table.data == 1.0)
    answer_lists = np.split(table.indices, table.indptr[1:-1])
    assert [a.tolist() for a in answer_lists] == [sorted(answers[k]) for k in keys]


def test_target_smoothing_row_sum(rng):
    kg = augment_inverse(kg_from_triples(
        [("a", "r", "b"), ("a", "r", "c"), ("a", "r", "d")]))
    queries, answers = train_query_table(kg)
    eps = 0.1
    for batch in build_batches(queries, answers, kg.n_entities, 100, eps,
                               np.random.default_rng(0)):
        targets = batch.targets.toarray() + batch.floor
        for row, (anchor, rel) in enumerate(batch.queries):
            n_ans = len({int(t) for h, r, t in kg.train if (h, r) == (anchor, rel)})
            assert targets[row].sum() == pytest.approx(n_ans * (1 - eps) + eps)


def test_sgd_exact_update():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    p.grad = np.array([0.5, -1.0])
    SGD({"p": p}, lr=0.1).step()
    assert np.array_equal(p.data, [1.0 - 0.05, 2.0 + 0.1])


def test_adam_matches_reference_recurrence(rng):
    grads = [rng.uniform(-1, 1, 4) for _ in range(10)]
    p = Tensor(np.zeros(4), requires_grad=True)
    opt = Adam({"p": p}, lr=0.01)
    # independent reference recurrence
    theta = np.zeros(4)
    m = np.zeros(4)
    v = np.zeros(4)
    for t, g in enumerate(grads, start=1):
        p.grad = g.copy()
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta = theta - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert np.max(np.abs(p.data - theta)) < 1e-12


def test_adam_in_place_step_equals_written_formula(rng):
    p = Tensor(np.zeros((5, 3)), requires_grad=True)      # so that every bit of the update shows
    opt = Adam({"p": p}, lr=3e-4)
    opt.t = 6
    opt.m["p"] = rng.uniform(-1, 1, (5, 3))
    opt.v["p"] = rng.uniform(0, 1, (5, 3))
    g = rng.uniform(-1, 1, (5, 3))
    p.grad = g
    # the Adam formula, written out of place
    t, b1, b2 = 7, 0.9, 0.999
    m = b1 * opt.m["p"] + (1 - b1) * g
    v = b2 * opt.v["p"] + (1 - b2) * g * g
    want = p.data - 3e-4 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + 1e-8)
    opt.step()
    assert np.array_equal(opt.m["p"], m)
    assert np.array_equal(opt.v["p"], v)
    assert np.array_equal(p.data, want)


def test_training_deterministic_bitwise(rng):
    losses = []
    for _ in range(2):
        kg, pg, enc, dec, trn = toy_pipeline(np.random.default_rng(3), edge_drop_rate=0.0)
        trainer = Trainer(kg, pg, enc, dec, trn)
        losses.append([rec["train_loss"] for rec in trainer.train()])
    assert losses[0] == losses[1]


def one_step(trainer):
    cfg = trainer.train_config
    return trainer.step(next(build_batches(trainer.queries, trainer.answer_lists,
                                           trainer.kg.n_entities, cfg.batch_size,
                                           cfg.label_smoothing, trainer.rng)))


@pytest.mark.parametrize("composition", COMPOSITIONS)
@pytest.mark.parametrize("scheme", WEIGHT_SCHEMES)
def test_step_with_every_edge_dropped(rng, composition, scheme):
    # 1.0 is a published edge_drop_rate; it leaves the message-passing graph empty
    kg, pg, enc, dec, trn = toy_pipeline(rng, edge_drop_rate=1.0, composition=composition,
                                         weight_scheme=scheme)
    trainer = Trainer(kg, pg, enc, dec, trn)
    assert np.isfinite(one_step(trainer))
    assert all(np.isfinite(p.data).all() for p in trainer.params.values())


@pytest.mark.parametrize("rate", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", [1, 2])
def test_step_adjacency_equals_the_kept_edges_sorted_afresh(monkeypatch, rate, seed):
    """The step's view holds the kept edges in the order a fresh stable destination sort gives."""
    kg, pg, enc, dec, trn = toy_pipeline(np.random.default_rng(seed), edge_drop_rate=rate,
                                         seed=seed)
    keeps, adjs = [], []
    sample, encode = training.sample_edge_dropout, training.encode
    monkeypatch.setattr(training, "sample_edge_dropout",
                        lambda *args: keeps.append(sample(*args)) or keeps[-1])
    monkeypatch.setattr(training, "encode",
                        lambda params, adj, *args: adjs.append(adj) or encode(params, adj, *args))
    trainer = Trainer(kg, pg, enc, dec, trn)
    for _ in range(3):
        one_step(trainer)
    assert len(keeps) == len(adjs) == 3
    for keep, adj in zip(keeps, adjs):
        kept = kg.train[keep]
        assert np.array_equal(np.column_stack([adj.src, adj.rel, adj.dst]),
                              kept[np.argsort(kept[:, 2], kind="stable")])


def test_step_with_empty_proximity_graph(rng):
    kg, _, enc, dec, trn = toy_pipeline(rng)
    spm = accumulate_spm(extract_qa_pairs(kg), 4)
    empty = build_proximity_graph(spm, spm.records["w"].max() + 1.0, kg.n_entities)
    assert empty.n_edges == 0
    trainer = Trainer(kg, empty, enc, dec, trn)
    assert np.isfinite(one_step(trainer))
    assert all(np.isfinite(p.data).all() for p in trainer.params.values())


def test_zero_learning_rate_keeps_params(rng):
    kg, pg, enc, dec, trn = toy_pipeline(rng, learning_rate=0.0, epochs=2)
    trainer = Trainer(kg, pg, enc, dec, trn)
    before = {k: p.data.copy() for k, p in trainer.params.items()}
    trainer.train()
    for k, p in trainer.params.items():
        assert np.array_equal(before[k], p.data), k


def test_training_reduces_loss(rng):
    kg, pg, enc, dec, trn = toy_pipeline(rng, epochs=20)
    trainer = Trainer(kg, pg, enc, dec, trn)
    log = trainer.train()
    assert log[-1]["train_loss"] < log[0]["train_loss"]


@pytest.mark.filterwarnings("ignore:invalid value")
def test_divergence_guard(rng):
    kg, pg, enc, dec, trn = toy_pipeline(rng, epochs=1)
    trainer = Trainer(kg, pg, enc, dec, trn)
    trainer.params["entity_embed"].data[0, 0] = np.nan
    with pytest.raises(NumericError):
        trainer.run_epoch()


def test_checkpoint_round_trip_bitwise(tmp_path, rng):
    kg, pg, enc, dec, trn = toy_pipeline(np.random.default_rng(11), epochs=2)
    trainer = Trainer(kg, pg, enc, dec, trn)
    trainer.train()
    path = tmp_path / "ckpt.bin"
    trainer.save(path)

    restored = Trainer.restore(path, kg, pg)
    for k, p in trainer.params.items():
        assert np.array_equal(p.data, restored.params[k].data), k
    # one more epoch on both must agree bit for bit
    loss_a = trainer.run_epoch()
    loss_b = restored.run_epoch()
    assert loss_a == loss_b
    for k, p in trainer.params.items():
        assert np.array_equal(p.data, restored.params[k].data), k


def test_restore_initialises_no_parameters(tmp_path, monkeypatch):
    """A restore trains the checkpoint's blobs; it draws no parameter set only to replace it."""
    kg, pg, enc, dec, trn = toy_pipeline(np.random.default_rng(11), epochs=1)
    trainer = Trainer(kg, pg, enc, dec, trn)
    trainer.train()
    path = tmp_path / "ckpt.bin"
    trainer.save(path)

    def refuse(*args):
        raise AssertionError("parameters initialised during a restore")

    monkeypatch.setattr(training, "init_encoder_params", refuse)
    monkeypatch.setattr(training, "init_decoder_params", refuse)
    restored = Trainer.restore(path, kg, pg)
    assert list(restored.params) == list(trainer.params)
    assert all(p.requires_grad for p in restored.params.values())
    assert restored.run_epoch() == trainer.run_epoch()
    for k, p in trainer.params.items():
        assert np.array_equal(p.data, restored.params[k].data), k


def test_restore_on_another_graph_is_contract_error(tmp_path):
    kg, pg, enc, dec, trn = toy_pipeline(np.random.default_rng(3), epochs=1)
    path = tmp_path / "ckpt.bin"
    Trainer(kg, pg, enc, dec, trn).save(path)
    other = augment_inverse(random_kg(np.random.default_rng(3), 12, 3, 30))
    other_pg = build_proximity_graph(accumulate_spm(extract_qa_pairs(other), 4), 0.0,
                                     other.n_entities)
    assert other.n_entities != kg.n_entities
    with pytest.raises(ContractError, match=rf"entity_embed.*\({kg.n_entities}, 8\).*"
                                            rf"\({other.n_entities}, 8\)"):
        Trainer.restore(path, other, other_pg)


@pytest.mark.parametrize("name, shape, error", [
    ("fc_b", None, DataError),
    ("opt.m.kg_W0", None, DataError),
    ("opt.v.entity_bias", (3,), ContractError),
], ids=["missing_parameter", "missing_moment", "misshapen_moment"])
def test_restore_checks_every_blob_against_the_model(tmp_path, name, shape, error):
    kg, pg, enc, dec, trn = toy_pipeline(np.random.default_rng(3), epochs=1)
    path = tmp_path / "ckpt.bin"
    Trainer(kg, pg, enc, dec, trn).save(path)
    _, blobs = load_checkpoint(path)
    if shape is None:
        del blobs[name]
    else:
        blobs[name] = np.zeros(shape)
    rewrite_checkpoint(path, blobs)
    with pytest.raises(error, match=name):
        Trainer.restore(path, kg, pg)


def test_checkpoint_header_fields(tmp_path, rng):
    kg, pg, enc, dec, trn = toy_pipeline(rng, epochs=1)
    trainer = Trainer(kg, pg, enc, dec, trn)
    trainer.train()
    path = tmp_path / "ckpt.bin"
    trainer.save(path)
    header, blobs = load_checkpoint(path)
    assert header["config_digest"] == config_digest(enc, dec, trn)
    assert header["epoch"] == 1
    assert "entity_embed" in blobs
    names = check_checkpoint(header, blobs, kg)
    assert header["encoder_config"].dim == enc.dim
    assert not any(k.startswith("opt.") for k in names)


class _FailingBlob:
    """Array stand-in whose conversion to float64 fails midway through a checkpoint write."""
    shape = (2,)

    def __array__(self, dtype=None, copy=None):
        raise OSError("disk full")


def test_checkpoint_write_is_atomic(tmp_path):
    kg, pg, enc, dec, trn = toy_pipeline(np.random.default_rng(3), epochs=1)
    trainer = Trainer(kg, pg, enc, dec, trn)
    path = tmp_path / "ckpt.bin"
    trainer.save(path)
    before = path.read_bytes()
    trainer.params["entity_embed"].data = _FailingBlob()
    with pytest.raises(OSError, match="disk full"):
        trainer.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ContractError):
        load_checkpoint(path)


@pytest.fixture
def checkpoint_bytes(tmp_path):
    kg, pg, enc, dec, trn = toy_pipeline(np.random.default_rng(3), epochs=1)
    trainer = Trainer(kg, pg, enc, dec, trn)
    path = tmp_path / "ckpt.bin"
    trainer.save(path)
    return path.read_bytes()


def _json_header_end(blob):
    return 16 + int.from_bytes(blob[8:16], "little")


@pytest.mark.parametrize("cut", [
    lambda blob: 9,                                          # inside the 12-byte header
    lambda blob: 16 + (_json_header_end(blob) - 16) // 2,    # inside the JSON header
    lambda blob: _json_header_end(blob) + 12,                # inside the first blob
    lambda blob: len(blob) - 1,                              # inside the last blob
], ids=["header", "json", "first_blob", "last_blob"])
def test_checkpoint_truncated_is_data_error(tmp_path, checkpoint_bytes, cut):
    path = tmp_path / "cut.bin"
    path.write_bytes(checkpoint_bytes[:cut(checkpoint_bytes)])
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_checkpoint_header_length_past_the_end_is_data_error(tmp_path, checkpoint_bytes):
    """A damaged length field is checked against the file before any read allocates it."""
    path = tmp_path / "long_header.bin"
    path.write_bytes(checkpoint_bytes[:8] + struct.pack("<Q", 2 ** 40) + checkpoint_bytes[16:])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_is_data_error(tmp_path, checkpoint_bytes):
    path = tmp_path / "long.bin"
    path.write_bytes(checkpoint_bytes + b"\x00")
    with pytest.raises(DataError):
        load_checkpoint(path)


def older_checkpoint(tmp_path, trainer, version, **stored):
    """The trainer's checkpoint, rewritten as ``version`` with extra stored config fields,
    given per header section (``decoder_config={...}``)."""
    path = tmp_path / f"v{version}.bin"
    trainer.save(path)

    def add_fields(header):
        for section, extra in stored.items():
            header[section].update(extra)
        return header

    rewrite_checkpoint_header(path, add_fields, version)
    return path


# what versions 1-3 store beyond today's fields: every one the two grid permission flags,
# 1 and 2 the decoder reshape (always default_reshape(dim)), 1 an unused label_smoothing
OLDER_CHECKPOINT_FIELDS = {
    1: dict(encoder_config={"allow_any_depth": False}, train_config={"allow_off_grid": False},
            decoder_config={"label_smoothing": 0.1, "reshape_h": 2, "reshape_w": 4}),
    2: dict(encoder_config={"allow_any_depth": False}, train_config={"allow_off_grid": True},
            decoder_config={"reshape_h": 2, "reshape_w": 4}),
    3: dict(encoder_config={"allow_any_depth": True}, train_config={"allow_off_grid": True}),
}


@pytest.mark.parametrize("version", sorted(OLDER_CHECKPOINT_FIELDS))
def test_checkpoint_older_version_restores(tmp_path, version):
    """An older file loads without the fields today's configs no longer have."""
    kg, pg, enc, dec, trn = toy_pipeline(np.random.default_rng(3), epochs=1)
    trainer = Trainer(kg, pg, enc, dec, trn)
    trainer.train()
    old = older_checkpoint(tmp_path, trainer, version, **OLDER_CHECKPOINT_FIELDS[version])

    restored = Trainer.restore(old, kg, pg)
    assert (restored.encoder_config, restored.decoder_config, restored.train_config) \
        == (enc, dec, trn)
    for k, p in trainer.params.items():
        assert np.array_equal(p.data, restored.params[k].data), k
    assert restored.run_epoch() == trainer.run_epoch()
    for k, p in trainer.params.items():
        assert np.array_equal(p.data, restored.params[k].data), k
    header = load_checkpoint(old)[0]
    assert (header["encoder_config"], header["decoder_config"]) == (enc, dec)


def test_checkpoint_version_2_other_reshape_is_contract_error(tmp_path):
    kg, pg, enc, dec, trn = toy_pipeline(np.random.default_rng(3), epochs=1)
    v2 = older_checkpoint(tmp_path, Trainer(kg, pg, enc, dec, trn), 2,
                          decoder_config={"reshape_h": 1, "reshape_w": 8})
    with pytest.raises(ContractError):
        load_checkpoint(v2)


@pytest.mark.parametrize("case, error", [
    ("no_dim", ContractError),          # the default dim's reshape is not the stored one
    ("text_dim", DataError),
    ("negative_dim", ContractError),
])
def test_checkpoint_legacy_decoder_header_is_a_clean_error(tmp_path, case, error):
    kg, pg, enc, dec, trn = toy_pipeline(np.random.default_rng(3), epochs=1)
    path = tmp_path / "v2.bin"
    Trainer(kg, pg, enc, dec, trn).save(path)
    rewrite_checkpoint_header(path, legacy_decoder_header(case), version=2)
    with pytest.raises(error):
        load_checkpoint(path)


@pytest.mark.parametrize("field, value", [("epoch", "x"), ("global_step", -1), ("optimizer", {}),
                                          ("best_valid_mrr", "x"), ("rng_state", {})],
                         ids=["epoch", "global_step", "optimizer", "best_valid_mrr", "rng_state"])
def test_restore_rejects_damaged_state(tmp_path, field, value):
    kg, pg, enc, dec, trn = toy_pipeline(np.random.default_rng(3), epochs=1)
    path = tmp_path / "ckpt.bin"
    Trainer(kg, pg, enc, dec, trn).save(path)
    rewrite_checkpoint_header(path, lambda header: {**header, field: value})
    with pytest.raises(DataError, match=field):
        Trainer.restore(path, kg, pg)


@pytest.fixture
def wide_trainer():
    """A 3,000-entity, d=64 Adam trainer: its blobs dwarf the rest of its checkpoint."""
    kg = augment_inverse(random_kg(np.random.default_rng(7), 3000, 3, 6000))
    enc, dec, trn = make_configs({**TOY_SETTINGS, "dim": 64, "kg_only": True})
    return Trainer(kg, None, enc, dec, trn)


def traced_peak(fn):
    """``fn()`` and the most memory tracemalloc saw allocated during it, over what was before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_checkpoint_save_copies_no_blob(tmp_path, wide_trainer):
    path = tmp_path / "ckpt.bin"
    _, peak = traced_peak(lambda: wide_trainer.save(path))
    largest = max(p.data.nbytes for p in wide_trainer.params.values())
    assert peak < largest


def test_checkpoint_load_reads_each_blob_once(tmp_path, wide_trainer):
    path = tmp_path / "ckpt.bin"
    wide_trainer.save(path)
    (_, blobs), peak = traced_peak(lambda: load_checkpoint(path))
    total = sum(blob.nbytes for blob in blobs.values())
    assert total > 0.9 * path.stat().st_size
    assert peak <= 1.05 * total
    assert all(blob.flags.writeable for blob in blobs.values())


def test_backward_releases_every_node_of_a_step_graph(rng):
    kg, pg, enc, dec, trn = toy_pipeline(rng, dropout_input=0.2, dropout_feature=0.2,
                                         dropout_hidden=0.3)
    trainer = Trainer(kg, pg, enc, dec, trn)
    batch = next(build_batches(trainer.queries, trainer.answer_lists, kg.n_entities,
                               trn.batch_size, trn.label_smoothing, trainer.rng))
    E_enc, R_enc = encode(trainer.params, trainer.adj, trainer.prox, enc)
    h = ad.gather_rows(E_enc, batch.queries[:, 0])
    r = ad.gather_rows(R_enc, batch.queries[:, 1])
    logits = conve_score(h, r, E_enc, trainer.params, dec, dropout_key=(trn.seed, 0))
    loss = bce_loss(logits, batch.targets, batch.floor)
    nodes, stack = {}, [loss._node]
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node.parents)
    assert sum(node.backward is not None for node in nodes.values()) > 20
    loss.backward()
    assert all(node.backward is None and not node.parents for node in nodes.values())
    assert trainer.params["conv_filters"].grad is not None


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_step_updates_as_a_backward_then_an_optimizer_step(rng, optimizer):
    """Trainer.step updates each parameter inside the backward walk, bit for bit as a whole
    backward followed by the optimizer's step, and no parameter keeps a gradient."""
    kg, pg, enc, dec, trn = toy_pipeline(rng, optimizer=optimizer, dropout_input=0.2,
                                         dropout_feature=0.2, dropout_hidden=0.3)
    trainer, replica = Trainer(kg, pg, enc, dec, trn), Trainer(kg, pg, enc, dec, trn)
    for _ in range(3):
        value = one_step(trainer)
        loss = replica.loss(next(build_batches(replica.queries, replica.answer_lists,
                                               kg.n_entities, trn.batch_size,
                                               trn.label_smoothing, replica.rng)))
        loss.backward()
        replica.optimizer.step()
        replica.global_step += 1
        assert value == float(loss.data)
    assert all(p.grad is None for p in trainer.params.values())
    assert trainer.optimizer.t == replica.optimizer.t == 3
    for name, p in trainer.params.items():
        assert p.data.tobytes() == replica.params[name].data.tobytes(), name
    for state, want in zip(trainer.optimizer.state_blobs().values(),
                           replica.optimizer.state_blobs().values(), strict=True):
        assert state.tobytes() == want.tobytes()


def test_step_peak_memory_stays_under_four_and_a_half_feature_maps():
    """One step's traced peak, in units of the decoder's [B, n_filters, oh, ow] feature map.

    While backward kept every forward array until it returned and each
    elementwise backward allocated a fresh gradient, this step peaked at
    2,380,916 bytes, 8.1 maps; releasing the graph as it is walked and
    scaling gradients in place brought it to 1,461,729 bytes, 5.0 maps.
    Graph nodes that hold no array, closures that keep only what their
    backward reads, and each parameter updated once its gradient is final
    brought it to 972,873 bytes, 3.3 maps.
    """
    kg = augment_inverse(random_kg(np.random.default_rng(3), 100, 3, 400))
    pg = build_proximity_graph(accumulate_spm(extract_qa_pairs(kg), 4), 0.0, kg.n_entities)
    enc, dec, trn = make_configs({"dim": 32, "kg_layers": 1, "prox_layers": 1, "batch_size": 32,
                                  "seed": 5, "allow_off_grid": True})
    trainer = Trainer(kg, pg, enc, dec, trn)
    one_step(trainer)                   # warm-up
    _, peak = traced_peak(lambda: one_step(trainer))
    feature_map = trn.batch_size * dec.flat_dim * 8
    assert peak < 4.5 * feature_map


def test_restored_run_keeps_best_checkpoint(tmp_path):
    """A resumed run that does not beat the restored best MRR leaves the best checkpoint alone."""
    kg = validated_kg()
    pg = build_proximity_graph(accumulate_spm(extract_qa_pairs(kg), 4), 0.0, kg.n_entities)
    enc, dec, trn = make_configs({**TOY_SETTINGS, "learning_rate": 0.0, "eval_every": 1,
                                  "epochs": 2})
    path = tmp_path / "best.bin"
    first = Trainer(kg, pg, enc, dec, trn)      # a 2-epoch run, saved as its best after epoch 1
    first.run_epoch()
    first.best_valid_mrr = first.valid_mrr()
    first.save(path)
    before = path.read_bytes()
    restored = Trainer.restore(path, kg, pg)
    log = restored.train(checkpoint_path=path)
    assert log[-1]["valid_mrr"] == restored.best_valid_mrr      # validated, no improvement
    assert path.read_bytes() == before


def test_restored_run_trains_only_the_epochs_left(tmp_path):
    kg, pg, enc, dec, trn = toy_pipeline(np.random.default_rng(11), epochs=2)
    whole = Trainer(kg, pg, enc, dec, trn)
    whole.train()
    cut = Trainer(kg, pg, enc, dec, trn)
    cut.run_epoch()
    path = tmp_path / "epoch1.bin"
    cut.save(path)

    restored = Trainer.restore(path, kg, pg)
    log = restored.train()
    assert [record["epoch"] for record in log] == [2]
    assert (restored.epoch, restored.global_step) == (whole.epoch, whole.global_step)
    for k, p in whole.params.items():
        assert np.array_equal(p.data, restored.params[k].data), k


def test_checkpoint_unknown_version(tmp_path, checkpoint_bytes):
    path = tmp_path / "v9.bin"
    path.write_bytes(checkpoint_bytes[:4] + (9).to_bytes(4, "little") + checkpoint_bytes[8:])
    with pytest.raises(ContractError):
        load_checkpoint(path)


GRID_SETTINGS = {**TOY_SETTINGS, "epochs": 1}


def test_grid_search_single_and_seeds(rng):
    kg, pg, enc, dec, trn = toy_pipeline(rng, epochs=1)
    kg2 = kg  # has valid? the toy graph has no valid split; use train-only grid with nan mrr
    result = grid_search(kg2, {"M": [4]}, GRID_SETTINGS)
    assert len(result["trials"]) == 1
    assert result["complete"]
    result2 = grid_search(kg2, {"seed": [1, 2]}, GRID_SETTINGS)
    assert {row["seed"] for row in result2["trials"]} == {1, 2}


def test_grid_search_budget_flag(rng):
    kg, pg, enc, dec, trn = toy_pipeline(rng, epochs=1)
    result = grid_search(kg, {"seed": [1, 2, 3]}, GRID_SETTINGS, budget=2)
    assert len(result["trials"]) == 2
    assert not result["complete"]


@pytest.mark.parametrize("budget", [0, -1])
def test_grid_search_rejects_budget_below_one(rng, budget):
    kg = toy_pipeline(rng)[0]
    with pytest.raises(ContractError, match="budget"):
        grid_search(kg, {"seed": [1, 2, 3]}, GRID_SETTINGS, budget=budget)


@pytest.mark.parametrize("I", [float("nan"), float("inf"), -1.0])
def test_proximity_settings_rejects_threshold_outside_finite_range(I):
    with pytest.raises(ContractError, match="threshold I"):
        training.proximity_settings({"M": 4, "I": I})


def test_trainer_without_proximity_graph_needs_kg_only(rng):
    kg, _, enc, dec, trn = toy_pipeline(rng)
    with pytest.raises(ContractError, match="kg_only"):
        Trainer(kg, None, enc, dec, trn)


def test_train_prints_a_zero_valid_mrr(rng, monkeypatch, capsys):
    kg, pg, enc, dec, trn = toy_pipeline(rng, epochs=1, eval_every=1)
    kg.valid = kg.raw_train()[:2]      # a validation split, so the epoch is validated
    trainer = Trainer(kg, pg, enc, dec, trn)
    monkeypatch.setattr(trainer, "valid_mrr", lambda: 0.0)
    trainer.train(quiet=False)
    assert "valid_mrr=0.0000" in capsys.readouterr().out


def test_grid_search_rejects_key_it_does_not_vary(rng):
    kg, pg, enc, dec, trn = toy_pipeline(rng, epochs=1)
    with pytest.raises(ContractError):
        grid_search(kg, {"seed": [1], "dropout_input": [0.1, 0.2]}, GRID_SETTINGS)


def test_grid_search_starts_from_run_settings(rng):
    kg = toy_pipeline(rng)[0]
    result = grid_search(kg, {"seed": [1]}, {**GRID_SETTINGS, "M": 3, "I": 0.5})
    assert [(row["M"], row["I"], row["seed"]) for row in result["trials"]] == [(3, 0.5, 1)]
    result = grid_search(kg, {"seed": [1], "M": [4]}, {**GRID_SETTINGS, "M": 3})
    assert [(row["M"], row["I"]) for row in result["trials"]] == [(4, 1.0)]


def test_grid_search_trial_matches_run_of_its_settings(rng):
    kg = toy_pipeline(rng)[0]
    seen = []
    real_train = Trainer.train

    def record(self, *args, **kwargs):
        seen.append((self.encoder_config, self.decoder_config, self.train_config))
        return real_train(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training.Trainer, "train", record)
        grid_search(kg, {"dim": [6], "learning_rate": [0.5]}, {**GRID_SETTINGS, "kg_only": True})
    enc, dec, trn = make_configs({**GRID_SETTINGS, "kg_only": True, "dim": 6,
                                  "learning_rate": 0.5})
    assert seen == [(enc, dec, trn)]
    assert (dec.reshape_h, dec.reshape_w) == (2, 3)


@pytest.mark.parametrize("eval_every, n_evaluations", [(1, 2), (0, 1)])
def test_grid_search_reuses_the_final_validation(monkeypatch, eval_every, n_evaluations):
    kg = validated_kg()
    mrrs = []
    real_evaluate = training.evaluation.evaluate

    def record(*args, **kwargs):
        result = real_evaluate(*args, **kwargs)
        mrrs.append(result["mrr"])
        return result

    monkeypatch.setattr(training.evaluation, "evaluate", record)
    result = grid_search(kg, {"seed": [1]},
                         {**GRID_SETTINGS, "M": 4, "epochs": 2, "eval_every": eval_every})
    assert len(mrrs) == n_evaluations
    assert result["trials"][0]["valid_mrr"] == mrrs[-1]


def test_grid_search_validates_every_trial_before_training(rng):
    kg = toy_pipeline(rng)[0]

    def fail(self, *args, **kwargs):
        raise AssertionError("a trial trained before the grid was validated")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training.Trainer, "train", fail)
        for grid in ({"kg_layers": [1, -1]}, {"M": [4, 2]}, {"I": [1.0, -0.5]}):
            with pytest.raises(ContractError):
                grid_search(kg, grid, GRID_SETTINGS)


def test_grid_M_changes_spm(rng):
    kg, _, _, _, _ = toy_pipeline(rng)
    index = extract_qa_pairs(kg)
    spm3 = accumulate_spm(index, 3)
    spm4 = accumulate_spm(index, 4)
    # same support cannot hold for both unless all answer sets have size 2
    sizes = {len(p.answers) for p in index.pairs}
    if any(s > 2 for s in sizes):
        assert spm3.entries != spm4.entries


def test_write_trial_table(tmp_path, rng):
    kg, pg, enc, dec, trn = toy_pipeline(rng, epochs=1)
    result = grid_search(kg, {"seed": [1, 2, 3]}, GRID_SETTINGS, budget=2)
    path = tmp_path / "trials.tsv"
    write_trial_table(result, path)
    text = path.read_text()
    assert text.startswith("# INCOMPLETE")
    assert len(text.strip().splitlines()) == 4  # marker + header + 2 rows
