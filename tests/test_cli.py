import json

import numpy as np
import pytest

from proxkg.cli import (CONFIG_KEYS, EXIT_CONFIG, EXIT_DATA, EXIT_OK, coerce, main,
                        parse_config_file)
from proxkg.decoder import DecoderConfig
from proxkg.encoder import EncoderConfig
from proxkg.kgdata import ContractError
from proxkg.synth import clustered_kg, toy_kg, write_kg_files
from proxkg.training import TrainConfig


@pytest.fixture
def dataset_dir(tmp_path, rng):
    kg = toy_kg(rng, 8, 3, 20)
    # carve a couple of train triples into valid/test so every split is non-empty
    data = tmp_path / "data"
    data.mkdir()
    kg.valid = kg.train[-4:-2]
    kg.test = kg.train[-2:]
    kg.train = kg.train[:-4]
    write_kg_files(kg, data)
    return data


def run(args):
    return main([str(a) for a in args])


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nM = 4\nI = 0.5\nkg_only = true\nout_dir = /tmp/x\n")
    values = parse_config_file(cfg)
    assert values["M"] == "4"
    assert coerce("M", values["M"]) == 4
    assert coerce("I", values["I"]) == 0.5
    assert coerce("kg_only", values["kg_only"]) is True
    assert coerce("grid.M", "3,4") == [3, 4]
    with pytest.raises(ContractError):
        coerce("M", "abc")


# keys a command reads that are not fields of a config dataclass
RUN_KEYS = {"train_path", "valid_path", "test_path", "out_dir", "kg_path", "pgraph_path",
            "checkpoint_path", "eval_split", "budget", "M", "I"}


def test_config_keys_are_config_fields_or_run_keys():
    field_types = {}
    for cls in (EncoderConfig, DecoderConfig, TrainConfig):
        for name, value in vars(cls()).items():
            assert field_types.setdefault(name, type(value)) is type(value), name
    for key, kind in CONFIG_KEYS.items():
        assert key in RUN_KEYS or field_types.get(key) is kind, key
    assert set(field_types) - set(CONFIG_KEYS) == set()
    assert not RUN_KEYS & set(field_types)


def test_cli_full_pipeline(tmp_path, dataset_dir, capsys):
    out = tmp_path / "out"
    base = [
        "--set", f"train_path={dataset_dir}/train.txt",
        "--set", f"valid_path={dataset_dir}/valid.txt",
        "--set", f"test_path={dataset_dir}/test.txt",
        "--set", f"out_dir={out}",
    ]
    assert run(["ingest"] + base) == EXIT_OK
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["counts"]["train"] == 16
    assert "provenance" in report

    common = ["--set", f"out_dir={out}", "--set", "M=4", "--set", "I=0.0"]
    assert run(["build-proximity"] + common) == EXIT_OK
    assert (out / "proximity_graph.bin").exists()
    assert (out / "proximity_stats.json").exists()

    train_args = common + [
        "--quiet",
        "--set", "dim=8", "--set", "n_filters=4", "--set", "kernel=2",
        "--set", "batch_size=16", "--set", "learning_rate=0.01",
        "--set", "epochs=2", "--set", "edge_drop_rate=0.1",
        "--set", "eval_every=1", "--set", "allow_off_grid=true",
    ]
    assert run(["train"] + train_args) == EXIT_OK
    assert (out / "checkpoint.bin").exists()
    lines = (out / "metrics.jsonl").read_text().strip().splitlines()
    assert "provenance" in json.loads(lines[0])
    assert json.loads(lines[1])["epoch"] == 1

    assert run(["evaluate"] + train_args + ["--set", "eval_split=test"]) == EXIT_OK
    metrics = json.loads((out / "metrics_test.json").read_text())
    assert set(metrics) >= {"mrr", "mr", "hits1", "hits3", "hits10", "provenance"}

    assert run(["ntype"] + train_args) == EXIT_OK
    table = (out / "ntype_table.tsv").read_text()
    assert table.startswith("range\tcount\trate\n")
    ntype = json.loads((out / "ntype_report.json").read_text())
    assert ntype["total"] == 2 * 2
    assert (out / "ntype_mrr.json").exists()

    capsys.readouterr()
    grid_args = train_args + ["--set", "grid.seed=1,2", "--set", "epochs=1"]
    assert run(["grid"] + grid_args) == EXIT_OK
    assert (out / "trials.tsv").exists()
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary == {"n_trials": 2, "complete": True}


def test_cli_missing_inputs_exit_codes(tmp_path):
    out = tmp_path / "nothing"
    assert run(["ingest", "--set", f"out_dir={out}"]) == EXIT_CONFIG
    assert run(["train", "--set", f"out_dir={out}"]) == EXIT_DATA
    assert run(["evaluate", "--set", f"out_dir={out}"]) == EXIT_DATA
    assert run(["ingest",
                "--set", "train_path=/nonexistent/t.txt",
                "--set", "valid_path=/nonexistent/v.txt",
                "--set", "test_path=/nonexistent/x.txt",
                "--set", f"out_dir={out}"]) == EXIT_DATA


def test_cli_artifact_mismatch_guard(tmp_path, dataset_dir):
    out = tmp_path / "out"
    base = [
        "--set", f"train_path={dataset_dir}/train.txt",
        "--set", f"valid_path={dataset_dir}/valid.txt",
        "--set", f"test_path={dataset_dir}/test.txt",
        "--set", f"out_dir={out}",
    ]
    assert run(["ingest"] + base) == EXIT_OK
    assert run(["build-proximity", "--set", f"out_dir={out}",
                "--set", "M=4", "--set", "I=0.0"]) == EXIT_OK
    # training configured with a different (M, I) must refuse the artifact
    args = ["train", "--quiet", "--set", f"out_dir={out}", "--set", "M=5",
            "--set", "I=0.0", "--set", "dim=8", "--set", "n_filters=4",
            "--set", "kernel=2", "--set", "batch_size=16", "--set", "epochs=1",
            "--set", "allow_off_grid=true"]
    assert run(args) == EXIT_CONFIG


def test_cli_empty_proximity_warning(tmp_path, dataset_dir, capsys):
    out = tmp_path / "out"
    base = [
        "--set", f"train_path={dataset_dir}/train.txt",
        "--set", f"valid_path={dataset_dir}/valid.txt",
        "--set", f"test_path={dataset_dir}/test.txt",
        "--set", f"out_dir={out}",
    ]
    assert run(["ingest"] + base) == EXIT_OK
    assert run(["build-proximity", "--set", f"out_dir={out}",
                "--set", "M=4", "--set", "I=1000.0"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "empty" in captured.err


def test_cli_off_grid_rejected_without_flag(tmp_path, dataset_dir):
    out = tmp_path / "out"
    base = [
        "--set", f"train_path={dataset_dir}/train.txt",
        "--set", f"valid_path={dataset_dir}/valid.txt",
        "--set", f"test_path={dataset_dir}/test.txt",
        "--set", f"out_dir={out}",
    ]
    assert run(["ingest"] + base) == EXIT_OK
    assert run(["build-proximity", "--set", f"out_dir={out}"]) == EXIT_OK
    args = ["train", "--quiet", "--set", f"out_dir={out}", "--set", "dim=8",
            "--set", "batch_size=7", "--set", "epochs=1"]
    assert run(args) == EXIT_CONFIG


TINY_TRAIN = ["--quiet", "--set", "M=4", "--set", "I=0.0", "--set", "dim=8",
              "--set", "n_filters=4", "--set", "kernel=2", "--set", "batch_size=16",
              "--set", "epochs=1", "--set", "allow_off_grid=true"]


@pytest.fixture
def built_dir(tmp_path, dataset_dir):
    """An out_dir holding kg.npz and a proximity graph built with M=4, I=0.0."""
    out = tmp_path / "out"
    assert run(["ingest",
                "--set", f"train_path={dataset_dir}/train.txt",
                "--set", f"valid_path={dataset_dir}/valid.txt",
                "--set", f"test_path={dataset_dir}/test.txt",
                "--set", f"out_dir={out}"]) == EXIT_OK
    assert run(["build-proximity", "--set", f"out_dir={out}",
                "--set", "M=4", "--set", "I=0.0"]) == EXIT_OK
    return out


def test_cli_grid_budget_limits_trials(built_dir, capsys):
    capsys.readouterr()
    args = ["grid", "--set", f"out_dir={built_dir}", "--set", "grid.seed=1,2",
            "--set", "budget=1"] + TINY_TRAIN
    assert run(args) == EXIT_OK
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary == {"n_trials": 1, "complete": False}


def test_cli_train_writes_configured_checkpoint_path(tmp_path, built_dir):
    ckpt = tmp_path / "elsewhere.bin"
    args = ["--set", f"out_dir={built_dir}", "--set", f"checkpoint_path={ckpt}"] + TINY_TRAIN
    assert run(["train"] + args) == EXIT_OK
    assert ckpt.exists()
    assert not (built_dir / "checkpoint.bin").exists()
    assert run(["evaluate"] + args) == EXIT_OK


def test_cli_truncated_proximity_graph_is_data_error(built_dir):
    path = built_dir / "proximity_graph.bin"
    path.write_bytes(path.read_bytes()[:-1])
    assert run(["train", "--set", f"out_dir={built_dir}"] + TINY_TRAIN) == EXIT_DATA


def test_cli_truncated_checkpoint_is_data_error(built_dir):
    args = ["--set", f"out_dir={built_dir}"] + TINY_TRAIN
    assert run(["train"] + args) == EXIT_OK
    ckpt = built_dir / "checkpoint.bin"
    ckpt.write_bytes(ckpt.read_bytes()[:-5])
    assert run(["evaluate"] + args) == EXIT_DATA


def test_cli_train_rejects_missing_checkpoint_directory(tmp_path, built_dir, capsys):
    ckpt = tmp_path / "nodir" / "ck.bin"
    args = ["--set", f"out_dir={built_dir}", "--set", f"checkpoint_path={ckpt}"] + TINY_TRAIN
    capsys.readouterr()
    assert run(["train"] + args) == EXIT_DATA
    assert str(ckpt) in capsys.readouterr().err
    log = built_dir / "metrics.jsonl"
    records = [json.loads(line) for line in log.read_text().splitlines()] if log.exists() else []
    assert not any("epoch" in rec for rec in records)


def test_cli_unknown_config_key_is_config_error(built_dir, capsys):
    capsys.readouterr()
    assert run(["build-proximity", "--set", f"out_dir={built_dir}", "--set", "bogus=1"]) \
        == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err
    cfg = built_dir / "run.cfg"
    cfg.write_text("M = 4\nprox_path = elsewhere.bin\n")
    assert run(["build-proximity", "--config", cfg, "--set", f"out_dir={built_dir}"]) \
        == EXIT_CONFIG


def test_cli_grid_key_it_does_not_vary_is_config_error(built_dir):
    args = ["grid", "--set", f"out_dir={built_dir}", "--set", "grid.dropout_input=0.1,0.2"]
    assert run(args + TINY_TRAIN) == EXIT_CONFIG
    assert not (built_dir / "trials.tsv").exists()


def test_cli_truncated_kg_is_data_error(built_dir):
    path = built_dir / "kg.npz"
    path.write_bytes(path.read_bytes()[:len(path.read_bytes()) // 2])
    assert run(["build-proximity", "--set", f"out_dir={built_dir}"]) == EXIT_DATA


def test_cli_unknown_split_is_config_error(built_dir):
    args = ["--set", f"out_dir={built_dir}", "--set", "eval_split=bogus"] + TINY_TRAIN
    assert run(["ntype"] + args) == EXIT_CONFIG
    assert run(["train", "--set", f"out_dir={built_dir}"] + TINY_TRAIN) == EXIT_OK
    assert run(["evaluate"] + args) == EXIT_CONFIG


@pytest.mark.parametrize("setting", ["dropout_input=1.0", "dropout_hidden=-0.1", "kernel=0",
                                     "n_filters=0", "eval_every=-1", "learning_rate=nan"])
def test_cli_out_of_range_model_setting_is_config_error(built_dir, setting):
    args = ["train", "--set", f"out_dir={built_dir}"] + TINY_TRAIN + ["--set", setting]
    assert run(args) == EXIT_CONFIG
    assert not (built_dir / "metrics.jsonl").exists()      # rejected before any training


def test_cli_grid_starts_from_run_M_and_I(built_dir):
    args = ["grid", "--set", f"out_dir={built_dir}", "--set", "grid.seed=1"] + TINY_TRAIN
    assert run(args + ["--set", "M=3", "--set", "I=0.5"]) == EXIT_OK
    header, row = (built_dir / "trials.tsv").read_text().splitlines()
    trial = dict(zip(header.split("\t"), row.split("\t")))
    assert (trial["M"], trial["I"], trial["seed"]) == ("3", "0.5", "1")
