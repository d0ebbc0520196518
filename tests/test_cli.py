import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proxkg.cli import (CONFIG_KEYS, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC, EXIT_OK, coerce,
                        main, parse_config_file)
from proxkg.decoder import DecoderConfig
from proxkg.encoder import EncoderConfig
from proxkg.kgdata import ContractError, augment_inverse, load_kg, save_kg
from synth import clustered_kg, random_kg, write_kg_files
from proxkg.training import TrainConfig, load_checkpoint
from conftest import (LEGACY_DECODERS, legacy_decoder_header, rewrite_checkpoint,
                      rewrite_checkpoint_header, write_triples)


def write_dataset(data, rng):
    """Write a toy graph's three split files into ``data``, a new directory."""
    kg = random_kg(rng, 8, 3, 20)
    # carve a couple of train triples into valid/test so every split is non-empty
    data.mkdir()
    kg.valid = kg.train[-4:-2]
    kg.test = kg.train[-2:]
    kg.train = kg.train[:-4]
    write_kg_files(kg, data)
    return data


@pytest.fixture
def dataset_dir(tmp_path, rng):
    return write_dataset(tmp_path / "data", rng)


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
            "checkpoint_path", "eval_split", "budget", "M", "I", "allow_off_grid"}


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


@pytest.mark.parametrize("budget", ["-1", "0"])
def test_cli_grid_budget_below_one_is_config_error(built_dir, budget):
    args = ["grid", "--set", f"out_dir={built_dir}", "--set", "grid.seed=1,2",
            "--set", f"budget={budget}"] + TINY_TRAIN
    assert run(args) == EXIT_CONFIG
    assert not (built_dir / "trials.tsv").exists()


@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_cli_non_finite_threshold_is_config_error(built_dir, threshold):
    stats = (built_dir / "proximity_stats.json").read_text()
    assert run(["build-proximity", "--set", f"out_dir={built_dir}", "--set", "M=4",
                "--set", f"I={threshold}"]) == EXIT_CONFIG
    assert (built_dir / "proximity_stats.json").read_text() == stats
    assert run(["train", "--set", f"out_dir={built_dir}"] + TINY_TRAIN
               + ["--set", f"I={threshold}"]) == EXIT_CONFIG


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


def test_cli_huge_dim_is_config_error(built_dir, capsys):
    capsys.readouterr()
    assert run(["train", "--set", f"out_dir={built_dir}"] + TINY_TRAIN
               + ["--set", f"dim={10 ** 14}"]) == EXIT_CONFIG
    assert "embedding dim" in capsys.readouterr().err


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
                                     "n_filters=0", "eval_every=-1", "learning_rate=nan",
                                     "kg_layers=-1", "seed=-1"])
def test_cli_out_of_range_model_setting_is_config_error(built_dir, setting):
    args = ["train", "--set", f"out_dir={built_dir}"] + TINY_TRAIN + ["--set", setting]
    assert run(args) == EXIT_CONFIG
    assert not (built_dir / "metrics.jsonl").exists()      # rejected before any training


def test_cli_allow_off_grid_unlocks_depth(built_dir, capsys):
    args = ["train", "--set", f"out_dir={built_dir}"] + TINY_TRAIN + ["--set", "kg_layers=4"]
    capsys.readouterr()
    assert run(args + ["--set", "batch_size=256", "--set", "allow_off_grid=false"]) \
        == EXIT_CONFIG
    assert "kg_layers" in capsys.readouterr().err
    assert run(args + ["--set", "allow_any_depth=true"]) == EXIT_CONFIG      # an unknown key
    assert not (built_dir / "metrics.jsonl").exists()
    assert run(args) == EXIT_OK


def test_cli_evaluation_outputs_name_their_checkpoint(built_dir):
    args = ["--set", f"out_dir={built_dir}"] + TINY_TRAIN
    assert run(["train"] + args + ["--set", "seed=5"]) == EXIT_OK
    header, _ = load_checkpoint(built_dir / "checkpoint.bin")
    trained = json.loads((built_dir / "metrics.jsonl").read_text().splitlines()[0])
    assert trained["provenance"]["config_digest"] == header["config_digest"]
    assert run(["evaluate"] + args) == EXIT_OK          # no seed key
    assert run(["ntype"] + args) == EXIT_OK
    for name in ("metrics_test.json", "ntype_mrr.json"):
        scored = json.loads((built_dir / name).read_text())["provenance"]
        assert (scored["seed"], scored["config_digest"]) == (5, header["config_digest"]), name


def test_cli_grid_starts_from_run_M_and_I(built_dir):
    args = ["grid", "--set", f"out_dir={built_dir}", "--set", "grid.seed=1"] + TINY_TRAIN
    assert run(args + ["--set", "M=3", "--set", "I=0.5"]) == EXIT_OK
    header, row = (built_dir / "trials.tsv").read_text().splitlines()
    trial = dict(zip(header.split("\t"), row.split("\t")))
    assert (trial["M"], trial["I"], trial["seed"]) == ("3", "0.5", "1")


@pytest.mark.parametrize("damage", [
    lambda header: {},
    lambda header: [1, 2],
    lambda header: {key: value for key, value in header.items() if key != "blobs"},
    lambda header: {**header, "encoder_config": {**header["encoder_config"], "bogus": 1}},
    lambda header: {**header, "encoder_config": None},
    lambda header: {**header, "blobs": [{"name": spec["name"]} for spec in header["blobs"]]},
    lambda header: {**header, "train_config": []},
    lambda header: {**header, "blobs": [{"name": "kg_W0", "shape": [2 ** 32, 2 ** 32]}]},
], ids=["empty", "list", "no_blobs", "unknown_config_field", "null_config", "blob_without_shape",
        "list_config", "blob_size_past_int64"])
def test_cli_damaged_checkpoint_header_is_data_error(built_dir, damage):
    args = ["--set", f"out_dir={built_dir}"] + TINY_TRAIN
    assert run(["train"] + args) == EXIT_OK
    rewrite_checkpoint_header(built_dir / "checkpoint.bin", damage)
    assert run(["evaluate"] + args) == EXIT_DATA


def test_cli_checkpoint_from_another_graph_is_config_error(tmp_path, built_dir, capsys):
    assert run(["train", "--set", f"out_dir={built_dir}"] + TINY_TRAIN) == EXIT_OK
    data, other = tmp_path / "chain", tmp_path / "other"
    data.mkdir()
    chain = [(f"e{i}", "r", f"e{i + 1}") for i in range(12)]
    for name, rows in (("train", chain), ("valid", chain[:1]), ("test", chain[1:2])):
        write_triples(data / f"{name}.txt", rows)
    assert run(["ingest", "--set", f"train_path={data}/train.txt",
                "--set", f"valid_path={data}/valid.txt", "--set", f"test_path={data}/test.txt",
                "--set", f"out_dir={other}"]) == EXIT_OK
    assert run(["build-proximity", "--set", f"out_dir={other}",
                "--set", "M=4", "--set", "I=0.0"]) == EXIT_OK
    trained_on = load_kg(built_dir / "kg.npz").n_entities
    capsys.readouterr()
    args = ["evaluate", "--set", f"out_dir={other}",
            "--set", f"checkpoint_path={built_dir / 'checkpoint.bin'}"] + TINY_TRAIN
    assert run(args) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "entity_embed" in err and f"{trained_on} rows" in err and "13" in err


@pytest.mark.parametrize("edit, code", [
    (lambda blobs: blobs.pop("kg_W0"), EXIT_DATA),
    (lambda blobs: blobs.update(kg_W0=np.zeros((4, 4))), EXIT_CONFIG),
], ids=["missing", "misshapen"])
def test_cli_checkpoint_blob_unlike_the_model_is_rejected(built_dir, edit, code):
    args = ["--set", f"out_dir={built_dir}"] + TINY_TRAIN
    assert run(["train"] + args) == EXIT_OK
    ckpt = built_dir / "checkpoint.bin"
    _, blobs = load_checkpoint(ckpt)
    edit(blobs)
    rewrite_checkpoint(ckpt, blobs)
    assert run(["evaluate"] + args) == code


def test_cli_evaluate_nan_checkpoint_is_numeric_error(built_dir, capsys):
    args = ["--set", f"out_dir={built_dir}"] + TINY_TRAIN
    assert run(["train"] + args) == EXIT_OK
    ckpt = built_dir / "checkpoint.bin"
    _, blobs = load_checkpoint(ckpt)
    blobs["fc_b"] = np.full_like(blobs["fc_b"], np.nan)
    rewrite_checkpoint(ckpt, blobs)
    capsys.readouterr()
    assert run(["evaluate"] + args) == EXIT_NUMERIC
    assert "Traceback" not in capsys.readouterr().err


def test_cli_nan_proximity_weight_is_data_error(built_dir, capsys):
    path = built_dir / "proximity_graph.bin"
    data = path.read_bytes()
    assert len(data) > 36                               # a 36-byte header, then (i, j, w) records
    path.write_bytes(data[:52] + struct.pack("<d", float("nan")) + data[60:])
    assert run(["train", "--set", f"out_dir={built_dir}"] + TINY_TRAIN) == EXIT_DATA
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("threshold, M", [(float("nan"), 4), (1.0, 2)], ids=["I_nan", "M_2"])
def test_cli_proximity_header_a_build_cannot_write_is_data_error(built_dir, capsys, threshold, M):
    path = built_dir / "proximity_graph.bin"
    n_entities = load_kg(built_dir / "kg.npz").n_entities
    path.write_bytes(b"PXGR" + struct.pack("<IQdIQ", 1, n_entities, threshold, M, 0))
    capsys.readouterr()
    assert run(["train", "--set", f"out_dir={built_dir}"] + TINY_TRAIN) == EXIT_DATA
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(path) in err


@pytest.mark.parametrize("case", sorted(LEGACY_DECODERS))
def test_cli_legacy_decoder_header_is_a_clean_error(built_dir, capsys, case):
    args = ["--set", f"out_dir={built_dir}"] + TINY_TRAIN
    assert run(["train"] + args) == EXIT_OK
    rewrite_checkpoint_header(built_dir / "checkpoint.bin", legacy_decoder_header(case), version=2)
    capsys.readouterr()
    assert run(["evaluate"] + args) in (EXIT_CONFIG, EXIT_DATA)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build-proximity", "train"])
@pytest.mark.parametrize("column, value", [(0, "n_entities"), (2, -1), (1, "n_relations")],
                         ids=["head_too_large", "tail_negative", "relation_too_large"])
def test_cli_out_of_range_id_in_kg_is_data_error(built_dir, command, column, value):
    path = built_dir / "kg.npz"
    kg = load_kg(path)
    kg.train[0, column] = getattr(kg, value) if isinstance(value, str) else value
    save_kg(kg, path)
    assert run([command, "--set", f"out_dir={built_dir}"] + TINY_TRAIN) == EXIT_DATA


# edits that put an augmented kg.npz out of step with its raw half
AUGMENTED_DAMAGE = {"no_raw_relation_count": lambda kg: setattr(kg, "num_raw_relations", None),
                    "train_missing_a_row": lambda kg: setattr(kg, "train", kg.train[:-1])}


@pytest.mark.parametrize("command", ["ntype", "build-proximity"])
@pytest.mark.parametrize("damage", AUGMENTED_DAMAGE)
def test_cli_inconsistent_augmented_kg_is_data_error(built_dir, capsys, command, damage):
    path = built_dir / "kg.npz"
    kg = augment_inverse(load_kg(path))
    AUGMENTED_DAMAGE[damage](kg)
    save_kg(kg, path)
    capsys.readouterr()
    assert run([command, "--set", f"out_dir={built_dir}"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(path) in err


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    """Split files and an out_dir whose artifacts every subcommand reads without error."""
    root = tmp_path_factory.mktemp("trained")
    data, out = write_dataset(root / "data", np.random.default_rng(1234)), root / "out"
    splits = [arg for key in ("train", "valid", "test")
              for arg in ("--set", f"{key}_path={data}/{key}.txt")]
    assert run(["ingest", "--set", f"out_dir={out}"] + splits) == EXIT_OK
    base = ["--set", f"out_dir={out}"] + TINY_TRAIN
    for command in ("build-proximity", "train", "evaluate", "ntype"):
        assert run([command] + base) == EXIT_OK
    assert run(["grid", "--set", "grid.seed=1"] + base) == EXIT_OK
    return out, splits


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


# the artifacts each subcommand reads, by config key ("config" being the --config file)
READS = {"ingest": ("config", "train_path", "valid_path", "test_path"),
         "build-proximity": ("config", "kg_path"),
         "train": ("config", "kg_path", "pgraph_path"),
         "evaluate": ("config", "kg_path", "pgraph_path", "checkpoint_path"),
         "ntype": ("config", "kg_path", "pgraph_path", "checkpoint_path"),
         "grid": ("config", "kg_path")}
DAMAGE = {"missing": lambda path: None,
          "directory": lambda path: path.mkdir(),
          "garbage": lambda path: path.write_text("garbage\n"),
          "not_utf8": lambda path: path.write_bytes(b"\xff\xfe\x80 \xc3\x28\n"),
          "npy_array": lambda path: path.write_bytes(npy_bytes(np.arange(3.0)))}
# ntype scores a checkpoint only when there is one, so a missing one is no error
SWEEP = [(command, key, damage) for command, keys in READS.items() for key in keys
         for damage in DAMAGE if (command, key, damage) != ("ntype", "checkpoint_path", "missing")]


@pytest.mark.parametrize("command, key, damage", SWEEP)
def test_cli_unreadable_artifact_is_a_clean_error(tmp_path, trained_dir, capsys, command, key,
                                                  damage):
    out, splits = trained_dir
    path = tmp_path / "artifact"
    DAMAGE[damage](path)
    args = [command, "--set", f"out_dir={out}"] + TINY_TRAIN
    args += {"ingest": splits, "grid": ["--set", "grid.seed=1"]}.get(command, [])
    args += ["--config", path] if key == "config" else ["--set", f"{key}={path}"]
    capsys.readouterr()
    assert run(args) in (EXIT_CONFIG, EXIT_DATA)
    err = capsys.readouterr().err
    assert "Traceback" not in err and str(path) in err


def test_cli_directory_as_kg_path_exits_3_without_traceback(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "proxkg.cli", "build-proximity",
                           "--set", f"kg_path={tmp_path}"],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == EXIT_DATA
    assert "Traceback" not in done.stderr and str(tmp_path) in done.stderr
