"""Command-line workbench: ingest, build-proximity, train, evaluate, ntype, grid.

Configuration is a flat ``key = value`` text file; any flag of the form
``--set key=value`` overrides the file. Every output carries a provenance
header (config digest, seed, tool version) so runs are reproducible and
artifacts from different configurations cannot be silently mixed.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric error (a non-finite
training loss, or a NaN score being ranked).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .autodiff import Tensor
from .encoder import ProximityAdjacency
from .evaluation import evaluate, ntype_mrr_breakdown, ntype_report
from .kgdata import (ContractError, DataError, KnowledgeGraph, NumericError, atomic_write,
                     augment_inverse, ingest_dataset, load_kg, read_lines, save_kg)
from .proximity import (accumulate_spm, build_proximity_graph, export_proximity_tsv,
                        extract_qa_pairs, load_proximity_graph, proximity_stats,
                        save_proximity_graph)
from .training import (GRID_KEYS, TrainConfig, Trainer, check_checkpoint, config_digest,
                       grid_search, load_checkpoint, make_configs, proximity_settings,
                       write_trial_table)

EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 0, 2, 3, 4

# every key some command reads, with its type; any other key is a config error
CONFIG_KEYS = {
    "train_path": str, "valid_path": str, "test_path": str, "out_dir": str, "kg_path": str,
    "pgraph_path": str, "checkpoint_path": str, "eval_split": str, "seed": int, "budget": int,
    "M": int, "I": float,
    "dim": int, "kg_layers": int, "prox_layers": int, "composition": str, "weight_scheme": str,
    "kg_only": bool,
    "n_filters": int, "kernel": int, "dropout_input": float, "dropout_feature": float,
    "dropout_hidden": float, "label_smoothing": float,
    "batch_size": int, "learning_rate": float, "optimizer": str, "epochs": int,
    "edge_drop_rate": float, "eval_every": int, "allow_off_grid": bool,
}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def parse_config_file(path) -> dict:
    values = {}
    for lineno, line in enumerate(read_lines(path, ContractError), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ContractError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        values[key.strip()] = raw.strip()
    return values


def coerce(key: str, raw: str):
    if key.startswith("grid."):
        if key[5:] not in GRID_KEYS:
            raise ContractError(f"grid search does not vary {key[5:]!r}; "
                                f"grid keys are {', '.join(GRID_KEYS)}")
        return [coerce(key[5:], part) for part in raw.split(",")]
    kind = CONFIG_KEYS.get(key)
    if kind is None:
        raise ContractError(f"unknown config key {key!r}")
    try:
        return _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ContractError(f"config key {key!r}: cannot parse value {raw!r}") from None


def load_run_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        for key, raw in parse_config_file(args.config).items():
            cfg[key] = coerce(key, raw)
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ContractError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        cfg[key.strip()] = coerce(key.strip(), raw.strip())
    return cfg


def provenance(seed: int, digest: str | None = None) -> dict:
    header = {"tool_version": __version__, "seed": seed}
    if digest is not None:
        header["config_digest"] = digest
    return header


def _out_dir(cfg: dict) -> str:
    out = cfg.get("out_dir", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(path, payload):
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def cmd_ingest(args) -> int:
    cfg = load_run_config(args)
    for key in ("train_path", "valid_path", "test_path"):
        if key not in cfg:
            raise ContractError(f"missing required config key {key!r}")
    kg = ingest_dataset(cfg["train_path"], cfg["valid_path"], cfg["test_path"])
    out = _out_dir(cfg)
    save_kg(kg, os.path.join(out, "kg.npz"))
    report = {"provenance": provenance(cfg.get("seed", TrainConfig.seed)), **kg.report}
    _write_json(os.path.join(out, "ingest_report.json"), report)
    print(json.dumps(kg.report["counts"]))
    return EXIT_OK


def _artifact_path(cfg, key: str, name: str) -> str:
    """The path the run configures under ``key``, else ``name`` in its out_dir."""
    return cfg.get(key) or os.path.join(cfg.get("out_dir", "."), name)


def _load_run(args) -> tuple[dict, KnowledgeGraph]:
    """The run's settings and its knowledge graph, augmented with inverse relations."""
    cfg = load_run_config(args)
    kg = load_kg(_artifact_path(cfg, "kg_path", "kg.npz"))
    return cfg, kg if kg.augmented else augment_inverse(kg)


def cmd_build_proximity(args) -> int:
    cfg, kg = _load_run(args)
    M, I = proximity_settings(cfg)
    graph = build_proximity_graph(accumulate_spm(extract_qa_pairs(kg), M), I, kg.n_entities)
    out = _out_dir(cfg)
    save_proximity_graph(graph, os.path.join(out, "proximity_graph.bin"))
    export_proximity_tsv(graph, os.path.join(out, "proximity_graph.tsv"))
    stats = {"provenance": provenance(cfg.get("seed", TrainConfig.seed)),
             **proximity_stats(graph)}
    _write_json(os.path.join(out, "proximity_stats.json"), stats)
    if graph.n_edges == 0:
        print("warning: proximity graph is empty (threshold above the maximum "
              "accumulated value)", file=sys.stderr)
    print(json.dumps({"n_edges": graph.n_edges, "M": M, "I": I}))
    return EXIT_OK


def _load_pgraph(cfg, kg, enc):
    if enc.kg_only:
        return None
    graph = load_proximity_graph(_artifact_path(cfg, "pgraph_path", "proximity_graph.bin"))
    if "M" in cfg and graph.M != cfg["M"]:
        raise ContractError(f"proximity graph was built with M={graph.M}, run configures M={cfg['M']}")
    if "I" in cfg and graph.threshold != cfg["I"]:
        raise ContractError(
            f"proximity graph was built with I={graph.threshold}, run configures I={cfg['I']}")
    if graph.n_entities != kg.n_entities:
        raise DataError("proximity graph entity count does not match the knowledge graph")
    return graph


def cmd_train(args) -> int:
    cfg, kg = _load_run(args)
    enc, dec, trn = make_configs(cfg)
    pgraph = _load_pgraph(cfg, kg, enc)
    out = _out_dir(cfg)
    ckpt_path = _artifact_path(cfg, "checkpoint_path", "checkpoint.bin")
    if not os.path.isdir(os.path.dirname(ckpt_path) or "."):
        raise DataError(f"checkpoint directory does not exist: {ckpt_path}")
    trainer = Trainer(kg, pgraph, enc, dec, trn)
    log_path = os.path.join(out, "metrics.jsonl")
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"provenance": provenance(trn.seed, config_digest(enc, dec, trn))})
                 + "\n")
    trainer.train(log_path=log_path, checkpoint_path=ckpt_path, quiet=args.quiet)
    print(json.dumps({"checkpoint": ckpt_path, "epochs": trainer.epoch,
                      "best_valid_mrr": trainer.best_valid_mrr}))
    return EXIT_OK


def _checkpoint_setup(cfg, kg):
    """The checkpoint's model and proximity adjacency, and the provenance of what it scores."""
    header, blobs = load_checkpoint(_artifact_path(cfg, "checkpoint_path", "checkpoint.bin"))
    params = {name: Tensor(blobs[name]) for name in check_checkpoint(header, blobs, kg)}
    enc, dec = header["encoder_config"], header["decoder_config"]
    pgraph = _load_pgraph(cfg, kg, enc)
    prox = None if pgraph is None else ProximityAdjacency(pgraph)
    return params, enc, dec, prox, provenance(header["train_config"].seed,
                                              header["config_digest"])


def cmd_evaluate(args) -> int:
    cfg, kg = _load_run(args)
    params, enc, dec, prox, prov = _checkpoint_setup(cfg, kg)
    split = cfg.get("eval_split", "test")
    metrics = evaluate(params, kg, prox, enc, dec, split=split)
    payload = {"provenance": prov, **metrics}
    _write_json(os.path.join(_out_dir(cfg), f"metrics_{split}.json"), payload)
    print(json.dumps(metrics))
    return EXIT_OK


def cmd_ntype(args) -> int:
    cfg, kg = _load_run(args)
    split = cfg.get("eval_split", "test")
    report = ntype_report(kg, split)
    out = _out_dir(cfg)
    _write_json(os.path.join(out, "ntype_report.json"),
                {"provenance": provenance(cfg.get("seed", TrainConfig.seed)), **report})
    with atomic_write(os.path.join(out, "ntype_table.tsv"), "w", encoding="utf-8") as fh:
        fh.write("range\tcount\trate\n")
        for row in report["ranges"]:
            fh.write(f"{row['label']}\t{row['count']}\t{row['rate']:.2f}\n")
        fh.write(f"Total\t{report['total']}\t1.0\n")
    ckpt = _artifact_path(cfg, "checkpoint_path", "checkpoint.bin")
    if os.path.exists(ckpt):
        params, enc, dec, prox, prov = _checkpoint_setup(cfg, kg)
        breakdown = ntype_mrr_breakdown(params, kg, prox, enc, dec, split=split)
        _write_json(os.path.join(out, "ntype_mrr.json"), {"provenance": prov, **breakdown})
    print(json.dumps({r["label"]: r["count"] for r in report["ranges"]}))
    return EXIT_OK


def cmd_grid(args) -> int:
    cfg, kg = _load_run(args)
    grid = {key[5:]: value for key, value in cfg.items() if key.startswith("grid.")}
    if not grid:
        raise ContractError("no grid.* keys in configuration")
    result = grid_search(kg, grid, cfg, budget=cfg.get("budget"))
    out = _out_dir(cfg)
    write_trial_table(result, os.path.join(out, "trials.tsv"))
    print(json.dumps({"n_trials": len(result["trials"]), "complete": result["complete"]}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proxkg",
        description="Knowledge graph embedding with a derived proximity graph")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "ingest": (cmd_ingest, "Read triple files, intern vocabularies, write kg.npz"),
        "build-proximity": (cmd_build_proximity,
                            "Accumulate shared-query proximity and write the graph"),
        "train": (cmd_train, "Train the encoder-decoder model"),
        "evaluate": (cmd_evaluate, "Filtered ranking metrics for a checkpoint"),
        "ntype": (cmd_ntype, "Answer-count complexity table (and per-range MRR)"),
        "grid": (cmd_grid, "Hyper-parameter grid search ranked by validation MRR"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a single configuration key (repeatable)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ContractError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:     # an unreadable path: missing, a directory, ...
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
