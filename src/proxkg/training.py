"""Training loop, optimizers, checkpointing, and grid search.

Training scores unique (anchor, relation) queries against a CSR table of
their answers over all entities. Each batch re-samples an edge-dropout view
of the augmented train split for message passing; the loss targets always
keep every train answer, including dropped ones.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import struct
import time
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy import sparse

from . import autodiff as ad
from . import evaluation
from .autodiff import Tensor
from .decoder import (DecoderConfig, bce_loss, conve_score, decoder_param_shapes,
                      init_decoder_params)
from .encoder import (EncoderConfig, ProximityAdjacency, RelationalAdjacency, encode,
                      encoder_param_shapes, init_encoder_params)
from .kgdata import (ContractError, DataError, KnowledgeGraph, NumericError, atomic_write,
                     query_answers, read_exact, sample_edge_dropout)
from .proximity import (ProximityGraph, accumulate_spm, build_proximity_graph, check_cutoff,
                        check_threshold, extract_qa_pairs)

GRID_BATCH_SIZES = (256, 512, 1024)
GRID_LEARNING_RATES = (1e-4, 3e-4, 5e-3)
GRID_DIMS = (500, 1000)
GRID_LAYERS = (1, 2, 3)
GRID_DROP_RATES = (0.1, 0.3, 0.5, 0.7, 1.0)
GRID_M = (25, 50, 100, 500)
GRID_I = (0.5, 1.0, 3.0, 5.0)
# the hyper-parameters grid_search can vary
GRID_KEYS = ("batch_size", "learning_rate", "dim", "kg_layers", "prox_layers",
             "edge_drop_rate", "M", "I", "seed", "epochs")

_CKPT_MAGIC = b"PKCK"
_CKPT_VERSION = 4   # 1-3 also stored two grid-permission flags, 1-2 the reshape, 1 label_smoothing
_CKPT_HEAD = struct.Struct("<IQ")    # version, JSON header length
# the JSON header's keys, as every version writes them
_CKPT_KEYS = ("config_digest", "encoder_config", "decoder_config", "train_config", "optimizer",
              "rng_state", "epoch", "global_step", "best_valid_mrr", "blobs")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    learning_rate: float = 3e-4
    optimizer: str = "adam"
    epochs: int = 10
    edge_drop_rate: float = 0.1
    eval_every: int = 0          # 0 disables periodic validation
    seed: int = 0
    label_smoothing: float = 0.1

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.optimizer not in ("sgd", "adam"):
            raise ContractError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.edge_drop_rate <= 1.0:
            raise ContractError("edge_drop_rate must be in [0,1]")
        if self.epochs < 0 or self.batch_size <= 0 or self.learning_rate < 0:
            raise ContractError("epochs, batch_size and learning_rate must be non-negative")
        if not np.isfinite(self.learning_rate):
            raise ContractError(f"learning_rate must be finite, got {self.learning_rate}")
        if self.seed < 0:
            raise ContractError(f"seed must be non-negative, got {self.seed}")
        if self.eval_every < 0:
            raise ContractError(f"eval_every must be non-negative, got {self.eval_every}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ContractError("label_smoothing must be in [0,1)")


# a checkpoint header's config entries, and the configs they build
_CKPT_CONFIGS = {"encoder_config": EncoderConfig, "decoder_config": DecoderConfig,
                 "train_config": TrainConfig}


def make_configs(settings: dict) -> tuple[EncoderConfig, DecoderConfig, TrainConfig]:
    """Encoder, decoder and train configs from one flat ``key -> value`` dict.

    Each config takes the keys named like its fields, so a shared key such as
    ``dim`` reaches every config that has it; an absent key keeps the
    field's default, and keys no config has are ignored. Each config checks itself;
    unless ``allow_off_grid`` is set, the depths, batch size and edge-removal rate
    must also lie on the published grid.
    """
    enc, dec, trn = (cls(**{f.name: settings[f.name] for f in fields(cls) if f.name in settings})
                     for cls in (EncoderConfig, DecoderConfig, TrainConfig))
    if not settings.get("allow_off_grid"):
        for name, value, grid in (("kg_layers", enc.kg_layers, GRID_LAYERS),
                                  ("prox_layers", enc.prox_layers, GRID_LAYERS),
                                  ("batch_size", trn.batch_size, GRID_BATCH_SIZES),
                                  ("edge_drop_rate", trn.edge_drop_rate, GRID_DROP_RATES)):
            if value not in grid:
                raise ContractError(f"{name} {value} outside the published grid {grid}; "
                                    "set allow_off_grid to override")
    return enc, dec, trn


def proximity_settings(settings: dict) -> tuple[int, float]:
    """The answer-set cutoff M (> 2) and the finite edge threshold I (>= 0) of a run."""
    M, I = int(settings.get("M", 50)), float(settings.get("I", 1.0))
    check_cutoff(M)
    check_threshold(I)
    return M, I


@dataclass
class QueryBatch:
    queries: np.ndarray        # [B, 2] (anchor, relation)
    targets: sparse.csr_array  # [B, n_e] smoothed answer mass, added to the floor
    floor: float               # the target of every cell that is not an answer


def train_query_table(kg: KnowledgeGraph) -> tuple[np.ndarray, sparse.csr_array]:
    """Unique (anchor, relation) augmented train queries, and a [Q, n_e] CSR table of their answers."""
    if not kg.augmented:
        raise ContractError("training requires an augmented knowledge graph")
    return query_answers(kg.train, kg.n_relations, kg.n_entities)


def build_batches(queries: np.ndarray, answers: sparse.csr_array, n_entities: int,
                  batch_size: int, label_smoothing: float, rng: np.random.Generator):
    """Shuffled query batches; each target is eps / n_entities plus 1 - eps at the answers."""
    order = rng.permutation(len(queries))
    eps = label_smoothing
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        yield QueryBatch(queries[idx], answers[idx] * (1.0 - eps), eps / n_entities)


UPDATE_BLOCK = 2 ** 16     # parameter cells per Adam block: two 512 KiB scratch arrays


class SGD:
    kind = "sgd"

    def __init__(self, params: dict, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0

    def step(self):
        """Advance t, then update every parameter that has a gradient."""
        self.t += 1
        for p in self.params.values():
            self.update(p)

    def update(self, p: Tensor):
        """p -= lr g, then p's gradient is dropped; a parameter without one is left alone."""
        if p.grad is not None:
            p.data -= self.lr * p.grad
            p.grad = None

    def state_blobs(self):
        return {}

    def load_state(self, meta, blobs):
        self.t = meta["t"]


class Adam:
    kind = "adam"

    def __init__(self, params: dict, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros(p.data.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.data.shape) for k, p in params.items()}
        self._names = {id(p): k for k, p in params.items()}
        self._scratch = np.empty((2, UPDATE_BLOCK))

    def step(self):
        """Advance t, then update every parameter that has a gradient."""
        self.t += 1
        for p in self.params.values():
            self.update(p)

    def update(self, p: Tensor):
        """m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g; p -= lr m_hat / (sqrt(v_hat) + eps)
        at step t, then p's gradient is dropped; a parameter without one is left alone.

        Updated in place UPDATE_BLOCK cells at a time, with two block-sized
        scratch arrays, in the formula's order of float operations, so the
        result equals the formula's bit for bit.
        """
        if p.grad is None:
            return
        name = self._names[id(p)]
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        g = p.grad.reshape(-1)
        theta, m, v = (_cells(a) for a in (p.data, self.m[name], self.v[name]))
        for s in range(0, g.size, UPDATE_BLOCK):
            cells = slice(s, s + UPDATE_BLOCK)
            gb, mb, vb = g[cells], m[cells], v[cells]
            tmp, update = self._scratch[:, :len(gb)]
            np.multiply(gb, 1 - b1, out=tmp)
            mb *= b1
            mb += tmp
            np.multiply(gb, 1 - b2, out=tmp)
            tmp *= gb
            vb *= b2
            vb += tmp
            np.divide(vb, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            np.divide(mb, c1, out=update)
            update *= self.lr
            update /= tmp
            theta[cells] -= update
        p.grad = None

    def state_blobs(self):
        return {f"opt.{k}.{name}": getattr(self, k)[name] for name in self.params for k in "mv"}

    def load_state(self, meta, blobs):
        self.t = meta["t"]
        for name in self.params:
            self.m[name] = blobs[f"opt.m.{name}"]
            self.v[name] = blobs[f"opt.v.{name}"]


def _cells(a: np.ndarray) -> np.ndarray:
    """a as a 1-d view, so that writes to a block of it land in a."""
    if not a.flags.c_contiguous:
        raise ContractError(f"optimizer state must be C-contiguous, got an array of shape {a.shape}")
    return a.reshape(-1)


def config_digest(encoder_config, decoder_config, train_config) -> str:
    payload = json.dumps(
        {"encoder": asdict(encoder_config), "decoder": asdict(decoder_config),
         "train": asdict(train_config)},
        sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _count_ok(n) -> bool:
    return type(n) is int and n >= 0


def _blob_spec_ok(spec) -> bool:
    return (isinstance(spec, dict) and isinstance(spec.get("name"), str)
            and isinstance(spec.get("shape"), list) and all(map(_count_ok, spec["shape"])))


def load_checkpoint(path) -> tuple[dict, dict]:
    """Returns (header, blobs), the header's ``*_config`` entries built as configs.

    A file cut short or otherwise damaged, a config field the configs do not
    know included, is a DataError. Each blob is read into the array that holds it.
    """
    with open(path, "rb") as fh:
        if fh.read(4) != _CKPT_MAGIC:
            raise ContractError(f"not a checkpoint file: {path}")
        version, hlen = _CKPT_HEAD.unpack(
            read_exact(fh, _CKPT_HEAD.size, f"checkpoint header in {path}"))
        if not 1 <= version <= _CKPT_VERSION:
            raise ContractError(f"unsupported checkpoint version {version}")
        raw = read_exact(fh, hlen, f"checkpoint header in {path}")
        try:
            header = json.loads(raw.decode())
        except ValueError as exc:
            raise DataError(f"damaged checkpoint header in {path}: {exc}") from None
        if not (isinstance(header, dict) and all(key in header for key in _CKPT_KEYS)
                and all(isinstance(header[k], dict) for k in _CKPT_CONFIGS)
                and isinstance(header["blobs"], list) and all(map(_blob_spec_ok, header["blobs"]))):
            raise DataError(f"damaged checkpoint header in {path}: not an object holding "
                            f"{', '.join(_CKPT_KEYS)}, with object configs and named blob shapes")
        opt, mrr = header["optimizer"], header["best_valid_mrr"]
        for name, ok in (("epoch", _count_ok(header["epoch"])),
                         ("global_step", _count_ok(header["global_step"])),
                         ("optimizer", isinstance(opt, dict) and _count_ok(opt.get("t"))),
                         ("best_valid_mrr", mrr is None or type(mrr) in (int, float))):
            if not ok:
                raise DataError(f"damaged checkpoint header in {path}: bad {name} {header[name]!r}")
        header["encoder_config"].pop("allow_any_depth", None)
        header["train_config"].pop("allow_off_grid", None)
        decoder = header["decoder_config"]
        decoder.pop("label_smoothing", None)
        stored = decoder.pop("reshape_h", None), decoder.pop("reshape_w", None)
        try:
            header.update({key: cls(**header[key]) for key, cls in _CKPT_CONFIGS.items()})
        except TypeError as exc:
            raise DataError(f"damaged checkpoint config in {path}: {exc}") from None
        dec = header["decoder_config"]
        if stored != (None, None) and stored != (dec.reshape_h, dec.reshape_w):
            raise ContractError(f"checkpoint decoder reshape {stored} is not the default "
                                f"{dec.reshape_h, dec.reshape_w} of dim {dec.dim}, so its fc_W "
                                "cannot fit the decoder")
        blobs = {}
        for spec in header["blobs"]:
            shape = tuple(spec["shape"])
            data = read_exact(fh, 8 * int(np.prod(shape, dtype=object)),    # exact, no int64 wrap
                              f"checkpoint blob {spec['name']!r} in {path}")
            blobs[spec["name"]] = np.frombuffer(data, dtype=np.float64).reshape(shape)
        if fh.read(1):
            raise DataError(f"trailing bytes after the last checkpoint blob in {path}")
    return header, blobs


class Trainer:
    """Owns parameters, optimizer, RNG stream, and the batch loop.

    ``params``, if given, are the parameter tensors to train instead of a
    fresh initialisation (``restore`` passes a checkpoint's).
    """

    def __init__(self, kg: KnowledgeGraph, pgraph: ProximityGraph | None,
                 encoder_config: EncoderConfig, decoder_config: DecoderConfig,
                 train_config: TrainConfig, params: dict | None = None):
        if encoder_config.dim != decoder_config.dim:
            raise ContractError("encoder and decoder dims differ")
        if pgraph is None and not encoder_config.kg_only:
            raise ContractError("proximity adjacency required unless kg_only is set")
        self.queries, self.answer_lists = train_query_table(kg)    # checks kg is augmented
        self.kg = kg
        self.encoder_config = encoder_config
        self.decoder_config = decoder_config
        self.train_config = train_config
        self.prox = None if encoder_config.kg_only else ProximityAdjacency(pgraph)
        self.rng = np.random.Generator(np.random.PCG64(train_config.seed))
        if params is None:
            params = init_encoder_params(encoder_config, kg.n_entities, kg.n_relations, self.rng)
            params.update(init_decoder_params(decoder_config, kg.n_entities, self.rng))
        self.params = params
        optimizer = Adam if train_config.optimizer == "adam" else SGD
        self.optimizer = optimizer(self.params, train_config.learning_rate)
        self.adj = RelationalAdjacency(kg.train, kg.n_entities)
        self.epoch = 0
        self.global_step = 0
        self.best_valid_mrr = None

    def loss(self, batch: QueryBatch) -> Tensor:
        """The batch loss with its graph, on a fresh edge-dropout view of the train edges.

        No forward array outlives the call but those the graph's backwards read.
        """
        cfg = self.train_config
        adj = self.adj.kept(sample_edge_dropout(self.kg, int(self.rng.integers(2 ** 62)),
                                                cfg.edge_drop_rate))
        E_enc, R_enc = encode(self.params, adj, self.prox, self.encoder_config)
        h = ad.gather_rows(E_enc, batch.queries[:, 0])
        r = ad.gather_rows(R_enc, batch.queries[:, 1])
        output = conve_score(h, r, E_enc, self.params, self.decoder_config,
                             dropout_key=(cfg.seed, self.global_step))
        return bce_loss(output, batch.targets, batch.floor)

    def step(self, batch: QueryBatch) -> float:
        """One optimization step; returns the batch loss.

        Each parameter is updated, and its gradient dropped, inside the
        backward walk, as soon as its gradient is final.
        """
        loss = self.loss(batch)
        value = float(loss.data)
        if not np.isfinite(value):
            raise NumericError(f"non-finite loss at step {self.global_step}")
        self.optimizer.t += 1
        loss.backward(self.optimizer.update)
        self.global_step += 1
        return value

    def run_epoch(self) -> float:
        cfg = self.train_config
        losses = []
        for batch in build_batches(self.queries, self.answer_lists, self.kg.n_entities,
                                   cfg.batch_size, cfg.label_smoothing, self.rng):
            losses.append(self.step(batch))
        self.epoch += 1
        return float(np.mean(losses)) if losses else 0.0

    def valid_mrr(self) -> float:
        return evaluation.evaluate(self.params, self.kg, self.prox, self.encoder_config,
                                   self.decoder_config, split="valid")["mrr"]

    def train(self, log_path=None, checkpoint_path=None, quiet=True) -> list[dict]:
        """Runs the epochs left of the configured count, tracking the best validation MRR."""
        cfg = self.train_config
        log = []
        log_fh = open(log_path, "a", encoding="utf-8") if log_path else None
        try:
            while self.epoch < cfg.epochs:
                t0 = time.perf_counter()
                train_loss = self.run_epoch()
                record = {"epoch": self.epoch, "train_loss": train_loss,
                          "valid_mrr": None, "wall_time": time.perf_counter() - t0}
                if cfg.eval_every and self.epoch % cfg.eval_every == 0 and len(self.kg.valid):
                    mrr = self.valid_mrr()
                    record["valid_mrr"] = mrr
                    if self.best_valid_mrr is None or mrr > self.best_valid_mrr:
                        self.best_valid_mrr = mrr
                        if checkpoint_path:
                            self.save(checkpoint_path)
                log.append(record)
                if log_fh:
                    log_fh.write(json.dumps(record) + "\n")
                if not quiet:
                    valid = record["valid_mrr"]
                    print(f"epoch {record['epoch']}: loss={train_loss:.4f}"
                          + ("" if valid is None else f" valid_mrr={valid:.4f}"))
            if checkpoint_path and self.best_valid_mrr is None:    # no validated best to keep
                self.save(checkpoint_path)
        finally:
            if log_fh:
                log_fh.close()
        return log

    def save(self, path) -> None:
        """Versioned binary container: a JSON header, then each float64 blob from its buffer."""
        configs = self.encoder_config, self.decoder_config, self.train_config
        blobs = {name: p.data for name, p in self.params.items()}
        blobs.update(self.optimizer.state_blobs())
        header = {
            "config_digest": config_digest(*configs),
            **{key: asdict(cfg) for key, cfg in zip(_CKPT_CONFIGS, configs)},
            "optimizer": {"kind": self.optimizer.kind, "lr": self.optimizer.lr,
                          "t": self.optimizer.t},
            "rng_state": self.rng.bit_generator.state,
            "epoch": self.epoch,
            "global_step": self.global_step,
            "best_valid_mrr": self.best_valid_mrr,
            "blobs": [{"name": k, "shape": list(v.shape)} for k, v in blobs.items()],
        }
        raw = json.dumps(header).encode()
        with atomic_write(path) as fh:
            fh.write(_CKPT_MAGIC + _CKPT_HEAD.pack(_CKPT_VERSION, len(raw)) + raw)
            for blob in blobs.values():
                fh.write(np.ascontiguousarray(blob, dtype=np.float64))

    @classmethod
    def restore(cls, path, kg: KnowledgeGraph, pgraph: ProximityGraph | None) -> "Trainer":
        """Rebuild a trainer whose next step is bit-identical to the saved run's."""
        header, blobs = load_checkpoint(path)
        names = check_checkpoint(header, blobs, kg)
        params = {name: Tensor(blobs[name], requires_grad=True) for name in names}
        trainer = cls(kg, pgraph, *(header[key] for key in _CKPT_CONFIGS), params=params)
        trainer.optimizer.load_state(header["optimizer"], blobs)
        try:
            trainer.rng.bit_generator.state = header["rng_state"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"damaged checkpoint rng_state in {path}: {exc}") from None
        trainer.epoch = header["epoch"]
        trainer.global_step = header["global_step"]
        trainer.best_valid_mrr = header["best_valid_mrr"]
        return trainer


def check_checkpoint(header: dict, blobs: dict, kg: KnowledgeGraph) -> list[str]:
    """Every blob a loaded checkpoint's configs and ``kg``'s sizes imply is there, at its shape.

    A missing blob is a DataError, one of another shape a ContractError. The
    shapes come from the configs, so no parameter is allocated to check them.
    Returns the model parameters' names, in initialisation order.
    """
    enc, dec, trn = (header[key] for key in _CKPT_CONFIGS)
    model = {**encoder_param_shapes(enc, kg.n_entities, kg.n_relations),
             **decoder_param_shapes(dec, kg.n_entities)}
    shapes = dict(model)
    if trn.optimizer == "adam":
        shapes.update({f"opt.{k}.{name}": shape for name, shape in model.items() for k in "mv"})
    for name, shape in shapes.items():
        if name not in blobs:
            raise DataError(f"checkpoint has no {name!r} blob")
        got = blobs[name].shape
        if got != shape:
            raise ContractError(f"checkpoint {name} has shape {got} ({got[0] if got else 0} rows), "
                                f"this knowledge graph's model {shape}")
    return list(model)


def grid_search(kg: KnowledgeGraph, grid: dict, settings: dict,
                budget: int | None = None) -> dict:
    """Cartesian sweep over hyper-parameter value sets, ranked by validation MRR.

    Every grid key must be one of GRID_KEYS. Each trial is configured by
    ``make_configs`` and ``proximity_settings`` from the run's flat settings
    overridden by its grid cell; every trial's configs, M and I are built
    and validated before the first one trains. Proximity artifacts are
    cached per M and per (M, I) across trials.
    """
    unknown = sorted(set(grid) - set(GRID_KEYS))
    if unknown:
        raise ContractError(f"grid search does not vary {', '.join(unknown)}")
    keys = sorted(grid)
    cells = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    if budget is not None and budget < 1:
        raise ContractError(f"grid budget must be at least 1 trial, got {budget}")
    complete = budget is None or budget >= len(cells)
    cells = cells[:budget]
    runs = [{**settings, **cell} for cell in cells]
    checked = [(make_configs(run), proximity_settings(run)) for run in runs]

    qa_index = extract_qa_pairs(kg)
    spm = functools.cache(lambda M: accumulate_spm(qa_index, M))
    pgraph = functools.cache(lambda M, I: build_proximity_graph(spm(M), I, kg.n_entities))
    trials = []
    for cell, ((enc, dec, trn), (M, I)) in zip(cells, checked):
        trainer = Trainer(kg, None if enc.kg_only else pgraph(M, I), enc, dec, trn)
        log = trainer.train()
        mrr = log[-1]["valid_mrr"] if log else None    # the final params, if just validated
        if mrr is None:
            mrr = trainer.valid_mrr() if len(kg.valid) else float("nan")
        trials.append({**cell, "M": M, "I": I, "seed": trn.seed, "valid_mrr": mrr})
    trials.sort(key=lambda row: (-(row["valid_mrr"] if np.isfinite(row["valid_mrr"]) else -np.inf)))
    return {"trials": trials, "complete": complete}


def write_trial_table(result: dict, path) -> None:
    trials = result["trials"]
    if not trials:
        return
    cols = sorted({k for row in trials for k in row})
    with atomic_write(path, "w", encoding="utf-8") as fh:
        if not result["complete"]:
            fh.write("# INCOMPLETE: budget exhausted before covering the grid\n")
        fh.write("\t".join(cols) + "\n")
        for row in trials:
            fh.write("\t".join(repr(row.get(c, "")) for c in cols) + "\n")
