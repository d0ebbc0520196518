"""Convolutional 1-N decoder and the binary cross-entropy objective.

A query embedding pair (anchor, relation) is reshaped into two stacked 2-d
maps, convolved, projected back to the embedding dimension, and matched
against every encoded entity by inner product plus a learned per-entity
bias. The match scores are logits: the fused binary cross-entropy op takes
them as they are and evaluation ranks them, since a sigmoid would saturate
large scores to ties and zero the gradient of confidently wrong ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .kgdata import ContractError

# layer ids for the counter-based dropout streams
_DROP_INPUT, _DROP_FEATURE, _DROP_HIDDEN = 101, 102, 103


def default_reshape(dim: int) -> tuple[int, int]:
    """Largest divisor of dim not exceeding sqrt(dim), paired with its cofactor."""
    best = 1
    for h in range(1, int(math.isqrt(dim)) + 1):
        if dim % h == 0:
            best = h
    return best, dim // best


@dataclass(frozen=True)
class DecoderConfig:
    dim: int = 200
    n_filters: int = 32
    kernel: int = 3
    dropout_input: float = 0.2
    dropout_feature: float = 0.2
    dropout_hidden: float = 0.3

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.dim <= 0:
            raise ContractError(f"embedding dim must be positive, got {self.dim}")
        if self.kernel < 1 or self.n_filters < 1:
            raise ContractError(
                f"kernel and n_filters must be at least 1, got {self.kernel} and {self.n_filters}")
        if self.kernel > min(2 * self.reshape_h, self.reshape_w):
            raise ContractError(
                f"kernel {self.kernel} exceeds stacked input {2 * self.reshape_h}x{self.reshape_w}")
        for name in ("dropout_input", "dropout_feature", "dropout_hidden"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ContractError(f"{name} must be in [0,1), got {getattr(self, name)}")

    @property
    def reshape_h(self) -> int:
        return default_reshape(self.dim)[0]

    @property
    def reshape_w(self) -> int:
        return default_reshape(self.dim)[1]

    @property
    def conv_out_hw(self) -> tuple[int, int]:
        return 2 * self.reshape_h - self.kernel + 1, self.reshape_w - self.kernel + 1

    @property
    def flat_dim(self) -> int:
        oh, ow = self.conv_out_hw
        return self.n_filters * oh * ow


def init_decoder_params(config: DecoderConfig, n_entities: int, rng: np.random.Generator) -> dict:
    bound = 1.0 / np.sqrt(config.dim)

    def u(*shape):
        return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

    return {
        "conv_filters": u(config.n_filters, 1, config.kernel, config.kernel),
        "fc_W": u(config.flat_dim, config.dim),
        "fc_b": u(config.dim),
        "entity_bias": Tensor(np.zeros(n_entities), requires_grad=True),
    }


def conve_score(h_embed: Tensor, r_embed: Tensor, entities_enc: Tensor, params: dict,
                config: DecoderConfig, training: bool = False, seed: int = 0,
                step: int = 0) -> Tensor:
    """Match a batch of queries against all entities; returns logits [B, n_e]."""
    B = h_embed.shape[0]
    if h_embed.shape[1] != config.dim:
        raise ContractError(f"query dim {h_embed.shape[1]} does not match decoder dim {config.dim}")
    h_map = ad.reshape(h_embed, (B, 1, config.reshape_h, config.reshape_w))
    r_map = ad.reshape(r_embed, (B, 1, config.reshape_h, config.reshape_w))
    x = ad.concat([h_map, r_map], axis=2)
    x = ad.dropout(x, config.dropout_input, seed, _DROP_INPUT, step, training)
    x = ad.relu(ad.conv2d(x, params["conv_filters"]))
    x = ad.dropout(x, config.dropout_feature, seed, _DROP_FEATURE, step, training)
    x = ad.reshape(x, (B, config.flat_dim))
    proj = ad.add(ad.matmul(x, params["fc_W"]), params["fc_b"])
    proj = ad.dropout(proj, config.dropout_hidden, seed, _DROP_HIDDEN, step, training)
    proj = ad.relu(proj)
    return ad.add(ad.matmul(proj, ad.transpose(entities_enc)), params["entity_bias"])


# mean binary cross-entropy over every (query, entity) cell of the logits
bce_loss = ad.bce_with_logits
