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
from .encoder import check_dim
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
        check_dim(self.dim)
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


def decoder_param_shapes(config: DecoderConfig, n_entities: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every decoder parameter, in initialisation order."""
    return {"conv_filters": (config.n_filters, 1, config.kernel, config.kernel),
            "fc_W": (config.flat_dim, config.dim), "fc_b": (config.dim,),
            "entity_bias": (n_entities,)}


def init_decoder_params(config: DecoderConfig, n_entities: int, rng: np.random.Generator) -> dict:
    """Uniform init in [-1/sqrt(d), 1/sqrt(d)], but a zero entity bias."""
    bound = 1.0 / np.sqrt(config.dim)
    return {name: Tensor(np.zeros(shape) if name == "entity_bias"
                         else rng.uniform(-bound, bound, size=shape), requires_grad=True)
            for name, shape in decoder_param_shapes(config, n_entities).items()}


def conve_score(h_embed: Tensor, r_embed: Tensor, entities_enc: Tensor, params: dict,
                config: DecoderConfig, dropout_key: tuple[int, int] | None = None) -> Tensor:
    """Match a batch of queries against all entities; returns logits [B, n_e].

    Dropout runs only under a ``dropout_key`` (seed, step), which training passes.
    """
    B = h_embed.shape[0]
    if h_embed.shape[1] != config.dim:
        raise ContractError(f"query dim {h_embed.shape[1]} does not match decoder dim {config.dim}")
    # [h | r] row-major is the anchor map stacked above the relation map
    x = ad.reshape(ad.concat([h_embed, r_embed], axis=1),
                   (B, 1, 2 * config.reshape_h, config.reshape_w))
    x = ad.dropout(x, config.dropout_input, dropout_key, _DROP_INPUT)
    x = ad.conv2d_relu(x, params["conv_filters"],       # feature dropout included
                       config.dropout_feature, dropout_key, _DROP_FEATURE)
    x = ad.reshape(x, (B, config.flat_dim))     # a view: conv2d's output is C-ordered
    proj = ad.affine(x, params["fc_W"], params["fc_b"])
    proj = ad.dropout(proj, config.dropout_hidden, dropout_key, _DROP_HIDDEN)
    proj = ad.relu(proj)
    return ad.affine(proj, ad.transpose(entities_enc), params["entity_bias"])


# mean binary cross-entropy over every (query, entity) cell of the logits
bce_loss = ad.bce_with_logits
