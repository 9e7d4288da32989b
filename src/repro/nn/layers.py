"""Standard neural-network layers built on the autograd core.

Every layer the paper's architecture needs: dense projections,
embedding tables (for entities / relations), 2-D convolution (the
ConvE-style scoring head in Eqn. 15), layer and batch normalisation,
dropout, and a ``Sequential`` container.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module, ModuleList
from .tensor import Parameter, Tensor

__all__ = [
    "Linear",
    "Embedding",
    "Conv2d",
    "LayerNorm",
    "BatchNorm1d",
    "BatchNorm2d",
    "Dropout",
    "Sequential",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Flatten",
]


class Linear(Module):
    """Affine map ``y = x W^T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    bias:
        Whether to learn an additive bias.
    rng:
        Generator used for Xavier-normal weight initialisation.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_normal((out_features, in_features), gen))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = F.matmul(x, F.transpose(self.weight))
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense rows."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(init.xavier_normal((num_embeddings, embedding_dim), gen))

    def forward(self, ids) -> Tensor:
        return F.embedding(self.weight, ids)


class Conv2d(Module):
    """2-D convolution (cross-correlation), NCHW layout."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        gen = rng if rng is not None else np.random.default_rng()
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.xavier_normal(shape, gen))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding)


class LayerNorm(Module):
    """Layer normalisation over the last axis with learnable affine."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.gamma, self.beta, axis=-1, eps=self.eps)


class _BatchNorm(Module):
    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))


class BatchNorm1d(_BatchNorm):
    """Batch normalisation over ``(N, C)`` inputs."""

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm(x, self.gamma, self.beta, self.running_mean,
                            self.running_var, self.training,
                            momentum=self.momentum, eps=self.eps)


class BatchNorm2d(_BatchNorm):
    """Batch normalisation over ``(N, C, H, W)`` inputs (per channel)."""

    def forward(self, x: Tensor) -> Tensor:
        # Move channels last, normalise, move back.
        moved = F.transpose(x, (0, 2, 3, 1))
        normed = F.batch_norm(moved, self.gamma, self.beta, self.running_mean,
                              self.running_var, self.training,
                              momentum=self.momentum, eps=self.eps)
        return F.transpose(normed, (0, 3, 1, 2))


class Dropout(Module):
    """Inverted dropout; inert in eval mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, rng=self._rng)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.tanh(x)


class Flatten(Module):
    """Flatten all but the batch axis."""

    def forward(self, x: Tensor) -> Tensor:
        return F.reshape(x, (x.shape[0], -1))


class Sequential(Module):
    """Chain modules, feeding each output into the next layer."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = ModuleList(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x
