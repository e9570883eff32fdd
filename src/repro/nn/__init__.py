"""Minimal NumPy neural-network substrate (autograd, layers, optimizers)."""

from repro.nn import functional
from repro.nn.init import embedding_uniform, kaiming_uniform, xavier_uniform
from repro.nn.interactions import CrossNetwork, DotInteraction
from repro.nn.layers import MLP, Linear
from repro.nn.module import Module
from repro.nn.optim import (
    Adagrad,
    Adam,
    Optimizer,
    RowAdagrad,
    RowOptimizer,
    RowSGD,
    SGD,
    make_row_optimizer,
)
from repro.nn.tensor import (
    Parameter,
    Tensor,
    ensure_tensor,
    get_default_dtype,
    no_grad,
)

__all__ = [
    "functional",
    "Tensor",
    "Parameter",
    "ensure_tensor",
    "Module",
    "Linear",
    "MLP",
    "DotInteraction",
    "CrossNetwork",
    "Optimizer",
    "SGD",
    "Adagrad",
    "Adam",
    "RowOptimizer",
    "RowSGD",
    "RowAdagrad",
    "make_row_optimizer",
    "xavier_uniform",
    "kaiming_uniform",
    "embedding_uniform",
    "get_default_dtype",
    "no_grad",
]
