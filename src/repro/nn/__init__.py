"""Minimal NumPy neural-network substrate (parameters, layers, optimizers)."""

from repro.nn import functional
from repro.nn.init import embedding_uniform, kaiming_uniform, xavier_uniform
from repro.nn.interactions import CrossNetwork, DotInteraction
from repro.nn.layers import MLP, Linear
from repro.nn.module import Module
from repro.nn.optim import (
    Adam,
    Optimizer,
    RowAdagrad,
    RowOptimizer,
    RowSGD,
    make_row_optimizer,
)
from repro.nn.tensor import Parameter, Tensor, get_default_dtype

__all__ = [
    "functional",
    "Tensor",
    "Parameter",
    "Module",
    "Linear",
    "MLP",
    "DotInteraction",
    "CrossNetwork",
    "Optimizer",
    "Adam",
    "RowOptimizer",
    "RowSGD",
    "RowAdagrad",
    "make_row_optimizer",
    "xavier_uniform",
    "kaiming_uniform",
    "embedding_uniform",
    "get_default_dtype",
]
