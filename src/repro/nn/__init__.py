"""Neural-network substrate: autograd tensors, modules, layers, optimizers.

This package stands in for PyTorch in the reproduction
(README.md#offline-substitutes) — a reverse-mode autodiff engine and the
module/optimizer machinery the DQuaG model is built on.
"""

from repro.nn.tensor import Tensor, Parameter, no_grad, is_grad_enabled
from repro.nn.module import Module
from repro.nn.layers import Linear, MLP, Dropout, LayerNorm, Sequential, Identity
from repro.nn.optim import Optimizer, SGD, Adam
from repro.nn.serialization import save_module, load_into_module, save_state, load_state
from repro.nn import functional
from repro.nn import init

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Linear",
    "MLP",
    "Dropout",
    "LayerNorm",
    "Sequential",
    "Identity",
    "Optimizer",
    "SGD",
    "Adam",
    "save_module",
    "load_into_module",
    "save_state",
    "load_state",
    "functional",
    "init",
]
