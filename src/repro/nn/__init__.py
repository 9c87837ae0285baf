"""Neural-network building blocks on top of :mod:`repro.tensor`."""

from . import init
from .layers import (
    Dropout,
    Identity,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Softplus,
    Tanh,
    mlp,
)
from .losses import bce_loss, masked_bce_loss, masked_mse_loss, mse_loss
from .module import (
    Module,
    ModuleList,
    Parameter,
    flatten_gradients,
    flatten_parameters,
    load_flat_parameters,
)

__all__ = [
    "init",
    "Module",
    "ModuleList",
    "Parameter",
    "Linear",
    "Sequential",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Softplus",
    "Identity",
    "Dropout",
    "mlp",
    "mse_loss",
    "masked_mse_loss",
    "bce_loss",
    "masked_bce_loss",
    "flatten_parameters",
    "load_flat_parameters",
    "flatten_gradients",
]
