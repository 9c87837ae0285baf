"""First-order optimisers."""

from .optimizers import SGD, Adam, Optimizer, RMSprop

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "RMSprop",
]
