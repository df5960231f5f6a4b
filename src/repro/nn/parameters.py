"""Flat-vector views of model parameters.

Influence functions (Section VI-A of the paper) operate on the parameter
vector ``θ`` as a whole: they need gradients as flat vectors, Hessian-vector
products, and the ability to evaluate the model at ``θ + εv``.  These helpers
convert between a module's parameter list and a single 1-D array.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.nn.module import Module, Parameter


def parameters_to_vector(parameters: Iterable[Parameter]) -> np.ndarray:
    """Concatenate parameter values into a single 1-D array (copy)."""
    chunks = [np.ravel(param.data) for param in parameters]
    if not chunks:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(chunks).astype(np.float64)


def vector_to_parameters(vector: np.ndarray, parameters: Iterable[Parameter]) -> None:
    """Write the entries of ``vector`` back into the parameters in order."""
    vector = np.asarray(vector, dtype=np.float64)
    params: List[Parameter] = list(parameters)
    total = sum(param.data.size for param in params)
    if vector.shape != (total,):
        raise ValueError(f"vector has shape {vector.shape}, expected ({total},)")
    offset = 0
    for param in params:
        size = param.data.size
        param.data = vector[offset : offset + size].reshape(param.data.shape).copy()
        offset += size


def gradients_to_vector(parameters: Iterable[Parameter]) -> np.ndarray:
    """Concatenate parameter gradients into a 1-D array.

    Parameters with no gradient contribute zeros, which matches the behaviour
    of frameworks where unused parameters receive zero gradient.
    """
    chunks = []
    for param in parameters:
        if param.grad is None:
            chunks.append(np.zeros(param.data.size, dtype=np.float64))
        else:
            chunks.append(np.ravel(param.grad).astype(np.float64))
    if not chunks:
        return np.zeros(0, dtype=np.float64)
    return np.concatenate(chunks)


def zero_gradients(parameters: Iterable[Parameter]) -> None:
    """Clear gradients on every parameter."""
    for param in parameters:
        param.grad = None


def num_parameters(module: Module) -> int:
    """Total number of scalar trainable parameters in ``module``."""
    return int(sum(param.data.size for param in module.parameters()))
