"""Numerical gradient checking for the autodiff primitives.

:func:`gradcheck` compares the reverse-mode gradient of an arbitrary
tensor-valued function against central finite differences of the scalar
``⟨cotangent, f(x)⟩``, using a seeded random cotangent so non-scalar outputs
are exercised along a generic direction rather than the all-ones one.

The gradcheck test suite (``tests/test_gradcheck.py``) drives this over
every primitive registered in :mod:`repro.nn.autodiff`, including the CSR
propagation ``spmm``.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["gradcheck", "numerical_gradient"]


def numerical_gradient(
    function: Callable[[np.ndarray], float],
    value: np.ndarray,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function of an array."""
    value = np.array(value, dtype=np.float64)
    grad = np.zeros_like(value)
    flat = value.ravel()
    grad_flat = grad.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = function(value)
        flat[index] = original - eps
        minus = function(value)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2.0 * eps)
    return grad


def gradcheck(
    function: Callable[..., Tensor],
    inputs: Sequence[Union[np.ndarray, float]],
    eps: float = 1e-6,
    atol: float = 1e-5,
    rtol: float = 1e-4,
    seed: int = 0,
) -> bool:
    """Check reverse-mode gradients of ``function`` against finite differences.

    Parameters
    ----------
    function:
        Callable taking ``len(inputs)`` tensors and returning a single
        :class:`~repro.nn.tensor.Tensor` (any shape).
    inputs:
        Raw input arrays; every one is treated as requiring a gradient.
    eps, atol, rtol:
        Finite-difference step and comparison tolerances.
    seed:
        Seed for the random cotangent contracted with the output.

    Returns True when every analytic gradient matches; raises
    ``AssertionError`` with the offending input index otherwise.
    """
    arrays = [np.asarray(value, dtype=np.float64) for value in inputs]
    tensors = [Tensor(value.copy(), requires_grad=True) for value in arrays]
    output = function(*tensors)
    if not isinstance(output, Tensor):
        raise TypeError("gradcheck expects the function to return a Tensor")
    cotangent = np.random.default_rng(seed).normal(size=output.shape)
    output.backward(cotangent)

    for index, (value, tensor) in enumerate(zip(arrays, tensors)):
        analytic = tensor.grad
        assert analytic is not None, f"input {index} received no gradient"
        assert analytic.shape == value.shape, (
            f"input {index}: gradient shape {analytic.shape} != input shape {value.shape}"
        )

        def scalar(perturbed: np.ndarray, index: int = index) -> float:
            probes = [
                Tensor(perturbed if position == index else original)
                for position, original in enumerate(arrays)
            ]
            out = function(*probes)
            return float(np.sum(cotangent * out.data))

        numeric = numerical_gradient(scalar, value, eps=eps)
        np.testing.assert_allclose(
            analytic,
            numeric,
            atol=atol,
            rtol=rtol,
            err_msg=f"analytic/numeric gradient mismatch for input {index}",
        )
    return True
