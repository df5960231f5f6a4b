"""Reverse-mode automatic differentiation on dense NumPy arrays.

Operations are *primitives* registered in the VJP table of
:mod:`repro.nn.autodiff`: each op is a named wrapper around a raw ndarray
function with per-argument vector-Jacobian products registered via
``defvjp(op, argnum, vjp_fn)``.  Applying a primitive records a single graph
node carrying ``(primitive, raw args, kwargs)`` and ``(argnum, parent)``
links — only for operands that require gradients, so constants produce no
nodes and no gradient work at all.  Gather primitives (``__getitem__``)
return lazy :class:`~repro.nn.autodiff.SparseGrad` adjoints instead of dense
zeros-of-the-input scatters.

Only the operations needed by the GNN models and the influence-function
machinery are implemented, but they are implemented with full broadcasting
support so layers can be written naturally.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn import autodiff
from repro.nn.autodiff import (
    Node,
    SparseGrad,
    defvjp,
    defvjp_argnum,
    is_grad_enabled,
    no_grad,
    primitive,
    unbroadcast,
)
from repro.obs.profile import active_profiler
from repro.obs.trace import kernel

__all__ = [
    "Tensor",
    "apply_primitive",
    "concatenate",
    "is_grad_enabled",
    "no_grad",
    "stack",
]

ArrayLike = Union[np.ndarray, float, int, "Tensor", Sequence]

# Backwards-compatible aliases for the helpers that moved into the engine.
_unbroadcast = unbroadcast


class Tensor:
    """A dense tensor participating in a reverse-mode autodiff graph."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "name")
    __array_priority__ = 100  # ensure ndarray.__mul__(Tensor) defers to us

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        # ``no_grad()`` suppresses graph *recording* only; the flag survives
        # so parameters built under inference mode stay trainable.
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[Node] = None
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a tensor with exactly one element")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _promote(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        return apply_primitive(_add, self, self._promote(other))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return apply_primitive(_neg, self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._promote(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._promote(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return apply_primitive(_mul, self, self._promote(other))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return apply_primitive(_div, self, self._promote(other))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._promote(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return apply_primitive(_pow, self, exponent=exponent)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        return apply_primitive(_matmul, self, self._promote(other))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def transpose(self) -> "Tensor":
        return apply_primitive(_transpose, self)

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply_primitive(_reshape, self, shape=shape)

    def __getitem__(self, index) -> "Tensor":
        return apply_primitive(_take, self, index)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        return apply_primitive(_sum, self, axis=axis, keepdims=keepdims)

    def mean(
        self,
        axis: Optional[Union[int, Tuple[int, ...]]] = None,
        keepdims: bool = False,
    ) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for one_axis in axes:
                count *= self.data.shape[one_axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return apply_primitive(_max, self, axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        return apply_primitive(_exp, self)

    def log(self) -> "Tensor":
        return apply_primitive(_log, self)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        return apply_primitive(_abs, self)

    def relu(self) -> "Tensor":
        return apply_primitive(_relu, self)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        return apply_primitive(_leaky_relu, self, negative_slope=negative_slope)

    def elu(self, alpha: float = 1.0) -> "Tensor":
        return apply_primitive(_elu, self, alpha=alpha)

    def sigmoid(self) -> "Tensor":
        return apply_primitive(_sigmoid, self)

    def tanh(self) -> "Tensor":
        return apply_primitive(_tanh, self)

    # ------------------------------------------------------------------ #
    # Composite helpers used by the GNN layers
    # ------------------------------------------------------------------ #
    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor with entries where ``mask`` is True set to ``value``.

        Gradients do not flow through the filled positions.
        """
        mask = np.asarray(mask, dtype=bool)
        return apply_primitive(_masked_fill, self, mask, value)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        exp = shifted.exp()
        return exp / exp.sum(axis=axis, keepdims=True)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - self.max(axis=axis, keepdims=True).detach()
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor.

        ``grad`` defaults to 1 for scalar outputs; non-scalar outputs require
        an explicit output gradient.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        autodiff.backward(self, grad)


def apply_primitive(prim, *args, **kwargs) -> Tensor:
    """Apply ``prim`` to (tensor or raw) ``args``, recording a node if needed.

    Non-:class:`Tensor` arguments pass through as-is (indices, masks, CSR
    operators, scalars).  A node is recorded only when recording is enabled
    and at least one operand both requires a gradient and has a VJP
    registered — so constant-only applications return a plain tensor with no
    graph presence whatsoever.
    """
    raw = tuple(a.data if isinstance(a, Tensor) else a for a in args)
    profiler = active_profiler()
    if profiler is None:
        data = prim.fn(*raw, **kwargs)
    else:
        with kernel("nn." + prim.name, profiler, raw) as event:
            data = event.out = prim.fn(*raw, **kwargs)
    out = Tensor(data)
    if is_grad_enabled():
        parents = tuple(
            (argnum, arg)
            for argnum, arg in enumerate(args)
            if isinstance(arg, Tensor) and arg.requires_grad and prim.has_vjp(argnum)
        )
        if parents:
            out.requires_grad = True
            out._node = Node(prim, raw, kwargs, parents)
            if profiler is not None:
                profiler.tape_alloc(out.data.nbytes)
    return out


# ---------------------------------------------------------------------- #
# Primitive definitions and their VJP registrations
# ---------------------------------------------------------------------- #
_add = primitive("add", np.add)
defvjp(_add, 0, lambda g, ans, a, b: g)
defvjp(_add, 1, lambda g, ans, a, b: g)

_neg = primitive("neg", np.negative)
defvjp(_neg, 0, lambda g, ans, x: -g)

_mul = primitive("mul", np.multiply)
defvjp(_mul, 0, lambda g, ans, a, b: g * b)
defvjp(_mul, 1, lambda g, ans, a, b: g * a)

_div = primitive("div", np.divide)
defvjp(_div, 0, lambda g, ans, a, b: g / b)
defvjp(_div, 1, lambda g, ans, a, b: -g * a / (b**2))


def _pow_vjp(g, ans, x, exponent):
    if exponent == 0:
        # d(x^0)/dx ≡ 0 everywhere; the naive formula evaluates 0 * x**-1,
        # which is NaN at x = 0.
        return np.zeros_like(g)
    if exponent >= 1 or not (x == 0).any():
        return g * exponent * x ** (exponent - 1)
    # x**(exponent - 1) is inf at x = 0.  Where no gradient flows in
    # (g == 0, e.g. into the norm of an all-zero row in normalize_rows)
    # the product 0 · inf is taken as 0 rather than NaN; every finite
    # entry is the naive formula's, bit for bit.
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = g * exponent * x ** (exponent - 1)
    return np.where((g == 0) & np.isnan(grad), 0.0, grad)


_pow = primitive("pow", lambda x, exponent: x**exponent)
defvjp(_pow, 0, _pow_vjp)

_matmul = primitive("matmul", lambda a, b: a @ b)
defvjp(_matmul, 0, lambda g, ans, a, b: g @ b.T)
defvjp(_matmul, 1, lambda g, ans, a, b: a.T @ g)

_transpose = primitive("transpose", lambda x: x.T)
defvjp(_transpose, 0, lambda g, ans, x: g.T)

_reshape = primitive("reshape", lambda x, shape: x.reshape(shape))
defvjp(_reshape, 0, lambda g, ans, x, shape: g.reshape(x.shape))

_take = primitive("take", lambda x, index: x[index])
defvjp(_take, 0, lambda g, ans, x, index: SparseGrad(x.shape, index, g))


def _sum_vjp(g, ans, x, axis=None, keepdims=False):
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, x.shape)


_sum = primitive("sum", lambda x, axis=None, keepdims=False: x.sum(axis=axis, keepdims=keepdims))
defvjp(_sum, 0, _sum_vjp)


def _max_vjp(g, ans, x, axis=None, keepdims=False):
    if axis is None:
        mask = (x == x.max()).astype(np.float64)
        mask /= mask.sum()
        return mask * g
    expanded_max = x.max(axis=axis, keepdims=True)
    mask = (x == expanded_max).astype(np.float64)
    mask /= mask.sum(axis=axis, keepdims=True)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return mask * g


_max = primitive("max", lambda x, axis=None, keepdims=False: x.max(axis=axis, keepdims=keepdims))
defvjp(_max, 0, _max_vjp)

_exp = primitive("exp", np.exp)
defvjp(_exp, 0, lambda g, ans, x: g * ans)

_log = primitive("log", np.log)
defvjp(_log, 0, lambda g, ans, x: g / x)

_abs = primitive("abs", np.abs)
defvjp(_abs, 0, lambda g, ans, x: g * np.sign(x))

_relu = primitive("relu", lambda x: x * (x > 0).astype(np.float64))
defvjp(_relu, 0, lambda g, ans, x: g * (x > 0).astype(np.float64))


def _leaky_relu_fn(x, negative_slope=0.2):
    return x * np.where(x > 0, 1.0, negative_slope)


_leaky_relu = primitive("leaky_relu", _leaky_relu_fn)
defvjp(
    _leaky_relu,
    0,
    lambda g, ans, x, negative_slope=0.2: g * np.where(x > 0, 1.0, negative_slope),
)


def _elu_fn(x, alpha=1.0):
    exp_part = alpha * (np.exp(np.minimum(x, 0.0)) - 1.0)
    return np.where(x > 0, x, exp_part)


def _elu_vjp(g, ans, x, alpha=1.0):
    exp_part = alpha * (np.exp(np.minimum(x, 0.0)) - 1.0)
    return g * np.where(x > 0, 1.0, exp_part + alpha)


_elu = primitive("elu", _elu_fn)
defvjp(_elu, 0, _elu_vjp)

_sigmoid = primitive("sigmoid", lambda x: 1.0 / (1.0 + np.exp(-x)))
defvjp(_sigmoid, 0, lambda g, ans, x: g * ans * (1.0 - ans))

_tanh = primitive("tanh", np.tanh)
defvjp(_tanh, 0, lambda g, ans, x: g * (1.0 - ans**2))

_masked_fill = primitive("masked_fill", lambda x, mask, value: np.where(mask, value, x))
defvjp(_masked_fill, 0, lambda g, ans, x, mask, value: np.where(mask, 0.0, g))


def _concatenate_vjp(argnum, g, ans, *arrays, axis=0):
    start = sum(a.shape[axis] for a in arrays[:argnum])
    stop = start + arrays[argnum].shape[axis]
    slicer = [slice(None)] * g.ndim
    slicer[axis] = slice(start, stop)
    return g[tuple(slicer)]


_concatenate = primitive(
    "concatenate", lambda *arrays, axis=0: np.concatenate(arrays, axis=axis)
)
defvjp_argnum(_concatenate, _concatenate_vjp)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (negative axes allowed)."""
    tensors = [Tensor._promote(t) for t in tensors]
    if not tensors:
        raise ValueError("concatenate requires at least one tensor")
    return apply_primitive(_concatenate, *tensors, axis=axis)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (negative axes allowed)."""
    tensors = [Tensor._promote(t) for t in tensors]
    if not tensors:
        raise ValueError("stack requires at least one tensor")
    ndim = tensors[0].ndim
    if not -(ndim + 1) <= axis <= ndim:
        raise np.exceptions.AxisError(axis, ndim + 1)
    if axis < 0:
        # Normalising here is what places the new axis correctly: slicing
        # ``shape[:axis]`` with a negative axis would insert the 1 one
        # position too early (e.g. axis=-1 appended before the last dim).
        axis += ndim + 1
    expanded = [t.reshape(*t.shape[:axis], 1, *t.shape[axis:]) for t in tensors]
    return concatenate(expanded, axis=axis)
