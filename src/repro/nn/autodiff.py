"""The reverse-mode autodiff engine: VJP primitive registry and backward pass.

This module is the core that :class:`repro.nn.tensor.Tensor` is built on.  It
follows the classic *primitive / defvjp* architecture (autograd-style) rather
than per-op backward closures:

* every differentiable operation is a :class:`Primitive` — a named wrapper
  around a raw ndarray function,
* per-argument vector-Jacobian products are registered in a table with
  :func:`defvjp` (``defvjp(op, argnum, vjp_fn)``); a VJP receives
  ``(g, ans, *args, **kwargs)`` where ``args`` are the raw operand values,
* applying a primitive records a single :class:`Node` carrying
  ``(primitive, raw_args, kwargs)`` plus ``(argnum, parent)`` links — only
  for operands that require gradients.  **Constant operands produce no graph
  nodes and no gradient work at all**: their VJPs never run and no gradient
  buffers are allocated for them.
* gather-style primitives may return a :class:`SparseGrad` from their VJP —
  a lazy ``(index, values)`` adjoint that is scattered *in place* into an
  existing dense accumulator (``np.add.at``) instead of materialising a
  dense zeros-of-the-input per indexing op.

The backward pass (:func:`backward`) performs the same iterative topological
sort as the previous tape and fires VJPs in identical order, so gradient
accumulation is bit-for-bit equivalent to the old inline-closure design.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "GraphStats",
    "Node",
    "Primitive",
    "SparseGrad",
    "STATS",
    "backward",
    "defvjp",
    "defvjp_argnum",
    "is_grad_enabled",
    "no_grad",
    "primitive",
    "registered_primitives",
    "unbroadcast",
]

_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_grad_enabled", default=True
)
"""Dynamically scoped autodiff mode flag.

A :class:`contextvars.ContextVar` rather than a module global so that
``no_grad()`` in one thread / task of a parallel runner cannot disable graph
recording in another.
"""


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph *recording* (inference mode).

    Only recording is suppressed: tensors constructed with
    ``requires_grad=True`` inside the scope keep the flag, so parameters
    built under inference mode stay trainable — operations simply do not
    record nodes while the scope is active.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def is_grad_enabled() -> bool:
    """Return whether autodiff graph recording is currently enabled."""
    return _GRAD_ENABLED.get()


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were of size 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------- #
# Instrumentation
# ---------------------------------------------------------------------- #
class GraphStats:
    """Counters for tape activity, used by the overhead benchmark."""

    __slots__ = ("nodes", "vjp_calls", "sparse_adjoints", "densifications", "scatter_merges")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.nodes = 0
        """Graph nodes recorded (constant-only ops record none)."""
        self.vjp_calls = 0
        """VJP closures fired (constant operands fire none)."""
        self.sparse_adjoints = 0
        """Lazy sparse gradients produced by gather/scatter VJPs."""
        self.densifications = 0
        """Sparse adjoints that had to allocate a dense zeros buffer."""
        self.scatter_merges = 0
        """Sparse adjoints scattered in place into an existing dense grad."""

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GraphStats({self.snapshot()})"


STATS = GraphStats()

# Expose the tape counters through the shared metrics registry as a
# read-only snapshot collector: the hot path (one increment per recorded
# node / fired VJP) stays a lock-free slots object, but `repro.obs`
# snapshots and the CLI still see it alongside every other metric.
from repro.obs.metrics import register_collector as _register_collector
from repro.obs.profile import active_profiler as _active_profiler
from repro.obs.trace import kernel as _kernel

_register_collector("autodiff.tape", STATS.snapshot)


# ---------------------------------------------------------------------- #
# Sparse adjoints
# ---------------------------------------------------------------------- #
class SparseGrad:
    """A lazy sparse gradient: ``(index, values)`` pairs against a shape.

    Produced by the VJPs of gather primitives (``take`` / ``__getitem__`` and
    the sampler's relabelling ops).  Instead of allocating a dense
    zeros-of-the-input and scattering into it per indexing op, the pairs are
    kept until the accumulator either already holds a dense gradient (then
    they are scattered *in place* with ``np.add.at`` — no allocation) or a
    dense value is genuinely required (one zeros allocation total, however
    many indexing ops contributed).
    """

    __slots__ = ("shape", "entries")

    def __init__(self, shape: Tuple[int, ...], index: Any, values: np.ndarray) -> None:
        self.shape = shape
        self.entries: List[Tuple[Any, np.ndarray]] = [(index, values)]
        STATS.sparse_adjoints += 1

    def add_to(self, dense: np.ndarray) -> np.ndarray:
        """Scatter-add all entries into ``dense`` in place."""
        for index, values in self.entries:
            np.add.at(dense, index, values)
        return dense

    def to_dense(self) -> np.ndarray:
        STATS.densifications += 1
        return self.add_to(np.zeros(self.shape, dtype=np.float64))


class _Accumulator:
    """Per-tensor gradient accumulator with copy-on-write ownership.

    Dense contributions may alias VJP outputs (an ``add`` VJP returns the
    upstream gradient itself), so the buffer is copied exactly once — on the
    first in-place mutation — matching the single defensive copy the old
    tape performed per tensor.
    """

    __slots__ = ("dense", "owned", "sparse")

    def __init__(self) -> None:
        self.dense: Optional[np.ndarray] = None
        self.owned = False
        self.sparse: List[SparseGrad] = []

    def _own(self) -> None:
        if not self.owned:
            self.dense = self.dense.copy()
            self.owned = True

    def add_dense(self, grad: np.ndarray) -> None:
        if self.dense is None:
            if self.sparse:
                # Sparse arrived first: scatter into a writable copy of the
                # dense contribution rather than densifying separately.
                self.dense = grad.copy()
                self.owned = True
                for adjoint in self.sparse:
                    adjoint.add_to(self.dense)
                    STATS.scatter_merges += 1
                self.sparse = []
            else:
                self.dense = grad
                self.owned = False
        else:
            self._own()
            self.dense += grad

    def add_sparse(self, adjoint: SparseGrad) -> None:
        if self.dense is None:
            self.sparse.append(adjoint)
        else:
            self._own()
            adjoint.add_to(self.dense)
            STATS.scatter_merges += 1

    def dense_value(self, shape: Tuple[int, ...]) -> np.ndarray:
        """Materialise the accumulated gradient as a dense array (memoised)."""
        if self.dense is None:
            STATS.densifications += 1
            self.dense = np.zeros(shape, dtype=np.float64)
            self.owned = True
            for adjoint in self.sparse:
                adjoint.add_to(self.dense)
            self.sparse = []
        return self.dense

    def finalize(self, shape: Tuple[int, ...]) -> np.ndarray:
        """Dense gradient safe to hand to the caller (unique ownership)."""
        value = self.dense_value(shape)
        if not self.owned:
            value = value.copy()
            self.dense = value
            self.owned = True
        return value


# ---------------------------------------------------------------------- #
# Primitive registry
# ---------------------------------------------------------------------- #
VJPFunction = Callable[..., Any]
"""``vjp(g, ans, *args, **kwargs) -> gradient contribution`` for one argnum.

``g`` is the (dense) output gradient, ``ans`` the primitive's output value
and ``args``/``kwargs`` the raw operand values it was applied to.  The
return value is either an ndarray (unbroadcast by the engine to the operand
shape) or a :class:`SparseGrad`.
"""


class Primitive:
    """A named differentiable operation over raw ndarrays."""

    __slots__ = ("name", "fn", "vjps", "generic_vjp")

    def __init__(self, name: str, fn: Callable[..., np.ndarray]) -> None:
        self.name = name
        self.fn = fn
        self.vjps: Dict[int, VJPFunction] = {}
        self.generic_vjp: Optional[Callable[..., Any]] = None

    def has_vjp(self, argnum: int) -> bool:
        return argnum in self.vjps or self.generic_vjp is not None

    def vjp(self, argnum: int, g, ans, args, kwargs):
        fn = self.vjps.get(argnum)
        if fn is not None:
            return fn(g, ans, *args, **kwargs)
        if self.generic_vjp is not None:
            return self.generic_vjp(argnum, g, ans, *args, **kwargs)
        raise NotImplementedError(
            f"primitive {self.name!r} has no VJP for argument {argnum}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Primitive({self.name!r}, vjps={sorted(self.vjps)})"


_REGISTRY: Dict[str, Primitive] = {}


def primitive(name: str, fn: Callable[..., np.ndarray]) -> Primitive:
    """Register ``fn`` as a differentiable primitive called ``name``."""
    if name in _REGISTRY:
        raise ValueError(f"primitive {name!r} already registered")
    prim = Primitive(name, fn)
    _REGISTRY[name] = prim
    return prim


def defvjp(prim: Primitive, argnum: int, vjp_fn: VJPFunction) -> None:
    """Register the VJP of ``prim`` with respect to positional arg ``argnum``."""
    if argnum in prim.vjps:
        raise ValueError(f"VJP for {prim.name!r} argnum {argnum} already defined")
    prim.vjps[argnum] = vjp_fn


def defvjp_argnum(prim: Primitive, vjp_fn: Callable[..., Any]) -> None:
    """Register one VJP handling every argnum (variadic primitives).

    ``vjp_fn(argnum, g, ans, *args, **kwargs)`` — used by ``concatenate``,
    whose operand count is unbounded.
    """
    prim.generic_vjp = vjp_fn


def registered_primitives() -> Dict[str, Primitive]:
    """A copy of the primitive table (name → :class:`Primitive`)."""
    return dict(_REGISTRY)


# ---------------------------------------------------------------------- #
# Graph nodes and the backward engine
# ---------------------------------------------------------------------- #
class Node:
    """One recorded application of a primitive.

    Carries ``(primitive, raw argument values, kwargs)`` plus the
    ``(argnum, parent tensor)`` links for the operands that require
    gradients.  There is no per-node backward closure: the VJPs are looked
    up in the primitive's table when the backward pass reaches the node.
    """

    __slots__ = ("prim", "args", "kwargs", "parents")

    def __init__(
        self,
        prim: Primitive,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        parents: Tuple[Tuple[int, Any], ...],
    ) -> None:
        self.prim = prim
        self.args = args
        self.kwargs = kwargs
        self.parents = parents
        STATS.nodes += 1


def _toposort(root) -> List[Any]:
    """Iterative DFS post-order over the tensors reachable through nodes."""
    order: List[Any] = []
    visited = {id(root)}
    node = getattr(root, "_node", None)
    stack = [(root, iter(node.parents if node is not None else ()))]
    while stack:
        current, children = stack[-1]
        advanced = False
        for _, child in children:
            if id(child) not in visited:
                visited.add(id(child))
                child_node = child._node
                stack.append(
                    (child, iter(child_node.parents if child_node is not None else ()))
                )
                advanced = True
                break
        if not advanced:
            order.append(current)
            stack.pop()
    return order


def backward(root, seed: np.ndarray) -> None:
    """Back-propagate ``seed`` from ``root`` through the recorded graph.

    Accumulated gradients are written to ``tensor.grad`` (dense, adding to
    any gradient already present) for every tensor that requires one —
    identical semantics to the old tape, including the order in which
    contributions are summed.
    """
    order = _toposort(root)
    profiler = _active_profiler()
    if profiler is not None:
        # Resident tape bytes for this graph: one pass over the toposort.
        profiler.memory(
            "autodiff.tape.resident",
            sum(t.data.nbytes for t in order),
        )
    accumulators: Dict[int, _Accumulator] = {}

    def accumulator_for(tensor) -> _Accumulator:
        acc = accumulators.get(id(tensor))
        if acc is None:
            acc = _Accumulator()
            accumulators[id(tensor)] = acc
        return acc

    seed = unbroadcast(np.asarray(seed, dtype=np.float64), root.data.shape)
    accumulator_for(root).add_dense(seed)

    for tensor in reversed(order):
        acc = accumulators.get(id(tensor))
        node = tensor._node
        if acc is None or node is None:
            continue
        g = acc.dense_value(tensor.data.shape)
        for argnum, parent in node.parents:
            STATS.vjp_calls += 1
            if profiler is None:
                contribution = node.prim.vjp(
                    argnum, g, tensor.data, node.args, node.kwargs
                )
            else:
                with _kernel(
                    "vjp." + node.prim.name, profiler, node.args
                ) as event:
                    contribution = event.out = node.prim.vjp(
                        argnum, g, tensor.data, node.args, node.kwargs
                    )
            parent_acc = accumulator_for(parent)
            if isinstance(contribution, SparseGrad):
                parent_acc.add_sparse(contribution)
            else:
                contribution = np.asarray(contribution, dtype=np.float64)
                parent_acc.add_dense(unbroadcast(contribution, parent.data.shape))

    for tensor in order:
        acc = accumulators.get(id(tensor))
        if acc is None or not tensor.requires_grad:
            continue
        dense = acc.finalize(tensor.data.shape)
        if tensor.grad is None:
            tensor.grad = dense
        else:
            tensor.grad = tensor.grad + dense

    if profiler is not None:
        profiler.tape_reset()
