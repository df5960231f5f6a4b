"""Trace-compiled fused inference plans for sampled ego-block serving.

The module-tree forward pays pure Python overhead on every cold-miss
request: ``Module.__call__`` traversal and one autodiff tape node per
tensor op.  This module removes both from the serving hot path with the
trace-once/replay-many idiom (drjit's ``JitFlag.LoopRecord`` applied to
inference):

* **Recording** — a model exports its inference-time computation once
  through the kernel-extraction hooks (``Module.plan_kernels`` /
  ``GNNModel.record_inference_plan``) into a :class:`PlanRecorder`, which
  assembles a flat :class:`InferencePlan`: an ordered tuple of pre-resolved
  kernels (dense matmul, spmm, bias add, ReLU, stable row
  normalisation, fused SAGE layer) bound to the model's parameter arrays.
  Architectures without a flat kernel decomposition (GAT's data-dependent
  attention) raise :class:`PlanUnsupported` and keep their fallback path.

* **Packing** — :func:`pack_blocks` turns the ego-block stack of one miss
  batch into a :class:`PackedBatch`: the input-layer feature gather plus
  one propagation operator per layer, built by
  :func:`repro.gnn.sampling.block_propagation` (the same builder the
  unfused forward uses).

* **Replay** — :meth:`InferencePlan.replay` executes the kernel list as
  plain NumPy over a :class:`PackedBatch`: no module traversal, no tape, no
  registry lookups, with matmul outputs written into preallocated
  shape-bucketed scratch buffers (:class:`BufferPool`).  Each output row
  is bitwise equal to the unfused ``predict_logits_blocks`` row for the
  same blocks.

Plans are cached process-wide in :func:`shared_plan_cache` (surfaced as
``ModelRegistry.plan_cache()``) keyed by ``(architecture signature hash,
parameter content hash)`` — a registry hot-swap rebinds parameter
arrays, changes the content hash and therefore records a fresh plan instead
of replaying stale weights.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gnn.sampling import SampledBlock, block_propagation
from repro.obs.profile import active_profiler
from repro.obs.trace import kernel
from repro.obs.trace import span as obs_span
from repro.sparse.csr import CSRMatrix

__all__ = [
    "PlanUnsupported",
    "PlanRecorder",
    "InferencePlan",
    "PlanCache",
    "BufferPool",
    "PackedLayer",
    "PackedBatch",
    "pack_blocks",
    "record_plan",
    "plan_params_hash",
    "shared_plan_cache",
]


class PlanUnsupported(RuntimeError):
    """The model has no flat inference-kernel decomposition (e.g. GAT)."""


# --------------------------------------------------------------------------- #
# Recording
# --------------------------------------------------------------------------- #
class PlanRecorder:
    """Collects the flat kernel list while a model traces its forward.

    Models append kernels in execution order through the methods below; each
    propagation-consuming kernel (:meth:`propagate`, :meth:`sage`) claims the
    next message-passing layer and fixes that layer's normalisation kind.
    Weight kernels bind the parameter **arrays** (no copy): a plan replays
    exactly the weights it was recorded over, and a ``load_state_dict``
    rebind is caught by the parameter content hash in the cache key.
    """

    def __init__(self) -> None:
        self._ops: List[Tuple[str, object]] = []
        self._kinds: List[str] = []

    def matmul(self, weight) -> None:
        """Dense feature transform ``x ← x @ W``."""
        self._ops.append(("matmul", weight.data))

    def bias(self, bias) -> None:
        """Broadcast bias add ``x ← x + b`` (ignored for ``bias=None``)."""
        if bias is not None:
            self._ops.append(("bias", bias.data))

    def propagate(self, kind: str) -> None:
        """Apply the next layer's propagation operator ``x ← P_l @ x``."""
        self._ops.append(("prop", len(self._kinds)))
        self._kinds.append(str(kind))

    def relu(self) -> None:
        self._ops.append(("relu", None))

    def normalize_stable(self, eps: float = 1e-12) -> None:
        """Zero-row-safe L2 row normalisation (``F.normalize_rows_stable``)."""
        self._ops.append(("normalize", float(eps)))

    def sage(self, weight_self, weight_neighbor, bias, kind: str) -> None:
        """Fused SAGE layer ``x ← x_dst @ W_s + (P_l @ x) @ W_n + b``."""
        layer = len(self._kinds)
        self._kinds.append(str(kind))
        self._ops.append(
            (
                "sage",
                (
                    layer,
                    weight_self.data,
                    weight_neighbor.data,
                    None if bias is None else bias.data,
                ),
            )
        )

    def build(self) -> "InferencePlan":
        if not self._kinds:
            raise PlanUnsupported("recording produced no propagation kernels")
        return InferencePlan(tuple(self._ops), tuple(self._kinds))


def record_plan(model) -> "InferencePlan":
    """Trace ``model``'s sampled inference forward into a flat plan.

    Raises :class:`PlanUnsupported` when the model (or one of its modules)
    has no flat kernel decomposition, or when the recorded layer count
    disagrees with the model's declared sampled depth.
    """
    recorder = PlanRecorder()
    trace = getattr(model, "record_inference_plan", None)
    if trace is None:
        raise PlanUnsupported(
            f"{type(model).__name__} does not record inference plans"
        )
    try:
        trace(recorder)
    except NotImplementedError as error:
        raise PlanUnsupported(str(error)) from error
    plan = recorder.build()
    depth = getattr(model, "message_passing_layers", None)
    if depth is not None and plan.num_layers != depth:
        raise PlanUnsupported(
            f"recorded {plan.num_layers} propagation kernels for a "
            f"{depth}-layer model"
        )
    return plan


def plan_params_hash(model) -> str:
    """Content hash of the model's parameters (plan-cache staleness key)."""
    import hashlib

    digest = hashlib.sha256()
    for name, param in model.named_parameters():
        digest.update(name.encode("utf-8"))
        digest.update(param.data.tobytes())
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Packing
# --------------------------------------------------------------------------- #
@dataclass
class PackedLayer:
    """One layer's CSR propagation operator and its destination row count."""

    matrix: CSRMatrix
    num_dst: int


@dataclass
class PackedBatch:
    """Everything one replay needs: feature gather + per-layer operators."""

    src_gather: np.ndarray
    layers: Tuple[PackedLayer, ...]


def pack_blocks(
    blocks: Sequence[SampledBlock],
    kinds: Sequence[str],
) -> PackedBatch:
    """Pack one ego-block stack (input layer first) for replay.

    ``kinds`` holds the per-layer normalisation recorded in the plan.  The
    destination rows of layer ``l`` are the first ``num_dst`` source rows of
    layer ``l + 1``, so layers chain with no row shuffling.
    """
    with obs_span("plan.pack"):
        if len(blocks) != len(kinds):
            raise ValueError(
                f"block stack depth {len(blocks)} != plan depth {len(kinds)}"
            )
        layers = []
        for block, kind in zip(blocks, kinds):
            layers.append(PackedLayer(block_propagation(block, kind), block.num_dst))
        return PackedBatch(blocks[0].src_nodes, tuple(layers))


# --------------------------------------------------------------------------- #
# Replay
# --------------------------------------------------------------------------- #
class BufferPool:
    """Shape-bucketed scratch buffers for replay matmul outputs.

    Row counts round up to the next power of two, so a handful of buffers
    serves every miss-batch size; views stay C-contiguous (row slices of a
    C-order array), which is what ``np.matmul(..., out=...)`` needs.  Not
    thread-safe — the engine serialises replays per pool.
    """

    def __init__(self) -> None:
        self._buffers: Dict[Tuple[int, int], np.ndarray] = {}
        self._nbytes = 0

    def take(self, rows: int, cols: int) -> Optional[np.ndarray]:
        if rows <= 0 or cols <= 0:
            return None
        bucket = 1 << (rows - 1).bit_length()
        buffer = self._buffers.get((bucket, cols))
        if buffer is None:
            buffer = np.empty((bucket, cols), dtype=np.float64)
            self._buffers[(bucket, cols)] = buffer
            self._nbytes += buffer.nbytes
            profiler = active_profiler()
            if profiler is not None:
                profiler.memory("plan.buffer_pool", self._nbytes)
        return buffer[:rows]

    @property
    def nbytes(self) -> int:
        """Total bytes resident across all pooled buffers."""
        return self._nbytes

    def __len__(self) -> int:
        return len(self._buffers)


class InferencePlan:
    """A recorded, replayable flat kernel list for one architecture.

    ``ops`` is the ordered kernel tuple; ``kinds`` the per-message-passing-
    layer propagation normalisation (consumed by :func:`pack_blocks`).
    Replay is pure NumPy: the only per-kernel dispatch is one tuple unpack
    and one call of :func:`_run_op`.
    """

    __slots__ = ("ops", "kinds")

    def __init__(
        self, ops: Tuple[Tuple[str, object], ...], kinds: Tuple[str, ...]
    ) -> None:
        self.ops = ops
        self.kinds = kinds

    @property
    def num_layers(self) -> int:
        return len(self.kinds)

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InferencePlan(ops={self.op_count}, kinds={self.kinds})"

    def replay(
        self,
        features: np.ndarray,
        packed: PackedBatch,
        pool: Optional[BufferPool] = None,
    ) -> np.ndarray:
        """Traced wrapper around :meth:`_replay` (``plan.replay`` span)."""
        with obs_span("plan.replay") as replay_span:
            replay_span.set(rows=int(packed.src_gather.size))
            return self._replay(features, packed, pool)

    def _replay(
        self,
        features: np.ndarray,
        packed: PackedBatch,
        pool: Optional[BufferPool] = None,
    ) -> np.ndarray:
        """Execute the plan over a packed batch; returns the logit rows.

        Matmul outputs go to the pool (when given); every other kernel
        operates in place on arrays the replay owns — the initial feature
        gather and every propagation output are fresh allocations, and a
        pooled matmul output is always consumed by the propagation that
        follows it, so no pooled buffer outlives its use or escapes as the
        result.
        """
        x = np.take(
            np.asarray(features, dtype=np.float64), packed.src_gather, axis=0
        )
        profiler = active_profiler()
        for op, payload in self.ops:
            if profiler is None:
                x = _run_op(op, payload, x, packed, pool)
            else:
                cost_args = _cost_args(op, payload, x, packed)
                with kernel("plan." + op, profiler, cost_args) as event:
                    x = event.out = _run_op(op, payload, x, packed, pool)
        return x


def _run_op(
    op: str,
    payload,
    x: np.ndarray,
    packed: PackedBatch,
    pool: Optional[BufferPool],
) -> np.ndarray:
    """One replayed kernel: ``x`` in, the next activation out."""
    if op == "matmul":
        out = pool.take(x.shape[0], payload.shape[1]) if pool is not None else None
        if out is None:
            return x @ payload
        return np.matmul(x, payload, out=out)
    if op == "prop":
        return packed.layers[payload].matrix.matmul_dense(x)
    if op == "bias":
        return np.add(x, payload, out=x)
    if op == "relu":
        # Matches Tensor.relu (x * (x > 0)) bit-for-bit.
        return np.multiply(x, x > 0, out=x)
    if op == "normalize":
        eps = payload
        norm = ((x * x).sum(axis=1, keepdims=True) + eps * eps) ** 0.5
        return x / (norm + eps)
    if op == "sage":
        layer_index, w_self, w_neigh, bias = payload
        layer = packed.layers[layer_index]
        aggregated = layer.matrix.matmul_dense(x)
        x = x[: layer.num_dst] @ w_self + aggregated @ w_neigh
        if bias is not None:
            x = np.add(x, bias, out=x)
        return x
    # The recorder emits only the kinds above.
    raise ValueError(f"unknown plan op {op!r}")  # pragma: no cover


def _cost_args(op: str, payload, x: np.ndarray, packed: PackedBatch) -> tuple:
    """Operands of one replayed kernel's flop/byte estimate."""
    if op == "matmul":
        return (x, payload)
    if op in ("prop", "sage"):
        # CSR propagation fires the nested spmm kernel, which already
        # carries the flops — don't double count.
        return ()
    return (x,)


# --------------------------------------------------------------------------- #
# Plan cache
# --------------------------------------------------------------------------- #
class PlanCache:
    """Thread-safe LRU of recorded plans, shared across engine replicas.

    Keys are ``(architecture signature hash, parameter content hash)`` —
    see the module docstring for why the parameter hash makes
    registry hot-swaps self-invalidating.
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = int(maxsize)
        self._entries: "OrderedDict[Tuple, InferencePlan]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._recorded = 0

    def get(self, key: Tuple) -> Optional[InferencePlan]:
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
                self._hits += 1
            return plan

    def put(self, key: Tuple, plan: InferencePlan) -> None:
        with self._lock:
            if key not in self._entries:
                self._recorded += 1
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def invalidate(self, signature_hash: Optional[str] = None) -> int:
        """Drop every plan (or only one architecture's); returns the count."""
        with self._lock:
            if signature_hash is None:
                dropped = len(self._entries)
                self._entries.clear()
                return dropped
            stale = [key for key in self._entries if key[0] == signature_hash]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def clear(self) -> None:
        self.invalidate()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def recorded(self) -> int:
        with self._lock:
            return self._recorded


_SHARED_PLANS: Optional[PlanCache] = None
_SHARED_PLANS_LOCK = threading.Lock()


def shared_plan_cache() -> PlanCache:
    """The process-wide plan cache every engine uses by default.

    One cache per process means replicas hosting the same registry version
    record a plan once and replay it everywhere (the ``ModelRegistry``
    surfaces this object as ``ModelRegistry.plan_cache()``).
    """
    global _SHARED_PLANS
    with _SHARED_PLANS_LOCK:
        if _SHARED_PLANS is None:
            _SHARED_PLANS = PlanCache()
        return _SHARED_PLANS
