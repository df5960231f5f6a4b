"""Op-level kernel table: wall time, flops/bytes, memory high-water marks.

Kernel events of the telemetry core (:func:`repro.obs.trace.kernel`) go one
level below the request spans, to the ops they dispatch.  Three choke
points open them: ``apply_primitive`` in :mod:`repro.nn.tensor` (every
dense forward op, and via :mod:`repro.nn.autodiff` every VJP),
``CSRMatrix.matmul_dense`` in :mod:`repro.sparse.csr` (spmm/spmv), and each
op replayed by :class:`repro.gnn.plan.InferencePlan`.

A finished event folds into a :class:`KernelProfiler` table: call counts,
cumulative and *self* wall time (nested kernels subtracted, so
``plan.prop`` does not double-count its ``spmm``), operand shapes and
roofline-style flop/byte estimates.  Allocation high-water marks (autodiff
tape, plan ``BufferPool``) flow into the active
:class:`~repro.obs.metrics.MetricsRegistry` as ``profile.mem.*`` gauges,
and the table is the ``profile.kernels`` snapshot collector.  With kernels
off, :func:`active_profiler` is ``None`` after one ContextVar read.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.obs.metrics import active_metrics, register_collector
from repro.obs.trace import Span, kernel, telemetry, use_telemetry

__all__ = [
    "KernelProfiler",
    "active_profiler",
    "global_profiler",
    "use_profiler",
    "estimate_flops_bytes",
    "format_top",
]

_ACTIVE: contextvars.ContextVar[Optional["KernelProfiler"]] = contextvars.ContextVar(
    "repro_profiler", default=None
)


@contextlib.contextmanager
def use_profiler(profiler: Optional["KernelProfiler"]) -> Iterator["KernelProfiler"]:
    """Scope a profiler instance *and* turn kernels on (test isolation)."""
    token = _ACTIVE.set(profiler)
    try:
        with use_telemetry(kernels=True):
            yield profiler or _GLOBAL
    finally:
        _ACTIVE.reset(token)


def active_profiler() -> Optional["KernelProfiler"]:
    """THE hot-path gate: ``None`` when kernels are off.  Hook sites branch
    on it before opening a kernel event, so the off cost is one ContextVar
    read plus a comparison, like the span fast path."""
    if not telemetry().kernels:
        return None
    return _ACTIVE.get() or _GLOBAL


def global_profiler() -> "KernelProfiler":
    """The process-global profiler (aggregation target for CLI runs)."""
    return _GLOBAL


# ---------------------------------------------------------------------- #
# Roofline-style flop/byte estimators, keyed by canonical kernel name
# ---------------------------------------------------------------------- #
def _nbytes(value) -> int:
    nb = getattr(value, "nbytes", None)
    return int(nb) if nb is not None else 0


def _shape_of(value) -> Optional[Tuple[int, ...]]:
    shape = getattr(value, "shape", None)
    if shape is None:
        return None
    return tuple(int(s) for s in shape)


def _est_matmul(args, out) -> Tuple[int, int]:
    a, b = args[0], args[1]
    a_shape, b_shape = _shape_of(a), _shape_of(b)
    if not a_shape or not b_shape:
        return 0, _nbytes(out)
    m = a_shape[-2] if len(a_shape) >= 2 else 1
    k = a_shape[-1]
    n = b_shape[-1] if len(b_shape) >= 2 else 1
    batch = 1
    for dim in a_shape[:-2]:
        batch *= dim
    flops = 2 * batch * m * k * n
    return flops, _nbytes(a) + _nbytes(b) + _nbytes(out)


def _est_spmm(args, out) -> Tuple[int, int]:
    matrix, x = args[0], args[1]
    nnz = int(getattr(matrix, "nnz", 0))
    x_shape = _shape_of(x) or ()
    cols = x_shape[1] if len(x_shape) >= 2 else 1
    flops = 2 * nnz * cols
    itemsize = int(getattr(x, "itemsize", 8))
    operator_bytes = (
        int(matrix.memory_bytes()) if hasattr(matrix, "memory_bytes") else 0
    )
    # operator storage + one gathered row of x per stored entry + the output
    moved = operator_bytes + nnz * cols * itemsize + _nbytes(out)
    return flops, moved


def _est_elementwise(args, out) -> Tuple[int, int]:
    size = int(getattr(out, "size", 0) or 0)
    moved = sum(_nbytes(a) for a in args) + _nbytes(out)
    return size, moved


def _est_free(args, out) -> Tuple[int, int]:
    # Views / reshapes: no arithmetic, only (at worst) a copy of the output.
    return 0, _nbytes(out)


_ESTIMATORS: Dict[str, Callable[[tuple, object], Tuple[int, int]]] = {
    "matmul": _est_matmul,
    "spmm": _est_spmm,
    "spmv": _est_spmm,
    "prop": _est_spmm,
    "transpose": _est_free,
    "reshape": _est_free,
}


def _canonical(name: str) -> str:
    """Strip the dispatch-layer prefix: ``nn.matmul``/``vjp.matmul`` and the
    plan's ``plan.matmul`` all share the matmul cost model."""
    if "." in name:
        return name.rsplit(".", 1)[1]
    return name


def estimate_flops_bytes(name: str, args: tuple, out) -> Tuple[int, int]:
    """Roofline estimate ``(flops, bytes_moved)`` for one kernel call."""
    estimator = _ESTIMATORS.get(_canonical(name), _est_elementwise)
    try:
        return estimator(args, out)
    except Exception:  # pragma: no cover - estimators must never break dispatch
        return 0, 0


# ---------------------------------------------------------------------- #
# Profiler
# ---------------------------------------------------------------------- #
class _OpStat:
    __slots__ = ("calls", "cum_s", "self_s", "flops", "bytes", "shapes")

    def __init__(self) -> None:
        self.calls = 0
        self.cum_s = 0.0
        self.self_s = 0.0
        self.flops = 0
        self.bytes = 0
        self.shapes: Dict[str, int] = {}

    def row(self) -> Dict[str, object]:
        return {
            "calls": self.calls,
            "cum_s": self.cum_s,
            "self_s": self.self_s,
            "flops": self.flops,
            "bytes": self.bytes,
            "shapes": dict(self.shapes),
        }


_MAX_SHAPE_SIGS = 8


class KernelProfiler:
    """Aggregating op-level kernel table.

    Kernel events of the telemetry core fold into it when they finish.
    Thread-safe: the table and the memory marks are lock-guarded.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ops: Dict[str, _OpStat] = {}
        self._mem: Dict[str, int] = {}
        self._tape_bytes = 0

    def fold(
        self, name: str, cum_s: float, self_s: float, args: tuple, out
    ) -> Tuple[str, int, int]:
        """Add one finished kernel call; returns its ``(shapes, flops,
        bytes)`` for the kernel span."""
        flops, moved = estimate_flops_bytes(name, args, out)
        sig = ",".join(
            "x".join(str(d) for d in s)
            for s in (_shape_of(a) for a in args)
            if s is not None
        )
        with self._lock:
            stat = self._ops.get(name)
            if stat is None:
                stat = self._ops[name] = _OpStat()
            stat.calls += 1
            stat.cum_s += cum_s
            stat.self_s += self_s
            stat.flops += flops
            stat.bytes += moved
            if sig and (sig in stat.shapes or len(stat.shapes) < _MAX_SHAPE_SIGS):
                stat.shapes[sig] = stat.shapes.get(sig, 0) + 1
        return sig, flops, moved

    def kernel(self, name: str, args: tuple = ()) -> Span:
        """A kernel event folding into this table (``with`` form, for call
        sites that are not dispatch-hot)."""
        return kernel(name, self, args)

    # ------------------------------------------------------------------ #
    # Memory high-water marks
    # ------------------------------------------------------------------ #
    def memory(self, name: str, nbytes: int) -> None:
        """Record an allocation high-water mark (monotonic per name)."""
        nbytes = int(nbytes)
        with self._lock:
            if nbytes <= self._mem.get(name, -1):
                return
            self._mem[name] = nbytes
        try:
            active_metrics().gauge(f"profile.mem.{name}", component="profile").set(
                nbytes
            )
        except Exception:  # pragma: no cover - metrics must not break compute
            pass

    def tape_alloc(self, nbytes: int) -> None:
        """One graph node recorded ``nbytes`` of output on the live tape."""
        with self._lock:
            self._tape_bytes += int(nbytes)
            current = self._tape_bytes
        self.memory("autodiff.tape", current)

    def tape_reset(self) -> None:
        """The live tape was consumed (backward ran); restart the meter."""
        with self._lock:
            self._tape_bytes = 0

    # ------------------------------------------------------------------ #
    # Export / aggregation
    # ------------------------------------------------------------------ #
    def table(self) -> Dict[str, Dict[str, object]]:
        """Aggregate per-kernel rows (JSON-serialisable)."""
        with self._lock:
            return {name: stat.row() for name, stat in self._ops.items()}

    def memory_marks(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._mem)

    def merge_table(self, rows: Dict[str, Dict[str, object]]) -> None:
        """Fold another process's aggregate table into this one
        (cluster CLI merges worker tables shipped via shard stats)."""
        with self._lock:
            for name, row in rows.items():
                stat = self._ops.get(name)
                if stat is None:
                    stat = self._ops[name] = _OpStat()
                stat.calls += int(row.get("calls", 0))
                stat.cum_s += float(row.get("cum_s", 0.0))
                stat.self_s += float(row.get("self_s", 0.0))
                stat.flops += int(row.get("flops", 0))
                stat.bytes += int(row.get("bytes", 0))
                for sig, count in dict(row.get("shapes", {})).items():
                    if sig in stat.shapes or len(stat.shapes) < _MAX_SHAPE_SIGS:
                        stat.shapes[sig] = stat.shapes.get(sig, 0) + int(count)

    def merge_memory(self, marks: Dict[str, int]) -> None:
        for name, nbytes in dict(marks).items():
            self.memory(name, nbytes)

    def snapshot(self) -> Dict[str, object]:
        """Collector payload for metric snapshots."""
        return {
            "enabled": telemetry().kernels,
            "ops": self.table(),
            "memory": self.memory_marks(),
        }


_GLOBAL = KernelProfiler()

# The snapshot collector reflects whichever profiler is active in the
# emitting context (scoped in tests, the process-global one in CLI runs).
register_collector(
    "profile.kernels", lambda: (_ACTIVE.get() or _GLOBAL).snapshot()
)


# ---------------------------------------------------------------------- #
# Rendering (repro.obs top)
# ---------------------------------------------------------------------- #
def format_top(
    ops: Dict[str, Dict[str, object]],
    memory: Optional[Dict[str, int]] = None,
    limit: int = 20,
) -> str:
    """Hottest-ops table: self/cumulative time, call counts, flop rate."""
    if not ops:
        return "(no kernel samples — run with --profile)"
    rows = sorted(ops.items(), key=lambda kv: kv[1].get("self_s", 0.0), reverse=True)
    total_self = sum(float(r.get("self_s", 0.0)) for _, r in rows) or 1.0
    lines = [
        f"{'kernel':<18} {'calls':>8} {'self(ms)':>10} {'cum(ms)':>10} "
        f"{'self%':>6} {'GFLOP/s':>8} {'GB/s':>8}"
    ]
    for name, row in rows[: max(1, limit)]:
        self_s = float(row.get("self_s", 0.0))
        cum_s = float(row.get("cum_s", 0.0))
        flops = float(row.get("flops", 0))
        moved = float(row.get("bytes", 0))
        rate = flops / self_s / 1e9 if self_s > 0 else 0.0
        bw = moved / self_s / 1e9 if self_s > 0 else 0.0
        lines.append(
            f"{name:<18} {int(row.get('calls', 0)):>8} {self_s * 1e3:>10.3f} "
            f"{cum_s * 1e3:>10.3f} {100 * self_s / total_self:>5.1f}% "
            f"{rate:>8.2f} {bw:>8.2f}"
        )
    if memory:
        lines.append("memory high-water marks:")
        for name in sorted(memory):
            mb = memory[name] / 1e6
            lines.append(f"  {name:<28} {mb:>10.3f} MB")
    return "\n".join(lines)
