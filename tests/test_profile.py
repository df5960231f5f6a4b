"""Tests for the op-level kernel profiler (:mod:`repro.obs.profile`).

Acceptance properties:

* **hand-counted rooflines** — the matmul and spmm estimators reproduce the
  pencil-and-paper flop (``2·m·k·n`` / ``2·nnz·F``) and byte counts for
  known operand shapes, through the real dispatch hooks, not by calling the
  estimators directly;
* **memory high-water marks** — the autodiff tape meter equals the sum of
  node-output bytes for a hand-built graph, survives ``tape_reset`` as a
  monotonic mark, and lands in the registry as a ``profile.mem.*`` gauge;
* **disabled path is inert** — with profiling off (the default),
  ``active_profiler()`` is ``None`` and numerical results are bit-identical
  to a profiled run;
* **catapult export shape** — the Chrome-trace document has the required
  keys per complete event and puts metadata before timeline events;
* **cross-process stitching** — one profiled, traced request through a
  2-process-shard cluster yields ``kernel.*`` events from at least two
  distinct shard pids inside a single trace tree.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster import ShardRouter
from repro.datasets.synthetic import generate_scaling_graph
from repro.gnn.models import build_model
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.obs.chrome import collect_traces, spans_to_chrome
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.profile import (
    KernelProfiler,
    active_profiler,
    estimate_flops_bytes,
    format_top,
    use_profiler,
)
from repro.obs.snapshot import SnapshotEmitter
from repro.obs.trace import Tracer, use_telemetry, use_tracer
from repro.serve import GraphSession, RequestBatcher
from repro.sparse.csr import CSRMatrix

NUM_NODES = 120
NUM_FEATURES = 8
NUM_CLASSES = 3


@pytest.fixture(scope="module")
def small_graph():
    csr, features, _ = generate_scaling_graph(
        NUM_NODES,
        num_classes=NUM_CLASSES,
        average_degree=5.0,
        num_features=NUM_FEATURES,
        seed=0,
    )
    return csr, features


@pytest.fixture(scope="module")
def gcn_model():
    model = build_model(
        "gcn",
        in_features=NUM_FEATURES,
        num_classes=NUM_CLASSES,
        hidden_features=8,
        rng=0,
    )
    model.eval()
    return model


# --------------------------------------------------------------------- #
# Roofline estimators, through the real dispatch hooks
# --------------------------------------------------------------------- #
class TestEstimators:
    def test_matmul_flops_and_bytes_hand_count(self):
        a = Tensor(np.ones((6, 4)))
        b = Tensor(np.ones((4, 3)))
        profiler = KernelProfiler()
        with use_profiler(profiler):
            (a @ b)
        row = profiler.table()["nn.matmul"]
        assert row["calls"] == 1
        assert row["flops"] == 2 * 6 * 4 * 3
        # a + b + out, float64
        assert row["bytes"] == 8 * (6 * 4 + 4 * 3 + 6 * 3)
        assert row["shapes"] == {"6x4,4x3": 1}

    def test_spmm_flops_and_bytes_hand_count(self):
        # 3x3 operator with 4 stored entries, dense (3, 5) operand.
        matrix = CSRMatrix(
            np.array([0, 2, 3, 4], dtype=np.int64),
            np.array([0, 2, 1, 0], dtype=np.int64),
            np.array([1.0, 2.0, 3.0, 4.0]),
            (3, 3),
        )
        dense = np.ones((3, 5))
        profiler = KernelProfiler()
        with use_profiler(profiler):
            out = matrix.matmul_dense(dense)
        row = profiler.table()["spmm"]
        assert row["calls"] == 1
        assert row["flops"] == 2 * matrix.nnz * 5
        assert row["bytes"] == (
            matrix.memory_bytes() + matrix.nnz * 5 * 8 + out.nbytes
        )

    def test_vjp_kernels_share_the_forward_cost_model(self):
        a = Tensor(np.ones((6, 4)), requires_grad=True)
        b = Tensor(np.ones((4, 3)), requires_grad=True)
        profiler = KernelProfiler()
        with use_profiler(profiler):
            (a @ b).sum().backward()
        table = profiler.table()
        assert table["vjp.matmul"]["calls"] == 2  # one fire per parent
        # vjp.matmul resolves to the same matmul estimator as nn.matmul.
        assert table["vjp.matmul"]["flops"] == 2 * (2 * 6 * 4 * 3)

    def test_unknown_kernel_falls_back_to_elementwise(self):
        out = np.ones((4, 4))
        flops, moved = estimate_flops_bytes("nn.someop", (out,), out)
        assert flops == out.size
        assert moved == 2 * out.nbytes

    def test_free_ops_cost_no_flops(self):
        out = np.ones((4, 4))
        flops, _ = estimate_flops_bytes("nn.transpose", (out,), out)
        assert flops == 0


# --------------------------------------------------------------------- #
# Self vs cumulative time
# --------------------------------------------------------------------- #
class TestSelfTime:
    def test_nested_kernels_subtract_child_time(self):
        profiler = KernelProfiler()
        with profiler.kernel("outer"):
            with profiler.kernel("inner"):
                time.sleep(0.02)
        table = profiler.table()
        outer, inner = table["outer"], table["inner"]
        assert inner["cum_s"] >= 0.02
        assert outer["cum_s"] >= inner["cum_s"]
        # Outer did no work of its own: its self time excludes the child.
        assert outer["self_s"] < inner["cum_s"] / 2
        assert inner["self_s"] == pytest.approx(inner["cum_s"])


# --------------------------------------------------------------------- #
# Memory high-water marks
# --------------------------------------------------------------------- #
class TestMemoryMarks:
    def test_marks_are_monotonic_per_name(self):
        profiler = KernelProfiler()
        profiler.memory("x", 10)
        profiler.memory("x", 5)
        profiler.memory("y", 7)
        assert profiler.memory_marks() == {"x": 10, "y": 7}

    def test_tape_meter_against_synthetic_pattern(self):
        profiler = KernelProfiler()
        profiler.tape_alloc(100)
        profiler.tape_alloc(200)
        profiler.tape_reset()
        profiler.tape_alloc(50)
        # High-water from the first tape (300) survives the reset; the
        # second tape never exceeded it.
        assert profiler.memory_marks()["autodiff.tape"] == 300

    def test_tape_high_water_equals_node_output_bytes(self):
        registry = MetricsRegistry()
        profiler = KernelProfiler()
        with use_metrics(registry), use_profiler(profiler):
            a = Tensor(np.ones((8, 4)), requires_grad=True)
            w = Tensor(np.ones((4, 3)), requires_grad=True)
            loss = F.relu(a @ w).sum()
            loss.backward()
        marks = profiler.memory_marks()
        # Node outputs on the tape: matmul (8,3) + relu (8,3) + sum scalar.
        expected_tape = 8 * (8 * 3) + 8 * (8 * 3) + 8
        assert marks["autodiff.tape"] == expected_tape
        # Resident at backward = tape outputs + the two leaf tensors.
        assert marks["autodiff.tape.resident"] == expected_tape + 8 * (
            8 * 4 + 4 * 3
        )
        gauges = {
            metric.name: metric.value
            for metric in registry.metrics()
            if metric.kind == "gauge"
        }
        assert gauges["profile.mem.autodiff.tape"] == expected_tape


# --------------------------------------------------------------------- #
# Disabled path
# --------------------------------------------------------------------- #
class TestDisabledPath:
    def test_active_profiler_is_none_by_default(self):
        assert active_profiler() is None

    def test_disabled_context_overrides_enabled_outer(self):
        with use_telemetry(kernels=True):
            assert active_profiler() is not None
            with use_telemetry(kernels=False):
                assert active_profiler() is None

    def test_results_identical_with_and_without_profiling(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(16, 8))
        w = rng.normal(size=(8, 4))

        def run():
            at = Tensor(a, requires_grad=True)
            loss = F.relu(at @ Tensor(w)).sum()
            loss.backward()
            return loss.data.copy(), at.grad.copy()

        plain_loss, plain_grad = run()
        with use_profiler(KernelProfiler()) as profiler:
            profiled_loss, profiled_grad = run()
        assert np.array_equal(plain_loss, profiled_loss)
        assert np.array_equal(plain_grad, profiled_grad)
        assert profiler.table()["nn.matmul"]["calls"] == 1


# --------------------------------------------------------------------- #
# Aggregation + rendering
# --------------------------------------------------------------------- #
class TestAggregation:
    def test_merge_table_sums_rows(self):
        left, right = KernelProfiler(), KernelProfiler()
        with use_profiler(left):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((3, 2)))
        with use_profiler(right):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((3, 2)))
        left.merge_table(right.table())
        left.merge_memory({"worker": 123})
        row = left.table()["nn.matmul"]
        assert row["calls"] == 2
        assert row["flops"] == 2 * (2 * 2 * 3 * 2)
        assert left.memory_marks()["worker"] == 123

    def test_format_top_ranks_by_self_time(self):
        profiler = KernelProfiler()
        with profiler.kernel("slow"):
            time.sleep(0.01)
        with profiler.kernel("fast"):
            pass
        rendered = format_top(profiler.table(), profiler.memory_marks())
        lines = rendered.splitlines()
        assert lines[1].startswith("slow")
        assert "(no kernel samples" in format_top({})


# --------------------------------------------------------------------- #
# Chrome-trace export
# --------------------------------------------------------------------- #
class TestChromeExport:
    def _profiled_snapshot(self, small_graph, gcn_model, tmp_path):
        from repro.serve.engine import InferenceEngine

        csr, features = small_graph
        engine = InferenceEngine(gcn_model, GraphSession(csr, features))
        tracer = Tracer()
        registry = MetricsRegistry()
        with use_metrics(registry), use_tracer(tracer), use_telemetry(spans=True):
            with use_telemetry(kernels=True):
                batcher = RequestBatcher(engine, max_batch_size=4)
                future = batcher.submit(3)
                batcher.flush()
                future.result()
            emitter = SnapshotEmitter(
                str(tmp_path / "obs.jsonl"), registry=registry, tracer=tracer
            )
            return emitter.snapshot()

    def test_catapult_document_shape(self, small_graph, gcn_model, tmp_path):
        snapshot = self._profiled_snapshot(small_graph, gcn_model, tmp_path)
        traces = collect_traces([snapshot])
        assert traces, "the profiled request must have produced a trace"
        doc = spans_to_chrome(traces)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert complete and metadata
        for event in complete:
            assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["dur"] >= 0.0
        # Metadata (process names) sorts ahead of every timeline event.
        assert events[: len(metadata)] == metadata
        kernels = [e for e in complete if e["cat"] == "kernel"]
        stages = [e for e in complete if e["cat"] == "stage"]
        assert kernels, "kernel events must reach the export"
        assert any(e["name"] == "kernel.plan.matmul" for e in kernels)
        assert any(e["name"] == "engine.predict" for e in stages)

    def test_single_trace_filter(self, small_graph, gcn_model, tmp_path):
        snapshot = self._profiled_snapshot(small_graph, gcn_model, tmp_path)
        traces = collect_traces([snapshot])
        tid = sorted(traces)[0]
        doc = spans_to_chrome(traces, trace_id=tid)
        exported = {
            e["args"]["trace"]
            for e in doc["traceEvents"]
            if e["ph"] == "X"
        }
        assert exported == {tid}


# --------------------------------------------------------------------- #
# Cross-process kernel stitching
# --------------------------------------------------------------------- #
class TestCrossProcessKernels:
    def test_kernel_events_from_two_shard_pids_in_one_trace(
        self, small_graph, gcn_model
    ):
        csr, features = small_graph
        session = GraphSession(csr, features)
        tracer = Tracer()
        with use_tracer(tracer), use_telemetry(spans=True, kernels=True):
            with ShardRouter(
                gcn_model, session, 2, workers="process"
            ) as router:
                batcher = RequestBatcher(router, max_batch_size=8)
                owners = router.owners
                node_a = int(np.flatnonzero(owners == 0)[0])
                node_b = int(np.flatnonzero(owners == 1)[0])
                futures = [batcher.submit(node_a), batcher.submit(node_b)]
                batcher.flush()
                for future in futures:
                    future.result()
        best = max(
            (tracer.trace(tid) for tid in tracer.trace_ids()), key=len
        )
        kernels = [s for s in best if s["name"].startswith("kernel.")]
        assert kernels, "worker kernel events must ship back on replies"
        kernel_pids = {s["pid"] for s in kernels}
        import os

        worker_pids = kernel_pids - {os.getpid()}
        assert len(worker_pids) >= 2, (
            f"kernel events must come from both shard processes, got pids "
            f"{sorted(kernel_pids)}"
        )
        # Every kernel event hangs off a span of the same tree.
        span_ids = {s["span"] for s in best}
        assert all(k["parent"] in span_ids for k in kernels)
        # The compute kernels themselves are present, with roofline attrs.
        names = {s["name"] for s in kernels}
        assert "kernel.plan.matmul" in names
        sample = next(s for s in kernels if s["name"] == "kernel.plan.matmul")
        assert sample["attrs"]["flops"] > 0

    @pytest.fixture
    def spawned_workers(self, monkeypatch):
        """Start shard processes with ``spawn``: a forked child inherits the
        parent's contextvars, a spawned one only ``WorkerInit.telemetry``."""
        from repro.cluster.worker import ProcessWorker

        monkeypatch.setattr(ProcessWorker.__init__, "__defaults__", ("spawn",))

    def test_kernels_only_ship_tables_and_no_spans(
        self, small_graph, gcn_model, spawned_workers
    ):
        """Workers read the one telemetry field: kernels on, spans off."""
        csr, features = small_graph
        session = GraphSession(csr, features)
        tracer = Tracer()
        with use_tracer(tracer), use_telemetry(spans=False, kernels=True):
            with ShardRouter(
                gcn_model, session, 2, workers="process"
            ) as router:
                router.predict_logits(np.arange(NUM_NODES))
                stats = router.stats()
        assert tracer.trace_ids() == [] and tracer.drain() == []
        merged = KernelProfiler()
        for shard in stats.shards:
            assert shard.profile is not None and shard.profile["ops"], (
                f"shard {shard.shard_id} shipped no kernel table"
            )
            merged.merge_table(shard.profile["ops"])
            merged.merge_memory(shard.profile["memory"])
        table = merged.table()
        assert table["plan.matmul"]["calls"] == sum(
            shard.profile["ops"]["plan.matmul"]["calls"] for shard in stats.shards
        )
        assert table["plan.matmul"]["flops"] > 0

    def test_spans_only_stitch_without_kernel_events(
        self, small_graph, gcn_model, spawned_workers
    ):
        """Spans on, kernels off: worker spans, no kernel spans or tables."""
        csr, features = small_graph
        session = GraphSession(csr, features)
        tracer = Tracer()
        with use_tracer(tracer), use_telemetry(spans=True, kernels=False):
            with ShardRouter(
                gcn_model, session, 2, workers="process"
            ) as router:
                batcher = RequestBatcher(router, max_batch_size=8)
                owners = router.owners
                futures = [
                    batcher.submit(int(np.flatnonzero(owners == shard)[0]))
                    for shard in (0, 1)
                ]
                batcher.flush()
                for future in futures:
                    future.result()
                stats = router.stats()
        best = max(
            (tracer.trace(tid) for tid in tracer.trace_ids()), key=len
        )
        assert "worker.handle" in {s["name"] for s in best}
        every = [s for tid in tracer.trace_ids() for s in tracer.trace(tid)]
        assert not [s["name"] for s in every if s["name"].startswith("kernel.")]
        assert all(shard.profile is None for shard in stats.shards)
