"""Tests for the telemetry subsystem (:mod:`repro.obs`).

Acceptance properties:

* **quantile accuracy** — the streaming log-bucket estimator tracks
  ``numpy.percentile`` within the bucket-resolution bound on seeded uniform,
  lognormal and heavy-tailed (Pareto) distributions;
* **cross-process stitching** — one miss request through a 2-process-shard
  cluster yields a *single* trace tree holding the named hot-path stages
  (batcher queue, router fan-out, worker handle, plan replay, cache store)
  with child spans recorded inside the worker processes and parent links
  intact;
* **disabled path is inert** — with telemetry off (the default), every span
  call returns the shared no-op singleton and nothing is ever recorded;
* **stats views stay intact** — the legacy dataclass surfaces
  (``BatcherStats`` & co.) read the registry counters, and the typed shard
  stats snapshot fails loudly on missing/renamed fields instead of silently
  summing zeros.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ShardRouter
from repro.cluster.worker import (
    SHARD_STATS_SCHEMA_VERSION,
    ClusterWorkerError,
    ShardStatsSnapshot,
)
from repro.datasets.synthetic import generate_scaling_graph
from repro.gnn.models import build_model
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    merge_histogram_states,
    use_metrics,
)
from repro.obs.slo import check_slo, parse_slo, resolve_slo_histograms
from repro.obs.snapshot import SnapshotEmitter, latest_snapshot, read_snapshots
from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    current_context,
    render_trace,
    span,
    start_trace,
    use_tracer,
    use_tracing,
)
from repro.serve import GraphSession, RequestBatcher

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
# Metrics registry
# --------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_get_or_create_identity(self):
        registry = MetricsRegistry()
        a = registry.counter("x.hits", component="a")
        assert registry.counter("x.hits", component="a") is a
        b = registry.counter("x.hits", component="b")
        assert b is not a

    def test_totals_aggregate_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("x.hits", instance=1).inc(3)
        registry.counter("x.hits", instance=2).inc(4)
        registry.gauge("x.depth", instance=1).set(5)
        assert registry.totals()["x.hits"] == 7
        assert registry.totals()["x.depth"] == 5

    def test_use_metrics_scopes_the_active_registry(self):
        from repro.obs.metrics import active_metrics, global_metrics

        scoped = MetricsRegistry("scoped")
        with use_metrics(scoped):
            assert active_metrics() is scoped
            active_metrics().counter("scoped.only").inc()
        assert active_metrics() is global_metrics()
        assert "scoped.only" not in global_metrics().totals()
        assert scoped.totals()["scoped.only"] == 1

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", component="t").inc(2)
        registry.histogram("h", component="t").observe(0.01)
        snap = registry.snapshot()
        assert snap["totals"]["c"] == 2
        assert snap["counters"]["c{component=t}"] == 2
        hist = snap["histograms"]["h{component=t}"]
        assert hist["count"] == 1
        assert hist["min"] <= hist["p50"] <= hist["max"]
        assert hist["buckets"]


# --------------------------------------------------------------------- #
# Streaming quantile estimator
# --------------------------------------------------------------------- #
class TestHistogramQuantiles:
    # Bucket growth is 10^(1/16) ≈ 1.155, so estimates are within ~±16%
    # of the true order statistic by construction; 0.2 leaves headroom for
    # the half-bucket rank interpolation.
    REL_TOL = 0.2

    @pytest.mark.parametrize(
        "name,sampler",
        [
            ("uniform", lambda rng: rng.uniform(1e-4, 5e-2, size=5000)),
            (
                "lognormal",
                lambda rng: rng.lognormal(mean=-6.0, sigma=1.0, size=5000),
            ),
            (
                "pareto",  # heavy tail: p99 far from the body
                lambda rng: 1e-4 * (1.0 + rng.pareto(1.5, size=5000)),
            ),
        ],
    )
    def test_matches_numpy_percentile(self, name, sampler):
        rng = np.random.default_rng(7)
        values = sampler(rng)
        hist = Histogram("lat")
        hist.observe_many(values)
        for q in (0.50, 0.90, 0.99):
            expected = float(np.percentile(values, q * 100))
            estimate = hist.quantile(q)
            assert estimate == pytest.approx(expected, rel=self.REL_TOL), (
                f"{name} p{int(q * 100)}: {estimate} vs {expected}"
            )

    def test_quantiles_clamped_to_observed_range(self):
        hist = Histogram("lat")
        hist.observe(3e-3)
        assert hist.quantile(0.0) == pytest.approx(3e-3, rel=self.REL_TOL)
        assert hist.quantile(1.0) == 3e-3  # max is tracked exactly

    def test_overflow_reports_tracked_max(self):
        hist = Histogram("lat", hi=1.0)
        hist.observe_many([0.5, 100.0, 200.0])
        assert hist.quantile(0.99) == 200.0

    def test_empty_histogram(self):
        hist = Histogram("lat")
        assert hist.quantile(0.5) == 0.0
        assert hist.snapshot()["count"] == 0


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #
class TestTracing:
    def test_disabled_path_returns_null_span_and_records_nothing(self):
        tracer = Tracer()
        with use_tracer(tracer), use_tracing(False):
            assert span("anything") is NULL_SPAN
            assert start_trace("request") is NULL_SPAN
            assert current_context() is None
            with span("outer"):
                with span("inner") as inner:
                    inner.set(ignored=1)
        assert tracer.trace_ids() == []
        assert tracer.drain() == []

    def test_nesting_and_parent_links(self):
        tracer = Tracer()
        with use_tracer(tracer), use_tracing(True):
            with tracer.span("root", new_trace=True) as root:
                with span("child") as child:
                    with span("grandchild"):
                        pass
            spans = tracer.trace(root.trace_id)
        by_name = {s["name"]: s for s in spans}
        assert set(by_name) == {"root", "child", "grandchild"}
        assert by_name["root"]["parent"] is None
        assert by_name["child"]["parent"] == by_name["root"]["span"]
        assert by_name["grandchild"]["parent"] == by_name["child"]["span"]

    def test_cross_thread_finish_and_active(self):
        tracer = Tracer()
        with use_tracer(tracer), use_tracing(True):
            root = tracer.span("request", new_trace=True)
            with root.active():
                with span("stage"):
                    pass
            root.finish()
            root.finish()  # idempotent
            spans = tracer.trace(root.trace_id)
        assert {s["name"] for s in spans} == {"request", "stage"}
        stage = next(s for s in spans if s["name"] == "stage")
        assert stage["parent"] == root.span_id

    def test_render_trace_tree(self):
        tracer = Tracer()
        with use_tracer(tracer), use_tracing(True):
            with tracer.span("root", new_trace=True) as root:
                with span("leaf"):
                    pass
        text = render_trace(tracer.trace(root.trace_id))
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  leaf")


# --------------------------------------------------------------------- #
# End-to-end: batcher → engine under one trace
# --------------------------------------------------------------------- #
class TestSingleProcessTrace:
    def test_miss_request_records_engine_stages(self, small_graph, gcn_model):
        csr, features = small_graph
        session = GraphSession(csr, features)
        from repro.serve import InferenceEngine

        engine = InferenceEngine(gcn_model, session)
        tracer = Tracer()
        with use_tracer(tracer), use_tracing(True):
            batcher = RequestBatcher(engine, max_batch_size=8)
            future = batcher.submit(3)
            batcher.flush()
            future.result()
        tids = tracer.trace_ids()
        assert len(tids) == 1, "one submit, one trace"
        names = {s["name"] for s in tracer.trace(tids[0])}
        assert {
            "request",
            "batcher.queue",
            "batcher.engine_call",
            "engine.predict",
            "engine.cache_lookup",
            "engine.miss_coalesce",
            "engine.cache_store",
        } <= names

    def test_coalesced_followers_point_at_leader(self, small_graph, gcn_model):
        csr, features = small_graph
        session = GraphSession(csr, features)
        from repro.serve import InferenceEngine

        engine = InferenceEngine(gcn_model, session)
        tracer = Tracer()
        with use_tracer(tracer), use_tracing(True):
            batcher = RequestBatcher(engine, max_batch_size=8)
            futures = [batcher.submit(n) for n in (1, 2, 3)]
            batcher.flush()
            for future in futures:
                future.result()
        tids = tracer.trace_ids()
        assert len(tids) == 3
        roots = [
            s
            for tid in tids
            for s in tracer.trace(tid)
            if s["name"] == "request"
        ]
        leaders = [s for s in roots if "coalesced_into" not in s["attrs"]]
        followers = [s for s in roots if "coalesced_into" in s["attrs"]]
        assert len(leaders) == 1
        assert len(followers) == 2
        assert all(
            f["attrs"]["coalesced_into"] == leaders[0]["trace"]
            for f in followers
        )


# --------------------------------------------------------------------- #
# Cross-process propagation through worker pipes
# --------------------------------------------------------------------- #
class TestCrossProcessTrace:
    def test_two_shard_trace_stitches_into_one_tree(
        self, small_graph, gcn_model
    ):
        csr, features = small_graph
        session = GraphSession(csr, features)
        tracer = Tracer()
        with use_tracer(tracer), use_tracing(True):
            with ShardRouter(
                gcn_model, session, 2, workers="process"
            ) as router:
                batcher = RequestBatcher(router, max_batch_size=8)
                # Two nodes on different shards → fan-out touches both.
                owners = router.owners
                node_a = int(np.flatnonzero(owners == 0)[0])
                node_b = int(np.flatnonzero(owners == 1)[0])
                futures = [batcher.submit(node_a), batcher.submit(node_b)]
                batcher.flush()
                for future in futures:
                    future.result()
        # The leader's trace holds the whole tree.
        best = max(
            (tracer.trace(tid) for tid in tracer.trace_ids()), key=len
        )
        names = {s["name"] for s in best}
        assert {
            "request",
            "batcher.queue",
            "router.fanout",
            "shard.rpc",
            "worker.handle",
            "engine.predict",
            "plan.replay",
            "engine.cache_store",
        } <= names
        pids = {s["pid"] for s in best}
        assert len(pids) >= 3, "parent + two shard processes"
        # Worker-side spans carry IPC wait and link to the parent rpc spans.
        handles = [s for s in best if s["name"] == "worker.handle"]
        rpc_ids = {s["span"] for s in best if s["name"] == "shard.rpc"}
        assert len(handles) == 2
        for handle in handles:
            assert handle["parent"] in rpc_ids
            assert handle["attrs"]["ipc_wait_s"] >= 0
        # Every span reaches the single root through recorded parents.
        by_id = {s["span"]: s for s in best}
        root = next(s for s in best if s["parent"] is None)
        for s in best:
            walk = s
            while walk["parent"] is not None:
                walk = by_id[walk["parent"]]
            assert walk is root

    def test_mutation_fanout_traced(self, small_graph, gcn_model):
        csr, features = small_graph
        session = GraphSession(csr, features)
        tracer = Tracer()
        with use_tracer(tracer), use_tracing(True):
            with ShardRouter(
                gcn_model, session, 2, workers="process"
            ) as router:
                dense = csr.to_dense()
                owners = router.owners
                pair = None
                for i in range(NUM_NODES):
                    for j in range(NUM_NODES):
                        if i != j and owners[i] != owners[j] and not dense[i, j]:
                            pair = (i, j)
                            break
                    if pair:
                        break
                session.add_edges(np.asarray([pair], dtype=np.int64))
        spans = [
            s
            for tid in tracer.trace_ids()
            for s in tracer.trace(tid)
        ]
        names = {s["name"] for s in spans}
        assert "router.mutation_fanout" in names
        mutate_handles = [
            s
            for s in spans
            if s["name"] == "worker.handle"
            and s["attrs"].get("command") == "mutate"
        ]
        assert len(mutate_handles) == 2

    def test_disabled_cluster_serving_records_nothing(
        self, small_graph, gcn_model
    ):
        csr, features = small_graph
        session = GraphSession(csr, features)
        tracer = Tracer()
        with use_tracer(tracer), use_tracing(False):
            with ShardRouter(
                gcn_model, session, 2, workers="process"
            ) as router:
                router.predict_logits(np.arange(6))
        assert tracer.trace_ids() == []


# --------------------------------------------------------------------- #
# Typed shard stats
# --------------------------------------------------------------------- #
class TestShardStatsSnapshot:
    def _snapshot(self, **overrides):
        payload = dict(
            schema=SHARD_STATS_SCHEMA_VERSION,
            shard_id=0,
            owned=10,
            requests=5,
            version=1,
            hits=2,
            misses=3,
            invalidated=0,
            cache_size=3,
            plans_recorded=1,
            plan_replays=4,
            plan_fallbacks=0,
        )
        payload.update(overrides)
        return ShardStatsSnapshot(**payload)

    def test_dict_style_access(self):
        snap = self._snapshot()
        assert snap["requests"] == 5
        assert "plan_replays" in snap
        assert "made_up_counter" not in snap

    def test_unknown_field_raises_key_error(self):
        with pytest.raises(KeyError, match="made_up_counter"):
            self._snapshot()["made_up_counter"]

    def test_schema_mismatch_fails_loudly(self):
        stale = self._snapshot(schema=SHARD_STATS_SCHEMA_VERSION + 1)
        with pytest.raises(ClusterWorkerError, match="schema mismatch"):
            stale.validate()

    def test_non_int_field_fails_loudly(self):
        broken = self._snapshot(requests=None)
        with pytest.raises(ClusterWorkerError, match="requests"):
            broken.validate()

    def test_validate_passes_current_schema(self):
        snap = self._snapshot()
        assert snap.validate() is snap


# --------------------------------------------------------------------- #
# Snapshots + SLO
# --------------------------------------------------------------------- #
class TestSnapshots:
    def test_emit_and_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "obs" / "telemetry.jsonl")
        registry = MetricsRegistry()
        registry.counter("roundtrip.count").inc(3)
        tracer = Tracer()
        emitter = SnapshotEmitter(path, registry=registry, tracer=tracer)
        emitter.emit()
        emitter.emit(extra={"phase": "final"})
        snapshots = read_snapshots(path)
        assert len(snapshots) == 2
        assert snapshots[-1]["metrics"]["totals"]["roundtrip.count"] == 3
        assert snapshots[-1]["phase"] == "final"
        assert latest_snapshot(path)["pid"] > 0

    def test_corrupt_lines_skipped(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        registry = MetricsRegistry()
        SnapshotEmitter(path, registry=registry, tracer=Tracer()).emit()
        with open(path, "a") as handle:
            handle.write("{torn write\n")
        SnapshotEmitter(path, registry=registry, tracer=Tracer()).emit()
        assert len(read_snapshots(path)) == 2

    def test_missing_file_hint(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="--telemetry"):
            read_snapshots(str(tmp_path / "absent.jsonl"))

    def test_traces_serialised_in_snapshot(self, tmp_path):
        path = str(tmp_path / "telemetry.jsonl")
        tracer = Tracer()
        with use_tracer(tracer), use_tracing(True):
            with tracer.span("root", new_trace=True) as root:
                with span("leaf"):
                    pass
        SnapshotEmitter(
            path, registry=MetricsRegistry(), tracer=tracer
        ).emit()
        traces = latest_snapshot(path)["traces"]
        assert root.trace_id in traces
        assert {s["name"] for s in traces[root.trace_id]} == {"root", "leaf"}


class TestSLO:
    def test_parse_millis_to_seconds(self):
        assert parse_slo("p99=50") == {"p99": 0.05}
        assert parse_slo("p50=10, p99=50") == {"p50": 0.01, "p99": 0.05}

    @pytest.mark.parametrize("bad", ["p77=10", "p99=oops", "p99=-1", ""])
    def test_parse_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_slo(bad)

    def test_check_against_histogram(self):
        hist = Histogram("lat")
        hist.observe_many([0.001] * 90 + [0.2] * 10)
        assert check_slo(hist, {"p50": 0.05}) == []
        violations = check_slo(hist, {"p99": 0.01})
        assert violations and "p99" in violations[0]

    def test_check_against_snapshot_dict(self):
        snap = {"p50": 0.002, "p99": 0.08}
        assert check_slo(snap, {"p50": 0.05}) == []
        assert check_slo(snap, {"p99": 0.05})


# --------------------------------------------------------------------- #
# Histogram wire-state merging (cluster-wide quantiles)
# --------------------------------------------------------------------- #
class TestHistogramMerge:
    def test_state_roundtrip_preserves_quantiles(self):
        hist = Histogram("lat")
        hist.observe_many(np.random.default_rng(0).lognormal(size=500))
        clone = Histogram.from_state(hist.state())
        for q in (0.5, 0.9, 0.99):
            assert clone.quantile(q) == hist.quantile(q)
        assert clone.count == hist.count

    def test_merge_is_union_of_observations(self):
        fast, slow = Histogram("lat"), Histogram("lat")
        fast.observe_many([0.001] * 90)
        slow.observe_many([0.5] * 10)
        merged = merge_histogram_states([fast.state(), slow.state()])
        # The p99 of the union sees the slow shard's tail; a per-shard
        # average of p99s would not.
        assert merged.count == 100
        assert merged.quantile(0.99) >= 0.4
        assert merged.quantile(0.50) < 0.01

    def test_merge_accepts_live_histograms_and_states(self):
        left, right = Histogram("lat"), Histogram("lat")
        left.observe(0.01)
        right.observe(0.02)
        left.merge(right)
        left.merge(right.state())
        assert left.count == 3

    def test_merge_rejects_mismatched_bucket_config(self):
        left = Histogram("lat")
        right = Histogram("lat", lo=1e-3, hi=1e3)
        right.observe(0.5)
        with pytest.raises(ValueError, match="bucket mismatch"):
            left.merge(right.state())

    def test_empty_group_merges_to_none(self):
        assert merge_histogram_states([]) is None


# --------------------------------------------------------------------- #
# Named-histogram SLOs
# --------------------------------------------------------------------- #
class TestNamedSLO:
    def test_parse_named_keys(self):
        parsed = parse_slo("p99=50,p99:worker.compute=20")
        assert parsed == {"p99": 0.05, "p99:worker.compute": 0.02}

    def test_parse_rejects_unknown_quantile_with_target(self):
        with pytest.raises(ValueError, match="p77"):
            parse_slo("p77:worker.compute=20")

    def test_named_objective_checks_named_histogram(self):
        compute = Histogram("worker.compute")
        compute.observe_many([0.001] * 90 + [0.5] * 10)
        objectives = parse_slo("p99:worker.compute=600")
        assert check_slo(
            None, objectives, histograms={"worker.compute": compute}
        ) == []
        tight = parse_slo("p99:worker.compute=1")
        violations = check_slo(
            None, tight, histograms={"worker.compute": compute}
        )
        assert violations and "worker.compute" in violations[0]

    def test_missing_named_data_is_a_violation(self):
        objectives = parse_slo("p99:worker.compute=20")
        violations = check_slo(None, objectives, histograms={})
        assert violations == ["p99:worker.compute: no histogram data recorded"]

    def test_resolve_merges_label_sets_from_registry(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            for shard in (0, 1):
                hist = registry.histogram("worker.compute", shard=shard)
                hist.observe(0.01 * (shard + 1))
            resolved = resolve_slo_histograms(
                parse_slo("p99:worker.compute=100"), registry
            )
        assert resolved["worker.compute"].count == 2

    def test_bare_objectives_resolve_nothing(self):
        assert resolve_slo_histograms(parse_slo("p99=50")) == {}


# --------------------------------------------------------------------- #
# Schema v2 optional sections
# --------------------------------------------------------------------- #
class TestShardStatsOptionalSections:
    def _snapshot(self, **overrides):
        payload = dict(
            schema=SHARD_STATS_SCHEMA_VERSION,
            shard_id=0,
            owned=10,
            requests=5,
            version=1,
            hits=2,
            misses=3,
            invalidated=0,
            cache_size=3,
            plans_recorded=1,
            plan_replays=4,
            plan_fallbacks=0,
        )
        payload.update(overrides)
        return ShardStatsSnapshot(**payload)

    def test_sections_default_to_none_and_validate(self):
        snap = self._snapshot()
        assert snap.histograms is None and snap.profile is None
        assert snap.validate() is snap

    def test_dict_sections_validate(self):
        snap = self._snapshot(
            histograms={"worker.compute": Histogram("worker.compute").state()},
            profile={"ops": {}, "memory": {}},
        )
        assert snap.validate() is snap

    @pytest.mark.parametrize("section", ["histograms", "profile"])
    def test_non_dict_section_fails_loudly(self, section):
        broken = self._snapshot(**{section: 7})
        with pytest.raises(ClusterWorkerError, match=section):
            broken.validate()


# --------------------------------------------------------------------- #
# Emitter atexit + torn-line tolerance
# --------------------------------------------------------------------- #
class TestEmitterRobustness:
    def test_atexit_flush_registered_until_clean_stop(self, tmp_path):
        import atexit

        path = str(tmp_path / "obs.jsonl")
        emitter = SnapshotEmitter(
            path, registry=MetricsRegistry(), tracer=Tracer()
        )
        emitter.start()
        assert emitter._atexit_registered
        emitter.stop()
        assert not emitter._atexit_registered
        # stop() already unregistered the hook; simulate what atexit would
        # have done for a crashed run and check the payload marker.
        emitter._atexit_emit()
        final = latest_snapshot(path)
        assert final["atexit"] is True and final["final"] is True
        atexit.unregister(emitter._atexit_emit)  # hygiene if re-registered

    def test_truncated_last_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "obs.jsonl")
        emitter = SnapshotEmitter(
            path, registry=MetricsRegistry(), tracer=Tracer()
        )
        emitter.emit({"marker": 1})
        full_line = open(path, encoding="utf-8").read()
        # Simulate a watcher racing the writer: half a line, no newline,
        # cut inside a multi-byte character.
        with open(path, "ab") as handle:
            handle.write(full_line.encode()[: len(full_line) // 2])
            handle.write("é".encode()[:1])
        snapshots = read_snapshots(path)
        assert len(snapshots) == 1
        assert snapshots[0]["marker"] == 1
