"""End-to-end tests for ``python -m repro.serve serve``.

One request loop drives either a single :class:`InferenceEngine` or, with
``--shards N``, a :class:`ShardRouter` over worker processes.  These tests
call the CLI's ``main`` on a small registered GCN and check what each front
end promises: ``--verify`` agreement with a fresh engine, a telemetry
snapshot that spans the whole cluster, and an exit code of 1 on an SLO
breach.
"""

from __future__ import annotations

import pytest

from repro.obs.snapshot import latest_snapshot
from repro.obs.trace import set_telemetry, telemetry
from repro.serve.__main__ import main


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("registry"))
    argv = ["train", "--registry", root, "--epochs", "5", "--scale", "0.45"]
    assert main(argv) == 0
    return root


@pytest.fixture
def restore_flags():
    """``--telemetry``/``--profile`` switch the process-wide default on; put
    it back so later tests run with telemetry as configured."""
    before = telemetry()
    yield
    set_telemetry(spans=before.spans, kernels=before.kernels)


def serve(registry, *extra):
    argv = ["serve", "--registry", registry, "--name", "cora-gcn", "--requests", "40"]
    return main(argv + list(extra))


def test_single_engine_verify(registry, capsys):
    assert serve(registry, "--mutate", "8", "--verify") == 0
    out = capsys.readouterr().out
    assert "logit cache:" in out
    assert "verify vs fresh engine: OK" in out


def test_sharded_verify(registry, capsys):
    assert serve(registry, "--shards", "2", "--mutate", "8", "--verify") == 0
    out = capsys.readouterr().out
    assert "shard 1:" in out
    assert "verify vs fresh engine: OK" in out


def test_sharded_telemetry_snapshot_spans_the_cluster(
    registry, tmp_path, restore_flags
):
    path = str(tmp_path / "cluster.jsonl")
    args = ("--shards", "2", "--telemetry", "--profile", "--obs-path", path)
    assert serve(registry, *args) == 0
    snapshot = latest_snapshot(path)
    pids = [{s["pid"] for s in spans} for spans in snapshot["traces"].values()]
    assert max(len(p) for p in pids) >= 2, "no trace stitched across processes"
    metrics = snapshot["metrics"]
    assert metrics["collectors"]["profile.kernels"]["ops"]
    histograms = {name.split("{")[0] for name in metrics["histograms"]}
    assert {"serve.cli.latency", "worker.compute"} <= histograms


@pytest.mark.parametrize("shards", [None, 2])
def test_slo_breach_exits_1(registry, shards, capsys):
    extra = [] if shards is None else ["--shards", str(shards)]
    assert serve(registry, "--slo", "p99=0.000001", *extra) == 1
    assert "SLO FAIL" in capsys.readouterr().out


def test_shards_must_be_positive(registry):
    with pytest.raises(SystemExit, match="shards must be at least 1"):
        serve(registry, "--shards", "0")
