"""Seeded inputs of the benchmark workloads.

Every function here is a pure function of the run's seed (and of the sizes
it is given), so the same seed always yields the same request stream, edge
insertions and dataset order.  The program under test only ever receives
these arrays.
"""

from __future__ import annotations

import functools

import numpy as np

# Independent random streams of one seed (spawn keys of numpy's SeedSequence).
_READS, _WRITES, _CHECKS, _PROBES, _ORDER, _WARMUP, _POPULARITY = range(7)


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *key])


def warmup_nodes(seed: int, num_nodes: int, count: int) -> np.ndarray:
    """Distinct nodes of the set-up request that records the serving plan."""
    return np.sort(_rng(seed, _WARMUP).choice(num_nodes, size=count, replace=False))


def uniform_burst(seed: int, index: int, num_nodes: int, size: int) -> np.ndarray:
    """Burst ``index`` of a closed-loop client: ``size`` uniform node ids."""
    return _rng(seed, _READS, index).integers(0, num_nodes, size=size)


def check_positions(seed: int, index: int, size: int, count: int) -> np.ndarray:
    """Positions within burst ``index`` whose responses are kept for checking."""
    return np.sort(_rng(seed, _CHECKS, index).choice(size, size=count, replace=False))


def edge_pairs(seed: int, num_nodes: int, count: int) -> np.ndarray:
    """``count`` node pairs ``(u, v)`` with ``u != v``, to insert as edges."""
    rng = _rng(seed, _WRITES)
    u = rng.integers(0, num_nodes, size=count)
    v = rng.integers(0, num_nodes - 1, size=count)
    v = np.where(v >= u, v + 1, v)  # uniform over the other nodes
    return np.stack([u, v], axis=1).astype(np.int64)


def probe_nodes(seed: int, candidates: np.ndarray, count: int) -> np.ndarray:
    """``count`` distinct nodes from ``candidates`` to re-query after a run."""
    candidates = np.unique(candidates)
    count = min(count, candidates.size)
    return np.sort(_rng(seed, _PROBES).choice(candidates, size=count, replace=False))


def popularity(seed: int, num_nodes: int) -> np.ndarray:
    """A ranking of all nodes, most popular first."""
    return _rng(seed, _POPULARITY).permutation(num_nodes)


@functools.lru_cache(maxsize=4)
def _zipf_cdf(count: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, count + 1, dtype=np.float64) ** -exponent
    return np.cumsum(weights / weights.sum())


def zipf_burst(
    seed: int, index: int, ranking: np.ndarray, size: int, exponent: float
) -> np.ndarray:
    """Burst ``index`` of ``size`` reads of the nodes in ``ranking``, whose
    popularity follows Zipf(``exponent``) by rank (bounded, so every draw is
    a valid node)."""
    cdf = _zipf_cdf(ranking.size, exponent)
    draws = _rng(seed, _READS, index).random(size)
    return ranking[np.minimum(np.searchsorted(cdf, draws), ranking.size - 1)]


def dataset_order(seed: int, count: int) -> np.ndarray:
    """The order in which a client lists the ``count`` datasets of a table."""
    return _rng(seed, _ORDER).permutation(count)
