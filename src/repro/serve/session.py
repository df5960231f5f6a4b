"""Mutable graph session: incremental structure updates for online serving.

The library's :class:`~repro.graphs.graph.Graph` is immutable by convention
and dense by construction — the right shape for offline reproduction, the
wrong one for a server that must keep answering while edges arrive.  A
:class:`GraphSession` wraps the structure an inference engine serves from:

* the adjacency lives as a :class:`~repro.sparse.csr.CSRMatrix` that is
  edited *incrementally* (:func:`~repro.sparse.ops.apply_edge_updates_csr`
  splices only the touched rows; no dense round-trip, no O(N²) rebuild);
* every mutation bumps the structure revision (the same registry the
  operator caches key on) and increments a deterministic session ``version``
  counter (the sampling key of the serving engine — process-independent,
  unlike revision ids);
* listeners (inference engines) are notified with the old and new structure
  plus the touched endpoints, and compute their k-hop dirty sets with the
  shared frontier kernels — so only predictions whose receptive field saw
  the change are invalidated.

A session can optionally stay *attached* to a ``Graph``: mutations then also
edit the dense adjacency in place, bump the graph's revision and re-attach
the spliced CSR via :meth:`Graph.attach_csr`, keeping offline evaluation and
online serving views of the same structure coherent (the staleness tests
compare exactly these two paths).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.revision import next_revision, tag_adjacency
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import append_empty_node_csr, apply_edge_updates_csr

__all__ = ["MutationEvent", "GraphSession"]


class MutationEvent:
    """One structure mutation, as broadcast to session listeners.

    ``endpoints`` are the edge endpoints of the mutation (sorted, unique):
    the only CSR rows whose stored content can change, and the seeds that
    dirty-set invalidation expands from.
    """

    __slots__ = ("old_csr", "new_csr", "endpoints", "revision", "version")

    def __init__(
        self,
        old_csr: CSRMatrix,
        new_csr: CSRMatrix,
        endpoints: np.ndarray,
        revision: int,
        version: int,
    ) -> None:
        self.old_csr = old_csr
        self.new_csr = new_csr
        self.endpoints = endpoints
        self.revision = revision
        self.version = version


MutationListener = Callable[[MutationEvent], None]


class GraphSession:
    """A mutable adjacency + features pair with change notification.

    Parameters
    ----------
    adjacency:
        Initial structure as a :class:`CSRMatrix` (benchmark scale) or a
        dense symmetric array.
    features:
        ``(N, F)`` node-feature matrix; grown by :meth:`add_node`.
    graph:
        Optional attached :class:`Graph` kept coherent with the session (its
        dense adjacency is edited in place and its revision bumped on every
        mutation).  Use :meth:`from_graph` to build both from one object.
    initial_version:
        Starting value of the deterministic mutation counter.  Replica
        sessions (cluster shard workers) start from the primary session's
        current counter so their sampling keys stay aligned with it.
    """

    def __init__(
        self,
        adjacency,
        features: np.ndarray,
        graph: Optional[Graph] = None,
        initial_version: int = 0,
    ) -> None:
        if isinstance(adjacency, CSRMatrix):
            self._csr = adjacency
        else:
            self._csr = CSRMatrix.from_dense(np.asarray(adjacency, dtype=np.float64))
        if self._csr.shape[0] != self._csr.shape[1]:
            raise ValueError("adjacency must be square")
        self.features = np.asarray(features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != self._csr.shape[0]:
            raise ValueError(
                "features must be (N, F) with one row per adjacency node"
            )
        self._graph = graph
        if graph is not None:
            if graph.adjacency.shape != self._csr.shape:
                raise ValueError("attached graph does not match the adjacency")
            graph.attach_csr(self._csr)
            self._revision = graph.revision
        else:
            self._revision = tag_adjacency(self._csr, owned=True)
        if initial_version < 0:
            raise ValueError("initial_version must be non-negative")
        self._version = int(initial_version)
        self._listeners: List[MutationListener] = []

    @classmethod
    def from_graph(cls, graph: Graph) -> "GraphSession":
        """A session over ``graph``'s structure, kept coherent with it."""
        return cls(graph.csr(), graph.features, graph=graph)

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def csr(self) -> CSRMatrix:
        """The current CSR adjacency (immutable snapshot; replaced on edit)."""
        return self._csr

    @property
    def graph(self) -> Optional[Graph]:
        return self._graph

    @property
    def num_nodes(self) -> int:
        return self._csr.shape[0]

    @property
    def revision(self) -> int:
        """Process-unique structure revision (cache key of derived operators)."""
        return self._revision

    @property
    def version(self) -> int:
        """Deterministic mutation counter (sampling key of serving engines).

        Starts at 0 and increments by one per mutation — unlike
        :attr:`revision` it is reproducible across processes, so keyed
        sampled serving draws identical neighbourhoods in every run with the
        same mutation history.
        """
        return self._version

    def add_listener(self, listener: MutationListener) -> None:
        """Register a callback invoked after every structure mutation."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def add_edges(self, pairs: np.ndarray) -> int:
        """Insert undirected edges; returns the new revision.

        Existing edges are left untouched (idempotent).  Only the incident
        rows of the CSR are re-assembled.
        """
        pairs = self._check_pairs(pairs)
        new_csr = apply_edge_updates_csr(self._csr, add_pairs=pairs)
        return self._commit(new_csr, pairs, dense_value=1.0)

    def remove_edges(self, pairs: np.ndarray) -> int:
        """Delete undirected edges (absent edges are a no-op); returns the new revision."""
        pairs = self._check_pairs(pairs)
        new_csr = apply_edge_updates_csr(self._csr, remove_pairs=pairs)
        return self._commit(new_csr, pairs, dense_value=0.0)

    def add_node(
        self,
        features_row: np.ndarray,
        neighbors: Optional[np.ndarray] = None,
        label: int = 0,
    ) -> int:
        """Append one node (index ``N``) with optional initial edges.

        Returns the new node's index.  When a ``Graph`` is attached, its
        dense arrays are grown as well; the new node receives ``label`` and
        stays outside every split mask (serving-only nodes are never
        training data).
        """
        features_row = np.asarray(features_row, dtype=np.float64).reshape(-1)
        if features_row.size != self.features.shape[1]:
            raise ValueError(
                f"features_row must have {self.features.shape[1]} entries"
            )
        node = self.num_nodes
        # Validate the neighbour list before growing any state: a failed add
        # must leave the session (and any attached Graph) untouched.
        if neighbors is not None:
            neighbors = np.asarray(neighbors, dtype=np.int64).reshape(-1)
            if neighbors.size and (neighbors.min() < 0 or neighbors.max() >= node):
                raise ValueError(
                    "neighbors must be existing node indices "
                    f"(0..{node - 1})"
                )
        old_csr = self._csr
        grown = append_empty_node_csr(old_csr)
        self.features = np.vstack([self.features, features_row[None, :]])

        graph = self._graph
        if graph is not None:
            n = graph.num_nodes
            adjacency = np.zeros((n + 1, n + 1), dtype=np.float64)
            adjacency[:n, :n] = graph.adjacency
            graph.adjacency = adjacency
            graph.features = self.features
            if graph.labels is not None:
                graph.labels = np.concatenate(
                    [graph.labels, np.asarray([label], dtype=graph.labels.dtype)]
                )
            for mask_name in ("train_mask", "val_mask", "test_mask"):
                mask = getattr(graph, mask_name)
                if mask is not None:
                    setattr(graph, mask_name, np.concatenate([mask, [False]]))

        pairs = np.empty((0, 2), dtype=np.int64)
        if neighbors is not None and neighbors.size:
            pairs = np.stack(
                [np.full(neighbors.size, node, dtype=np.int64), neighbors], axis=1
            )
        new_csr = apply_edge_updates_csr(grown, add_pairs=pairs) if pairs.size else grown
        self._commit(new_csr, pairs, dense_value=1.0, old_csr=old_csr)
        return node

    def replace_structure(
        self,
        new_csr: CSRMatrix,
        endpoints: np.ndarray,
        features: Optional[np.ndarray] = None,
    ) -> int:
        """Commit an externally assembled structure; returns the new revision.

        The cluster shard worker's commit path: the router ships the new rows
        of a mutation's endpoints and the worker installs the spliced CSR
        here — one revision + version bump and one listener broadcast,
        exactly like a local mutation.  ``endpoints`` are the mutation
        endpoints (the changed rows and dirty-set seeds); ``features``
        optionally replaces the feature matrix (grown node set).  Not
        available on sessions attached to a dense :class:`Graph` — the
        external structure has no dense counterpart to keep coherent.
        """
        if self._graph is not None:
            raise ValueError(
                "replace_structure is not supported on graph-attached sessions"
            )
        if new_csr.shape[0] != new_csr.shape[1]:
            raise ValueError("new_csr must be square")
        if new_csr.shape[0] < self._csr.shape[0]:
            raise ValueError("structure can only grow or stay the same size")
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.ndim != 2 or features.shape[0] != new_csr.shape[0]:
                raise ValueError(
                    "features must be (N, F) with one row per adjacency node"
                )
            self.features = features
        elif new_csr.shape[0] != self.features.shape[0]:
            raise ValueError("grown structure needs a grown feature matrix")
        old_csr = self._csr
        self._csr = new_csr
        self._revision = next_revision()
        tag_adjacency(new_csr, revision=self._revision, owned=True)
        self._version += 1
        endpoints = np.asarray(endpoints, dtype=np.int64).reshape(-1)
        event = MutationEvent(
            old_csr=old_csr,
            new_csr=new_csr,
            endpoints=endpoints,
            revision=self._revision,
            version=self._version,
        )
        for listener in self._listeners:
            listener(event)
        return self._revision

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _check_pairs(self, pairs: np.ndarray) -> np.ndarray:
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("pairs must have shape (M, 2)")
        if pairs.min() < 0 or pairs.max() >= self.num_nodes:
            raise ValueError("pair indices out of range")
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ValueError("self-loops are not allowed")
        return pairs

    def _commit(
        self,
        new_csr: CSRMatrix,
        pairs: np.ndarray,
        dense_value: float,
        old_csr: Optional[CSRMatrix] = None,
    ) -> int:
        old = old_csr if old_csr is not None else self._csr
        self._csr = new_csr
        graph = self._graph
        if graph is not None:
            for i, j in pairs:
                # Mirror the CSR kernel's semantics exactly: adding an edge
                # that already exists keeps its stored weight (only absent
                # entries become 1.0); removals always zero.
                if dense_value == 0.0 or graph.adjacency[i, j] == 0.0:
                    graph.adjacency[i, j] = dense_value
                    graph.adjacency[j, i] = dense_value
            self._revision = graph.bump_revision()
            graph.attach_csr(new_csr)
        else:
            self._revision = next_revision()
            tag_adjacency(new_csr, revision=self._revision, owned=True)
        self._version += 1
        endpoints = np.unique(pairs.reshape(-1)) if pairs.size else np.empty(
            0, dtype=np.int64
        )
        event = MutationEvent(
            old_csr=old,
            new_csr=new_csr,
            endpoints=endpoints,
            revision=self._revision,
            version=self._version,
        )
        for listener in self._listeners:
            listener(event)
        return self._revision
