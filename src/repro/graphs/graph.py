"""The :class:`Graph` container used across the library.

A graph is ``G = {A, X}`` with an optional label vector and train/val/test
masks, mirroring the notation of Section III of the paper.  The container is
immutable by convention: structure-modifying operations return new ``Graph``
instances (see :mod:`repro.graphs.perturb`).  Both the adjacency and the
feature matrix carry owned revision tags (:mod:`repro.graphs.revision`), the
keys of the operator cache (:mod:`repro.sparse.opcache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graphs.revision import next_revision, tag_adjacency
from repro.utils.validation import (
    check_adjacency,
    check_features,
    check_labels,
    check_mask,
    check_symmetric,
)


@dataclass
class Graph:
    """An undirected attributed graph.

    Attributes
    ----------
    adjacency:
        ``(N, N)`` symmetric binary (or weighted) adjacency matrix without
        self-loops.
    features:
        ``(N, F)`` node-feature matrix.  Immutable like the adjacency: it is
        tagged with an owned revision at construction, so derived products
        (GraphSAGE's input-layer neighbourhood mean) are cached against it.
        Work on a copy, or call :meth:`bump_revision` after an in-place
        change.
    labels:
        Optional ``(N,)`` integer class labels.
    train_mask / val_mask / test_mask:
        Optional boolean masks selecting labelled splits.
    name:
        Human-readable dataset name (used in experiment reports).
    metadata:
        Free-form dictionary (e.g. generator parameters for surrogates).
    """

    adjacency: np.ndarray
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    train_mask: Optional[np.ndarray] = None
    val_mask: Optional[np.ndarray] = None
    test_mask: Optional[np.ndarray] = None
    name: str = "graph"
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.adjacency = check_adjacency(self.adjacency)
        check_symmetric(self.adjacency, name="adjacency")
        if np.any(np.diag(self.adjacency) != 0):
            raise ValueError("adjacency must not contain self-loops")
        self.features = check_features(self.features, num_nodes=self.num_nodes)
        if self.labels is not None:
            self.labels = check_labels(self.labels, num_nodes=self.num_nodes)
        for mask_name in ("train_mask", "val_mask", "test_mask"):
            mask = getattr(self, mask_name)
            if mask is not None:
                setattr(
                    self,
                    mask_name,
                    check_mask(np.asarray(mask), num_nodes=self.num_nodes, name=mask_name),
                )
        self._revision = tag_adjacency(self.adjacency, owned=True)
        tag_adjacency(self.features, owned=True)
        self._csr_cache: Optional[Tuple[int, object]] = None

    # ------------------------------------------------------------------ #
    # Structure revision (operator-cache key)
    # ------------------------------------------------------------------ #
    @property
    def revision(self) -> int:
        """Monotonically increasing id of this graph's structure.

        Every constructed ``Graph`` receives a fresh process-unique revision
        (so structure-deriving helpers such as :meth:`with_adjacency` never
        alias an older graph's operators), and any in-place mutation of
        ``adjacency`` must call :meth:`bump_revision`.  Derived caches — the
        CSR view below and the propagation-operator cache in
        :mod:`repro.sparse.opcache` — key on this value, which is what makes
        serving a stale normalisation impossible.
        """
        return self._revision

    def bump_revision(self) -> int:
        """Declare an in-place mutation of ``adjacency`` or ``features``.

        Assigns a fresh revision, re-tags the adjacency and feature arrays
        and drops the cached CSR view.  Mutating either array without
        calling this voids the operator-cache contract.
        """
        self._revision = tag_adjacency(self.adjacency, owned=True)
        tag_adjacency(self.features, owned=True)
        self._csr_cache = None
        return self._revision

    def attach_csr(self, matrix) -> None:
        """Install an externally maintained CSR view of the current structure.

        The incremental-update path (``repro.serve.GraphSession``) edits CSR
        structure directly instead of round-tripping through the dense array;
        after mutating ``adjacency`` in place and calling
        :meth:`bump_revision`, it attaches the spliced CSR here so
        :meth:`csr` keeps serving an O(m) view instead of rebuilding from the
        dense matrix.  The caller guarantees ``matrix`` equals the dense
        structure; the matrix is tagged with the current revision so operator
        caches treat both representations as one structure.
        """
        from repro.sparse.csr import CSRMatrix

        if not isinstance(matrix, CSRMatrix):
            raise TypeError("attach_csr expects a CSRMatrix")
        if matrix.shape != self.adjacency.shape:
            raise ValueError(
                f"CSR shape {matrix.shape} does not match adjacency "
                f"{self.adjacency.shape}"
            )
        tag_adjacency(matrix, revision=self._revision, owned=True)
        self._csr_cache = (self._revision, matrix)

    def csr(self):
        """CSR view of the adjacency, cached per :attr:`revision`.

        The view is tagged with the same revision as the dense array, so
        propagation operators built from either representation share cache
        entries.  Edge extraction (:meth:`edge_list`, :meth:`non_edge_sample`)
        goes through this view: repeated attack evaluations touch O(m)
        adjacency lists instead of re-scanning the dense ``(N, N)`` matrix.
        """
        from repro.sparse.csr import CSRMatrix

        cached = self._csr_cache
        if cached is not None and cached[0] == self._revision:
            return cached[1]
        matrix = CSRMatrix.from_dense(self.adjacency)
        tag_adjacency(matrix, revision=self._revision, owned=True)
        self._csr_cache = (self._revision, matrix)
        return matrix

    # ------------------------------------------------------------------ #
    # Pickling
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> Dict:
        state = dict(self.__dict__)
        # Revisions are process-local counter values; a pickled one would
        # collide with unrelated structures in the loading process.  Drop the
        # CSR cache with it (it is keyed by the stale revision).
        state.pop("_revision", None)
        state.pop("_csr_cache", None)
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._revision = tag_adjacency(self.adjacency, owned=True)
        tag_adjacency(self.features, owned=True)
        self._csr_cache = None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return int(self.adjacency.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(np.count_nonzero(np.triu(self.adjacency, k=1)))

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise ValueError("graph has no labels")
        return int(self.labels.max()) + 1

    @property
    def degrees(self) -> np.ndarray:
        """Node degrees computed from the adjacency matrix."""
        return self.adjacency.sum(axis=1)

    def density(self) -> float:
        """Edge density ``2|E| / (N(N-1))``."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        return 2.0 * self.num_edges / (n * (n - 1))

    # ------------------------------------------------------------------ #
    # Edge views
    # ------------------------------------------------------------------ #
    def edge_list(self) -> np.ndarray:
        """Return a ``(E, 2)`` array of undirected edges with ``i < j``.

        Extracted from the cached CSR view — row-major with ascending columns,
        i.e. exactly the ordering of ``np.nonzero(np.triu(adjacency, k=1))`` —
        so repeated attack-pair extraction costs O(m), not O(N²).
        """
        csr = self.csr()
        rows, cols, _ = csr.to_coo()
        upper = rows < cols
        return np.stack([rows[upper], cols[upper]], axis=1)

    def non_edge_sample(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample ``count`` unconnected node pairs (i < j) uniformly.

        Sampling is rejection-based, which is efficient for sparse graphs.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        n = self.num_nodes
        csr = self.csr()
        indptr, indices = csr.indptr, csr.indices

        def connected(a: int, b: int) -> bool:
            row = indices[indptr[a] : indptr[a + 1]]
            position = int(np.searchsorted(row, b))
            return position < row.size and row[position] == b

        seen: set[tuple[int, int]] = set()
        result = []
        max_attempts = 50 * max(count, 1) + 1000
        attempts = 0
        while len(result) < count and attempts < max_attempts:
            attempts += 1
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            if i == j:
                continue
            a, b = (i, j) if i < j else (j, i)
            if (a, b) in seen or connected(a, b):
                continue
            seen.add((a, b))
            result.append((a, b))
        if len(result) < count:
            raise RuntimeError("could not sample enough non-edges; graph too dense")
        return np.asarray(result, dtype=np.int64)

    def neighbors(self, node: int) -> np.ndarray:
        """Indices of nodes adjacent to ``node``."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range")
        return np.nonzero(self.adjacency[node])[0]

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def with_adjacency(self, adjacency: np.ndarray) -> "Graph":
        """Return a copy of this graph with a different structure."""
        return replace(self, adjacency=np.asarray(adjacency, dtype=np.float64).copy())

    def with_masks(
        self,
        train_mask: np.ndarray,
        val_mask: np.ndarray,
        test_mask: np.ndarray,
    ) -> "Graph":
        """Return a copy of this graph with new split masks."""
        return replace(
            self,
            train_mask=np.asarray(train_mask, dtype=bool).copy(),
            val_mask=np.asarray(val_mask, dtype=bool).copy(),
            test_mask=np.asarray(test_mask, dtype=bool).copy(),
        )

    def copy(self) -> "Graph":
        """Deep copy of the graph."""
        return Graph(
            adjacency=self.adjacency.copy(),
            features=self.features.copy(),
            labels=None if self.labels is None else self.labels.copy(),
            train_mask=None if self.train_mask is None else self.train_mask.copy(),
            val_mask=None if self.val_mask is None else self.val_mask.copy(),
            test_mask=None if self.test_mask is None else self.test_mask.copy(),
            name=self.name,
            metadata=dict(self.metadata),
        )

    def train_indices(self) -> np.ndarray:
        """Indices of training nodes (requires ``train_mask``)."""
        if self.train_mask is None:
            raise ValueError("graph has no train mask")
        return np.nonzero(self.train_mask)[0]

    def val_indices(self) -> np.ndarray:
        """Indices of validation nodes (requires ``val_mask``)."""
        if self.val_mask is None:
            raise ValueError("graph has no val mask")
        return np.nonzero(self.val_mask)[0]

    def test_indices(self) -> np.ndarray:
        """Indices of test nodes (requires ``test_mask``)."""
        if self.test_mask is None:
            raise ValueError("graph has no test mask")
        return np.nonzero(self.test_mask)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph(name={self.name!r}, nodes={self.num_nodes}, edges={self.num_edges}, "
            f"features={self.num_features})"
        )
