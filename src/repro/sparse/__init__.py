"""Sparse graph compute: CSR matrices, kernels and propagation operators.

A CSR matrix type whose products run on SciPy's compiled CSR kernel, sparse
counterparts of the library's dense graph kernels (propagation
normalisations, Laplacians, k-hop BFS), an autodiff-integrated ``spmm`` and
the propagation operators every GNN layer applies.  CSR is the only
propagation path.
"""

from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import (
    append_empty_node_csr,
    apply_edge_updates_csr,
    binary_neighborhoods_csr,
    gather_neighbor_positions,
    gather_neighbors,
    gcn_norm_csr,
    induced_subgraph_csr,
    jaccard_pairs_csr,
    jaccard_similarity_csr,
    left_norm_csr,
    mean_aggregation_csr,
    laplacian_csr,
    normalized_laplacian_csr,
    shortest_path_hops_csr,
    splice_rows_csr,
)
from repro.sparse.autodiff import spmm, spmv
from repro.sparse.opcache import (
    OperatorCache,
    OperatorCacheStats,
    active_operator_cache,
    use_operator_cache,
)
from repro.sparse.backend import SparseOperator, build_propagation, use_backend

__all__ = [
    "CSRMatrix",
    "gcn_norm_csr",
    "left_norm_csr",
    "mean_aggregation_csr",
    "laplacian_csr",
    "normalized_laplacian_csr",
    "shortest_path_hops_csr",
    "binary_neighborhoods_csr",
    "jaccard_similarity_csr",
    "jaccard_pairs_csr",
    "gather_neighbor_positions",
    "gather_neighbors",
    "induced_subgraph_csr",
    "splice_rows_csr",
    "apply_edge_updates_csr",
    "append_empty_node_csr",
    "spmm",
    "spmv",
    "OperatorCache",
    "OperatorCacheStats",
    "active_operator_cache",
    "use_operator_cache",
    "SparseOperator",
    "build_propagation",
    "use_backend",
]
