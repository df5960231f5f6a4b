"""Sparse graph compute backend.

A CSR matrix type whose products run on SciPy's compiled CSR kernel, sparse
counterparts of the library's dense graph kernels (propagation
normalisations, Laplacians, k-hop BFS), an autodiff-integrated ``spmm`` and a
pluggable dense/sparse backend registry.
The registry defaults to ``"auto"``, which keeps small graphs on the exact
dense reference path and switches large low-density graphs to CSR — every
table/figure pipeline runs unmodified on either backend.
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
from repro.sparse.backend import (
    AUTO_MAX_DENSITY,
    AUTO_MIN_NODES,
    ComputeBackend,
    DenseBackend,
    DenseOperator,
    SparseBackend,
    SparseOperator,
    available_backends,
    build_propagation,
    get_backend,
    get_backend_name,
    register_backend,
    resolve_backend,
    set_backend,
    use_backend,
)

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
    "AUTO_MAX_DENSITY",
    "AUTO_MIN_NODES",
    "ComputeBackend",
    "DenseBackend",
    "DenseOperator",
    "SparseBackend",
    "SparseOperator",
    "available_backends",
    "build_propagation",
    "get_backend",
    "get_backend_name",
    "register_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
]
