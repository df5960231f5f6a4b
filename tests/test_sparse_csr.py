"""Unit tests for the CSR container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs.profile import KernelProfiler, use_profiler
from repro.sparse.csr import CSRMatrix


def random_sparse(rng, n=40, m=None, density=0.1):
    m = n if m is None else m
    dense = rng.random((n, m)) * (rng.random((n, m)) < density)
    return dense


class TestConstruction:
    def test_from_dense_roundtrip(self, rng):
        dense = random_sparse(rng)
        csr = CSRMatrix.from_dense(dense)
        assert csr.shape == dense.shape
        assert csr.nnz == np.count_nonzero(dense)
        np.testing.assert_allclose(csr.to_dense(), dense)

    def test_from_dense_rectangular(self, rng):
        dense = random_sparse(rng, n=7, m=13, density=0.3)
        np.testing.assert_allclose(CSRMatrix.from_dense(dense).to_dense(), dense)

    def test_from_coo_sums_duplicates(self):
        csr = CSRMatrix.from_coo(
            rows=[0, 0, 1], cols=[2, 2, 0], data=[1.0, 2.5, 4.0], shape=(2, 3)
        )
        expected = np.array([[0.0, 0.0, 3.5], [4.0, 0.0, 0.0]])
        np.testing.assert_allclose(csr.to_dense(), expected)
        assert csr.nnz == 2

    def test_from_edges_symmetric(self):
        edges = np.array([[0, 1], [1, 2]])
        csr = CSRMatrix.from_edges(edges, num_nodes=4)
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = dense[1, 2] = dense[2, 1] = 1.0
        np.testing.assert_allclose(csr.to_dense(), dense)

    def test_from_edges_directed_and_weighted(self):
        edges = np.array([[0, 1], [2, 0]])
        csr = CSRMatrix.from_edges(
            edges, num_nodes=3, weights=[2.0, 3.0], symmetric=False
        )
        dense = np.zeros((3, 3))
        dense[0, 1] = 2.0
        dense[2, 0] = 3.0
        np.testing.assert_allclose(csr.to_dense(), dense)

    def test_from_edges_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loops"):
            CSRMatrix.from_edges(np.array([[1, 1]]), num_nodes=3)

    def test_from_edges_empty(self):
        csr = CSRMatrix.from_edges(np.empty((0, 2), dtype=np.int64), num_nodes=5)
        assert csr.nnz == 0
        np.testing.assert_allclose(csr.to_dense(), np.zeros((5, 5)))

    def test_empty_matrix(self):
        csr = CSRMatrix.from_dense(np.zeros((0, 0)))
        assert csr.shape == (0, 0)
        assert csr.nnz == 0
        assert csr.to_dense().shape == (0, 0)

    def test_identity(self):
        np.testing.assert_allclose(CSRMatrix.identity(4).to_dense(), np.eye(4))
        np.testing.assert_allclose(
            CSRMatrix.identity(3, value=2.5).to_dense(), 2.5 * np.eye(3)
        )

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_coo([0], [5], [1.0], shape=(2, 3))
        with pytest.raises(ValueError):
            CSRMatrix.from_coo([-1], [0], [1.0], shape=(2, 3))


class TestStructure:
    def test_transpose(self, rng):
        dense = random_sparse(rng, n=9, m=17, density=0.25)
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(csr.T.to_dense(), dense.T)
        # cached: same object on repeated access, and T of T round-trips
        assert csr.T is csr.transpose()

    def test_row_sums_and_diagonal(self, rng):
        dense = random_sparse(rng, n=12, density=0.3)
        np.fill_diagonal(dense, rng.random(12) * (rng.random(12) < 0.5))
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(csr.row_sums(), dense.sum(axis=1))
        np.testing.assert_allclose(csr.diagonal(), np.diag(dense))

    def test_row_sums_with_empty_rows(self):
        dense = np.zeros((4, 4))
        dense[2, 1] = 3.0
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(csr.row_sums(), [0.0, 0.0, 3.0, 0.0])

    def test_scaling(self, rng):
        dense = random_sparse(rng, n=8, density=0.4)
        csr = CSRMatrix.from_dense(dense)
        row_f = rng.random(8) + 0.5
        col_f = rng.random(8) + 0.5
        np.testing.assert_allclose(
            csr.scale_rows(row_f).to_dense(), dense * row_f[:, None]
        )
        np.testing.assert_allclose(
            csr.scale_cols(col_f).to_dense(), dense * col_f[None, :]
        )
        np.testing.assert_allclose(csr.scale(2.0).to_dense(), 2.0 * dense)

    def test_add_identity(self, rng):
        dense = random_sparse(rng, n=10, density=0.2)
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(
            csr.add_identity().to_dense(), dense + np.eye(10)
        )

    def test_add(self, rng):
        a = random_sparse(rng, n=6, density=0.4)
        b = random_sparse(rng, n=6, density=0.4)
        total = CSRMatrix.from_dense(a) + CSRMatrix.from_dense(b)
        np.testing.assert_allclose(total.to_dense(), a + b)


class TestProducts:
    def test_matmul_dense_matrix(self, rng):
        dense = random_sparse(rng, n=15, m=11, density=0.3)
        other = rng.normal(size=(11, 4))
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(csr @ other, dense @ other, atol=1e-12)

    def test_matmul_vector(self, rng):
        dense = random_sparse(rng, n=15, m=11, density=0.3)
        vec = rng.normal(size=11)
        csr = CSRMatrix.from_dense(dense)
        np.testing.assert_allclose(csr @ vec, dense @ vec, atol=1e-12)

    def test_matmul_with_empty_rows(self, rng):
        dense = np.zeros((5, 5))
        dense[0, 3] = 2.0
        dense[4, 0] = 1.0
        other = rng.normal(size=(5, 3))
        np.testing.assert_allclose(
            CSRMatrix.from_dense(dense) @ other, dense @ other, atol=1e-12
        )

    def test_matmul_all_zero(self, rng):
        csr = CSRMatrix.from_dense(np.zeros((4, 4)))
        np.testing.assert_allclose(csr @ rng.normal(size=(4, 2)), np.zeros((4, 2)))

    def test_shape_mismatch(self, rng):
        csr = CSRMatrix.from_dense(np.eye(4))
        with pytest.raises(ValueError, match="shape mismatch"):
            csr @ rng.normal(size=(5, 2))

    def test_csr_csr_rejected(self):
        csr = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(TypeError):
            csr @ csr

    def test_memory_bytes_smaller_than_dense(self, rng):
        dense = random_sparse(rng, n=200, density=0.01)
        csr = CSRMatrix.from_dense(dense)
        assert csr.memory_bytes() < dense.nbytes


def gather_reduceat_product(matrix, other):
    """The NumPy gather + ``reduceat`` kernel ``matmul_dense`` once ran."""
    other = np.asarray(other, dtype=np.float64)
    if other.ndim == 1:
        contributions = matrix.data * other[matrix.indices]
    else:
        contributions = matrix.data[:, None] * other[matrix.indices]
    out = np.zeros((matrix.shape[0],) + contributions.shape[1:], dtype=np.float64)
    nonempty = np.flatnonzero(np.diff(matrix.indptr))
    if nonempty.size:
        out[nonempty] = np.add.reduceat(
            contributions, matrix.indptr[nonempty], axis=0
        )
    return out


def sparse_with_empty_rows(rng, rows, cols, density):
    dense = random_sparse(rng, n=rows, m=cols, density=density)
    dense[rng.random(rows) < 0.3] = 0.0
    return CSRMatrix.from_dense(dense)


class TestCompiledKernel:
    """``matmul_dense`` agrees with the gather + ``reduceat`` kernel."""

    def assert_matches_reference(self, matrix, other):
        out = matrix.matmul_dense(other)
        expected = gather_reduceat_product(matrix, other)
        assert out.dtype == np.float64
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)
        return out

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("features", [1, 3, 16])
    def test_random_with_empty_rows(self, seed, features):
        rng = np.random.default_rng(seed)
        matrix = sparse_with_empty_rows(rng, rows=60, cols=45, density=0.2)
        assert (np.diff(matrix.indptr) == 0).any()
        self.assert_matches_reference(matrix, rng.normal(size=(45, features)))
        self.assert_matches_reference(matrix, rng.normal(size=45))

    def test_no_stored_entries(self, rng):
        matrix = CSRMatrix.from_dense(np.zeros((6, 4)))
        assert matrix.nnz == 0
        out = self.assert_matches_reference(matrix, rng.normal(size=(4, 3)))
        assert not out.any()

    def test_zero_row_matrix(self, rng):
        matrix = CSRMatrix.from_coo([], [], [], shape=(0, 5))
        out = self.assert_matches_reference(matrix, rng.normal(size=(5, 3)))
        assert out.shape == (0, 3)
        assert self.assert_matches_reference(matrix, rng.normal(size=5)).shape == (0,)

    def test_zero_column_operand(self, rng):
        matrix = sparse_with_empty_rows(rng, rows=8, cols=6, density=0.4)
        out = self.assert_matches_reference(matrix, np.empty((6, 0)))
        assert out.shape == (8, 0)

    def test_vector_operand(self, rng):
        matrix = sparse_with_empty_rows(rng, rows=30, cols=20, density=0.3)
        out = self.assert_matches_reference(matrix, rng.normal(size=20))
        assert out.ndim == 1

    def test_fortran_ordered_operand(self, rng):
        matrix = sparse_with_empty_rows(rng, rows=30, cols=20, density=0.3)
        other = np.asfortranarray(rng.normal(size=(20, 7)))
        assert not other.flags.c_contiguous
        self.assert_matches_reference(matrix, other)

    def test_strided_operand(self, rng):
        matrix = sparse_with_empty_rows(rng, rows=30, cols=20, density=0.3)
        base = rng.normal(size=(40, 9))
        other = base[::2, 1::2]
        assert other.shape == (20, 4) and not other.flags.contiguous
        self.assert_matches_reference(matrix, other)
        self.assert_matches_reference(matrix, base[::2, 3])

    def test_integer_operand(self, rng):
        matrix = sparse_with_empty_rows(rng, rows=12, cols=10, density=0.4)
        other = rng.integers(-5, 6, size=(10, 3))
        self.assert_matches_reference(matrix, other)
        self.assert_matches_reference(matrix, other[:, 0])

    def test_result_is_fresh_and_inputs_untouched(self, rng):
        matrix = sparse_with_empty_rows(rng, rows=25, cols=25, density=0.3)
        other = rng.normal(size=(25, 4))
        before = (matrix.indptr.copy(), matrix.indices.copy(), matrix.data.copy())
        other_before = other.copy()
        out = matrix.matmul_dense(other)
        for array in (other, matrix.data, matrix.indices, matrix.indptr):
            assert not np.shares_memory(out, array)
        np.testing.assert_array_equal(other, other_before)
        for now, then in zip((matrix.indptr, matrix.indices, matrix.data), before):
            np.testing.assert_array_equal(now, then)

    def test_profiled_call_matches_and_records_one_spmm(self, rng):
        matrix = sparse_with_empty_rows(rng, rows=40, cols=30, density=0.2)
        other = rng.normal(size=(30, 5))
        plain = matrix.matmul_dense(other)
        profiler = KernelProfiler()
        with use_profiler(profiler):
            profiled = matrix.matmul_dense(other)
        np.testing.assert_array_equal(profiled, plain)
        table = profiler.table()
        assert set(table) == {"spmm"}
        assert table["spmm"]["calls"] == 1
        assert table["spmm"]["flops"] == 2 * matrix.nnz * 5


class TestIncrementalEdgeUpdates:
    """apply_edge_updates_csr / append_empty_node_csr (serving subsystem)."""

    def _random_adjacency(self, seed=0, n=50, density=0.1):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < density).astype(float)
        dense = np.triu(dense, 1)
        return dense + dense.T

    def test_add_and_remove_match_dense_reference(self):
        from repro.sparse.ops import apply_edge_updates_csr

        dense = self._random_adjacency()
        csr = CSRMatrix.from_dense(dense)
        add = np.array([[0, 1], [4, 9], [20, 45]])
        edges = np.stack(np.nonzero(np.triu(dense, 1)), axis=1)
        remove = edges[:6]
        updated = apply_edge_updates_csr(csr, add_pairs=add, remove_pairs=remove)
        reference = dense.copy()
        for i, j in add:
            reference[i, j] = reference[j, i] = 1.0
        for i, j in remove:
            reference[i, j] = reference[j, i] = 0.0
        assert updated.allclose(reference)
        # the original matrix is untouched (immutability convention)
        assert csr.allclose(dense)

    def test_redundant_updates_are_noops(self):
        from repro.sparse.ops import apply_edge_updates_csr

        dense = self._random_adjacency(seed=1)
        csr = CSRMatrix.from_dense(dense)
        edges = np.stack(np.nonzero(np.triu(dense, 1)), axis=1)
        non_edges = np.array([[i, j] for i in range(10) for j in range(i + 1, 10)
                              if dense[i, j] == 0][:4])
        # adding existing edges / removing absent ones changes nothing
        assert apply_edge_updates_csr(csr, add_pairs=edges[:3]).allclose(dense)
        assert apply_edge_updates_csr(csr, remove_pairs=non_edges).allclose(dense)
        assert apply_edge_updates_csr(csr) is csr

    def test_validation(self):
        from repro.sparse.ops import apply_edge_updates_csr

        csr = CSRMatrix.from_dense(self._random_adjacency())
        with pytest.raises(ValueError, match="self-loops"):
            apply_edge_updates_csr(csr, add_pairs=np.array([[3, 3]]))
        with pytest.raises(ValueError, match="out of range"):
            apply_edge_updates_csr(csr, remove_pairs=np.array([[0, 500]]))
        with pytest.raises(ValueError, match="shape"):
            apply_edge_updates_csr(csr, add_pairs=np.array([[0, 1, 2]]))

    def test_append_empty_node(self):
        from repro.sparse.ops import append_empty_node_csr, apply_edge_updates_csr

        dense = self._random_adjacency(seed=2, n=12)
        grown = append_empty_node_csr(CSRMatrix.from_dense(dense))
        assert grown.shape == (13, 13)
        expected = np.zeros((13, 13))
        expected[:12, :12] = dense
        assert grown.allclose(expected)
        connected = apply_edge_updates_csr(grown, add_pairs=np.array([[12, 0]]))
        expected[12, 0] = expected[0, 12] = 1.0
        assert connected.allclose(expected)

    def test_empty_graph_updates(self):
        from repro.sparse.ops import apply_edge_updates_csr

        empty = CSRMatrix.from_dense(np.zeros((5, 5)))
        updated = apply_edge_updates_csr(empty, add_pairs=np.array([[0, 4]]))
        reference = np.zeros((5, 5))
        reference[0, 4] = reference[4, 0] = 1.0
        assert updated.allclose(reference)


class TestRowSubsetAndSplice:
    """slice_rows / splice_rows_csr (the mutation fan-out and shard-worker commit kernels)."""

    def _random_adjacency(self, seed=0, n=40, density=0.12):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < density).astype(float)
        dense = np.triu(dense, 1)
        return dense + dense.T

    def test_row_subset_matches_dense_mask(self):
        """The rows a mutation ships (``slice_rows``) spliced into an empty
        structure reproduce exactly those rows of the source."""
        from repro.sparse.ops import splice_rows_csr

        dense = self._random_adjacency()
        csr = CSRMatrix.from_dense(dense)
        rows = np.array([0, 3, 7, 21, 39], dtype=np.int64)
        shipped = csr.slice_rows(rows)
        empty = CSRMatrix.from_dense(np.zeros_like(dense))
        subset = splice_rows_csr(empty, rows, shipped)
        expected = np.zeros_like(dense)
        expected[rows] = dense[rows]
        assert subset.shape == csr.shape
        assert subset.allclose(expected)
        # kept rows are byte-identical slices of the original arrays
        for row in rows:
            start, stop = csr.indptr[row], csr.indptr[row + 1]
            s2, e2 = subset.indptr[row], subset.indptr[row + 1]
            np.testing.assert_array_equal(
                subset.indices[s2:e2], csr.indices[start:stop]
            )

    def test_row_subset_validation(self):
        from repro.sparse.ops import splice_rows_csr

        csr = CSRMatrix.from_dense(self._random_adjacency())
        two = CSRMatrix.from_dense(np.zeros((2, csr.shape[1])))
        one = CSRMatrix.from_dense(np.zeros((1, csr.shape[1])))
        with pytest.raises(ValueError, match="sorted"):
            splice_rows_csr(csr, np.array([5, 3]), two)
        with pytest.raises(ValueError, match="sorted"):
            splice_rows_csr(csr, np.array([3, 3]), two)
        with pytest.raises(ValueError, match="out of bounds"):
            splice_rows_csr(csr, np.array([100]), one)
        with pytest.raises(ValueError, match="out of bounds"):
            csr.slice_rows(np.array([100]))

    def test_splice_replaces_and_clears_rows(self):
        from repro.sparse.ops import splice_rows_csr

        dense = self._random_adjacency(seed=3)
        csr = CSRMatrix.from_dense(dense)
        other = self._random_adjacency(seed=4)
        rows = np.array([2, 11, 30], dtype=np.int64)
        replacement = np.zeros((rows.size, dense.shape[1]))
        replacement[0] = other[2]
        replacement[1] = other[11]
        # row 30 stays all-zero: a cleared row
        spliced = splice_rows_csr(csr, rows, CSRMatrix.from_dense(replacement))
        expected = dense.copy()
        expected[2] = other[2]
        expected[11] = other[11]
        expected[30] = 0.0
        assert spliced.allclose(expected)
        assert csr.allclose(dense)  # input untouched

    def test_splice_empty_rows_is_identity(self):
        from repro.sparse.ops import splice_rows_csr

        csr = CSRMatrix.from_dense(self._random_adjacency(seed=5))
        empty = np.empty(0, dtype=np.int64)
        none = CSRMatrix.from_dense(np.zeros((0, csr.shape[1])))
        assert splice_rows_csr(csr, empty, none) is csr

    def test_splice_validation(self):
        from repro.sparse.ops import splice_rows_csr

        csr = CSRMatrix.from_dense(self._random_adjacency(seed=6))
        rows = np.array([1, 2], dtype=np.int64)
        wrong = CSRMatrix.from_dense(np.zeros((3, csr.shape[1])))
        with pytest.raises(ValueError, match="shape"):
            splice_rows_csr(csr, rows, wrong)
