"""Finite-difference gradcheck over every registered autodiff primitive.

The cases below are keyed by primitive name; the suite asserts that the VJP
registry contains no primitive without a gradcheck case, so registering a
new op without numerical coverage fails loudly.
"""

import numpy as np
import pytest

import repro.sparse.autodiff  # noqa: F401 - registers the spmm/spmv primitives
from repro.nn.autodiff import registered_primitives, unbroadcast
from repro.nn.gradcheck import gradcheck
from repro.nn.losses import cross_entropy
from repro.nn.tensor import Tensor, concatenate, stack
from repro.sparse import CSRMatrix
from repro.sparse.autodiff import spmm, spmv


def _rng(seed=0):
    return np.random.default_rng(seed)


def _csr(seed=0, shape=(5, 4), density=0.5):
    rng = _rng(seed)
    dense = rng.normal(size=shape) * (rng.random(shape) < density)
    return CSRMatrix.from_dense(dense)


_CSR = _csr()
_MASK = np.array([[True, False, False], [False, True, False]])

# primitive name -> list of (function, inputs) gradcheck cases.  Inputs are
# chosen away from kinks (relu/abs at 0, max ties) so central differences are
# valid; tie-breaking at kinks is covered by exact-value tests below.
CASES = {
    "add": [
        (lambda a, b: a + b, [_rng(0).normal(size=(3, 4)), _rng(1).normal(size=(3, 4))]),
        (lambda a, b: a + b, [_rng(2).normal(size=(3, 4)), _rng(3).normal(size=(1, 4))]),
        (lambda a, b: a + b, [_rng(4).normal(size=(3, 4)), np.array(0.7)]),
    ],
    "neg": [(lambda a: -a, [_rng(0).normal(size=(2, 3))])],
    "mul": [
        (lambda a, b: a * b, [_rng(0).normal(size=(3, 4)), _rng(1).normal(size=(3, 4))]),
        (lambda a, b: a * b, [_rng(2).normal(size=(4,)), _rng(3).normal(size=(2, 4))]),
    ],
    "div": [
        (
            lambda a, b: a / b,
            [_rng(0).normal(size=(3, 3)), _rng(1).normal(size=(3, 3)) + 3.0],
        )
    ],
    "pow": [
        (lambda a: (a * a + 1.0) ** 1.7, [_rng(0).normal(size=(4,))]),
        (lambda a: a**3, [_rng(1).normal(size=(3, 2))]),
    ],
    "matmul": [
        (lambda a, b: a @ b, [_rng(0).normal(size=(3, 4)), _rng(1).normal(size=(4, 2))])
    ],
    "transpose": [(lambda a: a.T, [_rng(0).normal(size=(3, 5))])],
    "reshape": [(lambda a: a.reshape(6), [_rng(0).normal(size=(2, 3))])],
    "take": [
        (lambda a: a[np.array([0, 2, 2])], [_rng(0).normal(size=(4, 3))]),
        (lambda a: a[1:3], [_rng(1).normal(size=(5, 2))]),
        (lambda a: a[np.arange(3), np.array([1, 0, 2])], [_rng(2).normal(size=(3, 3)) ]),
    ],
    "sum": [
        (lambda a: a.sum(), [_rng(0).normal(size=(3, 4))]),
        (lambda a: a.sum(axis=0), [_rng(1).normal(size=(3, 4))]),
        (lambda a: a.sum(axis=(0, 2)), [_rng(2).normal(size=(2, 3, 4))]),
        (lambda a: a.sum(axis=1, keepdims=True), [_rng(3).normal(size=(3, 4))]),
        (lambda a: a.sum(axis=-1), [_rng(4).normal(size=(2, 5))]),
    ],
    "max": [
        (lambda a: a.max(), [_rng(0).normal(size=(3, 4))]),
        (lambda a: a.max(axis=1), [_rng(1).normal(size=(3, 4))]),
        (lambda a: a.max(axis=0, keepdims=True), [_rng(2).normal(size=(3, 4))]),
    ],
    "exp": [(lambda a: a.exp(), [_rng(0).normal(size=(3, 3))])],
    "log": [(lambda a: (a * a + 0.5).log(), [_rng(0).normal(size=(3, 3))])],
    "abs": [(lambda a: (a + 0.1).abs(), [_rng(5).normal(size=(8,))])],
    "relu": [(lambda a: (a + 0.05).relu(), [_rng(3).normal(size=(10,))])],
    "leaky_relu": [
        (lambda a: (a + 0.05).leaky_relu(0.1), [_rng(3).normal(size=(10,))])
    ],
    "elu": [(lambda a: a.elu(), [_rng(4).normal(size=(10,))])],
    "sigmoid": [(lambda a: a.sigmoid(), [_rng(0).normal(size=(6,))])],
    "tanh": [(lambda a: a.tanh(), [_rng(0).normal(size=(6,))])],
    "masked_fill": [
        (lambda a: a.masked_fill(_MASK, -5.0), [_rng(0).normal(size=(2, 3))])
    ],
    "concatenate": [
        (
            lambda a, b: concatenate([a, b], axis=1),
            [_rng(0).normal(size=(2, 3)), _rng(1).normal(size=(2, 2))],
        ),
        (
            lambda a, b: concatenate([a, b], axis=-1),
            [_rng(2).normal(size=(2, 3)), _rng(3).normal(size=(2, 2))],
        ),
    ],
    "spmm": [(lambda x: spmm(_CSR, x), [_rng(0).normal(size=(4, 3))])],
    "spmv": [(lambda x: spmv(_CSR, x), [_rng(0).normal(size=(4,))])],
}


class TestRegistryCoverage:
    def test_every_primitive_has_a_gradcheck_case(self):
        registered = set(registered_primitives())
        missing = registered - set(CASES)
        assert not missing, f"primitives without gradcheck cases: {sorted(missing)}"

    @pytest.mark.parametrize(
        "name,case_index,function,inputs",
        [
            (name, index, function, inputs)
            for name, cases in sorted(CASES.items())
            for index, (function, inputs) in enumerate(cases)
        ],
        ids=lambda value: value if isinstance(value, (str, int)) else "",
    )
    def test_primitive_gradcheck(self, name, case_index, function, inputs):
        assert name in registered_primitives()
        assert gradcheck(function, inputs, seed=11 + case_index)


class TestCompositeGradients:
    """Composite ops built from primitives, through the same harness."""

    def test_stack_negative_axis(self):
        inputs = [_rng(0).normal(size=(2, 3)), _rng(1).normal(size=(2, 3))]
        assert gradcheck(lambda a, b: stack([a, b], axis=-1), inputs)

    def test_mean_tuple_axis(self):
        assert gradcheck(lambda a: a.mean(axis=(0, 2)), [_rng(0).normal(size=(2, 3, 4))])

    def test_softmax_log_softmax(self):
        assert gradcheck(lambda a: a.softmax(axis=1), [_rng(0).normal(size=(3, 4))])
        assert gradcheck(lambda a: a.log_softmax(axis=1), [_rng(1).normal(size=(3, 4))])

    def test_cross_entropy_gather(self):
        targets = np.array([0, 2, 1, 2])
        assert gradcheck(
            lambda logits: cross_entropy(logits, targets),
            [_rng(0).normal(size=(4, 3))],
        )

    @pytest.mark.parametrize("operator_form", ["dense", "sparse"])
    def test_two_layer_gcn_loss(self, operator_form):
        """End-to-end gradcheck of a GCN-shaped loss through a dense matmul
        and through the CSR ``spmm``."""
        rng = _rng(7)
        n, f, h, c = 6, 5, 4, 3
        adjacency = (rng.random((n, n)) < 0.4).astype(np.float64)
        adjacency = np.maximum(adjacency, adjacency.T)
        np.fill_diagonal(adjacency, 1.0)
        degrees = adjacency.sum(axis=1)
        operator_dense = adjacency / np.sqrt(np.outer(degrees, degrees))
        features = rng.normal(size=(n, f))
        labels = rng.integers(0, c, size=n)
        csr = CSRMatrix.from_dense(operator_dense)

        def propagate(tensor):
            if operator_form == "sparse":
                return spmm(csr, tensor)
            return Tensor(operator_dense).matmul(tensor)

        def loss(w1, w2):
            hidden = propagate(Tensor(features).matmul(w1)).tanh()
            logits = propagate(hidden.matmul(w2))
            return cross_entropy(logits, labels)

        assert gradcheck(
            loss,
            [rng.normal(size=(f, h)) * 0.5, rng.normal(size=(h, c)) * 0.5],
            atol=1e-4,
            rtol=1e-3,
        )


class TestMaxTieBreaking:
    """Exact-value tests for max backward where finite differences fail."""

    def test_ties_share_gradient_equally_axis(self):
        x = Tensor(np.array([[1.0, 3.0, 3.0], [2.0, 2.0, 1.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(
            x.grad, np.array([[0.0, 0.5, 0.5], [0.5, 0.5, 0.0]])
        )

    def test_ties_share_gradient_equally_global(self):
        x = Tensor(np.array([4.0, 4.0, 1.0, 4.0]), requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, np.array([1 / 3, 1 / 3, 0.0, 1 / 3]))

    def test_keepdims_ties(self):
        x = Tensor(np.array([[2.0, 2.0]]), requires_grad=True)
        (x.max(axis=1, keepdims=True) * 4.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.array([[2.0, 2.0]]))


class TestUnbroadcast:
    """Shape-reduction behaviour of the engine's unbroadcast helper."""

    @pytest.mark.parametrize(
        "grad_shape,target_shape",
        [
            ((5, 3, 4), (3, 4)),
            ((3, 4), (1, 4)),
            ((3, 4), (3, 1)),
            ((2, 3, 4), (1, 3, 1)),
            ((6,), ()),
            ((4, 4), (4, 4)),
        ],
    )
    def test_matches_sum_over_broadcast_axes(self, grad_shape, target_shape):
        grad = _rng(0).normal(size=grad_shape)
        reduced = unbroadcast(grad, target_shape)
        assert reduced.shape == target_shape
        expected = np.broadcast_to(np.ones(target_shape), grad_shape) * 0 + grad
        while expected.ndim > len(target_shape):
            expected = expected.sum(axis=0)
        for axis, size in enumerate(target_shape):
            if size == 1 and expected.shape[axis] != 1:
                expected = expected.sum(axis=axis, keepdims=True)
        np.testing.assert_allclose(reduced, expected.reshape(target_shape))

    def test_broadcast_gradients_have_input_shapes(self):
        left = Tensor(np.ones((3, 4)), requires_grad=True)
        right = Tensor(np.ones((1, 4)), requires_grad=True)
        scalar = Tensor(2.0, requires_grad=True)
        ((left * right) + scalar).sum().backward()
        assert left.grad.shape == (3, 4)
        assert right.grad.shape == (1, 4)
        assert scalar.grad.shape == ()
        np.testing.assert_allclose(right.grad, np.full((1, 4), 3.0))
        assert scalar.grad == pytest.approx(12.0)
