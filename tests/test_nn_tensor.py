"""Autodiff correctness tests: analytic gradients vs numerical differentiation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.tensor import Tensor, concatenate, no_grad, stack


def numerical_gradient(function, value, eps=1e-6):
    """Central-difference gradient of a scalar-valued function of an array."""
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    flat = value.ravel()
    grad_flat = grad.ravel()
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        plus = function(value)
        flat[index] = original - eps
        minus = function(value)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * eps)
    return grad


def check_gradient(build, shape, seed=0, atol=1e-5):
    """Compare the autodiff gradient of ``build(tensor).sum()`` to numerics."""
    rng = np.random.default_rng(seed)
    value = rng.normal(size=shape)

    tensor = Tensor(value.copy(), requires_grad=True)
    out = build(tensor).sum()
    out.backward()
    analytic = tensor.grad

    numeric = numerical_gradient(lambda v: float(build(Tensor(v)).sum().data), value)
    np.testing.assert_allclose(analytic, numeric, atol=atol)


class TestElementwiseGradients:
    def test_add(self):
        check_gradient(lambda x: x + 3.0, (3, 4))

    def test_mul(self):
        check_gradient(lambda x: x * x, (3, 4))

    def test_div(self):
        check_gradient(lambda x: x / 2.5, (2, 3))

    def test_rdiv(self):
        check_gradient(lambda x: 1.0 / (x * x + 2.0), (2, 3))

    def test_pow(self):
        check_gradient(lambda x: (x * x + 1.0) ** 1.5, (4,))

    def test_neg_sub(self):
        check_gradient(lambda x: -(x - 1.0), (5,))

    def test_exp_log(self):
        check_gradient(lambda x: ((x * x) + 0.5).log().exp(), (3, 3))

    def test_sigmoid(self):
        check_gradient(lambda x: x.sigmoid(), (6,))

    def test_tanh(self):
        check_gradient(lambda x: x.tanh(), (6,))

    def test_relu(self):
        check_gradient(lambda x: (x + 0.05).relu(), (10,), seed=3)

    def test_leaky_relu(self):
        check_gradient(lambda x: (x + 0.05).leaky_relu(0.1), (10,), seed=3)

    def test_elu(self):
        check_gradient(lambda x: x.elu(), (10,), seed=4)

    def test_abs(self):
        check_gradient(lambda x: (x + 0.1).abs(), (8,), seed=5)

    def test_sqrt(self):
        check_gradient(lambda x: (x * x + 1.0).sqrt(), (5,))


class TestMatrixGradients:
    def test_matmul_left(self):
        rng = np.random.default_rng(0)
        other = rng.normal(size=(4, 2))
        check_gradient(lambda x: x.matmul(Tensor(other)), (3, 4))

    def test_matmul_right(self):
        rng = np.random.default_rng(1)
        other = rng.normal(size=(3, 4))
        check_gradient(lambda x: Tensor(other).matmul(x), (4, 2))

    def test_transpose(self):
        check_gradient(lambda x: x.T * 2.0, (3, 5))

    def test_reshape(self):
        check_gradient(lambda x: x.reshape(6) * 3.0, (2, 3))

    def test_getitem_rows(self):
        index = np.array([0, 2, 2])
        check_gradient(lambda x: x[index] * 2.0, (4, 3))

    def test_softmax(self):
        check_gradient(lambda x: x.softmax(axis=1), (3, 4))

    def test_log_softmax(self):
        check_gradient(lambda x: x.log_softmax(axis=1), (3, 4))

    def test_masked_fill(self):
        mask = np.array([[True, False], [False, True]])
        check_gradient(lambda x: x.masked_fill(mask, -5.0), (2, 2))

    def test_concatenate(self):
        rng = np.random.default_rng(2)
        other = rng.normal(size=(2, 3))
        check_gradient(lambda x: concatenate([x, Tensor(other)], axis=0), (2, 3))

    def test_stack(self):
        rng = np.random.default_rng(2)
        other = rng.normal(size=(2, 3))
        check_gradient(lambda x: stack([x, Tensor(other)], axis=0), (2, 3))


class TestReductionGradients:
    def test_sum_all(self):
        check_gradient(lambda x: x * 1.0, (4, 4))

    def test_sum_axis(self):
        check_gradient(lambda x: x.sum(axis=0), (3, 4))

    def test_sum_keepdims(self):
        check_gradient(lambda x: x.sum(axis=1, keepdims=True) * x, (3, 4))

    def test_mean(self):
        check_gradient(lambda x: x.mean(axis=1), (3, 4))

    def test_max(self):
        check_gradient(lambda x: x.max(axis=1), (3, 4), seed=9)


class TestBroadcasting:
    def test_row_vector_broadcast(self):
        rng = np.random.default_rng(0)
        row = rng.normal(size=(1, 4))
        check_gradient(lambda x: x + Tensor(row), (3, 4))

    def test_bias_gradient_accumulates(self):
        bias = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((5, 3)))
        (x + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(3, 5.0))

    def test_scalar_broadcast(self):
        scalar = Tensor(2.0, requires_grad=True)
        x = Tensor(np.ones((2, 3)))
        (x * scalar).sum().backward()
        assert scalar.grad == pytest.approx(6.0)

    @given(
        rows=st.integers(min_value=1, max_value=4),
        cols=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_broadcast_shapes_match(self, rows, cols):
        left = Tensor(np.ones((rows, cols)), requires_grad=True)
        right = Tensor(np.ones((1, cols)), requires_grad=True)
        (left * right).sum().backward()
        assert left.grad.shape == (rows, cols)
        assert right.grad.shape == (1, cols)


class TestGraphMechanics:
    def test_gradient_accumulation_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0
        y.backward()
        assert x.grad[0] == pytest.approx(2 * 2.0 + 3.0)

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_detach(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x.detach() * 2.0
        assert not y.requires_grad

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_on_constant_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.sum().backward()

    def test_deep_chain_does_not_overflow(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(2000):
            y = y + 1.0
        y.backward()
        assert x.grad[0] == pytest.approx(1.0)

    def test_item_and_shape(self):
        x = Tensor(np.array([[3.0]]))
        assert x.item() == 3.0
        assert x.shape == (1, 1)
        assert x.ndim == 2
        assert x.size == 1


class TestNoGradKeepsRequiresGrad:
    """Regression: ``no_grad()`` must suppress recording, not the flag.

    The old tape cleared ``requires_grad`` at construction time inside a
    ``no_grad()`` scope, so parameters built under inference mode became
    silently untrainable.
    """

    def test_tensor_built_under_no_grad_keeps_flag(self):
        with no_grad():
            x = Tensor(np.ones(3), requires_grad=True)
        assert x.requires_grad

    def test_model_built_under_no_grad_trains(self):
        from repro.nn.losses import cross_entropy
        from repro.nn.module import Linear
        from repro.nn.optim import SGD

        with no_grad():
            model = Linear(4, 3, rng=0)
        assert model.weight.requires_grad and model.bias.requires_grad

        optimizer = SGD(model.parameters(), lr=0.1)
        before = model.weight.data.copy()
        rng = np.random.default_rng(0)
        logits = model(Tensor(rng.normal(size=(8, 4))))
        loss = cross_entropy(logits, rng.integers(0, 3, size=8))
        loss.backward()
        assert model.weight.grad is not None and np.any(model.weight.grad != 0)
        assert model.bias.grad is not None
        optimizer.step()
        assert np.any(model.weight.data != before)

    def test_ops_inside_no_grad_still_record_nothing(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0 + 1.0
        assert not y.requires_grad
        assert y._node is None


class TestStackConcatenateAxes:
    """Regression: ``stack(axis=-1)`` placed the new axis one position early."""

    @pytest.mark.parametrize("axis", [-1, -2, 0, 1, 2])
    def test_stack_matches_numpy(self, axis):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=(2, 3)) for _ in range(4)]
        stacked = stack([Tensor(a) for a in arrays], axis=axis)
        np.testing.assert_array_equal(stacked.data, np.stack(arrays, axis=axis))

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_stack_negative_axis_backward(self, axis):
        rng = np.random.default_rng(1)
        other = rng.normal(size=(2, 3))
        check_gradient(lambda x: stack([x, Tensor(other)], axis=axis), (2, 3))

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_concatenate_negative_axis(self, axis):
        rng = np.random.default_rng(2)
        arrays = [rng.normal(size=(2, 3)) for _ in range(2)]
        out = concatenate([Tensor(a) for a in arrays], axis=axis)
        np.testing.assert_array_equal(out.data, np.concatenate(arrays, axis=axis))
        check_gradient(lambda x: concatenate([x, Tensor(arrays[1])], axis=axis), (2, 3))

    def test_stack_axis_out_of_range(self):
        with pytest.raises(np.exceptions.AxisError):
            stack([Tensor(np.ones((2, 3)))], axis=3)


class TestTupleAxisReductions:
    """Regression: ``mean(axis=(..))`` crashed indexing shape with a tuple."""

    def test_mean_tuple_axis_forward(self):
        rng = np.random.default_rng(0)
        value = rng.normal(size=(2, 3, 4))
        out = Tensor(value).mean(axis=(0, 2))
        np.testing.assert_allclose(out.data, value.mean(axis=(0, 2)))

    def test_mean_tuple_axis_backward(self):
        check_gradient(lambda x: x.mean(axis=(0, 2)), (2, 3, 4))

    def test_mean_negative_axis(self):
        check_gradient(lambda x: x.mean(axis=-1), (3, 4))

    def test_sum_tuple_axis(self):
        rng = np.random.default_rng(1)
        value = rng.normal(size=(2, 3, 4))
        out = Tensor(value).sum(axis=(1, 2))
        np.testing.assert_allclose(out.data, value.sum(axis=(1, 2)))
        check_gradient(lambda x: x.sum(axis=(1, 2)), (2, 3, 4))

    def test_mean_tuple_axis_keepdims(self):
        check_gradient(lambda x: x.mean(axis=(0, 1), keepdims=True), (2, 3))


class TestPowEdgeCases:
    """Regression: ``x ** 0`` backward emitted NaN at x = 0 (0 * x**-1)."""

    def test_pow_zero_exponent_at_zero_is_nan_free(self):
        x = Tensor(np.array([0.0, 1.0, -2.0]), requires_grad=True)
        y = x**0
        np.testing.assert_array_equal(y.data, np.ones(3))
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, np.zeros(3))

    def test_pow_integer_exponent_at_zero(self):
        x = Tensor(np.array([0.0, 2.0]), requires_grad=True)
        (x**2).sum().backward()
        np.testing.assert_allclose(x.grad, np.array([0.0, 4.0]))

    def test_pow_one_exponent(self):
        x = Tensor(np.array([-1.0, 0.0, 3.0]), requires_grad=True)
        (x**1).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(3))

    def test_normalize_rows_zero_row_gradient_is_finite(self):
        """Regression: the norm of an all-zero row got 0 · 0**-0.5 = NaN."""
        from repro.nn import functional as F

        eps = 1e-12
        x = Tensor(np.array([[0.0, 0.0], [1.0, 2.0]]), requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F.normalize_rows(x, eps=eps).sum().backward()
        # d/dx x / (||x|| + eps) at x = 0 is I / eps.
        np.testing.assert_array_equal(x.grad[0], np.full(2, 1.0 / eps))
        alone = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        F.normalize_rows(alone, eps=eps).sum().backward()
        np.testing.assert_array_equal(x.grad[1], alone.grad[0])

    @pytest.mark.parametrize("exponent", [0.5, -1.0, -0.5])
    def test_fractional_pow_vjp_is_the_naive_formula_where_finite(self, exponent):
        from repro.nn.tensor import _pow_vjp

        rng = np.random.default_rng(0)
        x = rng.uniform(0.1, 3.0, size=(6, 5))
        g = rng.normal(size=(6, 5))
        g[0] = 0.0
        for zero in (None, (1, 2)):  # without and with a zero where g != 0
            if zero is not None:
                x[zero] = 0.0
            with np.errstate(divide="ignore"):
                naive = g * exponent * x ** (exponent - 1)
                ans = x**exponent
            np.testing.assert_array_equal(_pow_vjp(g, ans, x, exponent), naive)


class TestSparseAdjoints:
    """Gather gradients accumulate as lazy (index, values) sparse adjoints."""

    def test_duplicate_indices_accumulate(self):
        x = Tensor(np.zeros((4, 2)), requires_grad=True)
        index = np.array([1, 1, 3])
        x[index].sum().backward()
        expected = np.zeros((4, 2))
        np.add.at(expected, index, 1.0)
        np.testing.assert_array_equal(x.grad, expected)

    def test_slice_merges_into_dense_gradient_in_place(self):
        from repro.nn.autodiff import STATS

        x = Tensor(np.ones((6, 3)), requires_grad=True)
        hidden = x * 2.0
        loss = hidden.sum() + (hidden[:2] * 3.0).sum()
        STATS.reset()
        loss.backward()
        # The slice contribution scatters into the dense gradient that the
        # other branch already produced: no zeros-of-hidden densification.
        assert STATS.scatter_merges >= 1
        assert STATS.densifications == 0
        expected = np.full((6, 3), 2.0)
        expected[:2] += 6.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_pure_sparse_leaf_densifies_once(self):
        from repro.nn.autodiff import STATS

        x = Tensor(np.ones((5, 2)), requires_grad=True)
        picked = x[np.array([0, 2])].sum() + x[np.array([1, 2])].sum()
        STATS.reset()
        picked.backward()
        # Two indexing ops, one zeros allocation (at .grad materialisation).
        assert STATS.densifications == 1
        expected = np.zeros((5, 2))
        expected[[0, 1]] = 1.0
        expected[2] = 2.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_constant_gather_records_no_node(self):
        constant = Tensor(np.arange(12.0).reshape(4, 3))
        out = constant[np.array([0, 2])]
        assert not out.requires_grad
        assert out._node is None
