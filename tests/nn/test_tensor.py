"""Autograd engine mechanics: graph recording, backward, modes."""

import threading

import numpy as np
import pytest

from repro.nn import Parameter, Tensor, no_grad
from repro.nn.tensor import is_grad_enabled, unbroadcast


class TestTensorBasics:
    def test_wraps_array(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4
        assert t.dtype == np.float64

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_zeros_ones_constructors(self):
        assert Tensor.zeros(2, 3).data.sum() == 0
        assert Tensor.ones(2, 3).data.sum() == 6

    def test_detach_shares_data_but_no_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_numpy_returns_underlying(self):
        t = Tensor([1.0])
        assert t.numpy() is t.data


class TestBackward:
    def test_simple_chain(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * x + x) * 3.0
        y.backward()
        # d/dx 3(x^2 + x) = 3(2x + 1) = 15 at x=2
        assert x.grad == pytest.approx(15.0)

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0, 5.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar_without_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (x * 2.0).backward()

    def test_backward_with_explicit_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 2.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [2.0, 20.0])

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(1.0).backward()

    def test_shared_subexpression_counted_twice(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x  # used twice below
        z = y + y
        z.backward()
        assert x.grad == pytest.approx(12.0)  # d/dx 2x^2 = 4x

    def test_deep_graph_no_recursion_error(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward()
        assert x.grad == pytest.approx(1.0)

    def test_intermediate_grads_freed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        mid = x * 2.0
        mid.sum().backward()
        assert mid.grad is None          # freed
        assert x.grad is not None        # leaf kept


class TestNoGrad:
    def test_no_grad_disables_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_overlapping_no_grad_on_two_threads(self):
        # A enters, B enters, A exits, B exits: with a process-global
        # save/restore flag B would restore A's "off" and leave autograd
        # disabled for the whole process.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with no_grad():
                a_in.set()
                b_in.wait(5)
            seen["a_after"] = is_grad_enabled()
            a_out.set()

        def thread_b():
            a_in.wait(5)
            with no_grad():
                b_in.set()
                a_out.wait(5)
                seen["b_inside_after_a_exit"] = is_grad_enabled()
            seen["b_after"] = is_grad_enabled()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"a_after": True, "b_inside_after_a_exit": False,
                        "b_after": True}
        assert is_grad_enabled()

    def test_nested_no_grad(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()


class TestParameter:
    def test_always_requires_grad(self):
        with no_grad():
            p = Parameter(np.zeros(3))
        assert p.requires_grad

    def test_parameter_grad_kept_after_backward(self):
        p = Parameter(np.ones(3))
        (p * 2.0).sum().backward()
        np.testing.assert_allclose(p.grad, [2.0, 2.0, 2.0])


class TestUnbroadcast:
    def test_no_change_when_shape_matches(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)).shape == (2, 3)

    def test_sums_leading_axes(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        np.testing.assert_allclose(out, np.full((2, 3), 4.0))

    def test_sums_expanded_axes(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (2, 1))
        np.testing.assert_allclose(out, np.full((2, 1), 3.0))

    def test_scalar_target(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, ())
        assert out == pytest.approx(6.0)


class TestOperatorSugar:
    def test_radd_rsub_rmul_rtruediv(self):
        x = Tensor([2.0], requires_grad=True)
        np.testing.assert_allclose((1.0 + x).data, [3.0])
        np.testing.assert_allclose((1.0 - x).data, [-1.0])
        np.testing.assert_allclose((3.0 * x).data, [6.0])
        np.testing.assert_allclose((4.0 / x).data, [2.0])

    def test_pow_and_neg(self):
        x = Tensor([2.0])
        np.testing.assert_allclose((x ** 3).data, [8.0])
        np.testing.assert_allclose((-x).data, [-2.0])

    def test_transpose_property(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.T.shape == (3, 2)

    def test_reshape_with_tuple_and_args(self):
        x = Tensor(np.arange(6.0))
        assert x.reshape(2, 3).shape == (2, 3)
        assert x.reshape((3, 2)).shape == (3, 2)
        assert x.flatten().shape == (6,)

    def test_getitem_slices(self):
        x = Tensor(np.arange(10.0), requires_grad=True)
        y = x[2:5]
        y.sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_mean_matches_numpy(self):
        x = Tensor(np.arange(12.0).reshape(3, 4))
        np.testing.assert_allclose(x.mean(axis=0).data, np.arange(12.0).reshape(3, 4).mean(0))
