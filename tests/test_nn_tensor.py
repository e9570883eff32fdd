"""Tests for the Tensor / Parameter backward machinery (``make_node`` nodes,
composed here from the ops of ``tests/reference_graph.py``)."""

import numpy as np
import pytest

import reference_graph as G
from repro.nn.tensor import Parameter, Tensor, make_node


class TestTensorBasics:
    def test_construction_casts_to_float64(self):
        t = Tensor(np.arange(4, dtype=np.int32))
        assert t.data.dtype == np.float64

    def test_construction_widens_float16(self):
        assert Tensor(np.zeros(2, dtype=np.float16)).data.dtype == np.float32

    def test_shape_and_size(self):
        t = Tensor(np.zeros((3, 4)))
        assert t.shape == (3, 4)
        assert t.size == 12

    def test_ensure_tensor(self):
        assert isinstance(G.ensure_tensor([1.0, 2.0]), Tensor)
        t = Tensor([3.0])
        assert G.ensure_tensor(t) is t

    def test_make_node_without_a_grad_parent_records_nothing(self):
        out = make_node(np.ones(2), (Tensor([1.0, 2.0]),), lambda grad: None)
        assert not out.requires_grad and out._parents == ()


class TestBackward:
    def test_scalar_backward_default_grad(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        y = G.sum(G.mul(x, x))
        y.backward()
        assert np.allclose(x.grad, [4.0, 6.0])

    def test_backward_requires_grad(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_backward_nonscalar_needs_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = G.mul(x, 2.0)
        with pytest.raises(RuntimeError):
            y.backward()

    def test_backward_grad_shape_mismatch(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = G.mul(x, 2.0)
        with pytest.raises(ValueError):
            y.backward(np.ones(3))

    def test_explicit_upstream_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        G.mul(x, 3.0).backward(np.asarray([1.0, 2.0]))
        assert np.allclose(x.grad, [3.0, 6.0])

    def test_gradient_accumulates_across_uses(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = G.sum(G.add(x, x))
        y.backward()
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_diamond_graph(self):
        # x feeds into two branches that are recombined: grads must sum once.
        x = Tensor([1.0, 2.0], requires_grad=True)
        a = G.mul(x, 2.0)
        b = G.mul(x, 3.0)
        y = G.sum(G.add(a, b))
        y.backward()
        assert np.allclose(x.grad, [5.0, 5.0])

    def test_mean_reduction_gradient(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        G.mean(x).backward()
        assert np.allclose(x.grad, np.full((2, 3), 1.0 / 6.0))

    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = G.sum(G.reshape(x, (3, 2)))
        y.backward()
        assert x.grad.shape == (2, 3)
        assert np.allclose(x.grad, 1.0)


class TestParameter:
    def test_always_requires_grad(self):
        p = Parameter(np.zeros(3))
        assert p.requires_grad

    def test_usable_in_graph(self):
        p = Parameter(np.asarray([2.0]))
        loss = G.sum(G.mul(p, p))
        loss.backward()
        assert np.allclose(p.grad, [4.0])
