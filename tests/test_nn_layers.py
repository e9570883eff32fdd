"""Tests for Linear, MLP, interaction layers and the Module base class.

The layers compute over arrays (``forward_array`` / ``backward_array``);
where a backward is checked exactly, the oracle is the per-op graph of
``tests/reference_graph.py`` over the same parameters."""

import numpy as np
import pytest

import reference_graph as G
from reference_dense import batched_outer_interaction
from repro.nn.interactions import CrossNetwork, DotInteraction
from repro.nn.layers import MLP, Linear, Workspace
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.tensor import Parameter, Tensor

from test_nn_functional import numerical_gradient


def params(module) -> list[np.ndarray]:
    return [param.data for param in module.parameters()]


class TestLinear:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("in_features", [32, 429])
    @pytest.mark.parametrize("batch", [1, 64, 128, 2048])
    def test_single_output_dx_is_the_matmul_bytes(self, batch, in_features, dtype):
        """Linear(→1)'s ``dx`` is an outer product plus 0.0, not a matmul;
        it must be ``dy @ W.T`` byte for byte, signed zeros and subnormal
        products included."""
        rng = np.random.default_rng(batch + in_features)
        info = np.finfo(dtype)
        tiny = dtype(2.0) ** ((int(np.log2(info.tiny)) - info.nmant // 2) // 2)
        dy = rng.standard_normal((batch, 1)).astype(dtype)
        weight = rng.standard_normal((in_features, 1)).astype(dtype)
        dy[0::5] = 0.0
        dy[1::5] = -0.0
        dy[2::5] *= tiny  # times a tiny weight: a subnormal product, or ±0
        weight[0::4] = -0.0
        weight[1::4] = 0.0
        weight[2::4] *= tiny
        products = dy * weight.T
        assert batch < 3 or (np.abs(products[products != 0]) < info.tiny).any()  # subnormals occur
        layer = Linear(in_features, 1, rng=0, dtype=dtype)
        ws = Workspace(batch, dtype)
        x = rng.standard_normal((batch, in_features)).astype(dtype)
        grads = [np.empty_like(weight), np.empty(1, dtype)]
        dx = layer.backward_array([weight, np.zeros(1, dtype)], x, dy, ws, grads)
        expected = dy @ weight.T
        assert dx.dtype == expected.dtype
        assert dx.tobytes() == expected.tobytes()

    def test_output_shape(self):
        layer = Linear(4, 3, rng=0)
        out = layer.forward_array(params(layer), np.zeros((5, 4)), Workspace(5, np.float64))
        assert out.shape == (5, 3)

    def test_zero_input_gives_bias(self):
        layer = Linear(4, 2, rng=0)
        out = layer.forward_array(params(layer), np.zeros((1, 4)), Workspace(1, np.float64))
        assert np.allclose(out, layer.bias.data)

    def test_parameters_discovered(self):
        layer = Linear(4, 3, rng=0)
        assert len(list(layer.parameters())) == 2
        assert layer.num_parameters() == 4 * 3 + 3

    def test_backward_is_the_graph_bytes(self):
        layer = Linear(3, 2, rng=1)
        rng = np.random.default_rng(0)
        x, dy = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
        ws = Workspace(4, np.float64)
        layer.forward_array(params(layer), x, ws)
        grads = [np.empty_like(p) for p in params(layer)]
        dx = layer.backward_array(params(layer), x, dy, ws, grads)
        leaf = Tensor(x.copy(), requires_grad=True)
        G.linear_layer(layer, leaf).backward(dy)
        assert dx.tobytes() == leaf.grad.tobytes()
        for grad, param in zip(grads, layer.parameters()):
            assert grad.tobytes() == param.grad.tobytes()

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 3)
        with pytest.raises(ValueError):
            Linear(3, -1)


class TestMLP:
    def test_forward_shape(self):
        mlp = MLP([8, 16, 4, 1], rng=0)
        out = mlp.forward_array(params(mlp), np.zeros((10, 8)), Workspace(10, np.float64))
        assert out.shape == (10, 1)

    def test_needs_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_parameter_count(self):
        mlp = MLP([4, 8, 2], rng=0)
        expected = (4 * 8 + 8) + (8 * 2 + 2)
        assert mlp.num_parameters() == expected

    def test_training_reduces_loss(self):
        """A tiny MLP should fit a simple regression target with Adam."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 3))
        y = (x[:, 0] - 2 * x[:, 1]).reshape(-1, 1)
        mlp = MLP([3, 16, 1], rng=1)
        optimizer = Adam(list(mlp.parameters()), lr=0.02)
        ws = Workspace(64, np.float64)
        losses = []
        for _ in range(200):
            diff = mlp.forward_array(params(mlp), x, ws) - y
            mlp.backward_array(params(mlp), x, 2.0 * diff / diff.size, ws, optimizer.staging)
            optimizer.step_staged()
            losses.append(float(np.mean(diff * diff)))
        assert losses[-1] < losses[0] * 0.2


class TestDotInteraction:
    def test_output_dim_helper(self):
        assert DotInteraction.output_dim(4) == 6
        assert DotInteraction.output_dim(27) == 27 * 26 // 2

    def test_forward_matches_manual(self):
        x = np.random.default_rng(2).normal(size=(2, 3, 4))
        out = DotInteraction().forward_array(x, Workspace(2, np.float64))
        manual = np.asarray(
            [
                [x[b, 1] @ x[b, 0], x[b, 2] @ x[b, 0], x[b, 2] @ x[b, 1]]
                for b in range(2)
            ]
        )
        assert np.allclose(out, manual)

    def test_output_shape(self):
        x = np.random.default_rng(10).normal(size=(5, 4, 3))
        assert DotInteraction().forward_array(x, Workspace(5, np.float64)).shape == (5, 6)

    def test_gradient_check(self):
        layer, ws = DotInteraction(), Workspace(2, np.float64)
        x = np.random.default_rng(0).normal(size=(2, 4, 3))
        upstream = np.ones((2, 6))
        layer.forward_array(x, ws)
        analytic = layer.backward_array(x, upstream, ws).copy()
        numeric = numerical_gradient(lambda arr: float(layer.forward_array(arr, ws).sum()), x.copy())
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_array_pair_is_the_graph_op_bytes(self):
        rng = np.random.default_rng(4)
        data, upstream = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 6))
        layer, ws = DotInteraction(), Workspace(3, np.float64)
        x = Tensor(data.copy(), requires_grad=True)
        out = batched_outer_interaction(x)
        out.backward(upstream)
        assert out.data.tobytes() == layer.forward_array(data, ws).tobytes()
        assert x.grad.tobytes() == layer.backward_array(data, upstream, ws).tobytes()


class TestCrossNetwork:
    def test_shape_preserved(self):
        net = CrossNetwork(input_dim=6, num_layers=3, rng=0)
        x = np.random.default_rng(0).normal(size=(5, 6))
        assert net.forward_array(params(net), x, Workspace(5, np.float64)).shape == (5, 6)

    def test_gradients_reach_all_layers(self):
        net = CrossNetwork(input_dim=4, num_layers=2, rng=0)
        x = np.random.default_rng(1).normal(size=(3, 4))
        ws = Workspace(3, np.float64)
        out = net.forward_array(params(net), x, ws).copy()
        grads = [np.empty_like(p) for p in params(net)]
        dx = net.backward_array(params(net), x, np.ones_like(out), ws, grads)
        leaf = Tensor(x.copy(), requires_grad=True)
        graph = G.cross_network(net, leaf)
        G.sum(graph).backward()
        assert out.tobytes() == graph.data.tobytes()
        assert dx.tobytes() == leaf.grad.tobytes()
        for grad, param in zip(grads, net.parameters()):
            assert grad.tobytes() == param.grad.tobytes()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CrossNetwork(0, 1)
        with pytest.raises(ValueError):
            CrossNetwork(4, 0)

    def test_zero_weights_reduce_to_residual(self):
        net = CrossNetwork(input_dim=3, num_layers=2, rng=0)
        for w, b in zip(net.weights, net.biases):
            w.data[:] = 0.0
            b.data[:] = 0.0
        x = np.random.default_rng(3).normal(size=(4, 3))
        out = net.forward_array(params(net), x, Workspace(4, np.float64))
        assert np.allclose(out, x)


class TestModule:
    def test_named_parameters_nested(self):
        class Outer(Module):
            def __init__(self):
                self.inner = Linear(2, 2, rng=0)
                self.scale = Parameter(np.ones(1))

        outer = Outer()
        names = dict(outer.named_parameters())
        assert "scale" in names
        assert any(name.startswith("inner.") for name in names)

    def test_parameters_in_lists_discovered(self):
        class WithList(Module):
            def __init__(self):
                self.layers = [Linear(2, 2, rng=0), Linear(2, 2, rng=1)]

        model = WithList()
        assert len(list(model.parameters())) == 4

    def test_state_dict_roundtrip(self):
        mlp = MLP([3, 4, 1], rng=0)
        state = mlp.state_dict()
        other = MLP([3, 4, 1], rng=99)
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(mlp.named_parameters(), other.named_parameters()):
            assert np.array_equal(a.data, b.data)

    def test_load_state_dict_mismatch(self):
        mlp = MLP([3, 4, 1], rng=0)
        with pytest.raises(KeyError):
            mlp.load_state_dict({"bogus": np.zeros(1)})

    def test_load_state_dict_shape_mismatch(self):
        mlp = MLP([3, 4, 1], rng=0)
        state = mlp.state_dict()
        first_key = next(iter(state))
        state[first_key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)

    def test_zero_grad_clears(self):
        layer = Linear(2, 2, rng=0)
        G.sum(G.linear_layer(layer, Tensor(np.ones((1, 2))))).backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None
