"""The dense step runs in one precision that follows the store.

Covers the precision policy (``np.promote_types(store.dtype, float32)``
carried by parameters, activations, gradients and optimizer state), the
rewritten DLRM interaction kernel against the formula it replaced, gradient
ownership (adopted, never aliased), float32-vs-float64 training parity, and
restoring a float64 dense checkpoint into a float32 session.
"""

from __future__ import annotations

import hashlib
import runpy
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.api import SystemConfig, build
from repro.api.config import apply_overrides
import reference_graph as G
from repro.nn import functional as F
from repro.nn.interactions import DotInteraction
from repro.nn.layers import Workspace
from repro.nn.optim import Adam
from repro.nn.tensor import Parameter, Tensor
from repro.serving import ServingEngine
from repro.training.metrics import roc_auc

from reference_dense import concat
from test_nn_functional import numerical_gradient

REPO = Path(__file__).resolve().parents[1]
QUICKSTART = REPO / "examples" / "configs" / "quickstart.json"


def quickstart(**overrides) -> SystemConfig:
    """The quickstart config with ``section__key=value`` overrides."""
    return apply_overrides(
        SystemConfig.load(QUICKSTART),
        [f"{key.replace('__', '.')}={value}" for key, value in overrides.items()],
    )


def graph_tensors(root: Tensor) -> list[Tensor]:
    """Every tensor reachable from ``root`` through the backward graph."""
    seen: dict[int, Tensor] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def forward(model, batch) -> tuple[Tensor, Tensor]:
    """``(logits, embedding leaf)``: the lookup, then the model's graph node."""
    categorical, numerical = model._check_batch(batch.categorical, batch.numerical)
    leaf = Tensor(model.store.lookup(categorical), requires_grad=True, name="embedding_leaf")
    return model.forward_dense(leaf, numerical), leaf


def run_step(session, batch):
    """``Trainer.train_step`` as the graph composition, returning what it builds."""
    model, trainer = session.model, session.trainer
    logits, leaf = forward(model, batch)
    loss = F.binary_cross_entropy_with_logits(logits, batch.labels)
    model.zero_grad()
    loss.backward()
    tensors = graph_tensors(loss)
    model.store.apply_gradients(batch.categorical, leaf.grad)
    trainer.dense_optimizer.step()
    return logits, leaf, loss, tensors


def optimizer_state(optimizer) -> list[np.ndarray]:
    """Every array the optimizer holds: flat state, staging and work buffers."""
    held = [value for value in vars(optimizer).values() if isinstance(value, np.ndarray)]
    return list(optimizer.state.values()) + held


# --------------------------------------------------------------------------- #
# (a) dtype closure
# --------------------------------------------------------------------------- #
class TestDtypeClosure:
    @pytest.mark.parametrize("model_name", ["dlrm", "wdl", "dcn"])
    @pytest.mark.parametrize("store_spec", ["cafe", "hash", "full"])
    @pytest.mark.parametrize(
        "store_dtype, expected",
        [("float32", np.float32), ("float64", np.float64), ("float16", np.float32)],
    )
    def test_one_dtype_through_the_whole_step(self, model_name, store_spec, store_dtype, expected):
        expected = np.dtype(expected)
        config = quickstart(model__name=model_name, store__spec=store_spec, store__dtype=store_dtype)
        with build(config) as session:
            assert session.model.dtype == expected
            assert session.describe()["model"]["dense_dtype"] == str(expected)
            batch = next(iter(session.dataset.training_stream(session.batch_size)))
            logits, leaf, loss, tensors = run_step(session, batch)

            assert logits.data.dtype == expected
            assert leaf.data.dtype == expected and leaf.grad.dtype == expected
            assert loss.data.dtype == expected
            for param in session.model.parameters():
                assert param.data.dtype == expected
                assert param.grad is not None and param.grad.dtype == expected
            # The graph is the loss, one dense node, the leaf and the
            # parameters; the activations live in the model's workspace.
            assert len(tensors) == 3 + len(list(session.model.parameters()))
            for tensor in tensors:
                assert tensor.data.dtype == expected
                assert tensor.grad is not None and tensor.grad.dtype == expected
            activations = session.model._workspace._regions.values()
            assert len(activations) > 10
            assert {array.dtype for array in activations} <= {expected, np.dtype(np.bool_)}
            state = optimizer_state(session.trainer.dense_optimizer)
            assert state, "optimizer exposes no state arrays"
            assert all(array.dtype == expected for array in state)
            # A second step: nothing was promoted by the first update.
            session.trainer.train_step(batch)
            assert all(p.data.dtype == expected for p in session.model.parameters())

    @pytest.mark.parametrize("model_name", ["dlrm", "wdl", "dcn"])
    @pytest.mark.parametrize("store_spec", ["cafe", "hash", "full"])
    @pytest.mark.parametrize(
        "store_dtype, expected",
        [("float32", np.float32), ("float64", np.float64), ("float16", np.float32)],
    )
    def test_one_dtype_through_the_array_step(
        self, model_name, store_spec, store_dtype, expected, monkeypatch
    ):
        expected = np.dtype(expected)
        config = quickstart(model__name=model_name, store__spec=store_spec, store__dtype=store_dtype)
        with build(config) as session:
            model, optimizer = session.model, session.trainer.dense_optimizer
            seen = {}
            dense_backward = model.dense_backward

            def recording(weights, embeddings, numerical, dlogits, ws, grads):
                dx = dense_backward(weights, embeddings, numerical, dlogits, ws, grads)
                seen.update(embeddings=embeddings, numerical=numerical, dlogits=dlogits, dx=dx)
                seen["grads"] = grads
                return dx

            monkeypatch.setattr(model, "dense_backward", recording)
            batch = next(iter(session.dataset.training_stream(session.batch_size)))
            _, dx = session.trainer._step(batch)

            assert dx is seen["dx"]
            for name in ("embeddings", "numerical", "dlogits", "dx"):
                assert seen[name].dtype == expected, name
            assert seen["dlogits"].shape == (len(batch), 1)
            # The backward wrote the gradients into the optimizer's staging
            # buffer, in its dtype; no param.grad was read or written.
            assert seen["grads"] is optimizer.staging
            assert optimizer._grad.dtype == expected
            assert all(np.shares_memory(grad, optimizer._grad) for grad in seen["grads"])
            assert all(param.grad is None for param in model.parameters())
            assert all(array.dtype == expected for array in optimizer_state(optimizer))
            assert all(param.data.dtype == expected for param in model.parameters())

    def test_float64_numerical_is_cast_by_forward_dense(self):
        with build(quickstart()) as session:
            batch = next(iter(session.dataset.training_stream(session.batch_size)))
            vectors = session.store.lookup(np.asarray(batch.categorical, dtype=np.int64))
            numerical = np.asarray(batch.numerical, dtype=np.float64)
            logits = session.model.forward_dense(Tensor(vectors, requires_grad=True), numerical)
            assert logits.data.dtype == np.float32

    def test_bare_layers_and_float64_arrays_stay_float64(self):
        from repro.nn.layers import MLP, Linear

        assert Linear(3, 2, rng=0).weight.data.dtype == np.float64
        assert all(p.data.dtype == np.float64 for p in MLP([3, 4, 1], rng=0).parameters())
        assert Tensor(np.ones(3)).data.dtype == np.float64
        assert Tensor([1, 2, 3]).data.dtype == np.float64
        assert Tensor(np.ones(3, dtype=np.float32)).data.dtype == np.float32
        assert Tensor(np.ones(3, dtype=np.float16)).data.dtype == np.float32

    def test_python_scalars_adopt_the_tensor_dtype(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        for out in (G.mul(x, 2.0), G.mul(2.0, x), G.add(x, 1), G.add(1, x), G.mul(x, -1.0)):
            assert out.data.dtype == np.float32
        loss = G.sum(G.add(G.mul(G.mul(x, 2.0), -1.0), 1.0))
        loss.backward()
        assert x.grad.dtype == np.float32
        assert np.array_equal(x.grad, np.full((2, 3), -2.0, dtype=np.float32))

    def test_float64_seed_does_not_promote_a_float32_graph(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = G.relu(x)
        out.backward(np.ones((2, 2), dtype=np.float64))
        assert out.grad.dtype == np.float32 and x.grad.dtype == np.float32

    def test_dense_optimizer_rejects_mixed_parameter_dtypes(self):
        mixed = [Parameter(np.ones(2, dtype=np.float32)), Parameter(np.ones(2))]
        with pytest.raises(TypeError, match="one float dtype"):
            Adam(mixed, lr=0.1)

    def test_in_place_updates_match_the_textbook_expressions(self):
        rng = np.random.default_rng(0)
        start = rng.normal(size=(4, 3))
        grads = [rng.normal(size=(4, 3)) for _ in range(3)]
        param = Parameter(start.copy())
        optimizer = Adam([param], lr=0.05)

        data, m, v = start.copy(), 0.0, 0.0
        for step, grad in enumerate(grads, start=1):
            param.grad = grad
            optimizer.step()
            m = 0.9 * m + (1.0 - 0.9) * grad
            v = 0.999 * v + (1.0 - 0.999) * grad**2
            m_hat, v_hat = m / (1.0 - 0.9**step), v / (1.0 - 0.999**step)
            data = data - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(param.data, data)
            assert param.grad is grad, "the step must not consume the gradient"


# --------------------------------------------------------------------------- #
# (b) the interaction kernel against the formula it replaced
# --------------------------------------------------------------------------- #
def reference_interaction(x: np.ndarray, grad_out: np.ndarray | None = None):
    """The pre-rewrite implementation, kept here as the reference only."""
    batch, fields, _ = x.shape
    gram = x @ np.swapaxes(x, 1, 2)
    rows, cols = np.tril_indices(fields, k=-1)
    out = gram[:, rows, cols]
    if grad_out is None:
        return out
    grad_gram = np.zeros((batch, fields, fields))
    grad_gram[:, rows, cols] = grad_out
    return out, grad_gram @ x + np.swapaxes(grad_gram, 1, 2) @ x


class TestInteractionKernel:
    # ``fields`` embedding fields, with and without DLRM's extra dense field.
    @pytest.mark.parametrize("fields", [2, 3, 27])
    @pytest.mark.parametrize("dense_field", [False, True])
    def test_matches_reference_forward_and_backward(self, fields, dense_field):
        rng = np.random.default_rng(fields)
        total = fields + int(dense_field)
        data = rng.normal(size=(5, total, 4))
        upstream = rng.normal(size=(5, total * (total - 1) // 2))

        layer, ws = DotInteraction(), Workspace(5, np.float64)
        out = layer.forward_array(data, ws).copy()
        grad = layer.backward_array(data, upstream, ws)
        expected_out, expected_grad = reference_interaction(data, upstream)

        assert out.dtype == np.float64 and grad.dtype == np.float64
        assert out.shape == expected_out.shape
        assert np.abs(out - expected_out).max() <= 1e-12
        assert np.abs(grad - expected_grad).max() <= 1e-12

    @pytest.mark.parametrize("fields", [2, 3, 27])
    def test_column_order_is_tril_indices(self, fields):
        # Field i holds the vector (i+1) * e_0, so pair (r, c) evaluates to
        # (r+1)(c+1): every column names its own pair.
        data = np.zeros((1, fields, 3))
        data[0, :, 0] = np.arange(1, fields + 1)
        rows, cols = np.tril_indices(fields, -1)
        out = DotInteraction().forward_array(data, Workspace(1, np.float64))
        assert np.array_equal(out[0], (rows + 1.0) * (cols + 1.0))

    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(2, 4, 3))
        weights = rng.normal(size=(2, 6))
        layer, ws = DotInteraction(), Workspace(2, np.float64)

        def weighted_sum(array: np.ndarray) -> float:
            return float((layer.forward_array(array, ws) * weights).sum())

        numeric = numerical_gradient(weighted_sum, data.copy())
        layer.forward_array(data, ws)
        assert np.abs(layer.backward_array(data, weights, ws) - numeric).max() <= 1e-7

    def test_float32_input_stays_float32(self):
        data = np.random.default_rng(0).normal(size=(3, 5, 4)).astype(np.float32)
        layer, ws = DotInteraction(), Workspace(3, np.float32)
        out = layer.forward_array(data, ws).copy()
        grad = layer.backward_array(data, np.ones_like(out), ws)
        assert out.dtype == np.float32 and grad.dtype == np.float32
        assert np.allclose(out, reference_interaction(data.astype(np.float64)), atol=1e-5)

    def test_single_field_has_no_pairs(self):
        data = np.ones((2, 1, 3))
        layer, ws = DotInteraction(), Workspace(2, np.float64)
        out = layer.forward_array(data, ws)
        assert out.shape == (2, 0)
        assert np.array_equal(layer.backward_array(data, np.zeros((2, 0)), ws), np.zeros((2, 1, 3)))

    def test_linear_is_matmul_plus_add(self):
        rng = np.random.default_rng(1)
        data, upstream = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
        weights = rng.normal(size=(4, 3))
        results = []
        for fused in (True, False):
            x = Tensor(data.copy(), requires_grad=True)
            w, b = Parameter(weights.copy()), Parameter(np.arange(3.0))
            out = G.linear(x, w, b) if fused else G.add(G.matmul(x, w), b)
            out.backward(upstream)
            results.append((out.data, x.grad, w.grad, b.grad))
        for fused_value, unfused_value in zip(*results):
            assert np.array_equal(fused_value, unfused_value)


# --------------------------------------------------------------------------- #
# (c) gradient ownership
# --------------------------------------------------------------------------- #
def assert_no_aliasing(tensors: list[Tensor]) -> None:
    tensors = list({id(t): t for t in tensors}.values())
    holders = [t for t in tensors if t.grad is not None]
    for i, first in enumerate(holders):
        for second in holders[i + 1:]:
            assert not np.shares_memory(first.grad, second.grad), (first.name, second.name)
        for other in tensors:
            assert not np.shares_memory(first.grad, other.data), (first.name, other.name)


def count_nn_copies(function) -> int:
    """``ndarray.copy()`` calls made from ``repro/nn`` while ``function`` runs."""
    sites: Counter = Counter()

    def profiler(frame, event, arg):
        if (
            event == "c_call"
            and arg.__name__ == "copy"
            and isinstance(getattr(arg, "__self__", None), np.ndarray)
            and "/repro/nn/" in frame.f_code.co_filename.replace("\\", "/")
        ):
            sites[(frame.f_code.co_filename, frame.f_lineno)] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function()
    finally:
        sys.setprofile(previous)
    return sum(sites.values())


class TestGradientOwnership:
    @pytest.mark.parametrize("model_name", ["dlrm", "wdl", "dcn"])
    def test_no_gradient_aliases_another_or_any_data(self, model_name):
        with build(quickstart(model__name=model_name)) as session:
            batch = next(iter(session.dataset.training_stream(session.batch_size)))
            _, leaf, _, tensors = run_step(session, batch)
            assert_no_aliasing(tensors + list(session.model.parameters()) + [leaf])

    def test_shared_views_and_pieces_are_copied(self):
        base = np.arange(12.0).reshape(3, 4)
        x = Tensor(base.copy(), requires_grad=True, name="x")
        doubled = G.add(x, x)  # one array offered to the same parent twice
        doubled.name = "x+x"
        leaf = Tensor(base.copy(), requires_grad=True, name="leaf")
        flat = G.reshape(leaf, (12,))  # backward hands out a view
        flat.name = "reshape"
        left = Tensor(base.copy(), requires_grad=True, name="left")
        right = Tensor(base.copy(), requires_grad=True, name="right")
        joined = concat([left, right], axis=1)  # backward hands out pieces
        joined.name = "concat"
        total = G.add(G.add(G.sum(doubled), G.sum(flat)), G.sum(joined))
        total.backward()

        assert np.array_equal(x.grad, np.full((3, 4), 2.0))
        assert np.array_equal(leaf.grad, np.ones((3, 4)))
        assert np.array_equal(left.grad, np.ones((3, 4)))
        assert_no_aliasing(graph_tensors(total))
        # Writing to one gradient must not reach another.
        left.grad[...] = 7.0
        assert np.array_equal(right.grad, np.ones((3, 4)))
        assert np.array_equal(joined.grad, np.ones((3, 8)))

    def test_caller_keeps_the_seed_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = G.mul(x, 2.0)
        seed = np.ones(3)
        out.backward(seed)
        assert not np.shares_memory(out.grad, seed)

    def test_quickstart_step_copies_at_most_eight_gradients(self):
        # 35 at the parent commit: one per _accumulate_grad call.
        with build(quickstart()) as session:
            stream = iter(session.dataset.training_stream(session.batch_size))
            session.trainer.train_step(next(stream))
            batch = next(stream)
            copies = count_nn_copies(lambda: session.trainer.train_step(batch))
        assert copies <= 8, copies


# --------------------------------------------------------------------------- #
# Evaluation builds no graph
# --------------------------------------------------------------------------- #
class TestInferenceBuildsNoGraph:
    @pytest.mark.parametrize("model_name", ["dlrm", "wdl", "dcn"])
    def test_predict_proba_creates_no_tensor(self, model_name, monkeypatch):
        with build(quickstart(model__name=model_name)) as session:
            batch = next(iter(session.dataset.training_stream(session.batch_size)))
            logits, _ = forward(session.model, batch)
            engine = ServingEngine(session.model, max_batch_size=64)
            created = []
            original = Tensor.__init__

            def counting(self, *args, **kwargs):
                created.append(type(self))
                original(self, *args, **kwargs)

            monkeypatch.setattr(Tensor, "__init__", counting)
            probabilities = session.trainer.predict(batch)
            direct = session.model.predict_proba(batch.categorical, batch.numerical)
            served = engine.predict(batch.categorical[:64], batch.numerical[:64])
            assert created == []
            assert probabilities.dtype == np.float32
            assert np.array_equal(probabilities, direct)
            assert np.array_equal(served, direct[:64])
            # Same values as the training forward's logits, through a sigmoid.
            assert np.allclose(direct, 1.0 / (1.0 + np.exp(-logits.data.astype(np.float64))))


# --------------------------------------------------------------------------- #
# (d) float32 vs float64 training parity
# --------------------------------------------------------------------------- #
def test_float32_training_tracks_float64():
    results = {}
    for dtype in ("float32", "float64"):
        with build(quickstart(store__dtype=dtype)) as session:
            history = session.trainer.train_stream(
                session.dataset.training_stream(session.batch_size), max_steps=200
            )
            test = session.dataset.test_batch(num_samples=session.scale.test_samples)
            results[dtype] = (
                history.average_loss,
                roc_auc(test.labels, session.trainer.predict(test)),
            )
    (loss32, auc32), (loss64, auc64) = results["float32"], results["float64"]
    assert abs(loss32 - loss64) <= 1e-3, (loss32, loss64)
    assert abs(auc32 - auc64) <= 5e-3, (auc32, auc64)


# --------------------------------------------------------------------------- #
# (d') the fused optimizer step left the trajectories where they were
# --------------------------------------------------------------------------- #
#: 1 500 quickstart steps (16 days of 12 288 samples, batch 128, float32, Adam)
#: recorded once at the commit before the flat optimizers: sha256 of the
#: float64 loss array, and every 100th loss so that a failure shows where.
GOLDEN_LOSSES = {
    "dlrm": (
        "a0869e9235f43c987fcb08b19a4c8d7aeb48120ce656daa4441e95016b17e39b",
        [
            0.6191143989562988, 0.5656620860099792, 0.6119319796562195,
            0.6237161159515381, 0.6516905426979065, 0.5490507483482361,
            0.614200234413147, 0.5203588604927063, 0.5622726082801819,
            0.5876370668411255, 0.50226891040802, 0.5633545517921448,
            0.5581021308898926, 0.554917573928833, 0.5917768478393555,
        ],
    ),
    "wdl": (
        "3c428303f2dc96c5c0a27fa778e8c67687c8f94e42bf41082928f95549060a14",
        [
            0.5930043458938599, 0.5177801251411438, 0.5655486583709717,
            0.6033080816268921, 0.6321991086006165, 0.5090330243110657,
            0.5965400338172913, 0.4682150185108185, 0.5047451853752136,
            0.5703848004341125, 0.4691614508628845, 0.531381368637085,
            0.5569645166397095, 0.5216230750083923, 0.5494067072868347,
        ],
    ),
    "dcn": (
        "a82c26263e92cb54f7f9e0d4ded03a6007d3c924462db2c5a731d44e7aaf6002",
        [
            0.5985672473907471, 0.5319189429283142, 0.575798749923706,
            0.6030387878417969, 0.642694354057312, 0.5007506012916565,
            0.5994713306427002, 0.470437228679657, 0.520372748374939,
            0.5844486951828003, 0.46630093455314636, 0.5386102199554443,
            0.5642048120498657, 0.5318922400474548, 0.5522927641868591,
        ],
    ),
}
#: sha256 of a fixed float32 matmul on the recording host.  Bit-equality of a
#: 1 500-step trajectory means something only where BLAS rounds the same way.
GOLDEN_BLAS = "3932c21c03de954568095ea40b0edb2b5d719e70cd0ba1ad111403c536df7a94"


def blas_fingerprint() -> str:
    rng = np.random.default_rng(0)
    left = rng.normal(size=(128, 367)).astype(np.float32)
    right = rng.normal(size=(367, 64)).astype(np.float32)
    return hashlib.sha256((left @ right).tobytes()).hexdigest()


@pytest.mark.parametrize("model_name", sorted(GOLDEN_LOSSES))
def test_quickstart_trajectory_equals_the_recorded_parent(model_name):
    if blas_fingerprint() != GOLDEN_BLAS:
        pytest.skip("golden losses were recorded on a host whose BLAS rounds differently")
    digest, every_100th = GOLDEN_LOSSES[model_name]
    config = quickstart(model__name=model_name, data__num_days=17, data__samples_per_day=12288)
    with build(config) as session:
        history = session.trainer.train_stream(
            session.dataset.training_stream(session.batch_size), max_steps=1500
        )
    losses = np.asarray(history.losses, dtype=np.float64)
    assert losses[99::100].tolist() == every_100th
    assert hashlib.sha256(losses.tobytes()).hexdigest() == digest


# --------------------------------------------------------------------------- #
# (e) checkpoints across the precision change
# --------------------------------------------------------------------------- #
def test_float64_dense_checkpoint_restores_into_float32_session(tmp_path):
    with build(quickstart()) as source, build(quickstart()) as target:
        source.train(max_steps=5)
        target.train(max_steps=2)  # any state other than the checkpoint's
        path = source.checkpoint(tmp_path / "model.npz")
        # The parent commit wrote every dense parameter as float64 under the
        # same key names; widen this checkpoint's dense section to that layout.
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        dense_keys = [key for key in payload if key.startswith("dense/")]
        assert dense_keys
        for key in dense_keys:
            payload[key] = payload[key].astype(np.float64)
        legacy = tmp_path / "legacy.npz"
        np.savez(legacy, **payload)

        assert target.restore(legacy) == 5
        assert all(p.data.dtype == np.float32 for p in target.model.parameters())
        test = source.dataset.test_batch(num_samples=256)
        assert np.array_equal(
            source.model.predict_proba(test.categorical, test.numerical),
            target.model.predict_proba(test.categorical, test.numerical),
        )
        target.trainer.train_step(next(iter(target.dataset.training_stream(target.batch_size))))
        assert all(p.data.dtype == np.float32 for p in target.model.parameters())


def test_checkpoint_migration_smoke_script_passes(capsys):
    script = REPO / "scripts" / "checkpoint_migration_smoke.py"
    assert runpy.run_path(str(script))["main"]() == 0
    capsys.readouterr()
