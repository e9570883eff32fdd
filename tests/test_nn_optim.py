"""Tests for dense optimizers and row (sparse) optimizers."""

import numpy as np
import pytest

from repro.errors import NonFiniteGradientError, OptimizerStateMismatchError
from repro.nn.optim import (
    Adam,
    RowAdagrad,
    RowSGD,
    make_row_optimizer,
)
from repro.nn.tensor import Parameter


def quadratic_step(optimizer_cls, steps=200, **kwargs):
    """Minimize ||x - target||^2 and return the final distance."""
    target = np.asarray([1.0, -2.0, 3.0])
    x = Parameter(np.zeros(3))
    optimizer = optimizer_cls([x], **kwargs)
    for _ in range(steps):
        x.grad = 2 * (x.data - target)
        optimizer.step()
        x.grad = None
    return np.abs(x.data - target).max()


class TestDenseOptimizers:
    def test_adam_converges(self):
        assert quadratic_step(Adam, lr=0.1, steps=500) < 1e-4

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.0)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=0.1, betas=(1.0, 0.9))

    def test_step_skips_parameters_without_grad(self):
        p = Parameter(np.ones(2))
        optimizer = Adam([p], lr=0.1)
        optimizer.step()  # no grad: must not change or crash
        assert np.allclose(p.data, 1.0)


# --------------------------------------------------------------------------- #
# The per-parameter loop the flat optimizer replaced, kept as the oracle
# --------------------------------------------------------------------------- #
class ReferenceOptimizer:
    """One state array per parameter, one update loop per parameter, no flush."""

    def __init__(self, parameters, lr, slots):
        self.parameters, self.lr = list(parameters), float(lr)
        self.state = {
            name: [np.zeros(p.shape, dtype=p.data.dtype) for p in self.parameters]
            for name in slots
        }
        self.step_count = 0

    def step(self):
        self.step_count += 1
        for index, param in enumerate(self.parameters):
            if param.grad is not None:
                work = [np.empty(param.shape, dtype=param.data.dtype) for _ in range(2)]
                self.update(param, *(arrays[index] for arrays in self.state.values()), *work)


class ReferenceAdam(ReferenceOptimizer):
    def __init__(self, parameters, lr, betas=(0.9, 0.999), eps=1e-8):
        super().__init__(parameters, lr, ("m", "v"))
        (self.beta1, self.beta2), self.eps = betas, eps

    def update(self, param, m, v, update, denom):
        bias1 = 1.0 - self.beta1**self.step_count
        bias2 = 1.0 - self.beta2**self.step_count
        m *= self.beta1
        np.multiply(param.grad, 1.0 - self.beta1, out=update)
        m += update
        v *= self.beta2
        np.square(param.grad, out=update)
        update *= 1.0 - self.beta2
        v += update
        np.divide(m, bias1, out=update)
        update *= self.lr
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        param.data -= update


SHAPES = [(5, 7), (7,), (7, 3), (3,), (3, 1), (1,)]
CASES = {
    "adam": (Adam, ReferenceAdam, {"lr": 0.01}),
    "adam-fast-betas": (Adam, ReferenceAdam, {"lr": 0.003, "betas": (0.8, 0.95)}),
    "adam-large-eps": (Adam, ReferenceAdam, {"lr": 0.1, "eps": 1e-3}),
}


def twin_optimizers(case, dtype, seed=0, **overrides):
    """The flat optimizer and the oracle over equal copies of one parameter set."""
    new_cls, reference_cls, kwargs = CASES[case]
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=shape).astype(dtype) for shape in SHAPES]
    new_params = [Parameter(value.copy()) for value in values]
    reference_params = [Parameter(value.copy()) for value in values]
    kwargs = {**kwargs, **overrides}
    return new_cls(new_params, **kwargs), reference_cls(reference_params, **kwargs), rng


def flat(arrays) -> np.ndarray:
    return np.concatenate([np.asarray(array).reshape(-1) for array in arrays])


def assert_same_bits(optimizer, reference):
    for got, expected in zip(optimizer.parameters, reference.parameters):
        assert got.data.dtype == expected.data.dtype
        assert got.data.tobytes() == expected.data.tobytes()


def give_gradients(optimizer, grads, staged: bool) -> None:
    """Hand ``grads`` to ``optimizer`` as ``param.grad`` or, ``staged``, by
    writing them into its staging views (what ``Trainer`` does)."""
    for param, view, grad in zip(optimizer.parameters, optimizer.staging, grads):
        if staged:
            np.copyto(view, grad)
        else:
            param.grad = grad


def subnormal(array: np.ndarray) -> np.ndarray:
    return (array != 0) & (np.abs(array) < np.finfo(array.dtype).tiny)


class TestFlatOptimizersAgainstTheOracle:
    @pytest.mark.parametrize("staged", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_equal_over_300_random_steps(self, case, dtype, staged):
        optimizer, reference, rng = twin_optimizers(case, dtype)
        threshold = np.sqrt(np.finfo(dtype).tiny)
        for _ in range(300):
            grads = [rng.normal(size=shape).astype(dtype) for shape in SHAPES]
            give_gradients(optimizer, grads, staged)
            for expected, grad in zip(reference.parameters, grads):
                expected.grad = grad.copy()
            optimizer.step_staged() if staged else optimizer.step()
            reference.step()
            assert_same_bits(optimizer, reference)
        # Nothing came near the flush threshold, so state is bit-equal too.
        assert optimizer.step_count == reference.step_count == 300
        for name, array in optimizer.state.items():
            assert np.abs(array).min() > threshold
            assert array.tobytes() == flat(reference.state[name]).tobytes()

    @pytest.mark.parametrize(
        "case, dtype, overrides, dead_state",
        [
            ("adam", np.float32, {}, ("m",)),
            ("adam", np.float32, {"betas": (0.9, 0.95)}, ("m", "v")),
            ("adam", np.float64, {"betas": (0.5, 0.6)}, ("m", "v")),
        ],
    )
    def test_dead_units_flush_to_zero_and_leave_no_subnormal(
        self, case, dtype, overrides, dead_state
    ):
        """ReLU-dead units: a slice of every gradient is exactly 0 from step 50 on."""
        optimizer, reference, rng = twin_optimizers(case, dtype, **overrides)
        dead = [rng.random(shape) < 0.6 for shape in SHAPES]

        def one_step(step):
            for got, expected, mask in zip(optimizer.parameters, reference.parameters, dead):
                grad = rng.normal(size=got.shape).astype(dtype)
                if step >= 50:
                    grad[mask] = 0.0
                got.grad, expected.grad = grad, grad.copy()
            optimizer.step()
            with np.errstate(under="ignore"):
                reference.step()

        for step in range(3000):
            one_step(step)
        # The oracle shows what the flush prevents ...
        oracle_state = flat(reference.state[dead_state[0]])
        assert subnormal(oracle_state).any() or (oracle_state[flat(dead)] == 0).all()
        # ... and moved no parameter by a single bit.
        assert_same_bits(optimizer, reference)
        for name, array in optimizer.state.items():
            assert not subnormal(array).any(), name
            if name in dead_state:
                assert np.array_equal(array[flat(dead)], np.zeros(int(flat(dead).sum())))
                assert np.all(array[~flat(dead)] != 0)
        with np.errstate(under="raise"):
            for step in range(3000, 3010):
                one_step(step)
                assert not subnormal(optimizer._update).any()
        assert_same_bits(optimizer, reference)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_none_gradient_between_two_parameters_with_gradients(self, case):
        optimizer, reference, rng = twin_optimizers(case, np.float32)
        skipped = (0, 3, 4)  # the first, and a run of two in the middle
        for step in range(20):
            for index, (got, expected) in enumerate(zip(optimizer.parameters, reference.parameters)):
                grad = rng.normal(size=got.shape).astype(np.float32)
                # Every parameter has taken steps before some lose their gradient.
                got.grad = None if step >= 10 and index in skipped else grad
                expected.grad = None if got.grad is None else grad.copy()
            optimizer.step()
            reference.step()
            assert_same_bits(optimizer, reference)
        for name, array in optimizer.state.items():
            assert array.tobytes() == flat(reference.state[name]).tobytes()

    @pytest.mark.parametrize("staged", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_is_refused_before_anything_is_touched(self, case, poison, staged):
        optimizer, _, rng = twin_optimizers(case, np.float32)
        step = optimizer.step_staged if staged else optimizer.step
        for _ in range(3):
            give_gradients(optimizer, [rng.normal(size=s).astype(np.float32) for s in SHAPES], staged)
            step()
        grads = [rng.normal(size=s).astype(np.float32) for s in SHAPES]
        grads[-2][1, 0] = poison  # late in the flat range
        give_gradients(optimizer, grads, staged)
        before = (
            [param.data.tobytes() for param in optimizer.parameters],
            {name: array.tobytes() for name, array in optimizer.state.items()},
            optimizer.step_count,
        )
        with pytest.raises(NonFiniteGradientError):
            step()
        after = (
            [param.data.tobytes() for param in optimizer.parameters],
            {name: array.tobytes() for name, array in optimizer.state.items()},
            optimizer.step_count,
        )
        assert before == after and optimizer.step_count == 3

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_state_dict_round_trip_resumes_bit_exactly(self, case):
        optimizer, _, rng = twin_optimizers(case, np.float32)
        resumed, _, _ = twin_optimizers(case, np.float32, seed=1)
        grads = [[rng.normal(size=s).astype(np.float32) for s in SHAPES] for _ in range(10)]

        def run(target, steps):
            for step_grads in steps:
                for param, grad in zip(target.parameters, step_grads):
                    param.grad = grad
                target.step()

        run(optimizer, grads[:5])
        saved = optimizer.state_dict()
        assert str(saved["kind"]) == optimizer.kind and int(saved["step_count"]) == 5
        for got, source in zip(resumed.parameters, optimizer.parameters):
            got.data = source.data.copy()
        assert not resumed.restored
        resumed.load_state_dict(saved)
        assert resumed.restored
        run(optimizer, grads[5:])
        run(resumed, grads[5:])
        assert_same_bits(resumed, optimizer)
        for name, array in optimizer.state.items():
            assert array.tobytes() == resumed.state[name].tobytes()
        resumed.reset_state()
        assert resumed.step_count == 0 and not resumed.restored
        assert all(not array.any() for array in resumed.state.values())

    def test_load_state_dict_refuses_another_kind_layout_or_size(self):
        params = [Parameter(np.ones((2, 3)))]
        adam = Adam(params, lr=0.1)
        # The retired dense Adagrad / SGD wrote their own kind and arrays.
        retired = {
            "adagrad": {"accumulator": np.ones(6)},
            "sgd": {"velocity": np.ones(6)},
        }
        for kind, arrays in retired.items():
            with pytest.raises(OptimizerStateMismatchError, match=kind):
                adam.load_state_dict({"kind": np.asarray(kind), "step_count": np.asarray(3), **arrays})
        with pytest.raises(OptimizerStateMismatchError):
            adam.load_state_dict(Adam([Parameter(np.ones(5))], lr=0.1).state_dict())
        missing_v = {k: v for k, v in Adam(params, lr=0.1).state_dict().items() if k != "v"}
        with pytest.raises(OptimizerStateMismatchError):
            adam.load_state_dict(missing_v)
        assert adam.step_count == 0 and not adam.restored


class TestRowOptimizers:
    def test_row_sgd_updates_only_selected_rows(self):
        table = np.zeros((5, 3))
        opt = RowSGD(lr=0.5)
        opt.update(table, np.asarray([1, 3]), np.ones((2, 3)))
        assert np.allclose(table[1], -0.5)
        assert np.allclose(table[3], -0.5)
        assert np.allclose(table[0], 0.0)

    def test_row_sgd_duplicate_rows_sum(self):
        table = np.zeros((4, 2))
        opt = RowSGD(lr=1.0)
        opt.update(table, np.asarray([2, 2]), np.ones((2, 2)))
        assert np.allclose(table[2], -2.0)

    def test_row_adagrad_scales_updates(self):
        table = np.zeros((4, 2))
        opt = RowAdagrad(lr=1.0)
        grads = np.full((1, 2), 2.0)
        opt.update(table, np.asarray([0]), grads)
        first = table[0].copy()
        opt.update(table, np.asarray([0]), grads)
        second = table[0] - first
        # Adagrad's accumulated state shrinks the second step.
        assert np.all(np.abs(second) < np.abs(first))

    def test_row_adagrad_reset_rows(self):
        table = np.zeros((4, 2))
        opt = RowAdagrad(lr=1.0)
        opt.update(table, np.asarray([1]), np.ones((1, 2)))
        opt.reset_rows(np.asarray([1]))
        assert opt._accumulator[1] == 0.0

    def test_row_adagrad_resizes_with_table(self):
        opt = RowAdagrad(lr=0.1)
        small = np.zeros((2, 2))
        opt.update(small, np.asarray([0]), np.ones((1, 2)))
        large = np.zeros((6, 2))
        opt.update(large, np.asarray([5]), np.ones((1, 2)))  # must not raise
        assert opt._accumulator.shape[0] == 6

    def test_row_adagrad_state_buffers_are_the_live_accumulator(self):
        table = np.zeros((4, 2))
        opt = RowAdagrad(lr=1.0)
        buffers = opt.state_buffers(table)
        assert set(buffers) == {"accumulator"}
        assert buffers["accumulator"].shape == (4,)
        opt.update(table, np.asarray([2]), np.ones((1, 2)))
        # The returned array is the optimizer's own state, not a copy.
        assert buffers["accumulator"][2] > 0.0
        assert buffers["accumulator"][[0, 1, 3]].tolist() == [0.0, 0.0, 0.0]

    def test_adopted_state_buffers_keep_the_update_bits(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 6, size=(10, 3))
        grads = rng.normal(size=(10, 3, 2))
        plain_table, adopted_table = np.zeros((6, 2)), np.zeros((6, 2))
        plain, adopted = RowAdagrad(lr=0.3), RowAdagrad(lr=0.3)
        owned = np.zeros(6)
        adopted.adopt_state_buffers({"accumulator": owned})
        for step_rows, step_grads in zip(rows, grads):
            plain.update(plain_table, step_rows, step_grads)
            adopted.update(adopted_table, step_rows, step_grads)
        assert np.array_equal(plain_table, adopted_table)
        # Every step wrote into the caller-owned array.
        assert adopted.state_buffers(adopted_table)["accumulator"] is owned
        assert np.array_equal(owned, plain.state_buffers(plain_table)["accumulator"])

    def test_stateless_row_sgd_has_no_state_buffers(self):
        opt = RowSGD(lr=0.1)
        assert opt.state_buffers(np.zeros((3, 2))) == {}
        opt.adopt_state_buffers({})  # nothing to adopt is fine

    def test_shared_buffer_names_are_retired(self):
        for opt in (RowSGD(lr=0.1), RowAdagrad(lr=0.1)):
            assert not hasattr(opt, "shared_buffers")
            assert not hasattr(opt, "adopt_shared_buffers")

    def test_factory(self):
        assert isinstance(make_row_optimizer("sgd", 0.1), RowSGD)
        assert isinstance(make_row_optimizer("adagrad", 0.1), RowAdagrad)
        with pytest.raises(ValueError):
            make_row_optimizer("adamw", 0.1)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            RowSGD(lr=-1.0)
