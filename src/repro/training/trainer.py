"""Training and evaluation loops implementing the paper's protocol (§5.1.4).

One chronological epoch over the training days; the last day is held out as
the test set.  The *offline* metric is the testing AUC on that last day, the
*online* metric is the average training loss over the stream.  The trainer
also exposes hooks the analysis experiments need: iteration-level metric
histories (Figure 9) and per-feature gradient-norm accumulation (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.data.stream import Batch, all_finite, iterate_batches
from repro.errors import NonFiniteFeatureError
from repro.models.base import RecommendationModel
from repro.nn import functional as F
from repro.nn.optim import Adagrad, Adam, Optimizer, SGD
from repro.nn.tensor import Tensor, no_grad
from repro.training.metrics import log_loss, roc_auc
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Rows per forward pass when :meth:`Trainer.predict` is not given a size.
EVAL_BATCH_SIZE = 4096


@dataclass
class TrainingHistory:
    """Metric traces captured during one run."""

    losses: list[float] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    eval_steps: list[int] = field(default_factory=list)
    eval_aucs: list[float] = field(default_factory=list)

    @property
    def average_loss(self) -> float:
        return float(np.mean(self.losses)) if self.losses else float("nan")

    def smoothed_losses(self, window: int = 20) -> np.ndarray:
        """Moving average of the loss curve (for iteration plots)."""
        if not self.losses:
            return np.empty(0)
        values = np.asarray(self.losses, dtype=np.float64)
        window = max(min(window, values.size), 1)
        kernel = np.ones(window) / window
        return np.convolve(values, kernel, mode="valid")


def _make_dense_optimizer(name: str, parameters, lr: float) -> Optimizer:
    lowered = name.lower()
    if lowered == "sgd":
        return SGD(parameters, lr)
    if lowered == "adagrad":
        return Adagrad(parameters, lr)
    if lowered == "adam":
        return Adam(parameters, lr)
    raise ValueError(f"unknown dense optimizer '{name}'")


class Trainer:
    """Drives a :class:`RecommendationModel` over a batch stream.

    The dense network is trained by ``dense_optimizer`` (``"sgd"``,
    ``"adagrad"`` or ``"adam"``); the embedding store updates itself with the
    row optimizer it was built with.
    """

    def __init__(
        self,
        model: RecommendationModel,
        *,
        dense_optimizer: str = "adam",
        dense_learning_rate: float = 0.01,
    ):
        self.model = model
        self.dense_optimizer = _make_dense_optimizer(
            dense_optimizer, list(model.parameters()), dense_learning_rate
        )
        self.global_step = 0

    # ------------------------------------------------------------------ #
    # Single step
    # ------------------------------------------------------------------ #
    def train_step(self, batch: Batch) -> float:
        """One forward/backward/update pass; returns the batch loss.

        The embedding store computes its routing plan during the forward
        lookup and reuses it here when the gradients come back, so hashing
        and slot location run once per step, not twice — at the shard level
        and inside each shard backend.  NaN/inf in ``batch.numerical``
        raises :class:`~repro.errors.NonFiniteFeatureError` before the
        forward pass, with nothing touched.
        """
        return float(self._step(batch)[0].data)

    def _step(self, batch: Batch) -> tuple[Tensor, Tensor]:
        """The training step itself; returns ``(loss, embedding leaf)``."""
        if not all_finite(batch.numerical):
            raise NonFiniteFeatureError(
                "batch numerical features contain NaN or inf; the batch was refused "
                "before the forward pass"
            )
        logits, leaf = self.model.forward(batch.categorical, batch.numerical)
        loss = F.binary_cross_entropy_with_logits(logits, batch.labels)
        # The optimizer holds the model's parameter list; ``model.zero_grad()``
        # would re-walk the module tree by reflection on every step.
        self.dense_optimizer.zero_grad()
        loss.backward()
        if leaf.grad is None:  # pragma: no cover - defensive, autograd always fills it
            raise RuntimeError("embedding leaf did not receive a gradient")
        self.model.store.apply_gradients(batch.categorical, leaf.grad)
        self.dense_optimizer.step()
        self.global_step += 1
        return loss, leaf

    def embedding_plan_stats(self) -> dict[str, float | int]:
        """Routing-plan cache behaviour of the model's embedding store."""
        return self.model.store.plan_stats.as_dict()

    # ------------------------------------------------------------------ #
    # Stream / epoch training
    # ------------------------------------------------------------------ #
    def train_stream(
        self,
        stream: Iterable[Batch],
        eval_batch: Batch | None = None,
        eval_every: int | None = None,
        max_steps: int | None = None,
    ) -> TrainingHistory:
        """Train over ``stream`` capturing the loss curve and periodic AUC."""
        history = TrainingHistory()
        for batch in stream:
            loss = self.train_step(batch)
            history.losses.append(loss)
            history.steps.append(self.global_step)
            if eval_batch is not None and eval_every and self.global_step % eval_every == 0:
                auc = self.evaluate_auc(eval_batch)
                history.eval_steps.append(self.global_step)
                history.eval_aucs.append(auc)
            if max_steps is not None and len(history.losses) >= max_steps:
                break
        return history

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def predict(self, batch: Batch, batch_size: int | None = None) -> np.ndarray:
        """Click probabilities for a (possibly large) evaluation batch.

        Runs under ``no_grad()``: evaluation pieces are thousands of rows, and
        a recorded graph would keep every activation of a piece alive until
        its forward returns.
        """
        batch_size = batch_size or EVAL_BATCH_SIZE
        outputs = []
        with no_grad():
            for piece in iterate_batches(batch.categorical, batch.numerical, batch.labels, batch_size):
                outputs.append(self.model.predict_proba(piece.categorical, piece.numerical))
        return np.concatenate(outputs)

    def evaluate_auc(self, batch: Batch, batch_size: int | None = None) -> float:
        return roc_auc(batch.labels, self.predict(batch, batch_size))

    def evaluate_log_loss(self, batch: Batch, batch_size: int | None = None) -> float:
        return log_loss(batch.labels, self.predict(batch, batch_size))

    # ------------------------------------------------------------------ #
    # Analysis hooks
    # ------------------------------------------------------------------ #
    def collect_gradient_norms(self, stream: Iterable[Batch], num_features: int) -> np.ndarray:
        """Accumulate per-feature L2 gradient norms while training.

        This is the measurement behind Figure 3 (gradient-norm distribution
        vs. Zipf fits): the per-lookup embedding gradients are exactly what
        CAFE feeds to HotSketch as importance scores.
        """
        totals = np.zeros(num_features, dtype=np.float64)
        for batch in stream:
            _, leaf = self._step(batch)
            norms = np.linalg.norm(leaf.grad.reshape(-1, self.model.dim), axis=1)
            np.add.at(totals, batch.categorical.reshape(-1), norms)
        return totals


def train_and_evaluate(
    model: RecommendationModel,
    train_stream: Iterator[Batch],
    test_batch: Batch,
    eval_every: int | None = None,
) -> dict[str, float | TrainingHistory]:
    """Convenience wrapper: one epoch of online training + final testing AUC.

    Returns a dictionary with the two metrics the paper reports for every
    configuration — the average training loss (online metric) and the testing
    AUC on the held-out last day (offline metric) — plus the raw history.
    """
    trainer = Trainer(model)
    history = trainer.train_stream(train_stream, eval_batch=test_batch, eval_every=eval_every)
    test_auc = trainer.evaluate_auc(test_batch)
    test_loss = trainer.evaluate_log_loss(test_batch)
    return {
        "train_loss": history.average_loss,
        "test_auc": test_auc,
        "test_log_loss": test_loss,
        "history": history,
    }
