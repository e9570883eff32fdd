"""Training and evaluation loops implementing the paper's protocol (§5.1.4).

One chronological epoch over the training days; the last day is held out as
the test set.  The *offline* metric is the testing AUC on that last day, the
*online* metric is the average training loss over the stream.  The trainer
also exposes hooks the analysis experiments need: iteration-level metric
histories (Figure 9) and per-feature gradient-norm accumulation (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from repro.data.stream import Batch, all_finite
from repro.errors import BatchShapeError, DataError, InvalidLabelError, NonFiniteFeatureError
from repro.models.base import RecommendationModel
from repro.nn import functional as F
from repro.nn.layers import claim_workspace
from repro.nn.optim import Adam
from repro.training.metrics import log_loss, roc_auc
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Most rows per forward pass when :meth:`Trainer.predict` is not given a
#: size.  An evaluation's transient is the dense workspace of one pass (a
#: 4096-row DLRM pass holds a 12 MB Gram matrix alone), so this can set a
#: run's high-water mark; 512-row pieces take about as long as 4096-row ones
#: (docs/benchmarks.md "Evaluation in 512-row pieces").
EVAL_BATCH_SIZE = 512

#: Every evaluation piece but the last is a whole number of blocks of this
#: many rows (when the piece size is).
EVAL_ROW_ALIGN = 16


def eval_pieces(rows: int, batch_size: int) -> list[int]:
    """Where each piece of a ``rows``-row evaluation ends: ``ceil(rows /
    batch_size)`` pieces of near-equal size, the larger ones first, each a
    whole number of :data:`EVAL_ROW_ALIGN`-row blocks (when ``batch_size``
    is) but the last, which also takes the rows past the last whole block.

    BLAS computes a row's bits by where it falls in its pass.  Against one
    pass over all rows, a remainder piece of up to 32 rows, or pieces that
    start off a 4-row block, changed the last bits of DLRM, WDL and DCN;
    near-equal 16-row blocks changed none at the test-set sizes (2 048,
    4 096, 8 192 rows).  At other sizes one pass itself takes another path
    for a row or two (docs/benchmarks.md "Evaluation in 512-row pieces").
    """
    unit = EVAL_ROW_ALIGN if batch_size % EVAL_ROW_ALIGN == 0 else 1
    pieces = -(-rows // batch_size)
    blocks, larger = divmod(rows // unit, pieces or 1)
    ends = [unit * (i * blocks + min(i, larger)) for i in range(1, pieces)]
    return ends + [rows] if pieces else ends


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


def _checked_labels(labels: np.ndarray, rows: int) -> np.ndarray:
    """``labels`` if they are ``rows`` values in ``[0, 1]``; two reductions
    (a NaN fails both comparisons, an inf one of them)."""
    labels = np.asarray(labels)
    if labels.shape != (rows,):
        raise BatchShapeError(f"labels must have shape ({rows},), got {labels.shape}")
    if not (labels.min() >= 0 and labels.max() <= 1):
        raise InvalidLabelError(
            "labels must be finite and in [0, 1]; the batch was refused before the lookup"
        )
    return labels


class Trainer:
    """Drives a :class:`RecommendationModel` over a batch stream.

    The dense network is trained by an :class:`~repro.nn.optim.Adam` at
    ``dense_learning_rate`` (:attr:`dense_optimizer`); the embedding store
    updates itself with the row optimizer it was built with.  Any model
    that implements ``dense_forward`` / ``dense_backward`` trains here, the
    built-in ones and a custom one alike
    (``examples/custom_model_integration.py``).
    """

    def __init__(self, model: RecommendationModel, *, dense_learning_rate: float = 0.01):
        self.model = model
        self.dense_optimizer = Adam(list(model.parameters()), dense_learning_rate)
        self.global_step = 0

    # ------------------------------------------------------------------ #
    # Single step
    # ------------------------------------------------------------------ #
    def train_step(self, batch: Batch) -> float:
        """One forward/backward/update pass; returns the batch loss.

        The embedding store computes its routing plan during the forward
        lookup and reuses it here when the gradients come back, so hashing
        and slot location run once per step, not twice; the plan cache is
        the store's, at every shard count.  A batch without rows, without the
        model's field or numerical-column count, or without one label per row,
        raises :class:`~repro.errors.BatchShapeError`; ids that are not
        integers :class:`~repro.errors.NonIntegerIdError`; NaN/inf in
        ``batch.numerical`` :class:`~repro.errors.NonFiniteFeatureError`;
        a label that is NaN/inf or outside ``[0, 1]``
        :class:`~repro.errors.InvalidLabelError` — all before the lookup,
        with nothing touched.
        """
        return self._step(batch)[0]

    def _step(self, batch: Batch) -> tuple[float, np.ndarray]:
        """The training step itself, over arrays (no graph): returns
        ``(loss, embedding gradient)``.

        The model's array forward and backward run in its workspace, as
        ``forward_dense``'s graph node runs them, and the backward writes the
        parameter gradients straight into the dense optimizer's staging
        buffer.  The values are bit-identical to the graph composition
        ``forward_dense`` → ``binary_cross_entropy_with_logits`` →
        ``backward()`` → ``step()``.
        """
        model, optimizer = self.model, self.dense_optimizer
        categorical, numerical = model._check_batch(batch.categorical, batch.numerical)
        if not len(categorical):
            raise BatchShapeError(
                "a training batch must hold at least one row; the empty batch was refused "
                "before the lookup"
            )
        labels = _checked_labels(batch.labels, len(categorical))
        if not all_finite(batch.numerical):
            raise NonFiniteFeatureError(
                "batch numerical features contain NaN or inf; the batch was refused "
                "before the forward pass"
            )
        x = np.asarray(model.store.lookup(categorical), dtype=model.dtype)
        weights = [param.data for param in optimizer.parameters]
        ws = model._workspace = claim_workspace(model._workspace, len(x), model.dtype)
        z = model.dense_forward(weights, x, numerical, ws).reshape(-1)
        y = np.asarray(labels, dtype=model.dtype)
        loss, e = F.bce_with_logits_array(z, y)
        dlogits = F.bce_with_logits_backward_array(z, y, e)
        dx = model.dense_backward(
            weights, x, numerical, dlogits.reshape(-1, 1), ws, optimizer.staging
        )
        model.store.apply_gradients(categorical, dx)
        optimizer.step_staged()
        self.global_step += 1
        return float(loss), dx

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
        """Train over ``stream`` capturing the loss curve and periodic AUC.

        ``max_steps`` bounds the run before each step (``0`` trains nothing)
        and no batch past it is drawn from ``stream``.  A negative bound is
        refused with a ``ValueError`` that names ``max_steps`` (``islice``'s
        own refusal does not say which argument was wrong).
        """
        if max_steps is not None and max_steps < 0:
            raise ValueError(f"max_steps must be non-negative, got {max_steps}")
        history = TrainingHistory()
        for batch in islice(stream, max_steps):
            loss = self.train_step(batch)
            history.losses.append(loss)
            history.steps.append(self.global_step)
            if eval_batch is not None and eval_every and self.global_step % eval_every == 0:
                auc = self.evaluate_auc(eval_batch)
                history.eval_steps.append(self.global_step)
                history.eval_aucs.append(auc)
        return history

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def predict(self, batch: Batch, batch_size: int | None = None) -> np.ndarray:
        """Click probabilities for a (possibly large) evaluation batch, in
        pieces of at most ``batch_size`` rows (default :data:`EVAL_BATCH_SIZE`;
        a size below 1 raises :class:`~repro.errors.DataError`), cut by
        :func:`eval_pieces` (near-equal, no sliver)."""
        if batch_size is None:
            batch_size = EVAL_BATCH_SIZE
        if batch_size <= 0:
            raise DataError(f"batch_size must be positive, got {batch_size}")
        ends = eval_pieces(len(batch.categorical), batch_size)
        outputs = [
            self.model.predict_proba(batch.categorical[start:end], batch.numerical[start:end])
            for start, end in zip([0, *ends], ends)
        ]
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
            grad = self._step(batch)[1]
            norms = np.linalg.norm(grad.reshape(-1, self.model.dim), axis=1)
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
