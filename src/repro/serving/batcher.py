"""The one request micro-batcher behind ``ServingEngine`` and ``Replica``."""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import sanitizer
from repro.data.stream import all_finite, as_id_array
from repro.embeddings.plan import check_id_range
from repro.errors import IdOutOfRangeError, MalformedRequestError
from repro.serving.stats import LatencyTracker


_INT64 = np.dtype(np.int64)


class PendingPrediction:
    """Future-like handle for one submitted request."""

    __slots__ = ("rows", "submitted_at", "probabilities", "latency_s", "error")

    def __init__(self, rows: int, submitted_at: float):
        self.rows = rows
        self.submitted_at = submitted_at
        self.probabilities: np.ndarray | None = None
        self.latency_s: float | None = None
        #: Why the request was refused at its flush (an out-of-range id).
        self.error: Exception | None = None

    @property
    def done(self) -> bool:
        return self.probabilities is not None or self.error is not None

    def result(self) -> np.ndarray:
        if self.error is not None:
            raise self.error
        if self.probabilities is None:
            raise RuntimeError("request not served yet; call flush()")
        return self.probabilities


class MicroBatcher:
    """Request queue + counters; subclasses say which model answers.

    Requests queue until ``max_batch_size`` rows are pending (or an explicit
    ``flush``) and then run as one batched forward pass.  The queue holds no
    per-request arrays: ``submit`` writes a request's rows straight into one
    reusable ``(capacity, fields)`` int64 block and one ``(capacity,
    num_numerical)`` block in the model's dtype; ``flush`` hands contiguous
    slices of them to ``predict_proba``.

    Grouping: a flush walks the queue in order and closes a micro-batch
    before the first request that would push it past ``max_batch_size`` —
    a request is never split, an oversized one is served alone, and a
    threshold-triggered flush leaves the queue empty.

    Block-reuse contract: the next ``submit`` overwrites the blocks, so
    nothing that outlives a ``flush`` may alias them — a reply is a slice of
    the array ``predict_proba`` returned, never of a block, and the store
    keeps private copies of the ids it caches.  ``REPRO_SANITIZE=1`` checks
    this after every micro-batch.
    """

    def __init__(self, max_batch_size: int):
        if max_batch_size <= 0:
            raise ValueError(f"max_batch_size must be positive, got {max_batch_size}")
        self.max_batch_size = int(max_batch_size)
        self.latency = LatencyTracker()
        self.micro_batches = 0
        self.requests_served = 0
        self.rows_served = 0
        #: Rows waiting in the queue (the next free row of the request block).
        self.queued_rows = 0
        self._queue: list[PendingPrediction] = []
        # The request blocks and their shape constants, allocated by _stage();
        # _numerical_rows holds one view per block row (capacity = its length).
        self._categorical = self._numerical = self._one_row = None
        self._numerical_rows: list[np.ndarray] = []
        self._width = 0

    def _serving_model(self):
        """The frozen model queued requests are answered from."""
        raise NotImplementedError  # pragma: no cover - abstract

    def submit(self, categorical: np.ndarray, numerical: np.ndarray | None = None) -> PendingPrediction:
        """Queue one request (a single example or a small row block).

        It executes when the queue reaches ``max_batch_size`` rows or on
        :meth:`flush`; the returned handle fills in then.  ``numerical=None``
        is zeros.  A malformed request — wrong field count, non-integer ids,
        wrong-shaped or NaN/inf ``numerical`` — is refused here, alone, with a
        :class:`~repro.errors.BadBatchError`; nothing already queued is lost.
        """
        categorical = np.asarray(categorical)
        start = self.queued_rows
        if (
            categorical.shape == self._one_row
            and categorical.dtype is _INT64
            and start < len(self._numerical_rows)
        ):  # one ready-made example: the hot path, no slicing
            stop = start + 1
            self._categorical[start] = categorical
            target = self._numerical_rows[start]
        else:
            stop, target = self._stage(start, categorical)
        if numerical is None:
            target[...] = 0
        elif self._width:
            numerical = np.asarray(numerical)
            try:
                if numerical.size != target.size:
                    raise ValueError(f"got shape {numerical.shape}")
                target[...] = numerical  # the one cast, straight to the model's dtype
            except ValueError as error:
                raise MalformedRequestError(
                    f"request numerical must be ({stop - start}, {self._width}): {error}"
                ) from None
            if not all_finite(target):  # what the block now holds
                raise MalformedRequestError("request numerical contains NaN or inf")
        pending = PendingPrediction(stop - start, time.perf_counter())
        self._queue.append(pending)
        self.queued_rows = stop
        if stop >= self.max_batch_size:
            self.flush()
        return pending

    def _stage(self, start: int, categorical: np.ndarray) -> tuple[int, np.ndarray]:
        """Validate and write a request's ids off the hot path; returns its
        end row and its slice of the numerical block.  (Re)allocates the
        blocks when the request does not fit, keeping the rows queued."""
        model = self._serving_model()
        categorical = as_id_array(categorical)
        if categorical.ndim == 1:
            categorical = categorical[None, :]
        if categorical.ndim != 2 or categorical.shape[1] != model.num_fields:
            raise MalformedRequestError(
                f"request ids must have shape (rows, {model.num_fields}), got {categorical.shape}"
            )
        stop = start + categorical.shape[0]
        if stop > len(self._numerical_rows):
            old_categorical, old_numerical = self._categorical, self._numerical
            capacity = max(stop, self.max_batch_size, 2 * len(self._numerical_rows))
            self._one_row = (model.num_fields,)
            self._width = model.num_numerical
            self._categorical = np.empty((capacity, model.num_fields), dtype=np.int64)
            self._numerical = np.empty((capacity, self._width), dtype=model.dtype)
            self._numerical_rows = list(self._numerical)
            if start:
                self._categorical[:start] = old_categorical[:start]
                self._numerical[:start] = old_numerical[:start]
        self._categorical[start:stop] = categorical
        return stop, self._numerical[start:stop]

    def flush(self) -> int:
        """Serve every queued request in micro-batches; returns rows served."""
        if not self._queue:
            return 0
        model = self._serving_model()
        queue, served = self._queue, self.queued_rows
        self._queue, self.queued_rows = [], 0
        if served <= self.max_batch_size:
            self._serve(model, queue, 0, served)
            return served
        first = start = stop = 0
        for index, pending in enumerate(queue):
            if stop > start and stop - start + pending.rows > self.max_batch_size:
                self._serve(model, queue[first:index], start, stop)
                first, start = index, stop
            stop += pending.rows
        self._serve(model, queue[first:], start, stop)
        return served

    def _serve(self, model, requests: list[PendingPrediction], start: int, stop: int) -> None:
        """One forward pass over block rows ``[start, stop)`` = ``requests``.

        The store range-checks ids at lookup; when that refuses the pass,
        each request holding an out-of-range id is completed with the error
        and the others are served in one pass over their rows.
        """
        try:
            probabilities = model.predict_proba(
                self._categorical[start:stop], self._numerical[start:stop]
            )
        except IdOutOfRangeError:
            requests, probabilities = self._serve_in_range(model, requests, start, stop)
        completed_at = time.perf_counter()
        offset = 0
        for pending in requests:
            end = offset + pending.rows
            pending.probabilities = probabilities[offset:end]
            pending.latency_s = completed_at - pending.submitted_at
            offset = end
        self.latency.record_many([pending.latency_s for pending in requests])
        self.micro_batches += 1
        self.requests_served += len(requests)
        self.rows_served += len(probabilities)
        if sanitizer.enabled():
            sanitizer.assert_unaliased(
                (probabilities, model), (self._categorical, self._numerical), "request block"
            )

    def _serve_in_range(
        self, model, requests: list[PendingPrediction], start: int, stop: int
    ) -> tuple[list[PendingPrediction], np.ndarray]:
        """Complete each request of block rows ``[start, stop)`` that holds an
        out-of-range id with the error; returns the others, served."""
        categorical = self._categorical[start:stop]
        num_features = model.store.num_features
        in_range = ((categorical >= 0) & (categorical < num_features)).all(axis=1)
        valid, rows, offset = [], [], 0
        for pending in requests:
            span = slice(offset, offset + pending.rows)
            offset = span.stop
            if in_range[span].all():
                valid.append(pending)
                rows.append(np.arange(start + span.start, start + span.stop))
                continue
            ids = categorical[span]
            try:
                check_id_range(int(ids.min()), int(ids.max()), num_features)
            except IdOutOfRangeError as error:
                pending.error = error
            pending.latency_s = time.perf_counter() - pending.submitted_at
        if not valid:
            return valid, np.empty(0, dtype=model.dtype)
        rows = np.concatenate(rows)
        return valid, model.predict_proba(self._categorical[rows], self._numerical[rows])

    def predict(self, categorical: np.ndarray, numerical: np.ndarray | None = None) -> np.ndarray:
        """Synchronous convenience: submit one request and serve it now."""
        pending = self.submit(categorical, numerical)
        if not pending.done:
            self.flush()
        return pending.result()
