"""The logistic function and the binary cross-entropy loss, over arrays.

``Trainer`` trains every model with no graph: between the model's array
forward and backward it calls :func:`bce_with_logits_array` and
:func:`bce_with_logits_backward_array`; ``predict_proba`` calls
:func:`sigmoid_array`.  :func:`binary_cross_entropy_with_logits` is the same
loss as one graph node, for a loss built on ``forward_dense``'s node.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, make_node


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #
def sigmoid_array(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """The logistic function of ``z``, with no overflow at either tail.

    With ``e = exp(-|z|)`` (pass it when it is already computed, see
    :func:`bce_with_logits_array`) the result is ``1 / (1 + e)`` where
    ``z >= 0`` and ``e / (1 + e)`` elsewhere.  This is the one sigmoid of the
    library: the loss gradient and ``predict_proba`` both call it.
    """
    if e is None:
        e = _exp_neg_abs(z)
    denom = 1.0 + e
    return np.where(z >= 0, 1.0 / denom, e / denom)


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    """``exp(-|z|)``, with ``-|z|`` taken as ``min(z, -z)``: the same value,
    except that a NaN keeps its sign, as ``exp(z)`` of a negative-branch
    sigmoid would."""
    return np.exp(np.minimum(z, -z))


# --------------------------------------------------------------------------- #
# Losses
# --------------------------------------------------------------------------- #
def bce_with_logits_array(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean binary cross entropy of logits ``z`` against targets ``y`` (same
    shape and dtype), as ``(0-d loss in z's dtype, exp(-|z|))``.

    Uses ``BCE(z, y) = max(z, 0) - z*y + log(1 + exp(-|z|))``, averaged in
    double; the second value is what :func:`bce_with_logits_backward_array`
    reuses, so one step computes one ``exp``.
    """
    e = _exp_neg_abs(z)
    losses = np.maximum(z, 0.0) - z * y + np.log1p(e)
    return np.asarray(losses.mean(dtype=np.float64), dtype=z.dtype), e


def bce_with_logits_backward_array(z: np.ndarray, y: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Gradient of :func:`bce_with_logits_array`'s mean loss with respect to
    ``z``: ``(sigmoid(z) - y) / z.size``, a new array."""
    grad = sigmoid_array(z, e)
    grad -= y
    grad /= z.size
    return grad


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross entropy computed from raw logits (numerically stable).

    The graph form of :func:`bce_with_logits_array` and
    :func:`bce_with_logits_backward_array` (one node over ``logits``, the
    ``forward_dense`` node's output); the gradient is
    ``sigmoid(z) - y`` over the batch, matching
    ``torch.nn.BCEWithLogitsLoss(reduction="mean")``.
    """
    z = logits.data
    y = np.asarray(targets, dtype=z.dtype).reshape(z.shape)
    out_data, e = bce_with_logits_array(z, y)

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad:
            grad_logits = bce_with_logits_backward_array(z, y, e)
            grad_logits *= grad
            logits._accumulate_grad(grad_logits, owned=True)

    return make_node(out_data, (logits,), backward)
