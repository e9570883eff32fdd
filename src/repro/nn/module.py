"""Module base class: parameter registration, traversal, and state dicts;
the one rule every restore checks a state against (:func:`check_fits`), and
the one restore sequence (:class:`Restorable`)."""

from __future__ import annotations

from typing import Container, Iterator, Mapping

import numpy as np

from repro.errors import CheckpointLayoutError
from repro.nn.tensor import Parameter

#: The one array whose length is the state's own: CAFE's free-row pool (its
#: rows are checked by :meth:`~repro.embeddings.cafe.CafeEmbedding.check_state`).
VARIABLE_LENGTH = "free_rows"


def section(state: Mapping[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """The entries of ``state`` under ``prefix``, keyed without it."""
    return {key[len(prefix):]: value for key, value in state.items() if key.startswith(prefix)}


def check_fits(
    state: Mapping[str, np.ndarray],
    own: Mapping[str, np.ndarray],
    misfit: str,
    error: type[Exception] = CheckpointLayoutError,
    key_error: type[Exception] | None = None,
    optional: Container[str] = (),
    parts: Mapping[str, object] | None = None,
) -> None:
    """The fit rule of every restore; writes nothing.

    ``state`` fits ``own`` (the object's own ``state_dict()``, or the live
    arrays that method copies, whose shapes are the same) when it holds
    ``own``'s keys with arrays of ``own``'s shapes, save that a key in
    ``optional`` may be absent (a store's ``step`` header; a row optimizer's
    keys, which then restart cold) and :data:`VARIABLE_LENGTH` may have any
    length.  Keys under a prefix of ``parts`` form that part's section,
    checked after the rest by the part's own ``check_state``.  A misfit
    raises ``error`` (the owner's key family: optimizer, sketch or, by
    default, layout), or ``key_error`` for another key set when given, with
    ``misfit`` formatted with the entries that do not fit on each side
    (``found``, ``takes``).
    """
    parts = parts or {}
    prefixes = tuple(parts)
    found = {key: np.shape(value) for key, value in state.items() if not key.startswith(prefixes)}
    takes = {key: np.shape(value) for key, value in own.items() if not key.startswith(prefixes)}

    def fits(key: str) -> bool:
        if key not in found or key not in takes:
            return key not in found and key in optional
        if key == VARIABLE_LENGTH:
            return len(found[key]) == len(takes[key])
        return found[key] == takes[key]

    misfits = sorted(key for key in found.keys() | takes.keys() if not fits(key))
    if misfits:
        ours = sorted(key for key in takes if key in misfits or key not in found)
        differ = any(key not in found or key not in takes for key in misfits)
        theirs = [key for key in misfits if key in found]
        raise (key_error if differ and key_error else error)(misfit.format(
            found=f"{theirs} (shapes {[found[key] for key in theirs]})",
            takes=f"{ours} (shapes {[takes[key] for key in ours]})",
        ))
    for prefix, part in parts.items():
        part.check_state(section(state, prefix))


class Restorable:
    """An object whose ``state_dict()`` a checkpoint restores: it has a
    non-writing ``check_state(state)`` and a ``write_state(state)`` that
    checks nothing.  A parent's check runs its parts' checks
    (:func:`check_fits`) and its write calls only their ``write_state``,
    so a restore checks each object once."""

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore what ``state_dict()`` returned: :meth:`check_state` (a
        refused state writes nothing), then :meth:`write_state`."""
        self.check_state(state)
        self.write_state(state)


class Module(Restorable):
    """Base class for neural-network components.

    Sub-modules and parameters assigned as attributes are discovered
    automatically, mirroring the PyTorch convention so model code stays
    familiar.
    """

    def parameters(self) -> Iterator[Parameter]:
        """Yield every learnable parameter of this module and its children."""
        seen: set[int] = set()
        for _, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full_name = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            if isinstance(value, Parameter):
                yield full_name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(full_name)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full_name}.{i}")
                    elif isinstance(item, Parameter):
                        yield f"{full_name}.{i}", item

    def zero_grad(self) -> None:
        """Clear every ``param.grad`` (before a graph ``backward()``)."""
        for param in self.parameters():
            param.grad = None

    def num_parameters(self) -> int:
        """Total number of scalar learnable parameters."""
        return int(sum(p.size for p in self.parameters()))

    def flat_parameters(self) -> np.ndarray:
        """One new flat array holding every parameter, in :meth:`parameters` order."""
        return np.concatenate([param.data.reshape(-1) for param in self.parameters()])

    def parameter_views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of ``flat`` (laid out by :meth:`flat_parameters`), one per
        parameter in its shape."""
        views, start = [], 0
        for param in self.parameters():
            views.append(flat[start: start + param.size].reshape(param.shape))
            start += param.size
        return views

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter keyed by its dotted name."""
        return {name: value.copy() for name, value in self._state_view().items()}

    def _state_view(self) -> dict[str, np.ndarray]:
        """:meth:`state_dict`'s entries as the live arrays, not copies."""
        return {name: param.data for name, param in self.named_parameters()}

    def check_state(self, state: dict[str, np.ndarray]) -> None:
        """Raise unless ``state`` fits :meth:`state_dict` (:func:`check_fits`,
        on the live arrays' shapes):
        ``KeyError`` for another set of names,
        :class:`~repro.errors.CheckpointLayoutError` for another shape."""
        check_fits(
            state, self._state_view(),
            "checkpoint holds parameters {found}; this module takes {takes}", key_error=KeyError,
        )

    def write_state(self, state: dict[str, np.ndarray]) -> None:
        """Write the parameters of a state :meth:`check_state` passed,
        checking nothing."""
        for name, param in self.named_parameters():
            # Cast to the parameter's existing dtype: a model configured for
            # float32 (or float16 tables) must not be silently promoted to
            # float64 by a checkpoint restore.
            param.data = np.array(state[name], dtype=param.data.dtype)
