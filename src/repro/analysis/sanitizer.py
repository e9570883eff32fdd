"""Runtime sanitizer: sealed-memory freezing and a single-writer race detector.

Two enforcement tiers live here:

* **Always on** — :func:`freeze_arrays` marks every NumPy array reachable
  from a published snapshot read-only (``flags.writeable = False``), so a
  write-after-publish raises ``ValueError: assignment destination is
  read-only`` instead of silently corrupting concurrent readers.  Freezing
  is cheap (a flag flip, no copy) and composes with the store's
  copy-on-write discipline: ``copy.deepcopy`` of a read-only array yields a
  writable private copy, so the first post-snapshot write thaws naturally.
* **Opt-in (``REPRO_SANITIZE=1``)** — the :func:`single_writer` decorator
  tags store mutation entry points with the owning thread and raises a
  descriptive :class:`SingleWriterViolation` when a second thread enters
  mid-mutation; the serving micro-batcher checks every reply with
  :func:`assert_unaliased`.

The sanitize flag is read from the environment *per call*, so tests can
flip it with ``monkeypatch.setenv`` without re-importing anything.
"""

from __future__ import annotations

import os
import threading
import weakref
from functools import wraps
from typing import Any, Callable, Iterator, Mapping, TypeVar, cast

import numpy as np

__all__ = [
    "SanitizerViolation",
    "SingleWriterViolation",
    "enabled",
    "freeze_arrays",
    "reachable_arrays",
    "assert_unaliased",
    "single_writer",
]

_ENV_FLAG = "REPRO_SANITIZE"
_TRUTHY = frozenset({"1", "true", "yes", "on"})


def enabled() -> bool:
    """Whether opt-in sanitize mode is on (``REPRO_SANITIZE=1``)."""
    return os.environ.get(_ENV_FLAG, "").strip().lower() in _TRUTHY


class SanitizerViolation(RuntimeError):
    """An invariant breach the sanitizer turned into an error."""


class SingleWriterViolation(SanitizerViolation):
    """Two threads entered a store mutation at the same time.

    The store contract is single-writer/many-readers: lookups may run
    concurrently with one mutator, but two concurrent mutators corrupt
    shared plan caches and COW bookkeeping.
    """


# --------------------------------------------------------------------- #
# Sealed-array freezing
# --------------------------------------------------------------------- #

def reachable_arrays(obj: Any, _seen: set[int] | None = None) -> Iterator[np.ndarray]:
    """Every array reachable from ``obj``, each once.

    Walks mappings, sequences, and the instance ``__dict__`` / ``__slots__``
    of objects defined in this package (third-party objects are left alone —
    a foreign object's internals are not ours to inspect or freeze).
    """
    if _seen is None:
        _seen = set()
    marker = id(obj)
    if marker in _seen:
        return
    _seen.add(marker)

    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Mapping):
        for value in obj.values():
            yield from reachable_arrays(value, _seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            yield from reachable_arrays(item, _seen)
    elif (type(obj).__module__ or "").split(".")[0] == "repro":
        for value in getattr(obj, "__dict__", {}).values():
            yield from reachable_arrays(value, _seen)
        for klass in type(obj).__mro__:
            slots = klass.__dict__.get("__slots__", ())
            for slot in (slots,) if isinstance(slots, str) else slots:
                yield from reachable_arrays(getattr(obj, slot, None), _seen)


def freeze_arrays(obj: Any) -> int:
    """Set ``writeable=False`` on every array reachable from ``obj``.

    Returns the number of arrays frozen; already-frozen arrays do not count.
    """
    frozen = 0
    for array in reachable_arrays(obj):
        if array.flags.writeable:
            array.setflags(write=False)
            frozen += 1
    return frozen


def assert_unaliased(roots: Any, buffers: tuple[np.ndarray, ...], what: str) -> None:
    """Raise if any array reachable from ``roots`` overlaps one of ``buffers``.

    The serving micro-batcher calls this (sanitize mode only) after every
    micro-batch: a reply, or anything the model or its store kept, that
    aliased the request block would be overwritten by the next ``submit``.
    """
    for array in reachable_arrays(roots):
        for buffer in buffers:
            if np.may_share_memory(array, buffer):
                raise SanitizerViolation(
                    f"an array of shape {array.shape} retained after a flush shares "
                    f"memory with the reusable {what}; it would be overwritten by the "
                    "next request"
                )


# --------------------------------------------------------------------- #
# Single-writer race detector
# --------------------------------------------------------------------- #

class _WriterGuard:
    """Per-store mutation guard: owning thread + reentrancy depth."""

    __slots__ = ("lock", "owner", "depth")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.owner: threading.Thread | None = None
        self.depth = 0


#: Guards live *outside* the store instances so stores stay deep-copyable
#: and picklable (a ``threading.Lock`` attribute would break both).
_guards: "weakref.WeakKeyDictionary[Any, _WriterGuard]" = weakref.WeakKeyDictionary()
_guards_lock = threading.Lock()

_Method = TypeVar("_Method", bound=Callable[..., Any])


def _guard_for(obj: Any) -> _WriterGuard:
    with _guards_lock:
        guard = _guards.get(obj)
        if guard is None:
            guard = _WriterGuard()
            _guards[obj] = guard
        return guard


def single_writer(method: _Method) -> _Method:
    """Tag a store mutation entry point with the single-writer detector.

    A no-op unless sanitize mode is on.  The store tags ``apply_gradients``
    and ``load_state_dict``.  Reentrant calls from the owning thread pass
    (a mutation may call another tagged method of the same object); a
    second thread entering while another's mutation is in flight raises
    :class:`SingleWriterViolation` naming both threads and the method.
    """

    @wraps(method)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if not enabled():
            return method(self, *args, **kwargs)
        guard = _guard_for(self)
        me = threading.current_thread()
        with guard.lock:
            if guard.owner is not None and guard.owner is not me:
                raise SingleWriterViolation(
                    f"single-writer violation: thread {me.name!r} entered "
                    f"{type(self).__name__}.{method.__name__} while thread "
                    f"{guard.owner.name!r} is mid-mutation; the store contract "
                    "is one writer, many readers"
                )
            guard.owner = me
            guard.depth += 1
        try:
            return method(self, *args, **kwargs)
        finally:
            with guard.lock:
                guard.depth -= 1
                if guard.depth == 0:
                    guard.owner = None

    return cast(_Method, wrapper)
