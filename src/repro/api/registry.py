"""Backend capability registry: one place that knows what a backend can do.

Before this module, the stores and the checkpoint code probed backends
structurally — ``hasattr(shard, "state_dict")`` here, ``type(shard).rebalance
is not CompressedEmbedding.rebalance`` there — and the embedding factory was
a closed if/elif chain.  The registry replaces both:

* every backend registers under a name with a factory and **declared
  capabilities** (:class:`BackendCapabilities`); the factories
  (:func:`repro.embeddings.create_embedding`, the store builders) and the
  spec parser resolve names here, so a third-party scheme plugs in with one
  :func:`register_backend` call — no edits to the factory chain;
* :func:`supports_rebalance` / :func:`supports_state_dict` /
  :func:`supports_load_state_dict` answer capability questions about
  *instances*, consulting the declared capabilities for registered classes
  and falling back to the old structural probe for everything else (so
  composite stores and hand-rolled layers keep working unregistered).

The built-in backends register themselves when :mod:`repro.embeddings`
imports; :func:`_ensure_builtins` triggers that import lazily so registry
lookups work regardless of import order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.errors import ConfigurationError


class UnknownBackendError(ConfigurationError, ValueError):
    """Raised when a backend name resolves to nothing in the registry.

    Subclasses ``ValueError`` so callers that historically caught the
    factory's ``ValueError`` keep working.
    """


@dataclass(frozen=True)
class BackendCapabilities:
    """What a backend supports beyond the core lookup/apply_gradients pair.

    ``supports_rebalance``
        The backend has a real adaptivity pass; stores privatize (for
        copy-on-write) and fan out ``rebalance()`` only to such backends.
    ``supports_state_dict``
        ``state_dict()`` / ``load_state_dict()`` round-trip the full sparse
        state; checkpoints include it, and sharded / table-group stores can
        namespace it.
    ``supports_snapshot``
        The backend is safe to freeze under a copy-on-write store snapshot
        (deep-copyable, reads never mutate).
    ``trainable_projection``
        The backend trains per-field up-projections internally (the MDE
        idiom); informational for planners that add their own projections.
    """

    supports_rebalance: bool = False
    supports_state_dict: bool = False
    supports_snapshot: bool = True
    trainable_projection: bool = False

    def as_dict(self) -> dict[str, bool]:
        return {
            "supports_rebalance": self.supports_rebalance,
            "supports_state_dict": self.supports_state_dict,
            "supports_snapshot": self.supports_snapshot,
            "trainable_projection": self.trainable_projection,
        }


@dataclass(frozen=True)
class RegisteredBackend:
    """One named backend: factory + declared capabilities + side inputs."""

    name: str
    factory: Callable[..., Any]
    capabilities: BackendCapabilities
    #: Side inputs the factory needs beyond the common arguments, e.g.
    #: ``("field_cardinalities",)`` for MDE or ``("frequencies",)`` for the
    #: offline-separation oracle.  The store builders supply these
    #: automatically when a schema is at hand.
    requires: tuple[str, ...] = ()
    #: Spec-string options (beyond ``cr`` / ``shards`` / ``dim``, which the
    #: store layer consumes) the factory understands — ``("seed",)`` for
    #: hash-routing backends that take a ``hash_seed``.  Using an undeclared
    #: option in a spec is a clear error instead of a factory TypeError.
    spec_options: tuple[str, ...] = ()
    description: str = ""
    #: Concrete class the factory returns, when known; lets capability
    #: queries on instances use the declared flags instead of probing.
    backend_class: type | None = None


_BACKENDS: dict[str, RegisteredBackend] = {}
_CLASS_CAPABILITIES: dict[type, BackendCapabilities] = {}
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import :mod:`repro.embeddings` once so built-ins self-register."""
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        import repro.embeddings  # imported for its registration side effect


def register_backend(
    name: str,
    factory: Callable[..., Any],
    *,
    capabilities: BackendCapabilities | None = None,
    requires: tuple[str, ...] = (),
    spec_options: tuple[str, ...] = (),
    description: str = "",
    backend_class: type | None = None,
    overwrite: bool = False,
    **capability_flags: bool,
) -> RegisteredBackend:
    """Register an embedding backend under ``name``.

    ``factory`` is called as ``factory(num_features=..., dim=...,
    compression_ratio=..., optimizer=..., learning_rate=..., dtype=...,
    rng=..., **kwargs)`` and must return an object satisfying the
    :class:`~repro.embeddings.base.CompressedEmbedding` lookup /
    apply_gradients contract.  Capabilities may be passed as a ready
    :class:`BackendCapabilities` or as keyword flags
    (``supports_rebalance=True``).  Once registered, the name works
    everywhere a built-in method name does: ``create_embedding(name, ...)``,
    sharded stores, field specs (``"myscheme:tail"``) and
    :class:`~repro.api.config.SystemConfig`.
    """
    lowered = name.lower()
    if capabilities is None:
        capabilities = BackendCapabilities()
    if capability_flags:
        unknown = set(capability_flags) - set(BackendCapabilities().as_dict())
        if unknown:
            raise ConfigurationError(
                f"unknown capability flags {sorted(unknown)}; expected a subset of "
                f"{sorted(BackendCapabilities().as_dict())}"
            )
        capabilities = replace(capabilities, **capability_flags)
    if not overwrite and lowered in _BACKENDS:
        raise ConfigurationError(
            f"backend '{lowered}' is already registered; pass overwrite=True to replace it"
        )
    spec = RegisteredBackend(
        name=lowered,
        factory=factory,
        capabilities=capabilities,
        requires=tuple(requires),
        spec_options=tuple(spec_options),
        description=description,
        backend_class=backend_class,
    )
    _BACKENDS[lowered] = spec
    if backend_class is not None:
        _CLASS_CAPABILITIES[backend_class] = capabilities
    return spec


def unregister_backend(name: str) -> None:
    """Remove a registered backend (mainly for tests)."""
    spec = _BACKENDS.pop(name.lower(), None)
    if spec is not None and spec.backend_class is not None:
        _CLASS_CAPABILITIES.pop(spec.backend_class, None)


def get_backend(name: str) -> RegisteredBackend:
    """Look up a backend by name; raises with the available names."""
    _ensure_builtins()
    spec = _BACKENDS.get(name.lower())
    if spec is None:
        raise UnknownBackendError(
            f"unknown embedding backend '{name}'; registered backends: "
            f"{sorted(_BACKENDS)}"
        )
    return spec


def backend_names() -> tuple[str, ...]:
    """Names of all registered backends, registration order."""
    _ensure_builtins()
    return tuple(_BACKENDS)


def capabilities_of(backend: str | Any) -> BackendCapabilities:
    """Capabilities of a backend name, class or instance.

    Registered names and classes answer from their declaration; anything
    else is probed structurally, so unregistered composites (sharded /
    table-group stores, custom layers) still report honestly.
    """
    if isinstance(backend, str):
        return get_backend(backend).capabilities
    return BackendCapabilities(
        supports_rebalance=supports_rebalance(backend),
        supports_state_dict=supports_state_dict(backend),
        supports_snapshot=callable(getattr(backend, "snapshot", None))
        or _declared(backend, "supports_snapshot", True),
        trainable_projection=_declared(backend, "trainable_projection", False),
    )


def _declared_capabilities(obj: Any) -> BackendCapabilities | None:
    """Declared capabilities of ``obj``'s *exact* class, if registered.

    Deliberately no MRO walk: a subclass of a registered backend may add
    capabilities structurally (e.g. bolt ``state_dict`` onto a scheme that
    declared none), and the declaration of the parent must not veto the
    structural probe for it.
    """
    _ensure_builtins()
    return _CLASS_CAPABILITIES.get(type(obj))


def _declared(obj: Any, flag: str, default: bool) -> bool:
    caps = _declared_capabilities(obj)
    return getattr(caps, flag) if caps is not None else default


def supports_rebalance(obj: Any) -> bool:
    """Whether ``obj`` has a real adaptivity pass worth fanning out to.

    Declared capability for registered backend classes; for anything else
    (composite stores, custom layers) falls back to checking that the class
    actually overrides :meth:`~repro.embeddings.base.CompressedEmbedding.
    rebalance` — calling the base no-op would privatize copy-on-write
    shards for nothing.
    """
    caps = _declared_capabilities(obj)
    if caps is not None:
        return caps.supports_rebalance
    rebalance = getattr(type(obj), "rebalance", None)
    if rebalance is None:
        return False
    from repro.embeddings.base import CompressedEmbedding

    return rebalance is not CompressedEmbedding.rebalance


def supports_state_dict(obj: Any) -> bool:
    """Whether ``obj`` can serialize its sparse state via ``state_dict()``."""
    caps = _declared_capabilities(obj)
    if caps is not None:
        return caps.supports_state_dict
    return callable(getattr(obj, "state_dict", None))


def supports_load_state_dict(obj: Any) -> bool:
    """Whether ``obj`` can restore sparse state via ``load_state_dict()``."""
    caps = _declared_capabilities(obj)
    if caps is not None:
        return caps.supports_state_dict
    return callable(getattr(obj, "load_state_dict", None))


def supports_sketch(obj: Any) -> bool:
    """Whether ``obj`` carries a hot-feature sketch worth merging.

    True for backends exposing :meth:`merged_sketch` (composite stores) or
    a non-``None`` ``sketch`` attribute (CAFE-style layers).  This is a
    structural probe by design — ``BackendCapabilities`` has no sketch flag
    because sketches are an emergent property of composition — and the
    registry is the one module allowed to probe.
    """
    if callable(getattr(obj, "merged_sketch", None)):
        return True
    return getattr(obj, "sketch", None) is not None


def sketch_of(obj: Any) -> Any:
    """The backend's hot-feature sketch, merged when it is a composite.

    Resolves :meth:`merged_sketch` first (sharded / table-group stores merge
    their members' sketches), then the plain ``sketch`` attribute; ``None``
    when the backend tracks no sketch.
    """
    merged = getattr(obj, "merged_sketch", None)
    if callable(merged):
        return merged()
    return getattr(obj, "sketch", None)


def shard_count(obj: Any) -> int | None:
    """Number of shards behind ``obj`` when it is a sharded composite.

    ``None`` for plain (unsharded) embedding layers; used by ``describe()``
    surfaces and the flat-checkpoint migration path to tell a
    sharded-within-group backend from a bare layer without probing.
    """
    count = getattr(obj, "num_shards", None)
    return int(count) if count is not None else None


def registry_summary() -> list[dict[str, Any]]:
    """One row per registered backend (for ``describe()`` and docs)."""
    _ensure_builtins()
    return [
        {
            "name": spec.name,
            "description": spec.description,
            "requires": list(spec.requires),
            "spec_options": list(spec.spec_options),
            **spec.capabilities.as_dict(),
        }
        for spec in _BACKENDS.values()
    ]
