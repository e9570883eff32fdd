"""Tests for the backend capability registry (repro.api.registry)."""

import numpy as np
import pytest

from repro.api import registry
from repro.api.registry import (
    BackendCapabilities,
    UnknownBackendError,
    backend_names,
    capabilities_of,
    get_backend,
    register_backend,
    supports_load_state_dict,
    supports_rebalance,
    supports_state_dict,
    unregister_backend,
)
from repro.data.schema import make_preset
from repro.embeddings import (
    METHOD_NAMES,
    AdaEmbed,
    CafeEmbedding,
    FullEmbedding,
    QRTrickEmbedding,
    create_embedding,
    create_embedding_store,
)
from repro.errors import ConfigurationError
from repro.store import ShardedEmbeddingStore


class TestBuiltins:
    def test_every_method_name_is_registered(self):
        assert set(METHOD_NAMES) <= set(backend_names())

    def test_declared_capabilities(self):
        assert capabilities_of("cafe").supports_rebalance
        assert capabilities_of("cafe").supports_state_dict
        assert capabilities_of("full").supports_state_dict
        assert not capabilities_of("full").supports_rebalance
        assert capabilities_of("adaembed").supports_rebalance
        assert not capabilities_of("adaembed").supports_state_dict
        assert capabilities_of("mde").trainable_projection
        assert get_backend("offline").requires == ("frequencies",)
        assert get_backend("mde").requires == ("field_cardinalities",)

    def test_unknown_backend_is_value_error_and_configuration_error(self):
        with pytest.raises(UnknownBackendError, match="registered backends"):
            get_backend("bogus")
        with pytest.raises(ValueError):
            get_backend("bogus")
        with pytest.raises(ConfigurationError):
            get_backend("bogus")


class TestInstanceCapabilities:
    def test_registered_classes_answer_from_declaration(self):
        cafe = create_embedding("cafe", num_features=500, dim=4, compression_ratio=10.0, rng=0)
        full = FullEmbedding(100, 4)
        assert supports_rebalance(cafe)
        assert supports_state_dict(cafe) and supports_load_state_dict(cafe)
        assert not supports_rebalance(full)
        assert supports_state_dict(full)

    def test_unregistered_composites_fall_back_to_structure(self):
        store = ShardedEmbeddingStore.build(
            "cafe", num_features=500, dim=4, num_shards=2, compression_ratio=10.0
        )
        # ShardedEmbeddingStore is not a registered backend, but it overrides
        # rebalance and implements state_dict -> structural probe says yes.
        assert supports_rebalance(store)
        assert supports_state_dict(store)
        assert supports_load_state_dict(store)

    def test_static_backend_reports_no_capabilities(self):
        emb = create_embedding("qr", num_features=400, dim=4, compression_ratio=8.0, rng=0)
        assert isinstance(emb, QRTrickEmbedding)
        assert not supports_rebalance(emb)
        assert not supports_state_dict(emb)

    def test_subclass_adding_capability_structurally_is_not_vetoed(self):
        """A subclass of a registered backend may bolt on state_dict; the
        parent's declared caps must not shadow the structural probe."""
        import numpy as np

        class CheckpointableQR(QRTrickEmbedding):
            def state_dict(self):
                return {"quotient": self.quotient_table.copy()}

            def load_state_dict(self, state):
                self.quotient_table[...] = state["quotient"]

        from repro.embeddings.memory import MemoryBudget

        emb = CheckpointableQR.from_budget(
            MemoryBudget.from_compression_ratio(400, 4, 8.0), rng=np.random.default_rng(0)
        )
        assert supports_state_dict(emb)
        assert supports_load_state_dict(emb)
        assert not supports_rebalance(emb)

    def test_capabilities_of_instance(self):
        ada = create_embedding("adaembed", num_features=400, dim=8, compression_ratio=4.0, rng=0)
        assert isinstance(ada, AdaEmbed)
        caps = capabilities_of(ada)
        assert caps.supports_rebalance and not caps.supports_state_dict


class _ScaledFullEmbedding(FullEmbedding):
    """Trivial third-party backend: a full table with a fixed output scale."""

    def __init__(self, num_features, dim, scale=2.0, **kwargs):
        super().__init__(num_features, dim, **kwargs)
        self.scale = float(scale)

    def lookup(self, ids):
        return super().lookup(ids) * self.scale


def _scaled_factory(num_features, dim, compression_ratio=1.0, **kwargs):
    return _ScaledFullEmbedding(num_features, dim, **kwargs)


@pytest.fixture
def scaled_backend():
    register_backend(
        "scaled_full",
        _scaled_factory,
        backend_class=_ScaledFullEmbedding,
        supports_state_dict=True,
        description="test-only third-party backend",
    )
    yield
    unregister_backend("scaled_full")


class TestThirdPartyRegistration:
    def test_duplicate_name_requires_overwrite(self, scaled_backend):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend("scaled_full", _scaled_factory)
        register_backend("scaled_full", _scaled_factory, overwrite=True,
                         backend_class=_ScaledFullEmbedding, supports_state_dict=True)

    def test_unknown_capability_flag(self):
        with pytest.raises(ConfigurationError, match="unknown capability flags"):
            register_backend("x", _scaled_factory, supports_teleport=True)

    def test_capability_flags_are_exactly_the_four(self):
        # The worker-process flag went with the process runtime.
        assert set(BackendCapabilities().as_dict()) == {
            "supports_rebalance",
            "supports_state_dict",
            "supports_snapshot",
            "trainable_projection",
        }

    def test_factory_dispatch(self, scaled_backend):
        emb = create_embedding("scaled_full", num_features=50, dim=4, rng=0)
        assert isinstance(emb, _ScaledFullEmbedding)
        ids = np.asarray([1, 2, 3])
        assert np.allclose(emb.lookup(ids), FullEmbedding.lookup(emb, ids) * 2.0)

    def test_registered_backend_works_in_field_specs(self, scaled_backend):
        schema = make_preset("criteo", base_cardinality=300)
        store = create_embedding_store(
            schema, spec="scaled_full:tiny,cafe:rest", compression_ratio=10.0, seed=0
        )
        backends = {type(group.backend).__name__ for group in store.groups}
        assert "_ScaledFullEmbedding" in backends
        # Declared capability flows through the store's checkpoint path.
        assert supports_state_dict(store.groups[0].backend)

    def test_registered_backend_works_in_system_config(self, scaled_backend):
        from repro.api.config import StoreConfig

        config = StoreConfig(spec="scaled_full:tiny,cafe:rest")
        assert config.grouped

    def test_capabilities_as_dataclass(self, scaled_backend):
        caps = capabilities_of("scaled_full")
        assert caps == BackendCapabilities(supports_state_dict=True)
