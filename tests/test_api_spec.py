"""Tests for the single shared field-spec parser (repro.api.spec)."""

import numpy as np
import pytest

from repro.api import spec as spec_module
from repro.api.spec import ParsedSpec, SpecEntry, parse_spec
from repro.data.schema import field_configs_from_spec, make_preset
from repro.embeddings import backend_names
from repro.errors import DataError


class TestParseSpec:
    def test_plain_method_is_uniform(self):
        parsed = parse_spec("cafe")
        assert parsed.entries == (
            SpecEntry(backend="cafe", field_class="all", options={}, explicit_class=False),
        )
        assert not parsed.grouped

    def test_bracket_options_without_class_stay_uniform(self):
        parsed = parse_spec("cafe[cr=8,shards=2]")
        assert not parsed.grouped
        assert parsed.entries[0].options == {"cr": 8.0, "shards": 2.0}

    def test_explicit_class_marks_grouped(self):
        parsed = parse_spec("full:tiny,cafe[cr=16]:tail")
        assert parsed.grouped
        assert parsed.backends == ("full", "cafe")
        assert parsed.entries[1].field_class == "tail"
        assert parsed.entries[1].option_int("cr") == 16

    def test_commas_inside_brackets(self):
        parsed = parse_spec("hash[cr=8,dim=4,seed=7]:mid,cafe:rest")
        assert parsed.entries[0].options == {"cr": 8.0, "dim": 4.0, "seed": 7.0}
        assert parsed.entries[1].field_class == "rest"

    def test_unclosed_bracket(self):
        with pytest.raises(DataError, match="unclosed"):
            parse_spec("cafe[cr=8:tail")

    def test_unknown_field_class(self):
        with pytest.raises(DataError, match="unknown field class"):
            parse_spec("cafe:huge")

    def test_unknown_option(self):
        with pytest.raises(DataError, match="unknown spec options"):
            parse_spec("cafe[width=3]:tail")

    def test_non_numeric_option_value(self):
        with pytest.raises(DataError, match="numeric value"):
            parse_spec("cafe[cr=lots]:tail")

    def test_empty_spec(self):
        with pytest.raises(DataError, match="no entries"):
            parse_spec(" , ")

    def test_missing_backend_name(self):
        with pytest.raises(DataError, match="names no backend"):
            parse_spec(":tail")

    def test_known_backends_validation(self):
        with pytest.raises(DataError, match="unknown backend 'bogus'"):
            parse_spec("bogus:tail", known_backends=backend_names())
        # Without the whitelist the name passes (resolved later by the factory).
        assert parse_spec("bogus:tail").backends == ("bogus",)

    def test_is_grouped_spec(self):
        assert spec_module.is_grouped_spec("full:tiny,cafe:tail")
        assert not spec_module.is_grouped_spec("cafe")
        assert not spec_module.is_grouped_spec(None)

    def test_multiple_classless_entries_rejected(self):
        # "cafe,hash" would silently train only the first backend; force the
        # author to say which fields each entry owns.
        with pytest.raises(DataError, match="no field classes"):
            parse_spec("cafe,hash")

    def test_full_with_seed_option_builds(self):
        """A [seed=N] option on a full group is a legal no-op (full tables
        have no hash routing) — regression for the factory forwarding it."""
        from repro.embeddings import create_embedding_store

        schema = make_preset("criteo", base_cardinality=300)
        store = create_embedding_store(
            schema, spec="full[seed=3]:tiny,cafe:rest", compression_ratio=10.0, seed=0
        )
        assert {type(g.backend).__name__ for g in store.groups} >= {"FullEmbedding"}

    def test_group_backend_receives_declared_side_inputs(self):
        """TableGroupStore supplies field_cardinalities to a backend that
        requires them (MDE): the group's member cardinalities, in order."""
        from repro.embeddings import MixedDimensionEmbedding, create_embedding_store

        schema = make_preset("criteo", base_cardinality=300)
        store = create_embedding_store(
            schema, spec="mde[cr=2]:tiny,cafe:rest", compression_ratio=10.0, seed=0
        )
        tiny_group = store.groups[0]
        assert isinstance(tiny_group.backend, MixedDimensionEmbedding)
        cards = [schema.field_cardinalities[i] for i in tiny_group.field_indices]
        assert tiny_group.backend.field_cardinalities == cards
        assert sum(cards) == tiny_group.backend.num_features

    def test_experiment_runner_uses_the_shared_parser(self):
        """run_single dispatches uniform-with-options specs through the store
        factory instead of choking on the bracketed name ('\":\" in method'
        heuristic regression)."""
        from repro.experiments.common import ScaleSpec, build_dataset, run_single

        micro = ScaleSpec("micro", base_cardinality=60, samples_per_day=300,
                          batch_size=100, test_samples=300, max_days=2)
        dataset = build_dataset("kdd12", scale=micro, seed=0)
        outcome = run_single(dataset, "cafe[cr=8,shards=2]", 10.0, scale=micro, seed=0)
        assert outcome.feasible
        assert np.isfinite(outcome.train_loss)


class TestSingleParserRegression:
    """Both historical entry points must resolve specs identically."""

    SPECS = [
        "cafe:all",
        "full:tiny,cafe[cr=16]:tail",
        "full:tiny,cafe[cr=16]:tail,hash[cr=8,dim=4]:mid",
        "hash[seed=23]:mid,cafe[shards=2]:rest",
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_schema_wrapper_matches_shared_parser(self, spec):
        schema = make_preset("criteo", base_cardinality=300)
        via_schema = field_configs_from_spec(schema, spec, compression_ratio=10.0)
        via_api = spec_module.field_configs_from_spec(schema, spec, compression_ratio=10.0)
        assert via_schema == via_api

    @pytest.mark.parametrize("spec", SPECS)
    def test_store_factory_and_schema_path_agree(self, spec):
        """create_embedding_store(spec=...) and configure_fields + spec=None
        must build identical stores from the same spec string."""
        from repro.embeddings import create_embedding_store

        schema_direct = make_preset("criteo", base_cardinality=300)
        store_direct = create_embedding_store(
            schema_direct, spec=spec, compression_ratio=10.0, seed=3
        )

        schema_attached = make_preset("criteo", base_cardinality=300)
        schema_attached.configure_fields(
            field_configs_from_spec(schema_attached, spec, compression_ratio=10.0)
        )
        store_attached = create_embedding_store(schema_attached, spec=None, seed=3)

        assert store_direct.describe() == store_attached.describe()
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 300, size=(16, schema_direct.num_fields))
        ids = schema_direct.to_global_ids(ids % np.asarray(schema_direct.field_cardinalities))
        assert np.array_equal(store_direct.lookup(ids), store_attached.lookup(ids))

    def test_group_prototypes_match_field_configs(self):
        from repro.embeddings import create_embedding_store

        spec = "full:tiny,cafe[cr=16]:tail,hash[cr=8]:mid"
        schema = make_preset("criteo", base_cardinality=300)
        configs = field_configs_from_spec(schema, spec)
        store = create_embedding_store(schema, spec=spec, seed=0)
        grouped: dict[tuple, list[str]] = {}
        for config in configs:
            grouped.setdefault(config.group_key(), []).append(config.field)
        assert store.num_groups == len(grouped)
        for group, members in zip(store.groups, grouped.values()):
            assert group.config is not None
            assert group.config.field in members
            assert group.num_fields == len(members)
