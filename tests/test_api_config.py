"""Tests for the SystemConfig tree: round-trips, validation, overrides."""

import pytest

from repro.api.config import (
    DataConfig,
    StoreConfig,
    SystemConfig,
    apply_overrides,
    load_config,
)
from repro.errors import ConfigurationError


def mixed_config() -> SystemConfig:
    return SystemConfig.from_dict(
        {
            "seed": 7,
            "data": {"dataset": "avazu", "scale": "tiny", "num_days": 3},
            "store": {
                "spec": "full:tiny,cafe[cr=16,shards=2]:tail,hash[cr=8,dim=8]:mid",
                "compression_ratio": 12.0,
            },
            "model": {"name": "dcn"},
            "train": {"batch_size": 64, "max_steps": 5},
            "pipeline": {"publish_every_steps": 3, "max_steps": 9},
        }
    )


class TestRoundTrip:
    def test_default_json_round_trip_is_lossless(self):
        config = SystemConfig()
        assert SystemConfig.from_json(config.to_json()) == config

    def test_mixed_config_round_trip_is_lossless(self):
        config = mixed_config()
        assert SystemConfig.from_json(config.to_json()) == config

    def test_save_load_file(self, tmp_path):
        config = mixed_config()
        path = config.save(tmp_path / "cfg.json")
        assert load_config(path) == config

    def test_explicit_fields_round_trip(self):
        config = SystemConfig.from_dict(
            {
                "data": {"dataset": "kdd12"},
                "store": {
                    "spec": None,
                    "fields": [
                        {"field": f"kdd12_c{i}", "backend": "cafe", "compression_ratio": 8.0}
                        for i in range(11)
                    ],
                },
            }
        )
        rebuilt = SystemConfig.from_json(config.to_json())
        assert rebuilt == config
        assert rebuilt.store.grouped
        assert len(rebuilt.store.field_configs()) == 11


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown config key"):
            SystemConfig.from_dict({"stores": {}})

    def test_unknown_section_key_suggests(self):
        with pytest.raises(ConfigurationError, match="did you mean 'num_shards'"):
            SystemConfig.from_dict({"store": {"num_shard": 2}})

    def test_removed_kernels_option_is_an_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown config key 'store.kernels'"):
            SystemConfig.from_dict({"store": {"kernels": "numpy"}})

    def test_removed_eval_every_option_is_an_unknown_key(self):
        # Session.train() never passed an eval batch, so the key did nothing.
        with pytest.raises(ConfigurationError, match="unknown config key 'train.eval_every'"):
            SystemConfig.from_dict({"train": {"eval_every": 10}})
        with pytest.raises(ConfigurationError, match="unknown config key 'train.eval_every'"):
            apply_overrides(SystemConfig(), ["train.eval_every=10"])

    @pytest.mark.parametrize("key, value", [("executor_workers", 2), ("grad_exchange", "sketched")])
    def test_removed_process_runtime_options_are_unknown_keys(self, key, value):
        with pytest.raises(ConfigurationError, match=f"unknown config key 'store.{key}'"):
            SystemConfig.from_dict({"store": {key: value}})
        with pytest.raises(ConfigurationError, match=f"unknown config key 'store.{key}'"):
            apply_overrides(SystemConfig(), [f"store.{key}={value}"])

    def test_processes_executor_is_refused_listing_serial(self):
        with pytest.raises(ConfigurationError, match=r"store\.executor 'processes'.*\['serial'\]"):
            apply_overrides(SystemConfig(), ["store.executor=processes"])
        assert apply_overrides(SystemConfig(), ["store.executor=serial"]).store.executor == "serial"

    def test_bad_dataset_lists_presets(self):
        with pytest.raises(ConfigurationError, match="criteo"):
            DataConfig(dataset="cripteo")

    def test_bad_scale(self):
        with pytest.raises(ConfigurationError, match="tiny"):
            DataConfig(scale="huge")

    def test_bad_executor(self):
        with pytest.raises(ConfigurationError, match="executor"):
            StoreConfig(executor="gpu")

    @pytest.mark.parametrize("retired", ["processes", "process", "threads", "thread", "Serial"])
    def test_retired_executor_spellings_list_serial(self, retired):
        with pytest.raises(ConfigurationError, match=r"\['serial'\]"):
            SystemConfig.from_dict({"store": {"executor": retired}})
        with pytest.raises(ConfigurationError, match=r"\['serial'\]"):
            StoreConfig(executor=retired)

    def test_bad_dtype(self):
        with pytest.raises(ConfigurationError, match="dtype"):
            StoreConfig(dtype="int32")

    def test_unknown_backend_in_spec(self):
        with pytest.raises(ConfigurationError, match="registered backends"):
            StoreConfig(spec="bogus:tail,cafe:rest")

    def test_grouped_spec_rejects_num_shards(self):
        with pytest.raises(ConfigurationError, match=r"\[shards=N\]"):
            StoreConfig(spec="full:tiny,cafe:tail", num_shards=4)

    def test_fields_and_spec_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            StoreConfig(spec="cafe", fields=[{"field": "a"}])

    def test_neither_fields_nor_spec(self):
        with pytest.raises(ConfigurationError, match="store.spec must be set"):
            StoreConfig(spec=None)

    def test_fields_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            StoreConfig(spec=None, fields=[{"field": "a", "widthh": 3}])

    def test_fields_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="not registered"):
            StoreConfig(spec=None, fields=[{"field": "a", "backend": "bogus"}])

    def test_bad_model(self):
        with pytest.raises(ConfigurationError, match="dlrm"):
            SystemConfig.from_dict({"model": {"name": "transformer"}})

    def test_bad_pipeline_cadence(self):
        with pytest.raises(ConfigurationError, match="publish_every_steps"):
            SystemConfig.from_dict({"pipeline": {"publish_every_steps": 0}})

    def test_config_file_errors_carry_the_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"store": {"spec": "bogus"}}', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="bad.json"):
            load_config(path)

    def test_invalid_json_reports(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_config(path)

    def test_wrong_typed_values_fail_with_the_key_named(self):
        with pytest.raises(ConfigurationError, match="'train.max_steps' must be int"):
            SystemConfig.from_dict({"train": {"max_steps": "50"}})
        with pytest.raises(ConfigurationError, match="'seed' must be int"):
            SystemConfig.from_dict({"seed": "3"})
        with pytest.raises(ConfigurationError, match="'pipeline.final_publish' must be bool"):
            SystemConfig.from_dict({"pipeline": {"final_publish": "yes"}})
        with pytest.raises(ConfigurationError, match="'store.fields' must be list"):
            SystemConfig.from_dict({"store": {"spec": None, "fields": {"field": "a"}}})
        # An int where a float is expected is fine (JSON has one number type).
        assert SystemConfig.from_dict(
            {"store": {"compression_ratio": 10}}
        ).store.compression_ratio == 10

    def test_seed_spec_option_rejected_for_seedless_backends(self):
        from repro.api.session import build

        config = SystemConfig.from_dict(
            {"store": {"spec": "qr[seed=7]", "compression_ratio": 8.0}}
        )
        with pytest.raises(ValueError, match="takes no \\[seed=N\\]"):
            build(config)


class TestOverrides:
    def test_int_float_str_coercion(self):
        config = apply_overrides(
            SystemConfig(),
            ["store.num_shards=4", "store.compression_ratio=25.5", "data.dataset=avazu"],
        )
        assert config.store.num_shards == 4
        assert config.store.compression_ratio == 25.5
        assert config.data.dataset == "avazu"

    def test_optional_none_and_bool(self):
        config = apply_overrides(
            SystemConfig(),
            ["train.max_steps=10", "pipeline.final_publish=false"],
        )
        assert config.train.max_steps == 10
        assert config.pipeline.final_publish is False
        cleared = apply_overrides(config, ["train.max_steps=none"])
        assert cleared.train.max_steps is None

    def test_seed_override(self):
        assert apply_overrides(SystemConfig(), ["seed=42"]).seed == 42

    def test_original_config_is_not_mutated(self):
        config = SystemConfig()
        apply_overrides(config, ["store.num_shards=8"])
        assert config.store.num_shards == 1

    def test_unknown_section_suggests(self):
        with pytest.raises(ConfigurationError, match="did you mean 'store'"):
            apply_overrides(SystemConfig(), ["stor.num_shards=2"])

    def test_unknown_key_suggests(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            apply_overrides(SystemConfig(), ["store.num_shard=2"])

    def test_malformed_assignment(self):
        with pytest.raises(ConfigurationError, match="section.key=value"):
            apply_overrides(SystemConfig(), ["store.num_shards"])

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigurationError, match="store.num_shards"):
            apply_overrides(SystemConfig(), ["store.num_shards=many"])

    def test_override_result_is_validated(self):
        with pytest.raises(ConfigurationError, match="registered backends"):
            apply_overrides(SystemConfig(), ["store.spec=bogus"])
