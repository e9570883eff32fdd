"""Tests for the SystemConfig tree: round-trips, validation, overrides."""

import pytest

from repro.api.config import (
    DataConfig,
    StoreConfig,
    SystemConfig,
    apply_overrides,
    load_config,
)
from repro.errors import ConfigurationError, UnknownBackendError


def mixed_config() -> SystemConfig:
    return SystemConfig.from_dict(
        {
            "seed": 7,
            "data": {"dataset": "avazu", "scale": "tiny", "num_days": 3},
            "store": {"spec": "hash", "compression_ratio": 12.0, "num_shards": 2},
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
        path = tmp_path / "cfg.json"
        path.write_text(config.to_json(), encoding="utf-8")
        assert load_config(path) == config


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

    @pytest.mark.parametrize("value", ["adam", "sgd", "adagrad"])
    def test_removed_dense_optimizer_option_is_an_unknown_key(self, value):
        # The dense network always trains with Adam.
        message = r"unknown config key 'train\.dense_optimizer'.*valid keys under 'train'"
        with pytest.raises(ConfigurationError, match=message):
            SystemConfig.from_dict({"train": {"dense_optimizer": value}})
        with pytest.raises(ConfigurationError, match=message):
            apply_overrides(SystemConfig(), [f"train.dense_optimizer={value}"])

    @pytest.mark.parametrize("key, value", [("executor_workers", 2), ("grad_exchange", "sketched")])
    def test_removed_process_runtime_options_are_unknown_keys(self, key, value):
        with pytest.raises(ConfigurationError, match=f"unknown config key 'store.{key}'"):
            SystemConfig.from_dict({"store": {key: value}})
        with pytest.raises(ConfigurationError, match=f"unknown config key 'store.{key}'"):
            apply_overrides(SystemConfig(), [f"store.{key}={value}"])

    @pytest.mark.parametrize("key, value", [("probe_rows", 1), ("final_publish", "true")])
    def test_pipeline_constants_are_unknown_keys(self, key, value):
        # A probe is one row and the pipeline always publishes at the end.
        message = rf"unknown config key 'pipeline\.{key}'.*valid keys under 'pipeline'"
        with pytest.raises(ConfigurationError, match=message):
            SystemConfig.from_dict({"pipeline": {key: value}})
        with pytest.raises(ConfigurationError, match=message):
            apply_overrides(SystemConfig(), [f"pipeline.{key}={value}"])

    @pytest.mark.parametrize("key, value", [
        ("traffic", "zipf"), ("traffic_duration_s", 2.0), ("traffic_rate", 800.0),
        ("slo_target_p99_ms", 50.0), ("policy", "round_robin"), ("rebase_every", 8),
    ])
    def test_removed_traffic_replay_options_are_unknown_keys(self, key, value):
        # The error names the key and lists what serve.* still accepts.
        message = rf"unknown config key 'serve\.{key}'.*valid keys under 'serve'.*'replicas'"
        with pytest.raises(ConfigurationError, match=message):
            SystemConfig.from_dict({"serve": {key: value}})
        with pytest.raises(ConfigurationError, match=message):
            apply_overrides(SystemConfig(), [f"serve.{key}={value}"])

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

    @pytest.mark.parametrize(
        "optimizer", ["adagrab", "sketched_adagrad[frac=0.25]", "adagrad[eps=1]"]
    )
    def test_unknown_row_optimizer_lists_the_names(self, optimizer):
        """``store.optimizer`` is a bare name: a typo, the retired sketched
        optimizer and bracket options are all refused the same way."""
        with pytest.raises(ConfigurationError, match=r"store\.optimizer.*\['adagrad', 'sgd'\]"):
            SystemConfig.from_dict({"store": {"optimizer": optimizer}})
        with pytest.raises(ConfigurationError, match=r"store\.optimizer.*\['adagrad', 'sgd'\]"):
            StoreConfig(optimizer=optimizer)

    def test_bad_dtype(self):
        with pytest.raises(ConfigurationError, match="dtype"):
            StoreConfig(dtype="int32")

    def test_unknown_backend_in_spec(self):
        with pytest.raises(UnknownBackendError, match="store.spec: .*known backends"):
            StoreConfig(spec="bogus")

    @pytest.mark.parametrize(
        "spec, suggestion",
        [("full:tiny,cafe:tail", None), ("cafe[cr=8]", "cafe"), ("hash[cr=8,shards=2]", "hash")],
    )
    def test_table_group_and_option_specs_are_unknown_backends(self, spec, suggestion):
        """The field-class / bracket-option grammar is gone: a spec is one
        backend name, and an old spec string is refused as an unknown one."""
        with pytest.raises(UnknownBackendError) as raised:
            SystemConfig.from_dict({"store": {"spec": spec}})
        if suggestion is not None:
            assert f"did you mean '{suggestion}'?" in str(raised.value)

    def test_store_fields_is_an_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown config key 'store.fields'"):
            SystemConfig.from_dict(
                {"store": {"spec": "cafe", "fields": [{"field": "a", "backend": "full"}]}}
            )

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
        with pytest.raises(ConfigurationError, match="'pipeline.max_steps' must be int"):
            SystemConfig.from_dict({"pipeline": {"max_steps": True}})
        with pytest.raises(ConfigurationError, match="'store.spec' must be str"):
            SystemConfig.from_dict({"store": {"spec": None}})
        # An int where a float is expected is fine (JSON has one number type).
        assert SystemConfig.from_dict(
            {"store": {"compression_ratio": 10}}
        ).store.compression_ratio == 10


class TestOverrides:
    def test_int_float_str_coercion(self):
        config = apply_overrides(
            SystemConfig(),
            ["store.num_shards=4", "store.compression_ratio=25.5", "data.dataset=avazu"],
        )
        assert config.store.num_shards == 4
        assert config.store.compression_ratio == 25.5
        assert config.data.dataset == "avazu"

    def test_optional_none(self):
        config = apply_overrides(SystemConfig(), ["train.max_steps=10"])
        assert config.train.max_steps == 10
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
        with pytest.raises(ConfigurationError, match="known backends"):
            apply_overrides(SystemConfig(), ["store.spec=bogus"])
