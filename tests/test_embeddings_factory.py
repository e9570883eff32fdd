"""Tests for the create_embedding factory and cross-method invariants."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embeddings import (
    METHOD_NAMES,
    AdaEmbed,
    CafeEmbedding,
    CafeMultiLevelEmbedding,
    FullEmbedding,
    HashEmbedding,
    MixedDimensionEmbedding,
    OfflineSeparationEmbedding,
    QRTrickEmbedding,
    TableBackedEmbedding,
    create_embedding,
)
from repro.api import config as api_config
from repro.data.drift import RotatingDrift
from repro.data.schema import make_preset
from repro.data.stats import kl_divergence, kl_divergence_matrix
from repro.data.stream import iterate_batches
from repro.data.synthetic import SyntheticConfig, SyntheticCTRDataset
from repro.models import DCN, DLRM, WDL, create_model
from repro.nn.optim import Adam, RowAdagrad
from repro.runtime.pipeline import PipelineConfig
from repro.serving.replica import ReplicaTier
from repro.sketch import HotSketch
from repro.sketch.analysis import retention_probability_zipf
from repro.store import ShardedEmbeddingStore
from repro.training.metrics import log_loss
from repro.training.trainer import Trainer, TrainingHistory
from repro.utils.logging import get_logger
from repro.utils.zipf import fit_zipf_exponent

N = 1200
DIM = 8
CARDS = [500, 400, 200, 100]


def build(method, cr=10.0, **kwargs):
    return create_embedding(
        method,
        num_features=N,
        dim=DIM,
        compression_ratio=cr,
        field_cardinalities=CARDS,
        frequencies=np.random.default_rng(0).random(N) if method == "offline" else None,
        rng=np.random.default_rng(1),
        **kwargs,
    )


EXPECTED_TYPES = {
    "full": FullEmbedding,
    "hash": HashEmbedding,
    "qr": QRTrickEmbedding,
    "adaembed": AdaEmbed,
    "mde": MixedDimensionEmbedding,
    "cafe": CafeEmbedding,
    "cafe_ml": CafeMultiLevelEmbedding,
    "offline": OfflineSeparationEmbedding,
}


class TestFactory:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_builds_every_method(self, method):
        cr = 1.0 if method == "full" else (4.0 if method in ("adaembed", "mde") else 10.0)
        emb = build(method, cr=cr)
        assert isinstance(emb, EXPECTED_TYPES[method])

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            build("bogus")

    def test_mde_requires_cardinalities(self):
        with pytest.raises(ValueError):
            create_embedding("mde", num_features=N, dim=DIM, compression_ratio=4.0)

    def test_offline_requires_frequencies(self):
        with pytest.raises(ValueError):
            create_embedding("offline", num_features=N, dim=DIM, compression_ratio=10.0)

    @pytest.mark.parametrize("method", ["hash", "qr", "cafe", "cafe_ml"])
    def test_budget_respected(self, method):
        emb = build(method, cr=10.0)
        assert emb.memory_floats() <= N * DIM / 10.0 + DIM  # one-row slack


class TestCrossMethodInvariants:
    """Behaviours every embedding scheme must share."""

    METHODS_AND_CRS = [
        ("full", 1.0),
        ("hash", 10.0),
        ("qr", 10.0),
        ("adaembed", 4.0),
        ("mde", 2.0),
        ("cafe", 10.0),
        ("cafe_ml", 10.0),
        ("offline", 10.0),
    ]

    @pytest.mark.parametrize("method,cr", METHODS_AND_CRS)
    def test_lookup_shape_and_dtype(self, method, cr):
        emb = build(method, cr=cr)
        ids = np.asarray([[0, 5, 900], [3, 3, N - 1]])
        out = emb.lookup(ids)
        assert out.shape == (2, 3, DIM)
        # Tables default to float32 (the paper's memory-accounting unit).
        assert out.dtype == emb.dtype == np.float32

    @pytest.mark.parametrize("method,cr", METHODS_AND_CRS)
    def test_float64_opt_in(self, method, cr):
        emb = build(method, cr=cr, dtype="float64")
        out = emb.lookup(np.asarray([1, 2, 3]))
        assert out.dtype == np.float64
        assert emb.memory_floats() == build(method, cr=cr).memory_floats()

    @pytest.mark.parametrize("method,cr", METHODS_AND_CRS)
    def test_lookup_is_deterministic(self, method, cr):
        emb = build(method, cr=cr)
        ids = np.asarray([1, 2, 3, 1])
        assert np.array_equal(emb.lookup(ids), emb.lookup(ids))

    @pytest.mark.parametrize("method,cr", METHODS_AND_CRS)
    def test_apply_gradients_changes_lookup(self, method, cr):
        emb = build(method, cr=cr)
        ids = np.asarray([7, 8, 9])
        before = emb.lookup(ids).copy()
        emb.apply_gradients(ids, np.ones((3, DIM)))
        after = emb.lookup(ids)
        assert not np.allclose(before, after)

    @pytest.mark.parametrize("method,cr", METHODS_AND_CRS)
    def test_memory_positive_and_ratio_consistent(self, method, cr):
        emb = build(method, cr=cr)
        assert emb.memory_floats() > 0
        assert emb.compression_ratio() == pytest.approx(N * DIM / emb.memory_floats())

    @pytest.mark.parametrize("method,cr", METHODS_AND_CRS)
    def test_gradient_descent_reduces_reconstruction_error(self, method, cr):
        """Every scheme must be able to (locally) fit targets for a small set
        of repeatedly-seen features — the basic property training relies on."""
        emb = build(method, cr=cr)
        ids = np.asarray([0, 1, 2, 3])
        target = np.random.default_rng(3).normal(size=(4, DIM)) * 0.1
        initial = float(np.abs(emb.lookup(ids) - target).mean())
        for _ in range(80):
            out = emb.lookup(ids)
            emb.apply_gradients(ids, 2 * (out - target) / 4)
        final = float(np.abs(emb.lookup(ids) - target).mean())
        assert final < initial


class TestPropertyBased:
    @given(
        ids=st.lists(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=64),
        method=st.sampled_from(["hash", "cafe", "qr"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_lookup_never_fails_for_valid_ids(self, ids, method):
        emb = build(method, cr=10.0)
        arr = np.asarray(ids, dtype=np.int64)
        out = emb.lookup(arr)
        assert out.shape == (len(ids), DIM)
        assert np.all(np.isfinite(out))

    @given(ids=st.lists(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=32))
    @settings(max_examples=25, deadline=None)
    def test_cafe_row_accounting_invariant(self, ids):
        """After arbitrary updates, every exclusive row is either free or
        referenced by exactly one sketch payload (no leaks, no double use)."""
        emb = build("cafe", cr=10.0)
        arr = np.asarray(ids, dtype=np.int64)
        rng = np.random.default_rng(0)
        for _ in range(5):
            emb.apply_gradients(arr, rng.normal(size=(arr.size, DIM)))
        payloads = emb.sketch.payloads[emb.sketch.payloads != -1]
        assert len(set(payloads.tolist())) == payloads.size  # no double-assignment
        assert payloads.size + len(emb._free_rows) == emb.num_hot_rows
        assert np.all((payloads >= 0) & (payloads < emb.num_hot_rows))


def cafe_knobs(layer):
    """Every CAFE setting a layer holds after construction."""
    return {
        "decay": layer.decay,
        "decay_interval": layer.decay_interval,
        "rebalance_interval": layer.rebalance_interval,
        "slots_per_bucket": layer.slots_per_bucket,
        "hash_seed": layer.hash_seed,
        "sketch_seed": layer.sketch.seed,
        "adaptive_threshold": layer.adaptive_threshold,
        "hot_threshold": layer.hot_threshold,
        "use_frequency": layer.use_frequency,
        "optimizer": layer.optimizer_name,
        "learning_rate": layer.learning_rate,
        "dtype": layer.dtype,
    }


def keywords(*functions):
    """The named parameters of ``functions`` (not ``self`` / ``cls``, ``*`` or
    ``**``), each with its default (``empty`` when it has none)."""
    return {
        name: parameter.default
        for function in functions
        for name, parameter in inspect.signature(function).parameters.items()
        if name not in ("self", "cls")
        and parameter.kind not in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD)
    }


#: Every keyword each backend's ``__init__`` and ``from_budget`` name (the
#: row optimizer, learning rate and dtype are ``TableBackedEmbedding``'s).
#: Sizes, side inputs and ``rng`` aside, each one has a caller, named here;
#: every other setting is a module constant or a class attribute.
BACKEND_KEYWORDS = {
    FullEmbedding: {"num_features", "dim", "rng"},
    HashEmbedding: {"budget", "num_features", "dim", "num_rows", "rng"},
    QRTrickEmbedding: {"budget", "num_features", "dim", "num_remainder_rows", "rng"},
    AdaEmbed: {"budget", "num_features", "dim", "num_rows", "rng"},
    MixedDimensionEmbedding: {"budget", "field_cardinalities", "dim", "field_dims", "rng"},
    OfflineSeparationEmbedding: {
        "budget", "num_features", "dim", "num_hot_rows", "num_shared_rows", "frequencies", "rng",
    },
    CafeEmbedding: {
        "budget", "num_features", "dim", "num_hot_rows", "num_shared_rows", "rng",
        "hot_percentage",  # fig15 panel (a)
        "hot_threshold",  # fig15 panel (b); ablation_adaptivity's cafe_no_migration
        "decay",  # fig15 panel (c); ablation_adaptivity's cafe_no_decay
        "use_frequency",  # fig15 panel (d)
        "slots_per_bucket",  # ablation_slots_per_bucket (fig18 sizes its sketches alike)
        "rebalance_interval",  # ablation_adaptivity; scripts/checkpoint_migration_smoke.py
        "decay_interval",  # its value is still to be chosen (ROADMAP item 3)
    },
    # The CAFE keywords above reach CafeEmbedding through **kwargs.
    CafeMultiLevelEmbedding: {
        "budget", "num_features", "dim", "num_hot_rows", "num_shared_rows",
        "num_secondary_rows", "hot_percentage",
    },
}


def constructor_keywords(cls):
    """The named parameters of ``cls``'s constructor chain."""
    return {
        name
        for klass in cls.__mro__
        if "__init__" in vars(klass)
        for name in keywords(vars(klass)["__init__"])
    }


#: Every parameter of the public callables outside the backends whose
#: keywords were audited against their callers.  A keyword with a default is
#: set to another value by a non-test caller, named beside it; every other
#: setting is a module constant or a class attribute (docs/api.md
#: "Constants").  Side inputs and ``rng`` carry no comment.
PUBLIC_KEYWORDS = {
    RotatingDrift.__init__: {  # every caller passes both
        "swap_fraction",  # perf/ train_sparse, ablation_adaptivity, examples/online_training_drift.py
        "seed",  # perf/ train_sparse; the dataset's default drift
    },
    SyntheticConfig: {
        "samples_per_day",  # perf/ build_session, build_dataset's scales
        "signal_scale", "interaction_scale",  # the calibration levers (ROADMAP item 2)
        "seed",  # perf/ build_session, build_dataset
    },
    SyntheticCTRDataset.generate_day: {
        "day",
        "num_samples",  # perf/ test_rows, fig13's latency batches, test_batch
        "seed_offset",  # perf/ input_offset, test_batch
    },
    SyntheticCTRDataset.day_batches: {"day", "batch_size"},
    SyntheticCTRDataset.training_stream: {
        "batch_size",
        "days",  # run_single's fig17 subsample, fig3's first two days
    },
    SyntheticCTRDataset.feature_frequencies: set(),
    SyntheticCTRDataset.day_histograms: set(),
    iterate_batches: {
        "categorical", "numerical", "labels", "batch_size",
        "day",  # perf/ training_stream, day_batches
    },
    kl_divergence: {"p_counts", "q_counts"},
    kl_divergence_matrix: {"day_histograms"},
    make_preset: {"name", "base_cardinality", "seed"},  # every caller passes both
    DLRM.__init__: {"embedding", "num_fields", "num_numerical", "rng"},
    WDL.__init__: {"embedding", "num_fields", "num_numerical", "rng"},
    DCN.__init__: {"embedding", "num_fields", "num_numerical", "rng"},
    create_model: {"name", "embedding", "num_fields", "num_numerical", "rng"},
    Adam.__init__: {"parameters", "lr"},
    RowAdagrad.__init__: {"lr", "table"},
    TrainingHistory.smoothed_losses: set(),
    Trainer.predict: {"batch"},
    Trainer.evaluate_auc: {"batch"},
    Trainer.evaluate_log_loss: {"batch"},
    log_loss: {"labels", "probabilities"},
    retention_probability_zipf: {"gamma", "zipf_exponent", "num_buckets", "slots_per_bucket"},
    get_logger: {"name"},
    fit_zipf_exponent: {"scores", "max_rank"},  # fig3 fits the head; every caller passes it
    PipelineConfig: {
        # SystemConfig's pipeline section (the CLI's --set pipeline.*); perf/
        # online_publish passes the cadence and the micro-batch.
        "publish_every_steps", "probe_every_steps", "serving_micro_batch", "max_steps",
    },
    ReplicaTier.__init__: {
        "model", "num_replicas", "max_batch_size",  # every caller passes both
        "rebase_every",  # perf/ online_publish
    },
}


class TestOneDefaultPerKnob:
    """A knob has its default in one place, whichever way a layer is built."""

    def test_every_public_keyword_has_a_caller(self):
        """The audited callables outside the backends take exactly the
        keywords listed, none takes ``**kwargs``, and 13 values have a
        default (``rng`` aside).  The two pipeline configs are one class."""
        settable = 0
        for function, expected in PUBLIC_KEYWORDS.items():
            parameters = inspect.signature(function).parameters
            assert not any(p.kind is p.VAR_KEYWORD for p in parameters.values()), function
            found = keywords(function)
            assert set(found) == expected, function
            settable += sum(
                default is not inspect.Parameter.empty and name != "rng"
                for name, default in found.items()
            )
        assert settable == 13
        assert api_config.PipelineConfig is PipelineConfig
        assert api_config.SystemConfig().pipeline == PipelineConfig()

    def test_every_keyword_has_a_caller(self):
        """Each backend, the store builder and HotSketch take exactly the
        keywords something sets; the settable values with a default (``rng``
        and the store builder's ratio and seed aside) are CAFE's seven."""
        settable = set()
        for cls, expected in BACKEND_KEYWORDS.items():
            found = keywords(cls.__init__, *([cls.from_budget] if "from_budget" in vars(cls) else []))
            assert set(found) == expected, cls.__name__
            settable |= {
                (cls.__name__, name) for name, default in found.items()
                if default is not inspect.Parameter.empty and name != "rng"
            }
        cafe = {"hot_percentage", "hot_threshold", "decay", "use_frequency", "slots_per_bucket",
                "rebalance_interval", "decay_interval"}
        assert settable == {("CafeEmbedding", name) for name in cafe} | {
            ("CafeMultiLevelEmbedding", "hot_percentage")  # CAFE's, passed on to plan_budget
        }
        assert keywords(ShardedEmbeddingStore.__init__) == {"shards": inspect.Parameter.empty}
        assert set(keywords(ShardedEmbeddingStore.build)) == {
            "method", "num_features", "dim", "num_shards", "compression_ratio", "seed",
        }
        # Every caller passes all three (CAFE its SLOTS_PER_BUCKET and seed).
        assert keywords(HotSketch.__init__) == dict.fromkeys(
            ("num_buckets", "slots_per_bucket", "seed"), inspect.Parameter.empty
        )

    def test_factory_and_constructor_agree_on_every_cafe_knob(self):
        direct = CafeEmbedding(N, DIM, num_hot_rows=16, num_shared_rows=64)
        for method in ("cafe", "cafe_ml"):
            assert cafe_knobs(build(method)) == cafe_knobs(direct), method

    @pytest.mark.parametrize(
        "method", [name for name, cls in EXPECTED_TYPES.items() if "from_budget" in vars(cls)]
    )
    def test_from_budget_declares_no_default_of_its_constructor(self, method):
        cls = EXPECTED_TYPES[method]
        declared = {
            name
            for name, parameter in inspect.signature(cls.from_budget).parameters.items()
            if parameter.default is not parameter.empty
        }
        owned = constructor_keywords(cls) | constructor_keywords(TableBackedEmbedding)
        assert not declared & owned, f"{cls.__name__}.from_budget re-declares {declared & owned}"
