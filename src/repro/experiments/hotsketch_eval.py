"""HotSketch analyses: Figures 3, 7 and 18.

* Figure 3 — the distribution of per-feature importance (accumulated gradient
  norms) closely follows a Zipf distribution; this runner measures the norms
  on a real training run and fits the exponent.
* Figure 7 — numerical evaluation of the Theorem 3.3 retention-probability
  bound over a (hotness γ, skewness z) grid.
* Figure 18 — (a) recall of the true top-k features and (b) insert/query
  throughput for different slots-per-bucket values under a fixed memory
  budget; (c)/(d) real-time recall of the up-to-date and sliding-window top-k
  during online training with drifting data.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import build_dataset, build_embedding, build_model, get_scale
from repro.experiments.reporting import ExperimentResult
from repro.sketch.analysis import optimal_slots_per_bucket, retention_probability_grid
from repro.sketch.hotsketch import HotSketch
from repro.training.latency import measure_sketch_throughput
from repro.training.metrics import recall_at_k
from repro.training.trainer import Trainer
from repro.utils.zipf import ZipfDistribution, fit_zipf_exponent

#: Ids per HotSketch insert in Fig 18 (a): about one batch-128 training step
#: of a 26-field dataset.
STREAM_CHUNK = 4096


def run_fig3_gradient_zipf(
    scale: str = "tiny",
    seed: int = 0,
    datasets: tuple[str, ...] = ("criteo", "criteotb"),
    fit_top_fraction: float = 0.05,
) -> ExperimentResult:
    """Fit a Zipf exponent to the measured per-feature gradient norms."""
    result = ExperimentResult(
        experiment_id="fig3",
        title="Comparing gradient norm and Zipf distributions",
    )
    spec = get_scale(scale)
    for dataset_name in datasets:
        dataset = build_dataset(dataset_name, scale=scale, seed=seed)
        embedding = build_embedding("full", dataset, 1.0, seed=seed)
        model = build_model("dlrm", embedding, dataset.schema, seed=seed)
        trainer = Trainer(model)
        stream = dataset.training_stream(spec.batch_size, days=dataset.train_days[:2])
        norms = trainer.collect_gradient_norms(stream, dataset.schema.num_features)
        positive = norms[norms > 0]
        max_rank = max(int(positive.size * fit_top_fraction), 10)
        exponent = fit_zipf_exponent(norms, max_rank=max_rank)
        result.extras[f"{dataset_name}_gradient_norms"] = np.sort(positive)[::-1]
        result.add_row(
            dataset=dataset_name,
            num_features_with_gradient=int(positive.size),
            fitted_zipf_exponent=round(exponent, 3),
            configured_zipf_exponent=dataset.schema.zipf_exponent,
            top_1pct_mass=round(float(np.sort(norms)[::-1][: max(norms.size // 100, 1)].sum() / norms.sum()), 4),
        )
    result.add_note(
        "the fitted exponent reflects the scaled presets; the paper fits 1.05 (Criteo) and 1.1 (CriteoTB) "
        "on the full-size datasets"
    )
    return result


def run_fig7_probability_grid(
    num_buckets: int = 10000,
    slots_per_bucket: int = 4,
    gammas: tuple[float, ...] = (1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3),
    zipf_exponents: tuple[float, ...] = (1.1, 1.4, 1.7, 2.0),
) -> ExperimentResult:
    """Numerical solution of the Theorem 3.3 bound (the paper uses w=10000, c=4)."""
    result = ExperimentResult(
        experiment_id="fig7",
        title="Probability of HotSketch identifying hot features (Theorem 3.3)",
    )
    grid = retention_probability_grid(np.asarray(gammas), np.asarray(zipf_exponents), num_buckets, slots_per_bucket)
    result.extras["probability_grid"] = grid
    for i, z in enumerate(zipf_exponents):
        for j, gamma in enumerate(gammas):
            result.add_row(zipf_exponent=z, gamma=gamma, probability=round(float(grid[i, j]), 4))
    result.add_note("probability increases with both the feature hotness γ and the stream skewness z")
    return result


def run_fig18_hotsketch(
    scale: str = "tiny",
    seed: int = 0,
    slots_options: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    memory_slots: int = 4096,
    top_k: int = 256,
    stream_length: int = 200_000,
    zipf_exponent: float = 1.1,
    num_items: int = 100_000,
    tracking_ratios: tuple[float, ...] = (100.0, 1000.0),
    window_fraction: float = 0.5,
) -> ExperimentResult:
    """HotSketch recall/throughput and real-time top-k tracking."""
    result = ExperimentResult(
        experiment_id="fig18",
        title="Experiments on HotSketch",
        timing_columns=("insert_mops", "query_mops"),
    )
    rng = np.random.default_rng(seed)

    # --- (a)/(b): recall and throughput vs slots per bucket under fixed memory.
    zipf = ZipfDistribution(num_items, zipf_exponent)
    stream = zipf.sample(stream_length, rng)
    counts = np.bincount(stream, minlength=num_items)
    true_top = np.argsort(counts)[::-1][:top_k]
    for slots in slots_options:
        buckets = max(memory_slots // slots, 1)
        sketch = HotSketch(buckets, slots, seed)
        # One insert is one aggregated step (HotSketch.insert), so the stream
        # arrives the way training feeds it: in batch-sized chunks.
        for start in range(0, stream_length, STREAM_CHUNK):
            sketch.insert(stream[start : start + STREAM_CHUNK])
        reported = sketch.top_k(top_k)
        recall = recall_at_k(true_top, reported)
        throughput = measure_sketch_throughput(
            HotSketch(buckets, slots, seed),
            stream[:20000],
            np.ones(20000),
        )
        result.add_row(
            panel="recall_throughput",
            slots_per_bucket=slots,
            num_buckets=buckets,
            recall=round(recall, 4),
            insert_mops=round(throughput["insert_ops_per_s"] / 1e6, 3),
            query_mops=round(throughput["query_ops_per_s"] / 1e6, 3),
        )
    result.extras["recommended_slots"] = optimal_slots_per_bucket(zipf_exponent)

    # --- (c)/(d): real-time top-k recall during online training with drift.
    spec = get_scale(scale)
    dataset = build_dataset("criteo", scale=scale, seed=seed)
    for ratio in tracking_ratios:
        embedding = build_embedding("cafe", dataset, ratio, seed=seed)
        model = build_model("dlrm", embedding, dataset.schema, seed=seed)
        trainer = Trainer(model)
        cumulative = np.zeros(dataset.schema.num_features)
        k = embedding.num_hot_rows
        window = max(int(dataset.config.samples_per_day * window_fraction), spec.batch_size)
        window_counts = np.zeros(dataset.schema.num_features)
        window_seen = 0
        for day in dataset.train_days:
            for batch in dataset.day_batches(day, spec.batch_size):
                trainer.train_step(batch)
                ids = batch.categorical.reshape(-1)
                np.add.at(cumulative, ids, 1.0)
                np.add.at(window_counts, ids, 1.0)
                window_seen += len(batch)
                if window_seen >= window:
                    reported = embedding.sketch.top_k(k)
                    recall_cum = recall_at_k(np.argsort(cumulative)[::-1][:k], reported)
                    recall_win = recall_at_k(np.argsort(window_counts)[::-1][:k], reported)
                    result.add_row(
                        panel="tracking",
                        compression_ratio=ratio,
                        day=day,
                        recall_up_to_date=round(recall_cum, 4),
                        recall_window=round(recall_win, 4),
                    )
                    window_counts[:] = 0.0
                    window_seen = 0
    result.add_note(
        "panel=recall_throughput reproduces Fig 18(a)/(b); panel=tracking reproduces Fig 18(c)/(d) "
        "(recall of the up-to-date and previous-window top-k during online training)"
    )
    return result
