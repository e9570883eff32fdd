"""Figure 13 — latency and throughput of each method (CriteoTB preset, 10×).

The paper times one training step (batch 2048) and one inference pass (batch
16384) per method; data loading and the dense network are identical across
methods so the differences isolate the embedding layer.  The reproduction
uses proportionally smaller batches but reports the same rows: per-method
training / inference latency and throughput.
"""

from __future__ import annotations

from repro.embeddings.ada_embed import REALLOCATION_INTERVAL
from repro.experiments.common import build_dataset, build_embedding, build_model, get_scale
from repro.experiments.reporting import ExperimentResult
from repro.training.latency import measure_latency


def run_fig13_latency_throughput(
    scale: str = "tiny",
    seed: int = 0,
    methods: tuple[str, ...] = ("hash", "qr", "mde", "adaembed", "cafe"),
    compression_ratio: float = 10.0,
    train_batch_size: int | None = None,
    inference_batch_size: int | None = None,
    repeats: int = 5,
) -> ExperimentResult:
    """Measure per-method training and inference latency/throughput.

    Every feasible method's model is built first; the timing then runs
    ``repeats`` interleaved rounds of one train step and one inference pass
    per method, in alternating direction (after one untimed round), and
    reports per-method medians.
    """
    result = ExperimentResult(
        experiment_id="fig13",
        title="Latency and throughput on CriteoTB (10x)",
        timing_columns=(
            "train_latency_ms", "inference_latency_ms", "train_throughput",
            "inference_throughput",
        ),
    )
    spec = get_scale(scale)
    train_batch_size = train_batch_size or spec.batch_size
    inference_batch_size = inference_batch_size or spec.batch_size * 8

    dataset = build_dataset("criteotb", scale=scale, seed=seed)
    train_batch = dataset.generate_day(0, num_samples=train_batch_size)
    inference_batch = dataset.generate_day(0, num_samples=inference_batch_size, seed_offset=7)

    models = {}
    for method in methods:
        try:
            embedding = build_embedding(method, dataset, compression_ratio, seed=seed)
        except Exception as exc:  # infeasible method at this ratio
            result.add_row(method=method, feasible=False, reason=str(exc)[:60])
            continue
        models[method] = build_model("dlrm", embedding, dataset.schema, seed=seed)
    for report in measure_latency(models, train_batch, inference_batch, repeats=repeats):
        result.add_row(feasible=True, **report.as_row())
    result.add_note(
        f"each model takes {repeats + 1} train steps here and AdaEmbed reallocates every "
        f"{REALLOCATION_INTERVAL}, so its reallocation pass runs in "
        f"{(repeats + 1) // REALLOCATION_INTERVAL} of them"
    )
    result.add_note(
        "every timed call re-allocates the model's workspace: a round alternates a "
        f"b{train_batch_size} train step and a b{inference_batch_size} inference pass on one "
        "model, which keeps the workspace of the last batch size only (one measurement at "
        "tiny on 2 vCPUs, one BLAS thread: a b1024 DLRM inference pass took 3.3 ms repeated "
        "and 8.0 ms right after a b128 train step, for hash and cafe alike)"
    )
    result.add_note(
        "plan_reuse_rate: fraction of routing-plan requests served from the lookup-time cache "
        "(each train step hashes once, then apply_gradients reuses the plan)"
    )
    return result
