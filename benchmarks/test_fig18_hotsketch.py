"""Benchmark regenerating Figure 18 (HotSketch recall, throughput, tracking)."""

import numpy as np
from conftest import run_once

from repro.experiments.hotsketch_eval import run_fig18_hotsketch


def test_fig18_hotsketch(benchmark, bench_scale):
    result = run_once(
        benchmark,
        run_fig18_hotsketch,
        scale=bench_scale,
        slots_options=(1, 4, 16),
        memory_slots=4096,
        top_k=256,
        stream_length=150_000,
        num_items=50_000,
        tracking_ratios=(100.0,),
    )
    panel_a = {row["slots_per_bucket"]: row for row in result.filter_rows(panel="recall_throughput")}
    assert set(panel_a) == {1, 4, 16}
    # Per-c recall floors under a fixed memory budget, with the stream fed in
    # training-sized inserts.  One slot per bucket still keeps most of the
    # top 256 (0.73 measured; 1/256 when the whole stream was one insert).
    floors = {1: 0.6, 4: 0.95, 16: 0.95}
    for slots, row in panel_a.items():
        assert row["recall"] >= floors[slots], (slots, row["recall"])
        assert row["insert_mops"] > 0 and row["query_mops"] > 0

    # Panels (c)/(d): real-time top-k recall during online training.  The
    # paper reports >90% with 100k+ sketch buckets; at reproduction scale the
    # sketch has only ~100 buckets, so we require the sketch to keep tracking
    # a substantial fraction of the true top-k throughout the run rather than
    # the paper's absolute level.
    tracking = result.filter_rows(panel="tracking")
    assert tracking
    recalls = [row["recall_up_to_date"] for row in tracking]
    assert np.mean(recalls) > 0.4
    assert min(recalls) > 0.2
