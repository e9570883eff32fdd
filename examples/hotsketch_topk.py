"""Using HotSketch standalone: streaming top-k tracking with bounded memory.

HotSketch is useful beyond CAFE: it is a general single-pass, O(1)-per-update
structure for finding the heaviest items of a weighted stream.  This example
feeds it a Zipf-distributed stream whose hot set changes halfway through and
scores what it reports against the exact top-k of the second half (an
``np.bincount`` count, what Figure 18's recall is scored against), beside an
exact all-time count with one counter per id: decay lets the sketch follow the
shift in a fraction of the memory (§3.2, §3.3).

Run with:  python examples/hotsketch_topk.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.sketch import HotSketch, optimal_slots_per_bucket
from repro.training import recall_at_k
from repro.utils import ZipfDistribution

NUM_ITEMS = 100_000
STREAM_LENGTH = 400_000
TOP_K = 256
ZIPF_EXPONENT = 1.2
SEED = 3
CHUNK = 8192
DECAY = 0.9


def make_stream(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A two-phase stream: the item ids are remapped halfway through, so the
    hot set changes — the situation CAFE faces in online training."""
    zipf = ZipfDistribution(NUM_ITEMS, ZIPF_EXPONENT)
    first = zipf.sample(STREAM_LENGTH // 2, rng)
    second = (zipf.sample(STREAM_LENGTH // 2, rng) + NUM_ITEMS // 3) % NUM_ITEMS
    return first, second


def report(name: str, reported: np.ndarray, true_top: np.ndarray, memory_floats: int, elapsed: float):
    recall = recall_at_k(true_top, reported)
    print(f"{name:<22} recall={recall:6.2%}  memory={memory_floats:>8d} floats  "
          f"insert throughput={STREAM_LENGTH / elapsed / 1e6:6.2f} M ops/s")


def main() -> None:
    rng = np.random.default_rng(SEED)
    first, second = make_stream(rng)
    full_stream = np.concatenate([first, second])

    counts = np.bincount(second, minlength=NUM_ITEMS)  # "recent" truth after the shift
    true_top = np.argsort(counts)[::-1][:TOP_K]

    print(f"stream: {STREAM_LENGTH} items over {NUM_ITEMS} ids, Zipf z={ZIPF_EXPONENT}, "
          f"hot set changes at the midpoint; target = top-{TOP_K} of the second half")
    print(f"recommended slots per bucket for this skew (Corollary 3.5): "
          f"{optimal_slots_per_bucket(ZIPF_EXPONENT):.1f}")
    print()

    # HotSketch, with and without decay after every chunk: the decayed one
    # lets the old hot set fade out, as CAFE's decay does (§3.3).
    for name, factor in (("HotSketch (decayed)", DECAY), ("HotSketch (no decay)", 1.0)):
        sketch = HotSketch(num_buckets=TOP_K, slots_per_bucket=4, seed=SEED)
        start = time.perf_counter()
        for chunk_start in range(0, full_stream.size, CHUNK):
            sketch.insert(full_stream[chunk_start : chunk_start + CHUNK])
            sketch.apply_decay(factor)
        elapsed = time.perf_counter() - start
        report(name, sketch.top_k(TOP_K), true_top, sketch.memory_floats(), elapsed)

    # The exact all-time count: one counter per id, and no notion of recency.
    start = time.perf_counter()
    all_time = np.bincount(full_stream, minlength=NUM_ITEMS)
    elapsed = time.perf_counter() - start
    report("exact all-time count", np.argsort(all_time)[::-1][:TOP_K], true_top, NUM_ITEMS, elapsed)


if __name__ == "__main__":
    main()
