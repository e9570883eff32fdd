"""The shard executor: per-shard tasks in shard order, with shared stats.

:class:`SerialShardExecutor` runs a set of per-shard tasks — the fan-out
half of the multi-shard :class:`~repro.store.sharded.ShardedEmbeddingStore`
operations (``lookup``, ``apply_gradients``, ``rebalance``) and of the
per-group :class:`~repro.store.table_group.TableGroupStore` ones — one after
another on the calling thread, and records per-shard timing so the
benchmarks can attribute time to individual shards.
It adds no overhead beyond the timing and keeps every store operation
deterministic and single-threaded.

Tasks submitted in one :meth:`SerialShardExecutor.run` call touch *disjoint*
state (the store guarantees this: each task owns one shard object).

>>> executor = SerialShardExecutor()
>>> executor.run([(0, lambda: "a"), (2, lambda: "b")])
['a', 'b']
>>> sorted(executor.stats.per_shard)
[0, 2]
>>> executor.stats.per_shard[0].calls
1
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

#: A unit of fan-out work: ``(shard_index, thunk)``.
ShardTask = tuple[int, Callable[[], Any]]


@dataclass
class ShardTiming:
    """Cumulative wall-clock accounting for one shard."""

    calls: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def record(self, seconds: float) -> None:
        self.calls += 1
        self.total_s += seconds
        self.max_s = max(self.max_s, seconds)

    def as_dict(self) -> dict[str, float | int]:
        return {
            "calls": self.calls,
            "total_ms": round(self.total_s * 1e3, 4),
            "max_ms": round(self.max_s * 1e3, 4),
        }


@dataclass
class ExecutorStats:
    """Per-shard task timings, whole-fan-out wall time and gradient bytes.

    ``parallel_efficiency`` is the ratio of summed per-task seconds to the
    wall-clock seconds spent inside :meth:`SerialShardExecutor.run` (≈ 1.0:
    the tasks run one after another).
    """

    per_shard: dict[int, ShardTiming] = field(default_factory=dict)
    fanouts: int = 0
    fanout_wall_s: float = 0.0
    task_s: float = 0.0
    grad_bytes: int = 0
    grad_steps: int = 0

    def record_task(self, shard_index: int, seconds: float) -> None:
        self.per_shard.setdefault(int(shard_index), ShardTiming()).record(seconds)
        self.task_s += seconds

    def record_fanout(self, seconds: float) -> None:
        self.fanouts += 1
        self.fanout_wall_s += seconds

    def record_grad_exchange(self, nbytes: int) -> None:
        """Account one ``apply_gradients`` step's trainer→store payload
        (unique ids, per-id gradient sums and scores)."""
        self.grad_bytes += int(nbytes)
        self.grad_steps += 1

    @property
    def grad_bytes_per_step(self) -> float:
        """Mean payload bytes per ``apply_gradients`` step."""
        if self.grad_steps == 0:
            return 0.0
        return self.grad_bytes / self.grad_steps

    @property
    def parallel_efficiency(self) -> float:
        if self.fanout_wall_s <= 0.0:
            return 0.0
        return self.task_s / self.fanout_wall_s

    def reset(self) -> None:
        self.per_shard.clear()
        self.fanouts = 0
        self.fanout_wall_s = 0.0
        self.task_s = 0.0
        self.grad_bytes = 0
        self.grad_steps = 0

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "fanouts": self.fanouts,
            "fanout_wall_ms": round(self.fanout_wall_s * 1e3, 4),
            "task_ms": round(self.task_s * 1e3, 4),
            "parallel_efficiency": round(self.parallel_efficiency, 3),
            "per_shard": {
                shard: timing.as_dict() for shard, timing in sorted(self.per_shard.items())
            },
        }
        if self.grad_steps:
            out["grad_exchange"] = {
                "steps": self.grad_steps,
                "bytes_total": self.grad_bytes,
                "grad_bytes_per_step": round(self.grad_bytes_per_step, 1),
            }
        return out


class SerialShardExecutor:
    """Runs one thunk per shard on the calling thread; results in task order.

    Records per-shard timing into :attr:`stats` and propagates the first
    exception a task raises.
    """

    def __init__(self):
        self.stats = ExecutorStats()

    def run(self, tasks: Sequence[ShardTask]) -> list[Any]:
        """Execute every ``(shard_index, thunk)`` task; results in task order."""
        start = time.perf_counter()
        results = []
        for shard_index, thunk in tasks:
            task_start = time.perf_counter()
            results.append(thunk())
            self.stats.record_task(shard_index, time.perf_counter() - task_start)
        self.stats.record_fanout(time.perf_counter() - start)
        return results

    def __getstate__(self) -> dict[str, Any]:
        # Stats are runtime state: a copied or unpickled store starts afresh.
        return {}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__()
