"""Shard executors: one interface, a serial implementation, shared stats.

A :class:`ShardExecutor` runs a set of per-shard tasks — the fan-out half of
every :class:`~repro.store.sharded.ShardedEmbeddingStore` operation
(``lookup``, ``apply_gradients``, ``rebalance``, ``merged_sketch``) — and
records per-shard timing so the benchmarks can attribute time to individual
shards.

Two implementations exist behind the interface:

* :class:`SerialShardExecutor` (here) runs the tasks in shard order on the
  calling thread.  This is the default: it adds zero overhead and keeps
  every store operation deterministic and single-threaded.
* :class:`~repro.runtime.process.ProcessShardExecutor` moves each shard into
  a worker process with its tables in shared memory, for real CPU
  parallelism on hosts that have the cores.

Tasks submitted in one :meth:`ShardExecutor.run` call must touch *disjoint*
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

import abc
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

#: A unit of fan-out work: ``(shard_index, thunk)``.
ShardTask = tuple[int, Callable[[], Any]]


@dataclass
class ShardTiming:
    """Cumulative wall-clock accounting for one shard.

    ``worker_s`` is populated only by executors that can separate on-worker
    compute from round-trip time (the process executor); for those the IPC
    overhead per shard is ``total_s - worker_s``.
    """

    calls: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    worker_s: float = 0.0
    worker_calls: int = 0

    def record(self, seconds: float, worker_s: float | None = None) -> None:
        self.calls += 1
        self.total_s += seconds
        self.max_s = max(self.max_s, seconds)
        if worker_s is not None:
            self.worker_s += worker_s
            self.worker_calls += 1

    @property
    def ipc_s(self) -> float:
        """Round-trip overhead: wall time minus on-worker compute."""
        if self.worker_calls == 0:
            return 0.0
        return max(self.total_s - self.worker_s, 0.0)

    def as_dict(self) -> dict[str, float | int]:
        out: dict[str, float | int] = {
            "calls": self.calls,
            "total_ms": round(self.total_s * 1e3, 4),
            "max_ms": round(self.max_s * 1e3, 4),
        }
        if self.worker_calls:
            out["worker_ms"] = round(self.worker_s * 1e3, 4)
            out["ipc_ms"] = round(self.ipc_s * 1e3, 4)
        return out


@dataclass
class ExecutorStats:
    """Per-shard task timings plus whole-fan-out wall time.

    ``parallel_efficiency`` is the ratio of summed per-task seconds to the
    wall-clock seconds spent inside :meth:`ShardExecutor.run`: ~1.0 for a
    serial executor, > 1.0 when tasks genuinely overlapped.
    """

    per_shard: dict[int, ShardTiming] = field(default_factory=dict)
    fanouts: int = 0
    fanout_wall_s: float = 0.0
    task_s: float = 0.0
    worker_s: float = 0.0
    grad_bytes: int = 0
    grad_steps: int = 0
    grad_exchange_mode: str = ""

    def record_task(
        self, shard_index: int, seconds: float, worker_s: float | None = None
    ) -> None:
        timing = self.per_shard.setdefault(int(shard_index), ShardTiming())
        timing.record(seconds, worker_s=worker_s)
        self.task_s += seconds
        if worker_s is not None:
            self.worker_s += worker_s

    def record_fanout(self, seconds: float) -> None:
        self.fanouts += 1
        self.fanout_wall_s += seconds

    def record_grad_exchange(self, nbytes: int, mode: str) -> None:
        """Account one ``apply_gradients`` step's exchange payload.

        ``nbytes`` is the total payload crossing the trainer→shard boundary
        this step (summed over shards) — actual shm traffic for the process
        executor, the identically-sized in-process handoff otherwise, so
        dense-vs-sketched comparisons are transport-independent.
        """
        self.grad_bytes += int(nbytes)
        self.grad_steps += 1
        self.grad_exchange_mode = mode

    @property
    def grad_bytes_per_step(self) -> float:
        """Mean exchange payload bytes per ``apply_gradients`` step."""
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
        self.worker_s = 0.0
        self.grad_bytes = 0
        self.grad_steps = 0
        self.grad_exchange_mode = ""

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
        if self.worker_s > 0.0:
            out["worker_ms"] = round(self.worker_s * 1e3, 4)
            out["ipc_overhead_ms"] = round(max(self.task_s - self.worker_s, 0.0) * 1e3, 4)
        if self.grad_steps:
            out["grad_exchange"] = {
                "mode": self.grad_exchange_mode,
                "steps": self.grad_steps,
                "bytes_total": self.grad_bytes,
                "grad_bytes_per_step": round(self.grad_bytes_per_step, 1),
            }
        return out


class ShardExecutor(abc.ABC):
    """Runs one thunk per shard and returns the results in task order.

    Implementations must preserve the order of ``tasks`` in the returned
    list, record per-shard timing into :attr:`stats`, and propagate the
    first exception a task raises.
    """

    def __init__(self):
        self.stats = ExecutorStats()
        self._lock = threading.Lock()

    @abc.abstractmethod
    def run(self, tasks: Sequence[ShardTask]) -> list[Any]:
        """Execute every ``(shard_index, thunk)`` task; results in task order."""

    def close(self) -> None:
        """Release any worker resources (no-op for serial execution)."""

    def _timed(self, shard_index: int, thunk: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        result = thunk()
        elapsed = time.perf_counter() - start
        with self._lock:
            self.stats.record_task(shard_index, elapsed)
        return result

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialShardExecutor(ShardExecutor):
    """Run shard tasks one after another on the calling thread (default)."""

    def run(self, tasks: Sequence[ShardTask]) -> list[Any]:
        start = time.perf_counter()
        results = [self._timed(shard_index, thunk) for shard_index, thunk in tasks]
        with self._lock:
            self.stats.record_fanout(time.perf_counter() - start)
        return results

    def __deepcopy__(self, memo) -> "SerialShardExecutor":
        # Executors hold no shard state; a copied store gets a fresh one.
        return SerialShardExecutor()

    def __getstate__(self) -> dict[str, Any]:
        # Stats (and the lock) are runtime state; a store pickled into a
        # shard worker starts with a fresh serial executor.
        return {}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__()


#: Executor kinds accepted by :func:`create_executor`.
EXECUTOR_KINDS = ("serial", "processes")


def create_executor(kind: str, max_workers: int | None = None) -> ShardExecutor:
    """Build a :class:`ShardExecutor` from a CLI/config spelling.

    ``kind`` is ``"serial"`` or ``"processes"`` (there are no aliases);
    ``max_workers`` applies to the process executor.

    >>> create_executor("serial").run([(0, lambda: 41 + 1)])
    [42]
    >>> create_executor("threads")
    Traceback (most recent call last):
        ...
    ValueError: unknown executor kind 'threads'; expected one of ('serial', 'processes')
    """
    if kind not in EXECUTOR_KINDS:
        raise ValueError(f"unknown executor kind '{kind}'; expected one of {EXECUTOR_KINDS}")
    if kind == "serial":
        return SerialShardExecutor()
    from repro.runtime.process import ProcessShardExecutor

    return ProcessShardExecutor(max_workers=max_workers)
