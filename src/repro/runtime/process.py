"""Process-parallel shard runtime: pinned workers over shared-memory tables.

:class:`ProcessShardExecutor` runs each shard (or table group) in a worker
process so the per-shard NumPy work escapes the GIL.  The moving parts:

* **Units** — a shard backend or a whole :class:`~repro.store.table_group.
  TableGroup` is shipped to a worker once (``adopt``); the parent keeps a
  :class:`ShardHandle` proxy.  Workers are pinned round-robin over the
  parent's CPU affinity mask.
* **Batched ops** — :meth:`ProcessShardExecutor.run_ops` sends every
  request of a fan-out before collecting any reply, so one training step
  costs one round-trip per shard.  NumPy payloads travel through per-worker
  request/response arenas (:class:`~repro.runtime.shm.ShmArena`); only small
  control tuples cross the pipe.
* **Sealed generations** — each worker keeps its unit's table and optimizer
  state in a writable shared-memory generation (the backend's
  ``shared_buffers()``).  ``seal`` rotates generations: the worker copies
  the bytes into a fresh writable generation, adopts it, and hands the old
  segment to the parent, which maps it read-only under a refcounted
  :class:`~repro.runtime.shm.SealedGeneration` and grafts the views into an
  otherwise-pickled clone of the unit.  That clone is a bit-exact frozen
  shard for :class:`~repro.store.snapshot.StoreSnapshot`, with zero copies
  on the reader side.  Backends without shared buffers fall back to
  pickling the whole unit at seal time — slower, still bit-exact.
* **Lifecycle** — workers are daemonic; ``close()`` asks them to shut down,
  escalates to terminate/kill, then unlinks every segment the executor
  still owns.  A worker that dies mid-request surfaces as
  :class:`~repro.errors.ShardWorkerCrashed` instead of a hang.

Unlink discipline (see :mod:`repro.runtime.shm`): workers never unlink;
the parent unlinks every segment exactly once.
"""

from __future__ import annotations

import io
import multiprocessing as mp
import os
import pickle
import time
import weakref
from typing import Any, Sequence

import numpy as np

from repro.errors import ShardWorkerCrashed
from repro.runtime import shm as shm_lib
from repro.runtime.executor import ShardExecutor, ShardTask

_OK, _ERR = "ok", "err"

#: Ops after which the worker re-checks that its unit's live arrays still sit
#: inside the writable generation (``load_state_dict`` re-points tables).
_MUTATING_OPS = frozenset(
    {"apply_gradients", "apply_unique", "apply_sketched_gradients", "rebalance", "load_state_dict"}
)


# --------------------------------------------------------------------------- #
# Stripped pickling: carry a unit minus its shared arrays
# --------------------------------------------------------------------------- #
class _StrippingPickler(pickle.Pickler):
    """Pickles a unit but replaces its shared arrays with layout keys."""

    def __init__(self, file: io.BytesIO, buffer_ids: dict[int, str]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._buffer_ids = buffer_ids

    def persistent_id(self, obj: Any) -> str | None:
        return self._buffer_ids.get(id(obj))


class _GraftingUnpickler(pickle.Unpickler):
    """Rebuilds a stripped unit, grafting sealed views in place of arrays."""

    def __init__(self, file: io.BytesIO, views: dict[str, np.ndarray]):
        super().__init__(file)
        self._views = views

    def persistent_load(self, pid: str) -> np.ndarray:
        return self._views[pid]


def _dump_stripped(value: Any, buffer_ids: dict[int, str]) -> bytes:
    out = io.BytesIO()
    _StrippingPickler(out, buffer_ids).dump(value)
    return out.getvalue()


def _load_grafted(data: bytes, views: dict[str, np.ndarray]) -> Any:
    return _GraftingUnpickler(io.BytesIO(data), views).load()


def _unlink_segment(name: str) -> None:
    """Attach-and-unlink a segment by name (parent-side cleanup)."""
    try:
        segment = shm_lib.attach_segment(name)
    except FileNotFoundError:
        return
    shm_lib.unlink_segment(segment)
    shm_lib.close_segment(segment)


# --------------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------------- #
class _UnitHost:
    """Worker-side wrapper around one adopted unit."""

    def __init__(self, unit: Any):
        self.unit = unit
        self.gen: shm_lib.Segment | None = None
        self.gen_layout: shm_lib.ArrayLayout | None = None
        self.gen_views: dict[str, np.ndarray] = {}

    # -- specialized by subclasses ------------------------------------- #
    def _buffers(self) -> dict[str, np.ndarray]:
        raise NotImplementedError  # pragma: no cover - abstract

    def _adopt(self, views: dict[str, np.ndarray]) -> None:
        raise NotImplementedError  # pragma: no cover - abstract

    def _seal_value(self) -> Any:
        raise NotImplementedError  # pragma: no cover - abstract

    def info(self) -> dict[str, Any]:
        raise NotImplementedError  # pragma: no cover - abstract

    # -- generation management ------------------------------------------ #
    def ensure_gen(self) -> tuple[str | None, str | None]:
        """(Re)build the writable generation when the unit's arrays moved.

        Returns ``(new_generation_name, retired_generation_name)`` — both
        ``None`` when the current generation still holds the live arrays.
        """
        buffers = self._buffers()
        if not buffers:
            return None, None
        if (
            self.gen is not None
            and set(buffers) == set(self.gen_views)
            and all(buffers[key] is self.gen_views[key] for key in buffers)
        ):
            return None, None
        layout, size = shm_lib.layout_for(buffers)
        segment = shm_lib.create_segment(size)
        shm_lib.write_arrays(segment.buf, layout, buffers)
        views = shm_lib.attach_arrays(segment.buf, layout, writable=True)
        self._adopt(views)
        retired = self._swap_gen(segment, layout, views)
        return segment.name, retired

    def _swap_gen(
        self,
        segment: shm_lib.Segment,
        layout: shm_lib.ArrayLayout,
        views: dict[str, np.ndarray],
    ) -> str | None:
        retired = None
        if self.gen is not None:
            retired = self.gen.name
            self.gen_views = {}
            shm_lib.close_segment(self.gen)
        self.gen, self.gen_layout, self.gen_views = segment, layout, views
        return retired

    def op_seal(self) -> tuple:
        """Seal the current generation; adopt a fresh writable copy.

        Returns either ``("pickle", bytes, synced_gen, synced_retired)`` for
        units without shared buffers, or ``("shm", sealed_name, layout,
        stripped_bytes, fresh_gen_name, synced_retired)``.
        """
        synced_name, synced_retired = self.ensure_gen()
        if self.gen is None:
            data = pickle.dumps(self._seal_value(), protocol=pickle.HIGHEST_PROTOCOL)
            return ("pickle", data, synced_name, synced_retired)
        buffer_ids = {id(array): key for key, array in self.gen_views.items()}
        stripped = _dump_stripped(self._seal_value(), buffer_ids)
        sealed_name, sealed_layout = self.gen.name, list(self.gen_layout or [])
        fresh = shm_lib.create_segment(self.gen.size)
        length = min(len(fresh.buf), len(self.gen.buf))
        fresh.buf[:length] = self.gen.buf[:length]
        views = shm_lib.attach_arrays(fresh.buf, sealed_layout, writable=True)
        self._adopt(views)
        self._swap_gen(fresh, sealed_layout, views)
        return ("shm", sealed_name, sealed_layout, stripped, fresh.name, synced_retired)

    def export(self) -> tuple[Any, str | None]:
        """Detach from shared memory and return the unit with private arrays."""
        retired = None
        if self.gen is not None:
            private = {key: np.array(view, copy=True) for key, view in self.gen_views.items()}
            self._adopt(private)
            retired = self.gen.name
            self.gen_views = {}
            shm_lib.close_segment(self.gen)
            self.gen = self.gen_layout = None
        return self.unit, retired

    def close(self) -> None:
        if self.gen is not None:
            self.gen_views = {}
            shm_lib.close_segment(self.gen)
            self.gen = None


def _instance_caps(backend: Any) -> dict[str, bool]:
    from repro.api import registry as capability_registry

    return capability_registry.instance_capabilities(backend)


class _ShardHost(_UnitHost):
    """Hosts one shard backend (any ``CompressedEmbedding``)."""

    def _buffers(self) -> dict[str, np.ndarray]:
        return self.unit.shared_buffers()

    def _adopt(self, views: dict[str, np.ndarray]) -> None:
        self.unit.adopt_shared_buffers(views)

    def _seal_value(self) -> Any:
        return self.unit

    def info(self) -> dict[str, Any]:
        unit = self.unit
        return {
            "kind": "shard",
            "class": type(unit).__name__,
            "num_features": int(unit.num_features),
            "dim": int(unit.dim),
            "dtype": str(unit.dtype),
            "caps": _instance_caps(unit),
        }

    def op_lookup(self, ids: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self.unit.lookup(ids))

    def op_apply_gradients(self, ids: np.ndarray, grads: np.ndarray) -> None:
        self.unit.apply_gradients(ids, grads)

    def op_lookup_unique(self, uids: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self.unit.lookup_unique(uids))

    def op_apply_unique(self, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray) -> None:
        self.unit.apply_unique(uids, grad_sums, scores)

    def op_apply_sketched_gradients(self, *payload) -> None:
        """Sketched gradient exchange: recover worker-side, then apply (the
        same ``apply_sketched_payload`` the in-process executors run)."""
        from repro.store.grad_exchange import apply_sketched_payload

        apply_sketched_payload(self.unit, *payload)

    def op_rebalance(self) -> bool:
        return bool(self.unit.rebalance())

    def op_sketch(self) -> Any:
        from repro.api import registry as capability_registry

        return capability_registry.sketch_of(self.unit)

    def op_state_dict(self) -> dict:
        return self.unit.state_dict()

    def op_load_state_dict(self, state: dict) -> None:
        self.unit.load_state_dict(state)

    def op_memory_floats(self) -> int:
        return int(self.unit.memory_floats())

    def op_describe(self) -> dict:
        info = dict(self.unit.describe())
        info["plan_reuse_rate"] = round(self.unit.plan_stats.reuse_rate, 3)
        return info

    def op_step(self) -> int:
        return int(self.unit.step())


class _GroupHost(_UnitHost):
    """Hosts one :class:`~repro.store.table_group.TableGroup` (backend +
    projection), so the fused lookup/scatter math runs worker-side."""

    def _buffers(self) -> dict[str, np.ndarray]:
        return self.unit.backend.shared_buffers()

    def _adopt(self, views: dict[str, np.ndarray]) -> None:
        self.unit.backend.adopt_shared_buffers(views)

    def _seal_value(self) -> Any:
        projection = self.unit.projection
        return (self.unit.backend, None if projection is None else projection.copy())

    def info(self) -> dict[str, Any]:
        backend = self.unit.backend
        return {
            "kind": "group",
            "class": type(backend).__name__,
            "name": self.unit.name,
            "num_features": int(backend.num_features),
            "dim": int(backend.dim),
            "dtype": str(backend.dtype),
            "caps": _instance_caps(backend),
        }

    def op_lookup(self, local: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self.unit.lookup_fused(local))

    def op_apply_gradients(self, local: np.ndarray, grad_slice: np.ndarray) -> None:
        self.unit.apply_fused(local, grad_slice)

    def op_rebalance(self) -> bool:
        return bool(self.unit.backend.rebalance())

    def op_sketch(self) -> Any:
        from repro.api import registry as capability_registry

        return capability_registry.sketch_of(self.unit.backend)

    def op_state_dict(self) -> dict:
        projection = self.unit.projection
        return {
            "backend": self.unit.backend.state_dict(),
            "projection": None if projection is None else projection.copy(),
        }

    def op_load_state_dict(self, payload: dict) -> None:
        if payload.get("projection") is not None:
            self.unit.projection = np.asarray(
                payload["projection"], dtype=self.unit.backend.dtype
            ).copy()
        self.unit.backend.load_state_dict(payload["backend"])

    def op_memory_floats(self) -> int:
        return int(self.unit.memory_floats())

    def op_describe(self) -> dict:
        return dict(self.unit.describe())

    def op_step(self) -> int:
        return int(self.unit.backend.step())


def _safe_send(conn, payload: tuple) -> None:
    """Send a reply, degrading unpicklable exceptions to a RuntimeError."""
    try:
        conn.send(payload)
    except Exception:  # pragma: no cover - exotic unpicklable exception
        if payload and payload[0] == _ERR:
            exc = payload[1]
            try:
                conn.send((_ERR, RuntimeError(f"{type(exc).__name__}: {exc}")))
            except Exception:
                pass


def _worker_main(conn, worker_index: int, cpu_id: int | None, req_name: str, resp_name: str):
    """Entry point of one shard worker process."""
    if cpu_id is not None:
        try:
            os.sched_setaffinity(0, {cpu_id})
        except (AttributeError, OSError):  # pragma: no cover - non-Linux
            pass
    req = shm_lib.ShmArena(name=req_name, create=False, unlink_retired=False)
    resp = shm_lib.ShmArena(name=resp_name, create=False, unlink_retired=False)
    hosts: dict[int, _UnitHost] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg[0]
            if op == "shutdown":
                names = [h.gen.name for h in hosts.values() if h.gen is not None]
                _safe_send(conn, ("bye", names))
                break
            try:
                if op == "ping":
                    conn.send((_OK, ("raw", "pong"), 0.0, None, None, None))
                elif op == "adopt":
                    _, unit_index, unit_kind, unit = msg
                    host = _GroupHost(unit) if unit_kind == "group" else _ShardHost(unit)
                    gen_name, _ = host.ensure_gen()
                    hosts[unit_index] = host
                    conn.send((_OK, ("raw", host.info()), 0.0, None, gen_name, None))
                elif op == "export":
                    _, unit_index = msg
                    host = hosts.pop(unit_index)
                    unit, retired = host.export()
                    conn.send((_OK, ("raw", unit), 0.0, None, None, retired))
                elif op == "call":
                    _, unit_index, method, args, reset, new_req = msg
                    if new_req is not None:
                        req.attach(new_req)
                    if reset:
                        resp.reclaim()
                        resp.reset()
                    host = hosts[unit_index]
                    decoded = [
                        req.get_array(spec) if tag == "nd" else spec for tag, spec in args
                    ]
                    started = time.perf_counter()
                    value = getattr(host, "op_" + method)(*decoded)
                    compute_s = time.perf_counter() - started
                    gen_name = retired = None
                    if method in _MUTATING_OPS:
                        gen_name, retired = host.ensure_gen()
                    grown = None
                    if isinstance(value, np.ndarray):
                        spec, grew = resp.put_array(value)
                        if grew:
                            grown = resp.name
                        encoded = ("nd", spec)
                    else:
                        encoded = ("raw", value)
                    conn.send((_OK, encoded, compute_s, grown, gen_name, retired))
                else:
                    raise ValueError(f"unknown worker op {op!r}")
            except Exception as exc:  # deliberately broad: forwarded to the parent
                _safe_send(conn, (_ERR, exc))
    finally:
        for host in hosts.values():
            host.close()
        req.close(unlink=False)
        resp.close(unlink=False)
        conn.close()


# --------------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------------- #
class ShardHandle:
    """Parent-side proxy for a unit living in a worker process.

    Quacks like the shard it replaced (``lookup``, ``apply_gradients``,
    ``state_dict``, …) so unconverted store code keeps working; each method
    is one batched op round-trip.  The hot store paths bypass the handle and
    batch ops for all shards through
    :meth:`ProcessShardExecutor.run_ops` directly.
    """

    def __init__(self, executor: "ProcessShardExecutor", unit_index: int, info: dict):
        self._executor = executor
        self.unit_index = int(unit_index)
        self.info = dict(info)
        self.backend_class = info["class"]
        self.num_features = int(info["num_features"])
        self.dim = int(info["dim"])
        self.dtype = np.dtype(info["dtype"])
        #: Capabilities of the real backend, probed in the worker at adopt
        #: time (a structural probe on the proxy would always say yes).
        self.caps = dict(info["caps"])

    def _call(self, method: str, *args: Any) -> Any:
        return self._executor.call(self.unit_index, method, *args)

    def lookup(self, ids: np.ndarray) -> np.ndarray:
        # The op result is a view into the response arena, only valid until
        # the next fan-out — hand the caller a private copy.
        return np.array(self._call("lookup", np.asarray(ids)), copy=True)

    def apply_gradients(self, ids: np.ndarray, grads: np.ndarray) -> None:
        self._call("apply_gradients", np.asarray(ids), np.asarray(grads))

    def lookup_unique(self, uids: np.ndarray) -> np.ndarray:
        return np.array(self._call("lookup_unique", uids), copy=True)

    def apply_unique(self, uids: np.ndarray, grad_sums: np.ndarray, scores: np.ndarray) -> None:
        self._call("apply_unique", uids, grad_sums, scores)

    def rebalance(self) -> bool:
        return bool(self._call("rebalance"))

    def state_dict(self) -> dict:
        return self._call("state_dict")

    def load_state_dict(self, state: dict) -> None:
        self._call("load_state_dict", dict(state))

    def memory_floats(self) -> int:
        return int(self._call("memory_floats"))

    def describe(self) -> dict:
        return self._call("describe")

    def step(self) -> int:
        return int(self._call("step"))

    @property
    def sketch(self) -> Any:
        return self._call("sketch")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardHandle(unit={self.unit_index}, backend={self.backend_class}, "
            f"executor={self._executor!r})"
        )


class _WorkerLink:
    """Parent-side channel to one worker: process, pipe, and both arenas."""

    __slots__ = ("index", "proc", "conn", "req", "resp", "cpu_id")

    def __init__(self, index, proc, conn, req, resp, cpu_id):
        self.index = index
        self.proc = proc
        self.conn = conn
        self.req = req
        self.resp = resp
        self.cpu_id = cpu_id


class ProcessShardExecutor(ShardExecutor):
    """Fan shard work out to pinned worker processes over shared memory.

    Unlike the in-process executors this one *owns* the shard state: a store
    hands its shards over via :meth:`adopt_units` (getting
    :class:`ShardHandle` proxies back) and reclaims them with
    :meth:`release_units`.  Hot paths batch one op per shard through
    :meth:`run_ops`; the generic thunk interface :meth:`run` still works by
    running thunks serially over the proxies (each proxy call is its own
    round-trip — converted callers should prefer ``run_ops``).

    ``start_method`` defaults to ``fork`` where available (no re-import cost,
    instant adoption of warm pages); ``spawn`` is selectable for
    fork-hostile embedders.  ``max_workers`` caps the worker count; units
    are assigned round-robin when there are more units than workers.
    """

    is_process_executor = True
    #: Until ``__init__`` finishes there is nothing to close (the finalizer
    #: also runs on an instance whose arguments were refused).
    _closed = True

    def __init__(
        self,
        max_workers: int | None = None,
        start_method: str | None = None,
        pin_cpus: bool = True,
        reply_timeout_s: float = 120.0,
        arena_bytes: int = 1 << 20,
    ):
        super().__init__()
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        methods = mp.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else methods[0]
        elif start_method not in methods:
            raise ValueError(
                f"start method '{start_method}' not available; choose from {methods}"
            )
        self.max_workers = max_workers
        self.start_method = start_method
        self.pin_cpus = bool(pin_cpus)
        self.reply_timeout_s = float(reply_timeout_s)
        self.arena_bytes = int(arena_bytes)
        self._ctx = mp.get_context(start_method)
        self._links: list[_WorkerLink] = []
        self._unit_links: list[_WorkerLink] = []
        self._handles: list[ShardHandle] = []
        self._gen_names: dict[int, str] = {}
        self._generations: "weakref.WeakSet[shm_lib.SealedGeneration]" = weakref.WeakSet()
        self._closed = False
        self._broken: str | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def num_units(self) -> int:
        return len(self._unit_links)

    def worker_pids(self) -> list[int]:
        return [link.proc.pid for link in self._links]

    def _cpu_assignment(self, count: int) -> list[int | None]:
        if not self.pin_cpus:
            return [None] * count
        try:
            cpus = sorted(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            cpus = list(range(os.cpu_count() or 1))
        if not cpus:  # pragma: no cover - defensive
            return [None] * count
        return [cpus[i % len(cpus)] for i in range(count)]

    def _spawn_link(self, index: int, cpu_id: int | None) -> _WorkerLink:
        parent_conn, child_conn = self._ctx.Pipe()
        req = shm_lib.ShmArena(size=self.arena_bytes)
        resp = shm_lib.ShmArena(size=self.arena_bytes)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, index, cpu_id, req.name, resp.name),
            daemon=True,
            name=f"repro-shard-worker-{index}",
        )
        proc.start()
        child_conn.close()
        return _WorkerLink(index, proc, parent_conn, req, resp, cpu_id)

    def adopt_units(self, units: Sequence[Any], kind: str = "shard") -> list[ShardHandle]:
        """Ship ``units`` to workers; returns one proxy handle per unit."""
        if self._handles:
            raise RuntimeError("adopt_units may only be called once per executor")
        units = list(units)
        if not units:
            raise ValueError("adopt_units requires at least one unit")
        worker_count = min(len(units), self.max_workers or len(units))
        cpu_ids = self._cpu_assignment(worker_count)
        self._links = [self._spawn_link(i, cpu_ids[i]) for i in range(worker_count)]
        # Warm-up: a ping per worker proves the interpreter is up (and, under
        # "spawn", that the module re-imported) before large units ship.
        for link in self._links:
            link.conn.send(("ping",))
        for link in self._links:
            self._consume(link, "ping")
        self._unit_links = [self._links[i % worker_count] for i in range(len(units))]
        for index, unit in enumerate(units):
            self._unit_links[index].conn.send(("adopt", index, kind, unit))
        handles = []
        for index in range(len(units)):
            encoded, _ = self._consume(self._unit_links[index], "adopt", index)
            handles.append(ShardHandle(self, index, encoded[1]))
        self._handles = handles
        return list(handles)

    def release_units(self) -> list[Any]:
        """Fetch every unit back (private arrays, bit-exact state)."""
        self._check_usable()
        units = []
        for index in range(self.num_units):
            link = self._unit_links[index]
            link.conn.send(("export", index))
            encoded, _ = self._consume(link, "export", index)
            self._gen_names.pop(index, None)
            units.append(self._decode(link, encoded))
        self._unit_links = []
        self._handles = []
        return units

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for link in self._links:
            try:
                link.conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        for link in self._links:
            try:
                if link.conn.poll(1.0):
                    link.conn.recv()  # ("bye", gen names) — tracked already
            except (EOFError, OSError):
                pass
            link.proc.join(timeout=2.0)
            if link.proc.is_alive():
                link.proc.terminate()
                link.proc.join(timeout=1.0)
            if link.proc.is_alive():  # pragma: no cover - stuck in kernel
                link.proc.kill()
                link.proc.join(timeout=1.0)
            try:
                link.conn.close()
            except OSError:  # pragma: no cover
                pass
        for name in self._gen_names.values():
            _unlink_segment(name)
        self._gen_names.clear()
        # Sealed generations unlink on last snapshot release; any still alive
        # at executor teardown are reaped here (their read-only mappings stay
        # valid for in-process readers until those drop their views).
        for generation in list(self._generations):
            generation.force_release()
        for link in self._links:
            link.req.close(unlink=True)
            link.resp.close(unlink=True)
        self._links = []
        self._unit_links = []
        self._handles = []

    def __del__(self):  # pragma: no cover - finalizer timing is interpreter-dependent
        self.close()

    def __deepcopy__(self, memo) -> "ProcessShardExecutor":
        # Never copy live workers; a copied store gets a fresh, un-adopted
        # runtime.
        return ProcessShardExecutor(
            max_workers=self.max_workers,
            start_method=self.start_method,
            pin_cpus=self.pin_cpus,
            reply_timeout_s=self.reply_timeout_s,
            arena_bytes=self.arena_bytes,
        )

    def __getstate__(self) -> dict[str, Any]:
        return {
            "max_workers": self.max_workers,
            "start_method": self.start_method,
            "pin_cpus": self.pin_cpus,
            "reply_timeout_s": self.reply_timeout_s,
            "arena_bytes": self.arena_bytes,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(**state)

    # ------------------------------------------------------------------ #
    # Op plumbing
    # ------------------------------------------------------------------ #
    def _check_usable(self) -> None:
        if self._broken:
            raise ShardWorkerCrashed(self._broken)
        if self._closed:
            raise RuntimeError("ProcessShardExecutor is closed")

    def _mark_broken(self, message: str) -> str:
        self._broken = message
        return message

    def _consume(
        self, link: _WorkerLink, label: str, unit_index: int | None = None
    ) -> tuple[tuple, float]:
        """Receive one reply from ``link``, with crash/timeout detection."""
        deadline = time.perf_counter() + self.reply_timeout_s
        while not link.conn.poll(0.05):
            if not link.proc.is_alive():
                raise ShardWorkerCrashed(
                    self._mark_broken(
                        f"shard worker {link.index} (pid {link.proc.pid}) exited with "
                        f"code {link.proc.exitcode} while the store was waiting on "
                        f"'{label}'; the process runtime is no longer usable — "
                        "rebuild the store or switch it to a fresh executor"
                    )
                )
            if time.perf_counter() > deadline:
                raise ShardWorkerCrashed(
                    self._mark_broken(
                        f"timed out after {self.reply_timeout_s:.0f}s waiting for shard "
                        f"worker {link.index} (pid {link.proc.pid}) to answer '{label}'"
                    )
                )
        try:
            reply = link.conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerCrashed(
                self._mark_broken(
                    f"shard worker {link.index} (pid {link.proc.pid}) closed its pipe "
                    f"mid-reply to '{label}'"
                )
            ) from exc
        if reply[0] == _ERR:
            raise reply[1]
        _, encoded, compute_s, grown_resp, gen_name, gen_retired = reply
        if grown_resp:
            link.resp.attach(grown_resp)
        if gen_retired:
            _unlink_segment(gen_retired)
        if gen_name is not None and unit_index is not None:
            self._gen_names[unit_index] = gen_name
        return encoded, compute_s

    def _decode(self, link: _WorkerLink, encoded: tuple) -> Any:
        tag, value = encoded
        if tag == "nd":
            return link.resp.get_array(value)
        return value

    def _encode_args(self, link: _WorkerLink, args: Sequence[Any]) -> tuple[list, str | None]:
        arrays = [
            np.ascontiguousarray(arg) if isinstance(arg, np.ndarray) else None
            for arg in args
        ]
        needed = sum(array.nbytes + 64 for array in arrays if array is not None)
        grown = None
        for _attempt in range(8):
            encoded: list = []
            restart = False
            for arg, array in zip(args, arrays):
                if array is None:
                    encoded.append(("raw", arg))
                    continue
                slot = link.req.reserve(array.nbytes)
                if slot is None:
                    grown = link.req.grow(needed)
                    restart = True
                    break
                offset, _ = slot
                view = np.ndarray(
                    array.shape, dtype=array.dtype, buffer=link.req.segment.buf, offset=offset
                )
                np.copyto(view, array, casting="no")
                encoded.append(("nd", (str(array.dtype), tuple(array.shape), offset)))
            if not restart:
                return encoded, grown
        raise RuntimeError("request arena failed to grow")  # pragma: no cover

    def run_ops(self, requests: Sequence[tuple[int, str, tuple]]) -> list[Any]:
        """Batched fan-out: send every ``(unit, method, args)`` request, then
        collect replies in request order.

        Array results are views into the response arenas — valid until the
        next executor call; copy anything that must outlive the batch.
        """
        self._check_usable()
        fanout_start = time.perf_counter()
        touched: set[int] = set()
        sends = []
        for unit_index, method, args in requests:
            link = self._unit_links[unit_index]
            first = link.index not in touched
            if first:
                touched.add(link.index)
                link.req.reclaim()
                link.req.reset()
                link.resp.reclaim()
            encoded_args, grown_req = self._encode_args(link, args)
            try:
                link.conn.send(("call", unit_index, method, encoded_args, first, grown_req))
            except (BrokenPipeError, OSError) as exc:
                raise ShardWorkerCrashed(
                    self._mark_broken(
                        f"shard worker {link.index} (pid {link.proc.pid}) is gone "
                        f"(exit code {link.proc.exitcode}); could not send '{method}' "
                        f"for shard {unit_index}"
                    )
                ) from exc
            sends.append((unit_index, method, link, time.perf_counter()))
        results: list[Any] = []
        first_error: Exception | None = None
        for unit_index, method, link, sent_at in sends:
            try:
                encoded, compute_s = self._consume(link, method, unit_index)
            except ShardWorkerCrashed:
                raise
            except Exception as exc:  # worker-raised; drain remaining replies
                if first_error is None:
                    first_error = exc
                results.append(None)
                continue
            wall = time.perf_counter() - sent_at
            with self._lock:
                self.stats.record_task(unit_index, wall, worker_s=compute_s)
            results.append(self._decode(link, encoded))
        with self._lock:
            self.stats.record_fanout(time.perf_counter() - fanout_start)
        if first_error is not None:
            raise first_error
        return results

    def call(self, unit_index: int, method: str, *args: Any) -> Any:
        """Single-op convenience over :meth:`run_ops`."""
        return self.run_ops([(unit_index, method, tuple(args))])[0]

    def run(self, tasks: Sequence[ShardTask]) -> list[Any]:
        """Generic thunk interface: runs thunks serially over the proxies.

        Exists for compatibility with unconverted fan-out call sites; each
        proxy method inside a thunk is its own round-trip, so hot paths use
        :meth:`run_ops` instead.
        """
        start = time.perf_counter()
        results = [self._timed(shard_index, thunk) for shard_index, thunk in tasks]
        with self._lock:
            self.stats.record_fanout(time.perf_counter() - start)
        return results

    # ------------------------------------------------------------------ #
    # Sealed snapshot generations
    # ------------------------------------------------------------------ #
    def seal_units(self) -> list[Any]:
        """Seal every unit's generation; returns frozen parent-side objects.

        Shard units come back as bit-exact backend clones whose arrays are
        read-only views over the sealed segment; group units come back as
        ``(backend, projection)`` tuples.  Each sealed object holds a
        :class:`~repro.runtime.shm.GenerationLease`, so the segment unlinks
        when the last snapshot referencing it is garbage collected.
        """
        payloads = self.run_ops([(i, "seal", ()) for i in range(self.num_units)])
        return [self._materialize(i, payload) for i, payload in enumerate(payloads)]

    def _note_gen(self, unit_index: int, gen_name: str | None, retired: str | None) -> None:
        if retired:
            _unlink_segment(retired)
        if gen_name:
            self._gen_names[unit_index] = gen_name

    def _materialize(self, unit_index: int, payload: tuple) -> Any:
        tag = payload[0]
        if tag == "pickle":
            _, data, synced_name, synced_retired = payload
            self._note_gen(unit_index, synced_name, synced_retired)
            return pickle.loads(data)
        _, sealed_name, layout, stripped, fresh_name, synced_retired = payload
        self._note_gen(unit_index, fresh_name, synced_retired)
        generation = shm_lib.SealedGeneration(sealed_name, layout)
        self._generations.add(generation)
        value = _load_grafted(stripped, generation.views())
        lease = shm_lib.GenerationLease(generation)
        owner = value[0] if isinstance(value, tuple) else value
        owner._sealed_lease = lease
        return value
