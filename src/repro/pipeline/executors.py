"""Parallel shard execution backends (the tablet-server worker pool).

Production Censys fans every scatter-gather — search, aggregation,
recovery — across shard backends that live on *other machines*; the
gateway's cost per query is one RPC per shard plus a k-way merge, and the
shards compute concurrently.  Until now this reproduction's sharded
layers (:class:`~repro.search.sharded.ShardedSearchIndex`,
:class:`~repro.pipeline.sharding.ShardedJournal`) looped over shards
serially, so adding shards bought isolation but zero speedup.

This module is the execution tier between the routers and the shards:

* :class:`SerialExecutor` — the in-process reference backend.  Runs every
  shard task inline, in shard order; the default everywhere, bit-identical
  to the pre-executor code path.
* :class:`ThreadShardExecutor` — a persistent thread pool.  Shard tasks
  overlap in wall-clock time; per-shard state stays in-process (the shard
  objects carry their own locks), so it composes with the versioned
  read-path caches unchanged.

Both share one interface, ``map_shards(fn, args_list)``: apply
``fn(*args_list[i])`` per shard task, returning results in task order.

Nested fan-out (a batch request whose per-request work scatters again)
runs the inner scatter inline on the worker that owns the outer task —
one level of parallelism, no pool-starvation deadlocks.

Determinism contract: every backend returns results in task order, and
each task is a pure function of its arguments plus the shard state it was
given, so results are bit-identical to :class:`SerialExecutor` — the
property ``tests/test_parallel_shards.py`` pins for shards in {1, 2, 4}.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "ShardExecutor",
    "SerialExecutor",
    "ThreadShardExecutor",
    "make_executor",
]


#: Thread-local nesting depth: >0 means "already inside a shard task", so
#: inner scatters run inline instead of re-entering a (possibly full) pool.
_TASK_DEPTH = threading.local()


def _depth() -> int:
    return getattr(_TASK_DEPTH, "value", 0)


def _entered() -> None:
    _TASK_DEPTH.value = _depth() + 1


def _exited() -> None:
    _TASK_DEPTH.value = _depth() - 1


class ShardExecutor:
    """Base class and common bookkeeping; the base semantics are serial."""

    kind = "serial"

    def __init__(self) -> None:
        self._stats_lock = threading.Lock()
        self.stats: Dict[str, int] = {"batches": 0, "tasks": 0, "inline_fallbacks": 0}

    @property
    def inline(self) -> bool:
        """True when ``map_shards`` adds nothing over a plain loop."""
        return self.kind == "serial"

    def _count(self, tasks: int, fallback: bool = False) -> None:
        with self._stats_lock:
            self.stats["batches"] += 1
            self.stats["tasks"] += tasks
            if fallback:
                self.stats["inline_fallbacks"] += 1

    # -- the interface -----------------------------------------------------

    def map_shards(self, fn: Callable[..., Any], args_list: Sequence[tuple]) -> List[Any]:
        """``[fn(*args) for args in args_list]`` — serial, in task order."""
        self._count(len(args_list))
        return [fn(*args) for args in args_list]

    def report(self) -> Dict[str, Any]:
        with self._stats_lock:
            out = dict(self.stats)
        out.update(kind=self.kind, workers=self.workers)
        return out

    @property
    def workers(self) -> int:
        return 1

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(ShardExecutor):
    """The reference backend: every shard task inline, in shard order."""


class ThreadShardExecutor(ShardExecutor):
    """Persistent thread pool over in-process shard state.

    Shard objects guard their own internals (``SearchIndex`` holds an
    RLock, the versioned caches lock around get/put), so concurrent tasks
    against *different* shards overlap while same-shard tasks serialize —
    the actor-per-shard model.  Inside a task, nested ``map_shards`` calls
    run inline (see module docstring) so batch endpoints can scatter
    per-request without deadlocking the pool.
    """

    kind = "thread"

    def __init__(self, workers: int = 4) -> None:
        super().__init__()
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    @property
    def workers(self) -> int:
        return self._workers

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._workers, thread_name_prefix="shard-exec"
                )
            return self._pool

    def map_shards(self, fn: Callable[..., Any], args_list: Sequence[tuple]) -> List[Any]:
        if _depth() > 0 or len(args_list) <= 1:
            # Nested scatter (or nothing to overlap): run inline.
            self._count(len(args_list), fallback=_depth() > 0)
            return [fn(*args) for args in args_list]
        self._count(len(args_list))

        def task(args: tuple) -> Any:
            _entered()
            try:
                return fn(*args)
            finally:
                _exited()

        futures = [self._get_pool().submit(task, args) for args in args_list]
        return [f.result() for f in futures]

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


def make_executor(spec: Any = "serial", workers: Optional[int] = None) -> ShardExecutor:
    """Build an executor from a config value.

    ``spec`` may be an executor instance (returned as-is), ``None``/
    ``"serial"``, or ``"thread"``.  ``workers=None`` means the thread
    pool's default of 4; any other value is passed through and validated
    by the backend.
    """
    if isinstance(spec, ShardExecutor):
        return spec
    name = "serial" if spec is None else str(spec)
    if name == "serial":
        return SerialExecutor()
    if name == "thread":
        return ThreadShardExecutor(workers=4 if workers is None else workers)
    raise ValueError(f"unknown executor {spec!r} (serial | thread)")
