"""Persistent warm worker pools and the cross-process coordination cells.

PR 5's parallel layer created a ``ProcessPoolExecutor`` per call — every
``parallel_match`` paid process spawn, log pickling, and a full
per-worker :class:`~repro.core.scoring.ScoreModel` build before its
first expansion.  This module makes those one-time costs actually
one-time:

* :class:`WarmPool` owns a long-lived executor plus the two inherited
  coordination cells every run reuses — the :class:`SharedIncumbent`
  (cross-process best-score max cell) and the :class:`ChunkCursor`
  (the work-stealing queue: a fetch-and-increment claim counter over a
  deterministic chunk list).  Both are created *with* the pool so they
  reach workers by inheritance, the only channel ``multiprocessing``
  synchronization primitives support.
* The pool pickles each ``(log_1, log_2, patterns, bound)`` model
  description once into a :class:`ModelHandle` payload, cached per live
  log generation on the parent side, so repeated matches over the same
  logs reuse one payload (and its key, the workers' model-cache key).
* Workers keep a bounded LRU of materialized score models keyed by the
  handle's key: the second call on the same logs skips unpickling and
  the model build entirely — the per-process model build happens once
  per process lifetime, not once per call.
* A lazily created, explicitly closeable module-level pool
  (:func:`get_warm_pool` / :func:`close_warm_pool`) survives across
  ``match()`` calls and backs the service's
  :class:`~repro.service.workers.WorkerPool`.  It is fork-safe: a
  process that inherits the singleton by forking discards it on first
  use instead of sharing the parent's executor.

Runs that use the shared cells are serialized by :attr:`WarmPool.lock`
— the cells are per-run state, and ``parallel_match`` resets them under
that lock.  Plain :meth:`WarmPool.submit` calls (service jobs) don't
touch the cells and need no lock.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import signal
import threading
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.log.eventlog import EventLog
from repro.obs.logs import mark_worker_process


class SharedIncumbent:
    """A cross-process max-score cell with ``peek``/``offer`` semantics.

    Wraps a double ``multiprocessing.Value``.  ``peek`` is a plain read
    (workers poll it between expansions); ``offer`` takes the value's
    lock only to apply a compare-and-max.  Scores only ever increase
    within a run, so a stale ``peek`` merely delays pruning by one poll
    interval — it can never make pruning unsound.  :meth:`reset` rearms
    the cell between runs (parent side, pool idle).
    """

    def __init__(self, initial: float = float("-inf"), context=None):
        ctx = context if context is not None else multiprocessing
        self._value = ctx.Value("d", initial)

    def peek(self) -> float:
        return self._value.value

    def offer(self, score: float) -> float:
        with self._value.get_lock():
            if score > self._value.value:
                self._value.value = score
            return self._value.value

    def reset(self, value: float = float("-inf")) -> None:
        with self._value.get_lock():
            self._value.value = value


class ChunkCursor:
    """The work-stealing queue: a shared next-chunk claim counter.

    The chunk *list* is deterministic and shipped to every worker; only
    the claim order is dynamic.  Workers loop ``claim()`` until it runs
    past the chunk count — a fast worker simply claims (steals) chunks
    a static partition would have assigned elsewhere.  One atomic
    fetch-and-increment per chunk is the entire queue protocol: there is
    nothing to enqueue, rebalance, or shut down.
    """

    def __init__(self, context=None):
        ctx = context if context is not None else multiprocessing
        self._next = ctx.Value("q", 0)

    def claim(self) -> int:
        """Atomically claim and return the next chunk index."""
        with self._next.get_lock():
            index = self._next.value
            self._next.value = index + 1
            return index

    def reset(self) -> None:
        with self._next.get_lock():
            self._next.value = 0


class LruCache:
    """A size-capped mapping with FIFO-recency eviction and a counter."""

    def __init__(self, cap: int):
        if cap < 1:
            raise ValueError("cap must be positive")
        self.cap = cap
        self.evictions = 0
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key, value) -> list:
        """Insert and return the evicted values (possibly empty)."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        evicted = []
        while len(self._entries) > self.cap:
            _, old = self._entries.popitem(last=False)
            evicted.append(old)
            self.evictions += 1
        return evicted

    def pop(self, key):
        return self._entries.pop(key, None)

    def clear(self) -> list:
        values = list(self._entries.values())
        self._entries.clear()
        return values

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries


@dataclass(frozen=True)
class ModelHandle:
    """One score model for the workers: a cache key plus its payload.

    ``payload`` is ``pickle.dumps((log_1, log_2, patterns, bound))``,
    built once by :meth:`WarmPool.handle_for`; shipping it to a task
    costs a byte copy, and a worker unpickles it only when ``key``
    misses its model cache.  Keys are unique per parent process and
    never reused, so a key always names the same logs, patterns and
    bound.
    """

    key: str
    payload: bytes = field(repr=False)


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------

#: Installed once per worker process by the pool initializer: the
#: inherited coordination cells.
_WORKER_CELLS: dict = {}

#: Materialized score models, keyed by ``ModelHandle.key``.  Score
#: models are heavy (interned logs, postings, automata, f1 tables); a
#: small cap bounds warm-worker memory while still covering the
#: steady-state "same logs every call" case.
MODEL_CACHE_CAP = 4
_MODEL_CACHE = LruCache(MODEL_CACHE_CAP)


def _init_pool_worker(incumbent: SharedIncumbent, cursor: ChunkCursor) -> None:
    _WORKER_CELLS["incumbent"] = incumbent
    _WORKER_CELLS["cursor"] = cursor
    # Flag the process as a pool worker so chatty components (heartbeat
    # reporters) reroute through the structured logger instead of
    # shredding the parent's inherited stderr with raw interleaved lines.
    mark_worker_process()


def worker_cells() -> tuple[SharedIncumbent, ChunkCursor]:
    """The inherited (incumbent, cursor) pair — worker processes only."""
    return _WORKER_CELLS["incumbent"], _WORKER_CELLS["cursor"]


def materialize_model(handle: ModelHandle):
    """The worker-side score model for ``handle``: ``(model, cache_hit)``.

    On a cache miss the payload is unpickled and the model built once,
    then cached under the handle's key for every later call that names
    the same logs, patterns and bound; a hit never reads the payload.
    """
    model = _MODEL_CACHE.get(handle.key)
    if model is not None:
        return model, True
    # Local import: repro.core.scoring sits above this substrate module.
    from repro.core.scoring import ScoreModel

    log_1, log_2, patterns, bound = pickle.loads(handle.payload)
    model = ScoreModel(log_1, log_2, list(patterns), bound=bound)
    _MODEL_CACHE.put(handle.key, model)
    return model, False


def model_cache_stats() -> dict:
    """This process's model-cache occupancy/evictions (tests, debugging)."""
    return {"entries": len(_MODEL_CACHE), "evictions": _MODEL_CACHE.evictions}


# ----------------------------------------------------------------------
# Parent-process side
# ----------------------------------------------------------------------

#: Parent-side handle cache bound: payloads for this many distinct
#: ``(logs, generations, patterns, bound)`` entries stay built — as many
#: as a worker keeps materialized models.
HANDLE_CACHE_CAP = MODEL_CACHE_CAP

#: Process-wide handle key serial (``next`` on it is atomic).  Shared by
#: every pool in the process so no two handles ever get the same key:
#: workers forked from this process inherit its model cache, and a
#: per-pool serial could re-mint a key that cache already holds for
#: other logs.
_HANDLE_SERIAL = itertools.count(1)

#: Parent-side warm-start seed cache bound (one small entry per model
#: cache key: a score plus one complete mapping).
SEED_CACHE_CAP = 8


class WarmPool:
    """A persistent executor plus everything a parallel run inherits.

    Parameters
    ----------
    workers:
        Worker-process count (the executor's ``max_workers``).

    The pool is *warm*: once a worker process has built a score model
    for a given log pair it keeps it cached, so only the first call
    pays the build.  :attr:`spawned_runs`/:attr:`reused_runs` count how
    often :func:`get_warm_pool` had to (re)create a pool versus handing
    back a live one — the pool-reuse gauge the probes export.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        ctx = multiprocessing.get_context()
        self._ctx = ctx
        self.incumbent = SharedIncumbent(context=ctx)
        self.cursor = ChunkCursor(context=ctx)
        #: Serializes runs that use the shared cells (reset-then-run).
        self.lock = threading.Lock()
        self._handle_lock = threading.Lock()
        self._handles: LruCache = LruCache(HANDLE_CACHE_CAP)
        self._seed_lock = threading.Lock()
        self._seeds: LruCache = LruCache(SEED_CACHE_CAP)
        #: Times the executor was rebuilt after a worker death/runaway.
        self.respawns = 0
        self.executor = self._spawn_executor()
        self._closed = False

    def _spawn_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._ctx,
            initializer=_init_pool_worker,
            initargs=(self.incumbent, self.cursor),
        )

    # -- generic task fan-out -------------------------------------------
    def submit(self, fn, /, *args, **kwargs):
        """Submit a plain picklable task to the warm executor."""
        return self.executor.submit(fn, *args, **kwargs)

    # -- supervision -----------------------------------------------------
    def worker_pids(self) -> list[int]:
        """Live worker process ids (empty until the first submission —
        ``ProcessPoolExecutor`` spawns workers lazily)."""
        processes = getattr(self.executor, "_processes", None) or {}
        return [pid for pid, proc in processes.items() if proc.is_alive()]

    def respawn(self, kill_workers: bool = False) -> None:
        """Replace a broken executor with a fresh one, same shared cells.

        The incumbent and cursor are plain ``multiprocessing`` values;
        re-passing them as initargs re-inherits them into the new
        workers, so a respawned pool is a drop-in replacement — only the
        worker-side model caches are lost (they repopulate on first
        use).  ``kill_workers=True`` SIGKILLs the old workers first —
        the deadline-enforcement path, where a runaway job must be
        reclaimed, not waited on.
        """
        if self._closed:
            raise RuntimeError("cannot respawn a closed pool")
        old = self.executor
        if kill_workers:
            for pid in list((getattr(old, "_processes", None) or {})):
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        try:
            old.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - a broken pool may refuse politely
            pass
        self.executor = self._spawn_executor()
        self.respawns += 1

    # -- per-run coordination -------------------------------------------
    def begin_run(self, seed: float = float("-inf")) -> None:
        """Rearm the shared cells for one run (call under :attr:`lock`)."""
        self.incumbent.reset(seed)
        self.cursor.reset()

    def seed_for(self, key, build):
        """The cached parent-side warm-start seed for a model cache key.

        ``build`` runs at most once per key while the entry stays in the
        LRU — warm repeat calls skip both the parent's score-model build
        and the heuristic run that produce the seed.
        """
        with self._seed_lock:
            seed = self._seeds.get(key)
            if seed is not None:
                return seed
        seed = build()
        with self._seed_lock:
            cached = self._seeds.get(key)
            if cached is not None:  # lost a benign build race
                return cached
            self._seeds.put(key, seed)
        return seed

    # -- model handles ---------------------------------------------------
    def handle_for(
        self, log_1: EventLog, log_2: EventLog, patterns: tuple, bound
    ) -> ModelHandle:
        """The cached :class:`ModelHandle` for one model (pickled once).

        Keyed by both logs' ``(id, generation)`` plus ``patterns`` and
        ``bound``, so an append yields a new handle.  Each entry holds
        weak references to its logs and counts as a hit only while they
        still name the same live objects: a collected log's recycled
        ``id`` can never alias a stale payload.  Key minting and the
        cache insert share one critical section, so concurrent callers
        never mint the same key.
        """
        cache_key = (
            id(log_1), log_1.generation, id(log_2), log_2.generation,
            patterns, bound,
        )

        def cached():
            entry = self._handles.get(cache_key)
            if entry is not None:
                ref_1, ref_2, handle = entry
                if ref_1() is log_1 and ref_2() is log_2:
                    return handle
            return None

        with self._handle_lock:
            handle = cached()
        if handle is not None:
            return handle
        payload = pickle.dumps((log_1, log_2, patterns, bound))
        with self._handle_lock:
            handle = cached()
            if handle is None:  # else: lost a benign build race
                handle = ModelHandle(
                    f"model-{os.getpid()}-{next(_HANDLE_SERIAL)}", payload
                )
                self._handles.put(
                    cache_key, (weakref.ref(log_1), weakref.ref(log_2), handle)
                )
        return handle

    # -- lifecycle -------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut the executor down and drop the cached handles."""
        if self._closed:
            return
        self._closed = True
        self.executor.shutdown(wait=True, cancel_futures=True)
        with self._handle_lock:
            self._handles.clear()


# ----------------------------------------------------------------------
# The module-level warm pool
# ----------------------------------------------------------------------

_pool: WarmPool | None = None
_pool_pid: int | None = None
_pool_guard = threading.Lock()
_pool_stats = {"spawns": 0, "reuses": 0}


def get_warm_pool(workers: int) -> WarmPool:
    """The process-wide warm pool, created or grown to ``workers``.

    Lazily creates the pool on first use; later calls reuse it when it
    is live and large enough, and replace it (counting a fresh spawn)
    when it is closed, too small, or was inherited across a ``fork`` —
    an inherited executor's queues belong to the parent and must never
    be driven from the child.
    """
    global _pool, _pool_pid
    with _pool_guard:
        if _pool is not None and _pool_pid != os.getpid():
            # Forked child: drop the inherited reference without touching
            # the parent's executor.
            _pool = None
        if _pool is not None and not _pool.closed and _pool.workers >= workers:
            _pool_stats["reuses"] += 1
            return _pool
        stale = _pool
        _pool = None
        if stale is not None and not stale.closed:
            stale.close()
        pool = WarmPool(workers)
        _pool = pool
        _pool_pid = os.getpid()
        _pool_stats["spawns"] += 1
        return pool


def current_warm_pool() -> WarmPool | None:
    """The live module pool, or ``None`` (never creates one)."""
    with _pool_guard:
        if _pool is None or _pool.closed or _pool_pid != os.getpid():
            return None
        return _pool


def close_warm_pool() -> None:
    """Explicitly close the module pool (idempotent)."""
    global _pool
    with _pool_guard:
        pool = _pool
        _pool = None
    if pool is not None and _pool_pid == os.getpid():
        pool.close()


def warm_pool_stats() -> dict:
    """Spawn/reuse counters plus the live pool's shape, for probes/tests."""
    pool = current_warm_pool()
    return {
        "spawns": _pool_stats["spawns"],
        "reuses": _pool_stats["reuses"],
        "live": pool is not None,
        "workers": pool.workers if pool is not None else 0,
        "respawns": pool.respawns if pool is not None else 0,
    }
