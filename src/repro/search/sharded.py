"""Keyspace-sharded search serving (the Elasticsearch shard layer).

:class:`ShardedSearchIndex` routes each document to one of N
:class:`~repro.search.index.SearchIndex` shards by the journal's
:class:`~repro.pipeline.sharding.ShardMap` and merges query results with a
stable order:

* ``search`` — per-shard hit lists are already sorted by doc id, so a
  k-way sorted merge yields exactly the global sorted order the unsharded
  index produces (a document lives in exactly one shard: no dedup pass).
  ``limit`` is *pushed down*: each shard returns at most ``limit`` hits
  (its smallest ids — a superset of any global prefix) and the merge stops
  after ``limit`` elements instead of materializing every hit;
* ``count`` — per-shard candidate counts sum; no hit list is built;
* ``aggregate`` — per-shard value counts sum, then re-sort by
  (-count, value) — the unsharded tie-break;
* ``doc_ids`` / ``items`` — global *put order* via an insertion-ordered
  routing dict, mirroring the unsharded index's dict semantics (re-putting
  a live doc keeps its slot only if the single index would; SearchIndex.put
  delete-then-inserts, moving the doc to the end, so the router does too).

Scatter on the caller's thread: the per-shard fan-out is a plain loop,
in shard order, on whichever thread asked.  The shards are in-process
Python objects, so the interpreter lock lets one shard task run at a
time; a pool would add a thread hand-off per shard and no overlap
(DESIGN §5d).  The per-shard locks, the router lock and the
generation snapshot below protect *callers'* threads — concurrent
readers and a ticking writer — not worker threads.

Queries compile once at the router (strings hit the process-wide plan
cache) and the *compiled plan* is what every shard executes — shards
never re-parse query text.  Repeated interactive queries are served from
a bounded :class:`~repro.pipeline.cache.VersionedLRU` keyed on
``(op, canonical plan key, limit)`` — so semantically equal spellings
share entries — and validated against the tuple of per-shard
*generations* — ``put``/``delete`` bump only the owning shard's counter,
so a write to one shard invalidates exactly the cached results that could
see it, lazily, with no invalidation hooks.  Under concurrency the
generation tuple is snapshotted *before* the scatter and re-checked after:
a result that raced a write is returned to its caller (it observed some
interleaving a serial execution could also produce) but never cached, so
the cache only ever stores values computed from one consistent generation
tuple.  ``query_cache_entries=0`` disables the cache (the bit-identical
reference configuration).

With ``shards=1`` every operation delegates straight to the one
underlying index, making results and iteration order bit-identical to
the unsharded seed behaviour — the property the shard-invariance suite
pins.
"""

from __future__ import annotations

import heapq
import threading
from itertools import islice
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.pipeline.cache import MISS, VersionedLRU
from repro.pipeline.sharding import ShardMap
from repro.search.index import SearchIndex
from repro.search.plan import QueryPlan, compile_query

__all__ = ["ShardedSearchIndex"]


class ShardedSearchIndex:
    """N search-index shards behind the single-index interface."""

    def __init__(
        self,
        shard_map: Optional[ShardMap] = None,
        accelerated: bool = True,
        query_cache_entries: int = 256,
    ) -> None:
        self.shard_map = shard_map or ShardMap(1)
        self.indexes = [SearchIndex(accelerated=accelerated) for _ in range(self.shard_map.shards)]
        #: doc id -> shard, maintained in unsharded-equivalent put order.
        self._doc_shard: Dict[str, int] = {}
        self.queries_run = 0
        self.aggregates_run = 0
        self._query_cache = VersionedLRU(query_cache_entries)
        #: Guards the routing dict, the query counter, and generation
        #: snapshots so ``generations()`` is atomic w.r.t. writes.
        self._lock = threading.Lock()

    @property
    def shards(self) -> int:
        return self.shard_map.shards

    # -- document management ----------------------------------------------

    def put(self, doc_id: str, doc: Dict[str, List[Any]]) -> None:
        shard = self.shard_map.shard_of(doc_id)
        with self._lock:
            self.indexes[shard].put(doc_id, doc)
            # Replacement moves the doc to the end of iteration order,
            # exactly like the single index's delete-then-insert.
            self._doc_shard.pop(doc_id, None)
            self._doc_shard[doc_id] = shard

    def put_many(self, updates: Iterable[Tuple[str, Dict[str, List[Any]]]]) -> int:
        """Batch put: shard-grouped ``SearchIndex.put_many`` calls.

        One router-lock pass and one generation bump per *touched* shard,
        however many documents land there.  Routing-dict order matches
        sequential :meth:`put` calls: last write wins and a re-put doc
        moves to the end.  Returns the number of distinct docs applied.
        """
        updates = list(updates)
        if not updates:
            return 0
        per_shard: Dict[int, List[Tuple[str, Dict[str, List[Any]]]]] = {}
        order: Dict[str, int] = {}
        for doc_id, doc in updates:
            shard = self.shard_map.shard_of(doc_id)
            per_shard.setdefault(shard, []).append((doc_id, doc))
            # pop-then-set so a doc re-put later in the batch ends up at
            # the end of iteration order, as sequential puts would place it.
            order.pop(doc_id, None)
            order[doc_id] = shard
        with self._lock:
            for shard, batch in per_shard.items():
                self.indexes[shard].put_many(batch)
            for doc_id, shard in order.items():
                self._doc_shard.pop(doc_id, None)
                self._doc_shard[doc_id] = shard
        return len(order)

    def delete(self, doc_id: str) -> bool:
        with self._lock:
            shard = self._doc_shard.pop(doc_id, None)
            if shard is None:
                return False
            return self.indexes[shard].delete(doc_id)

    def get(self, doc_id: str) -> Optional[Dict[str, List[Any]]]:
        shard = self._doc_shard.get(doc_id)
        if shard is None:
            return None
        return self.indexes[shard].get(doc_id)

    def doc_ids(self) -> Iterable[str]:
        return self._doc_shard.keys()

    def items(self) -> Iterator[Tuple[str, Dict[str, List[Any]]]]:
        """(doc_id, doc) pairs in global put order, one dict hop per doc.

        The bulk-export path: ``export_snapshot`` and ``snapshot_now``
        stream this instead of calling ``get`` (router + shard lookup)
        per id.
        """
        if len(self.indexes) == 1:
            yield from self.indexes[0].items()
            return
        indexes = self.indexes
        for doc_id, shard in self._doc_shard.items():
            yield doc_id, indexes[shard].get(doc_id)

    def __len__(self) -> int:
        return len(self._doc_shard)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._doc_shard

    def docs_per_shard(self) -> List[int]:
        return [len(index) for index in self.indexes]

    def generations(self) -> Tuple[int, ...]:
        """Per-shard mutation counters — the query-cache validity key.

        Taken under the router lock, so the tuple is an atomic snapshot:
        it can never interleave with a ``put``/``delete`` and mix a shard's
        pre-write counter with another's post-write one.
        """
        with self._lock:
            return tuple(index.generation for index in self.indexes)

    # -- the scatter ---------------------------------------------------------

    def _scatter(self, fn: Any, *args: Any) -> List[Any]:
        """``fn(index, *args)`` on every shard, in shard order."""
        return [fn(index, *args) for index in self.indexes]

    def _bump_queries(self) -> None:
        with self._lock:
            self.queries_run += 1

    # -- querying ----------------------------------------------------------

    def search(self, query: Union[str, QueryPlan], limit: Optional[int] = None) -> List[str]:
        """Scatter-gather with limit pushdown and a k-way sorted merge.

        The query compiles once here (memoized for strings); shards get
        the compiled plan, and the result cache keys on the *canonical*
        plan key — ``a and b`` and ``b and a`` share one entry.
        """
        plan = compile_query(query)
        self._bump_queries()
        gens = self.generations()
        cached = self._cache_get(("search", plan.key, limit), gens)
        if cached is not MISS:
            return list(cached)
        if len(self.indexes) == 1:
            hits = self.indexes[0].search(plan, limit=limit)
        else:
            # Each shard's list is sorted ascending, so its first `limit`
            # ids form a superset of that shard's contribution to the
            # global first `limit`; the merge stops at `limit` elements.
            per_shard = self._scatter(SearchIndex.search, plan, limit)
            merged = heapq.merge(*per_shard)
            hits = list(islice(merged, limit) if limit is not None else merged)
        self._cache_put_checked(("search", plan.key, limit), gens, hits)
        return list(hits)

    def count(self, query: Union[str, QueryPlan]) -> int:
        """Matching-document count: per-shard counts sum, no hit lists."""
        plan = compile_query(query)
        self._bump_queries()
        gens = self.generations()
        cached = self._cache_get(("count", plan.key, None), gens)
        if cached is not MISS:
            return cached
        if len(self.indexes) == 1:
            total = self.indexes[0].count(plan)
        else:
            total = sum(self._scatter(SearchIndex.count, plan))
        self._cache_put_checked(("count", plan.key, None), gens, total)
        return total

    def aggregate(self, query: Union[str, QueryPlan], field: str) -> Dict[Any, int]:
        """Merged value counts with the unsharded (-count, value) order."""
        plan = compile_query(query)
        with self._lock:
            self.aggregates_run += 1
        gens = self.generations()
        cached = self._cache_get(("aggregate", plan.key, field), gens)
        if cached is not MISS:
            return dict(cached)
        if len(self.indexes) == 1:
            counts = self.indexes[0].aggregate(plan, field)
        else:
            per_shard = self._scatter(SearchIndex.aggregate, plan, field)
            counts: Dict[Any, int] = {}
            for shard_counts in per_shard:
                for value, count in shard_counts.items():
                    counts[value] = counts.get(value, 0) + count
            counts = dict(sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0]))))
        self._cache_put_checked(("aggregate", plan.key, field), gens, counts)
        return dict(counts)

    # -- the query-result cache --------------------------------------------

    def _cache_get(self, key: Tuple[Any, ...], gens: Tuple[int, ...]) -> Any:
        if not self._query_cache.enabled:
            return MISS
        return self._query_cache.get(key, gens)

    def _cache_put_checked(
        self, key: Tuple[Any, ...], gens: Tuple[int, ...], value: Any
    ) -> None:
        """Cache ``value`` only if no shard changed during the scatter.

        ``gens`` is the atomic snapshot taken before the scatter; if the
        current snapshot differs, a write raced the computation and the
        (possibly torn) result must not be stored.  A write landing *after*
        this check is harmless — the entry is correctly labeled with the
        generation tuple its value was computed from, and the newer
        generation invalidates it lazily on the next read.
        """
        if not self._query_cache.enabled:
            return
        if self.generations() != gens:
            return
        self._query_cache.put(key, gens, value)

    def cache_report(self) -> Dict[str, Any]:
        return self._query_cache.report()
