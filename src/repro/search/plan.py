"""Compiled query plans: the parse → plan → execute middle layer.

A :class:`QueryPlan` is the executable form of one canonical query AST.
It owns the two halves of query execution that used to be welded into
:class:`~repro.search.index.SearchIndex`:

* **candidate narrowing with exactness tracking** — :meth:`candidates`
  resolves the AST against one index's postings / numeric columns into a
  ``(candidate ids, exact)`` pair.  An *exact* set is precisely the
  matching documents, so the per-document verification pass is skipped;
  inexact sets (wildcards, un-accelerated comparisons) over-approximate
  and get verified.  Exactness must never be claimed for a superset — a
  complement (NOT) of an over-approximation would drop matches;
* **per-document verification** — :meth:`matches_doc` evaluates the plan
  against one flattened document, which is also the primitive the
  standing-query engine calls per event.

Plans are plain frozen dataclasses (no stored closures): a router hands
one compiled plan to every shard per scatter instead of a query string
each shard re-parses.  Equality and hashing follow
``key`` — the rendered canonical form — so ``a and b`` and ``b and a``
compile to *equal* plans and share result-cache entries.

``compile_query`` memoizes through a bounded :class:`PlanCache`: one
parse + canonicalize + plan per unique query string process-wide, however
many times the string is searched, counted, or aggregated.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.search.query import (
    Bool,
    Compare,
    Not,
    QueryNode,
    Range,
    Term,
    canonicalize,
    matches,
    parse_query,
    render_query,
)

__all__ = ["QueryPlan", "PlanCache", "compile_query", "compile_node", "default_plan_cache"]


@dataclass(frozen=True)
class QueryPlan:
    """One compiled, shippable query.

    ``key`` is the rendered canonical AST — the identity used for
    equality, hashing, and every result-cache key.  ``source`` keeps the
    first query text that compiled to this plan (diagnostics only; two
    different spellings of one canonical form are the same plan).
    """

    key: str
    node: QueryNode = field(compare=False)
    source: str = field(compare=False, default="")

    # -- verification -----------------------------------------------------

    def matches_doc(self, doc: Dict[str, List[Any]]) -> bool:
        """Evaluate the plan against one flattened document."""
        return matches(self.node, doc)

    # -- candidate narrowing ----------------------------------------------

    def candidates(self, index: Any) -> Tuple[Optional[Set[str]], bool]:
        """(candidate ids, exact) against one index's access primitives.

        ``None`` means "every document" (and is never exact).  The logic
        is the exactness calculus that previously lived inline in
        ``SearchIndex._candidates``; the index now only supplies the
        storage primitives (postings lookups, wildcard scans, numeric
        column slices, the universe, and its ``accelerated`` flag).
        """
        return _candidates(self.node, index)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"QueryPlan({self.key!r})"


def _candidates(node: QueryNode, index: Any) -> Tuple[Optional[Set[str]], bool]:
    if isinstance(node, Term):
        if node.is_wildcard:
            # Postings tokens include split words, so prefix matches can
            # over-approximate full-value matching: verify.
            return index.wildcard_ids(node.field or "", node.value[:-1].lower()), False
        return index.posting_ids(node.field or "", node.value.lower()), True
    if isinstance(node, Range):
        if not index.accelerated:
            return None, False
        return index.range_ids(node.field, node.low, node.high), True
    if isinstance(node, Compare):
        if not index.accelerated:
            return None, False
        return index.compare_ids(node.field, node.op, node.value), True
    if isinstance(node, Not):
        if index.accelerated:
            child, child_exact = _candidates(node.child, index)
            if child is not None and child_exact:
                return index.universe() - child, True
        return None, False
    if isinstance(node, Bool):
        resolved = [_candidates(c, index) for c in node.children]
        if node.op == "and":
            known = [s for s, _ in resolved if s is not None]
            if not known:
                return None, False
            result = known[0]
            for s in known[1:]:
                result = result & s
            exact = all(s is not None and e for s, e in resolved)
            return result, exact
        if any(s is None for s, _ in resolved):
            return None, False
        union: Set[str] = set()
        for s, _ in resolved:
            union |= s
        return union, all(e for _, e in resolved)
    return None, False


class PlanCache:
    """Bounded LRU of query string → compiled plan, with compile stats.

    The satellite fix this implements: ``search``/``count`` used to
    re-parse the query string on *every* call, result-cache hit or not.
    Now the first use of a string pays parse + canonicalize + plan once
    and every later use is a dictionary hit.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = max(1, capacity)
        self._plans: "OrderedDict[str, QueryPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self.compiles = 0
        self.hits = 0

    def get(self, query: str) -> QueryPlan:
        with self._lock:
            plan = self._plans.get(query)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(query)
                return plan
        plan = compile_node(parse_query(query), source=query)
        with self._lock:
            self.compiles += 1
            self._plans[query] = plan
            self._plans.move_to_end(query)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
        return plan

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def report(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._plans),
                "compiles": self.compiles,
                "hits": self.hits,
            }

    def __len__(self) -> int:
        return len(self._plans)


def compile_node(node: QueryNode, source: str = "") -> QueryPlan:
    """Compile an already-parsed AST into a plan."""
    canonical = canonicalize(node)
    return QueryPlan(key=render_query(canonical), node=canonical, source=source)


#: Process-wide memo shared by every index and router (one parse per
#: unique query string, across however many shards/indexes exist).
_DEFAULT_CACHE = PlanCache(1024)


def default_plan_cache() -> PlanCache:
    return _DEFAULT_CACHE


def compile_query(query: Union[str, QueryPlan], cache: Optional[PlanCache] = None) -> QueryPlan:
    """String → plan through the memo; plans pass through untouched."""
    if isinstance(query, QueryPlan):
        return query
    return (cache or _DEFAULT_CACHE).get(query)
