"""The interactive search index (the Elasticsearch substitute).

An inverted index over flattened documents: token postings per field plus a
full-text posting list, and per-field *sorted numeric columns* so range and
comparison clauses binary-search instead of filtering every document.

Queries execute through compiled :class:`~repro.search.plan.QueryPlan`
objects (strings are compiled once through the process-wide plan cache);
the exactness-tracking candidate calculus lives in ``search/plan.py`` and
this index only supplies the storage primitives it consults — postings
lookups, wildcard scans, sorted-column slices, and the doc-id universe.
``SearchIndex(accelerated=False)`` retains the original scan-and-verify
path as the reference implementation for the perf-regression equality
gate.

Documents are replaced atomically by id, which is how the asynchronous
reindex handler keeps search in sync with the write side.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

import numpy as np

from repro.search.plan import QueryPlan, compile_query

__all__ = ["SearchIndex"]


def _tokens_of(value: Any) -> Set[str]:
    text = str(value).lower()
    tokens = {text}
    tokens.update(text.split())
    return tokens


def _doc_token_sets(doc: Dict[str, List[Any]]) -> Tuple[Dict[str, Set[str]], Set[str]]:
    """Per-field token sets plus the full-text union, deduplicated once."""
    per_field: Dict[str, Set[str]] = {}
    full_text: Set[str] = set()
    for field, values in doc.items():
        field_tokens: Set[str] = set()
        for value in values:
            field_tokens |= _tokens_of(value)
        per_field[field] = field_tokens
        full_text |= field_tokens
    return per_field, full_text


class SearchIndex:
    """In-memory inverted index with Lucene-like querying."""

    def __init__(self, accelerated: bool = True) -> None:
        self._docs: Dict[str, Dict[str, List[Any]]] = {}
        #: (field, token) -> doc ids;  full text lives under field "".
        self._postings: Dict[tuple, Set[str]] = {}
        self._accelerated = accelerated
        #: field -> (sorted float values, doc ids aligned with the values);
        #: built lazily, dropped whenever a doc carrying the field changes.
        self._numeric_columns: Dict[str, Tuple[np.ndarray, List[str]]] = {}
        self.queries_run = 0
        #: Facade-level aggregation counter.  ``aggregate`` used to bump
        #: ``queries_run`` through its internal ``search`` call, making
        #: facade-level queries indistinguishable from internal ones; it
        #: now counts here and leaves ``queries_run`` untouched.
        self.aggregates_run = 0
        #: Monotonic mutation counter: bumped by every put and every
        #: successful delete.  Query-result caches key on it — two reads at
        #: the same generation are guaranteed to see identical results.
        self.generation = 0
        #: One shard = one actor: mutations and queries serialize on this
        #: re-entrant lock (aggregate re-enters through search), so
        #: concurrent callers' threads can hit different shards while each
        #: shard's postings/columns stay internally consistent.
        self._lock = threading.RLock()

    # -- document management ------------------------------------------------

    def put(self, doc_id: str, doc: Dict[str, List[Any]]) -> None:
        """Insert or replace a document."""
        with self._lock:
            if doc_id in self._docs:
                self.delete(doc_id)
            self._docs[doc_id] = doc
            per_field, full_text = _doc_token_sets(doc)
            postings = self._postings
            for field, tokens in per_field.items():
                for token in tokens:
                    postings.setdefault((field, token), set()).add(doc_id)
            for token in full_text:
                postings.setdefault(("", token), set()).add(doc_id)
            self._invalidate_columns(doc)
            self.generation += 1

    def put_many(self, updates: Iterable[Tuple[str, Dict[str, List[Any]]]]) -> int:
        """Insert or replace a batch of documents in one pass.

        Last write wins within the batch, and a re-put document moves to
        the end of :meth:`items` order exactly as sequential :meth:`put`
        calls would place it.  The whole batch costs one generation bump
        and one postings/column pass, which is the point: downstream
        query caches revalidate once per batch instead of once per
        document.  Returns the number of distinct documents applied.
        """
        last: Dict[str, Tuple[int, Dict[str, List[Any]]]] = {}
        for position, (doc_id, doc) in enumerate(updates):
            last[doc_id] = (position, doc)
        if not last:
            return 0
        ordered = sorted(last.items(), key=lambda kv: kv[1][0])
        with self._lock:
            postings = self._postings
            touched_fields: Set[str] = set()
            for doc_id, (_position, doc) in ordered:
                old = self._docs.pop(doc_id, None)
                if old is not None:
                    old_fields, old_full = _doc_token_sets(old)
                    for field, tokens in old_fields.items():
                        for token in tokens:
                            self._discard_posting((field, token), doc_id)
                    for token in old_full:
                        self._discard_posting(("", token), doc_id)
                    touched_fields.update(old)
                self._docs[doc_id] = doc
                per_field, full_text = _doc_token_sets(doc)
                for field, tokens in per_field.items():
                    for token in tokens:
                        postings.setdefault((field, token), set()).add(doc_id)
                for token in full_text:
                    postings.setdefault(("", token), set()).add(doc_id)
                touched_fields.update(doc)
            for field in touched_fields:
                self._numeric_columns.pop(field, None)
            self.generation += 1
        return len(ordered)

    def delete(self, doc_id: str) -> bool:
        with self._lock:
            doc = self._docs.pop(doc_id, None)
            if doc is None:
                return False
            per_field, full_text = _doc_token_sets(doc)
            for field, tokens in per_field.items():
                for token in tokens:
                    self._discard_posting((field, token), doc_id)
            for token in full_text:
                self._discard_posting(("", token), doc_id)
            self._invalidate_columns(doc)
            self.generation += 1
            return True

    def _discard_posting(self, key: tuple, doc_id: str) -> None:
        postings = self._postings.get(key)
        if postings is not None:
            postings.discard(doc_id)
            if not postings:
                del self._postings[key]

    def _invalidate_columns(self, doc: Dict[str, List[Any]]) -> None:
        for field in doc:
            self._numeric_columns.pop(field, None)

    def get(self, doc_id: str) -> Optional[Dict[str, List[Any]]]:
        return self._docs.get(doc_id)

    def __len__(self) -> int:
        return len(self._docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._docs

    def doc_ids(self) -> Iterable[str]:
        return self._docs.keys()

    def items(self) -> Iterable[Tuple[str, Dict[str, List[Any]]]]:
        """(doc_id, doc) pairs in put order — the bulk-export path."""
        return self._docs.items()

    # -- querying ---------------------------------------------------------------

    def search(self, query: Union[str, QueryPlan], limit: Optional[int] = None) -> List[str]:
        """Run a query (string or pre-compiled plan); returns matching doc
        ids in deterministic (sorted) order."""
        plan = compile_query(query)
        with self._lock:
            self.queries_run += 1
            return self._execute(plan, limit)

    def _execute(self, plan: QueryPlan, limit: Optional[int]) -> List[str]:
        """Plan execution under the shard lock, free of counter bumps."""
        candidates, exact = plan.candidates(self)
        if candidates is None:
            candidates = set(self._docs.keys())
            exact = False
        if exact:
            hits = sorted(candidates)
        else:
            hits = [
                doc_id for doc_id in sorted(candidates) if plan.matches_doc(self._docs[doc_id])
            ]
        return hits[:limit] if limit is not None else hits

    def count(self, query: Union[str, QueryPlan]) -> int:
        """Matching-document count without materializing a sorted hit list.

        Exact candidate sets are counted directly; inexact ones are
        verified per document but never sorted or sliced.  Always equal to
        ``len(self.search(query))``.
        """
        plan = compile_query(query)
        with self._lock:
            self.queries_run += 1
            candidates, exact = plan.candidates(self)
            if candidates is None:
                return sum(1 for doc in self._docs.values() if plan.matches_doc(doc))
            if exact:
                return len(candidates)
            return sum(1 for doc_id in candidates if plan.matches_doc(self._docs[doc_id]))

    def aggregate(self, query: Union[str, QueryPlan], field: str) -> Dict[Any, int]:
        """Value counts of ``field`` across matching documents.

        Counts under ``aggregates_run``; ``queries_run`` stays untouched
        (the internal hit-list execution is not a facade-level query).
        """
        plan = compile_query(query)
        with self._lock:
            self.aggregates_run += 1
            counts: Dict[Any, int] = {}
            for doc_id in self._execute(plan, None):
                for value in self._docs[doc_id].get(field, ()):
                    counts[value] = counts.get(value, 0) + 1
            return dict(sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0]))))

    # -- plan access primitives --------------------------------------------
    #
    # The candidate/exactness calculus lives in ``search/plan.py``; the
    # index only answers these storage questions.  All of them assume the
    # shard lock is held (search/count/aggregate take it).

    @property
    def accelerated(self) -> bool:
        return self._accelerated

    def universe(self) -> Set[str]:
        """Every doc id (the complement base for exact NOT)."""
        return set(self._docs.keys())

    def posting_ids(self, field: str, token: str) -> Set[str]:
        """Docs whose ``field`` contains ``token`` ("" = full text)."""
        return set(self._postings.get((field, token), set()))

    def wildcard_ids(self, field: str, prefix: str) -> Set[str]:
        """Docs with any ``field`` token starting with ``prefix``."""
        result: Set[str] = set()
        for (f, token), ids in self._postings.items():
            if f == field and token.startswith(prefix):
                result |= ids
        return result

    def range_ids(self, field: str, low: float, high: float) -> Set[str]:
        """Docs with a numeric ``field`` value in the inclusive range."""
        return self._column_slice(field, low, "left", high, "right")

    def compare_ids(self, field: str, op: str, value: float) -> Set[str]:
        if op == ">":
            return self._column_slice(field, value, "right", math.inf, "right")
        if op == ">=":
            return self._column_slice(field, value, "left", math.inf, "right")
        if op == "<":
            return self._column_slice(field, -math.inf, "left", value, "left")
        return self._column_slice(field, -math.inf, "left", value, "right")

    # -- numeric columns ----------------------------------------------------

    def _numeric_column(self, field: str) -> Tuple[np.ndarray, List[str]]:
        """Sorted (values, doc ids) for a field, built lazily."""
        column = self._numeric_columns.get(field)
        if column is None:
            values: List[float] = []
            ids: List[str] = []
            for doc_id, doc in self._docs.items():
                for value in doc.get(field, ()):
                    try:
                        number = float(value)
                    except (TypeError, ValueError):
                        continue
                    if math.isnan(number):
                        continue  # NaN never satisfies a comparison
                    values.append(number)
                    ids.append(doc_id)
            array = np.asarray(values, dtype=np.float64)
            order = np.argsort(array, kind="stable")
            column = (array[order], [ids[i] for i in order])
            self._numeric_columns[field] = column
        return column

    def _column_slice(
        self, field: str, low: float, low_side: str, high: float, high_side: str
    ) -> Set[str]:
        """Docs with a numeric value in the inclusive/exclusive window."""
        if math.isnan(low) or math.isnan(high):
            return set()
        values, ids = self._numeric_column(field)
        left = int(np.searchsorted(values, low, side=low_side))
        right = int(np.searchsorted(values, high, side=high_side))
        return set(ids[left:right])
