"""Intersection counts of CSR neighbour rows, in numpy.

Every Jaccard term in the metrics is one division of integer counts,
|A ∩ B| / (|A| + |B| - |A ∩ B|), and a closed wedge is a common
neighbour of a linked pair.  :func:`intersection_counts` computes all
such counts of one kernel call at once.

Memory stays flat whatever the degrees: Q's rows are marked in a dense
boolean block of at most 1 MiB, and P's rows are probed against it at
most 2**15 entries at a time, so a hub of any degree never expands into
one array proportional to the sum of its queries' row lengths.  The
counts do not depend on the order of the entries within a row.
"""

from __future__ import annotations

from itertools import chain
from typing import Collection, Iterator, NamedTuple, Sequence

import numpy as np

_MARK_BYTES = 1 << 20  # dense mark block: rows x n booleans
_STEP = 1 << 15  # CSR entries gathered per numpy step


class CSR(NamedTuple):
    """Square sparse boolean matrix: row ``i`` holds ``indices[indptr[i]:indptr[i + 1]]``.

    Rows may be in any order.  Both arrays are read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_sets(cls, sets: Sequence[Collection[int]]) -> "CSR":
        """Row ``i`` holds the members of ``sets[i]`` in iteration order, each in ``0..len(sets)-1``."""
        indptr = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, sets), dtype=np.int64, count=len(sets)), out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(sets), dtype=np.int32, count=int(indptr[-1]))
        return cls._frozen(indptr, indices)

    @classmethod
    def from_keys(cls, keys: np.ndarray, n: int) -> "CSR":
        """The ``n`` x ``n`` matrix with an entry ``(i, j)`` per key ``i * n + j``.

        ``keys`` must be sorted and unique, so every row comes out sorted.
        """
        rows, cols = np.divmod(keys, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls._frozen(indptr, cols.astype(np.int32))

    @classmethod
    def _frozen(cls, indptr: np.ndarray, indices: np.ndarray) -> "CSR":
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return cls(indptr, indices)

    def rows(self) -> list[list[int]]:
        """Every row as a list of ints, in stored order."""
        members, bounds = self.indices.tolist(), self.indptr.tolist()
        return [members[s:e] for s, e in zip(bounds, bounds[1:])]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_ids(self) -> np.ndarray:
        """Row id of every stored entry, aligned with ``indices``."""
        return np.repeat(np.arange(len(self.indptr) - 1), self.degrees())


def _entries(indptr: np.ndarray, rows: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Walk the CSR entries of ``rows[0]``, ``rows[1]``, ... in order, ``_STEP`` at a time.

    Yields ``(t, pos)``: ``pos`` indexes the indices array and ``t`` is
    the position in ``rows`` of the row each entry belongs to.
    """
    lengths = indptr[rows + 1] - indptr[rows]
    ends = np.cumsum(lengths)
    starts = ends - lengths
    shift = indptr[rows] - starts
    total = int(ends[-1]) if len(ends) else 0
    for first in range(0, total, _STEP):
        last = min(first + _STEP, total)
        lo, hi = np.searchsorted(ends, (first, last - 1), side="right")
        span = slice(lo, hi + 1)
        t = np.repeat(np.arange(lo, hi + 1), np.minimum(ends[span], last) - np.maximum(starts[span], first))
        yield t, np.arange(first, last) + shift[t]


def intersection_counts(P: CSR, Q: CSR, rows, cols) -> np.ndarray:
    """``|P[rows[t]] ∩ Q[cols[t]]|`` for every ``t``, as an int64 array.

    Queries are grouped by their Q row.  For each group of up to
    ``1 MiB // n`` distinct Q rows, those rows are marked in a dense
    boolean block and the entries of the matching P rows are looked up
    in it.  The counts are exact integers.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    counts = np.zeros(len(rows), dtype=np.int64)
    if not len(rows):
        return counts
    n = len(Q.indptr) - 1
    block = max(1, _MARK_BYTES // n)
    order = np.argsort(cols, kind="stable")
    targets, slots = np.unique(cols[order], return_inverse=True)
    mark = np.zeros((min(block, len(targets)), n), dtype=bool)
    for first in range(0, len(targets), block):
        group = targets[first:first + block]
        for t, pos in _entries(Q.indptr, group):
            mark[t, Q.indices[pos]] = True
        lo, hi = np.searchsorted(slots, (first, first + block))
        local = slots[lo:hi] - first
        found = np.zeros(hi - lo, dtype=np.int64)
        for t, pos in _entries(P.indptr, rows[order[lo:hi]]):
            hits = t[mark[local[t], P.indices[pos]]]
            found[t[0]:t[-1] + 1] += np.bincount(hits - t[0], minlength=t[-1] - t[0] + 1)
        counts[order[lo:hi]] = found
        for t, pos in _entries(Q.indptr, group):
            mark[t, Q.indices[pos]] = False
    return counts


def jaccard_terms(inter: np.ndarray, size_a: np.ndarray, size_b: np.ndarray) -> np.ndarray:
    """Elementwise ``inter / (size_a + size_b - inter)``, 0 where both sets are empty.

    One float64 division of exact integers per term, so each term is
    bitwise equal to :func:`tieplex.metrics.jaccard` under the metric
    convention.
    """
    union = size_a + size_b - inter
    terms = np.zeros(len(inter), dtype=np.float64)
    np.divide(inter, union, out=terms, where=union > 0)
    return terms
