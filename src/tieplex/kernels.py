"""Intersection counts of CSR neighbour rows, in numpy.

Every Jaccard term in the metrics is one division of integer counts,
|A ∩ B| / (|A| + |B| - |A ∩ B|), and a closed wedge is a common
neighbour of a linked pair.  :func:`intersection_counts` computes all
such counts of one kernel call at once; :func:`row_intersections` gives
the diagonal ones, ``|P[i] ∩ Q[i]|`` for every row ``i``, and
:func:`popcount` the set bits of bitset words.

:func:`intersection_counts` picks one of two strategies per call, by
one fixed size rule.  While the whole n x n float32 matrix fits 1 MiB
(n <= 512), the counts are read off the dense product P·Qᵀ: at most
three such matrices.  Larger graphs take a sorted-key probe: each query
expands the shorter of its two rows and looks every entry up among the
other matrix's sorted keys ``row * n + col``.  The queries are split by
the expanded side, each group is sorted once by probed row, and its
expanded entries are walked ``2**15`` at a time.  Its memory is the
probed keys, about 30 bytes per query (its place and sort key while
sorting, then its place and where its expanded entries end) and one
step, so a hub of any degree never expands into one array proportional
to the sum of its queries' row lengths.  The counts do not depend on
the order of the entries within a row.

:func:`row_means` averages per-row float terms, bit for bit equal to
``math.fsum`` over each row divided by its length.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

_DENSE_BYTES = 1 << 20  # dense n x n float32 product: n <= 512
_STEP = 1 << 15  # CSR entries gathered per numpy step
_BITWISE_COUNT = hasattr(np, "bitwise_count")  # the popcount ufunc, numpy 2.0 on


class CSR(NamedTuple):
    """Square sparse boolean matrix: row ``i`` holds ``indices[indptr[i]:indptr[i + 1]]``.

    Every row is sorted.  Both arrays are read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_keys(cls, keys: np.ndarray, n: int) -> "CSR":
        """The ``n`` x ``n`` matrix with an entry ``(i, j)`` per key ``i * n + j``.

        ``keys`` must be sorted and unique, so every row comes out sorted.
        Row ``i`` starts at the first key of at least ``i * n``.
        """
        indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int64, copy=False)
        indices = (keys % n).astype(np.int32)
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


def _spans(bounds: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Walk the entries of consecutive rows ``_STEP`` at a time; row ``k`` holds entries ``bounds[k]:bounds[k + 1]``.

    ``bounds`` starts at 0 and never falls.  Yields ``(lo, t, offset)``
    per step: ``lo + t`` is the row of each entry and ``offset`` its
    place within that row.
    """
    total = int(bounds[-1])
    for first in range(0, total, _STEP):
        last = min(first + _STEP, total)
        lo, hi = np.searchsorted(bounds, (first, last - 1), side="right") - 1
        t = np.repeat(np.arange(hi + 1 - lo), np.diff(np.minimum(bounds[lo + 1:hi + 2], last), prepend=first))
        yield int(lo), t, np.arange(first, last) - bounds[lo:hi + 1][t]


def intersection_counts(P: CSR, Q: CSR, rows, cols) -> np.ndarray:
    """``|P[rows[t]] ∩ Q[cols[t]]|`` for every ``t``, as an int64 array.

    While the n x n float32 matrix fits ``_DENSE_BYTES`` (n <= 512), the
    counts are read off the dense product P·Qᵀ.  Larger graphs take the
    sorted-key probe of :func:`_probe_counts`.  The counts are exact
    integers either way.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols)
    if not len(rows):
        return np.zeros(0, dtype=np.int64)
    n = len(Q.indptr) - 1
    if 4 * n * n <= _DENSE_BYTES:
        # every partial sum is an integer <= n < 2**24, exact in float32
        # whatever the summation order
        a = _dense(P, n)
        b = a if Q is P else _dense(Q, n)
        return (a @ b.T)[rows, cols].astype(np.int64)
    # expand the shorter of the two rows of each query: the count is symmetric
    fewer = P.degrees()[rows] <= Q.degrees()[cols]
    counts = np.zeros(len(rows), dtype=np.int64)
    for chosen, expanded, probed, expanded_rows, probed_rows in (
        (fewer, P, Q, rows, cols),
        (~fewer, Q, P, cols, rows),
    ):
        queries = np.flatnonzero(chosen)
        if len(queries):
            queries = queries[np.argsort(probed_rows[queries])]
            _probe_counts(expanded, probed, expanded_rows, probed_rows, queries, counts, n)
    return counts


def _dense(csr: CSR, n: int) -> np.ndarray:
    """``csr`` as an n x n float32 matrix of zeros and ones."""
    dense = np.zeros((n, n), dtype=np.float32)
    dense[csr.row_ids(), csr.indices] = 1
    return dense


def _probe_counts(
    P: CSR, Q: CSR, rows: np.ndarray, cols: np.ndarray, queries: np.ndarray, counts: np.ndarray, n: int
) -> None:
    """Add ``|P[rows[t]] ∩ Q[cols[t]]|`` into ``counts[t]``, which starts at 0, for every ``t`` in ``queries``.

    Each entry of ``P[rows[t]]`` is looked up among Q's keys: every
    stored entry ``(i, j)`` of Q is the key ``i * n + j``, sorted
    because the rows are.  ``queries`` come ordered by their Q row, so
    the probed keys ``cols[t] * n + x`` come out almost sorted, which
    keeps ``searchsorted`` fast.  The expanded entries are walked
    ``_STEP`` at a time, each step gathering the rows and columns of
    its own queries only, so the temporaries are Q's keys, the entry
    bounds of the queries' rows and one step.
    """
    held = _keys(Q, n)
    bounds = np.zeros(len(queries) + 1, dtype=np.int64)
    np.cumsum(P.degrees()[rows[queries]], out=bounds[1:])
    for lo, t, offset in _spans(bounds):
        step = queries[lo:lo + int(t[-1]) + 1]
        step_cols = cols[step].astype(np.int64)  # an int32 column id times n would wrap
        keys = step_cols[t] * n + P.indices[P.indptr[rows[step]][t] + offset]
        # search only the keys of the step's Q rows, plus the next key
        # (at worst the sentinel), which exceeds every probe
        start, stop = np.searchsorted(held, (step_cols[0] * n, (step_cols[-1] + 1) * n))
        window = held[start:stop + 1]
        counts[step] += np.bincount(t[window[np.searchsorted(window, keys)] == keys], minlength=len(step))


def row_intersections(P: CSR, Q: CSR) -> np.ndarray:
    """``|P[i] ∩ Q[i]|`` for every row ``i``, as an int64 array.

    Each stored entry ``(i, j)`` is the key ``i * n + j``; both key
    arrays are sorted because the rows are, so one ``searchsorted``
    finds which of P's keys Q holds.  Its temporaries grow with the
    stored entries only.
    """
    n = len(P.indptr) - 1
    rows = P.row_ids()
    keys = _keys(P, n)[:-1]
    held = _keys(Q, n)
    found = held[np.searchsorted(held, keys)] == keys
    return np.bincount(rows[found], minlength=n)


def _keys(csr: CSR, n: int) -> np.ndarray:
    """The sorted keys ``i * n + j`` of the stored entries, then ``n * n``, which exceeds every key.

    Built in one array: each row's ``i * n`` repeated over its entries,
    then the column ids added in place.
    """
    keys = np.repeat(np.arange(n + 1, dtype=np.int64) * n, np.append(csr.degrees(), 1))
    keys[:-1] += csr.indices
    return keys


def jaccard_terms(inter: np.ndarray, size_a: np.ndarray, size_b: np.ndarray) -> np.ndarray:
    """Elementwise ``inter / (size_a + size_b - inter)``, 0 where both sets are empty.

    One float64 division of exact integers per term, so each term is
    bitwise equal to :func:`tieplex.metrics.jaccard`.
    """
    union = size_a + size_b - inter
    terms = np.zeros(len(inter), dtype=np.float64)
    np.divide(inter, union, out=terms, where=union > 0)
    return terms


def popcount(words: np.ndarray) -> np.ndarray:
    """The set bits of every word of a ``uint64`` array, as an array of the same shape.

    ``np.bitwise_count`` where numpy has it.  Older numpy counts by SWAR:
    the bits are summed in pairs, then nibbles, then bytes, and one
    multiplication adds the eight byte counts into the top byte.
    """
    if _BITWISE_COUNT:
        return np.bitwise_count(words)
    x = words - ((words >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


def row_means(terms: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """``math.fsum(row) / len(row)`` for every row ``terms[indptr[i]:indptr[i + 1]]``, 0 for an empty row.

    The terms lie in [0, 1] and ``indptr[-1] == len(terms)``.  Bit for
    bit equal to ``fsum``: with S = 53 minus the exponent of the
    smallest nonzero term, every term times 2**S is an integer of at
    most 72 bits.  Its two 36-bit halves are summed per row exactly in
    int64, and ``hi * 2**36 + lo`` rounds the exact sum once, as
    ``fsum`` does.  Terms that need S > 72 or a row of 2**17 or more
    terms fall back to ``fsum``.
    """
    lengths = np.diff(indptr)
    means = np.zeros(len(lengths), dtype=np.float64)
    positive = terms[terms > 0]
    shift = 53 - int(np.frexp(positive.min())[1]) if len(positive) else 0
    if shift > 72 or lengths.max(initial=0) >= 1 << 17:
        bounds, values = indptr.tolist(), terms.tolist()
        fsums = [math.fsum(values[s:e]) / (e - s) if e > s else 0.0 for s, e in zip(bounds, bounds[1:])]
        return np.array(fsums, dtype=np.float64)
    if not len(positive):
        return means  # every row sums to 0
    scaled = np.ldexp(terms, shift - 36)
    hi = np.floor(scaled)
    lo = np.ldexp(scaled - hi, 36)
    busy = lengths > 0
    starts = indptr[:-1][busy]
    hi_sum = np.add.reduceat(hi.astype(np.int64), starts).astype(np.float64)
    lo_sum = np.add.reduceat(lo.astype(np.int64), starts).astype(np.float64)
    means[busy] = np.ldexp(np.ldexp(hi_sum, 36) + lo_sum, -shift) / lengths[busy]
    return means
