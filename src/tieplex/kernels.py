"""Closure counts of CSR neighbour rows, and the triangle listing behind them, in numpy.

Every Jaccard term in the metrics is one division of integer counts,
|A ∩ B| / (|A| + |B| - |A ∩ B|), and a closed wedge is a common
neighbour of a linked pair.  :func:`popcount` counts the set bits of
bitset words.

The closure counts take one of two strategies, by one fixed size rule
(:func:`fits_dense`).  While the whole n x n float32 matrix fits 1 MiB
(n <= 512), :func:`intersection_counts` reads them off the dense
product P·Qᵀ: at most three such matrices.  Larger graphs count them
as triangles.  A closure count on a tie (i, h) counts the k tied to
both i and h, and k differs from both since self-ties are refused, so
{i, h, k} is a triangle of the undirected union of the basic layers;
every declared layer is a subset of that union.  :func:`triangles`
lists each triangle of a set of node pairs once (Chiba & Nishizeki
1985; Latapy 2008), as the indices of its three sides among the pairs'
sorted keys.

A layer gives each pair a two-bit code, bit 0 for the tie from the
lower id to the higher and bit 1 for the reverse.  So a triangle listed
as u, v, w has a 6-bit code per layer, the codes of its sides (u, v),
(u, w) and (v, w) from the lowest bits up, and a 12-bit code per
ordered layer pair, the first layer's six bits below the second's; a
single layer's code is its 6-bit code twice.  Three lookup tables,
derived from the definitions when the module loads, name the sides that
each code adds one to, with 4,096 entries for each order of the three
ids: :data:`CYCLE` and :data:`TRIPLET` the walk entries of the two
closures (see :mod:`tieplex.metrics`), :data:`WEDGE` the linked pairs
of a wedge count (see :func:`tieplex.structure.wedge_closure`).
:func:`closure_counts` scatters only the marked sides into per-entry
counts.  The counts are exact integers
on either strategy, so no Jaccard term depends on it, and none depends
on the order of the entries within a row.

Which listing is kept is :class:`tieplex.graph.PairTable`'s rule: the
triangles of the union are held while they are no more than the union's
pairs, and a denser union is listed again by each call over its own
layers' pairs, which then holds per-entry counts only.

:func:`row_means` averages per-row float terms, bit for bit equal to
``math.fsum`` over each row divided by its length.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
        indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n).astype(np.int64, copy=False)
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


def fits_dense(n: int) -> bool:
    """Whether the n x n float32 product fits ``_DENSE_BYTES`` (n <= 512): the rule that picks the strategy."""
    return 4 * n * n <= _DENSE_BYTES


def intersection_counts(P: CSR, Q: CSR, rows, cols) -> np.ndarray:
    """``|P[rows[t]] ∩ Q[cols[t]]|`` for every ``t``, as an int64 array, read off the dense product P·Qᵀ.

    Only for graphs that :func:`fits_dense`: larger ones count their
    closures from :func:`triangles`.  The counts are exact integers.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols)
    if not len(rows):
        return np.zeros(0, dtype=np.int64)
    n = len(Q.indptr) - 1
    if not fits_dense(n):
        raise ValueError(f"the dense product of {n} nodes exceeds {_DENSE_BYTES} bytes; count from the triangles")
    # every partial sum is an integer <= n < 2**24, exact in float32
    # whatever the summation order
    a = _dense(P, n)
    b = a if Q is P else _dense(Q, n)
    return (a @ b.T)[rows, cols].astype(np.int64)


def _dense(csr: CSR, n: int) -> np.ndarray:
    """``csr`` as an n x n float32 matrix of zeros and ones."""
    dense = np.zeros((n, n), dtype=np.float32)
    dense[csr.row_ids(), csr.indices] = 1
    return dense


def triangles(pairs: np.ndarray, n: int, within: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """Every triangle of the undirected graph on ``pairs[within]`` (all ``pairs`` by default) once, a step at a time.

    ``pairs`` are sorted unique int64 keys ``a * n + b``, a < b, and
    ``within`` ascending indices into them.  Each step yields a (4, t)
    array for t triangles u, v, w: the indices into ``pairs`` of the
    sides (u, v), (u, w) and (v, w), then the order of their ids,
    ``(u < v) | (u < w) << 1 | (v < w) << 2``.

    Each pair is oriented from its lower to its higher (degree, id)
    rank, which leaves no vertex more than sqrt(2m) higher neighbours,
    and a triangle u < v < w in rank is found once, from its pair
    (u, v), as a w in the oriented rows of both u and v.  The row of v
    is walked, and each of its entries looked up among the oriented keys
    ``u * n + w`` of row u.  Row v is the shorter of the two for all but
    a few pairs (walking always the shorter row would walk 2-4% fewer
    entries on the benchmark inputs), and the pairs come ordered by u,
    so the probed keys come almost sorted.  The entries are walked
    ``_STEP`` at a time, each step searching among the keys of its u
    rows only.  Besides one step and one block of ``_STEP`` pairs, the
    walk holds the oriented keys and the pair of each, 12 bytes per pair
    below 2**31 pairs, and its set-up 20 while it sorts them.
    """
    held, side = _oriented(pairs, n, within)
    indptr = np.searchsorted(held, np.arange(n + 1, dtype=np.int64) * n)
    width = np.diff(indptr)
    for block in _blocks(len(side)):
        # the oriented keys u * n + v of the block, and the bounds of their
        # walks along row v
        pivots = held[:-1][block]
        bounds = np.zeros(len(pivots) + 1, dtype=np.int64)
        np.cumsum(width[pivots % n], out=bounds[1:])
        for first, t, offset in _spans(bounds):
            sides = _step_triangles(n, held, indptr, side, block.start + first, t, offset)
            del t, offset  # each step's arrays go before the next is made
            if sides.shape[1]:
                yield sides


def _oriented(pairs: np.ndarray, n: int, within: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The sorted oriented keys of :func:`triangles`, then the sentinel ``n * n``, and the pair index of each.

    Each pair a < b becomes ``a * n + b`` or ``b * n + a``, from its
    lower to its higher (degree, id) rank.  The pairs are read
    ``_STEP`` at a time, so no temporary outgrows the result.
    """
    count = len(pairs) if within is None else len(within)
    degree = np.zeros(n, dtype=np.int64)
    for part in _blocks(count):
        for ends in np.divmod(pairs[part] if within is None else pairs[within[part]], n):
            degree += np.bincount(ends, minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(degree, kind="stable")] = np.arange(n)
    del degree  # the node arrays go before the keys' sort order is made
    held = np.empty(count + 1, dtype=np.int64)
    for part in _blocks(count):
        keys = pairs[part] if within is None else pairs[within[part]]
        lo, hi = np.divmod(keys, n)
        held[:-1][part] = np.where(rank[lo] > rank[hi], hi * n + lo, keys)
    held[-1] = n * n
    del rank
    order = np.argsort(held[:-1])
    held.sort()
    return held, order.astype(_index_type(len(pairs))) if within is None else within[order]


def _step_triangles(
    n: int, held: np.ndarray, indptr: np.ndarray, side: np.ndarray, base: int, t: np.ndarray, offset: np.ndarray
) -> np.ndarray:
    """The sides of the triangles that one step of :func:`triangles` finds.

    The step walks entry ``offset`` of row v for the oriented key
    ``held[base + t]`` = u * n + v.
    """
    edges = held[base:base + int(t[-1]) + 1]
    v = edges % n
    walked = indptr[v][t]
    walked += offset
    keys = held[walked]
    keys += (edges - v * (n + 1))[t]  # (v n + w) + (u n + v) - v (n + 1) = u n + w
    # search the probes among the keys of the step's u rows and the next
    # key (at worst the sentinel), which exceeds every probe
    start, stop = np.searchsorted(held, (edges[0] // n * n, (edges[-1] // n + 1) * n))
    probed = np.searchsorted(held[start:stop + 1], keys) + start
    hit = np.flatnonzero(held[probed] == keys)
    del keys
    t, walked, probed = t[hit], walked[hit], probed[hit]
    v = v[t]
    u, w = edges[t] // n, held[walked] - v * n
    found = np.empty((4, len(hit)), dtype=side.dtype)
    found[0], found[1], found[2] = side[base + t], side[probed], side[walked]
    found[3] = (u < v) | (u < w) << 1 | (v < w) << 2
    return found


def _blocks(count: int) -> Iterator[slice]:
    """Slices of ``_STEP`` consecutive indices that cover ``range(count)``."""
    return (slice(start, start + _STEP) for start in range(0, count, _STEP))


def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:data:`CYCLE`, :data:`TRIPLET` and :data:`WEDGE`, derived from the definitions.

    A table is indexed by a triangle's id order (see :func:`triangles`)
    times 4,096 plus its 12-bit code.  The vertices are 0, 1, 2 for u,
    v, w, and side s joins p and q where s = p + q - 1.  Bit ``2s + d``
    of an entry marks side s in direction d (0 from the lower id): for
    the closures, the walk entry in the row of the tie's first node; for
    ``WEDGE`` the linked pair, with d = 0.  The two orders that no three
    ids have stay 0.  All eight orders are derived at once, one row each,
    in uint16.
    """
    code = np.arange(1 << 12, dtype=np.uint16)
    order = np.arange(8, dtype=np.uint16)[:, None]
    less = order & 1, order >> 1 & 1, order >> 2 & 1  # u < v, u < w, v < w
    ids = 2 - less[0] - less[1], less[0] + 1 - less[2], less[1] + less[2]  # the ids below u, v and w
    cycle, triplet, wedge = (np.zeros((8, len(code)), dtype=np.uint16) for _ in range(3))

    def bit(p, q):
        return np.uint16(2 * (p + q - 1)) + (ids[p] > ids[q])

    def tie(layer, p, q):
        """1 where layer 0 (the first) or 1 (the second) ties p -> q."""
        return code >> (np.uint16(6 * layer) + bit(p, q)) & 1

    for i, h, k in permutations(range(3)):
        # cycle closure: entry h of i's in-row in the second layer, for
        # i -> k in the first and k -> h in the second
        cycle |= (tie(1, h, i) & tie(0, i, k) & tie(1, k, h)) << bit(i, h)
        # triplet closure: entry h of i's out-row in the first layer, for
        # i -> k in the first and h -> k in the second
        triplet |= (tie(0, i, h) & tie(0, i, k) & tie(1, h, k)) << bit(i, h)
        if i < h:
            # the first layer's wedge at k, closed by the second layer's pair {i, h}
            linked = tie(1, i, h) | tie(1, h, i)
            spokes = (tie(0, i, k) | tie(0, k, i)) & (tie(0, h, k) | tie(0, k, h))
            wedge |= (linked & spokes) << np.uint16(2 * (i + h - 1))
    orders = (ids[0] != ids[1]) & (ids[0] != ids[2]) & (ids[1] != ids[2])
    return tuple(np.where(orders, table, 0).astype(np.uint8).ravel() for table in (cycle, triplet, wedge))


CYCLE, TRIPLET, WEDGE = _tables()


def marked_sides(
    steps: Iterable[np.ndarray], first: np.ndarray, second: np.ndarray, tables: Sequence[np.ndarray]
) -> Iterator[list[np.ndarray]]:
    """Per step of :func:`triangles`, the sides each table marks, as ``2 * pair index + direction``.

    ``first`` and ``second`` are the two layers' uint8 codes, one per
    pair.  A side marked by several triangles of a step comes once for
    each.
    """
    # both codes of a pair, the second's six bits up: shifted by 2s, they
    # are side s's bits of the 12-bit code
    both = first.astype(np.uint16) | second.astype(np.uint16) << 6
    for found in steps:
        sides = found[:3]
        code = both[sides[0]]
        code |= both[sides[1]] << 2
        code |= both[sides[2]] << 4
        code |= found[3].astype(np.uint16) << 12
        marked = []
        for table in tables:
            mark = table[code]
            live = np.flatnonzero(mark)
            mark = mark[live]
            ends = []
            for bit in range(6):  # bit 2s + d: side s, direction d
                end = sides[bit >> 1][live[np.flatnonzero(mark & 1 << bit)]].astype(np.intp)
                end <<= 1
                end |= bit & 1
                ends.append(end)
            marked.append(np.concatenate(ends))
        yield marked


def closure_counts(
    steps: Iterable[np.ndarray],
    pairs: np.ndarray,
    n: int,
    first: np.ndarray,
    second: np.ndarray,
    walks: Sequence[tuple[np.ndarray, CSR]],
    kept: bool,
) -> list[np.ndarray]:
    """For each ``(table, walk)``: per stored entry of ``walk``, the triangles the table marks on it, as int32.

    ``steps`` list triangles of ``pairs``, whose two layer codes are
    ``first`` and ``second``.  A side marked in direction 0 is the entry
    (a, b) of its pair's key ``a * n + b``, in direction 1 the entry
    (b, a).  A ``kept`` listing has no more triangles than pairs, so
    each marked side is placed by one ``searchsorted`` among the walk's
    keys; a listing with more is met by placing each walk entry once
    among the pairs instead, and every mark then reads its place.
    """
    places = [_places(walk, pairs, n, kept) for _, walk in walks]
    counts = [np.zeros(int(walk.indptr[-1]), dtype=np.int32) for _, walk in walks]
    for found in marked_sides(steps, first, second, [table for table, _ in walks]):
        for ends, place, tally in zip(found, places, counts):
            np.add(tally, np.bincount(place(ends), minlength=len(tally)), out=tally, casting="unsafe")
    return counts


def _places(walk: CSR, pairs: np.ndarray, n: int, search: bool) -> Callable[[np.ndarray], np.ndarray]:
    """The function from marked sides ``2 * pair index + direction`` to their entries of ``walk`` (see :func:`closure_counts`)."""
    if search:
        keys = _keys(walk, n)

        def place(ends):
            a, b = np.divmod(pairs[ends >> 1], n)
            return np.searchsorted(keys, np.where(ends & 1, b * n + a, a * n + b))

        return place
    rows, cols = walk.row_ids(), walk.indices
    entry = np.zeros(2 * len(pairs), dtype=_index_type(len(cols)))  # entry (a, b) of pair p at 2p, (b, a) at 2p + 1
    entry[2 * np.searchsorted(pairs, np.minimum(rows, cols) * n + np.maximum(rows, cols)) + (rows > cols)] = np.arange(len(cols))
    return entry.__getitem__


def _index_type(count: int) -> type:
    """The narrower integer type that indexes ``count`` items."""
    return np.int32 if count < 2**31 else np.int64


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
    union = size_a + size_b
    union -= inter
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
    lo = np.ldexp(terms, shift - 36)
    hi = np.floor(lo)
    lo -= hi
    np.ldexp(lo, 36, out=lo)
    busy = lengths > 0
    starts = indptr[:-1][busy]
    hi_sum = np.add.reduceat(hi.astype(np.int64), starts).astype(np.float64)
    lo_sum = np.add.reduceat(lo.astype(np.int64), starts).astype(np.float64)
    means[busy] = np.ldexp(np.ldexp(hi_sum, 36) + lo_sum, -shift) / lengths[busy]
    return means
