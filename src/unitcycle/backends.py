"""Engines for the 4-term vanishing-sum search over a signed term set.

Given the distinct positive term values v_0 > v_1 > ... the search works on
the signed array W = (+v_0, -v_0, +v_1, -v_1, ...), which is in the canonical
order (|w| descending, then w descending).  A hit is an index quadruple
i <= j <= k <= l with

    W[i] + W[j] + W[k] + W[l] == 0,   W[i] > 0,
    no two of the four summing to zero (subsum-free),

reported as the value quadruple (W[i], W[j], W[k], W[l]).

Every hit has one of two shapes: 2-2, v_a + v_b = v_c + v_d, or 3-1,
v_a = v_b + v_c + v_d.  The numpy engine sorts one table, the pairs b <= c
keyed by v_b + v_c, and joins it twice: the members of each equal-key run
with one another (2-2), and the differences v_a - v_d, looked up in it, with
their matches (3-1).  Runs are read off the neighbours with equal keys, so
only runs of two or more are expanded.  The differences come in pair order
from the same term keys as the sums.  Most of them match no sum, so a
presence table of the sums (one flag per hash slot, 16 to 32 slots per sum
up to 128 KB of flags, two to four in larger tables) drops most of those
first; each that passes takes one left search and an equality test,
and only the hits take the right-side search that finds the end of their
run.  Only the rows the join builds are mapped back through the sort order.
The python engine matches negated two-term sums: enumerate pairs (a <= b),
bucket by sum, and join each bucket with its negation under the interleave
constraint b <= c, which yields every sorted quadruple exactly once.

Segments: one numpy join can search many term sets at once.  Their term
lists, each largest first, are laid end to end, and the pair table holds
the pairs within each segment, offset by the terms before it.  Segment s
adds a tag t_s = s * _TAG_STEP mod RESIDUE_PRIME to its b-side keys, so
its sums and its differences both carry t_s, at the cost of one pass over
the terms, none over the table.  A row that joins segments s != s' matches
only when its exact sum is congruent to t_s - t_s' or t_s' - t_s mod P,
which is not 0 because the tags are distinct mod P; the exact-sum test
that drops residue collisions drops these rows too.  Segment 0's tag is 0,
so a one-segment join adds none, and zero_quadruples is the one-segment
case of the same join.  count_zero_quadruples returns, per
segment, the number of rows whose exact sum is 0, with no rank rows, no
row sort and no Relation objects; survey_run counts every subset with it.
The survey puts at most min(ceiling, BATCH_PAIR_SUMS = 2^17) pair sums in
one join.  survey_run(20, 5), 15,504 subsets of 528 pair sums each, took
0.90-0.92 s and 38.8 MB peak RSS with batches of 2^17 pair sums, 0.94-1.01 s
and 35.0 MB with 2^16, 1.03-1.10 s and 44.4 MB with 2^18, and 1.17 s and
122 MB with the default ceiling's 2M (2 vCPU, Python 3.11, numpy 2.4).

Two interchangeable engines:

  * numpy  - vectorized int64 kernel (default), for terms of any size.  Terms
             are joined on their residues mod RESIDUE_PRIME, which equal
             their values below it.  A vanishing sum vanishes mod every
             prime, so the residue join loses no hit, and an exact sum of
             each hit drops the false positives.
  * python - pure-Python hash join on unbounded integers, the reference.

Memory: the numpy engine keeps term indices in int32, computes sums and
differences in place, and drops each table-sized array once it has been
read.  This is for speed as much as size.  When a call frees a heap's worth
of temporaries together, glibc trims the top of the heap back to the OS, and
the next call faults those pages in again.  On the benchmark's 256-term
`wide` sets, int64 indices with every temporary held to the end cost 1,040
minor page faults per call and a traced peak of 3.98 MB; now a call takes
about 210 faults and 1.23 MB.  On the 125-term `bigint` sets faults fell
from 182 per call to 0.

Selection: environment variable UNITCYCLE_BACKEND = numpy | python
(unset or "auto" picks numpy), read by zero_quadruples and
count_zero_quadruples on every call; the python engine counts each
segment as the length of its rows.

Size: every search has one ceiling, resolve_ceiling(): an explicit argument,
else UNITCYCLE_CEILING, else DEFAULT_CEILING.  Both engines refuse with
SearchTooLarge, before allocating anything, when the n(n+1)/2 pair sums, or
their total over the segments, exceed it (refuse_pair_sums, which
find_relations and survey_run also run, through relsearch.refuse_search,
before they build any term); the term table and the unit scans compare
their own sizes with the same number.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

BACKEND_ENV = "UNITCYCLE_BACKEND"

# Pair sums of two values up to this limit stay inside int64, and so do the
# exact sums of the segment counts' rows (perfbench and the tests import it
# too, to sort sets by size).
INT64_VALUE_LIMIT = 2**61

# A prime below 2^62, so residues and their pair sums stay in int64.  It is a
# safe prime (P - 1 = 2q, q prime): only +-1 have multiplicative order below
# q, so the powers of a term's primes do not repeat mod P.  Mod the Mersenne
# prime 2^61 - 1 they would (2^61 == 1), and every power of 2 above 2^61
# would collide with a small one and swell the join.
RESIDUE_PRIME = 2**62 - 10565

DEFAULT_CEILING = 2_000_000
CEILING_ENV = "UNITCYCLE_CEILING"

# The most pair sums a survey puts in one join, when its ceiling allows:
# survey_run(20, 5) took longer with batches of 2^16 or 2^18 pair sums, and
# longer still, with three times the peak RSS, in joins of the default
# ceiling (module docstring).
BATCH_PAIR_SUMS = 2**17


class SearchTooLarge(RuntimeError):
    """A search would exceed a configured resource ceiling."""


def resolve_ceiling(explicit: int | None = None) -> int:
    """Effective search ceiling: explicit argument, else UNITCYCLE_CEILING, else default.

    A negative or non-integer ceiling is an input error (ValueError) that
    names its source, not a search too large.
    """
    if explicit is not None:
        if explicit < 0:
            raise ValueError(f"--ceiling must be a nonnegative integer, got {explicit}")
        return explicit
    env = os.environ.get(CEILING_ENV, "").strip()
    if not env:
        return DEFAULT_CEILING
    try:
        value = int(env)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise ValueError(f"{CEILING_ENV} must be a nonnegative integer, got {env!r}")
    return value


def refuse_pair_sums(limit: int, *sizes: int) -> None:
    """Raise SearchTooLarge when the pair sums of segments of these sizes,
    n(n+1)/2 for each size n, exceed limit in all."""
    npairs = sum(n * (n + 1) // 2 for n in sizes)
    if npairs > limit:
        raise SearchTooLarge(f"{npairs} pair sums exceed the ceiling {limit}")


def available_backends() -> tuple[str, ...]:
    return ("numpy", "python")


def active_backend() -> str:
    """Resolve the backend from UNITCYCLE_BACKEND; read on every call."""
    env = os.environ.get(BACKEND_ENV, "").strip().lower()
    if env in ("", "auto"):
        return "numpy"
    if env in ("numpy", "python"):
        return env
    raise ValueError(f"unrecognized {BACKEND_ENV} value {env!r}")


def _signed_descending(values: Sequence[int]) -> list[int]:
    """Interleave +v, -v for v descending: canonical order (|w| desc, w desc)."""
    w: list[int] = []
    for v in sorted(values, reverse=True):
        w.append(v)
        w.append(-v)
    return w


def _zero_quads_python(values: Sequence[int]) -> list[tuple[int, int, int, int]]:
    w = _signed_descending(values)
    m = len(w)
    buckets: dict[int, list[tuple[int, int]]] = {}
    for i in range(m):
        wi = w[i]
        for j in range(i, m):
            buckets.setdefault(wi + w[j], []).append((i, j))
    out: list[tuple[int, int, int, int]] = []
    for s, prefixes in buckets.items():
        if s == 0:
            continue
        # W is closed under negation, so the bucket of -s exists with that of s.
        suffixes = buckets[-s]
        for i, j in prefixes:
            if w[i] <= 0:
                continue
            for k, l in suffixes:
                if j > k:
                    continue
                # The total is 0, so w[j] + w[k] == 0 or w[j] + w[l] == 0
                # would force w[i] + w[l] == 0 or w[i] + w[k] == 0.
                if w[i] + w[k] == 0 or w[i] + w[l] == 0:
                    continue
                out.append((w[i], w[j], w[k], w[l]))
    out.sort()
    return out


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [starts[x], starts[x] + counts[x]), concatenated, in counts' dtype."""
    ends = counts.cumsum(dtype=counts.dtype)
    flat = (starts - ends + counts).repeat(counts)
    flat += np.arange(len(flat), dtype=flat.dtype)
    return flat


def _pair_widths(sizes: Sequence[int]) -> np.ndarray:
    """For each term of segments of these sizes, laid end to end, the number
    of terms from it to the end of its segment, as int32."""
    return np.concatenate([np.arange(n, 0, -1, dtype=np.int32) for n in sizes])


def _pair_table(sizes: int | Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The pairs b <= c of term indices within each segment of these sizes
    (one int for one segment), segment by segment and each in row-major
    order, as int32 arrays: n(n+1)/2 pairs for a segment of n terms."""
    width = _pair_widths([sizes] if isinstance(sizes, int) else sizes)
    terms = np.arange(len(width), dtype=np.int32)
    return terms.repeat(width), _ranges(terms, width)


# Fibonacci hashing: 2^64 divided by the golden ratio, odd.  The top bits of
# key * _HASH_MULT mod 2^64 spread residues evenly over the presence table.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)

# Segment s of a join adds the tag s * _TAG_STEP mod P to its b-side keys.
# The tags are distinct mod P, and this step spreads them like the hash
# does.  With a step of 1, nearby sums of neighbouring segments share keys:
# a batch of 248 five-prime subsets built 8.79M candidate rows instead of
# 59,410 (and with every tag 0 it counted 5.2M relations, not 31,379).
_TAG_STEP = int(_HASH_MULT) % RESIDUE_PRIME


def _slots(keys: np.ndarray, bits: int) -> np.ndarray:
    """Each int64 key's slot in a table of 2**bits: the top bits of its hash.

    The slots come back as int64, which numpy indexes with no copy (it
    converts a uint64 index array first).
    """
    slots = keys.view(np.uint64) * _HASH_MULT
    slots >>= np.uint64(64 - bits)
    return slots.view(np.int64)


# The largest presence table that gives a key more than two to four slots:
# 2^17 one-byte flags, 128 KB.  A larger table cost more to fill and probe
# than its fewer false probes saved (2^19 flags on 32,896 keys).
_PRESENCE_BITS = 17


def _maybe_members(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """The indices, ascending, of the probes whose hash slot holds some key.

    The presence table has one flag per slot: 16 to 32 slots per key while
    that fits in 2**_PRESENCE_BITS flags, fewer up to that size, and never
    fewer than two to four.  A probe equal to a key has that key's slot, so
    this drops no member; the probes it keeps that are not members are for
    the caller's exact test.
    """
    k = len(keys).bit_length()
    bits = max(k + 1, min(k + 4, _PRESENCE_BITS))
    present = np.zeros(1 << bits, dtype=bool)
    present[_slots(keys, bits)] = True
    return present[_slots(probes, bits)].nonzero()[0]


def _find(table: np.ndarray, probes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, first): the indices x of the probes equal to some key of the sorted
    int64 array table, and for each the position of its first equal key.

    One left search finds where each probe would sit; it is a member if the
    key there equals it.  A probe above every key sits past the end, and the
    clip compares it with the last key instead.
    """
    first = table.searchsorted(probes)
    x = (table.take(first, mode="clip") == probes).nonzero()[0]
    return x, first[x]


def _segment_tags(sizes: Sequence[int]) -> np.ndarray:
    """Each term's tag, s * _TAG_STEP mod P for a term of segment s, as int64."""
    tags = [s * _TAG_STEP % RESIDUE_PRIME for s in range(len(sizes))]
    return np.array(tags, dtype=np.int64).repeat(sizes)


def _join(vals: list[int], sizes: Sequence[int]):
    """The numpy engine's join over segments of these sizes, laid end to end
    in vals, each segment's distinct values largest first.

    Returns (b, c, outer, inner, two_two): the pair table's columns, and for
    each candidate row the indices of its outer pair (u, v) and inner pair
    (b, c) in that table; the first two_two rows are 2-2, v_u + v_v =
    v_b + v_c, and the rest 3-1, v_u = v_b + v_c + v_v.  Every relation
    of a segment is one row.  A row whose sum vanishes only mod
    RESIDUE_PRIME, or whose terms come from two segments, is a row too,
    and its exact sum is not 0.
    """
    # Term t is v_t = vals[t], the t-th largest value of its segment.
    key = np.array([x % RESIDUE_PRIME for x in vals], dtype=np.int64)
    # S: the pairs b <= c of each segment, keyed by v_b + v_c, the one sorted
    # table.  The stable sort keeps the row-major order of the pair table
    # inside each equal-key run, so b does not decrease along a run.  Term
    # indices are int32, and each table-sized array is dropped once it has
    # been read (the module docstring says why: heap trim and page faults).
    # Only the rows the join builds are mapped back through `order`; b and c
    # stay in pair order.
    b, c = _pair_table(sizes)
    # The b-side and c-side keys give both the sums and, in pair order, the
    # 3-1 differences v_b - v_c = 2 v_b - (v_b + v_c), with no third array.
    # The b-side keys carry their segment's tag, so the sums and the
    # differences both do.  They repeat as b's values do, because numpy
    # gathers through an int32 index several times slower than through an
    # intp one.  The c-side keeps the int32 gather: an intp copy of c saved
    # 15 us on 125 terms but cost 190 us on 256, where its extra table-sized
    # block is trimmed from the heap and faulted in again on every call.
    # Segment 0's tag is 0, so a one-segment join adds none.
    tagged = key
    if len(sizes) > 1:
        tagged = key + _segment_tags(sizes)
        np.subtract(tagged, RESIDUE_PRIME, out=tagged, where=tagged >= RESIDUE_PRIME)
    sums = tagged.repeat(_pair_widths(sizes))
    diffs = key[c]
    sums += diffs
    diffs *= -2
    diffs += sums
    np.subtract(sums, RESIDUE_PRIME, out=sums, where=sums >= RESIDUE_PRIME)
    np.add(diffs, RESIDUE_PRIME, out=diffs, where=diffs < 0)
    # 3-1, v_a = v_b + v_c + v_d: the differences v_a - v_d over the pairs
    # (a, d) of S, each looked up in S.  The presence filter runs before the
    # sort, on the same set of sums, so only the differences it keeps live
    # on through the sort.
    maybe = _maybe_members(sums, diffs)
    wanted = diffs[maybe]
    del diffs
    order = sums.argsort(kind="stable")
    ss = sums[order]
    del sums
    found, hit_first = _find(ss, wanted)
    hit = maybe[found]
    del maybe, wanted, found
    # 2-2, v_b + v_c = v_b' + v_c': every two members x < y of a run.  The
    # positions whose right neighbour has the same key are the possible x:
    # every member of a run of two or more but its last.
    run = (ss[1:] == ss[:-1]).nonzero()[0]
    # One lookup per outer pair, the 2-2 ones first, each as its index in
    # the pair table.  Its matches, the inner pairs, run from `first` to the
    # end of the run that holds ss[first].  Only these lookups take the
    # right-side search.
    outer = np.concatenate([order[run], hit])
    first = np.concatenate([run + 1, hit_first])
    counts = ss.searchsorted(ss[first], side="right") - first
    del ss
    two_two = counts[: len(run)].sum()
    inner = order[_ranges(first, counts)]
    del order
    return b, c, outer.repeat(counts), inner, two_two


def _ranked_rows(vals: list[int]) -> np.ndarray:
    """The join over the distinct values vals, largest first, as one segment.

    Returns a 4 x k array whose columns are the candidate rows, each as the
    ranks of its four terms among the 2n signed values in ascending order,
    and the columns sorted by value as the python engine sorts its rows.
    Each relation is one column; sums that vanish only mod RESIDUE_PRIME add
    columns that are not relations.
    """
    n = len(vals)
    m = 2 * n
    if m**4 > 2**63:
        raise SearchTooLarge(f"{m} signed terms overflow the int64 row key")
    b, c, outer, inner, two_two = _join(vals, [n])
    # A row holds the value ranks of +v_u, -v_b, -v_c and +-v_v for an outer
    # pair (u, v) and an inner pair (b, c); in ascending value order, +v_t
    # has rank m-1-t and -v_t rank t.  Two distinct 2-2 pairs with one sum
    # share no term, so b < b' along a run and then c > c': the row
    # (+v_u, -v_b, -v_c, +v_v) is in canonical order (|w| descending, then
    # w descending).  A 3-1 row (+v_u, -v_b, -v_c, -v_v) has u < b <= c, and
    # keeping c <= v makes v the smallest of its three negative terms, so
    # each relation comes out once; a 2-2 row always passes that test.  Both
    # shapes are subsum-free: no term meets its own negation, and none
    # vanishes because the values are positive.
    rows = np.array([b[outer], b[inner], c[inner], c[outer]])
    np.subtract(m - 1, rows[0], out=rows[0])
    np.subtract(m - 1, rows[3, :two_two], out=rows[3, :two_two])
    rows = rows[:, rows[2] <= rows[3]]
    # The four ranks packed in base m sort the rows as the python engine
    # does.  The key is below m**4, which fits int64 for m <= 55,108 (checked
    # above); at the default ceiling, n(n+1)/2 <= DEFAULT_CEILING keeps
    # m <= 3,998.  Distinct rows give distinct keys.  The stable sort is the
    # one the pair table already uses; the default quicksort saved 0.04 s on
    # 1.3M rows but paged in about 0.3 MB more of numpy's code per process.
    return rows[:, (np.array([m**3, m**2, m, 1]) @ rows).argsort(kind="stable")]


def _segment_counts(vals: list[int], sizes: Sequence[int]) -> np.ndarray:
    """The number of relations of each segment: the rows of one join whose
    exact sum is 0, counted by segment, with no rank rows and no row sort."""
    b, c, outer, inner, two_two = _join(vals, sizes)
    low, tail = c[inner], c[outer]
    # The ranked rows' test c <= v, on term indices.  A 2-2 relation passes
    # it too: its inner pair comes later in its run, so b' > b and c' < c.
    keep = (low <= tail).nonzero()[0]
    low, tail = low[keep], tail[keep]
    head, mid = b[outer[keep]], b[inner[keep]]
    del b, c, outer, inner
    # Values up to INT64_VALUE_LIMIT keep every partial sum of a row below
    # 3 * 2^61 in magnitude, so int64 sums them exactly; larger ones are
    # summed as ints.
    value = np.array(vals, dtype=np.int64 if max(vals) <= INT64_VALUE_LIMIT else object)
    total = value[head] - value[mid] - value[low]
    last = value[tail]
    total += np.where(keep < two_two, last, -last)
    segment = np.arange(len(sizes)).repeat(sizes)
    return np.bincount(segment[head[total == 0]], minlength=len(sizes))


def _zero_quads_numpy(values: Sequence[int]) -> list[tuple[int, int, int, int]]:
    vals = sorted(values, reverse=True)
    # Residue keys match every sum that vanishes mod P; keep those that vanish.
    # Rows of sums that vanish only mod P need not obey the rules of the join,
    # and this drops them all.  The object gather hands back the caller's own
    # ints.  Every array of the join is freed before the gather starts, so
    # this phase, the search's peak, reuses their memory: on medium the
    # kernel peaks at 130 MB RSS, and at 162 MB with them held to the end.
    # The rows are zipped from the four object columns, with no list per
    # row (the large kernel peaked at 308 MB with one, 220 MB without) and
    # no list per column, whose heap blocks stay resident under the result
    # (9.5 MB more peak RSS for medium's find_relations).
    quads = np.array([-x for x in vals] + vals[::-1], dtype=object)[_ranked_rows(vals)]
    return list(zip(*quads[:, quads.sum(axis=0) == 0]))


def _require_distinct_positive(vs: list[int]) -> None:
    if min(vs) <= 0 or len(set(vs)) != len(vs):
        raise ValueError("term values must be distinct positive integers")


def zero_quadruples(
    values: Iterable[int],
    *,
    ceiling: int | None = None,
) -> list[tuple[int, int, int, int]]:
    """All canonical subsum-free vanishing quadruples over ±values.

    `values` must be distinct positive integers.  Rows come back sorted
    lexicographically, identically for every backend.  More than
    resolve_ceiling(ceiling) pair sums n(n+1)/2 raise SearchTooLarge.
    """
    vs = list(values)
    if not vs:
        return []
    _require_distinct_positive(vs)
    refuse_pair_sums(resolve_ceiling(ceiling), len(vs))
    if active_backend() == "python":
        return _zero_quads_python(vs)
    return _zero_quads_numpy(vs)


def count_zero_quadruples(
    segments: Iterable[Iterable[int]],
    *,
    ceiling: int | None = None,
) -> list[int]:
    """len(zero_quadruples(segment)) for each segment, from one join over all.

    Each segment must be distinct positive integers; segments may share
    values.  More than resolve_ceiling(ceiling) pair sums in all, n(n+1)/2
    for each segment of n values, raise SearchTooLarge.
    """
    segs = [sorted(segment, reverse=True) for segment in segments]
    for vs in filter(None, segs):
        _require_distinct_positive(vs)
    sizes = [len(vs) for vs in segs]
    refuse_pair_sums(resolve_ceiling(ceiling), *sizes)
    if active_backend() == "python":
        return [len(_zero_quads_python(vs)) for vs in segs]
    vals = [v for vs in segs for v in vs]
    if not vals:
        return [0] * len(segs)
    return _segment_counts(vals, sizes).tolist()
