"""Engines for the 4-term vanishing-sum search over a signed term set.

Given the distinct positive term values v_0 > v_1 > ... the search works on
the signed array W = (+v_0, -v_0, +v_1, -v_1, ...), which is in the canonical
order (|w| descending, then w descending).  A hit is an index quadruple
i <= j <= k <= l with

    W[i] + W[j] + W[k] + W[l] == 0,   W[i] > 0,
    no two of the four summing to zero (subsum-free),

reported as the value quadruple (W[i], W[j], W[k], W[l]).

Every hit has one of two shapes: 2-2, v_a + v_b = v_c + v_d, or 3-1,
v_a = v_b + v_c + v_d.  In a 3-1 hit with v_b >= v_c >= v_d, v_a <= 3 v_b,
so bitlen(v_b) >= bitlen(v_a) - 2: the largest subtrahend lies within two
bits of v_a.  The values of an S-unit box spread geometrically, so few
pairs are that close.  The numpy engine builds one table, row by row: row
b holds the probes (a, b), a < b within that window, keyed by v_a - v_b,
and then the pairs (b, c), c >= b, keyed by v_b + v_c.  It packs each key
as one uint64 word, the top bits of its Fibonacci hash above the entry's
index, and sorts the words once, in place.  Equal keys form one run, in
table order; the words are distinct, so the sort need not be stable.  Runs
are read off the neighbours with equal words above the index bits, so only
runs of two or more are expanded: every two entries x < y of a run whose y
is a pair (c, d).  A pair at x gives a 2-2 row and a probe (a, b) a 3-1 row;
table order puts b <= c in both, so each relation comes out once, with b
the largest subtrahend of a 3-1 row.  A y that is a probe repeats a
relation found from another entry and is dropped: on {2,3,5,7} general:4,
625 terms, the runs give 751,106 candidates for 415,963 rows, where the
earlier join, which looked every pair's difference up in the sorted sums,
built 813,227.  Keys that share only the top bits of their hashes land in
one run too, and the exact-sum test drops their rows.
The python engine matches negated two-term sums: enumerate pairs (a <= b),
bucket by sum, and join each bucket with its negation under the interleave
constraint b <= c, which yields every sorted quadruple exactly once.

Segments: one numpy join can search many term sets at once.  Their term
lists, each largest first, are laid end to end, and the table holds the
probes and pairs within each segment, offset by the terms before it.
Segment s adds a tag t_s = s * _TAG_STEP mod RESIDUE_PRIME to the partner
side of its keys, so its sums and its differences both carry t_s, at the
cost of one pass over the terms, none over the table.  A row that joins
segments s != s' matches only when its exact sum is congruent to
t_s - t_s' or t_s' - t_s mod P, which is not 0 because the tags are
distinct mod P; the exact-sum test that drops residue collisions drops
these rows too.  Segment 0's tag is 0, so a one-segment join adds none,
and zero_quadruples is the one-segment case of the same join.
count_zero_quadruples returns, per segment, the number of rows whose exact
sum is 0, with no rank rows, no row sort and no Relation objects;
survey_run counts every subset with it.
The survey puts at most min(ceiling, BATCH_PAIR_SUMS = 2^17) pair sums in
one join.  survey_run(20, 5), 15,504 subsets of 528 pair sums each, took
0.90-0.92 s and 38.8 MB peak RSS with batches of 2^17 pair sums, 0.94-1.01 s
and 35.0 MB with 2^16, 1.03-1.10 s and 44.4 MB with 2^18, and 1.17 s and
122 MB with the default ceiling's 2M, when the join looked every pair's
difference up in the sorted sums; with the probes of the two-bit window
it takes 0.63 s against 0.88 s (2 vCPU, Python 3.11, numpy 2.4).

Two interchangeable engines:

  * numpy  - vectorized int64 kernel (default), for terms of any size.  Terms
             are joined on their residues mod RESIDUE_PRIME, which equal
             their values below it.  A vanishing sum vanishes mod every
             prime, so the residue join loses no hit, and an exact sum of
             each hit drops the false positives.
  * python - pure-Python hash join on unbounded integers, the reference.

Memory: the numpy engine keeps term indices in int32, computes keys in
place, and drops each table-sized array once it has been read; the one
spare table-sized buffer, which takes the other candidate of each key's
reduction mod P, then takes the XOR of the sorted neighbours.  This is for
speed as much as size.  When a call frees a heap's worth of temporaries
together, glibc trims the top of the heap back to the OS, and the next call
faults those pages in again.  On the benchmark's 256-term `wide` sets,
int64 indices with every temporary held to the end cost 1,040 minor page
faults per call and a traced peak of 3.98 MB; the join of every pair's
difference took 1.24 MB, and the table of close probes takes 1.23 MB.
find_relations on those sets takes 260 faults per call, against 290 with
that earlier join; zero_quadruples alone takes 115-261, against 193-209,
as the heap left by the process's earlier calls decides what is trimmed.
On the 125-term `bigint` sets calls take none.
The table holds at most n^2 entries for n terms: the n(n+1)/2 pair sums
that the ceiling counts, and fewer probes than that.  The sort loads
numpy's quicksort code for uint64, and the row sort its quicksort argsort
for int64, where the earlier join used only its stable argsort: about
0.4-0.8 MB more peak RSS per process, once.

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
    ends = np.add.accumulate(counts, dtype=counts.dtype)
    flat = (starts - ends + counts).repeat(counts)
    flat += np.arange(len(flat), dtype=flat.dtype)
    return flat


def _pair_widths(sizes: Sequence[int]) -> np.ndarray:
    """For each term of segments of these sizes, laid end to end, the number
    of terms from it to the end of its segment, as int32."""
    return np.concatenate([np.arange(n, 0, -1, dtype=np.int32) for n in sizes])


def _pair_table(width: np.ndarray, low: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The join's table as two int32 columns, each entry's row t and partner.

    Row t holds the partners low[t], ..., t - 1, which make the probes
    (a, t) with a < t, and then t, ..., to the end of its segment, which
    make the pairs (t, c) with c >= t; `width` is `_pair_widths(sizes)`.
    With low[t] = t there are no probes, and the table is the pairs b <= c
    of each segment in row-major order: n(n+1)/2 for a segment of n terms.
    """
    terms = np.arange(len(width), dtype=np.int32)
    count = terms - low + width
    return terms.repeat(count), _ranges(low, count)


# Fibonacci hashing: 2^64 divided by the golden ratio, odd.  Multiplying by
# it mod 2^64 permutes uint64, and the top bits of the product spread keys
# evenly; the join sorts its table by those bits.  The constants are 0-d
# arrays, which numpy applies in about half the time of a scalar: most
# arrays of a small search hold a few dozen entries.
_HASH_MULT = np.array(0x9E3779B97F4A7C15, dtype=np.uint64)
_PRIME = np.array(RESIDUE_PRIME, dtype=np.uint64)

# Segment s of a join adds the tag s * _TAG_STEP mod P to the partner side
# of its keys.  The tags are distinct mod P, and this step spreads them
# like the hash does.  With a step of 1, nearby sums of neighbouring
# segments share keys: a batch of 248 five-prime subsets built 8.79M
# candidate rows instead of 59,410 (and with every tag 0 it counted 5.2M
# relations, not 31,379).
_TAG_STEP = int(_HASH_MULT) % RESIDUE_PRIME


def _segment_tags(sizes: Sequence[int]) -> np.ndarray:
    """Each term's tag, s * _TAG_STEP mod P for a term of segment s, as uint64."""
    tags = [s * _TAG_STEP % RESIDUE_PRIME for s in range(len(sizes))]
    return np.array(tags, dtype=np.uint64).repeat(sizes)


def _join(vals: list[int], sizes: Sequence[int]) -> np.ndarray:
    """The numpy engine's join over segments of these sizes, laid end to end
    in vals, each segment's distinct values largest first.

    Returns a 4 x k int32 array whose columns are the candidate rows as term
    indices (t0, t1, t2, t3), each standing for s v_t0 - v_t1 - v_t2 +
    v_t3 = 0.  A 2-2 row, v_t0 + v_t3 = v_t1 + v_t2, has t0 <= t3 and
    s = 1; a 3-1 row, v_t3 = v_t0 + v_t1 + v_t2, has t3 < t0 <= t1 <= t2
    and s = -1.  Every relation of a segment is one row.  A row whose sum
    vanishes only mod RESIDUE_PRIME, whose keys share only the top bits of
    their hashes, or whose terms come from two segments, is a row too, and
    its exact sum is not 0.
    """
    # Term t is v_t = vals[t], the t-th largest value of its segment; its
    # key is v_t mod P as uint64, whose wrap-around the reductions use.
    key = np.array([x % RESIDUE_PRIME for x in vals], dtype=np.uint64)
    # `level` does not decrease along vals: minus each term's bit length,
    # plus a step per segment that keeps segments more than 2 apart.
    level = np.array([-x.bit_length() for x in vals])
    width = _pair_widths(sizes)
    tagged = key
    if len(sizes) > 1:
        tagged = key + _segment_tags(sizes)
        np.minimum(tagged, tagged - _PRIME, out=tagged)
        level += np.arange(len(sizes)).repeat(sizes) * (3 - level.min())
    # 3-1, v_a = v_b + v_c + v_d with v_b >= v_c >= v_d: then v_a <= 3 v_b,
    # so bitlen(v_b) >= bitlen(v_a) - 2.  The probes are the pairs a < b of
    # a segment within that window.  The end of a's window does not
    # decrease along vals either, so low[b], the first a whose window
    # holds b, is a search in those ends; b's probes are low[b], ..., b - 1.
    terms = np.arange(len(vals), dtype=np.int32)
    low = level.searchsorted(level + 2, side="right").searchsorted(terms, side="right")
    low = low.astype(np.int32)
    # The one table: row b holds its probes (a, b), keyed by v_a - v_b,
    # then its pairs (b, c), keyed by v_b + v_c.  A key is P - v_b or v_b,
    # repeated over the row's probes or pairs, plus the partner's key,
    # which carries the segment tag; it is below 2P, and reduced mod P as
    # the smaller of x and x - P in unsigned words.  Term indices are
    # int32, and each table-sized array is dropped once it has been read
    # (the module docstring says why: heap trim and page faults).
    row, partner = _pair_table(width, low)
    count = np.empty(2 * len(vals), dtype=np.intp)
    count[0::2] = terms - low
    count[1::2] = width
    words = np.empty(2 * len(vals), dtype=np.uint64)
    np.subtract(_PRIME, key, out=words[0::2])
    words[1::2] = key
    words = words.repeat(count)
    spare = tagged.take(partner)
    words += spare
    np.subtract(words, _PRIME, out=spare)
    np.minimum(words, spare, out=words)
    # The one sort, in place: each key packed as one word, the top bits of
    # its hash above its index in the table.  Equal keys form one run, in
    # table order; the words are distinct, so the sort need not be stable.
    # Keys that share only the top bits land in one run as well, and add
    # rows whose exact sum is not 0.
    mask = np.array((1 << (len(words) - 1).bit_length()) - 1, dtype=np.uint64)
    words *= _HASH_MULT
    words &= ~mask
    words |= np.arange(len(words), dtype=np.uint64)
    words.sort()
    # Every two entries x < y of a run, y a pair (c, d) with c <= d: a pair
    # (b, c') at x gives a 2-2 row, a probe (a, b) a 3-1 row, and table
    # order puts b <= c in both, so each relation comes out once.  A probe
    # at y repeats a relation found from another entry, and is dropped.
    same = np.bitwise_xor(words[1:], words[:-1], out=spare[1:])
    run = (same <= mask).nonzero()[0]
    del spare, same
    heads = words[run]
    first = run + 1
    counts = words.searchsorted(heads | mask, side="right") - first
    heads &= mask
    outer = heads.view(np.int64).repeat(counts)
    inner = words.take(_ranges(first, counts))
    del words
    inner &= mask
    inner = inner.view(np.int64)
    rows = np.array(
        [row.take(outer), row.take(inner), partner.take(inner), partner.take(outer)]
    )
    return rows.compress(rows[1] <= rows[2], axis=1)


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
    rows = _join(vals, [n])
    # In ascending value order, +v_t has rank m-1-t and -v_t rank t.  A 2-2
    # row's ranks are those of +v_t0, -v_t1, -v_t2, +v_t3, and a 3-1 row's,
    # reordered, of +v_t3, -v_t0, -v_t1, -v_t2: both in canonical order
    # (|w| descending, then w descending), and subsum-free, since no term
    # meets its own negation and none vanishes.
    three = (rows[3] < rows[0]).nonzero()[0]
    np.subtract(m - 1, rows[0], out=rows[0])
    np.subtract(m - 1, rows[3], out=rows[3])
    ranks = rows.take(three, axis=1)
    np.subtract(m - 1, ranks[0], out=ranks[0])
    rows[:, three] = ranks.take([3, 0, 1, 2], axis=0)
    # The four ranks packed in base m sort the rows as the python engine
    # does.  The key is below m**4, which fits int64 for m <= 55,108 (checked
    # above); at the default ceiling, n(n+1)/2 <= DEFAULT_CEILING keeps
    # m <= 3,998.  Distinct rows give distinct keys, so the sort need not
    # be stable.
    return rows.take((np.array([m**3, m**2, m, 1]) @ rows).argsort(), axis=1)


def _segment_counts(vals: list[int], sizes: Sequence[int]) -> np.ndarray:
    """The number of relations of each segment: the rows of one join whose
    exact sum is 0, counted by segment, with no rank rows and no row sort."""
    rows = _join(vals, sizes)
    # Values up to INT64_VALUE_LIMIT keep every partial sum of a row below
    # 3 * 2^61 in magnitude, so int64 sums them exactly; larger ones are
    # summed as ints.
    value = np.array(vals, dtype=np.int64 if max(vals) <= INT64_VALUE_LIMIT else object)
    first = value[rows[0]]
    total = value[rows[3]] - value[rows[1]] - value[rows[2]]
    total += np.where(rows[0] <= rows[3], first, -first)
    segment = np.arange(len(sizes)).repeat(sizes)
    return np.bincount(segment[rows[0][total == 0]], minlength=len(sizes))


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
    quads = np.array([-x for x in vals] + vals[::-1], dtype=object).take(_ranked_rows(vals))
    return list(zip(*quads.compress(quads[0] + quads[1] + quads[2] + quads[3] == 0, axis=1)))


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
