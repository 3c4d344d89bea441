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
from the same two gathers of term keys as the sums.  Most of them match no
sum, so a presence table of the sums (one flag per hash slot, two to four
slots per sum) drops most of those first; each that passes takes one left
search and an equality test, and only the hits take the right-side search
that finds the end of their run.  Only the rows the join builds are mapped
back through the sort order.  The python engine matches negated two-term sums:
enumerate pairs (a <= b), bucket by sum, and join each bucket with its
negation under the interleave constraint b <= c, which yields every sorted
quadruple exactly once.

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
(unset or "auto" picks numpy).

Size: every search has one ceiling, resolve_ceiling(): an explicit argument,
else UNITCYCLE_CEILING, else DEFAULT_CEILING.  Both engines refuse with
SearchTooLarge, before allocating anything, when the n(n+1)/2 pair sums
exceed it (refuse_pair_sums, which find_relations also runs before it builds
its term table); the term table and the unit scans compare their own sizes
with the same number.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

BACKEND_ENV = "UNITCYCLE_BACKEND"

# Pair sums of two values up to this limit stay inside int64.  The package no
# longer reads it; perfbench and the tests import it to sort sets by size.
INT64_VALUE_LIMIT = 2**61

# A prime below 2^62, so residues and their pair sums stay in int64.  It is a
# safe prime (P - 1 = 2q, q prime): only +-1 have multiplicative order below
# q, so the powers of a term's primes do not repeat mod P.  Mod the Mersenne
# prime 2^61 - 1 they would (2^61 == 1), and every power of 2 above 2^61
# would collide with a small one and swell the join.
RESIDUE_PRIME = 2**62 - 10565

DEFAULT_CEILING = 2_000_000
CEILING_ENV = "UNITCYCLE_CEILING"


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


def refuse_pair_sums(n: int, limit: int) -> None:
    """Raise SearchTooLarge when the n(n+1)/2 pair sums of n terms exceed limit."""
    npairs = n * (n + 1) // 2
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


def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n(n+1)/2 pairs b <= c of 0..n-1 in row-major order, as int32 arrays."""
    terms = np.arange(n, dtype=np.int32)
    width = n - terms
    return terms.repeat(width), _ranges(terms, width)


# Fibonacci hashing: 2^64 divided by the golden ratio, odd.  The top bits of
# key * _HASH_MULT mod 2^64 spread residues evenly over the presence table.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _slots(keys: np.ndarray, bits: int) -> np.ndarray:
    """Each int64 key's slot in a table of 2**bits: the top bits of its hash.

    The slots come back as int64, which numpy indexes with no copy (it
    converts a uint64 index array first).
    """
    slots = keys.view(np.uint64) * _HASH_MULT
    slots >>= np.uint64(64 - bits)
    return slots.view(np.int64)


def _maybe_members(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """The indices, ascending, of the probes whose hash slot holds some key.

    The presence table has one flag per slot and two to four slots per key.
    A probe equal to a key has that key's slot, so this drops no member; the
    probes it keeps that are not members are for the caller's exact test.
    """
    bits = len(keys).bit_length() + 1
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


def _ranked_rows(vals: list[int]) -> np.ndarray:
    """The numpy engine's join over the distinct values vals, largest first.

    Returns a 4 x k array whose columns are the candidate rows, each as the
    ranks of its four terms among the 2n signed values in ascending order,
    and the columns sorted by value as the python engine sorts its rows.
    Each relation is one column; sums that vanish only mod RESIDUE_PRIME add
    columns that are not relations.
    """
    # Term t is v_t = vals[t], the t-th largest value.
    n = len(vals)
    m = 2 * n
    if m**4 > 2**63:
        raise SearchTooLarge(f"{m} signed terms overflow the int64 row key")
    key = np.array([x % RESIDUE_PRIME for x in vals], dtype=np.int64)
    # S: the pairs b <= c keyed by v_b + v_c, the one sorted table.  The stable
    # sort keeps the row-major order of the pair table inside each equal-key
    # run, so b does not decrease along a run.  Term indices are int32, and
    # each table-sized array is dropped once it has been read (the module
    # docstring says why: heap trim and page faults).  Only the rows the join
    # builds are mapped back through `order`; b and c stay in pair order.
    b, c = _pair_table(n)
    # The two key gathers give both the sums and, in pair order, the 3-1
    # differences v_b - v_c = 2 v_b - (v_b + v_c), with no third array.
    sums = key[b]
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
    outer = outer.repeat(counts)
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


def _zero_quads_numpy(values: Sequence[int]) -> list[tuple[int, int, int, int]]:
    vals = sorted(values, reverse=True)
    # Residue keys match every sum that vanishes mod P; keep those that vanish.
    # Rows of sums that vanish only mod P need not obey the rules of the join,
    # and this drops them all.  The object gather hands back the caller's own
    # ints.  Every array of the join is freed before the gather starts, so
    # this phase, the search's peak, reuses their memory: on medium the
    # kernel peaks at 130 MB RSS, and at 162 MB with them held to the end.
    quads = np.array([-x for x in vals] + vals[::-1], dtype=object)[_ranked_rows(vals)]
    return list(map(tuple, quads[:, quads.sum(axis=0) == 0].T.tolist()))


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
    if any(v <= 0 for v in vs) or len(set(vs)) != len(vs):
        raise ValueError("term values must be distinct positive integers")
    refuse_pair_sums(len(vs), resolve_ceiling(ceiling))
    if active_backend() == "python":
        return _zero_quads_python(vs)
    return _zero_quads_numpy(vs)

