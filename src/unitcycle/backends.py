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
their matches (3-1).  The python engine matches negated two-term sums:
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

Selection: environment variable UNITCYCLE_BACKEND = numpy | python
(unset or "auto" picks numpy).

Size: every search has one ceiling, resolve_ceiling(): an explicit argument,
else UNITCYCLE_CEILING, else DEFAULT_CEILING.  Both engines refuse with
SearchTooLarge, before allocating anything, when the n(n+1)/2 pair sums
exceed it; the term table and the unit scans compare their own sizes with
the same number.
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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the ranges [starts[x], starts[x] + counts[x]).

    Returns each element's range x and the element itself.
    """
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, starts[owner] + offset


def _value_order(rows: np.ndarray, m: int) -> np.ndarray:
    """The permutation that sorts index rows into W lexicographically by value.

    This is the order the python engine sorts in: index 2t holds +v_t, the
    (m-1-t)-th smallest entry of W, and 2t+1 holds -v_t, the t-th.  The four
    ranks packed in base m sort in the same order.  The key is below m**4,
    which fits int64 for m <= 55,108 (the numpy engine checks on entry); at
    the default ceiling, n(n+1)/2 <= DEFAULT_CEILING keeps m = 2n <= 3,998.
    Distinct rows give distinct keys, so any sort gives the one permutation.
    The stable sort is the one the pair table already uses; the default
    quicksort saved 0.04 s on 1.3M rows but paged in about 0.3 MB more of
    numpy's code in every process.
    """
    idx = np.arange(m)
    rank = np.where(idx % 2 == 0, m - 1 - idx // 2, idx // 2)
    packed = rank[rows[:, 0]]
    for col in (1, 2, 3):
        packed = packed * m + rank[rows[:, col]]
    return np.argsort(packed, kind="stable")


def _zero_quads_numpy(values: Sequence[int]) -> list[tuple[int, int, int, int]]:
    # Term t is v_t, the t-th largest value: W index 2t holds +v_t, 2t+1 -v_t.
    w = _signed_descending(values)
    n = len(w) // 2
    if (2 * n) ** 4 > 2**63:
        raise SearchTooLarge(f"{2 * n} signed terms overflow the int64 row key")
    key = np.array([x % RESIDUE_PRIME for x in w[::2]], dtype=np.int64)
    # S: the pairs b <= c keyed by v_b + v_c, the one sorted table.  The stable
    # sort keeps the row-major order of triu_indices inside each equal-key
    # run, so b does not decrease along a run.
    b, c = np.triu_indices(n)
    sums = key[b] + key[c]
    sums[sums >= RESIDUE_PRIME] -= RESIDUE_PRIME
    order = np.argsort(sums, kind="stable")
    ss, sb, sc = sums[order], b[order], c[order]
    # 2-2, v_b + v_c = v_b' + v_c': every two members x < y of a run.  Two
    # distinct pairs with one sum share no term, so b < b', and the pair
    # holding the smaller term index, x, is the positive side.  y runs over
    # the positions after x up to the end of its run.
    later = np.arange(1, len(ss) + 1)
    x, y = _ranges(later, np.searchsorted(ss, ss, side="right") - later)
    # 3-1, v_a = v_b + v_c + v_d: the differences a < d (the pairs of S with
    # b < c), keyed by v_a - v_d, each looked up in S.  Keeping c <= d makes d the smallest of the three
    # terms, so each relation comes out once; v_a > v_b gives a < b.
    a, d = b[b < c], c[b < c]
    diffs = key[a] - key[d]
    diffs[diffs < 0] += RESIDUE_PRIME
    lo = np.searchsorted(ss, diffs, side="left")
    f, g = _ranges(lo, np.searchsorted(ss, diffs, side="right") - lo)
    keep = sc[g] <= d[f]
    f, g = f[keep], g[keep]
    two_two = np.stack([2 * sb[x], 2 * sc[x], 2 * sb[y] + 1, 2 * sc[y] + 1], axis=1)
    three_one = np.stack([2 * a[f], 2 * sb[g] + 1, 2 * sc[g] + 1, 2 * d[f] + 1], axis=1)
    # Both shapes are subsum-free: a 2-2 row's pairs share no term and a
    # 3-1 row's a is none of b, c, d, so no term meets its own negation, and
    # no single term vanishes because the values are positive.  A row is its
    # four indices in ascending order, because W is in canonical order; the
    # 3-1 rows are built in it (a < b <= c <= d).
    rows = np.concatenate([np.sort(two_two, axis=1), three_one])
    rows = rows[_value_order(rows, 2 * n)]
    # Residue keys match every sum that vanishes mod P; keep those that vanish.
    # The object gather hands back the caller's own ints.
    quads = np.array(w, dtype=object)[rows]
    return list(map(tuple, quads[quads.sum(axis=1) == 0].tolist()))


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
    npairs = len(vs) * (len(vs) + 1) // 2
    limit = resolve_ceiling(ceiling)
    if npairs > limit:
        raise SearchTooLarge(f"{npairs} pair sums exceed the ceiling {limit}")
    if active_backend() == "python":
        return _zero_quads_python(vs)
    return _zero_quads_numpy(vs)

