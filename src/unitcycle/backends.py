"""Engines for the 4-term vanishing-sum search over a signed term set.

Given the distinct positive term values t_1 < t_2 < ... the search works on
the signed array W = (+t, -t for t descending) ordered by the canonical
comparator (|w| descending, then w descending).  A hit is an index quadruple
i <= j <= k <= l with

    W[i] + W[j] + W[k] + W[l] == 0,   W[i] > 0,
    no two of the four summing to zero (subsum-free),

reported as the value quadruple (W[i], W[j], W[k], W[l]).  All engines match
negated two-term sums: enumerate pairs (a <= b), bucket by sum, and join each
bucket with its negation under the interleave constraint b <= c, which yields
every sorted quadruple exactly once.

Two interchangeable engines:

  * numpy  - vectorized int64 kernel (default), for terms of any size.  Terms
             up to INT64_VALUE_LIMIT are joined on their exact values; larger
             ones on their residues mod RESIDUE_PRIME.  A vanishing sum
             vanishes mod every prime, so the residue join loses no hit, and
             an exact big-int sum of each hit drops the false positives.
  * python - pure-Python hash join on unbounded integers, the reference.

Selection: environment variable UNITCYCLE_BACKEND = numpy | python
(unset or "auto" picks numpy).
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

BACKEND_ENV = "UNITCYCLE_BACKEND"

# Pair sums of two values up to this limit stay inside int64, so the numpy
# engine joins on exact values; above it, on residues mod RESIDUE_PRIME.
INT64_VALUE_LIMIT = 2**61

# A prime below 2^62, so residues and their pair sums stay in int64.  It is a
# safe prime (P - 1 = 2q, q prime): only +-1 have multiplicative order below
# q, so the powers of a term's primes do not repeat mod P.  Mod the Mersenne
# prime 2^61 - 1 they would (2^61 == 1), and every power of 2 above 2^61
# would collide with a small one and swell the join.
RESIDUE_PRIME = 2**62 - 10565

# Defensive cap on the two-term sum table, independent of the term ceiling.
DEFAULT_PAIR_CEILING = 10_000_000


class SearchTooLarge(RuntimeError):
    """A search would exceed a configured resource ceiling."""


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
        suffixes = buckets.get(-s)
        if not suffixes:
            continue
        for i, j in prefixes:
            if w[i] <= 0:
                continue
            for k, l in suffixes:
                if j > k:
                    continue
                if w[i] + w[k] == 0 or w[i] + w[l] == 0:
                    continue
                if w[j] + w[k] == 0 or w[j] + w[l] == 0:
                    continue
                out.append((w[i], w[j], w[k], w[l]))
    out.sort()
    return out


def _zero_quads_numpy(values: Sequence[int]) -> list[tuple[int, int, int, int]]:
    w = _signed_descending(values)
    m = len(w)
    exact = w[0] <= INT64_VALUE_LIMIT
    key = np.array(w if exact else [x % RESIDUE_PRIME for x in w], dtype=np.int64)
    ii, jj = np.triu_indices(m)
    sums = key[ii] + key[jj]
    if not exact:
        sums[sums >= RESIDUE_PRIME] -= RESIDUE_PRIME
    order = np.argsort(sums, kind="stable")
    ss = sums[order]
    # Every filter reads indices only, so it is exact for residue keys too:
    # W[a] > 0 exactly when a is even, W[a] + W[b] == 0 exactly when a ^ 1 == b.
    oi, oj = ii[order], jj[order]
    heads = np.flatnonzero((oi % 2 == 0) & (oi ^ 1 != oj))
    target = -ss[heads] if exact else (RESIDUE_PRIME - ss[heads]) % RESIDUE_PRIME
    lo = np.searchsorted(ss, target, side="left")
    counts = np.searchsorted(ss, target, side="right") - lo
    total = int(counts.sum())
    if total == 0:
        return []
    p = np.repeat(heads, counts)
    i, j = oi[p], oj[p]
    tails = np.arange(total) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    k, l = oi[tails], oj[tails]
    keep = (j <= k) & (i ^ 1 != k) & (i ^ 1 != l) & (j ^ 1 != k) & (j ^ 1 != l)
    rows = np.stack([i, j, k, l], axis=1)[keep]
    # Lexicographic by value, as the python engine sorts: index 2t holds +v_t,
    # the (m-1-t)-th smallest entry of W, and 2t+1 holds -v_t, the t-th.
    idx = np.arange(m)
    rank = np.where(idx % 2 == 0, m - 1 - idx // 2, idx // 2)[rows]
    rows = rows[np.lexsort(rank.T[::-1])]
    if exact:
        return list(map(tuple, key[rows].tolist()))
    quads = ((w[a], w[b], w[c], w[d]) for a, b, c, d in rows.tolist())
    return [quad for quad in quads if sum(quad) == 0]


def zero_quadruples(
    values: Iterable[int],
    *,
    max_pairs: int | None = None,
) -> list[tuple[int, int, int, int]]:
    """All canonical subsum-free vanishing quadruples over ±values.

    `values` must be distinct positive integers.  Rows come back sorted
    lexicographically, identically for every backend.
    """
    vs = list(values)
    if not vs:
        return []
    if any(v <= 0 for v in vs) or len(set(vs)) != len(vs):
        raise ValueError("term values must be distinct positive integers")
    m = 2 * len(vs)
    npairs = m * (m + 1) // 2
    ceiling = DEFAULT_PAIR_CEILING if max_pairs is None else max_pairs
    if npairs > ceiling:
        raise SearchTooLarge(
            f"two-term sum table needs {npairs} entries, above the cap {ceiling}"
        )
    if active_backend() == "python":
        return _zero_quads_python(vs)
    return _zero_quads_numpy(vs)

