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

  * numpy  - vectorized int64 kernel (default)
  * python - unbounded integers; also the overflow path when term values
             do not fit comfortably in int64

Selection: environment variable UNITCYCLE_BACKEND = numpy | python
(unset or "auto" picks numpy).
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

BACKEND_ENV = "UNITCYCLE_BACKEND"

# Pair sums of two values below this limit stay inside int64.
INT64_VALUE_LIMIT = 2**61

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


def _zero_quads_numpy(w_arr: np.ndarray) -> list[tuple[int, int, int, int]]:
    w = w_arr
    m = w.shape[0]
    ii, jj = np.triu_indices(m)
    sums = w[ii] + w[jj]
    order = np.argsort(sums, kind="stable")
    ss = sums[order]
    lo = np.searchsorted(ss, -ss, side="left")
    hi = np.searchsorted(ss, -ss, side="right")
    counts = hi - lo
    counts[ss == 0] = 0
    counts[w[ii[order]] <= 0] = 0
    total = int(counts.sum())
    if total == 0:
        return []
    t_rep = np.repeat(np.arange(counts.shape[0]), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    u = np.arange(total) - np.repeat(starts, counts) + np.repeat(lo, counts)
    p = order[t_rep]
    q = order[u]
    i, j = ii[p], jj[p]
    k, l = ii[q], jj[q]
    keep = (
        (j <= k)
        & (w[i] + w[k] != 0)
        & (w[i] + w[l] != 0)
        & (w[j] + w[k] != 0)
        & (w[j] + w[l] != 0)
    )
    rows = np.stack([w[i], w[j], w[k], w[l]], axis=1)[keep]
    rows = rows[np.lexsort(rows.T[::-1])]  # lexicographic, as the python engine sorts
    return list(map(tuple, rows.tolist()))


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
    backend = active_backend()
    if backend != "python" and max(vs) <= INT64_VALUE_LIMIT:
        return _zero_quads_numpy(np.array(_signed_descending(vs), dtype=np.int64))
    # Unbounded-integer path: chosen explicitly or forced by int64 overflow risk.
    return _zero_quads_python(vs)

