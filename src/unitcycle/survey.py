"""Prime-gap vs relation-count survey with deterministic CSV and SVG output.

Each surveyed subset of a prime pool becomes one row: the primes, their
minimum consecutive gap, and the number of canonical relations the subset
admits.  Output bytes are reproducible: fixed field order, fixed float
formatting, no timestamps.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

from .backends import BATCH_PAIR_SUMS, SearchTooLarge, count_zero_quadruples, resolve_ceiling
from .exactnum import first_primes
from .relsearch import SearchConfig, refuse_search, term_products
from .sring import InversionSet

SUBSET_CEILING = 20_000
DEFAULT_SAMPLE_SEED = 0x5EED

CSV_HEADER = "primes;min_gap;relation_count"


@dataclass(frozen=True)
class SurveyRow:
    primes: tuple[int, ...]
    min_gap: int
    relation_count: int


@dataclass(frozen=True)
class ScatterAggregate:
    """Frequency of each (min_gap, relation_count) pair, sorted."""

    points: tuple[tuple[int, int, int], ...]  # (min_gap, relation_count, frequency)

    @property
    def total(self) -> int:
        return sum(f for _, _, f in self.points)


def min_gap(s: Union[InversionSet, Sequence[int]]) -> int:
    """Minimum gap between consecutive primes of the set; needs at least two."""
    primes = s.primes if isinstance(s, InversionSet) else tuple(sorted(s))
    if len(primes) < 2:
        raise ValueError("min_gap needs at least two primes")
    return min(b - a for a, b in zip(primes, primes[1:]))


def aggregate_rows(rows: Iterable[SurveyRow]) -> ScatterAggregate:
    freq = Counter((r.min_gap, r.relation_count) for r in rows)
    return ScatterAggregate(
        tuple((g, c, n) for (g, c), n in sorted(freq.items()))
    )


def survey_run(
    pool_size: int,
    subset_size: int,
    mode: SearchConfig | None = None,
    *,
    full: bool = False,
    sample: int | None = None,
    seed: int = DEFAULT_SAMPLE_SEED,
    ceiling: int | None = None,
) -> tuple[list[SurveyRow], ScatterAggregate]:
    """Survey subsets of the first `pool_size` primes.

    Full enumeration streams subsets in lexicographic order.  When their
    number exceeds SUBSET_CEILING, pass full=True to force the scan or
    `sample=N` for N distinct uniform random subsets drawn with a fixed seed
    (every subset, in order, when N is at least their number).  Sampling
    raises SearchTooLarge if 200*N draws give fewer than N distinct subsets.
    `ceiling` bounds each subset's search as it bounds `find_relations`:
    its terms and pair sums.  Each count is len(find_relations(...)) for
    the subset, counted with no Relation objects by
    `backends.count_zero_quadruples` in batches of subsets whose pair sums
    fit min(ceiling, BATCH_PAIR_SUMS).
    """
    if subset_size < 2:
        raise ValueError("subset_size must be >= 2")
    if pool_size < subset_size:
        raise ValueError("pool must be at least as large as the subset size")
    mode = mode or SearchConfig.linear()
    pool = first_primes(pool_size)
    total = math.comb(pool_size, subset_size)

    subsets: Iterable[tuple[int, ...]]
    if sample is not None and sample < 1:
        raise ValueError("sample must be >= 1")
    if sample is not None and sample < total:
        rng = random.Random(seed)
        picked: set[tuple[int, ...]] = set()
        for _ in range(200 * sample):
            picked.add(tuple(sorted(rng.sample(pool, subset_size))))
            if len(picked) == sample:
                break
        else:
            raise SearchTooLarge(
                f"{200 * sample} random draws gave only {len(picked)} distinct "
                f"subsets of the {sample} requested"
            )
        subsets = sorted(picked)
    elif sample is None and not full and total > SUBSET_CEILING:
        raise SearchTooLarge(
            f"{total} subsets exceed the ceiling {SUBSET_CEILING}; "
            "rerun with full=True (--full) or sampling (--sample N, fixed seed)"
        )
    else:
        subsets = itertools.combinations(pool, subset_size)

    # Each subset's search has find_relations' ceiling and messages, checked
    # once: every subset has the same number of terms.
    limit = resolve_ceiling(ceiling)
    terms = refuse_search(subset_size, mode.bound, limit)
    batch = max(1, min(limit, BATCH_PAIR_SUMS) // (terms * (terms + 1) // 2))
    rows: list[SurveyRow] = []
    subsets = iter(subsets)
    while chunk := list(itertools.islice(subsets, batch)):
        segments = [term_products(primes, mode.bound) for primes in chunk]
        counts = count_zero_quadruples(segments, ceiling=limit)
        rows += map(SurveyRow, chunk, map(min_gap, chunk), counts)
    return rows, aggregate_rows(rows)


def csv_bytes(rows: Iterable[SurveyRow]) -> bytes:
    """Semicolon-separated rows, primes comma-joined, LF endings, UTF-8."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{','.join(str(p) for p in r.primes)};{r.min_gap};{r.relation_count}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_csv(rows: Iterable[SurveyRow], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_bytes(csv_bytes(rows))
    return path


_SVG_W = 640
_SVG_H = 480
_MARGIN_L = 70
_MARGIN_R = 24
_MARGIN_T = 24
_MARGIN_B = 56
_BASE_RADIUS = 5.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def svg_bytes(agg: ScatterAggregate) -> bytes:
    """Scatter plot: x = min gap, y = relation count, area ~ frequency.

    Radii are BASE * sqrt(frequency), so a frequency ratio of 4 doubles the
    radius exactly.  Output is byte-deterministic for a given aggregate.
    """
    if not agg.points:
        raise ValueError("nothing to plot: aggregate is empty")
    xs = [g for g, _, _ in agg.points]
    ys = [c for _, c, _ in agg.points]
    xlo, xhi = min(xs) - 1, max(xs) + 1
    ylo, yhi = min(ys) - 1, max(ys) + 1
    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> float:
        return _MARGIN_L + (v - xlo) / (xhi - xlo) * plot_w

    def sy(v: float) -> float:
        return _SVG_H - _MARGIN_B - (v - ylo) / (yhi - ylo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_W}" height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">'
    )
    out.append(f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="white"/>')
    axis_y = _SVG_H - _MARGIN_B
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{axis_y}" x2="{_SVG_W - _MARGIN_R}" '
        f'y2="{axis_y}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{axis_y}" stroke="black" stroke-width="1"/>'
    )
    xstep = max(1, (xhi - xlo + 7) // 8)
    for tick in range(xlo, xhi + 1, xstep):
        px = sx(tick)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{axis_y}" x2="{_fmt(px)}" '
            f'y2="{axis_y + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{axis_y + 20}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">{tick}</text>'
        )
    ystep = max(1, (yhi - ylo + 7) // 8)
    for tick in range(ylo, yhi + 1, ystep):
        py = sy(tick)
        out.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(py)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(py)}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 9}" y="{_fmt(py + 4)}" font-family="monospace" '
            f'font-size="12" text-anchor="end">{tick}</text>'
        )
    out.append(
        f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" y="{_SVG_H - 14}" '
        f'font-family="monospace" font-size="14" text-anchor="middle">min gap</text>'
    )
    out.append(
        f'<text x="16" y="{_fmt(_MARGIN_T + plot_h / 2)}" font-family="monospace" '
        f'font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt(_MARGIN_T + plot_h / 2)})">relation count</text>'
    )
    for g, c, f in agg.points:
        r = _BASE_RADIUS * math.sqrt(f)
        out.append(
            f'<circle cx="{_fmt(sx(g))}" cy="{_fmt(sy(c))}" r="{_fmt(r)}" '
            f'fill="#1f77b4" fill-opacity="0.55"/>'
        )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")


def emit_scatter_svg(agg: ScatterAggregate, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_bytes(svg_bytes(agg))
    return path
