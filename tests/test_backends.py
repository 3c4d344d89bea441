import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import exhaustive_zero_subsum, products_over, quadruples_by_completion
from unitcycle import backends
from unitcycle.exactnum import is_probable_prime
from unitcycle.backends import (
    BACKEND_ENV,
    CEILING_ENV,
    SearchTooLarge,
    active_backend,
    available_backends,
    count_zero_quadruples,
    zero_quadruples,
)

# Small fixed inputs with known interesting structure.
CASES = [
    [1, 3],                     # 3 - 1 - 1 - 1
    [1, 5],                     # nothing
    [1, 5, 7, 35],              # {5,7} linear
    [1, 5, 11, 55],             # 11 - 5 - 5 - 1
    [1, 2, 4, 8, 16],           # powers of two
    [2, 3, 5, 7, 11, 13],       # plain primes
    [1, 23, 25, 5, 115, 529, 575, 2645, 13225],  # {5,23} npower:2 products
]


def test_all_backends_present():
    assert available_backends() == ("numpy", "python")


class TestBackendSelection:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert active_backend() == "numpy"

    def test_auto_is_numpy(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "auto")
        assert active_backend() == "numpy"

    def test_explicit(self, monkeypatch):
        for name in ("numpy", "python"):
            monkeypatch.setenv(BACKEND_ENV, name)
            assert active_backend() == name

    def test_case_and_whitespace(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "  NumPy ")
        assert active_backend() == "numpy"

    def test_unknown_rejected(self, monkeypatch):
        for name in ("cython", "numba"):
            monkeypatch.setenv(BACKEND_ENV, name)
            with pytest.raises(ValueError, match="unrecognized"):
                active_backend()


class TestZeroQuadruples:
    def test_matches_oracle_on_fixed_cases(self, each_backend):
        for values in CASES:
            assert zero_quadruples(values) == quadruples_by_completion(values), values

    def test_matches_oracle_on_random_sets(self, each_backend):
        rng = random.Random(0xBEEF)
        for _ in range(100):
            size = rng.randint(1, 12)
            values = rng.sample(range(1, 200), size)
            assert zero_quadruples(values) == quadruples_by_completion(values), values

    def test_rows_are_canonical(self, each_backend):
        for quad in zero_quadruples([1, 2, 3, 4, 6, 12]):
            assert sum(quad) == 0
            assert quad[0] > 0
            assert not exhaustive_zero_subsum(quad)
            assert list(quad) == sorted(quad, key=lambda v: (-abs(v), -v))

    def test_input_order_irrelevant(self, each_backend):
        values = [55, 1, 11, 5, 7, 35]
        assert zero_quadruples(values) == zero_quadruples(sorted(values))

    def test_empty(self, each_backend):
        assert zero_quadruples([]) == []

    def test_no_hits(self, each_backend):
        assert zero_quadruples([1, 5, 25, 125]) == []

    # Rows with one positive term are 3-1 relations, v_a = v_b + v_c + v_d;
    # rows with two are 2-2 relations, v_a + v_b = v_c + v_d.
    @pytest.mark.parametrize(
        "values, shapes",
        [
            ([1, 13, 25], {2}),      # 25 + 1 = 13 + 13: a repeated term
            ([1, 3], {1}),           # 3 = 1 + 1 + 1: all three tied
            ([1, 5, 7], {1}),        # 7 = 5 + 1 + 1: the two smallest tied
            ([1, 4, 7, 10], {2}),    # 7 + 1 = 4 + 4, 10 + 4 = 7 + 7, 10 + 1 = 7 + 4
            ([1, 2, 6, 9], {1}),     # 6 = 2 + 2 + 2, 9 = 6 + 2 + 1
            ([5], set()),            # one term: one pair, no difference
        ],
        ids=["2-2-repeated", "3-1-all-tied", "3-1-tied", "only-2-2", "only-3-1", "one-term"],
    )
    def test_shapes(self, each_backend, values, shapes):
        expected = quadruples_by_completion(values)
        assert {sum(v > 0 for v in quad) for quad in expected} == shapes
        assert zero_quadruples(values) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            zero_quadruples([0, 1])
        with pytest.raises(ValueError):
            zero_quadruples([-3, 5])
        with pytest.raises(ValueError):
            zero_quadruples([5, 5])

    def test_pair_ceiling(self):
        with pytest.raises(SearchTooLarge):
            zero_quadruples(range(1, 201), ceiling=1000)

    def test_row_key_overflow_refused(self, monkeypatch):
        # 2 * 27,555 signed terms: the base-m row key would pass 2^63.  The
        # raised ceiling lets the search reach the numpy engine, which must
        # refuse it before it builds the 380M-entry pair table.
        def no_table(*args, **kwargs):
            raise AssertionError("the pair table was built")

        monkeypatch.setenv(BACKEND_ENV, "numpy")
        monkeypatch.setattr(backends, "_pair_table", no_table)
        with pytest.raises(SearchTooLarge, match="row key"):
            zero_quadruples(range(1, 27_556), ceiling=10**10)

    def test_transient_peak(self, monkeypatch):
        # The 256 terms of {7, 11, 31, 37} general:3.  The numpy engine keeps
        # term indices in int32 and drops each table-sized array once it has
        # been read: a traced peak of 1.24 MB, where keeping every temporary
        # to the end of the search took 3.98 MB.
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        values = [
            7**a * 11**b * 31**c * 37**d for a, b, c, d in itertools.product(range(4), repeat=4)
        ]
        assert len(zero_quadruples(values)) == 748
        tracemalloc.start()
        try:
            zero_quadruples(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_500_000

    def test_default_pair_ceiling_applies(self):
        # 3,000 values -> 4,501,500 pair sums, above the 2,000,000 default.
        with pytest.raises(SearchTooLarge):
            zero_quadruples(range(1, 3001))


class TestPairCeiling:
    """The one search ceiling bounds the n(n+1)/2 pair sums of every engine."""

    def test_boundary(self, each_backend):
        # 100 values have 5,050 pair sums and 110,261 relations (the count
        # quadruples_by_completion gives).
        assert len(zero_quadruples(range(1, 101), ceiling=5050)) == 110_261
        with pytest.raises(SearchTooLarge, match="^5050 pair sums exceed the ceiling 5049$"):
            zero_quadruples(range(1, 101), ceiling=5049)

    def test_environment_ceiling(self, monkeypatch):
        monkeypatch.setenv(CEILING_ENV, "5049")
        with pytest.raises(SearchTooLarge, match="^5050 pair sums exceed the ceiling 5049$"):
            zero_quadruples(range(1, 101))
        monkeypatch.setenv(CEILING_ENV, "5050")
        assert len(zero_quadruples(range(1, 101))) == 110_261

    def test_explicit_ceiling_lifts_the_default(self, monkeypatch):
        # 2,300 values: 2,646,150 pair sums, and 10,582,300 signed sums,
        # which the old fixed 10M cap refused.  A sentinel stands
        # in for the pair table so nothing large is allocated.
        class PastTheCheck(Exception):
            pass

        def sentinel(*args, **kwargs):
            raise PastTheCheck

        monkeypatch.setenv(BACKEND_ENV, "numpy")
        monkeypatch.setattr(backends, "_pair_table", sentinel)
        with pytest.raises(PastTheCheck):
            zero_quadruples(range(1, 2301), ceiling=10**8)

    def test_refused_before_any_table(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("the pair table was built")

        monkeypatch.setenv(BACKEND_ENV, "numpy")
        monkeypatch.setattr(backends, "_pair_table", no_table)
        with pytest.raises(SearchTooLarge, match="pair sums"):
            zero_quadruples(range(1, 101), ceiling=100)


class TestOverflowPath:
    # A vanishing quadruple whose values burst int64: (a+11) + 3 = (a+7) + 7.
    BIG = [3, 7, 2**62 + 7, 2**62 + 11]

    def test_big_values_match_oracle(self, each_backend):
        # Terms above P: numpy joins on residues and checks each hit exactly.
        expected = quadruples_by_completion(self.BIG)
        assert len(expected) == 1
        assert zero_quadruples(self.BIG) == expected

    def test_boundary_values_stay_int64(self, monkeypatch):
        # max value exactly at 2^61: every residue equals its value, and
        # every pair sum, at most 2^62, stays inside int64.
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        values = [3, 7, 2**61 - 4, 2**61]  # 2^61 + 3 = (2^61 - 4) + 7
        result = zero_quadruples(values)
        assert result == quadruples_by_completion(values)
        assert len(result) == 1

    def test_values_straddling_limit(self, each_backend):
        # Two terms below 2^61 and two above, all below P, so each residue is
        # its value; the one relation is (2^61+2) - (2^61-2) - 7 + 3 = 0.
        values = [3, 7, 2**61 - 2, 2**61 + 2]
        result = zero_quadruples(values)
        assert result == quadruples_by_completion(values)
        assert result == [(2**61 + 2, -(2**61 - 2), -7, 3)]

    # The numpy engine joins on residues mod P, so sums that are nonzero
    # multiples of P collide with zero.
    P = backends.RESIDUE_PRIME

    @pytest.mark.parametrize(
        "values, expected",
        [
            # (P+5) - 3 - 1 - 1 = P: zero mod P, but not a relation.
            ([1, 3, P + 5], [(3, -1, -1, -1)]),
            # (P+7) - 7 = (P+5) - 5 = P: two pairs of the one relation are
            # zero mod P, yet no subsum of it vanishes.
            ([5, 7, P + 5, P + 7], [(P + 7, -(P + 5), -7, 5)]),
            # Second relation: head pair (2P+3) - (P+3) = P, tail pair -P.
            (
                [1, P + 1, P + 3, 2 * P + 3],
                [
                    (P + 3, -(P + 1), -1, -1),
                    (2 * P + 3, -(P + 3), -(P + 1), 1),
                    (2 * P + 3, -(P + 1), -(P + 1), -1),
                ],
            ),
            # Every residue is 0.
            ([P, 3 * P], [(3 * P, -P, -P, -P)]),
            # The difference of residues (P+1) - 5 is 1 - 5 < 0; it wraps to P - 4.
            ([5, P - 9, P + 1], [(P + 1, -(P - 9), -5, -5)]),
            # Every term is below P, yet 2^61 + 2^61 wraps to 10565, so the
            # join proposes 10566 = 2^61 + 2^61 + 1: not a relation.
            ([1, 10566, 2**61], []),
            # The difference 1 - 3 wraps to P - 2, above every pair-sum key:
            # its lookup falls off the end of the table.  The keys of P+1
            # and 1 collide, so the table starts with a run of three 2s.
            ([1, 3, P + 1], [(3, -1, -1, -1)]),
            # Residues 1, 0, 0, 0: the six pair sums of P, 2P and 3P are the
            # run of 0s at the start of the table.
            ([1, P, 2 * P, 3 * P], [(3 * P, -2 * P, -2 * P, P), (3 * P, -P, -P, -P)]),
            # Residues 1 and P-1 three times: their six pair sums wrap to
            # P - 2, the run at the end of the table.
            (
                [1, P - 1, 2 * P - 1, 3 * P - 1],
                [
                    (2 * P - 1, -(P - 1), -(P - 1), -1),
                    (3 * P - 1, -(2 * P - 1), -(2 * P - 1), P - 1),
                    (3 * P - 1, -(2 * P - 1), -(P - 1), -1),
                ],
            ),
        ],
        ids=[
            "false-positive", "pairs-at-p", "head-pair-at-p", "all-residues-zero",
            "difference-wraps", "pair-sum-wraps-below-limit", "difference-past-every-key",
            "run-at-first-key", "run-at-last-key",
        ],
    )
    def test_residue_collisions(self, each_backend, values, expected):
        assert quadruples_by_completion(values) == expected
        assert zero_quadruples(values) == expected

    def test_residue_collisions_random(self, each_backend):
        # Small values mixed with k*P + r: many residue collisions, some real.
        rng = random.Random(0x61)
        found = 0
        for _ in range(40):
            small = rng.sample(range(1, 50), rng.randint(1, 5))
            rs = rng.sample(range(50), rng.randint(1, 5))
            big = [rng.randint(1, 3) * self.P + r for r in rs]
            values = small + big
            expected = quadruples_by_completion(values)
            assert zero_quadruples(values) == expected, values
            found += len(expected)
        assert found > 0


# Small values, values just below and above 2^61 (whose pair sums pass P and
# wrap to small residues), and k*P + r, whose residues collide with small
# values.
TERM_VALUES = st.one_of(
    st.integers(1, 200),
    st.integers(2**61 - 60, 2**61 + 60),
    st.builds(
        lambda k, r: k * backends.RESIDUE_PRIME + r,
        st.integers(1, 3),
        st.integers(-60, 60),
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(TERM_VALUES, min_size=1, max_size=12, unique=True))
@example([3, 7, 2**61 - 4, 2**61])
@example([5, backends.RESIDUE_PRIME - 9, backends.RESIDUE_PRIME + 1])
@example([1, 10566, 2**61])
def test_numpy_engine_matches_python_engine(values):
    assert backends._zero_quads_numpy(values) == backends._zero_quads_python(values)


def no_probes(width):
    """low[t] = t: a table of pairs only."""
    return np.arange(len(width), dtype=np.int32)


@pytest.mark.parametrize("sizes", [[3, 1, 4], [2, 0, 2], [0]])
def test_pair_table_of_segments(sizes):
    # Each segment's pairs, in row-major order and offset by the terms
    # before it, one segment after another.
    width = backends._pair_widths(sizes)
    b, c = backends._pair_table(width, no_probes(width))
    assert b.dtype == c.dtype == np.int32
    pairs, start = [], 0
    for n in sizes:
        pairs += [(start + i, start + j) for i in range(n) for j in range(i, n)]
        start += n
    assert list(zip(b.tolist(), c.tolist())) == pairs


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_pair_table_is_row_major(n):
    # The runs of equal keys keep this order (b ascending, then c), which
    # is the order of np.triu_indices.
    width = backends._pair_widths([n])
    b, c = backends._pair_table(width, no_probes(width))
    assert b.dtype == c.dtype == np.int32
    assert b.tolist() == [i for i in range(n) for _ in range(i, n)]
    assert c.tolist() == [j for i in range(n) for j in range(i, n)]


def test_pair_table_with_probes():
    # Row t: its probes' partners low[t], ..., t - 1, then its pairs' t, ...,
    # to the end of its segment.  Segments of 3, 1 and 4 terms.
    width = backends._pair_widths([3, 1, 4])
    low = np.array([0, 0, 1, 3, 4, 4, 4, 6], dtype=np.int32)
    row, partner = backends._pair_table(width, low)
    assert row.dtype == partner.dtype == np.int32
    ends = [3, 3, 3, 4, 8, 8, 8, 8]
    expected = [(t, x) for t in range(8) for x in range(low[t], ends[t])]
    assert list(zip(row.tolist(), partner.tolist())) == expected


class TestCloseProbes:
    """3-1 relations are looked up only from pairs (a, b) with
    bitlen(v_b) >= bitlen(v_a) - 2, b the largest negative term."""

    P = backends.RESIDUE_PRIME

    @pytest.mark.parametrize(
        "values, expected",
        [
            # 9 = 3 + 3 + 3: bit lengths 4 and 2, the edge of the window.
            ([3, 9], [(9, -3, -3, -3)]),
            # v_a = 3 v_b with bitlen(3 v_b) = bitlen(v_b) + 2 (11 -> 33)
            # and + 1 (5 -> 15), alone and among terms that add relations.
            ([11, 33], [(33, -11, -11, -11)]),
            ([5, 15], [(15, -5, -5, -5)]),
            ([1, 2, 11, 31, 33], None),
            ([3, 8, 9, 27, 81, 243], None),
            # v_a = 3 v_b near 2^61 and around P, where the residues wrap.
            (
                [2**61 - 1, 3 * (2**61 - 1)],
                [(3 * (2**61 - 1), -(2**61 - 1), -(2**61 - 1), -(2**61 - 1))],
            ),
            ([P - 1, 3 * P - 3], [(3 * P - 3, -(P - 1), -(P - 1), -(P - 1))]),
            ([P + 1, 3 * P + 3], [(3 * P + 3, -(P + 1), -(P + 1), -(P + 1))]),
            # 4P + 4 = (2P + 2) + (P + 1) + (P + 1): every residue is small.
            ([P + 1, 2 * P + 2, 4 * P + 4], None),
            ([1, 2, 2**61 - 2, 2**61 - 1, 2**62 + 1], None),
        ],
        ids=[
            "bitlen-gap-2", "triple-gap-2", "triple-gap-1", "triple-among-others",
            "powers-of-three", "triple-near-2^61", "triple-below-P", "triple-above-P",
            "wrapped-window-edge", "near-2^61-mixed",
        ],
    )
    def test_window_edges(self, each_backend, values, expected):
        oracle = quadruples_by_completion(values)
        if expected is not None:
            assert oracle == expected
        assert zero_quadruples(values) == oracle
        assert count_zero_quadruples([values]) == [len(oracle)]

    def test_largest_subtrahend_within_two_bits(self):
        # The rule the window rests on: bitlen(v_b) >= bitlen(v_a) - 2 for
        # the largest subtrahend v_b of every 3-1 relation, and a gap of 2
        # occurs.
        gaps = set()
        for values in ([3, 9], [11, 33], list(range(1, 65))):
            for a, b, c, d in quadruples_by_completion(values):
                if b < 0 and c < 0 and d < 0:
                    gaps.add(a.bit_length() - (-b).bit_length())
        assert gaps == {0, 1, 2}

    def test_consecutive_integers(self):
        # 1..256: almost every pair is in the window, and runs of equal keys
        # are long.
        values = list(range(1, 257))
        assert backends._zero_quads_numpy(values) == backends._zero_quads_python(values)


@st.composite
def unit_boxes(draw):
    """The terms of an S-unit box: products of one to three small primes,
    each to an exponent up to the bound, sometimes scaled past 2^61 or P."""
    small = st.sampled_from([2, 3, 5, 7, 11, 13])
    primes = draw(st.lists(small, min_size=1, max_size=3, unique=True))
    bound = draw(st.integers(1, 4 if len(primes) < 3 else 2))
    scale = draw(st.sampled_from([1, 1, 1, 2**58, backends.RESIDUE_PRIME]))
    return [scale * v for v in products_over(primes, bound)]


@settings(max_examples=200, deadline=None)
@given(st.lists(unit_boxes(), min_size=1, max_size=4))
@example([[3, 9]])
@example([[1, 3, 9, 27], [2**58, 3 * 2**58, 9 * 2**58]])
def test_unit_boxes_match_oracle(boxes):
    expected = [quadruples_by_completion(box) for box in boxes]
    assert zero_quadruples(boxes[0]) == expected[0]
    assert count_zero_quadruples(boxes) == [len(rows) for rows in expected]


class TestRouting:
    SMALL = [1, 5, 7, 35]
    BIG = [3, 7, 2**62 + 7, 2**62 + 11]

    @staticmethod
    def spy_on_python_engine(monkeypatch):
        calls = []
        real = backends._zero_quads_python

        def spy(values):
            calls.append(list(values))
            return real(values)

        monkeypatch.setattr(backends, "_zero_quads_python", spy)
        return calls

    @pytest.mark.parametrize("setting", [None, "auto", "numpy"])
    def test_numpy_serves_every_size(self, monkeypatch, setting):
        if setting is None:
            monkeypatch.delenv(BACKEND_ENV, raising=False)
        else:
            monkeypatch.setenv(BACKEND_ENV, setting)
        calls = self.spy_on_python_engine(monkeypatch)
        for values in (self.SMALL, self.BIG):
            assert zero_quadruples(values) == quadruples_by_completion(values)
        assert calls == []

    def test_python_serves_every_size(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "python")
        calls = self.spy_on_python_engine(monkeypatch)
        for values in (self.SMALL, self.BIG):
            assert zero_quadruples(values) == quadruples_by_completion(values)
        assert calls == [self.SMALL, self.BIG]


def test_residue_prime_keeps_powers_apart():
    # P < 2^62 keeps pair sums of residues in int64.  P - 1 = 2q with q prime,
    # so only +-1 have multiplicative order below q: powers of a small prime
    # do not repeat before exponent q, as they do mod the Mersenne prime
    # 2^61 - 1, where 2^61 == 1.
    P = backends.RESIDUE_PRIME
    assert 2**61 < P < 2**62
    assert is_probable_prime(P) and is_probable_prime((P - 1) // 2)
    for p in (2, 3, 5, 7):
        assert len({pow(p, a, P) for a in range(2000)}) == 2000


class TestCountZeroQuadruples:
    """One join for many term sets: a count per segment, with no rows built."""

    def test_one_segment_counts_the_rows(self, each_backend):
        for values in CASES + [[3, 7, 2**62 + 7, 2**62 + 11]]:
            assert count_zero_quadruples([values]) == [len(zero_quadruples(values))]

    def test_fixed_cases_together(self, each_backend):
        assert count_zero_quadruples(CASES) == [len(quadruples_by_completion(v)) for v in CASES]

    def test_every_segment_the_same_set(self, each_backend):
        # Equal sums in different segments must not match: every copy gets
        # the full count, and no more.
        values = [2**a * 3**b * 5**c for a, b, c in itertools.product(range(3), repeat=3)]
        full = len(quadruples_by_completion(values))
        assert full > 0
        assert count_zero_quadruples([values] * 40) == [full] * 40
        assert count_zero_quadruples([[1, 3]] * 300) == [1] * 300

    def test_empty(self, each_backend):
        assert count_zero_quadruples([]) == []
        assert count_zero_quadruples([[], []]) == [0, 0]
        assert count_zero_quadruples([[], [1, 3], []]) == [0, 1, 0]

    def test_validation(self):
        for bad in ([0, 1], [-3, 5], [5, 5]):
            with pytest.raises(ValueError, match="distinct positive"):
                count_zero_quadruples([[1, 3], bad])

    def test_ceiling_counts_every_segment(self, each_backend):
        # Segments of 3, 4 and 5 values: 6 + 10 + 15 = 31 pair sums.
        segments = [[1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5]]
        assert count_zero_quadruples(segments, ceiling=31) == [
            len(quadruples_by_completion(s)) for s in segments
        ]
        with pytest.raises(SearchTooLarge, match="^31 pair sums exceed the ceiling 30$"):
            count_zero_quadruples(segments, ceiling=30)

    def test_tags_are_distinct(self):
        sizes = [1] * 5000
        tags = backends._segment_tags(sizes)
        assert tags[0] == 0
        assert len(set(tags.tolist())) == len(sizes)
        assert 0 <= tags.min() and tags.max() < backends.RESIDUE_PRIME


@st.composite
def shared_segments(draw):
    """Segments drawn from one pool of TERM_VALUES, so that they share terms."""
    pool = draw(st.lists(TERM_VALUES, min_size=1, max_size=14, unique=True))
    segment = st.lists(st.sampled_from(pool), max_size=10, unique=True)
    return draw(st.lists(segment, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(shared_segments())
@example([[3, 7, 2**61 - 4, 2**61], [3, 7, 2**61 - 4], [7, 3, 2**61, 2**61 - 4]])
@example([[5, backends.RESIDUE_PRIME - 9, backends.RESIDUE_PRIME + 1], [1, 10566, 2**61]])
def test_segment_counts_match_python_engine(segments):
    expected = [len(backends._zero_quads_python(s)) for s in segments]
    if any(segments):
        vals = [v for s in segments for v in sorted(s, reverse=True)]
        counts = backends._segment_counts(vals, [len(s) for s in segments])
        assert counts.tolist() == expected
