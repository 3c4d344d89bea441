import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import exhaustive_zero_subsum, quadruples_by_completion
from unitcycle import backends
from unitcycle.exactnum import is_probable_prime
from unitcycle.backends import (
    BACKEND_ENV,
    CEILING_ENV,
    SearchTooLarge,
    active_backend,
    available_backends,
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


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_pair_table_is_row_major(n):
    # The stable sort of the pair sums relies on this order (b ascending,
    # then c), which is the order of np.triu_indices.
    b, c = backends._pair_table(n)
    assert b.dtype == c.dtype == np.int32
    assert b.tolist() == [i for i in range(n) for _ in range(i, n)]
    assert c.tolist() == [j for i in range(n) for j in range(i, n)]


class TestLookup:
    """The 3-1 lookup: the presence filter, then the exact search of the table."""

    P = backends.RESIDUE_PRIME

    @staticmethod
    def lookup(keys, probes):
        """The kernel's composition: filter, then find the kept probes."""
        keys = np.array(keys, dtype=np.int64)
        probes = np.array(probes, dtype=np.int64)
        maybe = backends._maybe_members(keys, probes)
        found, first = backends._find(np.sort(keys, kind="stable"), probes[maybe])
        return maybe[found].tolist(), first.tolist()

    def test_probes_above_every_key(self):
        # A probe past the last key compares with it (the clip), not past it.
        table = np.array([2, 5, 5, 9], dtype=np.int64)
        probes = np.array([10, self.P - 1, 9, 1, 5, 0, 3], dtype=np.int64)
        x, first = backends._find(table, probes)
        assert x.tolist() == [2, 4]
        assert first.tolist() == [3, 1]

    def test_filter_false_positives_are_not_hits(self):
        # With 16 to 32 slots per key, about one non-member in 30 still
        # shares a key's slot and passes the filter (114 of these 3,000);
        # the exact search must drop every one.
        rng = random.Random(16)
        keys = rng.sample(range(10**6), 300)
        key_set = set(keys)
        others = [v for v in rng.sample(range(10**6), 3000) if v not in key_set]
        probes = others + keys[::3]
        passed = backends._maybe_members(
            np.array(keys, dtype=np.int64), np.array(probes, dtype=np.int64)
        ).tolist()
        assert sum(i < len(others) for i in passed) > 100
        table = sorted(keys)
        hits, first = self.lookup(keys, probes)
        assert hits == list(range(len(others), len(probes)))
        assert first == [table.index(probes[i]) for i in hits]

    def test_first_of_a_run(self):
        hits, first = self.lookup([7, 3, 7, 7, 1], [7, 2, 1, 3, 8])
        assert hits == [0, 2, 3]
        assert first == [2, 0, 1]


# Keys the presence filter must keep: 0, P - 1, powers of 2, and keys that
# differ only in their high bits.  Multiplying by the odd hash multiplier
# mod 2^64 carries bits only upward, so the hashes of such keys differ only
# in their high bits, the ones that pick the slot.
FILTER_KEYS = st.one_of(
    st.sampled_from([0, 1, backends.RESIDUE_PRIME - 1]),
    st.builds(lambda e: 2**e, st.integers(0, 61)),
    st.builds(lambda low, high: (high << 40) + low, st.integers(0, 50), st.integers(0, 2**21)),
    st.integers(0, backends.RESIDUE_PRIME - 1),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(FILTER_KEYS, min_size=1, max_size=60),
    st.lists(FILTER_KEYS, max_size=60),
)
@example([0, backends.RESIDUE_PRIME - 1, 2**61], [2**61, 0, 5])
@example([1, 1 + 2**60, 1 + 2**61], [1 + 2**61, 1 + 2**59])
def test_presence_filter_keeps_every_member(keys, others):
    probes = others + keys
    maybe = backends._maybe_members(
        np.array(keys, dtype=np.int64), np.array(probes, dtype=np.int64)
    ).tolist()
    key_set = set(keys)
    members = [i for i, v in enumerate(probes) if v in key_set]
    assert set(members) <= set(maybe)
    assert maybe == sorted(set(maybe))
    hits, first = TestLookup.lookup(keys, probes)
    table = sorted(keys)
    assert hits == members
    assert first == [table.index(probes[i]) for i in hits]


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
