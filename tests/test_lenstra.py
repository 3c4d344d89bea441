import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import clique_oracle, is_unit_oracle, trial_factor, z2_obstruction_oracle
from unitcycle import lenstra
from unitcycle.backends import SearchTooLarge
from unitcycle.exactnum import cofactor_over
from unitcycle.lenstra import (
    CliqueWitness,
    is_b_smooth,
    unit_difference_clique,
    z2_admissible_cycle_length,
    z2_four_clique_obstruction,
)
from unitcycle.sring import InversionSet, is_unit

F = Fraction


class TestCliqueWitness:
    def test_verify(self):
        w = CliqueWitness(InversionSet.of(2), (F(0), F(1), F(2)))
        assert w.verify()

    def test_verify_rejects_duplicates(self):
        w = CliqueWitness(InversionSet.of(2), (F(0), F(1), F(1)))
        assert not w.verify()

    def test_verify_rejects_non_unit_difference(self):
        w = CliqueWitness(InversionSet.of(2), (F(0), F(1), F(6)))
        assert not w.verify()

    def test_json_round_trip(self):
        w = CliqueWitness(InversionSet.of(2), (F(0), F(1), F(-1)))
        assert CliqueWitness.from_json_dict(w.to_json_dict()) == w


class TestUnitDifferenceClique:
    def test_integers_pair(self):
        w = unit_difference_clique(InversionSet(()), 2, 0)
        assert w.elements == (0, 1)

    def test_z_has_no_triple(self):
        assert unit_difference_clique(InversionSet(()), 3, 0) is None

    def test_z2_triple(self):
        w = unit_difference_clique(InversionSet.of(2), 3, 4)
        assert w is not None and w.verify()
        assert len(w.elements) == 3
        # first extension in scan order (units scanned 1, -1, 2, -2, ...)
        assert w.elements == (0, 1, -1)

    def test_z2_no_four_clique_within_bound(self):
        for bound in (4, 8, 20):
            assert unit_difference_clique(InversionSet.of(2), 4, bound) is None

    def test_triples_exist_beyond_z2(self):
        for primes in [(2, 3), (3,), (2, 5)]:
            w = unit_difference_clique(InversionSet(primes), 3, 3)
            if w is not None:
                assert w.verify()

    def test_all_pairwise_differences_rechecked(self):
        w = unit_difference_clique(InversionSet.of(2, 3), 4, 3)
        assert w is not None
        for a, b in itertools.combinations(w.elements, 2):
            assert is_unit(b - a, w.inversion_set)

    # The benchmark's lenstra requests, and searches that run to the end.
    @pytest.mark.parametrize(
        "primes,k,bound",
        [((2,), 3, 4), ((2,), 4, 6), ((3,), 3, 3), ((2, 3), 4, 1), ((2, 3), 4, 2),
         ((5, 7), 3, 3), ((2, 3), 5, 2), ((2,), 4, 20)],
        ids=str,
    )
    def test_matches_fraction_oracle(self, primes, k, bound):
        w = unit_difference_clique(InversionSet(primes), k, bound)
        assert (w and w.elements) == clique_oracle(primes, k, bound)

    @settings(max_examples=60, deadline=None)
    @given(
        primes=st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19]), max_size=2, unique=True),
        k=st.integers(2, 5),
        bound=st.integers(0, 3),
    )
    def test_matches_fraction_oracle_on_small_rings(self, primes, k, bound):
        primes = tuple(sorted(primes))
        w = unit_difference_clique(InversionSet(primes), k, bound)
        assert (w and w.elements) == clique_oracle(primes, k, bound)
        if w is not None:
            assert all(type(x) is Fraction for x in w.elements) and w.verify()

    def test_validation(self):
        with pytest.raises(ValueError):
            unit_difference_clique(InversionSet.of(2), 1, 4)
        with pytest.raises(ValueError):
            unit_difference_clique(InversionSet.of(2), 3, -1)

    def test_ceiling(self):
        with pytest.raises(SearchTooLarge):
            unit_difference_clique(InversionSet.of(2, 3), 6, 10, ceiling=100)


class TestZ2Obstruction:
    def test_holds_at_increasing_bounds(self):
        assert z2_four_clique_obstruction(1) is True
        assert z2_four_clique_obstruction(5) is True
        assert z2_four_clique_obstruction(10) is True

    def test_validation(self):
        with pytest.raises(ValueError):
            z2_four_clique_obstruction(-1)

    @pytest.mark.parametrize("bound", range(7))
    def test_matches_fraction_oracle(self, bound):
        assert z2_four_clique_obstruction(bound) is z2_obstruction_oracle(bound)

    def test_tests_units_of_z2(self, monkeypatch):
        # The answer is True at every bound, so also check each unit test it
        # makes: every sum is judged as the Fraction oracle judges Z[1/2].
        seen = []

        def spy(n, primes):
            cof = cofactor_over(n, primes)
            seen.append((n, cof == 1))
            return cof

        monkeypatch.setattr(lenstra, "cofactor_over", spy)
        assert z2_four_clique_obstruction(3) is True
        powers = [2**e for e in range(7)]
        assert {n for n, _ in seen} >= {a + b for a in powers for b in powers}
        assert all(unit is is_unit_oracle(F(n, 8), (2,)) for n, unit in seen)

    def test_agrees_with_direct_search(self):
        # two independent procedures, one conclusion
        assert z2_four_clique_obstruction(6) is True
        assert unit_difference_clique(InversionSet.of(2), 4, 6) is None


class TestSmoothness:
    def test_examples(self):
        assert is_b_smooth(12, 3) is True
        assert is_b_smooth(20, 3) is False
        assert is_b_smooth(1, 3) is True

    def test_prime_cofactor_shortcut(self):
        assert is_b_smooth(49, 3) is False
        assert is_b_smooth(49, 5) is False
        assert is_b_smooth(49, 7) is True
        assert is_b_smooth(2**10 * 97, 96) is False
        assert is_b_smooth(2**10 * 97, 97) is True

    def test_validation(self):
        with pytest.raises(ValueError):
            is_b_smooth(0, 3)
        with pytest.raises(ValueError):
            is_b_smooth(5, 0)

    def test_matches_factorization_oracle(self):
        for n in range(1, 500):
            for b in (2, 3, 5, 10):
                expected = all(p <= b for p in trial_factor(n))
                assert is_b_smooth(n, b) == expected, (n, b)


class TestAdmissibleCycleLength:
    def test_examples(self):
        assert z2_admissible_cycle_length(6) is True
        assert z2_admissible_cycle_length(10) is False
        assert z2_admissible_cycle_length(4) is True
        assert z2_admissible_cycle_length(1) is True

    def test_prime_lengths_above_three_excluded(self):
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                  61, 67, 71, 73, 79, 83, 89, 97, 101):
            assert z2_admissible_cycle_length(p) is False

    def test_validation(self):
        with pytest.raises(ValueError):
            z2_admissible_cycle_length(0)
