import dataclasses
import random
from fractions import Fraction

import pytest

from helpers import quadruples_by_enumeration, trial_is_prime
from unitcycle import backends
from unitcycle.avoidance import (
    AbcPairReport,
    AvoidanceCertificate,
    InequalityCheck,
    SeparationCounterexample,
    abc_pair,
    check_ordering_hypothesis,
    construct_avoiding_set,
    separation_certificate,
    verify_ordering_conclusion,
)
from unitcycle.relsearch import SearchConfig, find_relations
from unitcycle.sring import InversionSet


class TestInequalityCheck:
    def test_of_computes_verdict(self):
        assert InequalityCheck.of("a", 3, "<", 5).passed is True
        assert InequalityCheck.of("b", 5, "<", 5).passed is False
        assert InequalityCheck.of("c", 7, ">", 5).passed is True

    def test_rejects_unknown_relation(self):
        with pytest.raises(ValueError):
            InequalityCheck.of("a", 3, "<=", 5)

    def test_verify_catches_tampering(self):
        chk = InequalityCheck.of("a", 3, "<", 5)
        assert chk.verify()
        assert not dataclasses.replace(chk, passed=False).verify()
        assert not dataclasses.replace(chk, lhs=9).verify()

    def test_json_round_trip(self):
        chk = InequalityCheck.of("big", 3**50, "<", 5**50)
        assert InequalityCheck.from_json_dict(chk.to_json_dict()) == chk

    def test_json_refuses_unknown_relation(self):
        d = {"name": "a", "lhs": "3", "rhs": "5", "relation": "<=", "pass": False}
        with pytest.raises(ValueError, match="unsupported relation '<='"):
            InequalityCheck.from_json_dict(d)
        with pytest.raises(ValueError, match="unsupported relation '<='"):
            InequalityCheck("a", 3, 5, "<=", False)

    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_json_pass_must_be_a_bool(self, flag):
        d = InequalityCheck.of("a", 5, "<", 3).to_json_dict()
        d["pass"] = flag
        with pytest.raises(TypeError, match="pass must be a JSON bool"):
            InequalityCheck.from_json_dict(d)


class TestSeparationCertificate:
    def test_certified_example(self):
        cert = separation_certificate(InversionSet.of(5, 17, 257), SearchConfig.linear())
        assert isinstance(cert, AvoidanceCertificate)
        assert cert.products == (1, 5, 17, 85, 257, 1285, 4369, 21845)
        assert len(cert.checks) == 7
        assert cert.verify()

    def test_counterexamples(self):
        res = separation_certificate(InversionSet.of(5, 7), SearchConfig.linear())
        assert res == SeparationCounterexample(5, 7)
        res = separation_certificate(InversionSet.of(3), SearchConfig.linear())
        assert res == SeparationCounterexample(1, 3)

    def test_verify_catches_tampering(self):
        cert = separation_certificate(InversionSet.of(5, 17, 257), SearchConfig.linear())
        bad = dataclasses.replace(cert, products=cert.products[:-1] + (99999,))
        assert not bad.verify()
        bad = dataclasses.replace(cert, checks=cert.checks[:-1])
        assert not bad.verify()

    @pytest.mark.parametrize(
        "forge",
        [
            lambda c: dataclasses.replace(c, lhs=c.lhs + 3),
            lambda c: dataclasses.replace(c, rhs=c.rhs + 1),
            lambda c: dataclasses.replace(c, relation=">", passed=False),
            lambda c: dataclasses.replace(c, passed=False),
            lambda c: dataclasses.replace(c, name="step_0"),
        ],
        ids=["operand", "successor", "relation", "pass", "name"],
    )
    def test_verify_rejects_a_forged_step(self, forge):
        cert = separation_certificate(InversionSet.of(5, 17, 257), SearchConfig.linear())
        for i in (0, len(cert.checks) - 1):
            checks = list(cert.checks)
            checks[i] = forge(checks[i])
            assert dataclasses.replace(cert, checks=tuple(checks)).verify() is False

    @pytest.mark.parametrize("env", ["3", "abc", None])
    def test_verify_ignores_search_ceiling(self, monkeypatch, env):
        cert = separation_certificate(InversionSet.of(5, 17, 257), SearchConfig.linear())
        if env is None:
            monkeypatch.delenv(backends.CEILING_ENV, raising=False)
        else:
            monkeypatch.setenv(backends.CEILING_ENV, env)
        assert cert.verify() is True
        assert dataclasses.replace(cert, products=cert.products[:-1]).verify() is False
        # A claimed mode far larger than the product list fails on its size.
        huge = dataclasses.replace(cert, mode=SearchConfig.general(1000))
        assert huge.verify() is False

    def test_json_round_trip(self):
        cert = separation_certificate(InversionSet.of(5, 79), SearchConfig.npower(2))
        assert isinstance(cert, AvoidanceCertificate)
        again = AvoidanceCertificate.from_json_dict(cert.to_json_dict())
        assert again == cert and again.verify()

    def test_certificate_implies_no_vanishing_sum(self):
        # exhaustive +-signed 4-multiset check over the full product set
        for primes, mode in [((5, 17, 257), SearchConfig.linear()), ((5, 79), SearchConfig.npower(2))]:
            cert = separation_certificate(InversionSet(primes), mode)
            assert isinstance(cert, AvoidanceCertificate)
            assert len(cert.products) <= 32
            assert quadruples_by_enumeration(cert.products) == []


class TestConstructAvoidingSet:
    def test_examples(self):
        assert construct_avoiding_set(3, 1, 3).primes == (5, 17, 257)
        assert construct_avoiding_set(2, 2, 3).primes == (5, 79)
        assert construct_avoiding_set(1, 1, 3).primes == (5,)

    def test_start_floor(self):
        assert construct_avoiding_set(1, 1, 10).primes == (11,)

    def test_validation(self):
        with pytest.raises(ValueError):
            construct_avoiding_set(0, 1)
        with pytest.raises(ValueError):
            construct_avoiding_set(2, 0)
        with pytest.raises(ValueError):
            construct_avoiding_set(2, 1, 0)

    def test_search_agrees_with_certificate(self):
        # the constructed sets admit nothing in their own regime
        for k, n in [(2, 1), (3, 1), (2, 2), (4, 1)]:
            s = construct_avoiding_set(k, n)
            assert find_relations(s, SearchConfig.npower(n)) == []


class TestOrderingHypothesis:
    def test_counterexample(self):
        assert check_ordering_hypothesis(5, 7, 9) is False

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            check_ordering_hypothesis(5, 7, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_ordering_hypothesis(7, 5, 9)
        with pytest.raises(ValueError):
            check_ordering_hypothesis(9, 11, 9)

    def test_conclusion_requires_hypothesis(self):
        with pytest.raises(ValueError):
            verify_ordering_conclusion(5, 7, 9, [(0, 1), (1, 0)])

    def test_conclusion_for_verified_pair(self):
        rep = abc_pair(1, 9)
        assert check_ordering_hypothesis(rep.p1, rep.p2, 9) is True
        pairs = [(k, l) for k in range(4) for l in range(9)]
        assert len(pairs) <= 100
        assert verify_ordering_conclusion(rep.p1, rep.p2, 9, pairs) is True

    def test_conclusion_equal_exponent_sums(self):
        # pairs with k+l constant and different l have distinct keys; the
        # value order must still match (this is the p2^d vs p1^d comparison)
        rep = abc_pair(1, 9)
        pairs = [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert verify_ordering_conclusion(rep.p1, rep.p2, 9, pairs) is True

    def test_conclusion_single_pair_vacuous(self):
        rep = abc_pair(1, 9)
        assert verify_ordering_conclusion(rep.p1, rep.p2, 9, [(2, 5)]) is True

    def test_conclusion_repeated_pair(self):
        rep = abc_pair(1, 9)
        assert verify_ordering_conclusion(rep.p1, rep.p2, 9, [(1, 2), (1, 2)]) is True

    def test_conclusion_range_check(self):
        rep = abc_pair(1, 9)
        with pytest.raises(ValueError):
            verify_ordering_conclusion(rep.p1, rep.p2, 9, [(0, 9)])


class TestAbcPair:
    def test_reference_pair(self):
        rep = abc_pair(1, 9)
        assert rep.p1 == 198359290373
        assert rep.p2 == 595077871121
        assert rep.all_pass
        assert rep.verify()

    def test_primes_verified_independently(self):
        rep = abc_pair(1, 9)
        assert trial_is_prime(rep.p1) and trial_is_prime(rep.p2)
        assert all(not trial_is_prime(n) for n in range(18**9 + 1, rep.p1))
        assert all(not trial_is_prime(n) for n in range(3 * rep.p1 + 1, rep.p2))

    def test_check_inventory(self):
        rep = abc_pair(1, 9)
        names = [c.name for c in rep.checks]
        assert names.count("window_lower") == 1
        assert names.count("window_upper") == 1
        assert names.count("abc_gap") == 1
        assert [n for n in names if n.startswith("separation_l")] == [
            f"separation_l{ell}" for ell in range(1, 9)
        ]
        assert len([n for n in names if n.startswith("ordering_")]) == 16
        assert len(names) == 27

    def test_seed_floor(self):
        rep = abc_pair(1, 9, seed=10**12)
        assert rep.p1 > 10**12
        assert trial_is_prime(rep.p1)
        assert all(not trial_is_prime(n) for n in range(10**12 + 1, rep.p1))
        assert rep.all_pass

    def test_fractional_c(self):
        rep = abc_pair(Fraction(22, 7), 9)
        assert rep.all_pass

    def test_validation(self):
        with pytest.raises(ValueError):
            abc_pair(1, 8)
        with pytest.raises(ValueError):
            abc_pair(3**12, 9)
        with pytest.raises(ValueError):
            abc_pair(0, 9)
        with pytest.raises(ValueError):
            abc_pair(-2, 9)
        with pytest.raises(ValueError):
            abc_pair(1, 9, seed=-1)

    def test_json_round_trip(self):
        rep = abc_pair(1, 9)
        again = AbcPairReport.from_json_dict(rep.to_json_dict())
        assert again == rep and again.verify()

    def test_verify_catches_tampering(self):
        rep = abc_pair(1, 9)
        assert not dataclasses.replace(rep, p2=rep.p1 + 2).verify()

    @pytest.mark.parametrize(
        "rep",
        [abc_pair(1, 9), abc_pair(1, 9, seed=10**12), abc_pair(Fraction(22, 7), 9), abc_pair(1, 10)],
        ids=["reference", "seed", "fractional_c", "m10"],
    )
    def test_verify_accepts_every_producer_output(self, rep):
        assert rep.verify() is True
        assert AbcPairReport.from_json_dict(rep.to_json_dict()).verify() is True

    @pytest.mark.parametrize(
        "forge",
        [
            lambda r: dataclasses.replace(r, checks=()),
            lambda r: dataclasses.replace(
                r, checks=tuple(InequalityCheck.of(c.name, 1, "<", 2) for c in r.checks)
            ),
            lambda r: dataclasses.replace(r, p2=r.p2 + 1),
            lambda r: dataclasses.replace(r, c=Fraction(10**30)),
            lambda r: dataclasses.replace(r, m=8),
            lambda r: dataclasses.replace(r, p1=0),
            lambda r: dataclasses.replace(
                r, checks=(dataclasses.replace(r.checks[0], name="window"),) + r.checks[1:]
            ),
        ],
        ids=["no_checks", "one_lt_two", "even_p2", "huge_c", "m8", "p1_zero", "renamed"],
    )
    def test_verify_rejects_forgeries(self, forge):
        assert forge(abc_pair(1, 9)).verify() is False

    def test_verify_refuses_abc_pair_preconditions(self):
        # 3m checks and a window that holds, but C = 3^m breaks abc_pair's precondition.
        rep = abc_pair(1, 9)
        assert dataclasses.replace(rep, c=Fraction(3**9)).verify() is False

    def test_verify_size_bounds_m(self):
        # A claimed m far beyond the 27 recorded checks fails before any power is taken.
        rep = abc_pair(1, 9)
        assert dataclasses.replace(rep, m=10**12).verify() is False

    def test_sampled_three_separation(self):
        # checks (a) + (d) force 3s < t for any s < t drawn from the
        # bounded-exponent products; sample 1000 pairs
        rep = abc_pair(1, 9)
        rng = random.Random(0xABC)
        for _ in range(1000):
            k1, k2 = rng.randrange(0, 4), rng.randrange(0, 4)
            l1, l2 = rng.randrange(0, 9), rng.randrange(0, 9)
            s = rep.p1**k1 * rep.p2**l1
            t = rep.p1**k2 * rep.p2**l2
            if s == t:
                continue
            if s > t:
                s, t = t, s
            assert 3 * s < t
