import itertools

import numpy as np
import pytest

from biased_voter.localfn import (LocalFunction, gap, hat_coeffs, is_monotone,
                                  lemma1_check, parse_localfn_text, product_indicator,
                                  sigma_and_support, site_indicator)
from references import lemma2_verify


def brute_force_hats(f):
    """Direct inversion over all restrictions, independent of the transform."""
    n = f.n_sites
    out = {}
    for a_mask in range(1 << n):
        total = 0.0
        for b_mask in range(1 << n):
            if b_mask & ~a_mask:
                continue
            sign = (-1) ** bin(a_mask ^ b_mask).count("1")
            total += sign * f.table[b_mask]
        out[a_mask] = total
    return out


def product_value(ones, subset):
    """H(eta, A) read off the truth table of product_indicator(A); eta is 1 on ``ones``."""
    f = product_indicator(subset)
    return f.table[sum(1 << i for i, s in enumerate(f.support) if s in ones)]


def maxfn():
    # max(eta(0), eta(1)): 0 only when both opinions vanish
    return LocalFunction([(0,), (1,)], [0.0, 1.0, 1.0, 1.0])


class TestHatCoeffs:
    def test_single_site(self):
        # only the nonzero coefficients: fhat(empty) = 0 is left out
        assert hat_coeffs(site_indicator(0)) == {frozenset({(0,)}): 1.0}

    def test_product(self):
        f = LocalFunction([(0,), (1,)], [0.0, 0.0, 0.0, 1.0])
        h = hat_coeffs(f)
        assert h[frozenset({(0,), (1,)})] == 1.0
        assert sum(abs(v) for k, v in h.items() if len(k) < 2) == 0.0

    def test_max_function(self):
        h = hat_coeffs(maxfn())
        assert h[frozenset({(0,)})] == 1.0
        assert h[frozenset({(1,)})] == 1.0
        assert h[frozenset({(0,), (1,)})] == -1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for n in range(0, 5):
            sites = [(i,) for i in range(n)]
            f = LocalFunction(sites, rng.normal(size=1 << n))
            brute = brute_force_hats(f)
            h = hat_coeffs(f)
            for mask, val in brute.items():
                key = frozenset(f.support[i] for i in range(f.n_sites) if mask >> i & 1)
                assert h[key] == pytest.approx(val, abs=1e-12)

    def test_reconstruction_roundtrip_exact(self):
        rng = np.random.default_rng(22)
        for n in range(0, 7):
            sites = [(i,) for i in range(n)]
            # integer tables make exactness literal, not approximate
            f = LocalFunction(sites, rng.integers(-8, 9, size=1 << n).astype(float))
            h = hat_coeffs(f)
            for mask in range(1 << f.n_sites):
                ones = {f.support[i] for i in range(f.n_sites) if mask >> i & 1}
                recon = sum(v for subset, v in h.items() if subset <= ones)
                assert recon == f.table[mask]


class TestSigmaSupportGap:
    def test_single_site(self):
        sigma, support = sigma_and_support(site_indicator(0))
        assert sigma == 1.0
        assert support == frozenset({(0,)})
        assert gap(site_indicator(0)) == 1.0

    def test_constant(self):
        f = LocalFunction([], [3.5])
        sigma, support = sigma_and_support(f)
        assert sigma == 0.0 and support == frozenset()
        assert gap(f) == 0.0

    def test_max_function(self):
        sigma, support = sigma_and_support(maxfn())
        assert sigma == 3.0
        assert support == frozenset({(0,), (1,)})
        assert gap(maxfn()) == 1.0

    def test_padded_support_is_reduced(self):
        # value ignores site 1 entirely
        f = LocalFunction([(0,), (1,)], [0.0, 1.0, 0.0, 1.0])
        assert f.support == ((0,),)
        assert gap(f) == 1.0

    def test_gap_equals_extremes(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = rng.integers(0, 5)
            f = LocalFunction([(i,) for i in range(n)], rng.normal(size=1 << n))
            total = sum(v for subset, v in hat_coeffs(f).items() if subset)
            assert gap(f) == pytest.approx(total, abs=1e-12)


class TestMonotonicity:
    def test_examples(self):
        assert is_monotone(site_indicator(0))
        flip = LocalFunction([(0,)], [1.0, 0.0])
        assert not is_monotone(flip)
        assert is_monotone(maxfn())

    def test_lemma1_examples(self):
        assert lemma1_check(site_indicator(0))
        # eta(0) * (1 - eta(1)) is not monotone
        f = LocalFunction([(0,), (1,)], [0.0, 1.0, 0.0, 0.0])
        assert not lemma1_check(f)
        assert not is_monotone(f)

    def test_lemma1_agrees_with_direct_check(self):
        rng = np.random.default_rng(24)
        for _ in range(2000):
            n = int(rng.integers(0, 5))
            f = LocalFunction([(i,) for i in range(n)], rng.normal(size=1 << n))
            assert lemma1_check(f) == is_monotone(f)

    def test_h_monotone_in_config_antitone_in_set(self):
        for n in range(1, 5):
            sites = [(i,) for i in range(n)]
            for mask, a_mask in itertools.product(range(1 << n), repeat=2):
                ones = {sites[i] for i in range(n) if mask >> i & 1}
                subset = {sites[i] for i in range(n) if a_mask >> i & 1}
                h = product_value(ones, subset)
                for i in range(n):
                    raised = ones | {sites[i]}
                    assert product_value(raised, subset) >= h
                    assert product_value(ones, subset | {sites[i]}) <= h


def valid_lemma2_instance(rng, n):
    """Draw z >= 0 with z(empty) = 0 and invert to the x coefficients."""
    z = rng.uniform(0.0, 3.0, size=1 << n)
    z[0] = 0.0
    x = z.copy()
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                x[mask] -= x[mask ^ bit]
    sites = [(i,) for i in range(n)]
    xs = {frozenset(sites[i] for i in range(n) if m >> i & 1): x[m]
          for m in range(1 << n)}
    ys = {sites[i]: rng.uniform(0.0, 1.0) for i in range(n)}
    return xs, ys


class TestLemma2:
    def test_all_zero_holds_with_equality(self):
        xs = {frozenset(): 0.0, frozenset({(0,)}): 0.0, frozenset({(1,)}): 0.0,
              frozenset({(0,), (1,)}): 0.0}
        ys = {(0,): 0.5, (1,): 0.25}
        report = lemma2_verify(xs, ys)
        assert report.ineq1_ok and report.ineq2_ok

    def test_single_site_second_inequality_only(self):
        xs = {frozenset(): 0.0, frozenset({(0,)}): 2.0}
        report = lemma2_verify(xs, {(0,): 0.7})
        assert report.ineq1_ok is None
        assert report.ineq2_ok

    def test_random_valid_instances(self):
        rng = np.random.default_rng(25)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            xs, ys = valid_lemma2_instance(rng, n)
            report = lemma2_verify(xs, ys)
            assert report.ineq2_ok
            assert report.ineq1_ok in (None, True)

    def test_invalid_instance_rejected(self):
        xs = {frozenset(): 0.0, frozenset({(0,)}): -1.0, frozenset({(1,)}): 0.0,
              frozenset({(0,), (1,)}): 0.0}
        with pytest.raises(ValueError, match="invalid instance"):
            lemma2_verify(xs, {(0,): 0.5, (1,): 0.5})

    def test_nonzero_empty_set_rejected(self):
        with pytest.raises(ValueError, match="invalid instance"):
            lemma2_verify({frozenset(): 1.0, frozenset({(0,)}): 1.0}, {(0,): 0.5})


class TestTextFormat:
    def test_two_dimensional_sites(self):
        f = parse_localfn_text("sites = 0,0; 1,2\n3 1.0\n")
        assert f.support == ((0, 0), (1, 2))
        assert f.table[-1] == 1.0

    def test_sites_of_mixed_dimension_rejected(self):
        with pytest.raises(ValueError, match="one dimension"):
            LocalFunction([(0,), (1, 0)], [0.0, 0.0, 0.0, 1.0])

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_localfn_text("0 1.0\n")  # missing sites
        with pytest.raises(ValueError):
            parse_localfn_text("sites = 0\n7 1.0\n")  # mask out of range
        with pytest.raises(ValueError):
            parse_localfn_text("wrong = 0\n")


class TestSupportLimit:
    def test_large_support_rejected(self):
        sites = [(i,) for i in range(21)]
        with pytest.raises(ValueError):
            LocalFunction(sites, np.zeros(1 << 21))

    def test_unsorted_support_is_canonicalized(self):
        # table given in listed order (5 then 2); bit 0 refers to site 5
        f = LocalFunction([(5,), (2,)], [0.0, 1.0, 10.0, 11.0])
        assert f.support == ((2,), (5,))
        # eta(2)=1, eta(5)=0 had mask 2 in the original listing -> value 10;
        # in the sorted support bit 0 refers to site 2, so it is mask 1
        assert f.table[1] == 10.0
        assert f.table[2] == 1.0
