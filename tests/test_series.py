"""Exact series algebra: Mobius sieve, reversion, and the named series."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necs import series as se

from helpers import A_COUNTS, SCHROEDER, revert_power_table, slow


def mobius_trial_division(n: int) -> int:
    """Independent oracle by factorization."""
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def naive_mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a.coeffs[: order + 1]):
        for j, y in enumerate(b.coeffs[: order + 1]):
            if i + j <= order:
                out[i + j] += x * y
    return se.IntSeries(out)


class TestMobius:
    def test_small_values(self):
        assert se.mobius(1) == 1
        assert se.mobius(4) == 0
        assert se.mobius(6) == 1
        assert se.mobius(7) == -1
        assert se.mobius(30) == -1  # three distinct primes

    def test_sieve_against_trial_division(self):
        mu = se.mobius_upto(500)
        for n in range(1, 501):
            assert mu[n] == mobius_trial_division(n), n

    def test_prime_factors_agree_with_the_sieve(self):
        assert se.prime_factors(1) == []
        assert se.prime_factors(360) == [2, 3, 5]
        assert se.prime_factors(2**40 * 97) == [2, 97]
        mu = se.mobius_upto(500)
        for n in range(1, 501):
            fs = se.prime_factors(n)
            assert fs == sorted(fs) and all(n % p == 0 for p in fs), n
            assert all(all(p % q for q in range(2, p)) for p in fs), n
            squarefree = n == prod(fs)
            assert mu[n] == ((-1) ** len(fs) if squarefree else 0), n

    def test_divisor_sums_collapse(self):
        # sum of mu over divisors of i vanishes except at i = 1
        bound = 10**4
        mu = se.mobius_upto(bound)
        sums = [0] * (bound + 1)
        for n in range(1, bound + 1):
            for i in range(n, bound + 1, n):
                sums[i] += mu[n]
        assert sums[1] == 1
        assert all(s == 0 for s in sums[2:])

    def test_series_head(self):
        # x - x^2 - x^3 - x^5 + x^6 - x^7 + x^10 - x^11 - x^13 + x^14 + x^15
        m = se.mobius_series(15)
        expected = [0, 1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1]
        assert list(m.coeffs) == expected
        assert m[0] == 0


class TestAlgebra:
    def test_power_by_hand(self):
        s = se.IntSeries([0, 1, 1, 0, 0])
        assert se.power(s, 2, 4).coeffs == (0, 0, 1, 2, 1)

    def test_compose_identity(self):
        m = se.mobius_series(12)
        assert se.compose(m, se.x_series(12), 12) == m

    def test_compose_rejects_nonzero_constant(self):
        with pytest.raises(ValueError):
            se.compose(se.x_series(4), se.IntSeries([1, 1, 0, 0, 0]), 4)

    def test_mul_against_naive_convolution(self):
        rng = random.Random(3)
        for _ in range(25):
            order = rng.randrange(1, 12)
            a = se.IntSeries([rng.randrange(-9, 10) for _ in range(order + 1)])
            b = se.IntSeries([rng.randrange(-9, 10) for _ in range(order + 1)])
            assert se.mul(a, b, order) == naive_mul(a, b, order)

    @given(st.lists(st.integers(-50, 50), min_size=3, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_mul_distributes(self, coeffs):
        order = len(coeffs) - 1
        a = se.IntSeries(coeffs)
        b = se.IntSeries(coeffs[::-1])
        c = se.IntSeries([1] * (order + 1))
        lhs = se.mul(a, se.add(b, c, order), order)
        rhs = se.add(se.mul(a, b, order), se.mul(a, c, order), order)
        assert lhs == rhs

    def test_derivative(self):
        s = se.IntSeries([5, 1, 3, 2])
        assert se.derivative(s).coeffs == (1, 6, 6)

    @pytest.mark.parametrize("bad", [1.9, 2.0, Fraction(1, 2)])
    def test_non_integer_coefficients_refused(self, bad):
        # int() would truncate 1.9 to 1 without a word
        with pytest.raises(TypeError, match="must be integers"):
            se.IntSeries([0, bad, 2])

    def test_truncation_is_explicit(self):
        s = se.x_series(3)
        with pytest.raises(ValueError):
            se.mul(s, s, 5)
        with pytest.raises(IndexError):
            s[4]


# a tail coefficient is a unit or zero (the signed sums) or has |g_i| >= 2
# (the products), so both branches of _divide run
DIVISOR_COEFF = st.one_of(st.sampled_from([-1, 0, 1]), st.integers(2, 30), st.integers(-30, -2))


def phi_recurrence(n):
    """phi = 1/G with G = M(x)/x, coefficient by coefficient: c_0 = 1 and
    c_k = -sum_{j=1..k} mu(j + 1) c_(k-j)."""
    mu = se.mobius_upto(n + 1)
    c = [1]
    for k in range(1, n + 1):
        c.append(-sum(mu[j + 1] * c[k - j] for j in range(1, k + 1)))
    return c


class TestDivision:
    @given(
        st.sampled_from([1, -1]),
        st.lists(DIVISOR_COEFF, max_size=30),
        st.lists(st.integers(-10**6, 10**6), min_size=31, max_size=31),
    )
    @settings(max_examples=100, deadline=None)
    def test_quotient_times_divisor_is_dividend(self, g0, tail, f):
        g = [g0] + tail
        n = len(g) - 1
        f = se.IntSeries(f[: n + 1])
        q = se.IntSeries(se._divide(f.coeffs, g, n))
        assert se.mul(q, se.IntSeries(g), n) == f

    def test_refuses_non_unit_constant_term(self):
        with pytest.raises(ValueError):
            se._divide([1, 0, 0], [2, 1, 0], 2)

    def test_phi_against_recurrence_to_200(self):
        ref = phi_recurrence(200)
        for n in range(201):
            assert list(se.phi_series(n).coeffs) == ref[: n + 1], n


class TestReversion:
    def test_reversion_of_x(self):
        assert se.revert(se.x_series(6), 6) == se.x_series(6)

    def test_catalan(self):
        # x - x^2 reverts to the Catalan generating series
        s = se.IntSeries([0, 1, -1, 0, 0, 0])
        r = se.revert(s, 5)
        assert r.coeffs == (0, 1, 1, 2, 5, 14)
        assert se.compose(s, r, 5) == se.x_series(5)

    def test_requires_unit_linear_coefficient(self):
        with pytest.raises(ValueError):
            se.revert(se.IntSeries([0, 2, 1, 0]), 3)
        with pytest.raises(ValueError):
            se.revert(se.IntSeries([1, 1, 0, 0]), 3)
        # the order is checked before the linear coefficient is read
        with pytest.raises(ValueError, match="need order >= 1"):
            se.revert(se.IntSeries([0]), 0)

    def test_revert_is_two_sided(self):
        m = se.mobius_series(24)
        a = se.revert(m, 24)
        assert se.compose(m, a, 24) == se.x_series(24)
        assert se.compose(a, m, 24) == se.x_series(24)

    @given(st.lists(st.integers(-4, 4), min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_revert_random_unit_series(self, tail):
        coeffs = [0, 1] + tail
        order = len(coeffs) - 1
        s = se.IntSeries(coeffs)
        r = se.revert(s, order)
        assert se.compose(s, r, order) == se.x_series(order)


class TestReversionOracle:
    """Lagrange inversion against the triangular power-table recurrence."""

    def test_mobius_every_order_to_120(self):
        for n in range(1, 121):
            m = se.mobius_series(n)
            assert se.revert(m, n) == revert_power_table(m, n), n

    @slow
    @pytest.mark.parametrize("n", [300, 400])
    def test_mobius_large_orders(self, n):
        m = se.mobius_series(n)
        assert se.revert(m, n) == revert_power_table(m, n)

    @given(st.sampled_from([1, -1]), st.lists(st.integers(-20, 20), max_size=39))
    @settings(max_examples=100, deadline=None)
    def test_random_unit_series(self, s1, tail):
        s = se.IntSeries([0, s1] + tail)
        assert se.revert(s, s.order) == revert_power_table(s, s.order)


class TestNamedSeries:
    def test_A_head(self):
        a = se.A_series(8)
        assert a.coeffs[1:] == (1, 1, 3, 10, 39, 160, 691, 3081)

    def test_A_matches_published_counts(self):
        a = se.A_series(13)
        for k in range(1, 14):
            assert a[k] == A_COUNTS[k]

    def test_A_coefficients_positive(self):
        a = se.A_series(64)
        assert all(c > 0 for c in a.coeffs[1:])

    def test_Am_one_is_x(self):
        assert se.Am_series(1, 12) == se.x_series(12)

    def test_Am_two_matches_gcd2_column(self):
        am2 = se.Am_series(2, 8)
        assert am2.coeffs[2:] == (1, 2, 6, 22, 88, 372, 1636)

    def test_Am_sum_is_A(self):
        n = 14
        a = se.A_series(n)
        total = [0] * (n + 1)
        for m in range(1, n + 1):
            am = se.Am_series(m, n)
            total = [t + am[i] for i, t in enumerate(total)]
        assert tuple(total) == a.coeffs

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_power_sum_identity(self, n):
        # A^n = sum over d >= 1 of A_{nd}; the sum truncates since A_m
        # starts at x^m
        order = 18
        a = se.A_series(order)
        lhs = se.power(a, n, order)
        total = [0] * (order + 1)
        d = 1
        while n * d <= order:
            am = se.Am_series(n * d, order)
            total = [t + am[i] for i, t in enumerate(total)]
            d += 1
        assert lhs.coeffs == tuple(total)

    def test_schroeder_head(self):
        t = se.schroeder_series(10)
        assert list(t.coeffs[1:]) == SCHROEDER[1:]

    def test_schroeder_solves_quadratic(self):
        n = 20
        t = se.schroeder_series(n)
        two_t2 = se.mul(t, t, n).coeffs
        for k in range(n + 1):
            lhs = 2 * two_t2[k] - t[k] - (t[k - 1] if k >= 1 else 0) + (1 if k == 1 else 0)
            assert lhs == 0

    def test_schroeder_dominates_A(self):
        t = se.schroeder_series(20)
        a = se.A_series(20)
        assert all(t[k] >= a[k] for k in range(1, 21))

    def test_phi_head(self):
        phi = se.phi_series(9)
        assert phi.coeffs == (1, 1, 2, 3, 6, 9, 17, 28, 50, 83)

    def test_phi_nonnegative_to_200(self):
        phi = se.phi_series(200)
        assert all(c >= 0 for c in phi.coeffs)

    def test_phi_functional_equation(self):
        # A = x * phi(A)
        n = 20
        a = se.A_series(n)
        phi = se.phi_series(n)
        assert se.mul(se.x_series(n), se.compose(phi, a, n), n) == a

    def test_phi_reciprocal_of_G(self):
        n = 30
        phi = se.phi_series(n)
        mu = se.mobius_upto(n + 1)
        g = se.IntSeries([mu[j + 1] for j in range(n + 1)])
        assert se.mul(phi, g, n) == se.IntSeries([1] + [0] * n)
