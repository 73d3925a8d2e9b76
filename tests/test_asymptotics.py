"""Fixed-point arithmetic, certified roots, and the growth constants."""

import time
from fractions import Fraction
from math import factorial, perm

import pytest

from necs import asymptotics as asym
from necs import cli

from helpers import gaps_decrease, identity_checks_exact, pick_terms_linear, slow, tail_leibniz

# decimal expansions as printed to their full stated precision
TAU_DIGITS = "0.32299391330283353998122564696308569320205174841752276244233373344634953499"
BETA_DIGITS = "-0.562976540744649358189645954216416402249939799218087618317349878994076506622"
ALPHA_DIGITS = "0.580294623807326723064776237226780436649"
RHO_DIGITS = "0.18223393401633630828235226904174072905168066104"
GAMMA_DIGITS = "5.48745218829746214756744529323030925532004291024"
C_DIGITS = "0.08094229418609730035861577123355531751035381267"
M2TAU_DIGITS = "-4.426886252469575251674551833111186610459374194161738"


def frac_digits(s: str) -> int:
    return len(s.split(".")[1])


class TestFixedReal:
    def test_value_and_decimal(self):
        x = asym.FixedReal(32299, 5)
        assert x.value() == Fraction(32299, 100000)
        assert x.decimal() == "0.32299"
        assert x.decimal(3) == "0.322"
        assert x.decimal(8) == "0.32299000"
        assert asym.FixedReal(-32299, 5).decimal(3) == "-0.322"

    def test_from_fraction_rounds_with_honest_error(self):
        x = asym.from_fraction(Fraction(1, 3), 4)
        assert x.mantissa == 3333
        assert abs(Fraction(1, 3) - x.value()) <= x.error_bound

    def test_arithmetic_contains_truth(self):
        a = asym.from_fraction(Fraction(22, 7), 10)
        b = asym.from_fraction(Fraction(-3, 11), 10)
        cases = [
            (asym.fx_add(a, b), Fraction(22, 7) + Fraction(-3, 11)),
            (asym.fx_add(a, asym.fx_neg(b)), Fraction(22, 7) - Fraction(-3, 11)),
            (asym.fx_mul(a, b, 12), Fraction(22, 7) * Fraction(-3, 11)),
            (asym.fx_div(a, b, 12), Fraction(22, 7) / Fraction(-3, 11)),
        ]
        for got, want in cases:
            assert abs(got.value() - want) <= got.error_bound

    def test_sqrt(self):
        x = asym.fx_sqrt(asym.from_fraction(2, 30), 30)
        assert x.decimal(25) == "1.4142135623730950488016887"
        good = asym.from_fraction(Fraction(2), 10)
        assert abs(asym.fx_sqrt(good, 40).value() ** 2 - 2) < Fraction(1, 10**35)

    def test_sqrt_rejects_uncertain_sign(self):
        shaky = asym.FixedReal(1, 10, Fraction(1, 10**6))
        with pytest.raises(ValueError):
            asym.fx_sqrt(shaky, 10)

    def test_division_requires_nonzero(self):
        shaky = asym.FixedReal(1, 10, Fraction(1))
        with pytest.raises(ZeroDivisionError):
            asym.fx_div(asym.from_fraction(1, 10), shaky, 10)

    def test_pi(self):
        pi = asym.pi_fixed(60)
        assert pi.decimal(50) == "3.14159265358979323846264338327950288419716939937510"
        assert pi.error_bound < Fraction(1, 10**55)


class TestSeriesEvaluation:
    def test_M_at_zero_and_small_rationals(self):
        assert asym.eval_M(0, 30).magnitude_bound() < Fraction(1, 10**25)
        m = asym.eval_M(Fraction(1, 2), 40)
        # M(1/2) = sum mu(k) 2^-k, cross-checked against a direct partial sum
        from necs.series import mobius_upto

        mu = mobius_upto(400)
        partial = sum(Fraction(mu[k], 2**k) for k in range(1, 401))
        assert abs(m.value() - partial) < Fraction(1, 10**35)

    def test_derivative_at_zero(self):
        assert asym.eval_Mprime(0, 30).value() == 1

    def test_M_at_07(self):
        m = asym.eval_M(Fraction(7, 10), 30)
        assert m.decimal(7).startswith("-0.2582108")
        assert m.error_bound < Fraction(1, 10**25)

    def test_radius_guard(self):
        with pytest.raises(ValueError):
            asym.eval_M(Fraction(72, 100), 20)

    def test_error_bounds_contain_double_precision_recompute(self):
        # recompute at twice the digits and check containment; d = 3, 4 are
        # the third and fourth derivatives of the next-order growth law
        for d in range(5):
            for x in (Fraction(3, 10), Fraction(-1, 2), Fraction(7, 10)):
                coarse = asym._eval_derivative(d, x, 20)
                fine = asym._eval_derivative(d, x, 40)
                assert abs(coarse.value() - fine.value()) <= coarse.error_bound, (d, x)

    @pytest.mark.parametrize("r", [Fraction(3, 10), Fraction(1, 2), Fraction(71, 100)])
    def test_tail_closed_form(self, r):
        # the whole d-th derivative of 1/(1-r), and the tail drops one term
        # at a time
        for d in range(6):
            assert asym._tail(d, d - 1, r) == factorial(d) / (1 - r) ** (d + 1)
            for n in range(d, d + 12):
                drop = asym._tail(d, n, r) - asym._tail(d, n + 1, r)
                assert drop == perm(n + 1, d) * r ** (n + 1 - d)

    def test_integer_tail_matches_leibniz_fractions(self):
        radii = (Fraction(0), Fraction(1, 10**4), Fraction(3, 10), Fraction(1, 2), Fraction(71, 100))
        for r in radii:
            for d in range(5):
                for n in range(61):  # n < d included
                    assert asym._tail(d, n, r) == tail_leibniz(d, n, r), (d, n, r)

    def test_pick_terms_matches_linear_scan(self, monkeypatch, capsys):
        # every (d, radius, target) that one asympt command asks for
        keys = set()
        pick = asym._pick_terms

        def spy(*key):
            keys.add(key)
            return pick(*key)

        monkeypatch.setattr(asym, "_pick_terms", spy)
        assert cli.run(["asympt", "--digits", "60", "--identities", "--ratios", "40"]) == 0
        capsys.readouterr()
        assert len(keys) > 100
        for key in keys:
            assert pick.__wrapped__(*key) == pick_terms_linear(*key), key

    @pytest.mark.parametrize("digits", [-1, -5])
    @pytest.mark.parametrize("evaluate", [asym.eval_M, asym.eval_Mprime, asym.eval_Mdoubleprime])
    def test_negative_digits_rejected(self, evaluate, digits):
        with pytest.raises(ValueError):
            evaluate(Fraction(1, 2), digits)

    def test_input_error_is_propagated(self):
        wobbly = asym.FixedReal(3 * 10**19, 20, Fraction(1, 10**10))
        out = asym.eval_M(wobbly, 30)
        assert out.error_bound >= Fraction(1, 10**11)


class TestRoots:
    def test_tau_digits(self):
        tau = asym.find_tau(60)
        assert tau.error_bound <= Fraction(1, 10**60)
        assert tau.decimal(55) == TAU_DIGITS[: 2 + 55]

    def test_alpha_digits(self):
        alpha = asym.find_alpha(45)
        assert alpha.decimal(frac_digits(ALPHA_DIGITS)) == ALPHA_DIGITS

    def test_beta_digits(self):
        beta = asym.find_beta(60)
        assert beta.decimal(55) == BETA_DIGITS[: 3 + 55]

    @pytest.mark.parametrize(
        "digits", [range(1, 31), pytest.param(range(31, 71), marks=slow)], ids=["fast", "slow"]
    )
    def test_every_digit_count(self, digits):
        # each root truncates to the published digits, certified on the
        # first, narrowest bracket
        roots = [(asym.find_tau, TAU_DIGITS, 70), (asym.find_beta, BETA_DIGITS, 70),
                 (asym.find_alpha, ALPHA_DIGITS, 36)]
        for find, want, top in roots:
            for d in digits:
                if d > top:
                    break
                root = find(d)
                head = want.index(".") + 1 + d
                assert root.decimal(d) == want[:head], (find.__name__, d)
                assert root.error_bound == Fraction(1, 10 ** (d + 2)), (find.__name__, d)

    def test_no_sign_change_in_the_bracket(self):
        with pytest.raises(ArithmeticError, match="no sign change"):
            asym._certified_root(1, Fraction(1, 20), Fraction(1, 10), 10)

    def test_roots_certified_by_sign_change(self):
        tau = asym.find_tau(40)
        d = Fraction(1, 10**38)
        left = asym.eval_Mprime(tau.value() - d - tau.error_bound, 45)
        right = asym.eval_Mprime(tau.value() + d + tau.error_bound, 45)
        assert asym.is_definitely_positive(left)
        assert asym.is_definitely_negative(right)

    def test_mprime_vanishes_at_tau(self):
        tau = asym.find_tau(50)
        v = asym.eval_Mprime(tau, 50)
        assert v.magnitude_bound() < Fraction(1, 10**45)

    def test_G_vanishes_at_alpha(self):
        # alpha is the positive zero of G(u) = M(u)/u, found as the zero of M
        alpha = asym.find_alpha(50)
        v = asym.eval_M(alpha, 50)
        assert v.magnitude_bound() < Fraction(1, 10**45)

    def test_tau_inside_disc(self):
        tau = asym.find_tau(30)
        alpha = asym.find_alpha(30)
        assert tau.value() + tau.error_bound < alpha.value() - alpha.error_bound

    def test_mprime_at_alpha(self):
        alpha = asym.find_alpha(40)
        v = asym.eval_Mprime(alpha, 30)
        assert v.decimal(7) == "-1.5863869"


@pytest.fixture(scope="module")
def consts():
    return asym.constants(60)


class TestConstants:

    def test_certified_precision(self, consts):
        for v in consts.as_dict().values():
            assert v.error_bound <= Fraction(1, 10**60)

    def test_printed_digits(self, consts):
        assert consts.rho.decimal(frac_digits(RHO_DIGITS)) == RHO_DIGITS
        assert consts.gamma.decimal(frac_digits(GAMMA_DIGITS)) == GAMMA_DIGITS
        assert consts.c.decimal(frac_digits(C_DIGITS)) == C_DIGITS
        assert consts.m2tau.decimal(frac_digits(M2TAU_DIGITS)) == M2TAU_DIGITS

    def test_internal_consistency(self, consts):
        # gamma * rho = 1 and c = d1 / (2 sqrt(pi))
        prod = asym.fx_mul(consts.gamma, consts.rho, 60)
        assert abs(prod.value() - 1) <= prod.error_bound
        pi = asym.pi_fixed(70)
        lhs = asym.fx_mul(consts.c, asym.fx_mul(asym.from_fraction(2, 66), asym.fx_sqrt(pi, 66), 66), 66)
        assert abs(lhs.value() - consts.d1.value()) <= lhs.error_bound + consts.d1.error_bound


class TestDiagnostics:
    @pytest.mark.parametrize(
        "report", [asym.ratio_check, lambda k: asym.gcd_ratio_check(k, 2)], ids=["all", "gcd-2"]
    )
    def test_ratios_beyond_float_range_refused_early(self, report):
        # gamma^417 overflows a double; the count table is never filled
        start = time.perf_counter()
        with pytest.raises(ValueError, match="overflows"):
            report(417)
        assert time.perf_counter() - start < 5

    def test_ratio_table(self):
        rep = asym.ratio_check(22)
        by_k = {r.k: r for r in rep.rows}
        assert abs(by_k[22].ratio - rep.target) / rep.target < 0.10
        assert gaps_decrease(rep, 15, 22)

    def test_gcd_ratio_tables(self):
        for m in (2, 3):
            rep = asym.gcd_ratio_check(22, m)
            assert rep.target > 0
            assert gaps_decrease(rep, 15, 22)
        trivial = asym.gcd_ratio_check(18, 1)
        assert abs(trivial.target) < 1e-40  # the weight carries a factor M'(tau)
        assert all(r.ratio == 0 for r in trivial.rows if r.k >= 2)

    def test_identity_residuals(self):
        rep = asym.identity_checks(35)
        names = {(r.name, r.point) for r in rep.results}
        assert ("lambert", "tau") in names
        assert ("derivative-sum", "1/2") in names
        assert ("gcd-weights", "tau") in names
        assert rep.worst() < Fraction(1, 10**30)


class TestIdentityBattery:
    @pytest.mark.parametrize("digits", [1, 10, 35])
    def test_residuals_fit_the_target(self, digits):
        # both truncation tails are sized, so the whole bound fits
        assert asym.identity_checks(digits).worst() <= Fraction(1, 10 ** (digits + 2))

    @pytest.mark.parametrize("digits", [5, 10, 35, pytest.param(60, marks=slow)])
    def test_grid_bounds_against_exact_oracle(self, digits):
        # rounding the bounds up onto the grid loosens each one, by far less
        # than any digit the battery reports
        got = [(r.name, r.point, r.residual_bound) for r in asym.identity_checks(digits).results]
        want = identity_checks_exact(digits)
        assert [g[:2] for g in got] == [w[:2] for w in want]
        for (name, point, bound), (_, _, exact) in zip(got, want):
            assert exact <= bound < exact + Fraction(1, 10 ** (digits + 20)), (name, point)

    def test_residual_bounds_stay_on_the_grid(self):
        # every error is carried in ulps of 10^-places, places = digits + 44;
        # the exact rational bounds of identity_checks_exact have
        # denominators of about 4,060 digits here
        digits = 35
        grid = 10 ** (digits + 44)
        for r in asym.identity_checks(digits).results:
            assert grid % r.residual_bound.denominator == 0, (r.name, r.point)
