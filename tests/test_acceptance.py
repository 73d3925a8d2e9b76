"""Acceptance battery.

One test per release criterion, each printing a PASS line on success
(run with `pytest tests/test_acceptance.py -v -s` to see them).  The
slow-suite extensions, the full size-13 exact-cover census among them,
are gated behind NECS_SLOW=1.
"""

from fractions import Fraction
from importlib import resources

from necs import asymptotics as asym
from necs import congruence as cg
from necs import counting as ct
from necs import enumeration as en
from necs import polybasis as pb
from necs import series as se
from necs import trees as tr

from helpers import (
    A_COUNTS,
    LCM_VALUE_COUNTS,
    SHIFT_CLASS_COUNTS,
    TABLE2,
    gaps_decrease,
    shift_class_counts_stream,
    slow,
)


def ok(label):
    print(f"PASS {label}")


def test_01_reversion_head():
    a = se.A_series(8)
    assert a.coeffs[1:] == (1, 1, 3, 10, 39, 160, 691, 3081)
    ok("criterion 1: reversion coefficients 1..8")


def test_02_functional_equation_order_64():
    n = 64
    m = se.mobius_series(n)
    a = se.A_series(n)
    assert se.compose(m, a, n) == se.x_series(n)
    ok("criterion 2: M(A(x)) = x through order 64")


def test_03_count_table_and_row_sums():
    table = ct.count_size_gcd(22)
    for k, row in TABLE2.items():
        assert [table.get(k, m) for m in range(1, k + 1)] == row
    a = se.A_series(22)
    for k in range(1, 23):
        assert table.row_sum(k) == a[k]
    ok("criterion 3: gcd table matches for k <= 13; row sums match reversion to 22")


def test_04_power_sum_identity():
    n_max = 24
    a = se.A_series(n_max)
    for n in range(2, 7):
        lhs = se.power(a, n, n_max)
        total = [0] * (n_max + 1)
        d = 1
        while n * d <= n_max:
            am = se.Am_series(n * d, n_max)
            total = [t + am[i] for i, t in enumerate(total)]
            d += 1
        assert lhs.coeffs == tuple(total)
    ok("criterion 4: A^n = sum_d A_{nd} through order 24 for n = 2..6")


def test_05_enumeration_counts_and_golden():
    for k in range(1, 11):
        flats = [s.classes for s in en.enumerate_necs(k, ordered=False)]
        assert len(flats) == A_COUNTS[k]
        assert len(set(flats)) == len(flats)
    golden = resources.files("necs").joinpath("data").joinpath("table1.txt").read_text()
    chunks = []
    for k in range(1, 5):
        for s in en.enumerate_necs(k):
            chunks.append(cg.format_system_text(s))
    assert "\n".join(chunks) == golden
    ok("criterion 5: enumeration counts to k = 10; size <= 4 listing matches golden")


def test_06_tree_oracle():
    t = se.schroeder_series(9)
    for k in range(1, 10):
        trees = list(tr.enumerate_trees(k))
        assert len(trees) == t[k]
        assert len({tr.chi(x) for x in trees}) == A_COUNTS[k]
    ok("criterion 6: tree counts and leaf-label images for k <= 9")


def test_07_shift_classes_fast():
    for k in range(1, 13):
        assert en.shift_class_count(k) == SHIFT_CLASS_COUNTS[k]
    ok("criterion 7 (fast): shift classes s(k) for k <= 12")


@slow
def test_07_shift_classes_slow():
    for k in (11, 12):
        assert sum(shift_class_counts_stream(k).values()) == SHIFT_CLASS_COUNTS[k]
    ok("criterion 7 (slow): the stream gives s(11) = 8083 and s(12) = 28367")


def test_08_distinct_lcm_counts():
    for k in range(1, 13):
        assert ct.lcm_value_count(k) == LCM_VALUE_COUNTS[k]
    ok("criterion 8: distinct lcm counts t(k) for k <= 12")


TAU = "0.32299391330283353998122564696308569320205174841752276244233373344634953499"
BETA = "-0.562976540744649358189645954216416402249939799218087618317349878994076506622"
ALPHA = "0.580294623807326723064776237226780436649"
RHO = "0.18223393401633630828235226904174072905168066104"
GAMMA = "5.48745218829746214756744529323030925532004291024"
C = "0.08094229418609730035861577123355531751035381267"
M2TAU = "-4.426886252469575251674551833111186610459374194161738"


def _frac_len(s):
    return len(s.split(".")[1])


def test_09_constants_fast():
    cs = asym.constants(60)
    assert cs.tau.decimal(50) == TAU[:52]
    assert cs.rho.decimal(_frac_len(RHO)) == RHO
    assert cs.gamma.decimal(_frac_len(GAMMA)) == GAMMA
    assert cs.c.decimal(_frac_len(C)) == C
    assert cs.m2tau.decimal(_frac_len(M2TAU)) == M2TAU
    alpha = asym.find_alpha(60)
    assert alpha.decimal(_frac_len(ALPHA)) == ALPHA
    beta = asym.find_beta(60)
    assert beta.decimal(50) == BETA[:53]
    assert asym.eval_Mprime(alpha, 30).decimal(7) == "-1.5863869"
    m07 = asym.eval_M(Fraction(7, 10), 30)
    assert m07.decimal(7) == "-0.2582108"
    ok("criterion 9 (fast): all printed constants, tau and beta to 50 digits")


@slow
def test_09_constants_slow_full_digits():
    tau = asym.find_tau(80)
    assert tau.decimal(_frac_len(TAU)) == TAU
    beta = asym.find_beta(80)
    assert beta.decimal(_frac_len(BETA)) == BETA
    ok("criterion 9 (slow): every printed digit of tau (74) and beta (75)")


def test_10_phi_coefficients():
    phi = se.phi_series(200)
    assert phi.coeffs[:10] == (1, 1, 2, 3, 6, 9, 17, 28, 50, 83)
    assert all(c >= 0 for c in phi.coeffs)
    ok("criterion 10: phi coefficients 0..9 and nonnegativity to order 200")


def test_11_identity_battery():
    rep = asym.identity_checks(35)
    at_tau = {r.name: r.residual_bound for r in rep.results if r.point == "tau"}
    assert set(at_tau) == {"lambert", "derivative-sum", "gcd-weights"}
    limit = Fraction(1, 10**30)
    for name, bound in at_tau.items():
        assert bound <= limit, name
    ok("criterion 11: certified identity residuals <= 1e-30 at tau")


def test_12_binomial_basis():
    printed = {
        1: (1,),
        2: (3, 1),
        3: (10, 6, 1),
        4: (39, 29, 9, 1),
        5: (160, 138, 57, 12, 1),
        6: (691, 654, 324, 94, 15, 1),
    }
    for n, coeffs in printed.items():
        assert pb.binomial_coeffs(n).coeffs == coeffs
    table = ct.count_size_gcd(22)
    for n in range(1, 7):
        for g in range(n + 1, 17):
            assert pb.evaluate_f(n, g) == table.get(g + n, g)
    for l in range(1, 6):
        for m in range(l, 17):
            assert pb.backward_difference_check(l, m) == 3**l
    ok("criterion 12: printed polynomials, diagonal counts, 3^l differences")


def test_13_convergence_trend():
    rep = asym.ratio_check(22)
    last = rep.rows[-1]
    assert last.k == 22
    assert abs(last.ratio - rep.target) / rep.target < 0.10
    assert gaps_decrease(rep, 15, 22)
    for m in (2, 3):
        gcd_rep = asym.gcd_ratio_check(22, m)
        assert gaps_decrease(gcd_rep, 15, 22)
    ok("criterion 13: ratio within 10% at k = 22, gaps decreasing, gcd trends")


def test_14_ecs_equals_necs_small():
    for k in range(1, 7):
        assert set(en.enumerate_ecs(k)) == set(en.enumerate_necs(k))
    ok("criterion 14 (fast): exact covers equal natural ones for k <= 6")


@slow
def test_14_ecs_gcd1_size13():
    found = list(en.enumerate_ecs(13, en.EcsSearchConfig(gcd=1)))
    assert len(found) == 30
    assert all(cg.is_exact(s) for s in found)
    assert all(not cg.is_natural(s) for s in found)
    ok("criterion 14 (slow): exactly 30 gcd-1 exact covers of size 13, none natural")


@slow
def test_14_full_ecs_census_size13():
    natural_total = ct.count_size_gcd(13).row_sum(13)
    assert natural_total == 7266979
    total = en.count_ecs(13, en.EcsSearchConfig(budget_seconds=3600 * 3))
    assert total == 7267009
    ok("criterion 14 (full): size-13 exact-cover census totals 7267009")
