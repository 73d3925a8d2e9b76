"""Binomial-basis diagonal polynomials and the 3^l difference identity."""

import warnings

import pytest

from necs import counting as ct
from necs import polybasis as pb
from necs import series as se


@pytest.fixture(scope="module")
def table():
    return ct.count_size_gcd(22)


PRINTED = {
    1: (1,),
    2: (3, 1),
    3: (10, 6, 1),
    4: (39, 29, 9, 1),
    5: (160, 138, 57, 12, 1),
    6: (691, 654, 324, 94, 15, 1),
}


class TestCoefficients:
    @pytest.mark.parametrize("n,coeffs", sorted(PRINTED.items()))
    def test_printed_polynomials(self, n, coeffs):
        assert pb.binomial_coeffs(n).coeffs == coeffs

    def test_structure(self):
        a = se.A_series(18)
        for n in range(1, 17):
            bp = pb.binomial_coeffs(n)
            assert len(bp.coeffs) == n
            assert all(c > 0 for c in bp.coeffs)
            assert bp.coeffs[-1] == 1  # leading term g^n/n!
            assert bp.coeffs[0] == a[n + 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            pb.binomial_coeffs(0)


class TestEvaluation:
    def test_diagonals_match_count_table(self, table):
        for n in range(1, 7):
            for g in range(n + 1, 17):
                assert pb.evaluate_f(n, g) == table.get(g + n, g), (n, g)

    def test_linear_case(self, table):
        assert pb.evaluate_f(1, 4) == 4 == table.get(5, 4)

    def test_known_value(self, table):
        assert pb.evaluate_f(2, 3) == 12 == table.get(5, 3)

    def test_boundary_is_sharp(self, table):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = pb.evaluate_f(2, 2)
        assert value == 7
        assert table.get(4, 2) == 6
        assert len(caught) == 1
        assert issubclass(caught[0].category, pb.ValidityWarning)

    def test_no_warning_inside_region(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pb.evaluate_f(2, 3)
        assert not caught


class TestBackwardDifferences:
    def test_first_difference_by_hand(self):
        # c(3,2) - c(2,1) = 6 - 3
        assert pb.backward_difference_check(1, 2) == 3

    def test_second_difference(self):
        # c(4,2) - 2 c(3,1) + c(2,0) = 29 - 20 + 0
        assert pb.backward_difference_check(2, 2) == 9

    def test_zeroth_difference(self):
        for m in range(1, 8):
            assert pb.backward_difference_check(0, m) == 1

    def test_equals_powers_of_three(self):
        for l in range(1, 6):
            for m in range(l, 17):
                assert pb.backward_difference_check(l, m) == 3**l, (l, m)

    def test_one_table_serves_every_pair(self):
        diffs = pb.backward_differences(5, 16)
        assert list(diffs) == [(l, m) for l in range(6) for m in range(l, 17)]
        assert all(v == 3**l for (l, m), v in diffs.items())

    def test_validation(self):
        with pytest.raises(ValueError):
            pb.backward_difference_check(3, 2)
        with pytest.raises(ValueError):
            pb.backward_differences(-1, 4)
