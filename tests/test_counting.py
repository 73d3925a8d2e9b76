"""Count tables by size/gcd/lcm/period and the distinct lcm values."""

from itertools import product
from math import gcd, lcm

import pytest

from necs import counting as ct
from necs import enumeration as en
from necs import series as se

from helpers import (
    LCM_VALUE_COUNTS,
    SHIFT_CLASS_COUNT_25,
    TABLE2,
    count_size_gcd_lcm_rows,
    count_size_gcd_rows,
    distinct_lcm_values_reachability,
    least_period,
    slow,
)


@pytest.fixture(scope="module")
def table13():
    return ct.count_size_gcd(13)


class TestSizeGcd:
    def test_published_table(self, table13):
        for k, row in TABLE2.items():
            assert [table13.get(k, m) for m in range(1, k + 1)] == row

    def test_base_cases(self, table13):
        for k in range(1, 14):
            assert table13.get(k, k) == 1
            assert table13.get(k, 1) == (1 if k == 1 else 0)
            assert table13.get(k, k + 3) == 0

    def test_row_sums_match_reversion(self):
        table = ct.count_size_gcd(22)
        a = se.A_series(22)
        for k in range(1, 23):
            assert table.row_sum(k) == a[k]

    def test_row_sums_match_reversion_at_100(self):
        table = ct.count_size_gcd(100)
        a = se.A_series(100)
        assert [table.row_sum(k) for k in range(1, 101)] == list(a.coeffs[1:])

    def test_matches_row_by_row_reference(self):
        for k in (1, 2, 3, 7, 30):
            want = {km: v for km, v in count_size_gcd_rows(k).items() if v}
            assert ct.count_size_gcd(k).entries == want, k

    def test_columns_match_composition(self):
        # column m of the powers table against A_m = M(A^m) by composition
        table = ct.count_size_gcd(40)
        for m in range(1, 7):
            assert [table.get(k, m) for k in range(41)] == list(se.Am_series(m, 40).coeffs), m

    def test_known_entries(self, table13):
        assert table13.get(5, 2) == 22
        assert table13.get(7, 3) == 207
        assert table13.get(13, 2) == 3728168

    def test_composition_recurrence_at_general_divisor(self, table13):
        # brute-force the defining sum: over compositions of k into n parts
        # and gcd-d tuples of piece gcds, products of counts give a(k, n*d)
        def compositions(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(1, total - parts + 2):
                for rest in compositions(total - first, parts - 1):
                    yield (first,) + rest

        for k, n, d in [(4, 2, 1), (5, 2, 2), (6, 2, 2), (6, 3, 2), (8, 2, 3), (9, 3, 2), (9, 2, 4)]:
            total = 0
            for comp in compositions(k, n):
                ranges = [range(1, j + 1) for j in comp]
                for ms in product(*ranges):
                    g = 0
                    for m in ms:
                        g = gcd(g, m)
                    if g != d:
                        continue
                    prod = 1
                    for j, m in zip(comp, ms):
                        prod *= table13.get(j, m)
                    total += prod
            assert total == table13.get(k, n * d), (k, n, d)

    def test_cache_roundtrip(self, tmp_path):
        path = str(tmp_path / "counts.json")
        t1 = ct.count_size_gcd(8, cache_path=path)
        t2 = ct.count_size_gcd(8, cache_path=path)
        assert t1.entries == t2.entries
        # a larger request recomputes the table and rewrites the cache
        t3 = ct.count_size_gcd(11, cache_path=path)
        fresh = ct.count_size_gcd(11)
        assert t3.entries == fresh.entries
        # shrinking view
        t4 = ct.count_size_gcd(5, cache_path=path)
        assert t4.max_size == 5
        assert all(k <= 5 for k, _ in t4.entries)

    def test_cache_write_uses_a_private_temporary_file(self, tmp_path):
        # another writer's temporary file must neither block nor be reused
        path = tmp_path / "counts.json"
        (tmp_path / "counts.json.tmp").mkdir()
        table = ct.count_size_gcd(6, cache_path=str(path))
        assert ct.count_size_gcd(6, cache_path=str(path)).entries == table.entries
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["counts.json", "counts.json.tmp"]
        plain = tmp_path / "plain.json"
        plain.write_text("")
        assert path.stat().st_mode == plain.stat().st_mode  # as open() would create it

    def test_cache_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 9}')
        with pytest.raises(ValueError):
            ct.count_size_gcd(4, cache_path=str(path))


class TestSizeGcdLcm:
    def test_table1_cross_section(self):
        t = ct.count_size_gcd_lcm(4)
        assert t.get(3, 2, 4) == 2
        assert t.get(4, 2, 8) == 4
        assert t.get(4, 3, 6) == 3
        assert t.get(4, 4, 4) == 1
        assert t.get(4, 2, 6) == 2

    def test_gcd_divides_lcm(self):
        t = ct.count_size_gcd_lcm(9)
        for (k, m, l), v in t.entries.items():
            assert v > 0
            assert l % m == 0

    def test_marginal_matches_gcd_table(self, table13):
        # the recurrence against the powers of A; with lcm_max=1 every lcm
        # above 1 shares one bucket, which keeps the recurrence fast at 40
        for size, lcm_max, table in [(10, None, table13), (40, 1, ct.count_size_gcd(40))]:
            marg = ct.count_size_gcd_lcm(size, lcm_max).marginal()
            for k in range(1, size + 1):
                for m in range(1, k + 1):
                    assert marg.get(k, m) == table.get(k, m), (k, m)

    def test_overflow_bucket(self):
        t = ct.count_size_gcd_lcm(7, lcm_max=12)
        assert t.overflowed
        full = ct.count_size_gcd_lcm(7)
        # bucketed counts are not lost
        for k in range(1, 8):
            for m in range(1, k + 1):
                want = sum(v for (kk, mm, _), v in full.entries.items() if (kk, mm) == (k, m))
                got = sum(v for (kk, mm, _), v in t.entries.items() if (kk, mm) == (k, m))
                assert got == want
        assert not full.overflowed

    @pytest.mark.parametrize("lcm_max", [0, -5])
    def test_lcm_max_below_one_rejected(self, lcm_max):
        with pytest.raises(ValueError):
            ct.count_size_gcd_lcm(3, lcm_max)


class TestLcmReference:
    @pytest.mark.parametrize("lcm_max", [None, 12])
    def test_matches_row_by_row_reference(self, lcm_max):
        for k in range(1, 13):
            want = count_size_gcd_lcm_rows(k, lcm_max)
            assert ct.count_size_gcd_lcm(k, lcm_max).entries == want, k


class TestSizeGcdPeriod:
    def test_matches_least_period_of_every_system(self):
        periods = ct.count_size_gcd_period(8)
        for k in range(1, 9):
            direct = {}
            for s in en.enumerate_necs(k, ordered=False):
                flat = s.classes  # sorted, as least_period compares it
                key = (gcd(*(n for n, _ in flat)), least_period(flat))
                direct[key] = direct.get(key, 0) + 1
            got = {(m, p): c for (kk, m), vec in periods.items() if kk == k for p, c in vec.items()}
            assert got == direct, k

    def test_totals_match_gcd_table_at_25(self):
        periods = ct.count_size_gcd_period(25)
        table = ct.count_size_gcd(25)
        assert {km: sum(vec.values()) for km, vec in periods.items()} == {
            km: v for km, v in table.entries.items() if v
        }
        # systems of period p form orbits of p members
        assert all(c % p == 0 for vec in periods.values() for p, c in vec.items())
        assert sum(c // p for (k, _), vec in periods.items() if k == 25 for p, c in vec.items()) == (
            SHIFT_CLASS_COUNT_25
        )


class TestDistinctLcms:
    def test_published_counts(self):
        for k in range(1, 13):
            assert ct.lcm_value_count(k) == LCM_VALUE_COUNTS[k], k

    def test_matches_lcm_table_support(self):
        for k in range(1, 15):
            assert ct.distinct_lcm_values(k) == distinct_lcm_values_reachability(k), k

    def test_small_sets(self):
        assert ct.distinct_lcm_values(1) == {1}
        assert ct.distinct_lcm_values(2) == {2}
        assert ct.distinct_lcm_values(3) == {3, 4}


@slow
class TestSlowExtensions:
    def test_lcm_table_thirteen(self, table13):
        t = ct.count_size_gcd_lcm(13)
        marg = t.marginal()
        assert all(marg.get(k, m) == table13.get(k, m) for k in range(1, 14) for m in range(1, k + 1))
        assert {l for (kk, _, l) in t.entries if kk == 13} == distinct_lcm_values_reachability(13)

    def test_distinct_lcms_eighteen(self):
        assert ct.distinct_lcm_values(18) == distinct_lcm_values_reachability(18)
