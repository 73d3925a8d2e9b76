"""Duplicate-free generation of natural systems, shift classes, and the
general exact-cover search."""

import time
from itertools import islice
from math import gcd
from types import SimpleNamespace

import pytest

from necs import congruence as cg
from necs import counting as ct
from necs import enumeration as en
from necs import series as se
from necs import trees as tr

from helpers import (
    A_COUNTS,
    SHIFT_CLASS_COUNTS,
    TABLE1,
    assign_offsets_smallest_uncovered,
    canonical_shift_scan,
    brute_force_exact,
    lcm_weight,
    modulus_multisets_fractions,
    necs_stream_recursive,
    shift_class_counts_stream,
    slow,
    sys_of,
)


class TestNecsEnumeration:
    def test_matches_published_small_tables(self):
        for k, systems in TABLE1.items():
            got = list(en.enumerate_necs(k))
            assert got == sorted(got)
            assert set(got) == {sys_of(p) for p in systems}

    def test_counts_and_uniqueness(self):
        for k in range(1, 9):
            systems = list(en.enumerate_necs(k, ordered=False))
            assert len(systems) == A_COUNTS[k]
            assert len(set(systems)) == len(systems)

    def test_gcd_partition(self):
        table = ct.count_size_gcd(8)
        for k in range(1, 9):
            total = 0
            for m in range(1, k + 1):
                block = list(en.enumerate_necs(k, m, ordered=False))
                assert len(block) == table.get(k, m)
                assert all(cg.gcd_of(s) == m for s in block)
                total += len(block)
            assert total == A_COUNTS[k]

    def test_everything_is_exact_and_natural(self):
        for k in range(1, 7):
            for s in en.enumerate_necs(k):
                assert cg.is_exact(s)
                assert cg.is_natural(s)

    def test_agrees_with_tree_images(self):
        for k in range(1, 9):
            via_trees = {tr.chi(t) for t in tr.enumerate_trees(k)}
            via_recursion = set(en.enumerate_necs(k))
            assert via_trees == via_recursion

    def test_stream_is_deterministic(self):
        a = [s.key() for s in en.enumerate_necs(6)]
        b = [s.key() for s in en.enumerate_necs(6)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            list(en.enumerate_necs(0))
        with pytest.raises(ValueError):
            list(en.enumerate_necs(3, 5))


class TestAssemblyOracle:
    def test_stream_matches_recursive_assembly(self):
        for k in range(1, 10):
            for m in range(1, k + 1):
                got = [s.classes for s in en.enumerate_necs(k, m, ordered=False)]
                assert got == list(necs_stream_recursive(k, m)), (k, m)

    def test_streamed_piece_prefix_matches_recursive_assembly(self):
        # the first gcd-2 systems of size 11 put a streamed size-10 piece first
        got = islice(en._necs_stream(11, 2), 3000)
        assert list(got) == list(islice(necs_stream_recursive(11, 2), 3000))

    def test_large_piece_lists_are_streamed(self, monkeypatch):
        pulled = []  # one entry per expanded piece from a list above the memo bound
        expand = en._expand

        def spy(piece, idx, n):
            if len(piece) > en._MEMO_MAX_SIZE:
                pulled.append(len(piece))
            return expand(piece, idx, n)

        monkeypatch.setattr(en, "_expand", spy)
        for emitted, _ in enumerate(islice(en._necs_stream(11, 2), 2000), start=1):
            # each size-10 piece yields at least one system before the next
            assert len(pulled) <= emitted
        assert pulled and set(pulled) == {10}

    @slow
    def test_full_streams_match_recursive_assembly(self):
        got = list(en._necs_stream(10, None))
        assert len(got) == A_COUNTS[10]
        assert got == list(necs_stream_recursive(10))
        got = list(en._necs_stream(11, 2))
        assert len(got) == ct.count_size_gcd(11).get(11, 2)
        assert got == list(necs_stream_recursive(11, 2))


class TestShiftClasses:
    def test_published_counts_fast(self):
        for k in range(1, 13):
            assert en.shift_class_count(k) == SHIFT_CLASS_COUNTS[k], k

    def test_counts_per_gcd_match_stream(self):
        for k in range(1, 10):
            want = shift_class_counts_stream(k)
            assert sum(want.values()) == SHIFT_CLASS_COUNTS[k]
            for m in range(1, k + 1):
                assert en.shift_class_count(k, m) == want.get(m, 0), (k, m)

    def test_validation(self):
        for k, m in ((0, None), (3, 0), (3, 4)):
            with pytest.raises(ValueError):
                en.shift_class_count(k, m)

    def test_class_sizes_partition_the_count(self):
        for k in range(1, 7):
            classes: dict = {}
            for s in en.enumerate_necs(k, ordered=False):
                canon, _ = cg.canonical_shift(s)
                classes.setdefault(canon, set()).add(s)
            assert len(classes) == SHIFT_CLASS_COUNTS[k]
            assert sum(len(v) for v in classes.values()) == A_COUNTS[k]
            for canon, members in classes.items():
                # orbit size divides the common lcm of the class
                assert cg.lcm_of(canon) % len(members) == 0
                assert all(cg.lcm_of(m) == cg.lcm_of(canon) for m in members)

    def test_listing_per_gcd_is_the_gcd_subset(self):
        for k in range(1, 9):
            everything = list(en.enumerate_shift_classes(k))
            for m in range(1, k + 1):
                want = [s for s in everything if cg.gcd_of(s) == m]
                assert list(en.enumerate_shift_classes(k, m)) == want, (k, m)
        with pytest.raises(ValueError):
            next(en.enumerate_shift_classes(3, 4))

    def test_representatives_are_canonical(self):
        reps = list(en.enumerate_shift_classes(5))
        assert len(reps) == SHIFT_CLASS_COUNTS[5]
        for s in reps:
            canon, t = cg.canonical_shift(s)
            assert canon == s and t == 0

    @slow
    def test_published_counts_slow(self):
        for k in (11, 12):
            want = shift_class_counts_stream(k)
            assert sum(want.values()) == SHIFT_CLASS_COUNTS[k]
            assert {m: en.shift_class_count(k, m) for m in want} == want


class TestEcsSearch:
    def test_small_sizes_equal_natural(self):
        for k in range(1, 7):
            ecs = list(en.enumerate_ecs(k))
            assert len(ecs) == len(set(ecs))
            assert set(ecs) == set(en.enumerate_necs(k))
            assert ecs == sorted(ecs)

    def test_gcd_restricted(self):
        table = ct.count_size_gcd(6)
        for k in range(2, 7):
            for m in range(1, min(k, 3) + 1):
                cnt = sum(1 for _ in en.enumerate_ecs(k, en.EcsSearchConfig(gcd=m), ordered=False))
                assert cnt == table.get(k, m), (k, m)
        # a gcd above the size is a usage error, as for the natural systems
        with pytest.raises(ValueError, match="need 1 <= m <= k"):
            en.count_ecs(2, en.EcsSearchConfig(gcd=3))

    def test_found_systems_verify(self):
        for s in en.enumerate_ecs(5, ordered=False):
            assert brute_force_exact([(c.offset, c.modulus) for c in s])

    def test_max_modulus_restricts(self):
        got = list(en.enumerate_ecs(4, en.EcsSearchConfig(max_modulus=6)))
        assert all(cg.lcm_of(s) <= 6 for s in got)
        assert len(got) == 6  # the ten size-4 systems minus the four with lcm 8

    def test_budget_zero_aborts(self):
        # phase two checks the deadline before it starts on each multiset,
        # so a zero budget stops at the first multiset, before any phase-2
        # node; the message reports both phases' counters
        found = 0
        with pytest.raises(en.SearchBudgetExceeded) as info:
            for _ in en.enumerate_ecs(8, en.EcsSearchConfig(budget_seconds=0.0), ordered=False):
                found += 1
        assert found == 0
        assert "after 0 nodes and 0 solutions (phase one: " in str(info.value)
        assert str(info.value).endswith(" nodes and 1 multisets)")

    def test_budget_zero_stops_before_a_huge_multiset(self):
        # the first multiset of size 24 has lcm 2^23, so a single phase-2
        # node there works on 2^23-bit masks
        start = time.monotonic()
        with pytest.raises(en.SearchBudgetExceeded) as info:
            next(en.enumerate_ecs(24, en.EcsSearchConfig(budget_seconds=0), ordered=False))
        assert time.monotonic() - start < 5
        assert "after 0 nodes and 0 solutions" in str(info.value)

    def test_phase_two_checks_every_1024_nodes(self, monkeypatch):
        # a clock that passes the deadline after the check at the first
        # multiset: k = 10's first multiset takes more than 1024 phase-2
        # nodes, and phase one reaches it in fewer than 1024
        calls = []

        def clock():
            calls.append(None)
            return 0.0 if len(calls) <= 2 else 10.0

        monkeypatch.setattr(en, "time", SimpleNamespace(monotonic=clock))
        found = 0
        with pytest.raises(en.SearchBudgetExceeded) as info:
            for _ in en.enumerate_ecs(10, en.EcsSearchConfig(budget_seconds=1.0), ordered=False):
                found += 1
        assert found > 0
        assert f"after 1024 nodes and {found} solutions" in str(info.value)
        assert str(info.value).endswith(" nodes and 1 multisets)")

    def test_budget_zero_stops_phase_one(self):
        # at k = 13 with gcd 1 phase one visits 6,161 nodes before its first
        # multiset, so the deadline check at phase-one node 1024 aborts
        # before phase two has started
        cfg = en.EcsSearchConfig(gcd=1, budget_seconds=0)
        with pytest.raises(en.SearchBudgetExceeded) as info:
            next(en.enumerate_ecs(13, cfg, ordered=False))
        assert str(info.value).endswith(
            "after 0 nodes and 0 solutions (phase one: 1024 nodes and 0 multisets)"
        )

    def test_count_checks_every_1024_phase_two_nodes(self, monkeypatch):
        # a dry run finds the multiset of k = 10 in which the rooted phase
        # two of count_ecs reaches its node 1024, before phase one reaches
        # its own; the clock passes the deadline after the check before
        # that multiset, so the count stops at the next check, inside it
        phase_one = [0]
        phase_two = finished = 0

        def tick():
            phase_one[0] += 1

        for i, moduli in enumerate(en._modulus_multisets(10, 1 << 9, None, tick)):
            nodes = []
            en._rooted_count(moduli, lambda: nodes.append(None))
            if phase_two + len(nodes) >= 1024:
                break
            phase_two += len(nodes)
            finished += len(list(en._assign_offsets(moduli, lambda: None)))
        assert phase_one[0] < 1024 and finished > 0
        calls = []

        def clock():
            calls.append(None)
            # one call sets the deadline; i + 1 checks precede multiset i
            return 0.0 if len(calls) <= i + 2 else 10.0

        monkeypatch.setattr(en, "time", SimpleNamespace(monotonic=clock))
        with pytest.raises(en.SearchBudgetExceeded) as info:
            en.count_ecs(10, en.EcsSearchConfig(budget_seconds=1.0))
        assert str(info.value).endswith(
            f"after 1024 nodes and {finished} solutions "
            f"(phase one: {phase_one[0]} nodes and {i + 1} multisets)"
        )

    def test_rooted_count_checks_the_division(self, monkeypatch):
        # a phase two that found one cover through 0 mod 3 among the two
        # classes of modulus 3 would break the rooting lemma: 3 * 1 / 2
        monkeypatch.setattr(en, "_assign_offsets", lambda moduli, tick, root: iter([()]))
        with pytest.raises(ArithmeticError, match="rooting lemma"):
            en._rooted_count((3, 3), lambda: None)

    def test_root_has_the_largest_ratio(self, monkeypatch):
        # the root n has the largest n / c_n, the larger n on a tie
        roots = []

        def spy(moduli, tick, root):
            roots.append(root)
            return iter(())

        monkeypatch.setattr(en, "_assign_offsets", spy)
        for moduli in ((2, 4, 4), (3, 6, 6, 6, 6), (3, 3, 6, 6), (2, 4, 8, 8)):
            en._rooted_count(moduli, lambda: None)
        assert roots == [4, 3, 6, 8]

    def test_max_modulus_bounds_the_smallest_sizes(self):
        assert list(en.enumerate_ecs(2, en.EcsSearchConfig(max_modulus=1))) == []
        assert en.count_ecs(2, en.EcsSearchConfig(max_modulus=2)) == 1
        assert list(en.enumerate_ecs(1, en.EcsSearchConfig(max_modulus=1))) == [cg.TRIVIAL]

    @pytest.mark.parametrize("bound", [0, -5])
    def test_max_modulus_below_one_rejected(self, bound):
        with pytest.raises(ValueError):
            en.EcsSearchConfig(max_modulus=bound)

    @pytest.mark.parametrize("budget", [-1.0, float("nan")])
    def test_negative_or_nan_budget_rejected(self, budget):
        # every comparison with NaN is false, so a NaN budget would never abort
        with pytest.raises(ValueError, match="need budget_seconds >= 0"):
            en.EcsSearchConfig(budget_seconds=budget)

    def test_counts_equal_natural_counts(self):
        for k in range(1, 8):
            assert en.count_ecs(k) == A_COUNTS[k], k

    def test_no_gcd_one_cover_below_13_and_thirty_at_13(self):
        for k in range(2, 13):
            assert en.count_ecs(k, en.EcsSearchConfig(gcd=1)) == 0, k
        assert en.count_ecs(13, en.EcsSearchConfig(gcd=1)) == 30

    @slow
    def test_primitive_counts_at_14_and_15(self):
        # P(14) and P(15), the gcd-1 (primitive) covers; with P(13) = 30
        # they give E(k) = A(P(x)) (see ROADMAP)
        assert en.count_ecs(14, en.EcsSearchConfig(gcd=1)) == 420
        assert en.count_ecs(15, en.EcsSearchConfig(gcd=1)) == 3870

    def test_trivial_cases(self):
        assert list(en.enumerate_ecs(1)) == [cg.TRIVIAL]
        assert list(en.enumerate_ecs(2)) == [sys_of([(0, 2), (1, 2)])]

    def test_sizes7and8_match_natural(self):
        for k in (7, 8):
            assert set(en.enumerate_ecs(k, ordered=False)) == set(
                en.enumerate_necs(k, ordered=False)
            )

    @slow
    def test_thirty_gcd_one_systems_at_13(self):
        found = list(en.enumerate_ecs(13, en.EcsSearchConfig(gcd=1)))
        assert len(found) == 30
        for s in found:
            assert cg.gcd_of(s) == 1
            assert cg.is_exact(s)
            assert not cg.is_natural(s)


def _phase_two_matches_oracle(k, m=None):
    """Compare phase two with the smallest-uncovered reference search,
    multiset by multiset, on the exact set of solutions."""
    total = 0
    for moduli in en._modulus_multisets(k, 1 << (k - 1), m):
        got = list(en._assign_offsets(moduli, lambda: None))
        assert len(got) == len(set(got)), moduli
        assert set(got) == set(assign_offsets_smallest_uncovered(moduli)), moduli
        total += len(got)
    return total


class TestPhaseTwoOracle:
    def test_every_size_up_to_7(self):
        for k in range(1, 8):
            assert _phase_two_matches_oracle(k) == A_COUNTS[k]

    @slow
    def test_sizes_8_9_and_13_gcd_one(self):
        assert _phase_two_matches_oracle(8) == A_COUNTS[8]
        assert _phase_two_matches_oracle(9) == A_COUNTS[9]
        assert _phase_two_matches_oracle(13, 1) == 30


def _rooted_count_matches_full(k, m=None):
    """Multiset by multiset, the rooted phase two finds exactly the covers
    of the full phase two that contain 0 mod n, for the n with the largest
    n / c_n (the larger n on a tie), and n X_0 / c_n is a whole number
    equal to the full count, which is also what _rooted_count returns."""
    total = 0
    for moduli in en._modulus_multisets(k, 1 << (k - 1), m):
        full = list(en._assign_offsets(moduli, lambda: None))
        c = {n: moduli.count(n) for n in moduli}
        root = max(c, key=lambda n: (n / c[n], n))
        rooted = list(en._assign_offsets(moduli, lambda: None, root))
        assert set(rooted) == {f for f in full if (root, 0) in f}, moduli
        assert root * len(rooted) == c[root] * len(full), moduli
        assert en._rooted_count(moduli, lambda: None) == len(full), moduli
        total += len(full)
    return total


class TestRootedCount:
    def test_every_size_up_to_8_and_every_gcd(self):
        for k in range(1, 9):
            assert _rooted_count_matches_full(k) == A_COUNTS[k]
            table = ct.count_size_gcd(k)
            for m in range(1, k + 1):
                assert _rooted_count_matches_full(k, m) == table.get(k, m), (k, m)

    @slow
    def test_sizes_9_10_and_13_14_gcd_one(self):
        assert _rooted_count_matches_full(9) == A_COUNTS[9]
        assert _rooted_count_matches_full(10) == A_COUNTS[10]
        assert _rooted_count_matches_full(13, 1) == 30
        assert _rooted_count_matches_full(14, 1) == 420


def _phase_one_matches_oracle(k, m=None, max_modulus=None):
    """Compare the integer phase one with the Fraction reference search on
    the whole multiset stream of gcd m: same tuples, same order, once the
    oracle's multisets whose lcm breaks Simpson's inequality (weight above
    k - 1) are filtered out.  Returns the length of the oracle stream and
    the multisets the filter removed."""
    max_mod = max_modulus if max_modulus is not None else 1 << (k - 1)
    got = list(en._modulus_multisets(k, max_mod, m))
    oracle = list(modulus_multisets_fractions(k, max_mod, m))
    assert got == [ms for ms in oracle if lcm_weight(ms) < k], (k, m, max_mod)
    return len(oracle), [ms for ms in oracle if lcm_weight(ms) >= k]


class TestPhaseOneOracle:
    def test_every_size_up_to_9(self):
        for k in range(1, 10):
            _phase_one_matches_oracle(k)

    def test_every_gcd_up_to_size_8(self):
        for k in range(1, 9):
            for m in range(1, k + 1):
                _phase_one_matches_oracle(k, m)

    def test_gcd_one_up_to_size_12(self):
        for k in range(1, 13):
            _phase_one_matches_oracle(k, 1)

    def test_modulus_bounds(self):
        for k in range(1, 10):
            for bound in (1, 2, 6, 12, 24, 60):
                _phase_one_matches_oracle(k, max_modulus=bound)

    def test_every_gcd_and_modulus_bound_up_to_size_8(self):
        for k in range(1, 9):
            for m in range(1, k + 1):
                for bound in (1, 2, 6, 12, 24, 60):
                    _phase_one_matches_oracle(k, m, bound)

    @slow
    def test_sizes_10_11_and_13_gcd_one(self):
        assert _phase_one_matches_oracle(10)[0] == 2152
        assert _phase_one_matches_oracle(11)[0] == 8950
        assert _phase_one_matches_oracle(13, 1)[0] == 116


def _weight_cut_loses_no_cover(k, m=None):
    """Run the full phase two on every multiset that the weight filter
    removes from the oracle stream, and find no cover; returns how many
    multisets it removed."""
    _, removed = _phase_one_matches_oracle(k, m)
    for moduli in removed:
        assert next(en._assign_offsets(moduli, lambda: None), None) is None, moduli
    return len(removed)


class TestWeightCut:
    def test_every_size_up_to_9(self):
        assert sum(_weight_cut_loses_no_cover(k) for k in range(1, 10)) > 0

    def test_cut_prunes_prefixes(self):
        # the test on the final pair alone gives the same stream; the cut at
        # each prefix is what saves nodes.  Phase one visits 1,847 and 7,384
        # nodes at k = 9 and 10 (2,064 and 8,667 with the final-pair test
        # alone, 2,236 and 10,202 with no weight cut at all).
        for k, want in ((9, 1847), (10, 7384)):
            nodes = []
            list(en._modulus_multisets(k, 1 << (k - 1), None, lambda: nodes.append(None)))
            assert len(nodes) == want, k

    @slow
    def test_sizes_10_11_and_13_14_gcd_one(self):
        for k, m in ((10, None), (11, None), (13, 1), (14, 1)):
            _weight_cut_loses_no_cover(k, m)


class TestHelpers:
    def test_prime_power_detector(self):
        powers = {2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27, 32, 81, 128}
        non_powers = {6, 10, 12, 14, 15, 18, 20, 21, 22, 24, 30, 36}
        for n in powers:
            assert len(se.prime_factors(n)) == 1
        for n in non_powers:
            assert len(se.prime_factors(n)) >= 2

    def test_equal_partition_feasibility(self):
        # the terms scaled to integers: 1/2, 1/2, 1/3, 1/3, 1/3 into two halves
        # of 1 (times 6), then 1/2, 1/3, 1/6 into halves of 1/2 (times 6)
        assert en._splits_into_equal_parts([3, 3, 2, 2, 2], 2, 6)
        assert en._splits_into_equal_parts([3, 2, 1], 2, 3)
        # total matches but no exact split exists: 2/5, 2/5, 1/5 (times 10)
        assert not en._splits_into_equal_parts([4, 4, 2], 2, 5)
        # an oversized term can never fit: 3/4, 1/4 into halves (times 4)
        assert not en._splits_into_equal_parts([3, 1], 2, 2)

    def test_least_translate_matches_scan(self):
        for k in range(1, 7):
            for s in en.enumerate_necs(k, ordered=False):
                want, t = canonical_shift_scan(s)
                got = cg.least_translate((c.modulus, c.offset) for c in s.classes)
                assert got == (tuple((c.modulus, c.offset) for c in want.classes), t)
