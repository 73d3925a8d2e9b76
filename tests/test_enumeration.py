"""Duplicate-free generation of natural systems, shift classes, and the
general exact-cover search."""

import time
from collections import Counter
from functools import cache
from itertools import islice
from math import gcd
from types import GeneratorType, SimpleNamespace

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
    system_of_flat,
    _vanishing_sum_multiplicities_ok,
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
        got = [s.classes for s in islice(en.enumerate_necs(11, 2, ordered=False), 3000)]
        assert got == list(islice(necs_stream_recursive(11, 2), 3000))

    def test_large_piece_lists_are_streamed(self, monkeypatch):
        pulled = []  # one entry per expanded piece from a list above the memo bound
        lifted = en._lifted

        def spy(systems, lift):
            # the pieces come from the generator itself, not from a held list
            assert isinstance(systems, GeneratorType) and systems.gi_code.co_name == "fresh"
            for piece in lifted(systems, lift):
                pulled.append(len(piece))
                yield piece

        monkeypatch.setattr(en, "_lifted", spy)
        for emitted, _ in enumerate(islice(en.enumerate_necs(11, 2, ordered=False), 2000), start=1):
            # each size-10 piece yields at least one system before the next
            assert len(pulled) <= emitted
        assert pulled and set(pulled) == {10}

    @slow
    def test_full_streams_match_recursive_assembly(self):
        got = [s.classes for s in en.enumerate_necs(10, ordered=False)]
        assert len(got) == A_COUNTS[10]
        assert got == list(necs_stream_recursive(10))
        got = [s.classes for s in en.enumerate_necs(11, 2, ordered=False)]
        assert len(got) == ct.count_size_gcd(11).get(11, 2)
        assert got == list(necs_stream_recursive(11, 2))


class TestBuilderOracle:
    """The per-stream builders, which validate each distinct class once per
    stream, against building every class afresh from the reference
    streams: equal systems in equal order, and no check skipped."""

    def test_natural_streams(self):
        for k in range(1, 10):
            for m in (None, *range(1, k + 1)):
                flats = list(necs_stream_recursive(k, m))
                want = [system_of_flat(f) for f in flats]
                assert list(en.enumerate_necs(k, m, ordered=False)) == want, (k, m)
                want = [system_of_flat(f) for f in sorted(flats)]
                assert list(en.enumerate_necs(k, m)) == want, (k, m)

    def test_shift_class_streams(self):
        for k in range(1, 10):
            for m in (None, *range(1, k + 1)) if k < 9 else (None,):
                least = (f for f in necs_stream_recursive(k, m) if cg.least_translate(f)[0] == f)
                want = [system_of_flat(f) for f in sorted(least)]
                assert list(en.enumerate_shift_classes(k, m)) == want, (k, m)

    def test_exact_cover_streams(self):
        cases = [(k, en.EcsSearchConfig()) for k in range(1, 9)]
        cases.append((13, en.EcsSearchConfig(gcd=1)))
        for k, cfg in cases:
            flats = list(en._ecs_stream(k, cfg))
            want = [system_of_flat(f) for f in flats]
            assert list(en.enumerate_ecs(k, cfg, ordered=False)) == want, k
            want = [system_of_flat(f) for f in sorted(flats)]
            assert list(en.enumerate_ecs(k, cfg)) == want, k

    def test_equal_classes_of_a_stream_are_one_object(self):
        streams = (
            en.enumerate_necs(8),
            en.enumerate_necs(9, 2, ordered=False),
            # lifts size-10 pieces that are streamed, not held in the memo
            islice(en.enumerate_necs(11, 2, ordered=False), 3000),
            en.enumerate_shift_classes(8),
            en.enumerate_ecs(7, ordered=False),
        )
        for stream in streams:
            seen = {}
            classes = 0
            for s in stream:
                for c in s:
                    assert type(c) is cg.ResidueClass
                    assert seen.setdefault(c, c) is c
                    classes += 1
            assert len(seen) < classes

    @pytest.mark.parametrize(
        "flats",
        [
            [((1, 0),), ((2, 2), (2, 1))],  # offset = modulus, after a good system
            [((2, 0), (2, 1)), ((3, -1),)],  # negative offset
            [((0, 0),)],  # modulus below 1
            [((2, 0), (2, 1)), ((2, 0), (2, 0))],  # a repeated class of known classes
        ],
    )
    def test_bad_flat_raises_as_before(self, flats):
        with pytest.raises(ValueError) as want:
            [system_of_flat(f) for f in flats]
        with pytest.raises(ValueError) as got:
            list(en._to_systems(flats))
        assert str(got.value) == str(want.value)


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


def _translate(flat, t):
    """The system flat + t, as a sorted ((modulus, offset), ...) tuple."""
    return tuple(sorted((n, (a + t) % n) for n, a in flat))


def _flat(system):
    return tuple(sorted((c.modulus, c.offset) for c in system.classes))


def _unordered(k):
    """The size-k exact-cover listing as flat tuples, streamed as
    enumerate_ecs(ordered=False) streams it, with a one-second budget."""
    return en._ecs_stream(k, en.EcsSearchConfig(budget_seconds=1.0))


def _deadline_checks(k, listing, until):
    """Dry run of the deadline checks of a size-k exact-cover search, in
    order, up to the first check made by until: at each check, what made
    it and the counters of the abort message (phase-two nodes, solutions,
    phase-one nodes, multisets).  The search checks every 1024 entries of
    phase one's candidate table and bitsets, before each multiset and at
    every 1024th node of either phase; a listing also checks at every
    1024th emitted cover, and a count adds a multiset's covers once it has
    finished it."""
    nodes = [0, 0]
    run = {"found": 0, "multisets": 0}
    checks = []

    def check(why):
        checks.append((why, nodes[1], run["found"], nodes[0], run["multisets"]))

    def ticker(phase, why):
        def tick():
            nodes[phase] += 1
            if nodes[phase] % 1024 == 0:
                check(why)

        return tick

    candidates = en._modulus_multisets(
        k, 1 << (k - 1), None, ticker(0, "phase-one node"), lambda: check("table entry")
    )
    for moduli in candidates:
        run["multisets"] += 1
        check("multiset")
        covers = 0
        for _, span in en._assign_offsets(moduli, ticker(1, "phase-two node")):
            covers += span
            if listing:
                for _ in range(span):
                    run["found"] += 1
                    if run["found"] % 1024 == 0:
                        check("emitted cover")
        if not listing:
            run["found"] += covers
        made = [why for why, *_ in checks]
        if until in made:
            return checks[: made.index(until) + 1]
    raise AssertionError(f"no check made by {until}")


def _abort_message(phase_two, found, phase_one, multisets):
    return (
        f"after {phase_two} nodes and {found} solutions "
        f"(phase one: {phase_one} nodes and {multisets} multisets)"
    )


def _abort_at_last(monkeypatch, checks, search):
    """Run search with a clock that passes the deadline at the last of the
    dry run's checks (the first call sets the deadline); returns the abort
    message."""
    calls = []

    def clock():
        calls.append(None)
        return 0.0 if len(calls) <= len(checks) else 10.0

    monkeypatch.setattr(en, "time", SimpleNamespace(monotonic=clock))
    with pytest.raises(en.SearchBudgetExceeded) as info:
        search()
    return str(info.value)


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
        # node there works on 2^23-bit masks.  Phase one builds its
        # candidates from Simpson's weight alone, so neither a large size
        # nor a large modulus bound delays the first deadline check
        for k, cfg, limit in (
            (24, en.EcsSearchConfig(budget_seconds=0), 5),
            (36, en.EcsSearchConfig(budget_seconds=0), 1),
            (13, en.EcsSearchConfig(gcd=1, max_modulus=10**18, budget_seconds=0), 1),
        ):
            start = time.monotonic()
            with pytest.raises(en.SearchBudgetExceeded) as info:
                next(en.enumerate_ecs(k, cfg, ordered=False))
            assert time.monotonic() - start < limit, k
            assert "after 0 nodes and 0 solutions" in str(info.value)

    def test_budget_zero_stops_while_the_candidates_are_built(self):
        # the candidate table of k = 80 has 532,306 entries; the deadline is
        # checked every 1024 of them, before phase one has visited a node
        start = time.monotonic()
        with pytest.raises(en.SearchBudgetExceeded) as info:
            en.count_ecs(80, en.EcsSearchConfig(budget_seconds=0))
        assert time.monotonic() - start < 2
        assert str(info.value).endswith(
            "after 0 nodes and 0 solutions (phase one: 0 nodes and 0 multisets)"
        )

    def test_phase_two_checks_every_1024_nodes(self, monkeypatch):
        # a dry run finds the check at phase-two node 1024 of the k = 10
        # listing; the clock passes the deadline after the check before it
        checks = _deadline_checks(10, True, "phase-two node")
        _, nodes, solutions, *_ = checks[-1]
        found = []
        message = _abort_at_last(monkeypatch, checks, lambda: found.extend(_unordered(10)))
        assert nodes == 1024 and solutions == len(found) > 0
        assert message.endswith(_abort_message(*checks[-1][1:]))

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
        # the same for count_ecs, whose solutions are the covers of the
        # multisets it has finished, and which checks no emitted cover
        checks = _deadline_checks(10, False, "phase-two node")
        _, nodes, solutions, phase_one, _ = checks[-1]
        message = _abort_at_last(
            monkeypatch, checks, lambda: en.count_ecs(10, en.EcsSearchConfig(budget_seconds=1.0))
        )
        assert nodes == 1024 and solutions > 0 and phase_one < 1024
        assert message.endswith(_abort_message(*checks[-1][1:]))

    def test_listing_checks_every_1024_emitted_covers(self, monkeypatch):
        # k = 12's first multiset, the binary chain 2, 4, ..., 2^10, 2^11,
        # 2^11, has one rooted cover and 1024 translates of it; the clock
        # passes the deadline after the check before that multiset, and the
        # listing stops at the check after its 1024th cover, in mid-emission
        checks = _deadline_checks(12, True, "emitted cover")
        assert [why for why, *_ in checks] == ["multiset", "emitted cover"]
        _, nodes, solutions, *_ = checks[-1]
        found = []
        message = _abort_at_last(monkeypatch, checks, lambda: found.extend(_unordered(12)))
        assert nodes < 1024 and solutions == len(found) == 1024
        # each is the rooted cover moved by its least offset of modulus 2^11
        assert len({_translate(f, -min(a for n, a in f if n == 2048)) for f in found}) == 1
        assert message.endswith(_abort_message(*checks[-1][1:]))

    def test_root_has_the_largest_ratio(self):
        # the root n has the largest n / c_n, the larger n on a tie
        cases = ((2, 4, 4), (3, 6, 6, 6, 6), (3, 3, 6, 6), (2, 4, 8, 8))
        assert [en._root(Counter(moduli)) for moduli in cases] == [4, 3, 6, 8]
        # and the rooted search places 0 mod root: of the two covers of
        # (2, 4, 4), only the one with the classes 0 and 2 mod 4
        assert list(en._assign_offsets((2, 4, 4), lambda: None)) == [(((2, 1), (4, 0), (4, 2)), 2)]

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

    def test_thirty_gcd_one_systems_at_13(self):
        found = list(en.enumerate_ecs(13, en.EcsSearchConfig(gcd=1)))
        assert len(found) == 30
        for s in found:
            assert cg.gcd_of(s) == 1
            assert cg.is_exact(s)
            assert not cg.is_natural(s)

    @slow
    def test_420_gcd_one_systems_at_14(self):
        found = list(en.enumerate_ecs(14, en.EcsSearchConfig(gcd=1)))
        assert len(found) == len(set(found)) == 420
        for s in found:
            assert cg.gcd_of(s) == 1
            assert cg.is_exact(s)
            assert not cg.is_natural(s)
        flats = {_flat(s) for s in found}
        assert {_translate(f, 1) for f in flats} == flats


def _listed(moduli):
    """The covers that phase two lists for one multiset: the translates of
    its rooted covers."""
    rooted = en._assign_offsets(moduli, lambda: None)
    return [f for r, span in rooted for f in en._translates(r, span)]


@cache
def _oracle(moduli):
    """The covers of one multiset by the smallest-uncovered reference
    search, kept for the slow tests that share a size."""
    return frozenset(assign_offsets_smallest_uncovered(moduli))


def _phase_two_matches_oracle(k, m=None):
    """Compare the phase-two listing with the smallest-uncovered reference
    search, multiset by multiset, on the exact set of solutions."""
    total = 0
    for moduli in en._modulus_multisets(k, 1 << (k - 1), m):
        got = _listed(moduli)
        assert len(got) == len(set(got)), moduli
        assert set(got) == _oracle(moduli), moduli
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


def _rooted_listing_holds(k, m=None, oracle=False):
    """Multiset by multiset: the count, the sum of n - b(R) over the rooted
    covers R, equals the number of listed covers; the rooted covers are
    exactly the listed covers that contain 0 mod n, for the n with the
    largest n / c_n (the larger n on a tie); and the listing is closed under
    translation by 1.  With oracle, the listing is also the reference
    search's.  Returns the number of covers."""
    total = 0
    for moduli in en._modulus_multisets(k, 1 << (k - 1), m):
        rooted = list(en._assign_offsets(moduli, lambda: None))
        listed = [f for r, span in rooted for f in en._translates(r, span)]
        assert sum(span for _, span in rooted) == len(listed) == len(set(listed)), moduli
        c = Counter(moduli)
        root = max(c, key=lambda n: (n / c[n], n))
        assert {r for r, _ in rooted} == {f for f in listed if (root, 0) in f}, moduli
        assert {_translate(f, 1) for f in listed} == set(listed), moduli
        if oracle:
            assert set(listed) == _oracle(moduli), moduli
        total += len(listed)
    return total


class TestRootedCount:
    def test_every_size_up_to_8_and_every_gcd(self):
        for k in range(1, 9):
            assert _rooted_listing_holds(k) == A_COUNTS[k] == en.count_ecs(k)
            table = ct.count_size_gcd(k)
            for m in range(1, k + 1):
                got = _rooted_listing_holds(k, m)
                assert got == table.get(k, m) == en.count_ecs(k, en.EcsSearchConfig(gcd=m)), (k, m)

    @slow
    def test_sizes_9_10_and_13_14_gcd_one(self):
        # the reference search takes minutes at k = 10 and longer at 14, gcd 1
        assert _rooted_listing_holds(9, oracle=True) == A_COUNTS[9]
        assert _rooted_listing_holds(13, 1, oracle=True) == 30
        assert _rooted_listing_holds(10) == A_COUNTS[10] == 65757
        assert _rooted_listing_holds(14, 1) == 420


def _phase_one_matches_oracle(k, m=None, max_modulus=None):
    """Compare the integer phase one with the Fraction reference search on
    the whole multiset stream of gcd m: same tuples, same order, once the
    integer stream is filtered by the reference's multiplicity rule (each
    divisibility-maximal modulus occurs a combination of its primes times)
    and the oracle's multisets whose lcm breaks Simpson's inequality
    (weight above k - 1) are filtered out.  Returns the length of the
    oracle stream and the multisets the weight filter removed."""
    max_mod = max_modulus if max_modulus is not None else 1 << (k - 1)
    got = en._modulus_multisets(k, max_modulus, m)
    oracle = list(modulus_multisets_fractions(k, max_mod, m))
    assert [ms for ms in got if _vanishing_sum_multiplicities_ok(ms)] == [
        ms for ms in oracle if lcm_weight(ms) < k
    ], (k, m, max_modulus)
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
            for bound in (None, 1, 2, 6, 12, 24, 60):
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


def _no_rooted_cover(removed):
    """Run the rooted phase two on every multiset in removed and find no
    rooted cover, hence no cover (each cover has a translate that contains
    0 mod the root); returns how many multisets there were."""
    for moduli in removed:
        assert next(en._assign_offsets(moduli, lambda: None), None) is None, moduli
    return len(removed)


def _weight_cut_loses_no_cover(k, m=None):
    """No cover in any multiset that the weight filter removes from the
    oracle stream; returns how many it removed."""
    return _no_rooted_cover(_phase_one_matches_oracle(k, m)[1])


def _multiplicity_filter_loses_no_cover(k, m=None):
    """No cover in any multiset of the integer phase one that the
    reference's multiplicity rule removes, so phase one need not apply
    that rule; returns how many it removed."""
    got = en._modulus_multisets(k, None, m)
    return _no_rooted_cover([ms for ms in got if not _vanishing_sum_multiplicities_ok(ms)])


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


class TestMultiplicityFilter:
    def test_every_size_up_to_9_and_every_gcd(self):
        removed = 0
        for k in range(1, 10):
            for m in (None, *range(1, k + 1)):
                removed += _multiplicity_filter_loses_no_cover(k, m)
        assert removed > 0

    @slow
    def test_sizes_10_11_and_13_14_gcd_one(self):
        for k, m in ((10, None), (11, None), (13, 1), (14, 1)):
            _multiplicity_filter_loses_no_cover(k, m)


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
