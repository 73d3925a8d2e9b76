"""Residue classes, exactness, expansion/split/contraction, naturality."""

import copy
import json
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from necs import congruence as cg
from necs import enumeration as en
from necs import trees as tr

from helpers import (
    ERDOS_COVER,
    HUGE_MODULUS_NOT_EXACT,
    NON_NATURAL_13,
    TABLE1,
    brute_force_exact,
    canonical_shift_scan,
    naturality_witness_contracting,
    slow,
    sys_of,
)


@st.composite
def split_systems(draw):
    """Random natural systems built by explicit split sequences."""
    sys_ = cg.TRIVIAL
    for _ in range(draw(st.integers(0, 4))):
        target = draw(st.sampled_from(sys_.classes))
        r = draw(st.integers(2, 4))
        sys_ = cg.r_split(sys_, target, r)
    return sys_


@st.composite
def mutated_split_systems(draw):
    """(offset, modulus) pairs of a split system, kept as they are, with one
    class dropped, or with one offset moved to a residue that no other
    class of its modulus uses (so the result is still duplicate-free)."""
    pairs = [(c.offset, c.modulus) for c in draw(split_systems())]
    how = draw(st.sampled_from(["keep", "drop", "move"]))
    if how != "keep":
        a, n = pairs.pop(draw(st.integers(0, len(pairs) - 1)))
        if how == "move":
            used = {b for b, m in pairs if m == n} | {a}
            free = [b for b in range(n) if b not in used]
            assume(free)
            pairs.append((draw(st.sampled_from(free)), n))
    assume(pairs)
    return pairs


class TestResidueClass:
    def test_validation(self):
        with pytest.raises(ValueError, match=r"^modulus must be >= 1, got 0$"):
            cg.ResidueClass(0, 0)
        with pytest.raises(ValueError, match=r"^modulus must be >= 1, got -3$"):
            cg.ResidueClass(-3, 0)
        with pytest.raises(ValueError, match=r"^offset 4 not in \[0, 4\)$"):
            cg.ResidueClass(4, 4)
        with pytest.raises(ValueError, match=r"^offset -1 not in \[0, 4\)$"):
            cg.ResidueClass(4, -1)

    def test_is_the_modulus_offset_pair(self):
        c = cg.ResidueClass(12, 7)
        assert (c.modulus, c.offset) == (12, 7)
        n, a = c
        assert (n, a) == (12, 7)
        assert c == (12, 7) and hash(c) == hash((12, 7))
        assert repr(c) == "<7,12>"
        assert cg.rc(7, 12) == c

    def test_ordering_is_pair_order(self):
        pairs = [(n, a) for n in range(1, 9) for a in range(n)]
        random.Random(5).shuffle(pairs)
        classes = [cg.ResidueClass(n, a) for n, a in pairs]
        assert sorted(classes) == sorted(pairs)
        for x, y in zip(classes, classes[1:]):
            tx, ty = tuple(x), tuple(y)
            assert (x < y, x <= y, x > y, x >= y) == (tx < ty, tx <= ty, tx > ty, tx >= ty)

    def test_hash_agrees_with_equality(self):
        classes = [cg.ResidueClass(n, a) for n in range(1, 7) for a in range(n)]
        again = [cg.ResidueClass(n, a) for n in range(1, 7) for a in range(n)]
        assert len(set(classes) | set(again)) == len(classes)
        for x, y in zip(classes, again):
            assert x == y and hash(x) == hash(y) and x is not y
        assert cg.ResidueClass(4, 1) != cg.ResidueClass(4, 3)

    def test_immutable(self):
        c = cg.ResidueClass(4, 1)
        for name in ("modulus", "offset", "other"):
            with pytest.raises(AttributeError):
                setattr(c, name, 2)
        assert c == (4, 1)
        with pytest.raises(ValueError, match="offset 5 not in"):
            c._replace(offset=5)

    def test_pickle_and_copy_round_trip(self):
        c = cg.ResidueClass(30, 29)
        for other in (pickle.loads(pickle.dumps(c)), copy.copy(c), copy.deepcopy(c)):
            assert type(other) is cg.ResidueClass
            assert other == c and repr(other) == "<29,30>"

    def test_intersection_rule(self):
        assert cg.rc(3, 8).intersects(cg.rc(7, 12))  # both contain 19
        assert not cg.rc(1, 4).intersects(cg.rc(3, 4))
        assert not cg.rc(0, 2).intersects(cg.rc(1, 4))
        assert cg.rc(0, 2).intersects(cg.rc(0, 3))  # coprime moduli always meet

    def test_canonical_order(self):
        s = sys_of([(3, 4), (0, 2), (1, 4)])
        assert [(c.offset, c.modulus) for c in s] == [(0, 2), (1, 4), (3, 4)]

    def test_system_order_is_key_order(self):
        # every exact cover of size <= 6, the sizes shuffled together
        systems = [s for k in range(1, 7) for s in en.enumerate_necs(k, ordered=False)]
        random.Random(6).shuffle(systems)
        by_lt = sorted(systems)
        assert by_lt == sorted(systems, key=cg.CoveringSystem.key)
        assert [s.key() for s in by_lt] == sorted(s.key() for s in systems)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match=r"^duplicate class <0,2>$"):
            cg.CoveringSystem([cg.rc(0, 2), cg.rc(0, 2)])
        with pytest.raises(ValueError, match=r"^duplicate class <3,4>$"):
            cg.CoveringSystem([cg.rc(3, 4), cg.rc(1, 2), cg.rc(0, 4), cg.rc(3, 4), cg.rc(1, 4)])


class TestIsExact:
    def test_trivial(self):
        assert cg.is_exact(cg.TRIVIAL)

    def test_erdos_cover_is_not_exact(self):
        # 19 is hit by both 3 mod 8 and 7 mod 12
        assert not cg.is_exact(sys_of(ERDOS_COVER))

    def test_size5_example(self):
        s = sys_of([(1, 4), (3, 4), (0, 6), (2, 6), (4, 6)])
        assert cg.is_exact(s)
        assert (cg.size_of(s), cg.gcd_of(s), cg.lcm_of(s)) == (5, 2, 12)

    def test_accessors(self):
        assert (cg.size_of(cg.TRIVIAL), cg.gcd_of(cg.TRIVIAL), cg.lcm_of(cg.TRIVIAL)) == (1, 1, 1)
        s = sys_of([(0, 2), (1, 4), (3, 4)])
        assert (cg.size_of(s), cg.gcd_of(s), cg.lcm_of(s)) == (3, 2, 4)

    def test_disjoint_but_not_covering(self):
        assert not cg.is_exact(sys_of([(0, 2), (1, 4)]))

    @given(split_systems())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_brute_force(self, s):
        pairs = [(c.offset, c.modulus) for c in s]
        assert cg.is_exact(s) == brute_force_exact(pairs)


class TestExpandSplit:
    def test_expand_examples(self):
        assert cg.expand(cg.TRIVIAL, 1, 3) == sys_of([(1, 3)])
        tx = sys_of([(0, 3), (1, 6), (4, 6), (2, 3)])
        assert cg.expand(tx, 0, 3) == sys_of([(0, 9), (3, 18), (12, 18), (6, 9)])
        assert cg.expand(tx, 0, 1) == tx

    def test_expand_validates_offset(self):
        with pytest.raises(ValueError):
            cg.expand(cg.TRIVIAL, 3, 3)
        with pytest.raises(ValueError):
            cg.expand(cg.TRIVIAL, -1, 3)

    def test_rsplit_examples(self):
        assert cg.r_split(cg.TRIVIAL, cg.rc(0, 1), 2) == sys_of([(0, 2), (1, 2)])
        assert cg.r_split(sys_of([(0, 2), (1, 2)]), cg.rc(0, 2), 2) == sys_of(
            [(1, 2), (0, 4), (2, 4)]
        )
        assert cg.r_split(cg.TRIVIAL, cg.rc(0, 1), 6) == sys_of([(j, 6) for j in range(6)])

    def test_rsplit_validates(self):
        with pytest.raises(ValueError):
            cg.r_split(cg.TRIVIAL, cg.rc(0, 2), 2)
        with pytest.raises(ValueError):
            cg.r_split(cg.TRIVIAL, cg.rc(0, 1), 1)

    @given(split_systems(), st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_rsplit_preserves_exactness_and_size(self, s, r):
        target = s.classes[0]
        out = cg.r_split(s, target, r)
        assert len(out) == len(s) + r - 1
        assert cg.is_exact(out)

    @given(split_systems(), st.integers(0, 3), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_expansions_tile_exactly(self, s, b, c):
        # expansions of exact systems over all residues mod c partition Z
        b = b % c
        tiles = []
        for i in range(c):
            tiles.extend(cg.expand(s, i, c).classes)
        assert cg.is_exact(cg.CoveringSystem(tiles))


class TestContract:
    def test_minimal(self):
        assert cg.contract(sys_of([(0, 2), (1, 2)]), 2) == (cg.TRIVIAL, cg.TRIVIAL)

    def test_size5_by_hand(self):
        s = sys_of([(1, 4), (3, 4), (0, 6), (2, 6), (4, 6)])
        pieces = cg.contract(s, 2)
        assert pieces == (
            sys_of([(0, 3), (1, 3), (2, 3)]),
            sys_of([(0, 2), (1, 2)]),
        )
        assert cg.reassemble(pieces, 2) == s

    def test_requires_divisor_of_gcd(self):
        with pytest.raises(ValueError):
            cg.contract(sys_of([(0, 2), (1, 2)]), 3)

    @given(split_systems())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_and_arithmetic(self, s):
        g = cg.gcd_of(s)
        for n in range(2, g + 1):
            if g % n:
                continue
            pieces = cg.contract(s, n)
            assert len(pieces) == n
            assert cg.reassemble(pieces, n) == s
            assert sum(len(p) for p in pieces) == len(s)
            gg = 0
            ll = 1
            from math import gcd, lcm

            for p in pieces:
                assert cg.is_exact(p)
                gg = gcd(gg, cg.gcd_of(p))
                ll = lcm(ll, cg.lcm_of(p))
            assert cg.gcd_of(s) == n * gg
            assert cg.lcm_of(s) == n * ll


def _contract_arithmetic_holds(s):
    from math import gcd, lcm

    g = cg.gcd_of(s)
    n = 2
    while n <= g:
        if g % n == 0:
            pieces = cg.contract(s, n)
            assert cg.reassemble(pieces, n) == s
            assert sum(len(p) for p in pieces) == len(s)
            gg, ll = 0, 1
            for p in pieces:
                gg = gcd(gg, cg.gcd_of(p))
                ll = lcm(ll, cg.lcm_of(p))
            assert g == n * gg
            assert cg.lcm_of(s) == n * ll
        n += 1


def test_contraction_arithmetic_all_systems_to_6():
    from necs import enumeration as en

    for k in range(1, 7):
        for s in en.enumerate_necs(k, ordered=False):
            _contract_arithmetic_holds(s)


@slow
def test_contraction_arithmetic_all_systems_to_8():
    from necs import enumeration as en

    for k in (7, 8):
        for s in en.enumerate_necs(k, ordered=False):
            _contract_arithmetic_holds(s)


class TestNaturality:
    def test_trivial_and_table1(self):
        assert cg.is_natural(cg.TRIVIAL)
        for systems in TABLE1.values():
            for pairs in systems:
                assert cg.is_natural(sys_of(pairs))

    def test_size5_example(self):
        assert cg.is_natural(sys_of([(1, 4), (3, 4), (0, 6), (2, 6), (4, 6)]))

    def test_rejects_non_exact(self):
        with pytest.raises(cg.NotExactCoverError):
            cg.is_natural(sys_of(ERDOS_COVER))

    @pytest.mark.parametrize("pairs", HUGE_MODULUS_NOT_EXACT)
    def test_rejects_huge_moduli_at_once(self, pairs):
        # decided by density before factoring or contracting by the gcd
        for decide in (cg.is_natural, cg.naturality_witness):
            with pytest.raises(cg.NotExactCoverError):
                decide(sys_of(pairs))

    def test_gcd_one_size13_is_not_natural(self):
        s = sys_of(NON_NATURAL_13)
        assert brute_force_exact(NON_NATURAL_13)
        assert cg.is_exact(s)
        assert cg.gcd_of(s) == 1
        assert not cg.is_natural(s)
        assert cg.naturality_witness(s) is None

    def test_witness_reproduces_system(self):
        from necs import trees as tr

        for pairs in TABLE1[4]:
            s = sys_of(pairs)
            witness = cg.naturality_witness(s)
            assert witness is not None
            assert tr.chi(witness) == s

    @given(mutated_split_systems())
    @settings(max_examples=80, deadline=None)
    def test_witness_decides_exactness(self, pairs):
        s = sys_of(pairs)
        if brute_force_exact(pairs):
            assert cg.naturality_witness(s) is not None
        else:
            with pytest.raises(cg.NotExactCoverError):
                cg.naturality_witness(s)

    @given(split_systems())
    @settings(max_examples=40, deadline=None)
    def test_split_sequences_are_natural(self, s):
        assert cg.is_natural(s)

    def test_agrees_with_split_closure(self):
        # all systems reachable by splits with at most 6 classes, by BFS
        reachable = {cg.TRIVIAL}
        frontier = [cg.TRIVIAL]
        while frontier:
            sys_ = frontier.pop()
            for target in sys_.classes:
                for r in range(2, 8 - len(sys_) + 1):
                    if len(sys_) + r - 1 <= 6:
                        nxt = cg.r_split(sys_, target, r)
                        if nxt not in reachable:
                            reachable.add(nxt)
                            frontier.append(nxt)
        from necs import enumeration as en

        enumerated = set()
        for k in range(1, 7):
            enumerated.update(en.enumerate_necs(k))
        assert reachable == enumerated
        for s in reachable:
            assert cg.is_natural(s)


def _split_tree(rng, size):
    """(offset, modulus) pairs of a random split tree with `size` leaves,
    prime and composite arities."""
    pairs = [(0, 1)]
    while len(pairs) < size:
        r = min(rng.choice((2, 2, 3, 4, 5, 6, 7, 8, 9)), size - len(pairs) + 1)
        a, n = pairs.pop(rng.randrange(len(pairs)))
        pairs += [(a + j * n, r * n) for j in range(r)]
    return pairs


def _split_chain(rng, depth, arities):
    """(offset, modulus) pairs of a split chain: each of `depth` levels
    splits the one class that the level above left, with an arity drawn
    from `arities`, and goes on in a random child."""
    pairs = []
    a, n = 0, 1
    for _ in range(depth):
        r = rng.choice(arities)
        kids = [(a + j * n, r * n) for j in range(r)]
        a, n = kids.pop(rng.randrange(r))
        pairs += kids
    return pairs + [(a, n)]


def _broken(rng, pairs, how):
    """pairs with one class dropped, moved to a residue of its modulus that
    no class uses, or doubled in modulus; None where that is not possible."""
    pairs = list(pairs)
    i = rng.randrange(len(pairs))
    a, n = pairs.pop(i)
    used = set(pairs)
    if how == "move":
        # a deep chain's modulus has far more residues than a test needs
        free = [b for b in range(min(n, 4096)) if b != a and (b, n) not in used]
        if not free:
            return None
        pairs.insert(i, (rng.choice(free), n))
    elif how == "double":
        if (a, 2 * n) in used:
            return None
        pairs.insert(i, (a, 2 * n))
    return pairs or None


def witness_cases(seed, count):
    """`count` seeded systems: split trees, binary, ternary and mixed chains,
    and NON_NATURAL_13 in place of a class of a chain, each kept or broken."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        family = rng.randrange(5)
        if family == 0:
            pairs = _split_tree(rng, rng.randint(1, 60))
        elif family == 1:
            pairs = _split_chain(rng, rng.randint(0, 40), (2,))
        elif family == 2:
            pairs = _split_chain(rng, rng.randint(0, 30), (3,))
        elif family == 3:
            pairs = _split_chain(rng, rng.randint(0, 30), (2, 3, 4, 5, 6))
        else:
            pairs = _split_chain(rng, rng.randint(0, 30), (2, 3, 5))
            a, n = pairs.pop(rng.randrange(len(pairs)))
            pairs += [(a + n * b, n * m) for b, m in NON_NATURAL_13]
        how = rng.choice(("keep", "keep", "drop", "move", "double"))
        if how != "keep":
            pairs = _broken(rng, pairs, how)
        if pairs is not None:
            out.append(sys_of(pairs))
    return out


def witness_verdict(witness, c):
    """The printed tree, None (exact, not natural) or "not exact"."""
    try:
        tree = witness(c)
    except cg.NotExactCoverError:
        return "not exact"
    return None if tree is None else tr.format_tree(tree)


class TestWitnessOracle:
    """naturality_witness against the contracting reference, which rewrites
    every class at every level and tests exactness on the whole system."""

    @staticmethod
    def agree(seed, count):
        seen = set()
        for c in witness_cases(seed, count):
            want = witness_verdict(naturality_witness_contracting, c)
            assert witness_verdict(cg.naturality_witness, c) == want, c
            seen.add(want if want in (None, "not exact") else "natural")
        assert seen == {None, "not exact", "natural"}

    def test_agrees_with_reference(self):
        self.agree(19, 600)

    @slow
    def test_agrees_with_reference_slow(self):
        for seed in range(20, 30):
            self.agree(seed, 2000)


class TestShift:
    def test_identity_and_involution(self):
        s = sys_of([(0, 2), (1, 4), (3, 4)])
        assert cg.shift(s, 0) == s
        assert cg.shift(cg.shift(s, 5), -5) == s

    def test_full_residue_set_invariant(self):
        s = sys_of([(0, 2), (1, 2)])
        assert cg.shift(s, 1) == s

    def test_offsetwise_example(self):
        assert cg.shift(sys_of([(0, 2), (1, 4), (3, 4)]), 1) == sys_of(
            [(1, 2), (0, 4), (2, 4)]
        )

    def test_canonical_examples(self):
        got = cg.canonical_shift(sys_of([(1, 2), (0, 4), (2, 4)]))
        assert got == (sys_of([(0, 2), (1, 4), (3, 4)]), 1)
        assert cg.canonical_shift(cg.TRIVIAL) == (cg.TRIVIAL, 0)

    def test_canonical_is_idempotent(self):
        s = sys_of([(1, 3), (2, 3), (0, 6), (3, 6)])
        canon, _ = cg.canonical_shift(s)
        again, t = cg.canonical_shift(canon)
        assert again == canon and t == 0

    def test_size3_shift_classes(self):
        canon = {cg.canonical_shift(sys_of(p))[0] for p in TABLE1[3]}
        assert len(canon) == 2

    @given(split_systems())
    @settings(max_examples=50, deadline=None)
    def test_canonical_matches_full_scan(self, s):
        assert cg.canonical_shift(s) == canonical_shift_scan(s)

    @given(split_systems(), st.integers(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_shift_preserves_exactness_and_naturality(self, s, t):
        shifted = cg.shift(s, t)
        assert cg.is_exact(shifted)
        assert cg.is_natural(shifted)

    def test_naturality_shift_invariant_small_sizes(self):
        from necs import enumeration as en

        rng = random.Random(11)
        for k in range(1, 7):
            for s in en.enumerate_necs(k):
                t = rng.randrange(0, 2 * cg.lcm_of(s))
                assert cg.is_natural(cg.shift(s, t))

    @slow
    def test_naturality_shift_invariant_k8(self):
        from necs import enumeration as en

        rng = random.Random(13)
        for s in en.enumerate_necs(8, ordered=False):
            assert cg.is_natural(cg.shift(s, rng.randrange(0, cg.lcm_of(s))))


class TestTextFormats:
    def test_text_roundtrip(self):
        s = sys_of([(1, 4), (3, 4), (0, 6), (2, 6), (4, 6)])
        assert cg.parse_system_text(cg.format_system_text(s)) == s

    def test_comments_and_blanks(self):
        text = "# a comment\n\n0 mod 2  # trailing\n1 mod 2\n"
        assert cg.parse_system_text(text) == sys_of([(0, 2), (1, 2)])

    def test_rejects_bad_lines(self):
        with pytest.raises(ValueError):
            cg.parse_system_text("0 modulo 2")
        with pytest.raises(ValueError):
            cg.parse_system_text("5 mod 3")
        with pytest.raises(ValueError):
            cg.parse_system_text("# only a comment")

    def test_json_roundtrip(self):
        s = sys_of([(0, 3), (1, 3), (2, 6), (5, 6)])
        assert cg.parse_system_json(cg.format_system_json(s)) == s
        assert cg.format_system_json(s) == "[[0, 3], [1, 3], [2, 6], [5, 6]]"

    def test_json_validation(self):
        with pytest.raises(ValueError):
            cg.parse_system_json("[]")
        with pytest.raises(ValueError):
            cg.parse_system_json("[[3, 2]]")
        with pytest.raises(ValueError):
            cg.parse_system_json("[[false, true]]")  # bool is an int subclass
        with pytest.raises(ValueError):
            cg.parse_system_json("[" * 100_000 + "]" * 100_000)  # deeper than the recursion limit

    def test_json_error_message_is_short(self):
        # the rejected item is quoted only up to a fixed length
        for text in ("[" + "[" * 990 + "]" * 990 + "]", "[[0, " + "7" * 1000 + ", 1]]"):
            with pytest.raises(ValueError) as info:
                cg.parse_system_json(text)
            assert len(str(info.value)) < 200


# near-valid inputs: mostly classes a mod n with 0 <= a < n <= 12, and one
# pair in ten, one word in ten or one JSON item in five out of range or
# of the wrong kind
OFFSET_MODULUS = st.integers(0, 9).flatmap(
    lambda r: st.integers(1, 12).flatmap(lambda n: st.tuples(st.integers(0, n - 1), st.just(n)))
    if r
    else st.tuples(st.integers(-1, 13), st.integers(-1, 12))
)
SYSTEM_LINES = st.lists(
    st.tuples(OFFSET_MODULUS, st.sampled_from(["mod"] * 9 + ["modulo"]), st.sampled_from(["", " # c"])).map(
        lambda t: f"{t[0][0]} {t[1]} {t[0][1]}{t[2]}"
    ),
    max_size=6,
).map("\n".join)
ODD_ITEMS = st.lists(st.integers(0, 3) | st.booleans() | st.floats(0, 3), max_size=3)
JSON_PAIRS = st.lists(
    st.integers(0, 4).flatmap(lambda r: OFFSET_MODULUS.map(list) if r else ODD_ITEMS), max_size=6
).map(json.dumps)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=20,
).map(json.dumps)


class TestParserFuzz:
    """Each parser either rejects its input with ValueError or returns a
    value that its formatter writes back to the same value."""

    @given(SYSTEM_LINES | st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_text(self, text):
        try:
            s = cg.parse_system_text(text)
        except ValueError:
            return
        assert cg.parse_system_text(cg.format_system_text(s)) == s

    @given(JSON_PAIRS | JSON_VALUES | st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_json(self, text):
        try:
            s = cg.parse_system_json(text)
        except ValueError:
            return
        assert cg.parse_system_json(cg.format_system_json(s)) == s
