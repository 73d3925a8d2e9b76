"""Split trees, the leaf-label map onto natural systems, and enumeration."""

from functools import partial
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necs import congruence as cg
from necs import series as se
from necs import trees as tr

from helpers import (
    SCHROEDER,
    enumerate_trees_recursive,
    format_tree_walk,
    slow,
    sys_of,
    tree_count,
)

# near-valid trees: 0 to 4 children per vertex, and an up-degree that
# mostly matches the child count
TREE_TEXTS = st.recursive(
    st.just("()"),
    lambda inner: st.lists(inner, max_size=4).flatmap(
        lambda kids: st.sampled_from([len(kids)] * 4 + [0, 1, 2, 3, 4]).map(
            lambda d: "(" + " ".join([str(d)] + kids) + ")"
        )
    ),
    max_leaves=12,
)

FIGURE_TREE = "(3 (3 () (2 () ()) ()) () (2 () (3 (2 () ()) () ())))"


class TestBasics:
    def test_leaf(self):
        assert tr.leaf_count(tr.LEAF) == 1
        assert tr.height(tr.LEAF) == 0

    def test_no_unary_vertices(self):
        with pytest.raises(ValueError):
            tr.Tree((tr.LEAF,))

    def test_ten_leaf_example(self):
        t = tr.parse_tree(FIGURE_TREE)
        assert tr.leaf_count(t) == 10
        assert tr.height(t) == 4
        sub = t.children[0]
        assert tr.leaf_count(sub) == 4 and tr.height(sub) == 2

    def test_parse_format_roundtrip(self):
        t = tr.parse_tree(FIGURE_TREE)
        assert tr.format_tree(t) == FIGURE_TREE
        assert tr.parse_tree("()") == tr.LEAF

    def test_parse_rejects_garbage(self):
        for bad in ["(", "(1 ())", "(2 () () ())", "(2 () ()) ()", "2 () ()", "(2 x)", "", ")"]:
            with pytest.raises(ValueError):
                tr.parse_tree(bad)

    @given(TREE_TEXTS | st.text(alphabet="() 0123456789x", max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_parse_rejects_or_round_trips(self, text):
        try:
            t = tr.parse_tree(text)
        except ValueError:
            return
        assert tr.format_tree(t) == format_tree_walk(t)
        assert tr.parse_tree(tr.format_tree(t)) == t

    def test_deep_chain_is_iterative(self):
        # a binary split chain of 5,000 classes, far deeper than the
        # interpreter's recursion limit
        depth = 4999
        text = "(2 () " * depth + "()" + ")" * depth
        t = tr.parse_tree(text)
        assert tr.format_tree(t) == text
        assert tr.leaf_count(t) == depth + 1
        assert tr.height(t) == depth
        want = [(2 ** (j - 1) - 1, 2**j) for j in range(1, depth + 1)] + [(2**depth - 1, 2**depth)]
        assert tr.chi(t) == sys_of(want)

    def test_deep_chains_compare_and_hash(self):
        depth = 5000
        text = "(2 () " * depth + "()" + ")" * depth
        a, b = tr.parse_tree(text), tr.parse_tree(text)
        mirrored = tr.parse_tree("(2 " * depth + "()" + " ())" * depth)
        assert a is not b
        assert a == b and not a != b
        assert a != mirrored and not a == mirrored
        assert hash(a) == hash(b)
        assert b in {a} and mirrored not in {a}


class TestChi:
    def test_trivial(self):
        assert tr.chi(tr.LEAF) == cg.TRIVIAL

    def test_star(self):
        star = tr.Tree((tr.LEAF,) * 5)
        assert tr.chi(star) == sys_of([(j, 5) for j in range(5)])

    def test_ten_leaf_example(self):
        t = tr.parse_tree(FIGURE_TREE)
        want = sys_of(
            [(0, 9), (3, 18), (12, 18), (6, 9), (1, 3), (2, 6), (5, 36), (23, 36), (11, 18), (17, 18)]
        )
        assert tr.chi(t) == want

    def test_subtree_decomposition(self):
        # chi splits over the root's children via expansions
        t = tr.parse_tree(FIGURE_TREE)
        n = t.up_degree
        tiles = []
        for i, child in enumerate(t.children):
            tiles.extend(cg.expand(tr.chi(child), i, n).classes)
        assert cg.CoveringSystem(tiles) == tr.chi(t)
        # and the contraction recovers the children's systems
        assert cg.contract(tr.chi(t), n) == tuple(tr.chi(c) for c in t.children)

    def test_chi_exact_natural_and_sized(self):
        for k in range(1, 9):
            for t in tr.enumerate_trees(k):
                c = tr.chi(t)
                assert len(c) == tr.leaf_count(t)
                assert cg.is_exact(c)
        # naturality of every image, on a sample of sizes
        for k in (5, 7):
            for t in tr.enumerate_trees(k):
                assert cg.is_natural(tr.chi(t))

    @slow
    def test_chi_exact_and_natural_up_to_ten_leaves(self):
        for k in (9, 10):
            for t in tr.enumerate_trees(k):
                assert cg.is_natural(tr.chi(t))  # checks exactness on the way

    def test_lcm_bounded_by_binary_chain(self):
        for k in range(1, 9):
            for t in tr.enumerate_trees(k):
                assert cg.lcm_of(tr.chi(t)) <= 2 ** (k - 1)


class TestRegrouping:
    def test_star4(self):
        star = tr.Tree((tr.LEAF,) * 4)
        s = tr.ab_bijection(star, 2, 2)
        assert tr.format_tree(s) == "(2 (2 () ()) (2 () ()))"
        assert tr.chi(s) == tr.chi(star) == sys_of([(j, 4) for j in range(4)])
        assert tr.ab_inverse(s, 2, 2) == star

    def test_star6_gives_six_split(self):
        star = tr.Tree((tr.LEAF,) * 6)
        s = tr.ab_bijection(star, 2, 3)
        assert tr.chi(s) == sys_of([(j, 6) for j in range(6)])

    def test_validation(self):
        star = tr.Tree((tr.LEAF,) * 4)
        with pytest.raises(ValueError):
            tr.ab_bijection(star, 2, 3)
        with pytest.raises(ValueError):
            tr.ab_inverse(star, 2, 2)

    @pytest.mark.parametrize("a,b,degree", [(2, 2, 4), (2, 3, 6), (3, 2, 6)])
    def test_preserves_chi_and_roundtrips(self, a, b, degree):
        for k in range(degree, 9):
            for t in tr.enumerate_trees(k):
                if t.up_degree != degree:
                    continue
                s = tr.ab_bijection(t, a, b)
                assert s.up_degree == a
                assert all(y.up_degree == b for y in s.children)
                assert tr.chi(s) == tr.chi(t)
                assert tr.ab_inverse(s, a, b) == t


class TestEnumeration:
    def test_single_leaf(self):
        assert list(tr.enumerate_trees(1)) == [tr.LEAF]

    def test_counts_match_schroeder_series(self):
        t = se.schroeder_series(9)
        for k in range(1, 10):
            trees = list(tr.enumerate_trees(k))
            assert len(trees) == t[k] == SCHROEDER[k]
            assert len(set(trees)) == len(trees)
            assert all(tr.leaf_count(x) == k for x in trees)

    def test_direct_count_oracle(self):
        t = se.schroeder_series(12)
        for k in range(1, 13):
            assert tree_count(k) == t[k]
        assert [tree_count(k) for k in range(1, 11)] == SCHROEDER[1:]

    def test_four_leaves_image(self):
        trees = list(tr.enumerate_trees(4))
        assert len(trees) == 11
        assert len({tr.chi(t) for t in trees}) == 10

    def test_deterministic_order(self):
        assert list(tr.enumerate_trees(5)) == list(tr.enumerate_trees(5))


class TestEnumerationOracle:
    """The memoized enumeration against the unmemoized recursion: the same
    trees in the same order."""

    def test_up_to_nine_leaves(self):
        for k in range(1, 10):
            assert list(tr.enumerate_trees(k)) == list(enumerate_trees_recursive(k)), k

    def test_streamed_child_list_prefix(self):
        # the first ten-leaf trees have a nine-leaf first child, beyond the memo
        got = islice(tr.enumerate_trees(10), 3000)
        assert list(got) == list(islice(enumerate_trees_recursive(10), 3000))

    def test_streamed_product_is_product(self):
        factors = [(1, 2), (3,), "ab", (4, 5, 6)]
        want = list(product(*factors))
        for streamed in ([1], [2], [0, 3], [0, 1, 2, 3]):
            mixed = [partial(iter, f) if i in streamed else f for i, f in enumerate(factors)]
            assert list(tr._streamed_product(mixed)) == want
        assert list(tr._streamed_product([(1, 2), partial(iter, ())])) == []

    @slow
    def test_ten_leaves(self):
        assert list(tr.enumerate_trees(10)) == list(enumerate_trees_recursive(10))


def _formats_like_the_walk(k):
    count = 0
    for t in tr.enumerate_trees(k):
        assert tr.format_tree(t) == format_tree_walk(t)
        count += 1
    assert count == SCHROEDER[k]


class TestFormatOracle:
    """format_tree, which copies the text that enumerate_trees stores on its
    memo trees, against a walk over every vertex."""

    def test_every_tree_up_to_nine_leaves(self):
        for k in range(1, 10):
            _formats_like_the_walk(k)

    @slow
    def test_ten_leaves(self):
        _formats_like_the_walk(10)

    def test_enumerated_trees_equal_and_hash_like_parsed(self):
        for k in range(1, 10):
            for t in tr.enumerate_trees(k):
                parsed = tr.parse_tree(format_tree_walk(t))
                assert parsed == t and t == parsed
                assert hash(parsed) == hash(t)

    def test_only_memo_trees_store_text(self):
        for t in tr.enumerate_trees(9):
            assert t.text is None  # a listed tree of the requested size
            for child in t.children:  # at most 8 leaves: from the memo
                want = None if child.is_leaf() else format_tree_walk(child)
                assert child.text == want
        assert tr.LEAF.text is None
        todo = [tr.parse_tree(FIGURE_TREE)]
        while todo:
            node = todo.pop()
            assert node.text is None
            todo.extend(node.children)

    def test_deep_chain_over_a_memo_subtree(self):
        memo = next(tr.enumerate_trees(9)).children[0]
        assert memo.text is not None and tr.leaf_count(memo) == 8
        chain = memo
        for _ in range(5000):
            chain = tr.Tree((tr.LEAF, chain))
        text = format_tree_walk(chain)
        assert tr.format_tree(chain) == text
        parsed = tr.parse_tree(text)
        assert parsed == chain and hash(parsed) == hash(chain)
        assert tr.leaf_count(chain) == 5008

    def test_memo_subtrees_among_walked_subtrees(self):
        memo = next(tr.enumerate_trees(9)).children[0]
        walked = [tr.parse_tree(FIGURE_TREE), tr.Tree((tr.LEAF, tr.LEAF))]
        for i in range(3):  # the memo subtree first, in the middle, last
            t = tr.Tree(tuple(walked[:i] + [memo] + walked[i:]))
            for tree in (t, tr.Tree((t, memo, tr.LEAF)), tr.Tree((tr.LEAF, t, walked[0]))):
                assert tr.format_tree(tree) == format_tree_walk(tree)

    def test_deep_chains_beside_a_memo_subtree(self):
        memo = next(tr.enumerate_trees(9)).children[0]
        chain = tr.LEAF
        for _ in range(5000):
            chain = tr.Tree((chain, tr.LEAF))
        for t in (tr.Tree((chain, memo)), tr.Tree((memo, chain)), tr.Tree((chain, memo, chain))):
            assert tr.format_tree(t) == format_tree_walk(t)
