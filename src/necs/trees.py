"""Rooted ordered trees whose vertices have 0 or >= 2 ordered children.

Every natural exact covering system arises from at least one such tree:
label the root <0,1> and give the children of a vertex labelled <a,n>
with up-degree r the labels <a+jn, rn>, j = 0..r-1.  The set of leaf
labels is an exact covering system, and the map (called chi here) from
trees onto natural systems is a surjection that sends leaf count to
system size.  Trees with k leaves are counted by the Schroder numbers.
enumerate_trees lists them with a memo: the trees with fewer than
_MEMO_MAX_SIZE (9) leaves are built once per call and shared as
subtrees; larger child lists are streamed afresh, never held.  Each
memo tree also stores its text, formatted once when its list is built,
so format_tree writes a shared subtree's text in place, with no walk
and no stack step; the texts live as long as the trees that hold them.
Trees built any other way (parse_tree, callers) store nothing.

Serialization is nested parentheses with explicit up-degrees: a leaf is
"()" and an internal vertex with children c1..cr is "(r c1 ... cr)".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, partial
from itertools import product
from typing import Iterator

from .congruence import CoveringSystem, ResidueClass


@dataclass(frozen=True, eq=False)
class Tree:
    """Ordered tree; children is empty (a leaf) or has length >= 2.

    Equality and hashing go through format_tree, which is iterative, so
    trees of any depth compare and hash.  text is the tree's format_tree
    text where enumerate_trees has stored it (its memo trees), else None.
    """

    children: tuple["Tree", ...] = ()
    text: str | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.children) == 1:
            raise ValueError("vertices with exactly one child are not allowed")

    @property
    def up_degree(self) -> int:
        return len(self.children)

    def is_leaf(self) -> bool:
        return not self.children

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        return format_tree(self) == format_tree(other)

    def __hash__(self) -> int:
        return hash(format_tree(self))

    def __repr__(self) -> str:
        return f"Tree{format_tree(self)!r}"


LEAF = Tree()


def leaf_count(t: Tree) -> int:
    count, todo = 0, [t]
    while todo:
        node = todo.pop()
        if node.is_leaf():
            count += 1
        todo.extend(node.children)
    return count


def height(t: Tree) -> int:
    best, todo = 0, [(t, 0)]
    while todo:
        node, depth = todo.pop()
        best = max(best, depth)
        todo.extend((child, depth + 1) for child in node.children)
    return best


def chi(t: Tree) -> CoveringSystem:
    """The covering system whose classes are the leaf labels of t.

    The root is labelled <0,1>, and child i of a vertex <a,n> of up-degree
    r is labelled <a + i n, r n>; equivalently, a root of up-degree n maps
    to the disjoint union of the <i-1,n>-expansions of its children's
    systems.  Always exact and natural, with exactly leaf_count(t)
    classes.  Iterative, so any depth works.
    """
    classes = []
    todo = [(t, 0, 1)]  # (vertex, offset, modulus)
    while todo:
        node, a, n = todo.pop()
        if node.is_leaf():
            classes.append(ResidueClass(n, a))
        r = node.up_degree
        todo.extend((child, a + i * n, r * n) for i, child in enumerate(node.children))
    return CoveringSystem(classes)


def ab_bijection(t: Tree, a: int, b: int) -> Tree:
    """Regroup a root of up-degree a*b into a children of up-degree b.

    Child i (1-indexed) of the new root receives the original subtrees at
    root-child positions i, i+a, ..., i+(b-1)a, in order.  Every moved
    subtree keeps its label, so chi is preserved.  Inverse: ab_inverse.
    """
    if a < 2 or b < 2:
        raise ValueError("need a, b >= 2")
    if t.up_degree != a * b:
        raise ValueError(f"root up-degree {t.up_degree} differs from a*b = {a * b}")
    xs = t.children
    return Tree(tuple(Tree(tuple(xs[(i + j * a) - 1] for j in range(b))) for i in range(1, a + 1)))


def ab_inverse(s: Tree, a: int, b: int) -> Tree:
    """Undo ab_bijection: flatten a root of degree a whose children all have
    degree b back into a single root of degree a*b."""
    if a < 2 or b < 2:
        raise ValueError("need a, b >= 2")
    if s.up_degree != a or any(y.up_degree != b for y in s.children):
        raise ValueError("tree is not in the a-by-b regrouped form")
    xs: list[Tree] = [LEAF] * (a * b)
    for i, y in enumerate(s.children):      # i = 0..a-1
        for j, sub in enumerate(y.children):  # j = 0..b-1
            xs[i + j * a] = sub
    return Tree(tuple(xs))


#: lists of natural systems with at most this many classes (enumeration)
#: and of trees with fewer leaves are materialized and reused; larger ones
#: are streamed, never held
_MEMO_MAX_SIZE = 9


def _compositions_colex(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Compositions of total into parts positive parts, colexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for last in range(1, total - parts + 2):
        for rest in _compositions_colex(total - last, parts - 1):
            yield rest + (last,)


def _streamed_product(factors: list) -> Iterator[tuple]:
    """itertools.product(*factors), in the same order, where a factor may
    also be a function of no arguments that returns an iterator: it is
    called afresh for each combination of the factors before it, so its
    items are streamed and never held (product would hold them all)."""
    i = next((i for i, f in enumerate(factors) if callable(f)), None)
    if i is None:
        yield from product(*factors)
        return
    rest = factors[i + 1 :]
    for head in product(*factors[:i]):
        for item in factors[i]():
            for tail in _streamed_product(rest):
                yield head + (item,) + tail


def enumerate_trees(k: int) -> Iterator[Tree]:
    """All trees with exactly k leaves, each exactly once.

    Deterministic order: by root up-degree, then child-leaf-count
    compositions in colexicographic order, then the children's own lists
    in this order, the first child varying slowest.  The lists of trees
    with fewer than _MEMO_MAX_SIZE leaves are built once per call and
    their trees shared as subtrees, so every child list of a tree with at
    most _MEMO_MAX_SIZE leaves comes from that memo; larger child lists
    are streamed afresh.  Each memo tree of two or more leaves stores its
    text (Tree.text) when its list is built; the trees yielded here store
    none themselves.
    """
    if k < 1:
        raise ValueError("need k >= 1")

    @cache
    def listed(j: int) -> tuple[Tree, ...]:
        trees = tuple(fresh(j))
        if j > 1:  # (the one-leaf list is the shared LEAF, which stays as it is)
            for t in trees:
                # the children are memo trees, whose texts are stored already
                object.__setattr__(t, "text", format_tree(t))
        return trees

    def fresh(j: int) -> Iterator[Tree]:
        if j == 1:
            yield LEAF
            return
        for r in range(2, j + 1):
            for comp in _compositions_colex(j, r):
                factors = [listed(i) if i < _MEMO_MAX_SIZE else partial(fresh, i) for i in comp]
                for children in _streamed_product(factors):
                    yield Tree(children)

    yield from fresh(k)


# --- parenthesized format ----------------------------------------------------


def format_tree(t: Tree) -> str:
    """The parenthesized format; iterative, so any depth formats.  A
    subtree that stores its text (see enumerate_trees) is copied, not
    walked, and so is a leaf's "()": each is written in place as the walk
    meets it, and only a child to be walked opens a level of the stack."""
    if t.text is not None or t.is_leaf():
        return t.text or "()"
    out = [f"({t.up_degree}"]
    todo = [iter(t.children)]  # the children not yet written, per open vertex
    while todo:
        for child in todo[-1]:
            text = child.text
            if text is None and child.children:
                out.append(f" ({child.up_degree}")
                todo.append(iter(child.children))
                break
            out.append(" ()" if text is None else " " + text)
        else:
            todo.pop()
            out.append(")")
    return "".join(out)


def parse_tree(text: str) -> Tree:
    """Parse the parenthesized format; up-degrees must match child counts.
    Iterative: open vertices wait on a stack, so any depth parses."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack: list[list] = []  # open vertices: [up-degree, children]; None until read
    result = None
    for pos, tok in enumerate(tokens):
        if result is not None:
            raise ValueError("trailing tokens after tree")
        if stack and stack[-1][0] is None:  # just after '('
            if tok == ")":
                stack.pop()
                done = LEAF
            elif tok.isdigit():
                stack[-1][0] = int(tok)
                continue
            else:
                raise ValueError(f"expected up-degree at token {pos}")
        elif tok == "(":
            stack.append([None, []])
            continue
        elif tok == ")" and stack:
            degree, children = stack.pop()
            if degree != len(children):
                raise ValueError(f"up-degree {degree} does not match {len(children)} children")
            done = Tree(tuple(children))
        elif stack:
            raise ValueError(f"expected '(' or ')' at token {pos}")
        else:
            raise ValueError(f"expected '(' at token {pos}")
        if stack:
            stack[-1][1].append(done)
        else:
            result = done
    if result is None:
        raise ValueError("unbalanced parentheses")
    return result
