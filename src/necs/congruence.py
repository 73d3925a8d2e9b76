"""Residue classes and exact covering systems.

A residue class <a, n> is the set of integers congruent to a mod n.  A
finite collection of residue classes is an exact covering system (ECS)
when the classes are pairwise disjoint and their union is all of Z.  The
natural exact covering systems (NECS) are the ECS reachable from the
trivial system {<0,1>} by repeatedly r-splitting one class <a,n> into
<a+jn, rn> for j = 0..r-1.

Two classes <a,n> and <b,m> are disjoint iff a != b (mod gcd(n, m)), so
disjointness never requires materializing Z/lcm.  Given pairwise
disjointness, covering is equivalent to the densities 1/n summing to
exactly 1, tested in exact rational arithmetic.

The inverse of expansion is contraction: a system whose moduli share a
divisor n splits into n pieces, one per offset residue mod n, and the
system is exact iff every piece is.  Recursive contraction by the smallest
prime of each piece's gcd recognizes naturality and certifies exactness at
once.  Only a piece of gcd 1 needs the pairwise test, and only on its own
classes.  A level whose p - 1 classes of modulus p are leaves is peeled
in place: the rest of the piece is read through a frame (step, base) in
place of being rewritten, so a level of a split chain costs O(p)
big-integer operations, not one per class of the piece (see
naturality_witness for why the frames need no check at the peel).
"""

from __future__ import annotations

import json
from collections import namedtuple
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, islice
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .series import prime_factors


class NotExactCoverError(ValueError):
    """Raised where an operation is only meaningful for exact covers."""


class ResidueClass(namedtuple("ResidueClass", ("modulus", "offset"))):
    """The congruence class offset mod modulus, with 0 <= offset < modulus.

    A validated (modulus, offset) tuple: it equals, hashes and orders as the
    plain pair (modulus, offset), whose order is the canonical sort order
    used everywhere in this package, and it unpacks in that order
    (``n, a = c``), not in the "a mod n" reading of the text format.
    Immutable; comparison, hashing and sorting run in C.
    """

    __slots__ = ()

    def __new__(cls, modulus: int, offset: int):
        if modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {modulus}")
        if not 0 <= offset < modulus:
            raise ValueError(f"offset {offset} not in [0, {modulus})")
        return tuple.__new__(cls, (modulus, offset))

    @classmethod
    def _make(cls, iterable):  # namedtuple's would skip the checks (_replace uses it)
        return cls(*iterable)

    def __repr__(self) -> str:
        return f"<{self.offset},{self.modulus}>"

    def intersects(self, other: "ResidueClass") -> bool:
        """Two residue classes meet iff their offsets agree mod gcd of moduli."""
        g = gcd(self.modulus, other.modulus)
        return (self.offset - other.offset) % g == 0


def rc(offset: int, modulus: int) -> ResidueClass:
    """Shorthand constructor in the conventional (offset, modulus) reading."""
    return ResidueClass(modulus, offset % modulus if modulus >= 1 else offset)


class CoveringSystem:
    """An immutable, canonically sorted, duplicate-free set of residue classes.

    Canonical order is (modulus, offset); with it, set equality is plain
    sequence equality and lexicographic comparison of systems is well
    defined.
    """

    __slots__ = ("classes",)

    def __init__(self, classes: Iterable[ResidueClass]):
        cs = tuple(sorted(classes))
        if not cs:
            raise ValueError("a covering system needs at least one class")
        if len(set(cs)) != len(cs):
            a = next(a for a, b in zip(cs, cs[1:]) if a == b)
            raise ValueError(f"duplicate class {_clipped_repr(a)}")
        object.__setattr__(self, "classes", cs)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("CoveringSystem is immutable")

    def __iter__(self) -> Iterator[ResidueClass]:
        return iter(self.classes)

    def __len__(self) -> int:
        return len(self.classes)

    def __eq__(self, other) -> bool:
        return isinstance(other, CoveringSystem) and self.classes == other.classes

    def __lt__(self, other: "CoveringSystem") -> bool:
        # a tuple of pairs orders as its flattening, key()
        return self.classes < other.classes

    def __hash__(self) -> int:
        return hash(self.classes)

    def __repr__(self) -> str:
        return "{" + ", ".join(map(repr, self.classes)) + "}"

    def key(self) -> tuple:
        """Flat (modulus, offset, modulus, offset, ...) tuple; the canonical
        lexicographic sort key for streams of systems."""
        return tuple(chain.from_iterable(self.classes))


def system(*pairs: tuple[int, int]) -> CoveringSystem:
    """Covering system from (offset, modulus) pairs, e.g. system((0,2),(1,2))."""
    return CoveringSystem(ResidueClass(n, a) for a, n in pairs)


def size_of(c: CoveringSystem) -> int:
    return len(c.classes)


def gcd_of(c: CoveringSystem) -> int:
    g = 0
    for cl in c.classes:
        g = gcd(g, cl.modulus)
    return g


def lcm_of(c: CoveringSystem) -> int:
    m = 1
    for cl in c.classes:
        m = lcm(m, cl.modulus)
    return m


def is_exact(c: CoveringSystem) -> bool:
    """True iff the classes partition Z.

    Pairwise disjointness via the crt condition, then total density
    exactly 1 in exact rationals; disjoint classes of total density 1
    necessarily cover.
    """
    return _pairs_exact(c.classes)


def _pairs_exact(pairs: Iterable[tuple[int, int]]) -> bool:
    """is_exact on (modulus, offset) pairs."""
    # slices of a list, not of a tuple: short tuple slices pile up in
    # CPython's tuple free lists until a full garbage collection
    cs = list(pairs)
    for i, (n, a) in enumerate(cs):
        for m, b in cs[i + 1 :]:
            # ResidueClass.intersects, inlined: a method call per pair
            # would cost more than the test itself
            if (a - b) % gcd(n, m) == 0:
                return False
    density = sum(Fraction(1, n) for n, _ in cs)
    return density == 1


def expand(c: CoveringSystem, b: int, cc: int) -> CoveringSystem:
    """The <b,cc>-expansion: each <a,n> becomes <b + cc*a, cc*n>.

    Maps an exact cover of Z to an exact cover of the class <b,cc>.
    """
    if cc < 1:
        raise ValueError("expansion modulus must be >= 1")
    if not 0 <= b < cc:
        raise ValueError(f"expansion offset {b} not in [0, {cc})")
    return CoveringSystem(
        ResidueClass(cc * cl.modulus, b + cc * cl.offset) for cl in c.classes
    )


def r_split(c: CoveringSystem, target: ResidueClass, r: int) -> CoveringSystem:
    """Replace target = <a,n> in c by the r classes <a+jn, rn>, j = 0..r-1."""
    if r < 2:
        raise ValueError("split arity must be >= 2")
    if target not in c.classes:
        raise ValueError(f"{target} is not a class of the system")
    a, n = target.offset, target.modulus
    rest = [cl for cl in c.classes if cl != target]
    rest.extend(ResidueClass(r * n, a + j * n) for j in range(r))
    return CoveringSystem(rest)


def _contract_pairs(pairs: Iterable[tuple[int, int]], n: int) -> list[list[tuple[int, int]]]:
    """contract on (modulus, offset) pairs; an empty bucket means not exact."""
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for m, a in pairs:
        i = a % n
        buckets[i].append((m // n, (a - i) // n))
    if not all(buckets):
        raise NotExactCoverError("some offset residue mod n is empty; input is not exact")
    return buckets


def contract(c: CoveringSystem, n: int) -> tuple[CoveringSystem, ...]:
    """Split an exact system whose gcd n divides into n exact systems.

    Piece i (1-indexed) collects the classes with offset = i-1 (mod n),
    mapped through <a,m> -> <(a-(i-1))/n, m/n>.  Reassembling the pieces
    with expand(piece_i, i-1, n) returns the original system.  The caller
    is responsible for exactness of the input; divisibility is checked.
    """
    if n < 2:
        raise ValueError("contraction modulus must be >= 2")
    if gcd_of(c) % n != 0:
        raise ValueError(f"{n} does not divide the gcd {gcd_of(c)}")
    buckets = _contract_pairs(c.classes, n)
    return tuple(CoveringSystem(ResidueClass(m, a) for m, a in b) for b in buckets)


def reassemble(pieces: Sequence[CoveringSystem], n: int | None = None) -> CoveringSystem:
    """Inverse of contract: union of expand(piece_i, i-1, n) over all pieces."""
    if n is None:
        n = len(pieces)
    if n != len(pieces):
        raise ValueError("piece count must equal the contraction modulus")
    out: list[ResidueClass] = []
    for i, piece in enumerate(pieces):
        out.extend(expand(piece, i, n).classes)
    return CoveringSystem(out)


TRIVIAL = CoveringSystem([ResidueClass(1, 0)])


def is_natural(c: CoveringSystem) -> bool:
    """True iff c is reachable from {<0,1>} by a sequence of splits.

    Raises NotExactCoverError on input that is not exact.  With p the
    smallest prime of the gcd, c is natural iff all p contraction pieces
    are; the contraction certifies exactness, and the pairwise test runs
    only on a piece of gcd 1, that piece alone (see naturality_witness).
    """
    return naturality_witness(c) is not None


_LEAF_PIECE = [(1, 0)]


def naturality_witness(c: CoveringSystem):
    """Split tree certifying naturality, or None if c is exact but not natural.

    The witness is a Tree (see necs.trees) whose leaf labels reproduce c:
    internal nodes record the contraction modulus chosen at each level
    (the smallest prime p of the piece's gcd), and the leaves <0,1>
    certify that c is exact.  A piece of fewer classes than its gcd, or
    an empty contraction bucket, raises NotExactCoverError.  A piece of
    gcd 1 runs the pairwise test on its own classes, since c is exact iff
    every piece is: a failing piece raises, a passing one marks c not
    natural, and None comes only once every piece has passed.

    Peel rule.  Pieces are (modulus, offset) lists sorted by modulus
    (contraction buckets keep the order).  If a piece of gcd p starts with
    p - 1 classes of modulus p, these are distinct, so they are p - 1 leaves
    of the contraction by p, and if the piece is exact every other class
    lies in the one residue r they leave free.  The piece is then not
    rewritten: it goes on as the rest of the same list in a frame (step,
    base), where a pair (m, a) stands for <(a - base) / step, m / step>, so
    a level of a split chain costs O(p).  No class of the rest is checked
    at the peel.  Frames nest, so a class outside the residue of some level
    lies inside a leaf of that level (c is not exact) and outside every
    later frame: it is caught where it is next read in a frame, as a
    peeled leaf, as the last class of the list (which must be <base, step>),
    or when the rest is rewritten, by a nonzero remainder.  The gcd of the
    rest comes from suffix gcds of the list, built once a list peels twice
    in a row.  Iterative, so any depth works.
    """
    from . import trees  # local import; trees depends on this module

    arities = []  # preorder: 0 for a leaf, else the contraction modulus
    todo = [list(c.classes)]
    natural = True
    while todo:
        piece = todo.pop()
        k = len(piece)
        if k == 1:
            # a lone class of modulus n > 1 has density 1/n
            if piece[0] != (1, 0):
                raise NotExactCoverError("input does not partition the integers")
            arities.append(0)
            continue
        # the piece is piece[i:] in the frame (step, base); k classes
        i, step, base, suffix_gcds = 0, 1, 0, None
        # reduce, not gcd(*...): an argument tuple per piece would pile up
        # in CPython's tuple free lists until a full garbage collection
        g = reduce(gcd, map(itemgetter(0), piece))
        while True:
            # g divides each modulus, so the density is at most k / g
            if k < g:
                raise NotExactCoverError("input does not partition the integers")
            if g == 1:
                break
            p = prime_factors(g)[0]
            cut = step * p
            if piece[i + p - 2][0] != cut:
                break
            free = p * (p - 1) // 2  # the residue the p - 1 leaves leave free
            for j in range(i, i + p - 1):
                q, rem = divmod(piece[j][1] - base, step)
                if rem:
                    raise NotExactCoverError("input does not partition the integers")
                free -= q
            arities.append(p)
            arities += [0] * free
            todo += [_LEAF_PIECE] * (p - 1 - free)  # residues past free, after its subtree
            i += p - 1
            k -= p - 1
            base += step * free
            if k == 1:
                if piece[i] != (cut, base):
                    raise NotExactCoverError("input does not partition the integers")
                arities.append(0)
                break
            if step == 1:
                g = reduce(gcd, map(itemgetter(0), islice(piece, i, None))) // cut
            else:
                if suffix_gcds is None:
                    suffix_gcds = list(accumulate(map(itemgetter(0), reversed(piece)), gcd))
                    suffix_gcds.reverse()
                g = suffix_gcds[i] // cut
            step = cut
        if k == 1:
            continue
        if step > 1:  # rewrite the rest in its frame
            rest = []
            for m, a in islice(piece, i, None):
                q, rem = divmod(a - base, step)
                if rem:
                    raise NotExactCoverError("input does not partition the integers")
                rest.append((m // step, q))
            piece = rest
        if g == 1:
            if not _pairs_exact(piece):
                raise NotExactCoverError("input does not partition the integers")
            natural = False
        else:
            arities.append(p)
            todo.extend(reversed(_contract_pairs(piece, p)))
    if not natural:
        return None
    built: list = []  # finished subtrees; the first child on top
    for p in reversed(arities):
        if p == 0:
            built.append(trees.LEAF)
        else:
            kids = tuple(reversed(built[-p:]))
            del built[-p:]
            built.append(trees.Tree(kids))
    return built[0]


def shift(c: CoveringSystem, t: int) -> CoveringSystem:
    """Translate the system by t: each <a,n> becomes <(a+t) mod n, n>."""
    return CoveringSystem(
        ResidueClass(cl.modulus, (cl.offset + t) % cl.modulus) for cl in c.classes
    )


def least_translate(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[tuple[int, int], ...], int]:
    """Lexicographically least translate of an exact system given as
    (modulus, offset) pairs: the translated pairs in sorted order, and the
    least t >= 0 that gives them.

    Only t in [0, lcm) matter.  Since the sorted pairs order by modulus
    first, the least translate is found by refining candidate t values one
    modulus group at a time, in increasing modulus order: candidates are
    kept as residues mod the lcm of the processed moduli and only those
    achieving the least sorted offset tuple for the current group survive.
    The first group alone already forces some minimal-modulus class to
    offset 0.  Equivalent to (and tested against) the full scan over
    [0, lcm), but touches far fewer translates.
    """
    pairs = tuple(pairs)
    groups: dict[int, list[int]] = {}
    for n, a in pairs:
        groups.setdefault(n, []).append(a)
    period = 1
    cands = [0]
    for n in sorted(groups):
        offs = groups[n]
        new_period = period * n // gcd(period, n)
        best_key = None
        survivors: list[int] = []
        for t0 in cands:
            for t in range(t0, new_period, period):
                key = tuple(sorted((o + t) % n for o in offs))
                if best_key is None or key < best_key:
                    best_key, survivors = key, [t]
                elif key == best_key:
                    survivors.append(t)
        period, cands = new_period, survivors
    t = min(cands)
    return tuple(sorted((n, (a + t) % n) for n, a in pairs)), t


def canonical_shift(c: CoveringSystem) -> tuple[CoveringSystem, int]:
    """Lexicographically least translate of c, with the least witnessing t
    (see least_translate; c is assumed exact)."""
    pairs, t = least_translate(c.classes)
    return CoveringSystem(ResidueClass(n, a) for n, a in pairs), t


# --- text and JSON formats --------------------------------------------------
#
# Text: one class per line, "a mod n" with 0 <= a < n; '#' comments and
# blank lines ignored.  JSON: array of [a, n] pairs.  Emission is always
# in canonical order, one class at a time: class_text and class_json are
# the only formatters of a class, and a system's text is theirs joined.


def parse_system_text(text: str) -> CoveringSystem:
    classes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[1] != "mod":
            raise ValueError(f"line {lineno}: expected 'a mod n', got {_clipped_repr(raw)}")
        try:
            a, n = int(parts[0]), int(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {_clipped_repr(raw)}") from None
        if n < 1 or not 0 <= a < n:
            raise ValueError(
                f"line {lineno}: need 0 <= a < n, got a={_clipped_repr(a)}, n={_clipped_repr(n)}"
            )
        classes.append(ResidueClass(n, a))
    if not classes:
        raise ValueError("no residue classes found")
    return CoveringSystem(classes)


def class_text(c: ResidueClass) -> str:
    """The text line of one class: "a mod n" and a newline."""
    n, a = c
    return f"{a} mod {n}\n"


def format_system_text(c: CoveringSystem) -> str:
    return "".join(map(class_text, c.classes))


def _clipped_repr(item, limit: int = 60) -> str:
    """repr(item), cut to its first `limit` characters plus '...' if longer,
    so that an error message stays one short line."""
    text = repr(item)
    return text if len(text) <= limit else text[:limit] + "..."


def parse_system_json(text: str) -> CoveringSystem:
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(data, list) or not data:
        raise ValueError("expected a nonempty JSON array of [a, n] pairs")
    classes = []
    for item in data:
        if not (isinstance(item, list) and len(item) == 2):
            raise ValueError(f"expected [a, n] pair, got {_clipped_repr(item)}")
        a, n = item
        # bool is a subclass of int, but true and false are not numbers
        if not (type(a) is int and type(n) is int) or n < 1 or not 0 <= a < n:
            raise ValueError(f"need integers with 0 <= a < n, got {_clipped_repr(item)}")
        classes.append(ResidueClass(n, a))
    return CoveringSystem(classes)


def class_json(c: ResidueClass) -> str:
    """The JSON pair of one class, "[a, n]", as json.dumps writes it."""
    n, a = c
    return f"[{a}, {n}]"


def format_system_json(c: CoveringSystem) -> str:
    return "[" + ", ".join(map(class_json, c.classes)) + "]"
