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
divisor n splits into n pieces, one per offset residue mod n, each exact
iff the system is.  Recursive contraction by the smallest prime of each
piece's gcd recognizes naturality and certifies exactness at once; only a
piece of gcd 1 needs the pairwise is_exact, to tell the two verdicts apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

from .series import prime_factors


class NotExactCoverError(ValueError):
    """Raised where an operation is only meaningful for exact covers."""


@dataclass(frozen=True, order=True)
class ResidueClass:
    """The congruence class offset mod modulus, with 0 <= offset < modulus.

    Field order is (modulus, offset) so the generated comparison is the
    canonical sort order used everywhere in this package.
    """

    modulus: int
    offset: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        if not 0 <= self.offset < self.modulus:
            raise ValueError(f"offset {self.offset} not in [0, {self.modulus})")

    def __repr__(self) -> str:
        return f"<{self.offset},{self.modulus}>"

    def contains(self, x: int) -> bool:
        return x % self.modulus == self.offset

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
        for a, b in zip(cs, cs[1:]):
            if a == b:
                raise ValueError(f"duplicate class {a}")
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
        return self.key() < other.key()

    def __hash__(self) -> int:
        return hash(self.classes)

    def __repr__(self) -> str:
        return "{" + ", ".join(map(repr, self.classes)) + "}"

    def key(self) -> tuple:
        """Flat (modulus, offset, modulus, offset, ...) tuple; the canonical
        lexicographic sort key for streams of systems."""
        out = []
        for c in self.classes:
            out.append(c.modulus)
            out.append(c.offset)
        return tuple(out)

    @staticmethod
    def of(*pairs: tuple[int, int]) -> "CoveringSystem":
        """Build from (offset, modulus) pairs."""
        return CoveringSystem(ResidueClass(n, a) for a, n in pairs)


def system(*pairs: tuple[int, int]) -> CoveringSystem:
    """Covering system from (offset, modulus) pairs, e.g. system((0,2),(1,2))."""
    return CoveringSystem.of(*pairs)


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
    cs = c.classes
    for i in range(len(cs)):
        for j in range(i + 1, len(cs)):
            if cs[i].intersects(cs[j]):
                return False
    density = sum(Fraction(1, cl.modulus) for cl in cs)
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
    buckets = _contract_pairs(((cl.modulus, cl.offset) for cl in c.classes), n)
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
    are; the contraction certifies exactness, and is_exact runs only at a
    piece of gcd 1 (see naturality_witness).
    """
    return naturality_witness(c) is not None


def naturality_witness(c: CoveringSystem):
    """Split tree certifying naturality, or None if c is exact but not natural.

    The witness is a Tree (see necs.trees) whose leaf labels reproduce c:
    internal nodes record the contraction modulus chosen at each level,
    and the leaves <0,1> certify that c is exact.  A piece of fewer classes
    than its gcd, or an empty contraction bucket, raises NotExactCoverError;
    is_exact runs only at a piece of gcd 1, to tell c exact (None) or not.
    Iterative ((modulus, offset) pieces wait on a stack), so any depth works.
    """
    from . import trees  # local import; trees depends on this module

    arities = []  # preorder: 0 for a leaf, else the contraction modulus
    todo = [[(cl.modulus, cl.offset) for cl in c.classes]]
    while todo:
        piece = todo.pop()
        if piece == [(1, 0)]:
            arities.append(0)
            continue
        g = gcd(*(m for m, _ in piece))
        # g divides each modulus, so the density is at most len(piece) / g
        if len(piece) < g or g == 1 and not is_exact(c):
            raise NotExactCoverError("input does not partition the integers")
        if g == 1:
            return None
        p = prime_factors(g)[0]
        arities.append(p)
        todo.extend(reversed(_contract_pairs(piece, p)))
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
    pairs, t = least_translate((cl.modulus, cl.offset) for cl in c.classes)
    return CoveringSystem(ResidueClass(n, a) for n, a in pairs), t


# --- text and JSON formats --------------------------------------------------
#
# Text: one class per line, "a mod n" with 0 <= a < n; '#' comments and
# blank lines ignored.  JSON: array of [a, n] pairs.  Emission is always
# in canonical order.


def parse_system_text(text: str) -> CoveringSystem:
    classes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[1] != "mod":
            raise ValueError(f"line {lineno}: expected 'a mod n', got {raw!r}")
        try:
            a, n = int(parts[0]), int(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}") from None
        if n < 1 or not 0 <= a < n:
            raise ValueError(f"line {lineno}: need 0 <= a < n, got a={a}, n={n}")
        classes.append(ResidueClass(n, a))
    if not classes:
        raise ValueError("no residue classes found")
    return CoveringSystem(classes)


def format_system_text(c: CoveringSystem) -> str:
    return "\n".join(f"{cl.offset} mod {cl.modulus}" for cl in c.classes) + "\n"


def parse_system_json(text: str) -> CoveringSystem:
    data = json.loads(text)
    if not isinstance(data, list) or not data:
        raise ValueError("expected a nonempty JSON array of [a, n] pairs")
    classes = []
    for item in data:
        if not (isinstance(item, list) and len(item) == 2):
            raise ValueError(f"expected [a, n] pair, got {item!r}")
        a, n = item
        if not (isinstance(a, int) and isinstance(n, int)) or n < 1 or not 0 <= a < n:
            raise ValueError(f"need integers with 0 <= a < n, got {item!r}")
        classes.append(ResidueClass(n, a))
    return CoveringSystem(classes)


def format_system_json(c: CoveringSystem) -> str:
    return json.dumps([[cl.offset, cl.modulus] for cl in c.classes])
