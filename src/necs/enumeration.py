"""Explicit generation of covering systems.

Natural systems are generated duplicate-free by running the counting
recurrence forwards: a system with gcd m >= 2 and size k is the assembly
of a unique m-tuple of smaller systems (its contraction by m), so
looping over compositions of k, coprime gcd tuples with nonzero counts,
and recursively generated pieces emits every system exactly once --
duplicate-freeness comes from the bijection, not from a dedup pass.
The stream is one closure pair, shaped like trees.enumerate_trees:
fresh(j, g) streams the systems of size j and gcd g, and listed(j, g),
a per-stream functools.cache of fresh, holds the piece lists of sizes
up to _MEMO_MAX_SIZE (9).  For each composition and gcd tuple, each
held list is <idx, n>-expanded once, and the systems are the unions of
the itertools.product of those lists.  A larger piece list is never
held: it is streamed afresh, piece by piece, for each combination of the
pieces before it.

Shift classes (orbits under translation) are listed by filtering that
stream for the systems that are their own least translate, tested on
the sorted classes before a system is built; translation preserves
naturality and the gcd, so each class has exactly one such member, and
the classes of one gcd need only that gcd's stream.  They
are counted without the stream: an orbit of period p has p members, so
s(k, n) = sum_p V(k, n)[p] / p over the period vectors V that the count
recurrence computes (counting.count_size_gcd_period, where the lemma
behind them is stated).

General exact covering systems (not necessarily natural) are found by a
complete two-phase backtracking search.  Phase one enumerates candidate
modulus multisets: nondecreasing, exact density sum 1/n_i = 1 (so a
modulus chosen with c slots left on budget r obeys ceil(1/r) <= n <=
floor(c/r)), pairwise non-coprime (disjoint classes always share a
modulus factor), with the largest modulus occurring at least twice (its
classes form a vanishing root-of-unity sum), and consistent with the
residue strata mod each prime: the terms p/n over p-divisible moduli
must split into p equal groups.  Simpson's inequality bounds the lcm L
of the prefix: its weight, the sum of a (p - 1) over the prime powers
p^a of L, is at most k - 1.  That bound alone gives the candidate
moduli, the numbers of weight at most k - 1 (so at most 2^(k-1), with
primes at most k).  A requested gcd m is a rule of the same search:
every modulus is a multiple of m (for m = 1, has two distinct primes),
and each complete multiset has gcd exactly m.  One recursion runs from
the empty prefix, in integer arithmetic: the budget is a reduced
fraction of two ints, the stratum state one int pair per prime, and the
candidate moduli of a node a bitset over the values that pass the gcd
rule, cut down by the prime-sharing rule and by the stratum bounds of
the primes that a candidate does not have.  Phase one rejects no
multiset by the multiplicities of its other maximal moduli: phase two
rejects the few such multisets that pass the rules above.
Phase two solves, for each multiset with lcm L, an exact cover with
multiplicities: the points of Z/L are the items, the classes a mod n the
options, and each modulus is used as often as the multiset holds it.
It places the root class 0 mod n first, for the root n (the modulus
with the largest n / c_n, c_n its multiplicity), then branches on the
uncovered point with the fewest classes that can still cover it, so
dead points end a branch and forced points cost no branching, and every
rooted cover is visited along exactly one path.  Every cover is a
translate of exactly one rooted cover (proved in count_ecs): with b(R)
the largest offset of modulus n in a rooted cover R, the pairs (R, t)
with 0 <= t < n - b(R) map one-to-one onto all covers by R + t, whose
least offset of modulus n is t.  enumerate_ecs emits those translates,
and count_ecs adds n - b(R) over the rooted covers.

Inside a natural stream the pieces travel as unsorted tuples of the
stream's own ResidueClass objects, which come from one memo of
ResidueClass (make) per stream, so each distinct class is validated once
per stream and equal classes of one stream are one object.  Expanding a
piece by <idx, n> maps it through a per-stream dict for that (idx, n),
which lifts each class once, through make (_Lift).  Each emitted system
is built once, as the CoveringSystem of the union of its pieces, which
sorts it and checks it for duplicates.  The exact-cover search emits
flat sorted tuples of (modulus, offset) pairs, built into systems by one
builder per stream with the same kind of memo (_to_systems).  Nothing is
shared between streams.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain, product, starmap
from math import gcd, lcm
from operator import attrgetter
from typing import Iterable, Iterator

from .congruence import CoveringSystem, ResidueClass, least_translate
from .counting import count_size_gcd, count_size_gcd_period
from .series import prime_factors
from .trees import _MEMO_MAX_SIZE, _compositions_colex, _streamed_product

Flat = tuple[tuple[int, int], ...]  # sorted ((modulus, offset), ...)
Piece = tuple[ResidueClass, ...]  # the classes of a system, in no set order
_classes = attrgetter("classes")


class SearchBudgetExceeded(RuntimeError):
    """The backtracking search ran out of its configured time budget."""


def _to_systems(flats: Iterable[Flat]) -> Iterator[CoveringSystem]:
    """One CoveringSystem per flat tuple of the exact-cover search.  The
    classes come from a memo of ResidueClass that lives as long as this
    generator, so each distinct (modulus, offset) pair is validated once
    per stream and equal classes of one stream are one object;
    CoveringSystem still sorts each system and checks it for duplicates."""
    make = cache(ResidueClass)
    for flat in flats:
        yield CoveringSystem(starmap(make, flat))


class _Lift(dict):
    """The <idx, n>-expansion of single classes, c -> <idx + n a, n m> for
    c = <a, m>, made by the stream's class memo make and kept per class."""

    __slots__ = ("make", "idx", "n")

    def __init__(self, make, idx: int, n: int):
        self.make, self.idx, self.n = make, idx, n

    def __missing__(self, c: ResidueClass) -> ResidueClass:
        m, a = c
        self[c] = lifted = self.make(self.n * m, self.idx + self.n * a)
        return lifted


def _lifted(systems: Iterable[tuple[Piece, ...]], lift) -> Iterator[Piece]:
    """Each system of a stream, given by its pieces, as one piece expanded
    class by class through lift; pulled one system at a time."""
    for pieces in systems:
        yield tuple(map(lift, chain.from_iterable(pieces)))


def _check_size_gcd(k: int, m: int | None) -> None:
    if k < 1:
        raise ValueError("need k >= 1")
    if m is not None and not 1 <= m <= k:
        raise ValueError("need 1 <= m <= k")


def _necs_pieces(k: int, m: int | None) -> Iterator[tuple[Piece, ...]]:
    """The natural systems of size k and gcd m (every gcd if m is None),
    each as the tuple of its expanded pieces: compositions, then coprime
    gcd tuples, then the pieces, the first piece varying slowest."""
    table = count_size_gcd(k)
    # gcd values with nonzero counts, per size
    support = {j: [g for g in range(1, j + 1) if table.get(j, g)] for j in range(1, k + 1)}
    make = cache(ResidueClass)
    lift = cache(lambda idx, n: _Lift(make, idx, n).__getitem__)
    listed = cache(lambda j, g: tuple(map(tuple, map(chain.from_iterable, fresh(j, g)))))

    def fresh(j: int, g: int) -> Iterator[tuple[Piece, ...]]:
        if g == 1:
            if j == 1:
                yield ((make(1, 0),),)
            return
        # a system of gcd g is the assembly of its contraction by g: one
        # piece per residue mod g, whose gcds are coprime
        for comp in _compositions_colex(j, g):
            for gcds in product(*(support[i] for i in comp)):
                if gcd(*gcds) != 1:
                    continue
                factors = [
                    [tuple(map(lift(idx, g), p)) for p in listed(i, h)]
                    if i <= _MEMO_MAX_SIZE
                    else partial(expanded, i, h, idx, g)
                    for idx, (i, h) in enumerate(zip(comp, gcds))
                ]
                yield from _streamed_product(factors)

    def expanded(j: int, g: int, idx: int, n: int) -> Iterator[Piece]:
        return _lifted(fresh(j, g), lift(idx, n))

    for g in range(1, k + 1) if m is None else (m,):
        yield from fresh(k, g)


def enumerate_necs(
    k: int, m: int | None = None, *, ordered: bool = True
) -> Iterator[CoveringSystem]:
    """Every natural exact covering system of size k (and gcd m, if given),
    exactly once.

    With ordered=True (the default) the whole stream is built and emitted
    in canonical lexicographic order (by CoveringSystem.classes);
    ordered=False streams in a deterministic order (compositions, then gcd
    tuples, then the pieces, the first piece varying slowest), holding only
    the piece lists of sizes up to _MEMO_MAX_SIZE, whatever k is, one class
    object per distinct class made, and per (idx, n) the lifts of the
    classes expanded by it (see the module docstring).  Each system is
    built once.
    """
    _check_size_gcd(k, m)
    systems = map(CoveringSystem, map(chain.from_iterable, _necs_pieces(k, m)))
    yield from sorted(systems, key=_classes) if ordered else systems


def _least_translates(k: int, m: int | None = None) -> Iterator[CoveringSystem]:
    # translation preserves naturality and the gcd, so each shift class of
    # gcd m has one member here; only that member is built
    for pieces in _necs_pieces(k, m):
        classes = tuple(sorted(chain.from_iterable(pieces)))
        if least_translate(classes)[0] == classes:
            yield CoveringSystem(classes)


def shift_class_count(k: int, m: int | None = None) -> int:
    """Number of orbits of the size-k natural systems (of gcd m, if given)
    under translation: sum of V[p] / p over the period vectors V of
    count_size_gcd_period, since an orbit of period p has p members."""
    _check_size_gcd(k, m)
    periods = count_size_gcd_period(k)
    gcds = range(1, k + 1) if m is None else (m,)
    return sum(c // p for n in gcds for p, c in periods.get((k, n), {}).items())


def enumerate_shift_classes(k: int, m: int | None = None) -> Iterator[CoveringSystem]:
    """One representative per shift class of the size-k natural systems (of
    gcd m, if given, streaming only that gcd): the lexicographically least
    translate, emitted in canonical lexicographic order."""
    _check_size_gcd(k, m)
    yield from sorted(_least_translates(k, m), key=_classes)


# --- general exact covering systems (backtracking search) --------------------


@dataclass
class EcsSearchConfig:
    """Bounds for the exact-cover search.

    max_modulus, if given, bounds every modulus; there is no default
    bound, since Simpson's inequality (R. J. Simpson, Regular coverings of
    the integers by arithmetic progressions, Acta Arith. 45 (1985); cited
    from memory) bounds every exact cover: one whose lcm L is the product
    of the p_i^a_i has at least 1 + sum a_i (p_i - 1) classes.  Since
    p^a <= 2^(a (p - 1)), that gives L <= 2^(k-1), the modulus of the
    binary split chain, and primes at most k.  Phase one takes its
    candidate moduli from the inequality alone (the numbers of weight at
    most k - 1, then those at most max_modulus), and applies it as the
    weight cut: it rejects a modulus n when the weight sum a_i (p_i - 1)
    of lcm(prefix, n) exceeds k - 1, the lcm of a prefix dividing that of
    every completion.  The tests check the inequality only empirically:
    under it the search finds A(k) covers for k <= 12 (no cover of gcd 1
    has fewer than 13 classes) and P(13) = 30, where P(k) counts the
    covers of gcd 1, and phase two finds no rooted cover, hence no cover,
    in any multiset that the cut removes (k <= 9, and under NECS_SLOW
    k = 10 and 11 and gcd 1 at k = 13 and 14).
    gcd restricts output to systems with that exact gcd; gcd=1 also
    restricts branching to moduli with at least two distinct prime
    factors, since any prime-power modulus forces its prime into every
    other modulus and hence into the gcd.  gcd=m>=2 restricts branching
    to multiples of m.  max_modulus below 1 and a budget_seconds that is
    negative or NaN raise ValueError; a budget of 0 aborts at the first check.
    budget_seconds aborts the search distinctly via SearchBudgetExceeded;
    both phases check the deadline every 1024 search nodes, phase two also
    before each modulus multiset, and enumerate_ecs also every 1024
    emitted covers.
    """

    max_modulus: int | None = None
    budget_seconds: float | None = None
    gcd: int | None = None

    def __post_init__(self):
        if self.max_modulus is not None and self.max_modulus < 1:
            raise ValueError(f"need max_modulus >= 1, got {self.max_modulus}")
        if self.budget_seconds is not None and not self.budget_seconds >= 0:
            raise ValueError(f"need budget_seconds >= 0, got {self.budget_seconds}")


def _modulus_multisets(
    k: int, max_mod: int | None, want_gcd: int | None, tick=lambda: None, check=lambda: None
) -> Iterator[tuple[int, ...]]:
    """Nondecreasing modulus tuples (n_1 <= ... <= n_k) with sum 1/n_i = 1
    and gcd want_gcd (any gcd if None), each at most max_mod (if given) and
    with an lcm of weight at most k - 1 (Simpson's inequality), that could
    be the moduli of an exact cover.

    With moduli nondecreasing, a modulus chosen when c remain on budget r
    satisfies 1/n <= r <= c/n, so ceil(1/r) <= n <= floor(c/r) bounds
    every branch and the enumeration terminates.  Three further necessary
    conditions prune hard: moduli of disjoint classes are pairwise
    non-coprime, the largest modulus of an exact cover occurs at least
    twice (at a primitive root of unity of the top modulus, the offsets of
    its classes form a vanishing sum, which needs at least two terms), and
    the residue strata mod each prime split evenly.  All arithmetic is on
    integers; tick() is called once per search node (a prefix of at least
    one modulus), and check() every 1024 entries of the candidate table and
    of its prime bitsets while they are built (532,306 entries at k = 80).
    """
    if k == 1:
        yield (1,)
        return
    # Simpson's inequality bounds the weight of the lcm, hence of every
    # modulus, by k - 1, and it is the only source of the candidates:
    # factors[s] holds the distinct primes of each s of weight at most
    # k - 1, in increasing order, and weight[s] the sum of a (p - 1) over
    # its prime powers p^a, both recorded as the prime powers are
    # multiplied in.  Since p^a <= 2^(a (p - 1)), every such s is at most
    # 2^(k-1) and its primes are at most k.
    factors: dict[int, tuple[int, ...]] = {1: ()}
    weight = {1: 0}
    visited = 0
    for p in range(2, k + 1):
        if prime_factors(p) == [p]:
            for s, primes in list(factors.items()):
                visited += 1
                if visited % 1024 == 0:
                    check()
                primes += (p,)
                w = weight[s] + p - 1
                while w < k:
                    s *= p
                    weight[s] = w
                    factors[s] = primes
                    w += p - 1
    # the gcd divides every modulus, and for gcd 1 a prime-power modulus
    # would put its prime into the gcd (see EcsSearchConfig)
    values = sorted(
        n
        for n, primes in factors.items()
        if n >= 2
        and (max_mod is None or n <= max_mod)
        and (want_gcd is None or (len(primes) >= 2 if want_gcd == 1 else n % want_gcd == 0))
    )
    if not values:
        return
    n_max = values[-1]  # the largest candidate bounds every modulus
    index = {n: i for i, n in enumerate(values)}
    # divides[p]: bitset of the indices of the values divisible by p, read
    # from a string of binary digits (setting its bits one by one in an int
    # would copy the int each time, quadratic in the number of values)
    digits: dict[int, bytearray] = {}
    for i, n in enumerate(values):
        if i % 1024 == 1023:
            check()
        for p in factors[n]:
            if p not in digits:
                digits[p] = bytearray(b"0") * len(values)
            digits[p][i] = ord("1")
    divides = {p: int(d[::-1], 2) for p, d in digits.items()}
    sharing_memo: dict[tuple[int, ...], int] = {}

    def sharing(n: int) -> int:
        """Bitset of the indices of the values not coprime to n."""
        primes = factors[n]
        got = sharing_memo.get(primes)
        if got is None:
            got = 0
            for p in primes:
                got |= divides[p]
            sharing_memo[primes] = got
        return got

    # Per-prime stratum state.  Within each residue j mod p the p-divisible
    # classes of an exact cover have density exactly R_p = 1 - S'_p, with
    # S'_p the density on moduli prime to p, so the largest term p/n over
    # chosen p-divisible n, M_p, obeys M_p <= 1 - S'_p already for every
    # prefix (S'_p only grows).  With the remaining budget r = 1 - (chosen
    # density) and T_p the chosen density on p-divisible moduli this reads
    # M_p - T_p <= r.  Moduli come nondecreasing, so M_p = p/n for the first
    # p-divisible n, and the slack M_p - T_p changes only when p divides the
    # new modulus.  slack[p] = (a, b) holds it as a/b, where b is a multiple
    # of every chosen p-divisible modulus.
    slack: dict[int, tuple[int, int]] = {}

    def strata_partition_ok(moduli: list[int]) -> bool:
        """Exact per-prime feasibility: for each prime p, the terms p/n over
        p-divisible moduli must split into p groups, one per residue class
        mod p, each summing exactly R_p = 1 - sum of 1/n over the rest.
        Everything is scaled by the lcm of the moduli.  The largest prime
        goes first: its few terms rarely split into its many groups, so a
        failing leaf fails fast (at k = 14, gcd 1, the bin packing visits
        177k nodes this way against 576k from the smallest prime)."""
        period = lcm(*moduli)
        primes: set[int] = set()
        for n in moduli:
            primes.update(factors[n])
        for p in sorted(primes, reverse=True):
            terms: list[int] = []
            other = 0
            for n in moduli:
                if n % p == 0:
                    terms.append(p * (period // n))
                else:
                    other += period // n
            if not _splits_into_equal_parts(terms, p, period - other):
                return False
        return True

    acc: list[int] = []

    def rec(num: int, den: int, remaining: int, lo_idx: int, allowed: int, period: int, w: int):
        # budget num/den > 0 is kept in lowest terms; allowed is the bitset
        # of the values sharing a prime with every chosen modulus; period is
        # the lcm of the chosen moduli and w its weight.  The weight of
        # lcm(period, n) is w + weight[n / gcd(period, n)], since that
        # quotient holds exactly the prime powers that n adds to the lcm.
        if remaining == 2:
            # the final two moduli both equal the overall largest value v:
            # a strictly larger last modulus would be divisibility-maximal
            # with multiplicity one, an impossible vanishing sum.  The stratum
            # bound needs no update here: the exact partition check implies it.
            if (2 * den) % num == 0:
                v = 2 * den // num
                i = index.get(v)
                # (acc is empty only at the root of a size-2 search)
                if (
                    (not acc or v >= acc[-1])
                    and i is not None
                    and allowed >> i & 1
                    and w + weight[v // gcd(period, v)] < k
                ):
                    out = acc + [v, v]
                    # the system gcd is the gcd of its moduli; that test is
                    # the cheaper of the two, so it runs first
                    if (want_gcd is None or gcd(*out) == want_gcd) and strata_partition_ok(out):
                        yield tuple(out)
            return
        rem1 = remaining - 1
        # the rest num/den - 1/n must be positive, at most rem1/n and at
        # least rem1/n_max; the last bound holds iff n * top >= den * n_max
        top = num * n_max - den * rem1
        if top <= 0:
            return
        n_lo = max(den // num + 1, -(-(den * n_max) // top))
        n_hi = min(n_max, (remaining * den) // num)
        start = bisect_left(values, n_lo, lo_idx)
        stop = bisect_right(values, n_hi, start)
        if start >= stop:
            return
        candidates = allowed & ((1 << stop) - 1)
        # A modulus n prime to p leaves the slack of p as it is, and the
        # bound slack <= num/den - 1/n holds iff n * (num*b - a*den) >= den*b:
        # every n below that threshold must be divisible by p.  (The room
        # num*b - a*den is never negative: this node is within every bound.)
        for p, (a, b) in slack.items():
            room = num * b - a * den
            if room == 0:
                candidates &= divides[p]
            else:
                i = bisect_left(values, -(-(den * b) // room), start, stop)
                if i > start:
                    candidates &= divides[p] | -1 << i
        candidates >>= start
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            idx = start + low.bit_length() - 1
            n = values[idx]
            fresh = n // gcd(period, n)
            if w + weight[fresh] >= k:
                continue  # Simpson's inequality (see EcsSearchConfig)
            # a new prime p of n starts at slack (p - 1)/n, within the new
            # budget num/den - 1/n iff p <= n * num/den; a known prime's
            # slack drops by 1/n, as the budget does, so it stays within
            for p in factors[n]:
                if p not in slack and n * num < p * den:
                    break
            else:
                changed = []
                for p in factors[n]:
                    old = slack.get(p)
                    if old is None:
                        new = (p - 1, n)
                    else:
                        a, b = old
                        if b % n:
                            scale = n // gcd(b, n)
                            a *= scale
                            b *= scale
                        new = (a - b // n, b)
                    slack[p] = new
                    changed.append((p, old))
                rnum = num * n - den
                rden = den * n
                g = gcd(rnum, rden)
                acc.append(n)
                tick()
                yield from rec(
                    rnum // g, rden // g, rem1, idx, allowed & sharing(n),
                    period * fresh, w + weight[fresh],
                )
                acc.pop()
                for p, old in changed:
                    if old is None:
                        del slack[p]
                    else:
                        slack[p] = old

    # from the empty prefix, the bounds above give the first modulus its
    # rules: n <= k, and (n - 1) * n_max >= n * (k - 1)
    yield from rec(1, 1, k, 0, (1 << len(values)) - 1, 1, 0)


def _splits_into_equal_parts(items: list[int], parts: int, target: int) -> bool:
    """Can the integers in items be partitioned into `parts` groups each
    summing to target?

    Small exact bin packing (at most as many items as the system has
    classes); bins with equal remaining capacity are interchangeable, so
    only distinct capacities are tried for each item.
    """
    if target < 0 or sum(items) != parts * target:
        return False
    if any(it > target for it in items):
        return False
    items = sorted(items, reverse=True)
    bins = [target] * parts

    def place(i: int) -> bool:
        if i == len(items):
            return True
        item = items[i]
        tried = set()
        for b in range(parts):
            cap = bins[b]
            if cap >= item and cap not in tried:
                tried.add(cap)
                bins[b] = cap - item
                if place(i + 1):
                    bins[b] = cap
                    return True
                bins[b] = cap
        return False

    return place(0)


def _root(counts: dict[int, int]) -> int:
    """The root of a modulus multiset with multiplicities counts: the n with
    the largest n / c_n (the larger n on a tie), since by translation a
    share c_n / n of the covers contain 0 mod n."""
    return max(counts, key=lambda n: (Fraction(n, counts[n]), n))


def _assign_offsets(moduli: tuple[int, ...], tick) -> Iterator[tuple[Flat, int]]:
    """The rooted covers of the given modulus multiset: every exact cover
    that contains 0 mod n, for the root n, exactly once, with its number
    n - b of translates (see count_ecs), b its largest offset of modulus n.

    An exact cover with multiplicities on Z/L, L the lcm of the moduli:
    the items are the points of Z/L, the options are the classes a mod n,
    and each modulus n is used exactly as often as it occurs in the
    multiset.  Every node branches over the live options of the uncovered
    point that has the fewest (minimum remaining values); an option is
    live when all L/n points of its class are still uncovered.  A point
    with no live option ends the branch and a point with one forces it.
    Each point lies in exactly one class of an exact cover, so distinct
    branches lead to distinct solutions and every solution is reached
    once.  The uncovered points are the bits of a Python int; since the
    densities sum to one, they run out exactly when the moduli do.  The
    root is placed before the search starts, as one use of its modulus.
    """
    counts: dict[int, int] = {}
    for n in moduli:
        counts[n] = counts.get(n, 0) + 1
    values = sorted(counts)
    root = _root(counts)
    period = 1
    for n in values:
        period = period * n // gcd(period, n)
    # the class 0 mod n on Z/L: bits 0, n, 2n, ... (a geometric series)
    comb = {n: ((1 << period) - 1) // ((1 << n) - 1) for n in values}
    chosen = [(root, 0)]
    counts[root] -= 1

    def live_offsets(free: int, n: int) -> int:
        """Bit a (a < n) set iff every point of a mod n is in free."""
        q = period // n
        span = 1  # bit a of free now ANDs the points a + i*n, i < span
        while 2 * span <= q:
            free &= free >> (span * n)
            span *= 2
        # two overlapping windows of span terms cover all q of them
        return free & (free >> ((q - span) * n)) & ((1 << n) - 1)

    def rec(free: int) -> Iterator[tuple[Flat, int]]:
        tick()
        if not free:
            yield tuple(sorted(chosen)), root - max(a for n, a in chosen if n == root)
            return
        live = {n: live_offsets(free, n) for n in values if counts[n]}
        # at_least[c]: the uncovered points with at least c live options
        at_least = [free] + [0] * len(live)
        for n, offsets in live.items():
            tiled = offsets * comb[n]  # the live classes of n, as points
            for c in range(len(live), 0, -1):
                at_least[c] |= at_least[c - 1] & tiled
        at_least.append(0)
        for c in range(len(live) + 1):
            fewest = at_least[c] & ~at_least[c + 1]
            if fewest:
                break
        if c == 0:
            return
        x = (fewest & -fewest).bit_length() - 1
        for n, offsets in live.items():
            a = x % n
            if not offsets >> a & 1:
                continue
            counts[n] -= 1
            chosen.append((n, a))
            yield from rec(free & ~(comb[n] << a))
            chosen.pop()
            counts[n] += 1

    yield from rec(((1 << period) - 1) & ~comb[root])


def _translates(rooted: Flat, span: int) -> Iterator[Flat]:
    """The translates rooted + t for 0 <= t < span, each offset reduced mod
    its modulus (see count_ecs)."""
    for t in range(span):
        yield tuple(sorted((n, (a + t) % n) for n, a in rooted))


class _Search:
    """The deadline and the counters of one exact-cover search of size k.

    Each phase counts its search nodes and checks the deadline every 1024
    of them; multisets_checked() also checks it before it hands over
    each multiset.  found is the number of covers the caller has finished
    with, reported in the abort message."""

    def __init__(self, k: int, cfg: EcsSearchConfig):
        _check_size_gcd(k, cfg.gcd)
        self.k = k
        self.cfg = cfg
        self.deadline = None
        if cfg.budget_seconds is not None:
            self.deadline = time.monotonic() + cfg.budget_seconds
        self.nodes = [0, 0]  # search nodes of phase one and phase two
        self.multisets = self.found = 0

    def check_deadline(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SearchBudgetExceeded(
                f"search for k={self.k} exceeded {self.cfg.budget_seconds}s after "
                f"{self.nodes[1]} nodes and {self.found} solutions "
                f"(phase one: {self.nodes[0]} nodes and {self.multisets} multisets)"
            )

    def ticker(self, phase: int):
        nodes = self.nodes
        check_deadline = self.check_deadline

        def tick():
            nodes[phase] += 1
            if nodes[phase] % 1024 == 0:
                check_deadline()

        return tick

    def multisets_checked(self) -> Iterator[tuple[int, ...]]:
        """Phase one within the config's bounds, with the deadline checked
        before each multiset."""
        k, cfg = self.k, self.cfg
        multisets = _modulus_multisets(
            k, cfg.max_modulus, cfg.gcd, self.ticker(0), self.check_deadline
        )
        for moduli in multisets:
            self.multisets += 1
            # one phase-2 node can cost more than a whole budget: its masks
            # are ints of lcm bits, and the lcm of a large multiset is huge
            self.check_deadline()
            yield moduli


def _ecs_stream(k: int, cfg: EcsSearchConfig) -> Iterator[Flat]:
    """Both phases, multiset by multiset: every exact cover of size k within
    the config's bounds, as flat tuples: the translates of each rooted
    cover in turn.  One rooted cover can have up to 2^(k-1) translates, so
    the deadline is also checked every 1024 emitted covers."""
    search = _Search(k, cfg)
    tick = search.ticker(1)
    for moduli in search.multisets_checked():
        for rooted, span in _assign_offsets(moduli, tick):
            for flat in _translates(rooted, span):
                search.found += 1
                yield flat
                if search.found % 1024 == 0:
                    search.check_deadline()


def enumerate_ecs(
    k: int, config: EcsSearchConfig | None = None, *, ordered: bool = True
) -> Iterator[CoveringSystem]:
    """Every exact covering system of size k, exactly once.

    Two phases: enumerate the feasible modulus multisets (nondecreasing,
    exact density budget, per-step bounds ceil(1/r) <= n <= floor(c/r)),
    then, within each multiset, solve the exact cover of Z/lcm by its
    residue classes with the root class 0 mod n placed first, branching on
    the point with the fewest classes that can still cover it, and emit
    the translates of each rooted cover (see count_ecs).  With
    ordered=True the stream is materialized and emitted in canonical
    lexicographic order; ordered=False streams multiset by multiset,
    holding O(k) search state plus one class object per distinct class
    emitted so far (see _to_systems).  May raise SearchBudgetExceeded
    when a time budget is configured; its message gives the search nodes
    visited and the solutions found by then, and the nodes and multisets
    of phase one.
    """
    flats: Iterable[Flat] = _ecs_stream(k, config or EcsSearchConfig())
    if ordered:
        flats = sorted(flats)
    yield from _to_systems(flats)


def count_ecs(k: int, config: EcsSearchConfig | None = None) -> int:
    """Number of exact covering systems of size k (honors config bounds),
    counted multiset by multiset from the rooted covers.

    Translation lemma.  Fix a modulus multiset and its root n, and call a
    cover rooted when it contains 0 mod n; for a rooted cover R let b(R) be
    its largest offset of modulus n.  Translation by t (a mod m to
    a + t mod m) maps the covers of the multiset to covers of it, and
    (R, t) -> R + t, for 0 <= t < n - b(R), is a bijection from those pairs
    onto all covers.  One-to-one: the offsets of modulus n in R + t are the
    a + t < n for the offsets a of R, so t is the least of them and
    R = (R + t) - t.  Onto: if a is the least offset of modulus n in a
    cover C, then R = C - a is rooted, with offsets a' - a <= n - 1 - a of
    modulus n, so a < n - b(R) and C = R + a.  Hence the covers number the
    sum of n - b(R) over the rooted covers, which phase two finds with
    0 mod n placed first.

    May raise SearchBudgetExceeded like enumerate_ecs; there the solutions
    in its message are the covers counted from the multisets finished by
    then.
    """
    search = _Search(k, config or EcsSearchConfig())
    tick = search.ticker(1)
    for moduli in search.multisets_checked():
        search.found += sum(span for _, span in _assign_offsets(moduli, tick))
    return search.found
