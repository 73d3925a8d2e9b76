"""Shared fixtures: published table values and reference systems."""

import os
from bisect import bisect_left
from fractions import Fraction
from itertools import product, starmap
from math import comb, factorial, gcd, lcm

import pytest

from necs import asymptotics as asym
from necs import congruence as cg
from necs import enumeration as en
from necs import series as se
from necs import trees as tr
from necs.counting import OVERFLOW

slow = pytest.mark.skipif(
    os.environ.get("NECS_SLOW") != "1",
    reason="slow suite; set NECS_SLOW=1 to run",
)

# exact covering systems of size <= 4 (all of them are natural)
TABLE1 = {
    1: [[(0, 1)]],
    2: [[(0, 2), (1, 2)]],
    3: [
        [(0, 3), (1, 3), (2, 3)],
        [(0, 2), (1, 4), (3, 4)],
        [(1, 2), (0, 4), (2, 4)],
    ],
    4: [
        [(0, 4), (1, 4), (2, 4), (3, 4)],
        [(0, 2), (1, 6), (3, 6), (5, 6)],
        [(0, 3), (1, 3), (2, 6), (5, 6)],
        [(0, 3), (2, 3), (1, 6), (4, 6)],
        [(1, 2), (0, 6), (2, 6), (4, 6)],
        [(1, 3), (2, 3), (0, 6), (3, 6)],
        [(0, 2), (1, 4), (3, 8), (7, 8)],
        [(0, 2), (3, 4), (1, 8), (5, 8)],
        [(1, 2), (0, 4), (2, 8), (6, 8)],
        [(1, 2), (2, 4), (0, 8), (4, 8)],
    ],
}

# counts a(k, m) of natural systems by size and gcd, for k <= 13
TABLE2 = {
    1: [1],
    2: [0, 1],
    3: [0, 2, 1],
    4: [0, 6, 3, 1],
    5: [0, 22, 12, 4, 1],
    6: [0, 88, 48, 18, 5, 1],
    7: [0, 372, 207, 80, 25, 6, 1],
    8: [0, 1636, 918, 366, 120, 33, 7, 1],
    9: [0, 7406, 4188, 1700, 580, 170, 42, 8, 1],
    10: [0, 34276, 19488, 8026, 2810, 864, 231, 52, 9, 1],
    11: [0, 161436, 92199, 38384, 13710, 4356, 1232, 304, 63, 10, 1],
    12: [0, 771238, 442056, 185644, 67330, 21936, 6454, 1698, 390, 75, 11, 1],
    13: [0, 3728168, 2143329, 906472, 332825, 110562, 33523, 9232, 2277, 490, 88, 12, 1],
}

#: counts of natural systems by size, k = 1..13 (row sums of TABLE2)
A_COUNTS = [None] + [sum(row) for row in TABLE2.values()]

#: shift-equivalence class counts s(k), k = 1..12
SHIFT_CLASS_COUNTS = [None, 1, 1, 2, 4, 10, 26, 75, 226, 718, 2368, 8083, 28367]

#: s(25), from the period recurrence (the stream cannot reach it)
SHIFT_CLASS_COUNT_25 = 1_583_852_579_045

#: distinct-lcm counts t(k), k = 1..12
LCM_VALUE_COUNTS = [None, 1, 1, 2, 3, 6, 8, 15, 18, 31, 35, 56, 62]

#: Schroder numbers (trees with no unary vertex, by leaf count), k = 1..10
SCHROEDER = [None, 1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049]

# A size-13 exact covering system with gcd 1; such systems exist only from
# size 13 on and are never natural (a nontrivial natural system has gcd > 1).
NON_NATURAL_13 = [
    (0, 6), (2, 6),
    (1, 10), (3, 10), (5, 10), (7, 10),
    (4, 15),
    (9, 30), (10, 30), (16, 30), (22, 30), (28, 30), (29, 30),
]

ERDOS_COVER = [(0, 2), (0, 3), (1, 4), (3, 8), (7, 12), (23, 24)]

# Not exact, with moduli far beyond the number of classes: a lone prime
# modulus, a Mersenne prime too large to factor by trial division, and a
# halving that leaves a lone class of modulus 10^9 + 7 one level down.
HUGE_MODULUS_NOT_EXACT = [
    [(0, 1_000_000_007)],
    [(0, 2**61 - 1)],
    [(0, 2), (1, 2_000_000_014)],
]


def sys_of(pairs) -> cg.CoveringSystem:
    return cg.system(*pairs)


def json_pairs(c: cg.CoveringSystem) -> list[list[int]]:
    """The [offset, modulus] pairs that the JSON format lists for a system,
    for one json.dumps of a whole listing: the listing writer's reference."""
    return [[a, n] for n, a in c.classes]


def brute_force_exact(pairs, window=None) -> bool:
    """Independent exactness oracle: check each integer in one full period
    is covered exactly once."""
    period = 1
    for _, n in pairs:
        period = lcm(period, n)
    window = window or period
    for x in range(window):
        hits = sum(1 for a, n in pairs if x % n == a)
        if hits != 1:
            return False
    return True


def naturality_witness_contracting(c):
    """Reference congruence.naturality_witness: contract every piece by the
    smallest prime of its gcd, rewriting each of its classes at every level
    (O(k * depth) on a split chain), and at the first piece of gcd 1 run
    is_exact on the whole system: None if it is exact, NotExactCoverError
    if not."""
    arities = []  # preorder: 0 for a leaf, else the contraction modulus
    todo = [list(c.classes)]
    while todo:
        piece = todo.pop()
        if piece == [(1, 0)]:
            arities.append(0)
            continue
        g = 0
        for m, _ in piece:
            g = gcd(g, m)
        # g divides each modulus, so the density is at most len(piece) / g
        if len(piece) < g or g == 1 and not cg.is_exact(c):
            raise cg.NotExactCoverError("input does not partition the integers")
        if g == 1:
            return None
        p = se.prime_factors(g)[0]
        arities.append(p)
        buckets = [[] for _ in range(p)]
        for m, a in piece:
            buckets[a % p].append((m // p, a // p))
        if not all(buckets):
            raise cg.NotExactCoverError("some offset residue mod p is empty")
        todo.extend(reversed(buckets))
    built = []  # finished subtrees; the first child on top
    for p in reversed(arities):
        if p == 0:
            built.append(tr.LEAF)
        else:
            kids = tuple(reversed(built[-p:]))
            del built[-p:]
            built.append(tr.Tree(kids))
    return built[0]


def shift_class_counts_stream(k):
    """Reference s(k, m) for every gcd m, as {m: count}: stream every
    natural system of size k and count those that are their own least
    translate (translation preserves naturality, so one per class)."""
    counts = {}
    for s in en._least_translates(k):
        m = gcd(*(n for n, _ in s.classes))
        counts[m] = counts.get(m, 0) + 1
    return counts


def least_period(flat):
    """The least t > 0 with flat + t = flat, by trying the divisors of the
    lcm in increasing order."""
    period = lcm(*(n for n, _ in flat))
    for t in range(1, period + 1):
        if period % t == 0 and tuple(sorted((n, (a + t) % n) for n, a in flat)) == flat:
            return t


def canonical_shift_scan(c):
    """Reference least translate: full scan of every translate in [0, lcm),
    returning the least translate of c and the least t giving it."""
    best, best_t = c, 0
    for t in range(1, cg.lcm_of(c)):
        cand = cg.shift(c, t)
        if cand.key() < best.key():
            best, best_t = cand, t
    return best, best_t


def assign_offsets_smallest_uncovered(moduli, tick=lambda: None):
    """Reference phase two of the exact-cover search: all exact covers with
    the given modulus multiset, as sorted ((modulus, offset), ...) tuples.

    The class covering the smallest yet-uncovered integer x is unique in
    any exact cover, so branching over the distinct remaining modulus
    values (offset forced to x mod n) visits every solution along exactly
    one path.  Disjointness (offsets distinct mod pairwise modulus gcds)
    plus the exact total density guarantee coverage at the end.
    """
    counts = {}
    for n in moduli:
        counts[n] = counts.get(n, 0) + 1
    values = sorted(counts)
    chosen = []

    def smallest_uncovered(start):
        x = start
        while True:
            if all((x - a) % n != 0 for n, a in chosen):
                return x
            x += 1

    def rec(remaining, x_from):
        tick()
        if remaining == 0:
            yield tuple(sorted(chosen))
            return
        x = smallest_uncovered(x_from)
        for n in values:
            if counts[n] == 0:
                continue
            a = x % n
            if any((a - aj) % gcd(n, nj) == 0 for nj, aj in chosen):
                continue
            counts[n] -= 1
            chosen.append((n, a))
            yield from rec(remaining - 1, x + 1)
            chosen.pop()
            counts[n] += 1

    yield from rec(len(moduli), 0)


def revert_power_table(s, n):
    """Reference reversion: r with s(r(x)) = x through order n, for s(0) = 0
    and s_1 = +-1, solved coefficient by coefficient in O(n^3).

    The order-k equation in s(r(x)) = x is linear in r_k with coefficient
    s_1, everything else already known, via the table
    q[j][k] = [x^k] r(x)^j of the part of r known so far.
    """
    s1 = s.coeffs[1]
    r = [0] * (n + 1)
    r[1] = s1  # s1 * r1 = 1 and s1 = +-1
    # q[j][k] only involves r_1..r_(k-j+1), so filling column k before
    # solving r_k is sound
    q = [[0] * (n + 1) for _ in range(n + 1)]
    q[0][0] = 1
    q[1][1] = r[1]
    for k in range(2, n + 1):
        for j in range(2, k + 1):
            acc = 0
            qprev = q[j - 1]
            for i in range(1, k - j + 2):
                ri = r[i]
                if ri:
                    acc += ri * qprev[k - i]
            q[j][k] = acc
        acc = 0
        for j in range(2, k + 1):
            sj = s.coeffs[j]
            if sj:
                acc += sj * q[j][k]
        r[k] = -s1 * acc  # divide by s1 = multiply, since s1^2 = 1
        q[1][k] = r[k]
    return se.IntSeries(r)


def count_size_gcd_rows(max_size):
    """Reference (size, gcd) counts: entries[(k, m)] = a(k, m), rebuilding
    each W_e and each power W_e^n from scratch for every row k.

    a(k, n) = sum_e mu(e) [x^k] W_e^n with W_e = sum_j (sum_{e|m} a(j, m)) x^j,
    base cases a(k, k) = 1 and a(k, 1) = [k = 1]; zeros are stored.
    """
    mu = se.mobius_upto(max_size)
    a = {}
    for k in range(1, max_size + 1):
        a[k, 1] = 1 if k == 1 else 0
        if k >= 2:
            a[k, k] = 1
        for n in range(2, k):
            total = 0
            for e in range(1, k // n + 1):
                if mu[e] == 0:
                    continue
                # W_e up to degree k-1; the degree-k coefficient of W_e^n
                # with n >= 2 never touches the (unknown) degree-k entry.
                w = [0] * k
                for j in range(e, k):
                    w[j] = sum(a.get((j, m), 0) for m in range(e, j + 1, e))
                total += mu[e] * _power_coeff(w, n, k)
            a[k, n] = total
    return a


def _power_coeff(w, n, k):
    """[x^k] of (sum w[j] x^j)^n, by repeated truncated convolution."""
    cur = w[: k + 1] + [0] * (k + 1 - len(w))
    for _ in range(n - 1):
        nxt = [0] * (k + 1)
        for i, wi in enumerate(w):
            if wi == 0:
                continue
            for j in range(k + 1 - i):
                cj = cur[j]
                if cj:
                    nxt[i + j] += wi * cj
        cur = nxt
    return cur[k]


def count_size_gcd_lcm_rows(max_size, lcm_max=None):
    """Reference (size, gcd, lcm) counts, nonzero entries[(k, m, l)] only,
    by the same from-scratch row loop over lcm-indexed count vectors; the
    lcm key OVERFLOW collects counts whose lcm exceeds lcm_max."""
    def cap(l):
        return OVERFLOW if lcm_max is not None and l > lcm_max else l

    mu = se.mobius_upto(max_size)
    # by_gcd[(k, m)] maps lcm value (or OVERFLOW) to its count
    by_gcd = {(1, 1): {1: 1}}
    for k in range(2, max_size + 1):
        by_gcd[k, k] = {cap(k): 1}
        for n in range(2, k):
            acc = {}
            for e in range(1, k // n + 1):
                if mu[e] == 0:
                    continue
                w = [dict() for _ in range(k)]
                for j in range(e, k):
                    vec = w[j]
                    for m in range(e, j + 1, e):
                        for l, v in by_gcd.get((j, m), {}).items():
                            vec[l] = vec.get(l, 0) + v
                for l, v in _lcm_power_coeff(w, n, k).items():
                    acc[l] = acc.get(l, 0) + mu[e] * v
            vec = {}
            for l, v in acc.items():
                if v:
                    full_l = OVERFLOW if l == OVERFLOW else cap(n * l)
                    vec[full_l] = vec.get(full_l, 0) + v
            if vec:
                by_gcd[k, n] = vec
    return {(k, m, l): v for (k, m), vec in by_gcd.items() for l, v in vec.items() if v}


def _lcm_power_coeff(w, n, k):
    """Degree-k entry of the n-th power where coefficients are lcm-indexed
    count vectors and coefficient multiplication lcm-convolves."""
    cur = [dict(vec) for vec in w] + [dict() for _ in range(k + 1 - len(w))]
    for _ in range(n - 1):
        nxt = [dict() for _ in range(k + 1)]
        for i, vec in enumerate(w):
            if not vec:
                continue
            for j in range(k + 1 - i):
                cv = cur[j]
                if not cv:
                    continue
                out = nxt[i + j]
                for l1, v1 in vec.items():
                    for l2, v2 in cv.items():
                        l = OVERFLOW if OVERFLOW in (l1, l2) else lcm(l1, l2)
                        out[l] = out.get(l, 0) + v1 * v2
        cur = nxt
    return cur[k]


def distinct_lcm_values_reachability(k):
    """Reference lcm values of the natural systems of size k, by reachability
    over (size, lcm) pairs, without counts.

    A system of size > 1 contracts by any prime p dividing its gcd into p
    smaller systems; conversely any p systems with sizes summing to k
    assemble into one of size k whose lcm is p times the lcm of the piece
    lcms.  So attainable (size, lcm) pairs are generated by t-fold
    combinations of smaller pairs, read off at prime t.
    """
    attained = {1: {1}}  # size -> attainable lcms
    for size in range(2, k + 1):
        pieces = [(s, l) for s, ls in attained.items() for l in ls]
        primes = [t for t in range(2, size + 1) if se.prime_factors(t) == [t]]
        found = set()
        # combos = t-fold combinations (total size, lcm of lcms); prefix work
        # is shared across the different primes t.
        combos = {(s, l) for s, l in pieces if s < size}
        for t in range(2, primes[-1] + 1):
            nxt = set()
            is_final = t in primes
            for s, l in combos:
                for sj, lj in pieces:
                    s2 = s + sj
                    if s2 > size:
                        continue
                    l2 = lcm(l, lj)
                    if s2 == size:
                        if is_final:
                            found.add(t * l2)
                    else:
                        nxt.add((s2, l2))
            combos = nxt
        attained[size] = found
    return attained[k]


def tree_count(k):
    """Reference number of trees with k leaves (Schroder number), by direct
    recursion over root up-degrees and child leaf-count compositions."""
    memo = {1: 1}

    def count(m):
        if m in memo:
            return memo[m]
        total = 0
        for r in range(2, m + 1):
            for comp in tr._compositions_colex(m, r):
                prod = 1
                for c in comp:
                    prod *= count(c)
                total += prod
        memo[m] = total
        return total

    return count(k)


def necs_stream_recursive(k, m=None):
    """Reference stream of the natural systems of size k and gcd m (every
    gcd if m is None), as flat (modulus, offset) tuples in the order of
    enumerate_necs(ordered=False).  No memo and no count table: the gcd
    tuples of the pieces are all of 1..j per piece of size j, kept when
    coprime, every piece list is regenerated for each combination of the
    pieces before it, and each piece is <idx, n>-expanded in the innermost
    call."""
    if m is None:
        for g in range(1, k + 1):
            yield from necs_stream_recursive(k, g)
        return
    if m == 1:
        if k == 1:
            yield ((1, 0),)
        return
    for comp in tr._compositions_colex(k, m):
        for gcds in product(*(range(1, j + 1) for j in comp)):
            if gcd(*gcds) != 1:
                continue

            def rec(i, pieces):
                if i == m:
                    out = []
                    for idx, piece in enumerate(pieces):
                        out.extend((m * pn, idx + m * pa) for pn, pa in piece)
                    yield tuple(sorted(out))
                    return
                for piece in necs_stream_recursive(comp[i], gcds[i]):
                    yield from rec(i + 1, pieces + [piece])

            yield from rec(0, [])


def system_of_flat(flat):
    """Reference builder: one CoveringSystem from a flat ((modulus, offset),
    ...) tuple, every class validated afresh (enumeration's builder shares
    one validated class per distinct pair of a stream)."""
    return cg.CoveringSystem(starmap(cg.ResidueClass, flat))


def format_tree_walk(t):
    """Reference tree format: walks every vertex, iteratively, and reads no
    stored text."""
    out = []
    todo = [t]  # subtrees not yet visited, and closing text
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.is_leaf():
            out.append("()")
        else:
            out.append(f"({item.up_degree}")
            todo.append(")")
            for child in reversed(item.children):
                todo.extend((child, " "))
    return "".join(out)


def enumerate_trees_recursive(k):
    """Reference tree enumeration without a memo: every child list is
    regenerated for each combination of the children before it, in the
    order of trees.enumerate_trees."""
    if k == 1:
        yield tr.LEAF
        return
    for r in range(2, k + 1):
        for comp in tr._compositions_colex(k, r):

            def rec(i, acc):
                if i == len(comp):
                    yield tr.Tree(acc)
                    return
                for child in enumerate_trees_recursive(comp[i]):
                    yield from rec(i + 1, acc + (child,))

            yield from rec(0, ())


def modulus_multisets_fractions(k, max_mod, want_gcd):
    """Reference phase one of the exact-cover search, in Fraction arithmetic:
    nondecreasing modulus tuples (n_1 <= ... <= n_k) with sum 1/n_i = 1,
    each at most max_mod and with gcd want_gcd (any gcd if None), that
    could be the moduli of an exact cover, in the order and with the
    pruning rules of the integer search enumeration._modulus_multisets.

    The gcd divides every modulus; for gcd 1 every modulus has two distinct
    primes, since a prime-power modulus puts its prime into every other
    modulus (disjoint classes need non-coprime moduli), hence into the gcd.
    """

    def admissible(n):
        if want_gcd is None:
            return True
        if want_gcd == 1:
            return len(se.prime_factors(n)) >= 2
        return n % want_gcd == 0

    for moduli in _modulus_multisets_fractions_any_gcd(k, max_mod, admissible):
        g = 0
        for n in moduli:
            g = gcd(g, n)
        if want_gcd is None or g == want_gcd:
            yield moduli


def lcm_weight(moduli):
    """Simpson's weight of the lcm of the moduli: the sum of a (p - 1) over
    the prime powers p^a that exactly divide it, found by trial division.
    An exact cover of size k has an lcm of weight at most k - 1."""
    rest = lcm(*moduli)
    total = 0
    p = 2
    while p * p <= rest:
        while rest % p == 0:
            rest //= p
            total += p - 1
        p += 1
    if rest > 1:
        total += rest - 1
    return total


def _vanishing_sum_multiplicities_ok(moduli):
    """For each divisibility-maximal modulus value v, its multiplicity t is
    a nonnegative combination of the primes of v: the classes of modulus v
    give a vanishing sum of t v-th roots of unity at a primitive v-th root."""
    counts = {n: moduli.count(n) for n in set(moduli)}
    for v, t in counts.items():
        if v == 1 or any(u != v and u % v == 0 for u in counts):
            continue
        sums = {0}
        for p in se.prime_factors(v):
            sums = {s + p * i for s in sums for i in range((t - s) // p + 1)}
        if t not in sums:
            return False
    return True


def _modulus_multisets_fractions_any_gcd(k, max_mod, admissible):
    """The reference search before the exact-gcd test at its leaves;
    admissible(n) says whether modulus n may be chosen at all.

    With moduli nondecreasing, a modulus chosen when c remain on budget r
    satisfies 1/n <= r <= c/n, so ceil(1/r) <= n <= floor(c/r) bounds
    every branch and the enumeration terminates.  Two further necessary
    conditions prune hard: moduli of disjoint classes are pairwise
    non-coprime, and the largest modulus of an exact cover occurs at
    least twice (at a primitive root of unity of the top modulus, the
    offsets of its classes form a vanishing sum, which needs at least two
    terms).
    """
    if k == 1:
        yield (1,)
        return
    if k == 2:
        if max_mod >= 2:
            yield (2, 2)
        return
    values = [n for n in range(2, max_mod + 1) if admissible(n)]
    admissible_set = set(values)
    factors = {n: se.prime_factors(n) for n in values}

    def compatible(n, distinct):
        for m in distinct:
            if gcd(n, m) == 1:
                return False
        return True

    # Per-prime stratum state: for p dividing some chosen modulus,
    # strata[p] = [S', M] with S' the chosen density on moduli not
    # divisible by p and M the largest p/n over chosen p-divisible n.
    # Within each residue j mod p the p-divisible classes of an exact
    # cover sum to exactly R_p = 1 - S'_final, so M <= 1 - S' must hold
    # already for the chosen prefix (S' only grows).
    strata = {}

    def push_strata(n, chosen_density):
        """Update stratum state for modulus n; None means infeasible
        (state already rolled back), else an undo token."""
        undo = []
        d = Fraction(1, n)
        fs = factors[n] if n in factors else se.prime_factors(n)
        ok = True
        for p in fs:
            entry = strata.get(p)
            if entry is None:
                # every earlier modulus missed p
                entry = [chosen_density, Fraction(0)]
                strata[p] = entry
                undo.append((p, None, None))
            term = Fraction(p, n)
            if term > entry[1]:
                undo.append((p, 1, entry[1]))
                entry[1] = term
            if entry[1] > 1 - entry[0]:
                ok = False
        if ok:
            fset = set(fs)
            for p, entry in strata.items():
                if p in fset:
                    continue
                undo.append((p, 0, entry[0]))
                entry[0] += d
                if entry[1] > 1 - entry[0]:
                    ok = False
        if not ok:
            pop_strata(undo)
            return None
        return undo

    def pop_strata(undo):
        for p, slot, old in reversed(undo):
            if slot is None:
                del strata[p]
            else:
                strata[p][slot] = old

    def strata_partition_ok(moduli):
        """Exact per-prime feasibility: for each prime p, the terms p/n over
        p-divisible moduli must split into p groups, one per residue class
        mod p, each summing exactly R_p = 1 - sum of 1/n over the rest."""
        primes: set[int] = set()
        for n in moduli:
            primes.update(factors[n] if n in factors else se.prime_factors(n))
        for p in primes:
            terms = []
            other = Fraction(0)
            for n in moduli:
                if n % p == 0:
                    terms.append(Fraction(p, n))
                else:
                    other += Fraction(1, n)
            if not _splits_into_equal_parts_fractions(terms, p, 1 - other):
                return False
        return True

    def rec(num, den, remaining, lo_idx, acc, distinct):
        # budget num/den > 0 is kept in lowest terms
        if remaining == 2:
            # the final two moduli both equal the overall largest value v:
            # a strictly larger last modulus would be divisibility-maximal
            # with multiplicity one, an impossible vanishing sum
            if (2 * den) % num == 0:
                v = 2 * den // num
                if (
                    v >= acc[-1]
                    and v <= max_mod
                    and v in admissible_set
                    and compatible(v, distinct)
                ):
                    out = acc + [v, v]
                    if _vanishing_sum_multiplicities_ok(out) and strata_partition_ok(out):
                        chosen_density = Fraction(den - num, den)
                        undo1 = push_strata(v, chosen_density)
                        if undo1 is not None:
                            undo2 = push_strata(v, chosen_density + Fraction(1, v))
                            if undo2 is not None:
                                yield tuple(out)
                                pop_strata(undo2)
                            pop_strata(undo1)
            return
        n_lo = -(-den // num)
        n_hi = min(max_mod, (remaining * den) // num)
        start = bisect_left(values, n_lo, lo_idx)
        rem1 = remaining - 1
        for idx in range(start, len(values)):
            n = values[idx]
            if n > n_hi:
                break
            if not compatible(n, distinct):
                continue
            # rest = num/den - 1/n, with bounds rem1/max_mod <= rest <= rem1/n
            rnum = num * n - den
            rden = den * n
            if rnum <= 0 or rnum * n > rden * rem1 or rnum * max_mod < rden * rem1:
                continue
            undo = push_strata(n, Fraction(den - num, den))
            if undo is None:
                continue
            g = gcd(rnum, rden)
            acc.append(n)
            fresh = n not in distinct
            if fresh:
                distinct.append(n)
            yield from rec(rnum // g, rden // g, rem1, idx, acc, distinct)
            if fresh:
                distinct.pop()
            acc.pop()
            pop_strata(undo)

    for idx, n in enumerate(values):
        if n > k:  # smallest modulus is at most k (densities average 1/k)
            break
        rnum, rden = n - 1, n
        if rnum * max_mod < rden * (k - 1):
            continue
        undo = push_strata(n, Fraction(0))
        if undo is None:
            continue
        g = gcd(rnum, rden)
        yield from rec(rnum // g, rden // g, k - 1, idx, [n], [n])
        pop_strata(undo)


def _splits_into_equal_parts_fractions(items, parts, target):
    """Can items be partitioned into `parts` groups each summing to target?

    Small exact bin packing (at most as many items as the system has
    classes); bins with equal remaining capacity are interchangeable, so
    only distinct capacities are tried for each item.
    """
    if target < 0 or sum(items) != parts * target:
        return False
    if any(it > target for it in items):
        return False
    # integer scaling keeps the bin arithmetic exact and hashable
    denom = 1
    for it in items + [target]:
        denom = denom * it.denominator // gcd(denom, it.denominator)
    scaled = sorted((int(it * denom) for it in items), reverse=True)
    goal = int(target * denom)
    bins = [goal] * parts

    def place(i):
        if i == len(scaled):
            return True
        item = scaled[i]
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


def gaps_decrease(report, k_from, k_to):
    """Do the gaps |ratio - target| of a ratio report strictly decrease
    over k_from <= k <= k_to?"""
    gaps = [row.gap for row in report.rows if k_from <= row.k <= k_to]
    return all(a > b for a, b in zip(gaps, gaps[1:]))


def tail_leibniz(d, n, r):
    """Reference for asymptotics._tail: the tail sum_{k>n} k(k-1)...(k-d+1)
    r^(k-d) in Fraction arithmetic, term by term from Leibniz on
    r^N / (1-r) with N = n + 1: d! sum_j C(N, d-j) r^(N-d+j) / (1-r)^(j+1)."""
    big_n = n + 1
    return factorial(d) * sum(
        comb(big_n, d - j) * r ** (big_n - d + j) / (1 - r) ** (j + 1)
        for j in range(max(0, d - big_n), d + 1)
    )


def pick_terms_linear(d, r_up, target):
    """Reference for asymptotics._pick_terms: scan n = 4, 12, 20, ... for
    the first tail bound of M^(d) at most target."""
    if r_up == 0:
        return max(2, d)
    n = 4
    while asym._tail(d, n, r_up) > target:
        n += 8
    return n


def identity_checks_exact(digits):
    """The identity battery with exact rational error bounds throughout.

    The same sums, sample points and truncation rule as
    `asymptotics.identity_checks`, run on `FixedReal` arithmetic with no
    rounding of the bounds: their denominators grow with every term
    (thousands of digits at 35 digits), so this is a test oracle only.
    Returns (name, point, residual bound) triples in the battery's order.
    """
    inner = digits + 6
    scale = inner + 8
    tau = asym.find_tau(inner + 4)
    sample = [("tau", asym.rescale(tau, scale))] + [
        (str(p), asym.from_fraction(p, scale)) for p in (Fraction(3, 10), Fraction(1, 2))
    ]
    target = Fraction(1, 10 ** (digits + 2))
    results = []
    for label, x in sample:
        r_up = asym._round_up(x.magnitude_bound())
        m_terms = asym._lambert_terms(r_up, target / 2)

        lam = asym.fx_neg(x)
        deriv = asym.from_fraction(-1, scale)
        gcdw = asym.from_fraction(-1, scale)
        x_pow = asym.from_fraction(1, scale)  # x^(m-1)
        for m in range(1, m_terms + 1):
            x_m = asym.fx_mul(x_pow, x, scale)
            lam = asym.fx_add(lam, asym.eval_M(x_m, inner))
            dterm = asym.fx_mul(
                asym.fx_mul(asym.from_fraction(m, scale), x_pow, scale),
                asym.eval_Mprime(x_m, inner),
                scale,
            )
            deriv = asym.fx_add(deriv, dterm)
            if label == "tau" and m >= 2:
                gcdw = asym.fx_add(gcdw, dterm)
            x_pow = x_m

        lam_tail, deriv_tail = asym._lambert_tails(m_terms, r_up)
        results.append(("lambert", label, lam.magnitude_bound() + lam_tail))
        results.append(("derivative-sum", label, deriv.magnitude_bound() + deriv_tail))
        if label == "tau":
            results.append(("gcd-weights", label, gcdw.magnitude_bound() + deriv_tail))
    return results
