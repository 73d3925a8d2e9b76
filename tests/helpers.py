"""Shared fixtures: published table values and reference systems."""

import os
from math import gcd, lcm

import pytest

from necs import congruence as cg
from necs import series as se
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
