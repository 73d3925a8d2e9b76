"""Shared fixtures: published table values and reference systems."""

import os
from math import gcd

import pytest

from necs import congruence as cg

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


def sys_of(pairs) -> cg.CoveringSystem:
    return cg.system(*pairs)


def brute_force_exact(pairs, window=None) -> bool:
    """Independent exactness oracle: check each integer in one full period
    is covered exactly once."""
    from math import lcm

    period = 1
    for _, n in pairs:
        period = lcm(period, n)
    window = window or period
    for x in range(window):
        hits = sum(1 for a, n in pairs if x % n == a)
        if hits != 1:
            return False
    return True


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
