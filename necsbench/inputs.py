"""Seeded inputs for the `recognize` workload, built without any `necs` code.

Every system is a list of (offset, modulus) pairs together with the exit
code `necs recognize` must return for it:

* 0 -- natural: the leaf labels of a random split tree (prime and
  composite arities, log-uniform size).
* 3 -- exact but not natural: the size-13 gcd-1 exact cover expanded into
  one class of a natural system whose first split has prime arity.
* 4 -- not exact: a natural system with one class dropped, or with one
  offset moved to a residue no other class of that modulus uses (so the
  file still parses: a duplicate class would be a parse error, exit 2).
* 0 as well, for a few deep binary split chains of more than 1,100
  classes.  The library's recursive recogniser hits Python's recursion
  limit on them, which the benchmark counts as failed operations.

All generation is iterative, so the deep chains cost nothing special here.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

#: A size-13 exact cover with gcd 1, copied from tests/helpers.py
#: (NON_NATURAL_13).  Exact covers with gcd 1 start at size 13 and are never
#: natural.
NON_NATURAL_13 = (
    (0, 6), (2, 6),
    (1, 10), (3, 10), (5, 10), (7, 10),
    (4, 15),
    (9, 30), (10, 30), (16, 30), (22, 30), (28, 30), (29, 30),
)

PRIME_SPLITS = (2, 2, 2, 3, 3, 5, 7)
ALL_SPLITS = (2, 2, 2, 3, 3, 4, 5, 6, 7, 8, 9)

MIN_SIZE = 4
MAX_SIZE = 200
#: one chain of this many classes needs about this many nested recursive
#: calls, beyond CPython's default limit of 1,000
DEEP_CHAIN_SIZES = (1101, 1150)


@dataclass(frozen=True)
class Case:
    """One recognize input: its classes, the expected exit code, and the
    kind of construction (for the reports)."""

    kind: str
    pairs: tuple[tuple[int, int], ...]
    expected: int


def log_uniform_size(rng: random.Random, lo: int, hi: int) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1))))


def split_tree_system(rng: random.Random, size: int, first_prime: bool = False) -> list:
    """Leaf labels of a random split tree with exactly `size` leaves."""
    classes = [(0, 1)]
    while len(classes) < size:
        room = size - len(classes) + 1
        pool = PRIME_SPLITS if first_prime and len(classes) == 1 else ALL_SPLITS
        choices = [r for r in pool if r <= room] or [room]
        r = rng.choice(choices)
        i = rng.randrange(len(classes))
        a, n = classes[i]
        classes[i : i + 1] = [(a + j * n, r * n) for j in range(r)]
    return classes


def non_natural_system(rng: random.Random, size: int) -> list:
    """The size-13 gcd-1 cover expanded into one class of a natural system."""
    base = split_tree_system(rng, max(2, size - 12), first_prime=True)
    i = rng.randrange(len(base))
    a, n = base.pop(i)
    base.extend((a + n * b, n * m) for b, m in NON_NATURAL_13)
    return base


def broken_system(rng: random.Random, size: int) -> list:
    """A natural system made non-exact by dropping a class or moving an offset."""
    classes = split_tree_system(rng, max(2, size))
    if rng.random() < 0.5:
        present = set(classes)
        for _ in range(64):
            i = rng.randrange(len(classes))
            n = classes[i][1]
            b = rng.randrange(n)
            if (b, n) not in present:
                classes[i] = (b, n)
                return classes
    classes.pop(rng.randrange(len(classes)))
    return classes


def deep_chain(rng: random.Random, size: int) -> list:
    """Binary split chain: each split keeps one child and splits the other."""
    classes = []
    a, n = 0, 1
    for _ in range(size - 1):
        keep = rng.randrange(2)
        children = ((a, 2 * n), (a + n, 2 * n))
        classes.append(children[keep])
        a, n = children[1 - keep]
    classes.append((a, n))
    return classes


def make_cases(seed: int, count: int) -> list[Case]:
    """`count` shuffled cases, plus the deep chains, all chosen by `seed`."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        u = rng.random()
        size = log_uniform_size(rng, MIN_SIZE, MAX_SIZE)
        if u < 0.6:
            cases.append(Case("natural", tuple(split_tree_system(rng, size)), 0))
        elif u < 0.75:
            cases.append(Case("not-natural", tuple(non_natural_system(rng, max(size, 14))), 3))
        else:
            cases.append(Case("not-exact", tuple(broken_system(rng, size)), 4))
    for size in DEEP_CHAIN_SIZES:
        cases.append(Case("deep-chain", tuple(deep_chain(rng, size)), 0))
    rng.shuffle(cases)
    return cases


def write_cases(cases: list[Case], directory: str, seed: int) -> list[str]:
    """Write one file per case, classes in seeded random order; every fifth
    file is JSON, the rest are 'a mod n' text."""
    rng = random.Random(seed ^ 0x5EED)
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, case in enumerate(cases):
        pairs = list(case.pairs)
        rng.shuffle(pairs)
        if i % 5 == 4:
            path = os.path.join(directory, f"case{i:05d}.json")
            text = json.dumps([[a, n] for a, n in pairs])
        else:
            path = os.path.join(directory, f"case{i:05d}.txt")
            text = "".join(f"{a} mod {n}\n" for a, n in pairs)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths
