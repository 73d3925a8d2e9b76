"""Known values and independent re-computations that the benchmark checks
`necs` output against.  Nothing here imports `necs`.

Sources of the copied values:

* TABLE2: the shipped golden table src/necs/data/table2.csv, which is
  also TABLE2 in tests/helpers.py (counts a(k, m) for k <= 13).
* SHIFT_CLASS_COUNTS, SCHROEDER: tests/helpers.py.
* The *_DIGITS strings: tests/test_asymptotics.py (PI_DIGITS from its
  pi_fixed test).
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from math import gcd, lcm

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

#: natural systems by size (OEIS A050385), k = 1..13: row sums of TABLE2
A_COUNTS = [None] + [sum(TABLE2[k]) for k in range(1, 14)]

#: shift-equivalence classes s(k), k = 1..12
SHIFT_CLASS_COUNTS = [None, 1, 1, 2, 4, 10, 26, 75, 226, 718, 2368, 8083, 28367]

#: Schroder numbers: split trees by leaf count, k = 1..10
SCHROEDER = [None, 1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049]

DIGITS = {
    "tau": "0.32299391330283353998122564696308569320205174841752276244233373344634953499",
    "beta": "-0.562976540744649358189645954216416402249939799218087618317349878994076506622",
    "alpha": "0.580294623807326723064776237226780436649",
    "rho": "0.18223393401633630828235226904174072905168066104",
    "gamma": "5.48745218829746214756744529323030925532004291024",
    "c": "0.08094229418609730035861577123355531751035381267",
    "m2tau": "-4.426886252469575251674551833111186610459374194161738",
}
PI_DIGITS = "3.14159265358979323846264338327950288419716939937510"


# --- covering systems ----------------------------------------------------------


def is_exact_pairs(pairs) -> bool:
    """Pairwise disjoint (offsets differ mod the gcd of the moduli) and
    densities summing to exactly 1; pairs are (offset, modulus)."""
    for i, (a, n) in enumerate(pairs):
        for b, m in pairs[i + 1 :]:
            if (a - b) % gcd(n, m) == 0:
                return False
    period = 1
    for _, n in pairs:
        period = lcm(period, n)
    return sum(period // n for _, n in pairs) == period


def brute_force_exact(pairs) -> bool:
    """Every integer of one full period is covered exactly once."""
    period = 1
    for _, n in pairs:
        period = lcm(period, n)
    hits = [0] * period
    for a, n in pairs:
        for x in range(a, period, n):
            hits[x] += 1
    return all(h == 1 for h in hits)


def gcd_of_pairs(pairs) -> int:
    g = 0
    for _, n in pairs:
        g = gcd(g, n)
    return g


# --- split trees ---------------------------------------------------------------


def parse_tree(text: str) -> list[list[int]]:
    """Children lists of the tree "(r c1 .. cr)" / "()", node 0 the root.

    Iterative, so trees of any depth parse.  Raises ValueError when the
    text is not a well-formed tree whose up-degrees match child counts.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    children: list[list[int]] = []
    degree: list[int] = []
    stack: list[int] = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "(":
            if not stack and children:
                raise ValueError("more than one root")
            node = len(children)
            children.append([])
            if stack:
                children[stack[-1]].append(node)
            stack.append(node)
            if i + 1 < len(tokens) and tokens[i + 1].isdigit():
                degree.append(int(tokens[i + 1]))
                i += 1
            else:
                degree.append(0)
        elif tok == ")":
            if not stack:
                raise ValueError("unbalanced ')'")
            node = stack.pop()
            if len(children[node]) != degree[node] or degree[node] == 1:
                raise ValueError(f"node {node}: up-degree {degree[node]}, {len(children[node])} children")
        else:
            raise ValueError(f"unexpected token {tok!r}")
        i += 1
    if stack or not children:
        raise ValueError("unbalanced or empty tree")
    return children


def relabel(children: list[list[int]]) -> list[tuple[int, int]]:
    """Leaf labels (offset, modulus): the root is <0,1> and child j of a
    node <a,n> with r children is <a + j n, r n>."""
    labels = {0: (0, 1)}
    leaves = []
    todo = [0]
    while todo:
        node = todo.pop()
        a, n = labels[node]
        kids = children[node]
        if not kids:
            leaves.append((a, n))
        r = len(kids)
        for j, kid in enumerate(kids):
            labels[kid] = (a + j * n, r * n)
            todo.append(kid)
    return leaves


def leaf_count(children: list[list[int]]) -> int:
    return sum(1 for kids in children if not kids)


# --- series --------------------------------------------------------------------


def mobius_upto(n: int) -> list[int]:
    mu = [1] * (n + 1)
    mu[0] = 0
    is_prime = [True] * (n + 1)
    for p in range(2, n + 1):
        if is_prime[p]:
            for q in range(p, n + 1, p):
                if q > p:
                    is_prime[q] = False
                mu[q] = -mu[q]
            for q in range(p * p, n + 1, p * p):
                mu[q] = 0
    return mu


def _mulmod(f: list[int], g: list[int], n: int, p: int) -> list[int]:
    """f * g mod (p, x^(n+1)) by packing each polynomial into one integer."""
    width = (2 * p.bit_length() + (n + 1).bit_length() + 7) // 8
    pack = lambda h: int.from_bytes(b"".join(c.to_bytes(width, "little") for c in h), "little")
    raw = (pack(f) * pack(g)).to_bytes(width * (2 * n + 2), "little")
    return [int.from_bytes(raw[i * width : (i + 1) * width], "little") % p for i in range(n + 1)]


def mobius_of_series_is_x(a: list[int], primes=(2**61 - 1, 1_000_000_007)) -> bool:
    """Does sum_k mu(k) A(x)^k = x hold through x^n, modulo each prime?
    a[0..n] are the coefficients of A, a[0] = 0.  Horner in A."""
    n = len(a) - 1
    mu = mobius_upto(n)
    for p in primes:
        am = [c % p for c in a]
        acc = [mu[n] % p] + [0] * n
        for k in range(n - 1, 0, -1):
            acc = _mulmod(acc, am, n, p)
            acc[0] = (acc[0] + mu[k]) % p
        acc = _mulmod(acc, am, n, p)
        if acc != [0, 1] + [0] * (n - 1):
            return False
    return True


def binomial_basis(a: list[int], n: int) -> list[int]:
    """c(n, k) = [x^n] (A(x)/x - 1)^k for k = 1..n, from A's coefficients."""
    base = [0] + [a[i + 1] for i in range(1, n + 1)]  # A(x)/x - 1
    power = [1] + [0] * n
    out = []
    for _ in range(n):
        power = [sum(power[i] * base[j - i] for i in range(j + 1)) for j in range(n + 1)]
        out.append(power[n])
    return out


def sqrt_decimal(value: Decimal, places: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = places
        return value.sqrt()
