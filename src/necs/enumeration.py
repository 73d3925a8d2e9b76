"""Explicit generation of covering systems.

Natural systems are generated duplicate-free by running the counting
recurrence forwards: a system with gcd m >= 2 and size k is the assembly
of a unique m-tuple of smaller systems (its contraction by m), so
looping over compositions of k, coprime gcd tuples with nonzero counts,
and recursively generated pieces emits every system exactly once --
duplicate-freeness comes from the bijection, not from a dedup pass.

General exact covering systems (not necessarily natural) are found by a
complete two-phase backtracking search.  Phase one enumerates candidate
modulus multisets: nondecreasing, exact density sum 1/n_i = 1 (so a
modulus chosen with c slots left on budget r obeys ceil(1/r) <= n <=
floor(c/r)), pairwise non-coprime (disjoint classes always share a
modulus factor), and consistent with the residue strata mod each prime:
the terms p/n over p-divisible moduli must split into p equal groups,
and the classes of any divisibility-maximal modulus form a vanishing
root-of-unity sum, so their multiplicity is a combination of its prime
factors.  Phase two solves, for each multiset with lcm L, an exact cover
with multiplicities: the points of Z/L are the items, the classes a mod n
the options, and each modulus is used as often as the multiset holds it.
It branches on the uncovered point with the fewest classes that can
still cover it, so dead points end a branch and forced points cost no
branching, and every solution is visited along exactly one path.

Internally systems travel as flat sorted tuples of (modulus, offset)
pairs; CoveringSystem objects are built only at the public boundary.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from .congruence import CoveringSystem, ResidueClass, least_translate
from .counting import CountTable, count_size_gcd
from .series import prime_factors
from .trees import _compositions_colex

Flat = tuple[tuple[int, int], ...]  # sorted ((modulus, offset), ...)

#: piece lists for sizes up to this are materialized and reused
_MEMO_MAX_SIZE = 9


class SearchBudgetExceeded(RuntimeError):
    """The backtracking search ran out of its configured time budget."""


def _to_system(flat: Flat) -> CoveringSystem:
    return CoveringSystem(ResidueClass(n, a) for n, a in flat)


class _NecsGenerator:
    """Recursive generator for natural systems, memoizing small piece lists."""

    def __init__(self, table: CountTable):
        self.table = table
        self.memo: dict[tuple[int, int], tuple[Flat, ...]] = {}
        # gcd values with nonzero counts, per size
        self.support = {
            j: tuple(m for m in range(1, j + 1) if table.get(j, m) > 0)
            for j in range(1, table.max_size + 1)
        }

    def generate(self, k: int, m: int) -> Iterator[Flat]:
        if not 1 <= m <= k:
            return
        if self.table.get(k, m) == 0:
            return
        if k <= _MEMO_MAX_SIZE:
            yield from self._memoized(k, m)
        else:
            yield from self._fresh(k, m)

    def _memoized(self, k: int, m: int) -> tuple[Flat, ...]:
        got = self.memo.get((k, m))
        if got is None:
            got = tuple(self._fresh(k, m))
            self.memo[k, m] = got
        return got

    def _fresh(self, k: int, m: int) -> Iterator[Flat]:
        if m == 1:
            if k == 1:
                yield ((1, 0),)
            return
        for comp in _compositions_colex(k, m):
            supports = [self.support[j] for j in comp]
            for gcds in self._coprime_tuples(supports):
                yield from self._assemble(comp, gcds, 0, [])

    def _coprime_tuples(self, supports) -> Iterator[tuple[int, ...]]:
        n = len(supports)

        def rec(i: int, g: int, acc: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if i == n:
                if g == 1:
                    yield acc
                return
            for m in supports[i]:
                yield from rec(i + 1, gcd(g, m), acc + (m,))

        return rec(0, 0, ())

    def _assemble(self, comp, gcds, i, pieces) -> Iterator[Flat]:
        if i == len(comp):
            n = len(comp)
            out = []
            for idx, piece in enumerate(pieces):
                out.extend((n * pn, idx + n * pa) for pn, pa in piece)
            out.sort()
            yield tuple(out)
            return
        for piece in self.generate(comp[i], gcds[i]):
            pieces.append(piece)
            yield from self._assemble(comp, gcds, i + 1, pieces)
            pieces.pop()


def _necs_stream(k: int, m: int | None, table: CountTable | None = None) -> Iterator[Flat]:
    if table is None:
        table = count_size_gcd(k)
    gen = _NecsGenerator(table)
    if m is not None:
        yield from gen.generate(k, m)
    else:
        for mm in range(1, k + 1):
            yield from gen.generate(k, mm)


def enumerate_necs(
    k: int, m: int | None = None, *, ordered: bool = True
) -> Iterator[CoveringSystem]:
    """Every natural exact covering system of size k (and gcd m, if given),
    exactly once.

    With ordered=True (the default) the whole stream is materialized and
    emitted in canonical lexicographic order; ordered=False streams in
    the deterministic recursion order with O(depth) memory.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if m is not None and not 1 <= m <= k:
        raise ValueError("need 1 <= m <= k")
    flats: Iterable[Flat] = _necs_stream(k, m)
    if ordered:
        flats = sorted(flats)
    for flat in flats:
        yield _to_system(flat)


def _least_translates(k: int) -> Iterator[Flat]:
    # translation preserves naturality, so each shift class has one member here
    return (f for f in _necs_stream(k, None) if least_translate(f)[0] == f)


def shift_class_count(k: int) -> int:
    """Number of orbits of the size-k natural systems under translation."""
    if k < 1:
        raise ValueError("need k >= 1")
    return sum(1 for _ in _least_translates(k))


def enumerate_shift_classes(k: int) -> Iterator[CoveringSystem]:
    """One representative per shift class: the lexicographically least
    translate, emitted in canonical lexicographic order."""
    for flat in sorted(_least_translates(k)):
        yield _to_system(flat)


# --- general exact covering systems (backtracking search) --------------------


@dataclass
class EcsSearchConfig:
    """Bounds for the exact-cover search.

    max_modulus defaults to 2^(k-1), the extremal modulus of the binary
    split chain (the classical bound for disjoint covering systems).
    gcd restricts output to systems with that exact gcd; gcd=1 also
    restricts branching to moduli with at least two distinct prime
    factors, since any prime-power modulus forces its prime into every
    other modulus and hence into the gcd.  gcd=m>=2 restricts branching
    to multiples of m.  budget_seconds aborts the search distinctly via
    SearchBudgetExceeded.
    """

    max_modulus: int | None = None
    budget_seconds: float | None = None
    gcd: int | None = None


def _modulus_multisets(
    k: int, max_mod: int, admissible
) -> Iterator[tuple[int, ...]]:
    """Nondecreasing modulus tuples (n_1 <= ... <= n_k) with sum 1/n_i = 1
    that could be the moduli of an exact cover.

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
        yield (2, 2)
        return
    values = [n for n in range(2, max_mod + 1) if admissible(n)]
    admissible_set = set(values)
    factors = {n: prime_factors(n) for n in values}

    def compatible(n: int, distinct: list[int]) -> bool:
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
    strata: dict[int, list[Fraction]] = {}

    def push_strata(n: int, chosen_density: Fraction) -> list | None:
        """Update stratum state for modulus n; None means infeasible
        (state already rolled back), else an undo token."""
        undo: list = []
        d = Fraction(1, n)
        fs = factors[n] if n in factors else prime_factors(n)
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

    def pop_strata(undo: list) -> None:
        for p, slot, old in reversed(undo):
            if slot is None:
                del strata[p]
            else:
                strata[p][slot] = old

    def strata_partition_ok(moduli: list[int]) -> bool:
        """Exact per-prime feasibility: for each prime p, the terms p/n over
        p-divisible moduli must split into p groups, one per residue class
        mod p, each summing exactly R_p = 1 - sum of 1/n over the rest."""
        primes: set[int] = set()
        for n in moduli:
            primes.update(factors[n] if n in factors else prime_factors(n))
        for p in primes:
            terms: list[Fraction] = []
            other = Fraction(0)
            for n in moduli:
                if n % p == 0:
                    terms.append(Fraction(p, n))
                else:
                    other += Fraction(1, n)
            if not _splits_into_equal_parts(terms, p, 1 - other):
                return False
        return True

    def rec(num: int, den: int, remaining: int, lo_idx: int, acc: list[int], distinct: list[int]):
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
                    if _maximal_multiplicities_ok(out) and strata_partition_ok(out):
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


def _splits_into_equal_parts(items: list[Fraction], parts: int, target: Fraction) -> bool:
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

    def place(i: int) -> bool:
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


def _is_prime_combination(t: int, primes: list[int]) -> bool:
    """Is t a nonnegative integer combination of the given primes?"""
    reach = bytearray(t + 1)
    reach[0] = 1
    for p in primes:
        for v in range(p, t + 1):
            if reach[v - p]:
                reach[v] = 1
    return bool(reach[t])


def _maximal_multiplicities_ok(moduli: list[int]) -> bool:
    """Vanishing-sum necessary condition on a candidate modulus multiset.

    For a divisibility-maximal modulus value v (no other modulus a multiple
    of v), summing z^offset over the classes of modulus v at a primitive
    v-th root of unity z gives zero, and a vanishing sum of t v-th roots of
    unity forces t to be a nonnegative combination of the primes dividing v.
    """
    counts: dict[int, int] = {}
    for n in moduli:
        counts[n] = counts.get(n, 0) + 1
    for v, t in counts.items():
        if v == 1:
            continue
        if any(u != v and u % v == 0 for u in counts):
            continue
        if not _is_prime_combination(t, prime_factors(v)):
            return False
    return True


def _assign_offsets(moduli: tuple[int, ...], tick) -> Iterator[Flat]:
    """All exact covers with the given modulus multiset, each exactly once.

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
    densities sum to one, they run out exactly when the moduli do.
    """
    counts: dict[int, int] = {}
    for n in moduli:
        counts[n] = counts.get(n, 0) + 1
    values = sorted(counts)
    period = 1
    for n in values:
        period = period * n // gcd(period, n)
    # the class 0 mod n on Z/L: bits 0, n, 2n, ... (a geometric series)
    comb = {n: ((1 << period) - 1) // ((1 << n) - 1) for n in values}
    chosen: list[tuple[int, int]] = []

    def live_offsets(free: int, n: int) -> int:
        """Bit a (a < n) set iff every point of a mod n is in free."""
        q = period // n
        span = 1  # bit a of free now ANDs the points a + i*n, i < span
        while 2 * span <= q:
            free &= free >> (span * n)
            span *= 2
        # two overlapping windows of span terms cover all q of them
        return free & (free >> ((q - span) * n)) & ((1 << n) - 1)

    def rec(free: int) -> Iterator[Flat]:
        tick()
        if not free:
            yield tuple(sorted(chosen))
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

    yield from rec((1 << period) - 1)


def _ecs_multisets(k: int, cfg: EcsSearchConfig) -> Iterator[tuple[int, ...]]:
    """Phase one: the candidate modulus multisets of size k within the
    config's modulus bound whose gcd is the requested one (if any)."""
    want_gcd = cfg.gcd
    max_mod = cfg.max_modulus if cfg.max_modulus is not None else 1 << (k - 1)

    def admissible(n: int) -> bool:
        # a prime-power modulus puts its prime into every other modulus
        # (disjoint classes need non-coprime moduli), hence into the gcd
        if want_gcd == 1 and k >= 2 and len(prime_factors(n)) <= 1:
            return False
        if want_gcd is not None and want_gcd >= 2 and n % want_gcd != 0:
            return False
        return True

    for moduli in _modulus_multisets(k, max_mod, admissible):
        if want_gcd is not None:
            g = 0
            for n in moduli:
                g = gcd(g, n)
            if g != want_gcd:  # the system gcd is the gcd of its moduli
                continue
        yield moduli


def enumerate_ecs(
    k: int, config: EcsSearchConfig | None = None, *, ordered: bool = True
) -> Iterator[CoveringSystem]:
    """Every exact covering system of size k, exactly once.

    Two phases: enumerate the feasible modulus multisets (nondecreasing,
    exact density budget, per-step bounds ceil(1/r) <= n <= floor(c/r)),
    then, within each multiset, solve the exact cover of Z/lcm by its
    residue classes, branching on the point with the fewest classes that
    can still cover it.  With ordered=True the stream is materialized and
    emitted in canonical lexicographic order; ordered=False streams
    multiset by multiset with O(k) memory.  May raise SearchBudgetExceeded
    when a time budget is configured; its message gives the search nodes
    visited and the solutions found by then.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    cfg = config or EcsSearchConfig()
    if cfg.gcd is not None and (cfg.gcd < 1 or cfg.gcd > k):
        return
    deadline = None
    if cfg.budget_seconds is not None:
        deadline = time.monotonic() + cfg.budget_seconds
    nodes = 0
    found = 0

    def tick():
        nonlocal nodes
        nodes += 1
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            raise SearchBudgetExceeded(
                f"search for k={k} exceeded {cfg.budget_seconds}s after "
                f"{nodes} nodes and {found} solutions"
            )

    def stream() -> Iterator[Flat]:
        nonlocal found
        for moduli in _ecs_multisets(k, cfg):
            for flat in _assign_offsets(moduli, tick):
                found += 1
                yield flat

    flats: Iterable[Flat] = stream()
    if ordered:
        flats = sorted(flats)
    for flat in flats:
        yield _to_system(flat)


def count_ecs(k: int, config: EcsSearchConfig | None = None) -> int:
    """Number of exact covering systems of size k (honors config bounds)."""
    total = 0
    for _ in enumerate_ecs(k, config):
        total += 1
    return total
