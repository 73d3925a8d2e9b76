"""Counting natural exact covering systems by size, gcd, lcm and period.

Let a(k, m) be the number of natural exact covering systems with k
classes and gcd m.  Contracting by the full gcd puts the systems with
gcd exactly n >= 2 in bijection with n-tuples of systems whose sizes sum
to k and whose gcds are globally coprime.  Collapsing the coprimality
filter by Mobius inversion and the composition sum into polynomial
powers gives, for n >= 2,

    a(k, n) = sum_{e >= 1} mu(e) * [x^k] W_e(x)^n,
    W_e(x)  = sum_j ( sum_{e | m} a(j, m) ) x^j,

with the single base case a(1, 1) = 1 (so a(k, 1) = 0 for k >= 2, and
a(k, k) = 1 comes out of the sum).  For n >= 2 the coefficient
[x^j] W_e^n involves W_e only below degree j, so the power rows
[x^j] W_e^n are kept from one row k to the next: row k costs one
convolution entry per (e, n) pair, about O(K^3 log K) ring operations
for the table up to K.

The plain counts need no recurrence, since W_e = A^e, with A the
reversion of the Mobius series (the size series of all systems).
Proof: [x^j] W_e counts the systems of size j whose gcd is a multiple
of e, and contracting by e makes these the assemblies of arbitrary
e-tuples of systems whose sizes sum to j, counted by [x^j] A^e.  Mobius
inversion over the multiples of m then gives

    a(k, m) = sum_{j >= 1} mu(j) [x^k] A^(jm) = [x^k] M(A^m),

so count_size_gcd reads the whole table off the powers A^N, N <= K,
in about K^3 / 6 integer multiplications.

The recurrence serves the two refinements, over one ring: a
coefficient is a vector of counts indexed by lcm value, and
multiplication lcm-convolves.  Refining by lcm, the count for gcd n
lifts each lcm l to n * l, since the lcm of an assembled system is n
times the lcm of its pieces' lcms.  The lcm values attained at size k
are the support of row k of that table, and its marginal over lcm is
a(k, m) by the recurrence, an independent route from the powers of A.

Refining by period, the least t > 0 with S + t = S, counts systems up
to translation.  Periods lcm-convolve too, since a tuple of systems is
fixed by t iff each of them is; only the lift is new.  Translating a
system S of gcd n by 1 sends its contraction pieces (P_0, ..., P_{n-1})
to (shift(P_{n-1}, 1), P_0, ..., P_{n-2}): the pieces rotate, and the
one that wraps around is shifted by 1.  So S is fixed by a translation
t, with d = gcd(t, n), iff along each of the d cycles of
the rotation the pieces are translates of one free representative, and
that representative is fixed by t/d.  The d representatives have total
size k d / n and globally coprime gcds, which is what the Mobius sum
C_d(K) = sum_e mu(e) [x^K] W_e^d counts, indexed by the lcm of their
periods (C_1(1) is the unit: the trivial pieces of the system of all
residues mod n).  Hence, with V(k, n)[p] the number of systems of size k
and gcd n with period p,

    Fix_n(k, t) = sum_{Q | t/d} C_d(k d / n)[Q]   if (n/d) | k, else 0,
    V(k, n)[p]  = sum_{s | rad p} mu(s) Fix_n(k, p / s).

Only p = d Q can be a period, with d = gcd(p, n) and Q in the support of
C_d(k d / n) and coprime to n/d: every piece of S is fixed by Q, so S is
fixed by n Q and d Q | p | n Q.  An orbit of period p has p members, so
the number of translation classes is s(k, n) = sum_p V(k, n)[p] / p.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from functools import cache, reduce
from math import gcd, lcm

from .series import A_series, mobius_upto, mul, prime_factors

#: lcm bucket key for counts whose lcm exceeded the configured cap.
OVERFLOW = -1

_CACHE_FORMAT = "necs-count-cache"
_CACHE_VERSION = 1


@dataclass
class CountTable:
    """Counts of natural exact covering systems by (size, gcd).

    entries[(k, m)] holds a(k, m) for 1 <= m <= k <= max_size; absent keys
    read as zero.
    """

    max_size: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def get(self, k: int, m: int) -> int:
        return self.entries.get((k, m), 0)

    def row_sum(self, k: int) -> int:
        """Total count of systems of size k (equals the reversion coefficient)."""
        if not 1 <= k <= self.max_size:
            raise ValueError(f"size {k} outside table range 1..{self.max_size}")
        return sum(self.get(k, m) for m in range(1, k + 1))

    def rows(self):
        for k in range(1, self.max_size + 1):
            for m in range(1, k + 1):
                yield k, m, self.get(k, m)


@dataclass
class LcmCountTable:
    """Counts by (size, gcd, lcm); lcm key OVERFLOW aggregates counts whose
    lcm exceeded lcm_max (None means unbounded, so no overflow)."""

    max_size: int
    lcm_max: int | None
    entries: dict[tuple[int, int, int], int] = field(default_factory=dict)

    def get(self, k: int, m: int, l: int) -> int:
        return self.entries.get((k, m, l), 0)

    @property
    def overflowed(self) -> bool:
        return any(l == OVERFLOW for (_, _, l) in self.entries)

    def marginal(self) -> CountTable:
        """Sum out the lcm dimension; matches count_size_gcd exactly."""
        out = CountTable(self.max_size)
        for (k, m, _), v in self.entries.items():
            out.entries[k, m] = out.entries.get((k, m), 0) + v
        return out

    def rows(self):
        for (k, m, l), v in sorted(self.entries.items()):
            yield k, m, l, v


def count_size_gcd(max_size: int, cache_path: str | None = None) -> CountTable:
    """Fill the (size, gcd) table for all 1 <= m <= k <= max_size, from
    the powers of A (see the module docstring).

    With a cache path, a cached table that reaches max_size is read back;
    otherwise the table is computed and written to the cache.
    """
    if max_size < 1:
        raise ValueError("need max_size >= 1")
    table = _load_cache(cache_path) if cache_path else None
    if table is not None and table.max_size >= max_size:
        kept = {km: v for km, v in table.entries.items() if km[0] <= max_size}
        return CountTable(max_size, kept)
    table = CountTable(max_size, _size_gcd_entries(max_size))
    if cache_path:
        _save_cache(cache_path, table)
    return table


def count_size_gcd_lcm(max_size: int, lcm_max: int | None = None) -> LcmCountTable:
    """Fill the (size, gcd, lcm) table for 1 <= m <= k <= max_size."""
    if lcm_max is not None and lcm_max < 1:
        raise ValueError(f"need lcm_max >= 1, got {lcm_max}")

    def lift(sums, k: int, n: int) -> dict[int, int]:
        out: dict[int, int] = {}
        for l, c in sums[k, n].items():
            if l != OVERFLOW:
                l = OVERFLOW if lcm_max is not None and n * l > lcm_max else n * l
            out[l] = out.get(l, 0) + c
        return {l: c for l, c in out.items() if c}

    a = _fill(max_size, lift)
    entries = {(k, m, l): c for (k, m), vec in a.items() for l, c in vec.items()}
    return LcmCountTable(max_size, lcm_max, entries)


def count_size_gcd_period(max_size: int) -> dict[tuple[int, int], dict[int, int]]:
    """Period vectors for 1 <= m <= k <= max_size: out[k, m][p] is the
    number of systems of size k and gcd m whose least translation period
    is p (the least t > 0 with S + t = S).  Only nonzero (k, m) are kept.

    Each count is a multiple of its period, since the systems of period p
    fall into translation orbits of size p.  See the module docstring for
    the lift.
    """

    def lift(sums, k: int, n: int) -> dict[int, int]:
        @cache
        def fix(t: int) -> int:  # Fix_n(k, t)
            d = gcd(t, n)
            if k % (n // d):
                return 0
            u = t // d
            return sum(c for q, c in sums.get((k * d // n, d), {}).items() if u % q == 0)

        periods = {
            d * q
            for d in range(1, n + 1)
            if n % d == 0 and k % (n // d) == 0
            for q, c in sums.get((k * d // n, d), {}).items()
            if c and gcd(q, n // d) == 1
        }
        out: dict[int, int] = {}
        for p in periods:
            signed = [(1, 1)]  # (squarefree s | p, mu(s))
            for r in prime_factors(p):
                signed += [(s * r, -m) for s, m in signed]
            v = sum(m * fix(p // s) for s, m in signed)
            if v:
                out[p] = v
        return out

    return _fill(max_size, lift)


def _size_gcd_entries(max_size: int) -> dict[tuple[int, int], int]:
    """The nonzero a(k, m) = sum_j mu(j) [x^k] A^(jm), 1 <= m <= k <= max_size:
    a(k, 1) = [x^k] M(A) = [k = 1], and a(k, m) >= 1 for 2 <= m <= k."""
    mu = mobius_upto(max_size)
    powers = [None, A_series(max_size)]  # powers[N] = A^N
    while len(powers) <= max_size:
        powers.append(mul(powers[-1], powers[1], max_size))
    entries = {(1, 1): 1}
    for k in range(2, max_size + 1):
        for m in range(2, k + 1):
            entries[k, m] = sum(mu[j] * powers[j * m][k] for j in range(1, k // m + 1))
    return entries


def _vec_add(u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
    out = dict(u)
    for l, c in v.items():
        out[l] = out.get(l, 0) + c
    return out


def _lcm_mul(u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for l1, c1 in u.items():
        for l2, c2 in v.items():
            l = OVERFLOW if OVERFLOW in (l1, l2) else lcm(l1, l2)
            out[l] = out.get(l, 0) + c1 * c2
    return out


def _vec_scale(u: dict[int, int], c: int) -> dict[int, int]:
    return {l: c * v for l, v in u.items()}


def _fill(max_size: int, lift) -> dict:
    """a[(k, m)] = the count vector of the systems of size k and gcd m, for
    1 <= m <= k <= max_size where nonzero (a(k, 1) = 0 for k >= 2 is left
    out), over count vectors keyed by lcm value or by period, which
    multiply by lcm-convolution.

    lift(sums, k, n) turns the Mobius sums into the count of systems of
    size k with gcd n, where sums[K, d] = C_d(K) = sum_e mu(e) [x^K] W_e^d
    is filled for every 2 <= d <= K <= k, and sums[1, 1] = C_1(1) is the
    unit {1: 1}, the trivial system (C_1(K) = 0 for K >= 2 is left out).
    No zero element is needed: W_e has nonzero coefficients from degree e
    on, so every sum taken here has a first term.
    """
    if max_size < 1:
        raise ValueError("need max_size >= 1")
    mu = mobius_upto(max_size)
    es = [e for e in range(1, max_size + 1) if mu[e]]
    pw = {}  # pw[e, n, j] = [x^j] W_e^n
    sums = {(1, 1): {1: 1}}
    a = {(1, 1): {1: 1}}
    for k in range(1, max_size + 1):
        for n in range(2, k + 1):
            terms = []
            for e in es:
                if n * e > k:
                    break
                # W_e starts at degree e, W_e^(n-1) at degree (n-1)e
                top = k - (n - 1) * e
                products = [_lcm_mul(pw[e, 1, i], pw[e, n - 1, k - i]) for i in range(e, top + 1)]
                pw[e, n, k] = coeff = reduce(_vec_add, products)
                terms.append(_vec_scale(coeff, mu[e]))
            sums[k, n] = reduce(_vec_add, terms)
            a[k, n] = lift(sums, k, n)
        for e in es:
            if e > k:
                break
            pw[e, 1, k] = reduce(_vec_add, [a[k, m] for m in range(e, k + 1, e) if (k, m) in a])
    return a


def distinct_lcm_values(k: int) -> set[int]:
    """The lcm values attained by natural exact covering systems of size k:
    the support of row k of count_size_gcd_lcm(k)."""
    return {l for (size, _, l) in count_size_gcd_lcm(k).entries if size == k}


def lcm_value_count(k: int) -> int:
    """How many distinct lcm values occur among systems of size k."""
    return len(distinct_lcm_values(k))


# --- disk cache --------------------------------------------------------------


def _load_cache(path: str) -> CountTable | None:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError):  # not JSON, not UTF-8, or nested too deeply
            data = None
    if not (
        isinstance(data, dict)
        and data.get("format") == _CACHE_FORMAT
        and data.get("version") == _CACHE_VERSION
    ):
        raise ValueError(f"unrecognized cache format in {path}")
    try:
        max_size = int(data["max_size"])
        entries = {(int(k), int(m)): int(v) for k, m, v in data["counts"]}
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"malformed count cache {path}") from None
    # a valid table holds exactly the keys (1, 1) and 2 <= m <= k <= max_size,
    # which keeps the recompute below proportional to the file
    sized = max_size >= 1 and len(entries) == 1 + max_size * (max_size - 1) // 2
    if not sized or any(not (k == m == 1 or 2 <= m <= k <= max_size) for k, m in entries):
        raise ValueError(f"count cache {path} does not hold the keys of a table up to size {max_size}")
    if entries != _size_gcd_entries(max_size):
        raise ValueError(f"count cache {path} disagrees with the counts from the powers of A")
    return CountTable(max_size, entries)


def _save_cache(path: str, table: CountTable) -> None:
    payload = {
        "format": _CACHE_FORMAT,
        "version": _CACHE_VERSION,
        "max_size": table.max_size,
        "counts": [[k, m, str(v)] for (k, m), v in sorted(table.entries.items())],
    }
    umask = os.umask(0)
    os.umask(umask)
    # a unique temporary file, so concurrent writers never share one
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)  # the mode open() gives, not 0600
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
