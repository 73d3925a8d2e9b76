"""Exact truncated power series over arbitrary-precision integers.

The series of interest here are dense with integer coefficients:

    M(x) = sum_{k>=1} mu(k) x^k          (the Mobius series)
    A(x) = the reversion of M            (coefficients count the natural
                                          exact covering systems by size)
    A_m(x) = M(A(x)^m)                   (refinement by gcd)
    T(x) = (1 + x - sqrt(1-6x+x^2))/4    (Schroder numbers, counting the
                                          underlying split trees by leaves)
    phi(u) = u/M(u)                      (used for the asymptotic analysis)

Everything is computed with exact integer arithmetic.  A series carries an
explicit truncation order N and stores coefficients 0..N; every operation
takes the requested output order as an explicit argument and refuses to
fabricate coefficients it cannot know.

Two kernels do the work.  mul computes each output coefficient of a
truncated product as one dot product, about n^2/2 multiplications, and
power and compose are built on it.  _divide solves g c = f for g_0 = +-1
from the bottom; the terms with g_i = +-1 are signed sums, so dividing by
a series with coefficients in {-1, 0, 1}, such as G(x) = M(x)/x, costs
about n^2/2 additions and no multiplication.  Reversion is Lagrange
inversion, r_k = (1/k) [x^(k-1)] (x/s(x))^k, where x/s(x) has integer
coefficients because s_1 = +-1; its powers are split baby-step/giant-step
(Brent & Kung, "Fast algorithms for manipulating formal power series",
J. ACM 1978).  The b baby steps phi^j = phi^(j-1) / (s(x)/x) are
divisions, O(n^2) additions each for s = M; only the about n/b giant
steps are truncated products, O(n^2) multiplications each; and each r_k
is one dot product.  Solving coefficient by coefficient instead costs
O(n^3) multiplications (tests keep it as the reference).
"""

from __future__ import annotations

import operator
from itertools import compress
from math import isqrt
from typing import Iterable, Sequence


class IntSeries:
    """A power series truncated at an explicit order, with int coefficients.

    ``coeffs[k]`` is the coefficient of x^k for 0 <= k <= order.  Values
    beyond the truncation order are unknown, not zero; indexing past the
    order raises.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        try:
            cs = tuple(map(operator.index, coeffs))
        except TypeError as exc:
            raise TypeError(f"series coefficients must be integers: {exc}") from None
        if not cs:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(f"{c}")
            else:
                sign = "+" if c > 0 else "-"
                mag = abs(c)
                coef = "" if mag == 1 else f"{mag}*"
                terms.append(f"{sign} {coef}x^{k}" if terms else f"{'-' if c < 0 else ''}{coef}x^{k}")
        body = " ".join(terms) if terms else "0"
        return f"IntSeries({body} + O(x^{self.order + 1}))"

    def truncate(self, n: int) -> "IntSeries":
        """Drop coefficients above order n (n must not exceed the known order)."""
        _require_order(self, n)
        return IntSeries(self.coeffs[: n + 1])

    def valuation(self) -> int:
        """Index of the first nonzero coefficient (order+1 if all zero)."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return self.order + 1


def _require_order(s: IntSeries, n: int) -> None:
    if s.order < n:
        raise ValueError(f"series known only to order {s.order}, need {n}")


def x_series(n: int) -> IntSeries:
    """The series x, truncated at order n >= 1."""
    if n < 1:
        raise ValueError("need order >= 1 to represent x")
    return IntSeries([0, 1] + [0] * (n - 1))


def add(s: IntSeries, r: IntSeries, n: int) -> IntSeries:
    _require_order(s, n)
    _require_order(r, n)
    return IntSeries([s.coeffs[k] + r.coeffs[k] for k in range(n + 1)])


def mul(s: IntSeries, r: IntSeries, n: int) -> IntSeries:
    """Product truncated at order n.

    The series here are dense, so each output coefficient is one dot
    product, sum(map(operator.mul, ...)), of a slice of s against a
    reversed slice of r; leading zero blocks are skipped, since
    valuations add under multiplication.  About n^2/2 multiplications.
    """
    _require_order(s, n)
    _require_order(r, n)
    out = [0] * (n + 1)
    va = s.valuation()
    vb = r.valuation()
    if va + vb > n:
        return IntSeries(out)
    a = s.coeffs
    rb = r.coeffs[n::-1]  # rb[t] = r_(n - t)
    for k in range(va + vb, n + 1):
        # [x^k] = sum of a_i r_(k-i) over va <= i <= k - vb
        out[k] = sum(map(operator.mul, a[va : k - vb + 1], rb[n - k + va : n - vb + 1]))
    return IntSeries(out)


def power(s: IntSeries, e: int, n: int) -> IntSeries:
    """s**e truncated at order n, by binary exponentiation."""
    if e < 0:
        raise ValueError("negative powers are not defined for truncated series")
    _require_order(s, n)
    result = IntSeries([1] + [0] * n)
    base = s.truncate(n)
    while e:
        if e & 1:
            result = mul(result, base, n)
        e >>= 1
        if e:
            base = mul(base, base, n)
    return result


def compose(s: IntSeries, r: IntSeries, n: int) -> IntSeries:
    """s(r(x)) truncated at order n; requires r(0) = 0 so the result is finite."""
    _require_order(s, n)
    _require_order(r, n)
    if r.coeffs[0] != 0:
        raise ValueError("composition needs inner series with zero constant term")
    # Horner from the top coefficient down.
    acc = IntSeries([s.coeffs[n]] + [0] * n)
    for k in range(n - 1, -1, -1):
        acc = mul(acc, r, n)
        acc = IntSeries((acc.coeffs[0] + s.coeffs[k],) + acc.coeffs[1:])
    return acc


def derivative(s: IntSeries) -> IntSeries:
    """Formal derivative; the result is known one order less far."""
    if s.order == 0:
        return IntSeries([0])
    return IntSeries([k * s.coeffs[k] for k in range(1, s.order + 1)])


def _divide(f: Sequence[int], g: Sequence[int], n: int) -> list[int]:
    """Coefficients 0..n of f(x)/g(x), for g_0 = +-1 and f, g known to
    order n.

    Solves g c = f from the bottom: c_k = g_0 (f_k - sum_{i=1..k} g_i
    c_(k-i)), which divides only by the unit g_0 (1/g_0 = g_0), so every
    c_k is an integer.  The terms with g_i = +-1 are two signed sums of
    the c_(k-i), picked out of the reversed prefix by masks fixed once per
    call with itertools.compress; only the other nonzero g_i multiply.  So
    dividing by a series with coefficients in {-1, 0, 1}, such as M(x)/x,
    costs about n^2/2 additions and no multiplication.
    """
    g0 = g[0]
    if g0 not in (1, -1):
        raise ValueError("exact division needs constant term +-1")
    tail = g[1 : n + 1]
    plus = [gi == 1 for gi in tail]
    minus = [gi == -1 for gi in tail]
    wide = [gi not in (-1, 0, 1) for gi in tail]
    wide_g = list(compress(tail, wide))
    rev: list[int] = []  # c_(k-1), ..., c_0, so rev[i - 1] = c_(k-i)
    for k in range(n + 1):
        acc = f[k] - sum(compress(rev, plus)) + sum(compress(rev, minus))
        if wide_g:
            acc -= sum(map(operator.mul, wide_g, compress(rev, wide)))
        rev.insert(0, g0 * acc)
    return rev[::-1]


def revert(s: IntSeries, n: int) -> IntSeries:
    """Compositional inverse r with s(r(x)) = x through order n.

    Requires s(0) = 0 and linear coefficient +-1, which makes every r_k an
    integer.  By Lagrange inversion r = x phi(r) with phi = x/s(x), so

        r_k = (1/k) [x^(k-1)] phi(x)^k.

    phi is the reciprocal of g(x) = s(x)/x, whose constant term s_1 is a
    unit, so phi has integer coefficients; the division by k is exact (r_k
    is an integer because s(r(x)) = x solves for it with unit leading
    coefficient s_1), and a nonzero remainder raises ArithmeticError.

    The powers are split baby-step/giant-step (Brent & Kung 1978): with
    k = ib + j, 1 <= j <= b, phi^k = P_i Q_j where Q_j = phi^j and
    P_i = phi^(ib).  The baby steps are divisions, Q_j = Q_(j-1) / g by
    _divide, so for g with coefficients in {-1, 0, 1} (as M(x)/x) each
    costs about n^2/2 additions; the giant steps P_i = P_(i-1) Q_b are
    truncated products; then each r_k is one dot product of length k.
    A product costs more than a division by a factor that grows with the
    coefficients' length, so the b minimising b divisions plus n/b
    products grows faster than sqrt(n).  The rule

        b = isqrt(n (n + 200) / 100),   i.e. b^2 ~ n (2 + n/100),

    fits the fastest b measured for A = revert(M) at n = 64, 300 and 1000
    (about 12, 36 and 100; the rule gives 13, 38 and 109).
    """
    if n < 1:
        raise ValueError("need order >= 1")
    _require_order(s, n)
    if s.coeffs[0] != 0:
        raise ValueError("reversion needs zero constant term")
    if s.coeffs[1] not in (1, -1):
        raise ValueError("reversion with integer coefficients needs linear coefficient +-1")

    m = n - 1  # r_k needs phi^k only through x^(k-1)
    g = s.coeffs[1 : n + 1]
    b = isqrt(n * (n + 200) // 100)
    baby = [IntSeries([1] + [0] * m)]  # phi^0, ..., phi^b; Q_j = baby[j]
    while len(baby) <= b:
        baby.append(IntSeries(_divide(baby[-1].coeffs, g, m)))
    giant = baby[0]  # P_i = phi^(ib)
    r = [0] * (n + 1)
    for k in range(1, n + 1):
        i, j = divmod(k - 1, b)
        j += 1
        if j == 1 and i:
            giant = baby[b] if i == 1 else mul(giant, baby[b], m)
        # [x^(k-1)] P_i Q_j: P_i's coefficients 0..k-1 against Q_j's reversed
        q = baby[j].coeffs
        r_k, rem = divmod(sum(map(operator.mul, giant.coeffs[:k], q[k - 1 :: -1])), k)
        if rem:
            raise ArithmeticError(f"Lagrange inversion: [x^{k - 1}] phi^{k} is not divisible by {k}")
        r[k] = r_k
    return IntSeries(r)


# --- Mobius function and prime factors -------------------------------------


def mobius_upto(n: int) -> list[int]:
    """mu(0..n) by a linear sieve (mu(0) = 0 by convention)."""
    if n < 0:
        raise ValueError("need n >= 0")
    mu = [0] * (n + 1)
    if n >= 1:
        mu[1] = 1
    composite = bytearray(n + 1)
    primes: list[int] = []
    for i in range(2, n + 1):
        if not composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            ip = i * p
            if ip > n:
                break
            composite[ip] = 1
            if i % p == 0:
                mu[ip] = 0
                break
            mu[ip] = -mu[i]
    return mu


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, in increasing order (so the
    first is the smallest, and n is a prime power, or 1, iff there is at
    most one)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def mobius(n: int) -> int:
    """mu(n) for n >= 1."""
    if n < 1:
        raise ValueError("mu is defined for n >= 1")
    return mobius_upto(n)[n]


def mobius_series(n: int) -> IntSeries:
    """M(x) = sum_{k>=1} mu(k) x^k truncated at order n."""
    if n < 1:
        raise ValueError("need order >= 1")
    return IntSeries(mobius_upto(n))


# --- The named series ------------------------------------------------------


def A_series(n: int) -> IntSeries:
    """Reversion of the Mobius series; coefficient k counts the natural
    exact covering systems with k residue classes."""
    return revert(mobius_series(n), n)


def Am_series(m: int, n: int) -> IntSeries:
    """A_m(x) = M(A(x)^m): size generating series for systems of gcd m."""
    if m < 1:
        raise ValueError("need m >= 1")
    return Am_of(A_series(n), m, n)


def Am_of(a: IntSeries, m: int, n: int) -> IntSeries:
    """M(a(x)^m) truncated at order n, for m >= 1: A_m(x) from a = A(x) of
    order at least n, so a caller needing several m reverts only once."""
    return compose(mobius_series(n), power(a, m, n), n)


def schroeder_series(n: int) -> IntSeries:
    """Leaf-count series T(x) of rooted ordered trees with no unary vertex.

    Solves 2T^2 - (1+x)T + x = 0 coefficientwise, which keeps everything in
    integers instead of expanding the square root in the closed form.
    """
    if n < 1:
        raise ValueError("need order >= 1")
    t = [0] * (n + 1)
    t[1] = 1
    for k in range(2, n + 1):
        conv = sum(t[i] * t[k - i] for i in range(1, k))
        t[k] = 2 * conv - t[k - 1]
    return IntSeries(t)


def phi_series(n: int) -> IntSeries:
    """phi(u) = u / M(u), the reciprocal of G(u) = M(u)/u = sum mu(k) u^{k-1}.

    G has constant term 1, so the reciprocal has exact integer coefficients,
    and G's coefficients are in {-1, 0, 1}, so _divide needs only additions.
    """
    if n < 0:
        raise ValueError("need order >= 0")
    return IntSeries(_divide([1] + [0] * n, mobius_upto(n + 1)[1:], n))
