"""Binomial-basis polynomials behind the diagonals of the count table.

For g > n, the number of natural exact covering systems of size g + n
and gcd g is the coefficient of x^n in (A(x)/x)^g, which expands as a
polynomial f_n in the binomial basis:

    f_n(g) = sum_{k=1..n} c(n,k) * C(g, k),
    c(n,k) = [x^n] (A(x)/x - 1)^k.

All c(n,k) are positive, c(n,n) = 1, and c(n,1) is the count of systems
of size n+1.  Writing A(x)/x = 1 + x + x B(x), the l-th backward
difference of the diagonal coefficients c(m+l, m) telescopes down to the
leading coefficient of B(x)^l, which is 3^l.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

from .series import A_series, IntSeries, mul


class ValidityWarning(UserWarning):
    """Evaluation outside the region where the polynomial formula counts."""


@dataclass(frozen=True)
class BinomialPolynomial:
    """coeffs[k-1] = c(n, k): the binomial-basis coefficients of f_n."""

    n: int
    coeffs: tuple[int, ...]

    def __call__(self, g: int) -> int:
        return sum(c * comb(g, k) for k, c in enumerate(self.coeffs, start=1))


def _shifted_remainder(n_order: int) -> IntSeries:
    """F - 1 where F = A(x)/x, truncated at n_order."""
    a = A_series(n_order + 1)
    return IntSeries([a[k + 1] - (1 if k == 0 else 0) for k in range(n_order + 1)])


def binomial_coeffs(n: int) -> BinomialPolynomial:
    """c(n, k) = [x^n] (A(x)/x - 1)^k for k = 1..n."""
    if n < 1:
        raise ValueError("need n >= 1")
    base = _shifted_remainder(n)
    coeffs = []
    power = base
    coeffs.append(power[n])
    for _ in range(2, n + 1):
        power = mul(power, base, n)
        coeffs.append(power[n])
    return BinomialPolynomial(n, tuple(coeffs))


def evaluate_f(n: int, g: int) -> int:
    """f_n(g), which equals the count of systems of size g+n and gcd g
    when g > n; outside that region the value is still returned but a
    ValidityWarning is attached."""
    if n < 1:
        raise ValueError("need n >= 1")
    if g <= n:
        warnings.warn(
            f"f_{n}({g}) only counts covering systems for g > {n}",
            ValidityWarning,
            stacklevel=2,
        )
    return binomial_coeffs(n)(g)


def backward_difference_check(l: int, m: int) -> int:
    """The l-th backward difference along the diagonal c(m+l, m):

        sum_{j=0..l} C(l,j) (-1)^j c(m+l-j, m-j)

    which equals 3^l for l >= 1, m >= l (and c(m, m) = 1 at l = 0).
    Every term is c(k+l, k) = [x^(k+l)] (A(x)/x - 1)^k for one k <= m, so
    one run of powers of that series, truncated at order m+l, gives all."""
    if l < 0 or m < l:
        raise ValueError("need m >= l >= 0")
    base = _shifted_remainder(m + l)
    power = IntSeries([1] + [0] * (m + l))  # the 0th power; c(l, 0) = [l = 0]
    total = 0
    for k in range(m + 1):
        j = m - k
        if j <= l:
            total += comb(l, j) * (-1) ** j * power[k + l]
        if k < m:
            power = mul(power, base, m + l)
    return total
