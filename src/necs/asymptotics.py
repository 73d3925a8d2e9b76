"""High-precision evaluation of the Mobius series and its growth constants.

The count a_k of natural exact covering systems of size k grows like
c * gamma^k * k^(-3/2), where, with M(x) = sum mu(k) x^k:

    tau   = the positive zero of M' inside the disc of convergence,
    rho   = M(tau),        gamma = 1/rho,
    d1    = sqrt(-2 M(tau) / M''(tau)),
    c     = d1 / (2 sqrt(pi)) = sqrt(-M(tau) / (2 pi M''(tau))).

The positive zero alpha of M is the radius of convergence of u/M(u).

Everything here runs on base-10 fixed-point numbers over exact integers
with an explicit rational error bound, so results are reproducible
digit-for-digit and independent of platform float semantics.  M and its
derivatives are evaluated by one routine indexed by the derivative order
d: the coefficient of x^(k-d) in M^(d) is k(k-1)...(k-d+1) mu(k), and
since |mu(k)| <= 1 the truncation tail after n terms is bounded by the
same tail of the d-th derivative of the geometric series, summed exactly
in closed form (|x| <= 0.71) as one integer numerator over one integer
denominator, so a tail costs a few integer powers and one gcd.  Roots
(tau and beta of M', alpha of M) are found from an exact rational
bracket holding one sign change: it is bisected on the sign of the
certified evaluator down to one ulp at scale 12, Newton refines that
mantissa while the scale doubles, and a sign change over a bracket
around the result certifies it.  No floating-point value enters a root
or a constant.

The refinement by gcd uses the same constants: the number of systems of
size k and gcd m grows like m tau^(m-1) M'(tau^m) c gamma^k k^(-3/2),
whose weights over m >= 2 sum to 1 because the Lambert series of the
Mobius function telescopes (sum_m M(x^m) = x, differentiate and put
x = tau where M'(tau) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, isqrt, perm

from .counting import CountTable, count_size_gcd
from .series import mobius_upto

#: series evaluation is restricted to this radius; tails stay geometric
RADIUS_LIMIT = Fraction(71, 100)


# --- fixed-point numbers -----------------------------------------------------


@dataclass(frozen=True)
class FixedReal:
    """mantissa / 10^scale, within error_bound of the value it stands for."""

    mantissa: int
    scale: int
    error_bound: Fraction = Fraction(0)

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if self.error_bound < 0:
            raise ValueError("error bound must be nonnegative")

    def value(self) -> Fraction:
        return Fraction(self.mantissa, 10**self.scale)

    def magnitude_bound(self) -> Fraction:
        """Certified upper bound on the absolute value represented."""
        return abs(self.value()) + self.error_bound

    def decimal(self, digits: int | None = None) -> str:
        """Decimal string, truncated toward zero to the requested digits."""
        digits = self.scale if digits is None else digits
        m, s = self.mantissa, self.scale
        if digits < s:
            m = abs(m) // 10 ** (s - digits) * (-1 if m < 0 else 1)
            s = digits
        sign = "-" if m < 0 else ""
        m = abs(m)
        whole, frac = divmod(m, 10**s)
        body = f"{whole}.{frac:0{s}d}" if s else str(whole)
        if digits > s:
            body += "0" * (digits - s) if s else "." + "0" * digits
        return sign + body

    def __repr__(self) -> str:
        return f"FixedReal({self.decimal()}, err<={float(self.error_bound):.2e})"


def _round_div(a: int, b: int) -> int:
    """Nearest integer to a/b, ties away from zero; b > 0."""
    if a >= 0:
        return (2 * a + b) // (2 * b)
    return -((-2 * a + b) // (2 * b))


def from_fraction(v: Fraction | int, scale: int, error: Fraction = Fraction(0)) -> FixedReal:
    v = Fraction(v)
    m = _round_div(v.numerator * 10**scale, v.denominator)
    rep_err = abs(Fraction(m, 10**scale) - v)
    return FixedReal(m, scale, error + rep_err)


def rescale(x: FixedReal, scale: int) -> FixedReal:
    if scale >= x.scale:
        return FixedReal(x.mantissa * 10 ** (scale - x.scale), scale, x.error_bound)
    m = _round_div(x.mantissa, 10 ** (x.scale - scale))
    err = x.error_bound + abs(Fraction(m, 10**scale) - x.value())
    return FixedReal(m, scale, err)


def fx_add(a: FixedReal, b: FixedReal) -> FixedReal:
    s = max(a.scale, b.scale)
    a, b = rescale(a, s), rescale(b, s)
    return FixedReal(a.mantissa + b.mantissa, s, a.error_bound + b.error_bound)


def fx_neg(a: FixedReal) -> FixedReal:
    return FixedReal(-a.mantissa, a.scale, a.error_bound)


def fx_mul(a: FixedReal, b: FixedReal, scale: int) -> FixedReal:
    exact = a.value() * b.value()
    err = (
        abs(a.value()) * b.error_bound
        + abs(b.value()) * a.error_bound
        + a.error_bound * b.error_bound
    )
    out = from_fraction(exact, scale)
    return FixedReal(out.mantissa, scale, out.error_bound + err)


def fx_div(a: FixedReal, b: FixedReal, scale: int) -> FixedReal:
    """a / b; requires b certifiably nonzero."""
    b_low = abs(b.value()) - b.error_bound
    if b_low <= 0:
        raise ZeroDivisionError("divisor is not certified away from zero")
    exact = a.value() / b.value()
    err = (a.error_bound + abs(exact) * b.error_bound) / b_low
    out = from_fraction(exact, scale)
    return FixedReal(out.mantissa, scale, out.error_bound + err)


def fx_sqrt(a: FixedReal, scale: int) -> FixedReal:
    """Square root; requires a certifiably nonnegative lower bound > 0."""
    v = a.value()
    low = v - a.error_bound
    if low <= 0:
        raise ValueError("sqrt needs a value certified positive")
    num = v.numerator * 10 ** (2 * scale)
    m = isqrt(num // v.denominator)
    rep = Fraction(m, 10**scale)
    rep_err = abs(rep * rep - v) / (2 * rep)  # |sqrt(v) - rep| <= |v - rep^2| / (2 rep)
    prop_err = a.error_bound / (2 * _sqrt_lower(low))
    return FixedReal(m, scale, rep_err + prop_err)


def _sqrt_lower(v: Fraction) -> Fraction:
    """A positive rational lower bound for sqrt(v), v > 0."""
    scale = 10**12
    m = isqrt(v.numerator * scale * scale // v.denominator)
    return Fraction(max(m - 1, 1), scale)


def is_definitely_positive(x: FixedReal) -> bool:
    return x.value() - x.error_bound > 0


def is_definitely_negative(x: FixedReal) -> bool:
    return x.value() + x.error_bound < 0


def pi_fixed(digits: int) -> FixedReal:
    """pi by Machin's formula, pi = 16 atan(1/5) - 4 atan(1/239), with the
    alternating-series tail absorbed into the error bound."""
    w = digits + 10
    unit = 10**w

    def atan_inv(q: int) -> tuple[int, int]:
        total = 0
        qq = q * q
        power = unit // q  # floor of 10^w / q^(2i+1), i = 0
        i = 0
        terms = 0
        while power:
            term = power // (2 * i + 1)
            total += -term if i % 2 else term
            power //= qq
            i += 1
            terms += 1
        return total, terms + 2  # one truncation ulp per term plus tail

    a5, e5 = atan_inv(5)
    a239, e239 = atan_inv(239)
    mant = 16 * a5 - 4 * a239
    err = Fraction(16 * e5 + 4 * e239, unit)
    return rescale(FixedReal(mant, w, err), digits + 4)


# --- certified series evaluation --------------------------------------------

_MU_CACHE: list[int] = []


def _mu(upto: int) -> list[int]:
    global _MU_CACHE
    if len(_MU_CACHE) <= upto:
        _MU_CACHE = mobius_upto(max(upto, 2 * len(_MU_CACHE), 64))
    return _MU_CACHE


def _tail(d: int, n: int, r: Fraction) -> Fraction:
    """Exact tail sum_{k>n} k(k-1)...(k-d+1) r^(k-d) of the d-th derivative
    of the geometric series, for 0 <= r < 1: with N = n + 1, by Leibniz on
    r^N / (1-r), d! sum_{j=0..d} C(N, d-j) r^(N-d+j) / (1-r)^(j+1).

    Summed in integers over one common denominator: with r = p/q and
    t = q - p, the tail is

        d! sum_j C(N, d-j) p^(N-d+j) t^(d-j) / (q^(N-d-1) t^(d+1)),

    j from max(0, d - N), where C(N, d-j) stops vanishing, and the power
    of q moves to the numerator when N - d - 1 < 0."""
    big_n = n + 1
    p, q = r.numerator, r.denominator
    t = q - p
    j0 = max(0, d - big_n)
    num = factorial(d) * p ** (big_n - d + j0) * sum(
        comb(big_n, d - j) * p ** (j - j0) * t ** (d - j) for j in range(j0, d + 1)
    )
    e = big_n - d - 1
    return Fraction(num * q ** max(0, -e), q ** max(0, e) * t ** (d + 1))


def _coerce(x, scale: int) -> FixedReal:
    if isinstance(x, FixedReal):
        return rescale(x, scale)
    return from_fraction(Fraction(x), scale)


def _radius_bound(x: FixedReal) -> Fraction:
    r = x.magnitude_bound()
    if r > RADIUS_LIMIT:
        raise ValueError(f"|x| <= {RADIUS_LIMIT} required, got about {float(r):.4f}")
    return r


def _ceil_div(a: int, b: int) -> int:
    """Smallest integer >= a/b; b > 0."""
    return -(-a // b)


def _round_up(r: Fraction, places: int = 4) -> Fraction:
    q = 10**places
    return Fraction(_ceil_div(r.numerator * q, r.denominator), q)


@lru_cache(maxsize=1024)
def _pick_terms(d: int, r_up: Fraction, target: Fraction) -> int:
    """Terms to sum so that the tail bound of M^(d) is at most target: the
    least n = 4 + 8j with _tail(d, n, r_up) <= target.

    A pure function of its arguments, so it is memoized: root finding
    evaluates many points of one rounded radius at one precision.  The
    tail never grows with n (it loses a nonnegative term per step), so a
    miss gallops over j = 0, 1, 3, 7, ... until the tail is small enough
    and bisects the last gap: O(log j) exact Fraction tails, not j + 1."""
    if r_up == 0:
        return max(2, d)

    def small(j: int) -> bool:
        return _tail(d, 4 + 8 * j, r_up) <= target

    # the least good j is in (lo, hi]: small(lo) is false (lo = -1 stands
    # for "none tried") and small(hi) is true
    lo, hi, step = -1, 0, 1
    while not small(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if small(mid):
            hi = mid
        else:
            lo = mid
    return 4 + 8 * hi


def _eval_derivative(d: int, x, digits: int) -> FixedReal:
    """Certified fixed-point sum of M^(d)(x) = sum k(k-1)...(k-d+1) mu(k) x^(k-d)."""
    if digits < 0:
        raise ValueError(f"need digits >= 0, got {digits}")
    w = digits + 16
    xf = _coerce(x, w)
    r = _radius_bound(xf)
    r_up = min(_round_up(r), RADIUS_LIMIT)
    target = Fraction(1, 10 ** (digits + 4))
    n = _pick_terms(d, r_up, target)
    mu = _mu(n)

    unit = 10**w
    xm = xf.mantissa
    xe = int(xf.error_bound * unit) + (1 if xf.error_bound else 0)  # ulps, rounded up
    xa = abs(xm) + xe

    # running power x^(k - d), advanced by one multiplication per term;
    # exponent 0 is exactly 1
    k0 = max(1, d)
    p, pe = (xm, xe) if d == 0 else (unit, 0)
    acc, acc_e = 0, 0
    for k in range(k0, n + 1):
        if k > k0:
            pe = (xa * pe + abs(p) * xe) // unit + 2
            p = _round_div(p * xm, unit)
        if mu[k]:
            c = perm(k, d)
            acc += c * mu[k] * p
            acc_e += c * pe
    return FixedReal(acc, w, Fraction(acc_e, unit) + _tail(d, n, r_up))


def eval_M(x, digits: int) -> FixedReal:
    """M(x) = sum mu(k) x^k with certified truncation and rounding error."""
    return _eval_derivative(0, x, digits)


def eval_Mprime(x, digits: int) -> FixedReal:
    return _eval_derivative(1, x, digits)


def eval_Mdoubleprime(x, digits: int) -> FixedReal:
    return _eval_derivative(2, x, digits)


# --- certified root finding ---------------------------------------------------


def _newton_refine(d: int, seed: int, digits: int) -> int:
    """Newton iteration on M^(d) from the mantissa seed at scale 12, with
    the working scale doubled after every two steps; returns the root
    mantissa at scale digits (not yet certified)."""
    target = digits + 6
    w = min(12, target)
    x = _round_div(seed, 10 ** (12 - w))
    while True:
        w_next = min(2 * w, target)
        x *= 10 ** (w_next - w)
        w = w_next
        for _ in range(2):
            f = _eval_derivative(d, FixedReal(x, w), w - 8).mantissa
            fp = _eval_derivative(d + 1, FixedReal(x, w), w - 8).mantissa
            # both mantissas share the scale w + 16 used inside _eval_derivative
            x -= _round_div(f * 10**w, fp)
        if w == target:
            break
    return _round_div(x, 10 ** (w - digits))


def _certified_root(d: int, lo: Fraction, hi: Fraction, digits: int) -> FixedReal:
    """Zero of M^(d) in the bracket [lo, hi] with error certified by a sign
    change over [root - delta, root + delta].

    Newton is seeded by bisecting [lo, hi] on the sign of the certified
    M^(d) at scale 12 until the bracket is one ulp wide, so the bracket
    must hold exactly one sign change."""
    if digits < 1:
        raise ValueError(f"need digits >= 1, got {digits}")

    def negative(m: int) -> bool:
        return _eval_derivative(d, FixedReal(m, 12), 10).mantissa < 0

    a, b = round(lo * 10**12), round(hi * 10**12)
    neg_a = negative(a)
    if neg_a == negative(b):
        raise ArithmeticError(f"no sign change of M^({d}) in [{lo}, {hi}]")
    while abs(b - a) > 1:
        mid = (a + b) // 2
        if negative(mid) == neg_a:
            a = mid
        else:
            b = mid
    scale = digits + 4
    mant = _newton_refine(d, a, scale)
    delta_exp = digits + 2
    while delta_exp >= digits:
        delta = 10 ** (scale - delta_exp)
        left = _eval_derivative(d, FixedReal(mant - delta, scale), digits + 8)
        right = _eval_derivative(d, FixedReal(mant + delta, scale), digits + 8)
        neg_left, pos_left = is_definitely_negative(left), is_definitely_positive(left)
        neg_right, pos_right = is_definitely_negative(right), is_definitely_positive(right)
        if (neg_left and pos_right) or (pos_left and neg_right):
            return FixedReal(mant, scale, Fraction(1, 10**delta_exp))
        delta_exp -= 1  # widen the bracket tenfold and retry
    raise ArithmeticError(f"could not certify the zero of M^({d}) to {digits} digits")


def find_tau(digits: int) -> FixedReal:
    """The positive zero of M', certified to the requested digits."""
    return _certified_root(1, Fraction(1, 20), Fraction(33, 50), digits)


def find_beta(digits: int) -> FixedReal:
    """The negative zero of M', certified to the requested digits."""
    return _certified_root(1, Fraction(-1, 20), Fraction(-33, 50), digits)


def find_alpha(digits: int) -> FixedReal:
    """The positive zero of M: the radius of convergence of u/M(u),
    certified to the requested digits.  For u > 0, M(u) = u G(u) with
    G(u) = M(u)/u, so M and G have the same sign and the same zeros."""
    return _certified_root(0, Fraction(1, 20), Fraction(17, 25), digits)


# --- the growth constants -----------------------------------------------------


@dataclass(frozen=True)
class AsymptoticConstants:
    """Certified values driving the c * gamma^k * k^(-3/2) growth law."""

    tau: FixedReal
    rho: FixedReal
    gamma: FixedReal
    c: FixedReal
    d1: FixedReal
    m2tau: FixedReal

    def as_dict(self) -> dict[str, FixedReal]:
        return {
            "tau": self.tau,
            "rho": self.rho,
            "gamma": self.gamma,
            "c": self.c,
            "d1": self.d1,
            "m2tau": self.m2tau,
        }


def constants(digits: int) -> AsymptoticConstants:
    """tau, rho = M(tau), gamma = 1/rho, d1 = sqrt(-2 rho / M''(tau)),
    c = d1 / (2 sqrt(pi)), and M''(tau), all certified to <= 10^-digits."""
    if digits < 1:
        raise ValueError(f"need digits >= 1, got {digits}")
    inner = digits + 8
    scale = digits + 6
    tau = find_tau(inner)
    rho = rescale(eval_M(tau, inner), scale)
    m2 = rescale(eval_Mdoubleprime(tau, inner), scale)
    gamma = fx_div(from_fraction(1, scale), rho, scale)
    two = from_fraction(2, scale)
    d1 = fx_sqrt(fx_div(fx_mul(fx_neg(two), rho, scale), m2, scale), scale)
    sqrt_pi = fx_sqrt(pi_fixed(inner), scale)
    c = fx_div(d1, fx_mul(two, sqrt_pi, scale), scale)
    result = AsymptoticConstants(tau=tau, rho=rho, gamma=gamma, c=c, d1=d1, m2tau=m2)
    limit = Fraction(1, 10**digits)
    for name, v in result.as_dict().items():
        if v.error_bound > limit:
            raise ArithmeticError(f"{name} certified only to {float(v.error_bound):.2e}")
    return result


# --- convergence diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class RatioRow:
    k: int
    ratio: float
    gap: float  # |ratio - target|


@dataclass(frozen=True)
class RatioReport:
    target: float
    rows: tuple[RatioRow, ...]


def _ratio_report(k_max: int, count, target_of) -> RatioReport:
    """Rows count(table, k) * k^(3/2) / gamma^k for k = 1..k_max against
    target_of(constants(40)), with the count table filled to k_max.

    gamma^k is a float, so a k_max whose gamma^k_max overflows one is
    refused before the table is filled."""
    cs = constants(40)
    gamma = float(cs.gamma.value())
    try:
        gamma**k_max
    except OverflowError:
        raise ValueError(f"gamma^k overflows a float at k = {k_max}") from None
    table = count_size_gcd(k_max)
    target = target_of(cs)
    rows = []
    for k in range(1, k_max + 1):
        ratio = count(table, k) * k**1.5 / gamma**k
        rows.append(RatioRow(k, ratio, abs(ratio - target)))
    return RatioReport(target, tuple(rows))


def ratio_check(k_max: int) -> RatioReport:
    """a_k * k^(3/2) / gamma^k against its limit c, for k = 1..k_max.

    Counts are the row sums of count_size_gcd, which reads its table off
    the powers of A, so a_k here is the reversion coefficient itself.
    """
    return _ratio_report(k_max, CountTable.row_sum, lambda cs: float(cs.c.value()))


def gcd_ratio_check(k_max: int, m: int) -> RatioReport:
    """a_{k,m} * k^(3/2) / gamma^k against m tau^(m-1) M'(tau^m) c."""
    if m < 1:
        raise ValueError("need m >= 1")

    def target(cs: AsymptoticConstants) -> float:
        digits = 40
        scale = digits + 6
        tau_pow = from_fraction(1, scale)  # tau^(m-1)
        for _ in range(m - 1):
            tau_pow = fx_mul(tau_pow, cs.tau, scale)
        tau_m = fx_mul(tau_pow, cs.tau, scale)  # tau^m
        weight = fx_mul(
            fx_mul(from_fraction(m, scale), tau_pow, scale),
            eval_Mprime(tau_m, digits),
            scale,
        )
        return float(fx_mul(weight, cs.c, scale).value())

    return _ratio_report(k_max, lambda t, k: t.get(k, m), target)


# --- identity battery ----------------------------------------------------------


@dataclass(frozen=True)
class IdentityResult:
    name: str
    point: str
    residual_bound: Fraction  # certified upper bound on |lhs - rhs|


@dataclass(frozen=True)
class IdentityReport:
    results: tuple[IdentityResult, ...]

    def worst(self) -> Fraction:
        return max(r.residual_bound for r in self.results)


def _lambert_tails(m: int, r_up: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds on the tails over m' > m of the Lambert sum and of the
    derivative sum, for |x| <= r_up.

    |M(y)| <= |y|/(1-|y|) <= 2|y| for |y| <= 1/2, so the first is at most
    2 sum r^m'; |M'(y)| <= 1/(1-|y|)^2 <= 12 on the working disc, so the
    second is at most 12 sum m' r^(m'-1).  r <= 0.71 keeps both geometric."""
    return 2 * _tail(0, m, r_up), 12 * _tail(1, m, r_up)


def _lambert_terms(r_up: Fraction, target: Fraction) -> int:
    """Terms to sum so that both tails of _lambert_tails fit the target."""
    m = 4
    while max(_lambert_tails(m, r_up)) > target:
        m += 4
    return m


def identity_checks(digits: int) -> IdentityReport:
    """Certified residuals of three Mobius-series identities.

    At tau and at 3/10 and 1/2:
      lambert:          sum_m M(x^m) = x
      derivative-sum:   sum_m m x^(m-1) M'(x^m) = 1
    and at tau only, where M'(tau) = 0 removes the m = 1 term:
      gcd-weights:      sum_{m>=2} m tau^(m-1) M'(tau^m) = 1
    The sums stop at the first multiple of 4 terms where both the Lambert
    tail and the derivative tail are at most half of 10^-(digits+2), which
    leaves the other half for rounding; each residual bound includes all
    rounding, input and tail error.

    The sums run on integers: values are exact mantissas, and every error
    is a whole number of ulps of the grid 10^-places, places = digits + 44.
    Each error term (a product's rounding and propagated errors, the bound
    of each M and M' value, the two tails) is rounded up onto the grid, so
    every bound is at least the exact rational bound and stays certified,
    while its size stays O(digits) however many terms are summed.  The
    mantissas are those of fixed-point arithmetic at the working scale.
    """
    inner = digits + 6
    scale = inner + 8
    places = scale + 30
    unit = 10**places
    to_grid = 10 ** (places - scale)
    tau = find_tau(inner + 4)
    sample = [("tau", rescale(tau, scale))] + [
        (str(p), from_fraction(p, scale)) for p in (Fraction(3, 10), Fraction(1, 2))
    ]
    target = Fraction(1, 10 ** (digits + 2))

    def ulps(e: Fraction) -> int:
        return _ceil_div(e.numerator * unit, e.denominator)

    def mul(a: int, ae: int, b: int, be: int, b_scale: int) -> tuple[int, int]:
        # a / 10^scale times b / 10^b_scale, rounded to the scale as fx_mul
        # rounds, with errors ae and be in ulps; the product's error is the
        # rounding plus |a| be + |b| ae + ae be, each term rounded up
        b_unit = 10**b_scale
        q = _round_div(a * b, b_unit)
        err = (
            _ceil_div(abs(q * b_unit - a * b) * to_grid, b_unit)
            + _ceil_div(abs(a) * be, 10**scale)
            + _ceil_div(abs(b) * ae, b_unit)
            + _ceil_div(ae * be, unit)
        )
        return q, err

    results = []
    for label, x in sample:
        r_up = _round_up(x.magnitude_bound())
        m_terms = _lambert_terms(r_up, target / 2)  # the other half is for rounding

        # each sum is a mantissa at the grid plus its error in grid ulps
        xm, xe = x.mantissa, ulps(x.error_bound)
        lam, lam_e = -xm * to_grid, xe
        deriv = gcdw = -unit
        deriv_e = gcdw_e = 0
        p, pe = 10**scale, 0  # x^(m-1) at the scale
        for m in range(1, m_terms + 1):
            q, qe = mul(p, pe, xm, xe, scale)  # x^m
            x_m = FixedReal(q, scale, Fraction(qe, unit))
            v = eval_M(x_m, inner)
            lam += v.mantissa * 10 ** (places - v.scale)
            lam_e += ulps(v.error_bound)
            v = eval_Mprime(x_m, inner)
            dterm, dterm_e = mul(m * p, m * pe, v.mantissa, ulps(v.error_bound), v.scale)
            deriv += dterm * to_grid
            deriv_e += dterm_e
            if label == "tau" and m >= 2:
                gcdw += dterm * to_grid
                gcdw_e += dterm_e
            p, pe = q, qe

        lam_tail, deriv_tail = map(ulps, _lambert_tails(m_terms, r_up))
        sums = [("lambert", lam, lam_e + lam_tail), ("derivative-sum", deriv, deriv_e + deriv_tail)]
        if label == "tau":
            sums.append(("gcd-weights", gcdw, gcdw_e + deriv_tail))
        for name, total, err in sums:
            results.append(IdentityResult(name, label, Fraction(abs(total) + err, unit)))
    return IdentityReport(tuple(results))
