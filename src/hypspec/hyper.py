"""Numerical Gauss hypergeometric function on the negative real axis.

Every 2F1 that hypspec evaluates is the factor of a Green kernel at
z = -1/sinh^2 r, so gauss_2f1 takes complex parameters a, b, c and a
real z <= 0 only; any other z (z > 0, Im z != 0 or NaN) raises
DomainError.

Each point is summed at the smaller convergent argument (modulus at
most _THRESHOLD = 0.9) of z/(z-1) (the Pfaff map, in [0, 1) on the
axis) and 1/z (the z -> 1/z connection); the defining series at z never
wins, since |z/(z-1)| < |z| for z < 0.  1/z competes only from |z| = 3
(_INF_EDGE): on 1500 random negative-axis points with parameters in
[-6, 6] + [-4, 4]i the worst error against mpmath was 5.9e-11 with the
edge at 3 and 5.4e-10 at the golden ratio, where 1/z first beats Pfaff.
So: Pfaff for 0 < |z| < 3 (|z/(z-1)| < 0.75), 1/z for |z| >= 3
(|1/z| <= 1/3).  Where 1 - z rounds to 1 (|z| <= 2^-53) the Pfaff
factor (1-z)^(-a) is 1, a relative error of about |a| 2^-53, as the
rounding of 1 - z costs just above.

When a - b is within 1e-8 of an integer the 1/z connection is the exact
logarithmic series, the limit of the generic formula.  It reads the
upper parameter as given and 1/Gamma of the lower one from it, so where
both lie near poles of Gamma their distances to them stay equal;
rebuilding the upper one as lower + m moved its distance by an ulp of
m, which put F, F' or F'' off by up to 9e-4 against mpmath on 300 random
draws (distances 1e-13 to 1e-3, |z| from 3 to 1e4), where now the worst
is 1.8e-14.  c - b, whose poles the series meets term by term, snaps to
an integer only within 1e-15: at 1e-8 the snap alone cost 0.58 times
the offset (a = 1e-8, b = a - 1, c = 1).  Gaps 1e-8 to 1e-2 from an
integer (_NEAR_INT_BAND) go through the generic connection, whose two
Gamma(+-(a-b)) terms then cancel digits, the more the closer the gap is
to the snap (worst against mpmath 1.3e-7, gap 1.1e-8, |z| = 62); in
that band it is used only where the Pfaff series diverges (|z| > 9).

An a or b within 1e-15 of a non-positive integer, machine precision at
these magnitudes, is summed as the terminating polynomial.  Farther off
the branches above take it: against mpmath, a within 3e-14 to 5e-9 of
0, -1, -2 or -3 with gaps b - a of 0.37, 0.5, 1 and 2 and z from -0.3
to -200 came within 8.6e-15, and within 2.7e-12 with both a and b that
near non-positive integers.  A wider snap truncates series that do not
terminate: at 1e-8 it put a = -2 + 5e-9, b = 5e-9, z = -200 off by
6.7e-5.  c keeps the 1e-8 guard: a c that close to a pole raises
PoleOfGamma.

Every branch sums power series with z-independent coefficients: the
Pfaff series in w = z/(z-1), the generic connection's two series in
1/z, the logarithmic series in 1/z (its terms before the poles carry
log(-z) next to a digamma combination) with its finite part, and the
terminating polynomial.  One _Triple per parameter triple, in one LRU
cache of _CACHE_SIZE entries, holds what the branch rule reads of
(a, b, c) and, built on first use, each series' table (_Table), grown
on demand from its coefficient rows to the terms the current point
needs, capped at _MAX_TERMS (_Table.grow): a first call builds about
what it sums and later points only read.
_gauss_2f1_core is the one entry, for a scalar z or a real 1-d array of
z: it states the branch rule once and hands the branch helpers one
summation, _sum for a scalar or _sum_many for an array, which sums the
points of a branch together, each leaving at the term where _sum would.

A series stops neither before k passes -Re p for each of its
parameters p with Re p < 0 (_first) nor while its terms still grow
(|ratio_k x| >= 1): before that its terms can fall below the stop test
and grow again (at c = -99.3, the R^256 kernel at s = -100.3, a stop
there left the value 28 orders of magnitude off).  Each sum also
returns U, the moduli of its terms, and err 2^-53, err being U times
the branch's prefactors, estimates the rounding error of the value; it
is not a bound.  Against mpmath at 40 digits, on 1195 accepted random
points the true error passed it at 84% of them, by up to 520 times,
but never passed 5.9e-14 (err leaves out the prefactor powers, the
Gamma values and the rounding of each term's product); on 120 draws
over negative c whose estimate lay between 1e-10 and 1e-7 of |F| the
true error was at most 0.44 of it.  So the core raises NumericalError
where the estimate passes 1e-7 of the value (_CANCEL), and terms that
cancel to noise are not returned as a value.

The first two z-derivatives come from the same pass (_gauss_2f1_core at
order 2), term by term: the termwise form of d/dz 2F1(a, b; c; z) =
(ab/c) 2F1(a+1, b+1; c+1; z), never the hypergeometric equation.  Term
k of F' and F'' is that of F times g_k = (a+k)(b+k)/(c+k) and
g_k g_(k+1) for the polynomial and the generic connection's series
(the terms (k+1) t_(k+1)/z and (k+2)(k+1) t_(k+2)/z^2, nothing divided
by z), and times (a+k)/(c+k) and its product with the next for the
Pfaff series, which the Pfaff map takes to F' and F''.  The 1/z
connections differentiate their powers (-z)^(-e-k) in closed form; the
logarithmic series raises psi(a+m+k) to psi(a+m+k+1) and psi(a+m+k+2),
which absorbs the derivative of the logarithm.  A series stops only
when all three sums have converged.

The Gamma functions that the connections and the Green kernel's
constants need (_gamma, _rgamma, _digamma, _loggamma) are computed here
for complex scalars, so no 2F1 or Green path imports a special-function
library.  Against mpmath (|Re z| <= 60, |Im z| <= 40, and within 1e-12
of the poles) the worst errors were 7.5e-14 relative for Gamma and
1/Gamma, 7.2e-14 for log Gamma read through its exponential, and 1.8e-15
for psi relative to max(1, |psi|).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys

import numpy as np

from .errors import DomainError, NoConvergence, NumericalError, PoleOfGamma

__all__ = ["gauss_2f1"]

# every series stops at the first term below _SERIES_TOL relative to its
# partial sum (see _Table), or raises NoConvergence after _MAX_TERMS terms
_SERIES_TOL = 1e-14
_LOG_TOL = math.log(_SERIES_TOL)
_MAX_TERMS = 10000
# a 2F1 whose estimate of the rounding error of its sums, err 2^-53 (err
# the moduli of the terms, times the branch's prefactors), passes 1e-7 of
# its value raises NumericalError.  The estimate was at most 12 times the
# rounding unit over the benchmark workloads and 1.6e6 times over the
# test suite; a 1e-6 limit let errors of 1.6e-7 through.
_CANCEL = 1e-7 * 2.0 ** 53
_NORMAL = sys.float_info.min  # the smallest normal float64
# largest |argument| at which a series is summed
_THRESHOLD = 0.9
_INT_SNAP = 1e-8
# a or b this close to a non-positive integer is summed as a polynomial
_TERMINATING_SNAP = 1e-15
# |z| from which the z -> 1/z connection competes with the power series
_INF_EDGE = 3.0
# a - b this close to an integer, but outside the snap, makes the generic
# 1/z connection cancel digits
_NEAR_INT_BAND = 1e-2
# parameter triples the triple cache keeps.  A kernel table uses one
# triple for all its radii; the most distinct triples measured over a
# whole benchmark run are 6 (orbit-delta's kernels), so 16 holds every
# working set seen with room for interleaved callers.
_CACHE_SIZE = 16


# Gamma, 1/Gamma, psi and log Gamma of complex scalars (DLMF 5.5.3,
# 5.11.1, 5.11.2, 5.15.8).  Re z < 1/2 is reflected to 1 - z; Re z >= 1/2
# is shifted up to |z| >= _STIRLING_EDGE, where the first term of
# Stirling's series left out (the 13th) is about 6e-20.  Gamma, 1/Gamma
# and log Gamma of a real argument go through math.gamma or math.lgamma.
# At the non-positive integers 1/Gamma is 0 and the others NaN; a Gamma
# past the float64 range is inf (with a NaN phase off the real axis).
_STIRLING_EDGE = 8.0
# past this |Im z|, sin(pi z) passes the float64 range and is taken as its
# exponential part, a relative error below e^(-2 pi 200)
_SINPI_EDGE = 200.0
_LOG_PI = math.log(math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_NAN = complex(math.nan, math.nan)
_OVERFLOW = complex(math.inf, math.nan)


def _log_sinpi(z: complex) -> complex:
    """log sin(pi z) up to a multiple of 2 pi i.  Re z is first reduced to
    r in [-1/2, 1/2], which is exact, so next to an integer the value
    keeps its digits (pi z itself is rounded by an ulp of z)."""
    n = round(z.real)
    r, y = z.real - n, z.imag
    if abs(y) < _SINPI_EDGE:
        v = cmath.log(cmath.sin(complex(math.pi * r, math.pi * y)))
    else:  # sin w = (i/2) e^(-iw) (1 - e^(2iw)) for Im w > 0, conjugated for Im w < 0
        v = complex(math.pi * abs(y) - math.log(2.0), math.copysign(math.pi * (0.5 - r), y))
    return v + complex(0.0, math.pi * (n % 2))  # sin(pi z) = (-1)^n sin(pi r)


def _log_gamma(z: complex) -> complex:
    """log Gamma(z) off the poles, up to a multiple of 2 pi i."""
    if z.real < 0.5:
        return _LOG_PI - _log_sinpi(z) - _log_gamma(1.0 - z)
    prod = 1.0
    while abs(z) < _STIRLING_EDGE:
        prod *= z
        z += 1.0
    r = 1.0 / z
    r2 = r * r
    # B_2k / (2k (2k-1)) r^(2k-1), k = 1..12
    series = r * (1 / 12 + r2 * (-1 / 360 + r2 * (1 / 1260 + r2 * (-1 / 1680 + r2 * (
        1 / 1188 + r2 * (-691 / 360360 + r2 * (1 / 156 + r2 * (-3617 / 122400 + r2 * (
            43867 / 244188 + r2 * (-174611 / 125400 + r2 * (854513 / 63756 + r2 * (
                -236364091 / 1506960))))))))))))
    lg = (z - 0.5) * (cmath.log(z) - 1.0) + (_HALF_LOG_2PI - 0.5) + series
    return lg if prod == 1.0 else lg - cmath.log(prod)


def _exp(w: complex) -> complex:
    try:
        return cmath.exp(w)
    except OverflowError:
        return _OVERFLOW


def _is_pole(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _gamma(z: complex) -> complex:
    if z.imag == 0.0:
        try:
            return complex(math.gamma(z.real))
        except ValueError:  # a pole
            return _NAN
        except OverflowError:
            pass
    return _exp(_log_gamma(z))


def _rgamma(z: complex) -> complex:
    if _is_pole(z):
        return 0j
    if z.imag == 0.0:
        try:
            g = math.gamma(z.real)
            if g:  # not underflowed
                return complex(1.0 / g)
        except OverflowError:
            pass
    return _exp(-_log_gamma(z))


def _loggamma(z: complex) -> complex:
    """Principal-branch log Gamma up to a multiple of 2 pi i: every caller
    takes its exponential."""
    if z.imag == 0.0:
        x = z.real
        try:
            v = math.lgamma(x)
        except ValueError:  # a pole
            return _NAN
        except OverflowError:
            return complex(math.inf)
        # Gamma(x) < 0 where floor(x) is negative and odd
        return complex(v, math.pi if x < 0.0 and math.floor(x) % 2 else 0.0)
    return _log_gamma(z)


def _digamma(z: complex) -> complex:
    if _is_pole(z):
        return _NAN
    psi = 0j
    if z.real < 0.5:  # psi(z) = psi(1 - z) - pi cot(pi z)
        r, y = z.real - round(z.real), z.imag
        if abs(y) < _SINPI_EDGE:
            w = complex(math.pi * r, math.pi * y)
            psi -= math.pi * cmath.cos(w) / cmath.sin(w)
        else:  # cot(pi z) -> -i sign(Im z)
            psi += complex(0.0, math.copysign(math.pi, y))
        z = 1.0 - z
    while abs(z) < _STIRLING_EDGE:
        psi -= 1.0 / z
        z += 1.0
    r = 1.0 / z
    r2 = r * r
    # B_2k / (2k) r^(2k), k = 1..12
    series = r2 * (1 / 12 + r2 * (-1 / 120 + r2 * (1 / 252 + r2 * (-1 / 240 + r2 * (
        1 / 132 + r2 * (-691 / 32760 + r2 * (1 / 12 + r2 * (-3617 / 8160 + r2 * (
            43867 / 14364 + r2 * (-174611 / 6600 + r2 * (854513 / 3036 + r2 * (
                -236364091 / 65520))))))))))))
    return psi + cmath.log(z) - 0.5 * r - series


def _near_nonpositive_int(z: complex, tol: float = _INT_SNAP) -> bool:
    zr = round(z.real)
    return zr <= 0 and abs(z - zr) < tol


def _near_int(z: complex, tol: float = _INT_SNAP) -> int | None:
    zr = round(z.real)
    if abs(z - zr) < tol:
        return zr
    return None


def _factorial(k: int) -> tuple[float, int]:
    """k! as f 2^e, with e = 0 (f = float(k!)) up to 170!, the last
    factorial in the float64 range."""
    big = math.factorial(k)
    e = max(big.bit_length() - 1020, 0)
    return float(big >> e), e


def _ldexp(v: complex, e: int) -> complex:
    return complex(math.ldexp(v.real, e), math.ldexp(v.imag, e))


def _in_near_int_band(d: complex) -> bool:
    return _INT_SNAP <= abs(d - round(d.real)) < _NEAR_INT_BAND


class _Table:
    """The z-independent coefficients of one series, grown on demand from
    an iterator of rows (ratio, w1, w2) or, for the logarithmic series,
    (ratio, w1, w2, c0, c1, c2).  At its argument x, P_0 = 1 and
    P_(k+1) = P_k ratio[k] x; term k of F is P_k, of F' P_k w1[k] and of
    F'' P_k w2[k], and for k < pole_from P_k (L + c0[k]),
    P_k w1[k] (L + c1[k]) and P_k w2[k] (L + c2[k]), L = log(-z).  A sum
    stops at the first term from `first` on at most
    _SERIES_TOL max(|partial sum|, floor) in every sum it keeps, after
    which the terms shrink (|ratio[k] x| < 1)."""

    def __init__(self, rows, pole_from=0, first=0, floor=1.0):
        self._rows = rows
        self.pole_from, self.first, self.floor = pole_from, first, floor
        self.ratio, self.w1, self.w2, self.c0, self.c1, self.c2 = [], [], [], [], [], []

    def grow(self, k: int, limit: int, ax: float) -> int:
        """The number of terms summable past term k, at most limit.  A
        table that ends at k is first extended to the terms a geometric
        series at |x| = ax needs, and by at least max(4, k // 4)."""
        if len(self.ratio) <= k:
            need = limit if ax >= 1.0 else 2 + int(_LOG_TOL / math.log(ax)) if ax else 2
            n = min(limit, max(need, k + max(4, k // 4)))
            rows = itertools.islice(self._rows, n - len(self.ratio))
            columns = self.ratio, self.w1, self.w2, self.c0, self.c1, self.c2
            for column, values in zip(columns, zip(*rows)):
                column += values
        return min(len(self.ratio), limit)


def _first(least: int, *params: complex) -> int:
    """The first term at which a series may stop: from `least` on and past
    k = -Re p for each parameter p of its ratios with Re p < 0, before
    which its terms can fall below the stop test and grow again."""
    return max([least] + [math.ceil(-p.real) + 1 for p in params if p.real < 0])


def _power_rows(a: complex, b: complex, c: complex, raised: bool):
    """(ratio, w1, w2) of term k = 0, 1, ... of the series sum_k t_k x^k
    of 2F1(a, b; c; x): ratio[k] = (a+k)(b+k)/((c+k)(k+1)), with
    derivative weights g_k = (a+k)(b+k)/(c+k) and g_k g_(k+1) (those of
    F' and F''), or, when raised (the Pfaff series), q_k = (a+k)/(c+k)
    and q_k q_(k+1)."""
    k = 0
    g = (a + k) / (c + k) if raised else (a + k) * (b + k) / (c + k)
    while True:
        k1 = k + 1
        g1 = (a + k1) / (c + k1) if raised else (a + k1) * (b + k1) / (c + k1)
        yield (a + k) * (b + k) / ((c + k) * k1), g, g * g1
        k, g = k1, g1


def _power_series(a: complex, b: complex, c: complex, raised: bool = False) -> _Table:
    """The table of the series of 2F1(a, b; c; x) (_power_rows)."""
    return _Table(_power_rows(a, b, c, raised), first=_first(0, a, b, c))


def _log_rows(m: int, b: complex, x: complex, psi, pole_from):
    """(ratio, w1, w2, c0, c1, c2) of term k = 0, 1, ... of the
    logarithmic series (see _Triple.log)."""
    if psi is not None:
        # psi(k+1), psi(m+k+1), psi(y), psi(y+1), psi(y+2), psi(x)
        psi_k, psi_mk, psi_b, psi_b1, psi_b2, psi_x = psi
    combos = (0j, 0j, 0j)  # unread from the poles on
    for k in itertools.count():
        y = b + k
        if k < pole_from:
            combos = (psi_k + psi_mk - psi_b - psi_x, psi_k + psi_mk - psi_b1 - psi_x,
                      psi_k + psi_mk - psi_b2 - psi_x)
        r = -y / ((m + k + 1.0) * (k + 1.0))
        x -= 1.0
        if k + 1 != pole_from:  # at x = 0 the limit is 1 = 1/Gamma(1)
            r *= x
        if k + 1 < pole_from:
            psi_k += 1.0 / (k + 1.0)
            psi_mk += 1.0 / (m + k + 1.0)
            psi_b += 1.0 / y
            psi_b1 += 1.0 / (y + 1.0)
            psi_b2 += 1.0 / (y + 2.0)
            psi_x -= 1.0 / x
        yield (r, y, y * (y + 1.0)) + combos


class _Triple:
    """One parameter triple (a, b, c): what the branch rule reads of it
    (c at a pole of Gamma, the degree of the terminating polynomial or
    None, a - b in the near-integer band, and (lower parameter, integer
    gap, upper parameter) when a - b snaps to an integer, else None) and,
    built on first use, the table of each series summed at it."""

    def __init__(self, a: complex, b: complex, c: complex):
        self.a, self.b, self.c = a, b, c
        self.pole = _near_nonpositive_int(c)
        # the polynomial ends at the first of a, b at a non-positive integer
        ends = [-m for m in (_near_int(a, _TERMINATING_SNAP), _near_int(b, _TERMINATING_SNAP))
                if m is not None and m <= 0]
        self.degree = min(ends, default=None)
        self.band = _in_near_int_band(a - b)
        hi, lo = (b, a) if (b - a).real >= 0 else (a, b)
        m = _near_int(hi - lo)
        self.gap = None if m is None else (lo, m, hi)

    @functools.cached_property
    def pfaff(self) -> _Table:
        """The Pfaff series 2F1(a, c-b; c; w), with raised weights."""
        return _power_series(self.a, self.c - self.b, self.c, True)

    @functools.cached_property
    def polynomial(self) -> _Table:
        return _power_series(self.a, self.b, self.c)

    @functools.cached_property
    def generic(self):
        """(Gamma product, exponent e, table) of each term of the generic
        1/z connection, a power series in 1/z times (-z)^(-e), e = a or b."""
        a, b, c = self.a, self.b, self.c
        # as two ratios, whose product neither underflows nor overflows
        # where the Gamma values themselves are far out (c = b = -100.5)
        g = _gamma(c)
        return ((g * _rgamma(b) * (_gamma(b - a) * _rgamma(c - a)), a,
                 _power_series(a, a - c + 1, a - b + 1)),
                (g * _rgamma(a) * (_gamma(a - b) * _rgamma(c - b)), b,
                 _power_series(b, b - c + 1, b - a + 1)))

    @functools.cached_property
    def log(self):
        """(finite part, prefactor, table) of the logarithmic 1/z connection
        for b = a + m, m a non-negative integer (a, m, b = gap; a DomainError
        raised here is not kept).  The finite part holds the coefficient of
        (-z)^(-e), times e and e(e+1), e = a + n, n < m; the table reads the
        upper parameter b as given and 1/Gamma(a) as (b-1)...(b-m)/Gamma(b).

        Where x = c - b - k sits at a pole of Gamma (c - b snaps to an
        integer j0, and then for k >= j0) the terms are their finite limits,
        plain powers.  The ratios carry 1/Gamma(x) with the coefficient,
        bounded where 1/Gamma(x) alone overflows (k ~ 170).  Before the
        poles term k is p_k (L + psi(k+1) + psi(m+k+1) - psi(y) - psi(x))
        (-z)^(-y), L = log(-z), y = b + k; its derivatives raise psi(y) to
        psi(y+1) and psi(y+2), each advanced by its own recurrence (psi(x)
        backwards), so nothing cancels as a or b nears a non-positive integer.
        """
        (a, m, b), c = self.gap, self.c
        # finite part: Gamma(c)/Gamma(b) sum_{n<m} (a)_n (m-n-1)! / (n! Gamma(c-a-n)) z^{-n}
        scale = _gamma(c) * _rgamma(b)
        if not (cmath.isfinite(scale) and math.hypot(scale.real, scale.imag) >= _NORMAL):
            raise DomainError(f"Gamma({c})/Gamma({b}) of the 1/z connection leaves the normal "
                              "float64 range")
        fin = []
        poch = 1.0 + 0j  # (a)_n / n!
        rgam = _rgamma(c - a)  # 1/Gamma(c-a-n)
        for n in range(m):
            f, e = _factorial(m - n - 1)
            coef = _ldexp(scale * poch * f * rgam, e)
            fin.append((coef, coef * (a + n), coef * (a + n) * (a + n + 1)))
            poch *= (a + n) / (n + 1.0)
            rgam *= c - a - n - 1.0
        # 1/Gamma(a) = (b-1) ... (b-m) / Gamma(b): a's distance to a pole of
        # Gamma is then b's, as the limit formula has it
        rgam_a = _rgamma(b)
        for j in range(1, m + 1):
            rgam_a *= b - j
        j0 = _near_int(c - b, _TERMINATING_SNAP)
        x = c - b if j0 is None else complex(j0)
        pole_from = math.inf if j0 is None else max(j0, 0)
        # the first coefficient 1/(m! Gamma(x)), or at the pole x = -i the
        # limit (-1)^i i! / m!, i! = lead 2^e_lead
        if pole_from == 0:
            lead, e_lead = _factorial(-j0)
            lead, psi = (-1) ** j0 * lead, None
        else:
            lead, e_lead = _rgamma(x), 0
            psi = (_digamma(1.0), _digamma(m + 1.0), _digamma(b), _digamma(b + 1.0),
                   _digamma(b + 2.0), _digamma(x))
        f, e = _factorial(m)  # m! = f 2^e, the powers of 2 applied first
        pre = _ldexp(_gamma(c) * (-1) ** m * rgam_a, e_lead - e) * lead / f
        first = _first(2, b, b - c + 1.0)
        return fin, pre, _Table(_log_rows(m, b, x, psi, pole_from), pole_from, first, 1e-300)


_triple = functools.lru_cache(maxsize=_CACHE_SIZE)(_Triple)


def _sum(
    tab: _Table, x: complex, order: int, L: complex = 0j, degree: int | None = None
) -> tuple[complex, complex, complex, float]:
    """(F, F', F'', U) of the series `tab` at x (F' and F'' 0 at order 0),
    L = log(-z) for the logarithmic series, U the floor plus the moduli
    of the terms of F, so U 2^-53 estimates the rounding error of F.  Stops
    by the test of _Table once the terms shrink (|ratio[k] x| < 1), or
    after the z^degree term of a terminating polynomial; raises
    NoConvergence past _MAX_TERMS terms.  The test is only evaluated for
    terms below _SERIES_TOL U (with 1e-9 of room for rounding), as U
    bounds max(|s0|, floor).
    """
    limit = _MAX_TERMS if degree is None else degree + 1
    first = tab.first if degree is None else limit
    tol, U, pole_from = _SERIES_TOL, tab.floor, tab.pole_from
    tiny, loose = tol * U, tol * (1.0 + 1e-9)
    ratio, w1, w2, c0, c1, c2 = tab.ratio, tab.w1, tab.w2, tab.c0, tab.c1, tab.c2
    P, s0, s1, s2 = 1.0 + 0j, 0j, 0j, 0j
    k, n = 0, len(ratio)
    while k < limit:
        n = min(n, limit) if n > k else tab.grow(k, limit, abs(x))
        if k < pole_from:  # terms with log(-z)
            n = min(n, pole_from)
            for k in range(k, n):
                t0 = P * (L + c0[k])
                s0 += t0
                if order:
                    t1, t2 = P * w1[k] * (L + c1[k]), P * w2[k] * (L + c2[k])
                    s1, s2 = s1 + t1, s2 + t2
                p = abs(t0)
                U += p
                if (p <= loose * U and (p <= tol * abs(s0) or p <= tiny) and k >= first
                        and (order == 0 or (abs(t1) <= tol * abs(s1) and abs(t2) <= tol * abs(s2)))
                        and abs(ratio[k] * x) < 1.0):
                    return s0, s1, s2, U
                P *= ratio[k] * x
        elif order == 0:
            for k in range(k, n):
                s0 += P
                p = abs(P)
                U += p
                if (p <= loose * U and (p <= tol * abs(s0) or p <= tiny) and k >= first
                        and abs(ratio[k] * x) < 1.0):
                    return s0, s1, s2, U
                P *= ratio[k] * x
        else:
            for k in range(k, n):
                t1, t2 = P * w1[k], P * w2[k]
                s0, s1, s2 = s0 + P, s1 + t1, s2 + t2
                p = abs(P)
                U += p
                if (p <= loose * U and (p <= tol * abs(s0) or p <= tiny) and k >= first
                        and abs(t1) <= tol * abs(s1) and abs(t2) <= tol * abs(s2)
                        and abs(ratio[k] * x) < 1.0):
                    return s0, s1, s2, U
                P *= ratio[k] * x
        k = n
    if degree is None:
        raise NoConvergence(f"2F1 series did not converge within {limit} terms at argument {x}")
    return s0, s1, s2, U


def _sum_many(
    tab: _Table, x: np.ndarray, order: int = 0, L=0.0, degree: int | None = None
) -> tuple[np.ndarray, complex, complex, np.ndarray]:
    """_sum at order 0 at every point of the 1-d array x (L an array of
    log(-z) for the logarithmic series), as (F, 0, 0, U).  Each point
    leaves the sum at the term where _sum would; the points still summing
    are kept together, so no (points x terms) array is formed."""
    limit = _MAX_TERMS if degree is None else degree + 1
    first = tab.first if degree is None else limit
    out, P, s0 = np.empty(len(x), complex), np.ones(len(x), complex), np.zeros(len(x), complex)
    U, Uout = np.full(len(x), tab.floor), np.empty(len(x))
    active, k, n = np.arange(len(x)), 0, len(tab.ratio)
    while k < limit and active.size:
        n = min(n, limit) if n > k else tab.grow(k, limit, float(np.abs(x).max()))
        for k in range(k, n):
            t0 = P * (L + tab.c0[k]) if k < tab.pole_from else P
            s0 += t0
            p = np.abs(t0)
            U += p
            if k >= first:
                done = (p <= _SERIES_TOL * np.abs(s0)) | (p <= _SERIES_TOL * tab.floor)
                if done.any():
                    done[done] = np.abs(tab.ratio[k] * x[done]) < 1.0
                    out[active[done]], Uout[active[done]] = s0[done], U[done]
                    keep = ~done
                    active, x, P, s0, U = active[keep], x[keep], P[keep], s0[keep], U[keep]
                    if np.ndim(L):
                        L = L[keep]
                    if not active.size:
                        break
            P *= tab.ratio[k] * x
        k = n
    if active.size and degree is None:
        raise NoConvergence(f"2F1 series did not converge within {limit} terms at argument {x[0]}")
    out[active], Uout[active] = s0, U
    return out, 0j, 0j, Uout


def _pfaff(t: _Triple, z, w, order: int, total):
    """Pfaff map: 2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; w), w = z/(z-1).

    The same map takes (ab/c) 2F1(a+1, b+1; c+1; z) to b (1-z)^(-a-1)
    times the series at w with its k-th term weighted by (a+k)/(c+k),
    and the second derivative likewise, so both come from the terms of
    the one series.  (Differentiating the series in w by the chain rule
    instead cancels digits near |z| = 3: 3.9e-12 relative in F'' at
    a = 5.76, |w| = 0.75.)  On an array the factor is formed as
    exp(-a log1p(-z)), which costs about two thirds of the power.
    """
    P = (1.0 - z) ** (-t.a) if total is _sum else np.exp(-t.a * np.log1p(-z))
    s0, s1, s2, U = total(t.pfaff, w, order)
    if order == 0:
        return P * s0, 0j, 0j, abs(P) * U
    u, b = 1.0 / (1.0 - z), t.b
    return P * s0, b * P * u * s1, b * (b + 1) * P * u * u * s2, abs(P) * U


def _inf_connection(t: _Triple, z, order: int, total):
    """z -> 1/z connection: the logarithmic series when a - b snaps to an
    integer (t.gap), else the generic one."""
    if t.gap is None:
        return _inf_connection_generic(t, z, order, total)
    return _inf_connection_integer(t, z, order, total)


def _inf_connection_generic(t: _Triple, z, order: int, total):
    """z -> 1/z connection, valid when a - b is not an integer, with each
    series summed by total (_sum or _sum_many).

    Each term is a power series in 1/z times (-z)^(-e), so its k-th term
    is a multiple of (-z)^(-e-k), whose z-derivatives are -(e+k)/z and
    (e+k)(e+k+1)/z^2 times itself.
    """
    x, F, dF, ddF, err = 1 / z, 0j, 0j, 0j, 0.0
    for g, e, tab in t.generic:
        pre = g * (-z) ** (-e)
        s0, s1, s2, U = total(tab, x, order)
        F += pre * s0
        err += abs(pre) * U
        if order:
            dF -= pre * (e * s0 + x * s1) * x
            ddF += pre * (e * (e + 1) * s0 + x * (2.0 * (e + 1) * s1 + x * s2)) * x * x
    return F, dF, ddF, err


def _inf_connection_integer(t: _Triple, z, order: int, total):
    """z -> 1/z connection for b = a + m, m a non-negative integer (see
    _Triple.log), with the series summed by total (_sum or _sum_many)."""
    a, _, b = t.gap
    fin, pre, tab = t.log
    u = 1 / z
    t0, t1, t2, U = total(tab, u, order, cmath.log(-z) if total is _sum else np.log(-z))
    f0, f1, f2, un, fa = 0j, 0j, 0j, 1.0, 0.0
    for coef, coef1, coef2 in fin:
        term = coef * un
        f0 += term
        fa += abs(term)
        if order:
            f1 += coef1 * un
            f2 += coef2 * un
        un *= u
    Q = (-z) ** (-a)
    P = pre * (-z) ** (-b)
    F, err = Q * f0 + P * t0, abs(Q) * fa + abs(P) * U
    if order == 0:
        return F, 0j, 0j, err
    return F, -(Q * f1 + P * t1) * u, (Q * f2 + P * t2) * u * u, err


def _branch(t: _Triple, z, order: int, total):
    """(F, F', F'', err) of the triple t at z by the branch rule of
    gauss_2f1, each series summed by total (_sum or _sum_many)."""
    if t.degree is not None:
        return total(t.polynomial, z, order, degree=t.degree)
    w = z / (z - 1.0)
    # 1/z beats Pfaff everywhere past the edge, except in the
    # near-integer band while the Pfaff series still converges (|z| <= 9)
    pfaff = (abs(z) < _INF_EDGE) | (t.band & (abs(w) <= _THRESHOLD))
    if total is _sum:
        return _pfaff(t, z, w, order, total) if pfaff else _inf_connection(t, z, order, total)
    F, err, inf = np.empty(z.shape, complex), np.empty(z.shape), ~pfaff
    F[pfaff], dF, ddF, err[pfaff] = _pfaff(t, z[pfaff], w[pfaff], 0, total)
    F[inf], _, _, err[inf] = _inf_connection(t, z[inf], 0, total)
    return F, dF, ddF, err


def gauss_2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric function 2F1(a, b; c; z) on the negative real axis.

    Takes complex parameters and a real z <= 0 (a float, or a complex
    with zero imaginary part).  Raises DomainError for any other z
    (z > 0, Im z != 0 or NaN) or where Gamma(c)/Gamma(b) of the
    logarithmic 1/z connection leaves the normal float64 range, PoleOfGamma
    when c is a non-positive integer, NoConvergence where a series does
    not converge within _MAX_TERMS terms, and NumericalError where the
    terms cancel so far that the estimate of the rounding error passes
    1e-7 of the value (_CANCEL).
    """
    return _gauss_2f1_core(complex(a), complex(b), complex(c), complex(z), 0)[0]


def _gauss_2f1_core(a: complex, b: complex, c: complex, z, order: int):
    """(F, dF/dz, d2F/dz2) of 2F1(a, b; c; z) for complex parameters, by
    the branch rule of gauss_2f1, at a complex z on the axis z <= 0, or at
    order 0 at a real 1-d array of such z, whose points each branch sums
    together.  At order 0 the derivative slots hold 0."""
    t = _triple(a, b, c)
    if t.pole:
        raise PoleOfGamma(f"2F1 undefined: c={c} is a non-positive integer")
    many = isinstance(z, np.ndarray)
    inside = (z.imag == 0) & (z.real <= 0)  # NaN fails too
    if not (inside.all() if many else inside):
        raise DomainError(f"z={z[~inside][0] if many else z} is not a real number <= 0")
    # a power past the float64 range raises OverflowError on a scalar and,
    # under errstate, FloatingPointError on an array: a true overflow of F
    try:
        if many:
            with np.errstate(over="raise"):
                F, dF, ddF, err = _branch(t, z, order, _sum_many)
        else:
            F, dF, ddF, err = _branch(t, z, order, _sum)
            if not cmath.isfinite(F):  # Python complex sums pass inf (and NaN) on silently
                raise OverflowError
    except (OverflowError, FloatingPointError) as exc:
        where = f"z in [{z.min()}, {z.max()}]" if many else f"z={z}"
        raise DomainError(f"2F1({a}, {b}; {c}; z) at {where} passes the float64 range") from exc
    # err 2^-53 estimates the rounding error of the sums in F.  Near the
    # top of the float64 range _CANCEL |F| is inf, which no err passes.
    if many:
        with np.errstate(over="ignore"):
            cancelled = err > _CANCEL * abs(F)
    else:
        cancelled = err > _CANCEL * abs(F)
    if cancelled.any() if many else cancelled:
        raise NumericalError(f"2F1({a}, {b}; {c}; z) at z={z[cancelled][0] if many else z} "
                             "cancels: its rounding error may pass 1e-7 of its value")
    return F, dF, ddF
