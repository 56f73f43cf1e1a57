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
terminating polynomial.  Each has one table (_Table) per parameter
triple, in LRU caches of _CACHE_SIZE entries next to _params, which also
keep the connections' Gamma products.  A table grows on demand to the
terms the current point needs, capped at _MAX_TERMS (_Table.grow), so a
first call builds about what it sums and later points only read.
_gauss_2f1_core is the one entry, for a scalar z or a real 1-d array of
z: it states the branch rule once and hands the branch helpers one
summation, _sum for a scalar or _sum_many for an array, which sums the
points of a branch together, each leaving at the term where _sum would.

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

scipy.special is imported on the first Gamma-function call, not at
import time: the exact-arithmetic parts of the package never need it.
This module is the one place hypspec binds it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

from .errors import DomainError, NoConvergence, PoleOfGamma

__all__ = ["gauss_2f1"]

# every series stops at the first term below _SERIES_TOL relative to its
# partial sum, or raises NoConvergence after _MAX_TERMS terms
_SERIES_TOL = 1e-14
_LOG_TOL = math.log(_SERIES_TOL)
_MAX_TERMS = 10000
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
# parameter triples each constants cache keeps.  A kernel table uses one
# key per cache for all its radii; the most distinct keys measured over a
# whole benchmark run are 6 (orbit-delta's kernels), so 16 holds every
# working set seen with room for interleaved callers.
_CACHE_SIZE = 16


class _DeferredSpecial:
    """Stand-in for scipy.special until first use.

    The first attribute access imports scipy.special and rebinds the
    module global _sp to it, so later calls look the function up on the
    real module with no extra cost.
    """

    def __getattr__(self, name: str):
        global _sp
        from scipy import special

        _sp = special
        return getattr(special, name)


_sp = _DeferredSpecial()


def _gamma(z: complex) -> complex:
    return complex(_sp.gamma(z))


def _rgamma(z: complex) -> complex:
    return complex(_sp.rgamma(z))


def _digamma(z: complex) -> complex:
    return complex(_sp.digamma(z))


def _loggamma(z: complex):
    """Principal branch of log Gamma, as the numpy scalar scipy returns
    (a complex() conversion would nearly double the cost per call)."""
    return _sp.loggamma(z)


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


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _params(
    a: complex, b: complex, c: complex
) -> tuple[bool, int | None, bool, tuple[complex, int, complex] | None]:
    """What the branch rule reads of (a, b, c) alone: whether c sits at a
    pole of Gamma, the degree of the terminating polynomial (None when
    the series does not terminate), whether a - b lies in the
    near-integer band, and (lower parameter, integer gap, upper
    parameter) when a - b snaps to an integer (the logarithmic series;
    else None)."""
    # the polynomial ends at the first of a, b at a non-positive integer
    ends = [-m for m in (_near_int(a, _TERMINATING_SNAP), _near_int(b, _TERMINATING_SNAP))
            if m is not None and m <= 0]
    degree = min(ends, default=None)
    hi, lo = (b, a) if (b - a).real >= 0 else (a, b)
    m = _near_int(hi - lo)
    gap = None if m is None else (lo, m, hi)
    return _near_nonpositive_int(c), degree, _in_near_int_band(a - b), gap


class _Table:
    """The z-independent coefficients of one series, grown on demand.  At
    its argument x, P_0 = 1 and P_(k+1) = P_k ratio[k] x; term k of F is
    P_k, of F' P_k w1[k] and of F'' P_k w2[k], and for k < pole_from (the
    logarithmic series) P_k (L + c0[k]), P_k w1[k] (L + c1[k]) and
    P_k w2[k] (L + c2[k]), L = log(-z).  A sum stops at the first term
    from `first` on at most _SERIES_TOL max(|partial sum|, floor) in
    every sum it keeps."""

    pole_from = 0
    first = 0
    floor = 1.0
    c0 = c1 = c2 = ()

    def grow(self, k: int, order: int, limit: int, ax: float) -> int:
        """The number of terms summable at this order, past term k and at
        most limit.  A table that ends at k is first extended to the terms
        a geometric series at |x| = ax needs, and by at least max(4, k // 4)."""
        if len(self.w2 if order else self.ratio) <= k:
            need = limit if ax >= 1.0 else 2 + int(_LOG_TOL / math.log(ax)) if ax else 2
            self._extend(min(limit, max(need, k + max(4, k // 4))), order)
        return min(len(self.w2 if order else self.ratio), limit)


class _PowerTable(_Table):
    """The series sum_k t_k x^k of 2F1(a, b; c; x), ratio[k] =
    (a+k)(b+k)/((c+k)(k+1)), with derivative weights g_k =
    (a+k)(b+k)/(c+k) and g_k g_(k+1) (those of F' and F''), or, when
    raised (the Pfaff series), q_k = (a+k)/(c+k) and q_k q_(k+1)."""

    def __init__(self, a: complex, b: complex, c: complex, raised: bool):
        self.params = a, b, c, raised
        self.ratio, self.w1, self.w2 = [], [], []

    def _extend(self, n: int, order: int) -> None:
        a, b, c, raised = self.params
        self.ratio += [(a + k) * (b + k) / ((c + k) * (k + 1)) for k in range(len(self.ratio), n)]
        if order:
            w1 = self.w1
            w1 += [(a + k) / (c + k) if raised else (a + k) * (b + k) / (c + k)
                   for k in range(len(w1), n + 1)]
            self.w2 += [w1[k] * w1[k + 1] for k in range(len(self.w2), n)]


_power_table = functools.lru_cache(maxsize=_CACHE_SIZE)(_PowerTable)


class _LogTable(_Table):
    """The logarithmic 1/z connection of 2F1(a, b; c; z) for b = a + m,
    m a non-negative integer: the finite part `fin` ((coefficient of
    (-z)^(-a-n), times e, times e(e+1)), e = a + n, n < m), the prefactor
    `pre` and the table of the logarithmic series, which reads the upper
    parameter b as given and 1/Gamma(a) as (b-1) ... (b-m) / Gamma(b).

    Where x = c - b - k sits at a pole of Gamma (c - b snaps to an
    integer j0, and then for k >= j0) the terms are their finite limits,
    plain powers.  The ratios carry 1/Gamma(x) with the coefficient,
    bounded where 1/Gamma(x) alone overflows (k ~ 170).  Before the poles
    term k is p_k (L + psi(k+1) + psi(m+k+1) - psi(y) - psi(x)) (-z)^(-y),
    L = log(-z), y = b + k; its derivatives raise psi(y) to psi(y+1) and
    psi(y+2), each advanced by its own recurrence (psi(x) backwards), so
    nothing cancels as a or b nears a non-positive integer.
    """

    first = 2
    floor = 1e-300

    def __init__(self, a: complex, m: int, b: complex, c: complex):
        self.ratio, self.w1, self.w2, self.c0, self.c1, self.c2 = [], [], [], [], [], []
        # finite part: Gamma(c)/Gamma(b) sum_{n<m} (a)_n (m-n-1)! / (n! Gamma(c-a-n)) z^{-n}
        scale = _gamma(c) * _rgamma(b)
        if not (scale and cmath.isfinite(scale)):
            raise DomainError(f"Gamma({c})/Gamma({b}) of the 1/z connection passes the float64 range")
        self.fin = []
        poch = 1.0 + 0j  # (a)_n / n!
        rgam = _rgamma(c - a)  # 1/Gamma(c-a-n)
        for n in range(m):
            f, e = _factorial(m - n - 1)
            coef = _ldexp(scale * poch * f * rgam, e)
            self.fin.append((coef, coef * (a + n), coef * (a + n) * (a + n + 1)))
            poch *= (a + n) / (n + 1.0)
            rgam *= c - a - n - 1.0
        # 1/Gamma(a) = (b-1) ... (b-m) / Gamma(b): a's distance to a pole of
        # Gamma is then b's, as the limit formula has it
        rgam_a = _rgamma(b)
        for j in range(1, m + 1):
            rgam_a *= b - j
        j0 = _near_int(c - b, _TERMINATING_SNAP)
        x = c - b if j0 is None else complex(j0)
        self.pole_from = math.inf if j0 is None else max(j0, 0)
        # the first coefficient 1/(m! Gamma(x)), or at the pole x = -i the
        # limit (-1)^i i! / m!
        if self.pole_from == 0:
            lead, psi = (-1) ** j0 * math.factorial(-j0), None
        else:
            lead = _rgamma(x)
            psi = (_digamma(1.0), _digamma(m + 1.0), _digamma(b), _digamma(b + 1.0),
                   _digamma(b + 2.0), _digamma(x))
        f, e = _factorial(m)  # m! = f 2^e, the power of 2 applied first
        self.pre = _ldexp(_gamma(c) * (-1) ** m * rgam_a, -e) * lead / f
        self._terms = self._coefficients(m, b, x, psi)

    def _coefficients(self, m, b, x, psi):
        """(ratio, w1, w2, c0, c1, c2) of term k = 0, 1, ..."""
        pole_from = self.pole_from
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

    def _extend(self, n: int, order: int) -> None:
        rows = itertools.islice(self._terms, n - len(self.ratio))
        for column, values in zip((self.ratio, self.w1, self.w2, self.c0, self.c1, self.c2), zip(*rows)):
            column += values


_log_table = functools.lru_cache(maxsize=_CACHE_SIZE)(_LogTable)


def _sum(
    tab: _Table, x: complex, order: int, L: complex = 0j, degree: int | None = None
) -> tuple[complex, complex, complex]:
    """(F, F', F'') of the series `tab` at x (F' and F'' 0 at order 0),
    L = log(-z) for the logarithmic series.  Stops by the test of _Table
    or after the z^degree term of a terminating polynomial; raises
    NoConvergence past _MAX_TERMS terms.  The test is only evaluated for
    terms below _SERIES_TOL U (with 1e-9 of room for rounding): U, the
    floor plus the moduli of the terms so far, bounds max(|s0|, floor).
    """
    limit = _MAX_TERMS if degree is None else degree + 1
    first = tab.first if degree is None else limit
    tol, U, pole_from = _SERIES_TOL, tab.floor, tab.pole_from
    tiny, loose = tol * U, tol * (1.0 + 1e-9)
    ratio, w1, w2, c0, c1, c2 = tab.ratio, tab.w1, tab.w2, tab.c0, tab.c1, tab.c2
    P, s0, s1, s2 = 1.0 + 0j, 0j, 0j, 0j
    k, n = 0, len(w2 if order else ratio)
    while k < limit:
        n = min(n, limit) if n > k else tab.grow(k, order, limit, abs(x))
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
                        and (order == 0 or (abs(t1) <= tol * abs(s1) and abs(t2) <= tol * abs(s2)))):
                    return s0, s1, s2
                P *= ratio[k] * x
        elif order == 0:
            for k in range(k, n):
                s0 += P
                p = abs(P)
                U += p
                if p <= loose * U and (p <= tol * abs(s0) or p <= tiny) and k >= first:
                    return s0, s1, s2
                P *= ratio[k] * x
        else:
            for k in range(k, n):
                t1, t2 = P * w1[k], P * w2[k]
                s0, s1, s2 = s0 + P, s1 + t1, s2 + t2
                p = abs(P)
                U += p
                if (p <= loose * U and (p <= tol * abs(s0) or p <= tiny) and k >= first
                        and abs(t1) <= tol * abs(s1) and abs(t2) <= tol * abs(s2)):
                    return s0, s1, s2
                P *= ratio[k] * x
        k = n
    if degree is None:
        raise NoConvergence(f"2F1 series did not converge within {limit} terms at argument {x}")
    return s0, s1, s2


def _sum_many(
    tab: _Table, x: np.ndarray, order: int = 0, L=0.0, degree: int | None = None
) -> tuple[np.ndarray, complex, complex]:
    """_sum at order 0 at every point of the 1-d array x (L an array of
    log(-z) for the logarithmic series), as (F, 0, 0).  Each point leaves
    the sum at the term where _sum would; the points still summing are
    kept together, so no (points x terms) array is formed."""
    limit = _MAX_TERMS if degree is None else degree + 1
    first = tab.first if degree is None else limit
    out, P, s0 = np.empty(len(x), complex), np.ones(len(x), complex), np.zeros(len(x), complex)
    active, k, n = np.arange(len(x)), 0, len(tab.ratio)
    while k < limit and active.size:
        n = min(n, limit) if n > k else tab.grow(k, 0, limit, float(np.abs(x).max()))
        for k in range(k, n):
            t0 = P * (L + tab.c0[k]) if k < tab.pole_from else P
            s0 += t0
            if k >= first:
                p = np.abs(t0)
                done = (p <= _SERIES_TOL * np.abs(s0)) | (p <= _SERIES_TOL * tab.floor)
                if done.any():
                    out[active[done]] = s0[done]
                    keep = ~done
                    active, x, P, s0 = active[keep], x[keep], P[keep], s0[keep]
                    if np.ndim(L):
                        L = L[keep]
                    if not active.size:
                        break
            P *= tab.ratio[k] * x
        k = n
    if active.size and degree is None:
        raise NoConvergence(f"2F1 series did not converge within {limit} terms at argument {x[0]}")
    out[active] = s0
    return out, 0j, 0j


def _pfaff(a, b, c, z, w, order: int, total):
    """Pfaff map: 2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; w), w = z/(z-1).

    The same map takes (ab/c) 2F1(a+1, b+1; c+1; z) to b (1-z)^(-a-1)
    times the series at w with its k-th term weighted by (a+k)/(c+k),
    and the second derivative likewise, so both come from the terms of
    the one series.  (Differentiating the series in w by the chain rule
    instead cancels digits near |z| = 3: 3.9e-12 relative in F'' at
    a = 5.76, |w| = 0.75.)
    """
    P = (1.0 - z) ** (-a)
    s0, s1, s2 = total(_power_table(a, c - b, c, True), w, order)
    if order == 0:
        return P * s0, 0j, 0j
    u = 1.0 / (1.0 - z)
    return P * s0, b * P * u * s1, b * (b + 1) * P * u * u * s2


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _generic_series(a: complex, b: complex, c: complex):
    """(Gamma product, exponent e, table) of each term of the generic 1/z
    connection, a power series in 1/z times (-z)^(-e), e = a or b."""
    g = _gamma(c)
    return ((g * _gamma(b - a) * _rgamma(b) * _rgamma(c - a), a,
             _PowerTable(a, a - c + 1, a - b + 1, False)),
            (g * _gamma(a - b) * _rgamma(a) * _rgamma(c - b), b,
             _PowerTable(b, b - c + 1, b - a + 1, False)))


def _inf_connection(a, b, c, gap, z, order: int, total):
    """z -> 1/z connection: the logarithmic series when a - b snaps to an
    integer (gap, from _params), else the generic one."""
    if gap is None:
        return _inf_connection_generic(a, b, c, z, order, total)
    return _inf_connection_integer(*gap, c, z, order, total)


def _inf_connection_generic(a, b, c, z, order: int, total):
    """z -> 1/z connection, valid when a - b is not an integer, with each
    series summed by total (_sum or _sum_many).

    Each term is a power series in 1/z times (-z)^(-e), so its k-th term
    is a multiple of (-z)^(-e-k), whose z-derivatives are -(e+k)/z and
    (e+k)(e+k+1)/z^2 times itself.
    """
    x, F, dF, ddF = 1 / z, 0j, 0j, 0j
    for g, e, tab in _generic_series(a, b, c):
        pre = g * (-z) ** (-e)
        s0, s1, s2 = total(tab, x, order)
        F += pre * s0
        if order:
            dF -= pre * (e * s0 + x * s1) * x
            ddF += pre * (e * (e + 1) * s0 + x * (2.0 * (e + 1) * s1 + x * s2)) * x * x
    return F, dF, ddF


def _inf_connection_integer(a, m: int, b, c, z, order: int, total):
    """z -> 1/z connection for b = a + m, m a non-negative integer (see
    _LogTable), with the series summed by total (_sum or _sum_many)."""
    tab = _log_table(a, m, b, c)
    u = 1 / z
    t0, t1, t2 = total(tab, u, order, cmath.log(-z) if total is _sum else np.log(-z))
    f0, f1, f2, un = 0j, 0j, 0j, 1.0
    for coef, coef1, coef2 in tab.fin:
        f0 += coef * un
        if order:
            f1 += coef1 * un
            f2 += coef2 * un
        un *= u
    Q = (-z) ** (-a)
    P = tab.pre * (-z) ** (-b)
    F = Q * f0 + P * t0
    if order == 0:
        return F, 0j, 0j
    return F, -(Q * f1 + P * t1) * u, (Q * f2 + P * t2) * u * u


def gauss_2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric function 2F1(a, b; c; z) on the negative real axis.

    Takes complex parameters and a real z <= 0 (a float, or a complex
    with zero imaginary part).  Raises DomainError for any other z
    (z > 0, Im z != 0 or NaN) or where Gamma(c)/Gamma(b) of the
    logarithmic 1/z connection passes the float64 range, and PoleOfGamma
    when c is a non-positive integer.
    """
    return _gauss_2f1_core(complex(a), complex(b), complex(c), complex(z), 0)[0]


def _gauss_2f1_core(a: complex, b: complex, c: complex, z, order: int):
    """(F, dF/dz, d2F/dz2) of 2F1(a, b; c; z) for complex parameters, by
    the branch rule of gauss_2f1, at a complex z on the axis z <= 0, or at
    order 0 at a real 1-d array of such z, whose points each branch sums
    together.  At order 0 the derivative slots hold 0."""
    pole, degree, band, gap = _params(a, b, c)
    if pole:
        raise PoleOfGamma(f"2F1 undefined: c={c} is a non-positive integer")
    many = isinstance(z, np.ndarray)
    inside = (z.imag == 0) & (z.real <= 0)  # NaN fails too
    if not (inside.all() if many else inside):
        raise DomainError(f"z={z[~inside][0] if many else z} is not a real number <= 0")
    total = _sum_many if many else _sum
    if degree is not None:
        return total(_power_table(a, b, c, False), z, order, degree=degree)
    w = z / (z - 1.0)
    # 1/z beats Pfaff everywhere past the edge, except in the near-integer
    # band while the Pfaff series still converges (|z| <= 9)
    pfaff = (abs(z) < _INF_EDGE) | (band & (abs(w) <= _THRESHOLD))
    if not many:
        if pfaff:
            return _pfaff(a, b, c, z, w, order, total)
        return _inf_connection(a, b, c, gap, z, order, total)
    F, inf = np.empty(z.shape, complex), ~pfaff
    F[pfaff] = _pfaff(a, b, c, z[pfaff], w[pfaff], 0, total)[0]
    F[inf] = _inf_connection(a, b, c, gap, z[inf], 0, total)[0]
    return F, 0j, 0j
