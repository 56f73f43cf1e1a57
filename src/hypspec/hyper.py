"""Numerical Gauss hypergeometric function on the negative real axis.

Every 2F1 that hypspec evaluates is the factor of a Green kernel at
z = -1/sinh^2 r, so gauss_2f1 takes complex parameters a, b, c and a
real z <= 0 only; any other z (z > 0, Im z != 0 or NaN) raises
DomainError.

Each point is summed at the smaller convergent argument of two: z/(z-1)
(the Pfaff map, in [0, 1) on the axis) and 1/z (the z -> 1/z
connection).  The defining series at z itself never wins there, since
|z/(z-1)| < |z| for z < 0.  A series argument is convergent when its
modulus is at most 0.9 (_THRESHOLD).

The 1/z connection is a candidate only for |z| >= 3 (_INF_EDGE).  Below
that edge the Pfaff series is the more accurate choice: on 1500 random
negative-axis points with parameters in [-6, 6] + [-4, 4]i, the worst
error against mpmath was 5.9e-11 with the edge at 3 and 5.4e-10 with it
at the golden ratio, where 1/z first beats Pfaff.  The rule reads: Pfaff
for 0 < |z| < 3, where |z/(z-1)| < 0.75, and 1/z for |z| >= 3, where
|1/z| <= 1/3.  Where 1 - z rounds to 1 (|z| <= 2^-53) the Pfaff factor
(1-z)^(-a) is 1, a relative error of about |a| 2^-53, the same that the
rounding of 1 - z costs just above.

The 1/z connection degenerates when a - b is an integer; that case is
handled by the exact logarithmic series (the limit of the generic
formula), whose digamma and reciprocal-Gamma factors advance by
recurrence from term to term.  Parameter differences within 1e-8 of an
integer are snapped onto that branch.  The series reads the upper
parameter as given and 1/Gamma of the lower one from it, so where both
lie near poles of Gamma their distances to them stay equal; rebuilding
the upper one as lower + m moved its distance by an ulp of m, which put
F, F' or F'' off by up to 9e-4 against mpmath on 300 random draws
(distances 1e-13 to 1e-3, |z| from 3 to 1e4), where now the worst is
1.8e-14.  c - b, whose poles the series meets term by term, is snapped
onto an integer only within 1e-15: at 1e-8 the snap alone cost 0.58
times the offset (a = 1e-8, b = a - 1, c = 1).  Differences between
1e-8 and 1e-2 from an integer (_NEAR_INT_BAND) go through the generic
connection, whose two Gamma(+-(a-b)) terms then cancel digits, the more
the closer the gap is to the snap: the worst error measured there
against mpmath is 1.3e-7 (gap 1.1e-8, |z| = 62).  In that band the
connection is used only where the Pfaff series does not converge
(|z| > 9).

An a or b within 1e-15 of a non-positive integer, machine precision at
these magnitudes, is summed as the terminating polynomial before any of
this.  Farther off, the series does not terminate and the branches above
take it: against mpmath, a within 3e-14 to 5e-9 of 0, -1, -2 or -3 with
gaps b - a of 0.37, 0.5, 1 and 2 and z from -0.3 to -200 came within
8.6e-15, and within 2.7e-12 with both a and b that near non-positive
integers.  A wider snap truncates series that do not terminate: at
1e-8 it put a = -2 + 5e-9, b = 5e-9, z = -200 off by 6.7e-5.  c keeps
the 1e-8 guard: a c that close to a pole raises PoleOfGamma.

The first two z-derivatives come from the same pass (_gauss_2f1_core at
order 2, the entry the Green kernel's derivatives use), term by term:
the termwise form of d/dz 2F1(a, b; c; z) = (ab/c) 2F1(a+1, b+1; c+1; z),
never the hypergeometric equation.  Next to each partial sum the loop
carries the sums of related terms.  For the terminating polynomial and
the series in 1/z of the generic connection these are the terms
k t_k / z and k(k-1) t_k / z^2 of F' and F'', by a recurrence that
never divides by z.  The 1/z connections differentiate their powers
(-z)^(-e-k) in closed form, which multiplies by 1/z.  The Pfaff series
weights t_k by (a+k)/(c+k) and by its next factor, which the same Pfaff
map takes to F' and F''.  The logarithmic series raises psi(a+m+k) to
psi(a+m+k+1) and psi(a+m+k+2), which absorbs the derivative of the
logarithm.  A series stops only when all three sums have converged.

_gauss_2f1_many applies the same rule to an array of z: it sums the
Pfaff points together and sends the rest through gauss_2f1, so this
module alone decides which z takes which series.

Whatever does not depend on z is computed once per parameter triple and
kept in small LRU caches (_CACHE_SIZE entries each): the pole,
terminating and near-integer-band tests, the integer gap, the Gamma
products of the generic 1/z connection and the finite part, prefactor
and starting digamma and reciprocal-Gamma values of the logarithmic
series.

scipy.special is imported on the first Gamma-function call, not at
import time: the exact-arithmetic parts of the package never need it.
This module is the one place hypspec binds it.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import DomainError, NoConvergence, PoleOfGamma

__all__ = ["gauss_2f1"]

# every series stops at the first term below _SERIES_TOL relative to its
# partial sum, or raises NoConvergence after _MAX_TERMS terms
_SERIES_TOL = 1e-14
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


def _terminates(a: complex, b: complex) -> bool:
    """Whether gauss_2f1 sums 2F1(a, b; c; z) as a polynomial."""
    return (_near_nonpositive_int(a, _TERMINATING_SNAP)
            or _near_nonpositive_int(b, _TERMINATING_SNAP))


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
    degree = None
    if _terminates(a, b):
        ma = _near_int(a, _TERMINATING_SNAP)
        mb = _near_int(b, _TERMINATING_SNAP)
        if ma is not None and ma <= 0 and (mb is None or mb > 0 or ma >= mb):
            degree = -ma
        else:
            degree = -mb  # type: ignore[operator]
    hi, lo = (b, a) if (b - a).real >= 0 else (a, b)
    m = _near_int(hi - lo)
    gap = None if m is None else (lo, m, hi)
    return _near_nonpositive_int(c), degree, _in_near_int_band(a - b), gap


def _series(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Defining power series; caller guarantees convergence region."""
    term = 1.0 + 0j
    total = 1.0 + 0j
    for k in range(_MAX_TERMS):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        if abs(term) <= _SERIES_TOL * max(1.0, abs(total)):
            return total
    raise NoConvergence(
        f"2F1 series did not converge within {_MAX_TERMS} terms at z={z}"
    )


def _series_d2(
    a: complex, b: complex, c: complex, z: complex, degree: int | None = None
) -> tuple[complex, complex, complex]:
    """The defining power series with its first two derivatives, summed
    term by term.  The terms of F' and F'' are k t_k / z and
    k(k-1) t_k / z^2; with g_k = (a+k)(b+k)/(c+k) they follow the
    recurrences u_(k+1) = t_k g_k and v_(k+1) = u_k g_k, so nothing is
    divided by z, which underflows far out on the negative axis.  Stops
    where all three sums have converged, or after the z^degree term when
    a degree is given (the terminating polynomial)."""
    term = 1.0 + 0j
    u = 0j
    s0 = 1.0 + 0j
    s1 = s2 = 0j
    for k in range(_MAX_TERMS if degree is None else degree):
        g = (a + k) * (b + k) / (c + k)
        v = u * g
        u = term * g
        term = u * z / (k + 1)
        s0 += term
        s1 += u
        s2 += v
        if (degree is None and abs(term) <= _SERIES_TOL * max(1.0, abs(s0))
                and abs(u) <= _SERIES_TOL * abs(s1)
                and abs(v) <= _SERIES_TOL * abs(s2)):
            return s0, s1, s2
    if degree is None:
        raise NoConvergence(
            f"2F1 series did not converge within {_MAX_TERMS} terms at z={z}"
        )
    return s0, s1, s2


def _series_raised(
    a: complex, b: complex, c: complex, z: complex
) -> tuple[complex, complex, complex]:
    """The defining power series with its terms t_k also weighted by
    q_k = (a+k)/(c+k) and by q_k q_(k+1): the three sums are 2F1(a, b; c; z),
    (a/c) 2F1(a+1, b; c+1; z) and (a(a+1)/(c(c+1))) 2F1(a+2, b; c+2; z).
    Stops where all three sums have converged."""
    term = 1.0 + 0j
    q = a / c
    s0 = s1 = s2 = 0j
    for k in range(_MAX_TERMS):
        q_next = (a + k + 1) / (c + k + 1)
        t1 = term * q
        t2 = t1 * q_next
        s0 += term
        s1 += t1
        s2 += t2
        if (abs(term) <= _SERIES_TOL * max(1.0, abs(s0))
                and abs(t1) <= _SERIES_TOL * abs(s1)
                and abs(t2) <= _SERIES_TOL * abs(s2)):
            return s0, s1, s2
        term *= q * (b + k) / (k + 1) * z
        q = q_next
    raise NoConvergence(
        f"2F1 series did not converge within {_MAX_TERMS} terms at z={z}"
    )


def _series_many(a: complex, b: complex, c: complex, z: np.ndarray) -> np.ndarray:
    """_series at every point of the 1-d array z, with the same term
    recurrence and stopping test: each point leaves the sum at the term
    where the scalar series would stop."""
    out = np.empty(len(z), dtype=complex)
    active = np.arange(len(z))
    term = np.ones(len(z), dtype=complex)
    total = np.ones(len(z), dtype=complex)
    for k in range(_MAX_TERMS):
        if not active.size:
            break
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        done = np.abs(term) <= _SERIES_TOL * np.maximum(1.0, np.abs(total))
        if done.any():
            out[active[done]] = total[done]
            keep = ~done
            active, z, term, total = active[keep], z[keep], term[keep], total[keep]
    if active.size:
        raise NoConvergence(
            f"2F1 series did not converge within {_MAX_TERMS} terms at z={z[0]}"
        )
    return out


def _pfaff(
    a: complex, b: complex, c: complex, z: complex, w: complex, order: int
) -> tuple[complex, complex, complex]:
    """Pfaff map: 2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; w), w = z/(z-1).

    The same map takes (ab/c) 2F1(a+1, b+1; c+1; z) to b (1-z)^(-a-1)
    times the series at w with its k-th term weighted by (a+k)/(c+k),
    and the second derivative likewise, so both come from the terms of
    the one series.  (Differentiating the series in w by the chain rule
    instead cancels digits near |z| = 3: 3.9e-12 relative in F'' at
    a = 5.76, |w| = 0.75.)
    """
    P = (1.0 - z) ** (-a)
    if order == 0:
        return P * _series(a, c - b, c, w), 0j, 0j
    s0, s1, s2 = _series_raised(a, c - b, c, w)
    u = 1.0 / (1.0 - z)
    return P * s0, b * P * u * s1, b * (b + 1) * P * u * u * s2


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _generic_constants(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """Gamma products of the two terms of the generic 1/z connection."""
    return (
        _gamma(c) * _gamma(b - a) * _rgamma(b) * _rgamma(c - a),
        _gamma(c) * _gamma(a - b) * _rgamma(a) * _rgamma(c - b),
    )


def _inf_connection_generic(
    a: complex, b: complex, c: complex, z: complex, order: int
) -> tuple[complex, complex, complex]:
    """z -> 1/z connection, valid when a - b is not an integer.

    Each term is a power series in 1/z times (-z)^(-e), e = a or b, so its
    k-th term is a multiple of (-z)^(-e-k), whose z-derivatives are
    -(e+k)/z and (e+k)(e+k+1)/z^2 times itself.
    """
    x = 1 / z
    F = dF = ddF = 0j
    for g, e, f, h in zip(_generic_constants(a, b, c), (a, b),
                          (a - c + 1, b - c + 1), (a - b + 1, b - a + 1)):
        pre = g * (-z) ** (-e)
        if order == 0:
            F += pre * _series(e, f, h, x)
            continue
        s0, s1, s2 = _series_d2(e, f, h, x)
        F += pre * s0
        dF -= pre * (e * s0 + x * s1) * x
        ddF += pre * (e * (e + 1) * s0 + x * (2.0 * (e + 1) * s1 + x * s2)) * x * x
    return F, dF, ddF


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _log_constants(a: complex, m: int, b: complex, c: complex):
    """What the logarithmic series for b = a + m needs of (a, m, b, c) alone.

    Returns the coefficients of the finite part, the prefactor of the
    logarithmic part, the snapped pole index j0 (None when x = c - b
    is off the integers) with x itself, the first coefficient and the
    starting digamma values psi(1), psi(m+1), psi(b), psi(b+1),
    psi(b+2), psi(x) (None when the poles start at k = 0).
    """
    # finite part: Gamma(c)/Gamma(b) sum_{n<m} (a)_n (m-n-1)! / (n! Gamma(c-a-n)) z^{-n}
    scale = _gamma(c) * _rgamma(b)
    fin = []
    poch = 1.0 + 0j  # (a)_n / n!
    rgam = _rgamma(c - a)  # 1/Gamma(c-a-n)
    for n in range(m):
        fin.append(scale * poch * math.factorial(m - n - 1) * rgam)
        poch *= (a + n) / (n + 1.0)
        rgam *= c - a - n - 1.0
    # 1/Gamma(a) = (b-1) ... (b-m) / Gamma(b): a's distance to a pole of
    # Gamma is then b's, as the limit formula has it
    rgam_a = _rgamma(b)
    for j in range(1, m + 1):
        rgam_a *= b - j
    pre = _gamma(c) * (-1) ** m * rgam_a
    x = c - b
    j0 = _near_int(x, _TERMINATING_SNAP)
    if j0 is not None:
        x = complex(j0)
    # (b)_k (-1)^k z^{-k} / ((m+k)! k!), times 1/Gamma(x) before the
    # poles and times the limit (-1)^i i! at the pole x = -i
    prod = 1.0 / math.factorial(m)
    if j0 is not None and j0 <= 0:
        return tuple(fin), pre, j0, x, prod * (-1) ** j0 * math.factorial(-j0), None
    psi = (_digamma(1.0), _digamma(m + 1.0), _digamma(b), _digamma(b + 1.0),
           _digamma(b + 2.0), _digamma(x))
    return tuple(fin), pre, j0, x, prod * _rgamma(x), psi


def _inf_connection_integer(
    a: complex, m: int, b: complex, c: complex, z: complex, order: int
) -> tuple[complex, complex, complex]:
    """z -> 1/z connection for b = a + m, m a non-negative integer.

    b is the upper parameter as given, not a + m rounded.  With both
    parameters near poles of Gamma, say b = 1e-8 and a = b - 6, the
    rounded a + m is off b by an ulp of 6, relative 1e-8 in b's distance
    to its pole, and F moves by as much.  So the series reads b itself,
    and 1/Gamma(a) as 1/Gamma(b) times (b-1) ... (b-m), which keeps the
    two distances equal as the limit formula assumes; a enters only
    through powers and Pochhammer symbols that do not depend on them.

    Limit form of the generic connection: a finite sum of powers plus a
    logarithmic series.  Terms where x = c - a - m - k sits at a pole of
    Gamma are replaced by their finite limits (the digamma pole cancels
    the reciprocal-Gamma zero).  x meets a pole only when c - a - m
    snaps to an integer j0, and then exactly for k >= j0; x is snapped
    with it.

    From term to term the digamma values advance by psi(y+1) = psi(y) +
    1/y (psi(x) backwards, since x falls by one), and the coefficient is
    carried together with 1/Gamma(x) as one product, which stays bounded
    where 1/Gamma(x) alone overflows (k ~ 170).

    Before the poles the k-th term of the logarithmic series is p_k (L +
    psi(k+1) + psi(m+k+1) - psi(e) - psi(x)) (-z)^(-e) up to a constant,
    with L = log(-z) and e = a + m + k.  Its z-derivatives are -e/z and
    e(e+1)/z^2 times the same expression with psi(e) raised to psi(e+1)
    and psi(e+2): psi(e+1) = psi(e) + 1/e absorbs the derivative of L
    exactly, so nothing cancels as a or b nears a non-positive integer.
    From the poles on the terms are powers alone, and so are those of the
    finite part, (-z)^(-a-n), which differentiate like the generic
    connection's.
    """
    fin, pre, j0, x, prod, psi = _log_constants(a, m, b, c)
    pole_from = _MAX_TERMS if j0 is None else max(j0, 0)
    if psi is not None:
        # psi(k+1), psi(m+k+1), psi(y), psi(y+1), psi(y+2), psi(x), y = b+k
        psi_k, psi_mk, psi_b, psi_b1, psi_b2, psi_x = psi
    L = cmath.log(-z)
    # sums of the terms and of their derivative factors
    t0 = t1 = t2 = 0j
    for k in range(_MAX_TERMS):
        y = b + k
        if k < pole_from:
            term = prod * (L + psi_k + psi_mk - psi_b - psi_x)
            if order:
                d1 = prod * y * (L + psi_k + psi_mk - psi_b1 - psi_x)
                d2 = prod * y * (y + 1) * (L + psi_k + psi_mk - psi_b2 - psi_x)
        else:
            term = prod
            if order:
                d1 = prod * y
                d2 = d1 * (y + 1)
        t0 += term
        if order:
            t1 += d1
            t2 += d2
        if (k > 1 and abs(term) <= _SERIES_TOL * max(abs(t0), 1e-300)
                and (order == 0 or (abs(d1) <= _SERIES_TOL * abs(t1)
                                    and abs(d2) <= _SERIES_TOL * abs(t2)))):
            break
        prod *= -y / ((m + k + 1.0) * (k + 1.0) * z)
        x -= 1.0
        if k + 1 != pole_from:  # at x = 0 the limit is 1 = 1/Gamma(1)
            prod *= x
        if k + 1 < pole_from:
            psi_k += 1.0 / (k + 1.0)
            psi_mk += 1.0 / (m + k + 1.0)
            psi_b += 1.0 / y
            psi_x -= 1.0 / x
            if order:
                psi_b1 += 1.0 / (y + 1.0)
                psi_b2 += 1.0 / (y + 2.0)
    else:
        raise NoConvergence(f"logarithmic 1/z series did not converge at z={z}")
    u = 1 / z
    f0 = f1 = f2 = 0j
    un = 1.0 + 0j
    for n, coef in enumerate(fin):
        t = coef * un
        f0 += t
        if order:
            e = a + n
            f1 += e * t
            f2 += e * (e + 1) * t
        un *= u
    Q = (-z) ** (-a)
    P = pre * (-z) ** (-b)
    F = Q * f0 + P * t0
    if order == 0:
        return F, 0j, 0j
    return F, -(Q * f1 + P * t1) * u, (Q * f2 + P * t2) * u * u


def _inf_connection(
    a: complex, b: complex, c: complex, z: complex, gap, order: int
) -> tuple[complex, complex, complex]:
    """z -> 1/z connection: the logarithmic series when a - b snaps to an
    integer (gap = (lower parameter, gap, upper parameter)), the generic
    formula otherwise."""
    if gap is not None:
        return _inf_connection_integer(*gap, c, z, order)
    return _inf_connection_generic(a, b, c, z, order)


def gauss_2f1(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Gauss hypergeometric function 2F1(a, b; c; z) on the negative real axis.

    Takes complex parameters and a real z <= 0 (a float, or a complex
    with zero imaginary part).  Raises DomainError for any other z
    (z > 0, Im z != 0 or NaN) and PoleOfGamma when c is a non-positive
    integer.
    """
    return _gauss_2f1_core(complex(a), complex(b), complex(c), complex(z), 0)[0]


def _gauss_2f1_core(
    a: complex, b: complex, c: complex, z: complex, order: int
) -> tuple[complex, complex, complex]:
    """(F, dF/dz, d2F/dz2) of 2F1(a, b; c; z) at order 2, for complex
    parameters and real z <= 0; the branch rule of gauss_2f1.  At order 0
    only F is computed and the derivative slots hold 0 (the terminating
    polynomial fills them anyway)."""
    pole, degree, band, gap = _params(a, b, c)
    if pole:
        raise PoleOfGamma(f"2F1 undefined: c={c} is a non-positive integer")
    if not (z.imag == 0 and z.real <= 0):  # NaN fails too
        raise DomainError(f"z={z} is not a real number <= 0")
    if z == 0:
        if order == 0:
            return 1.0 + 0j, 0j, 0j
        return 1.0 + 0j, a * b / c, a * (a + 1) * b * (b + 1) / (c * (c + 1))
    if degree is not None:
        # the polynomial, whatever the order: its derivatives cost nothing
        return _series_d2(a, b, c, z, degree)
    w = z / (z - 1.0)
    # 1/z beats Pfaff everywhere past the edge, except in the near-integer
    # band while the Pfaff series still converges (|z| <= 9)
    if abs(z) < _INF_EDGE or (band and abs(w) <= _THRESHOLD):
        return _pfaff(a, b, c, z, w, order)
    return _inf_connection(a, b, c, z, gap, order)


def _gauss_2f1_many(
    a: complex, b: complex, c: complex, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """gauss_2f1 at every point of the real array z <= 0, by its branch
    rule, as (F, log(1 - z)) with 2F1(a, b; c; z) = (1 - z)^(-a) F.

    The points with |z| < 3, where the rule sums the Pfaff series, are
    summed together by _series_many, each stopping at the term where the
    scalar series would; there F is the Pfaff series and the Pfaff factor
    is left to the caller through log(1 - z).  Every other point, and
    every point when c is a pole or the series terminates, goes through
    gauss_2f1, with log(1 - z) set to 0.
    """
    if not np.all(z <= 0):
        raise DomainError("every z must be a real number <= 0")
    pole, degree, _, _ = _params(a, b, c)
    # a pole or a polynomial sends every point through the scalar rule
    pfaff = (z > -_INF_EDGE) & (not pole and degree is None)
    zp = z[pfaff]
    F = np.empty(z.shape, dtype=complex)
    F[pfaff] = _series_many(a, c - b, c, zp / (zp - 1.0))
    F[~pfaff] = [gauss_2f1(a, b, c, zi) for zi in z[~pfaff]]
    log_p = np.zeros(z.shape)
    log_p[pfaff] = np.log1p(-zp)
    return F, log_p
