"""Numerical Gauss hypergeometric function for complex parameters.

Each point is summed at the smallest convergent argument.  The
candidates are z itself (the defining power series), z/(z-1) (the Pfaff
map) and 1/z (the z -> 1/z connection); the one with the smallest
modulus wins, ties going to the direct series.  A series argument is
convergent when its modulus is at most the configured threshold (0.9 by
default).

The 1/z connection is a candidate only for |z| >= 3 (_INF_EDGE).  Below
that edge the Pfaff series is the more accurate choice: on 1500 random
negative-axis points with parameters in [-6, 6] + [-4, 4]i, the worst
error against mpmath was 5.9e-11 with the edge at 3 and 5.4e-10 with it
at the golden ratio, where 1/z first beats Pfaff.  On the negative real
axis, the regime the Green kernels live in, the rule reads: Pfaff for
0 < |z| < 3, where |z/(z-1)| < 0.75, and 1/z for |z| >= 3, where
|1/z| <= 1/3.

The 1/z connection degenerates when a - b is an integer; that case is
handled by the exact logarithmic series (the limit of the generic
formula), whose digamma and reciprocal-Gamma factors advance by
recurrence from term to term.  Parameter differences within 1e-8 of an
integer are snapped onto that branch.  Differences between 1e-8 and
1e-2 from an integer (_NEAR_INT_BAND) go through the generic
connection, whose two Gamma(+-(a-b)) terms then cancel digits, the
more the closer the gap is to the snap: the worst error measured there
against mpmath is 1.3e-7 (gap 1.1e-8, |z| = 62).  In that band the
connection is used only where neither the direct nor the Pfaff series
converges.

An a or b within 1e-15 of a non-positive integer, machine precision at
these magnitudes, is summed as the terminating polynomial before any of
this.  Farther off, the series does not terminate and the branches above
take it: against mpmath, a within 3e-14 to 5e-9 of 0, -1, -2 or -3 with
gaps b - a of 0.37, 0.5, 1 and 2 and z from -0.3 to -200 came within
8.6e-15, and within 2.7e-12 with both a and b that near non-positive
integers.  A wider snap truncates series that do not terminate: at
1e-8 it put a = -2 + 5e-9, b = 5e-9, z = -200 off by 6.7e-5.  c keeps
the 1e-8 guard: a c that close to a pole raises PoleOfGamma.

Points that none of these three covers take the 1/z connection when
|z| >= 1/threshold and the z -> 1-z connection when |1-z| <= threshold;
elsewhere (around exp(+-i pi/3)) NoConvergence is raised.  The 1-z
connection perturbs c when c - a - b is near an integer, which this
library's own callers never hit; its documented accuracy is ~1e-8.

scipy.special is imported on the first Gamma-function call, not at
import time: the exact-arithmetic parts of the package never need it.
This module is the one place hypspec binds it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence, PoleOfGamma

__all__ = ["GreenEvalConfig", "gauss_2f1"]

_INT_SNAP = 1e-8
# a or b this close to a non-positive integer is summed as a polynomial
_TERMINATING_SNAP = 1e-15
# |z| from which the z -> 1/z connection competes with the power series
_INF_EDGE = 3.0
# a - b this close to an integer, but outside the snap, makes the generic
# 1/z connection cancel digits
_NEAR_INT_BAND = 1e-2


@dataclass(frozen=True)
class GreenEvalConfig:
    """Tolerances shared by the hypergeometric and Green-kernel evaluators."""

    series_tolerance: float = 1e-14
    max_terms: int = 10000
    transformation_threshold: float = 0.9

    def __post_init__(self) -> None:
        if self.series_tolerance <= 0:
            raise DomainError("series_tolerance must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be at least 1")


DEFAULT_CONFIG = GreenEvalConfig()


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


def _series(a: complex, b: complex, c: complex, z: complex, cfg: GreenEvalConfig) -> complex:
    """Defining power series; caller guarantees convergence region."""
    term = 1.0 + 0j
    total = 1.0 + 0j
    for k in range(cfg.max_terms):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        if abs(term) <= cfg.series_tolerance * max(1.0, abs(total)):
            return total
    raise NoConvergence(
        f"2F1 series did not converge within {cfg.max_terms} terms at z={z}"
    )


def _series_many(a: complex, b: complex, c: complex, z: np.ndarray, cfg: GreenEvalConfig) -> np.ndarray:
    """_series at every point of the 1-d array z, with the same term
    recurrence and stopping test: each point leaves the sum at the term
    where the scalar series would stop."""
    out = np.empty(len(z), dtype=complex)
    active = np.arange(len(z))
    term = np.ones(len(z), dtype=complex)
    total = np.ones(len(z), dtype=complex)
    for k in range(cfg.max_terms):
        if not active.size:
            break
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        done = np.abs(term) <= cfg.series_tolerance * np.maximum(1.0, np.abs(total))
        if done.any():
            out[active[done]] = total[done]
            keep = ~done
            active, z, term, total = active[keep], z[keep], term[keep], total[keep]
    if active.size:
        raise NoConvergence(
            f"2F1 series did not converge within {cfg.max_terms} terms at z={z[0]}"
        )
    return out


def _terminating(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Polynomial case: a or b a non-positive integer."""
    ma = _near_int(a, _TERMINATING_SNAP)
    mb = _near_int(b, _TERMINATING_SNAP)
    if ma is not None and ma <= 0 and (mb is None or mb > 0 or ma >= mb):
        nmax = -ma
    else:
        nmax = -mb  # type: ignore[operator]
    term = 1.0 + 0j
    total = 1.0 + 0j
    for k in range(nmax):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
    return total


def _inf_connection_generic(
    a: complex, b: complex, c: complex, z: complex, cfg: GreenEvalConfig
) -> complex:
    """z -> 1/z connection, valid when a - b is not an integer."""
    t1 = (
        _gamma(c) * _gamma(b - a) * _rgamma(b) * _rgamma(c - a)
        * (-z) ** (-a)
        * _series(a, a - c + 1, a - b + 1, 1 / z, cfg)
    )
    t2 = (
        _gamma(c) * _gamma(a - b) * _rgamma(a) * _rgamma(c - b)
        * (-z) ** (-b)
        * _series(b, b - c + 1, b - a + 1, 1 / z, cfg)
    )
    return t1 + t2


def _inf_connection(
    a: complex, b: complex, c: complex, z: complex, cfg: GreenEvalConfig
) -> complex:
    """z -> 1/z connection: the logarithmic series when a - b snaps to an
    integer, the generic formula otherwise."""
    hi, lo = (b, a) if (b - a).real >= 0 else (a, b)
    m = _near_int(hi - lo)
    if m is not None:
        return _inf_connection_integer(lo, m, c, z, cfg)
    return _inf_connection_generic(a, b, c, z, cfg)


def _inf_connection_integer(
    a: complex, m: int, c: complex, z: complex, cfg: GreenEvalConfig
) -> complex:
    """z -> 1/z connection for b = a + m, m a non-negative integer.

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
    """
    L = cmath.log(-z)
    # finite part: sum_{n<m} (a)_n (m-n-1)! / (n! Gamma(c-a-n)) z^{-n}
    fin = 0.0 + 0j
    poch = 1.0 + 0j  # (a)_n / n! * z^{-n}
    rgam = _rgamma(c - a)  # 1/Gamma(c-a-n)
    for n in range(m):
        fin += poch * math.factorial(m - n - 1) * rgam
        poch *= (a + n) / (n + 1.0) / z
        rgam *= c - a - n - 1.0
    fin *= _gamma(c) * _rgamma(a + m) * (-z) ** (-a)
    # logarithmic part
    pre = _gamma(c) * (-1) ** m * _rgamma(a) * (-z) ** (-a - m)
    x = c - a - m
    j0 = _near_int(x)
    if j0 is None:
        pole_from = cfg.max_terms
    else:
        x = complex(j0)
        pole_from = max(j0, 0)
    # (a+m)_k (-1)^k z^{-k} / ((m+k)! k!), times 1/Gamma(x) before the
    # poles and times the limit (-1)^i i! at the pole x = -i
    prod = 1.0 / math.factorial(m)
    if pole_from == 0:
        prod *= (-1) ** j0 * math.factorial(-j0)
    else:
        prod *= _rgamma(x)
        psi_k = _digamma(1.0)         # psi(k+1)
        psi_mk = _digamma(m + 1.0)    # psi(m+k+1)
        psi_b = _digamma(a + m)       # psi(a+m+k)
        psi_x = _digamma(x)           # psi(x)
    total = 0.0 + 0j
    for k in range(cfg.max_terms):
        if k < pole_from:
            term = prod * (L + psi_k + psi_mk - psi_b - psi_x)
        else:
            term = prod
        total += term
        if k > 1 and abs(term) <= cfg.series_tolerance * max(abs(total), 1e-300):
            return fin + pre * total
        y = a + m + k
        prod *= -y / ((m + k + 1.0) * (k + 1.0) * z)
        x -= 1.0
        if k + 1 != pole_from:  # at x = 0 the limit is 1 = 1/Gamma(1)
            prod *= x
        if k + 1 < pole_from:
            psi_k += 1.0 / (k + 1.0)
            psi_mk += 1.0 / (m + k + 1.0)
            psi_b += 1.0 / y
            psi_x -= 1.0 / x
    raise NoConvergence(f"logarithmic 1/z series did not converge at z={z}")


def _one_minus_connection(
    a: complex, b: complex, c: complex, z: complex, cfg: GreenEvalConfig
) -> complex:
    """z -> 1-z connection; perturbs c when c - a - b is near an integer."""
    if _near_int(c - a - b) is not None:
        # documented fallback: ~1e-8 accuracy from the symmetric perturbation
        eps = 1e-6
        return 0.5 * (
            _one_minus_generic(a, b, c + eps, z, cfg)
            + _one_minus_generic(a, b, c - eps, z, cfg)
        )
    return _one_minus_generic(a, b, c, z, cfg)


def _one_minus_generic(
    a: complex, b: complex, c: complex, z: complex, cfg: GreenEvalConfig
) -> complex:
    w = 1.0 - z
    t1 = (
        _gamma(c) * _gamma(c - a - b) * _rgamma(c - a) * _rgamma(c - b)
        * _series(a, b, a + b - c + 1, w, cfg)
    )
    t2 = (
        _gamma(c) * _gamma(a + b - c) * _rgamma(a) * _rgamma(b)
        * w ** (c - a - b)
        * _series(c - a, c - b, c - a - b + 1, w, cfg)
    )
    return t1 + t2


def gauss_2f1(
    a: complex,
    b: complex,
    c: complex,
    z: complex,
    config: GreenEvalConfig | None = None,
) -> complex:
    """Gauss hypergeometric function 2F1(a, b; c; z).

    Supports complex parameters and complex argument off the branch cut
    [1, inf).  Raises PoleOfGamma when c is a non-positive integer and
    DomainError on the cut.
    """
    cfg = config or DEFAULT_CONFIG
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if _near_nonpositive_int(c):
        raise PoleOfGamma(f"2F1 undefined: c={c} is a non-positive integer")
    if z == 0:
        return 1.0 + 0j
    if _terminates(a, b):
        return _terminating(a, b, c, z)
    if z.imag == 0 and z.real >= 1.0:
        raise DomainError(f"z={z} lies on the branch cut [1, inf)")

    thr = cfg.transformation_threshold
    az = abs(z)
    w = z / (z - 1.0)
    aw = abs(w)
    # 1/z beats the direct and Pfaff arguments everywhere past the edge
    if az >= max(_INF_EDGE, 1.0 / thr) and (aw > thr or not _in_near_int_band(a - b)):
        return _inf_connection(a, b, c, z, cfg)
    if min(az, aw) <= thr:
        if az <= aw:
            return _series(a, b, c, z, cfg)
        return (1.0 - z) ** (-a) * _series(a, c - b, c, w, cfg)
    if az >= 1.0 / thr:
        return _inf_connection(a, b, c, z, cfg)
    if abs(1.0 - z) <= thr:
        return _one_minus_connection(a, b, c, z, cfg)
    raise NoConvergence(
        f"no convergent transformation for z={z} (near the unit-circle crossing points)"
    )
