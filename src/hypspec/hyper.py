"""Numerical Gauss hypergeometric function for complex parameters.

The evaluation strategy is the classical one: the defining power series
inside a disk |z| <= threshold, and argument transformations outside it.
Arguments on the negative real axis (the regime the Green kernels live
in) are covered by the Pfaff map z -> z/(z-1) for moderate |z| and by the
z -> 1/z connection for large |z|.  The 1/z connection degenerates when
a - b is an integer; that case is handled by the exact logarithmic
series (the limit of the generic formula), not by parameter
perturbation, so no precision is lost there.  Parameter differences
within 1e-8 of an integer are snapped onto the exact-integer branch.

The only remaining perturbation fallback is the z -> 1-z connection with
c - a - b near an integer, which this library's own callers never hit;
its documented accuracy is ~1e-8.

scipy.special is imported on the first Gamma-function call, not at
import time: the exact-arithmetic parts of the package never need it.
This module is the one place hypspec binds it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, NoConvergence, PoleOfGamma

__all__ = ["GreenEvalConfig", "gauss_2f1"]

_INT_SNAP = 1e-8


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


def _near_nonpositive_int(z: complex) -> bool:
    zr = round(z.real)
    return zr <= 0 and abs(z - zr) < _INT_SNAP


def _near_int(z: complex) -> int | None:
    zr = round(z.real)
    if abs(z - zr) < _INT_SNAP:
        return zr
    return None


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


def _terminating(a: complex, b: complex, c: complex, z: complex) -> complex:
    """Polynomial case: a or b a non-positive integer."""
    ma = _near_int(a)
    mb = _near_int(b)
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


def _inf_connection_integer(
    a: complex, m: int, c: complex, z: complex, cfg: GreenEvalConfig
) -> complex:
    """z -> 1/z connection for b = a + m, m a non-negative integer.

    Limit form of the generic connection: a finite sum of powers plus a
    logarithmic series.  Terms where c - a - m - k sits at a pole of
    Gamma are replaced by their finite limits (the digamma pole cancels
    the reciprocal-Gamma zero).
    """
    L = cmath.log(-z)
    # finite part: sum_{n<m} (a)_n (m-n-1)! / (n! Gamma(c-a-n)) z^{-n}
    fin = 0.0 + 0j
    poch = 1.0 + 0j  # (a)_n / n! * z^{-n}
    for n in range(m):
        fin += poch * math.factorial(m - n - 1) * _rgamma(c - a - n)
        poch *= (a + n) / (n + 1.0) / z
    fin *= _gamma(c) * _rgamma(a + m) * (-z) ** (-a)
    # logarithmic part
    pre = _gamma(c) * (-1) ** m * _rgamma(a) * (-z) ** (-a - m)
    total = 0.0 + 0j
    base = 1.0 / math.factorial(m)  # (a+m)_k (-1)^k z^{-k} / ((m+k)! k!)
    for k in range(cfg.max_terms):
        x = c - a - m - k
        j = _near_int(x)
        if j is not None and j <= 0:
            term = base * (-1) ** (-j) * math.factorial(-j)
        else:
            bracket = (
                L
                + _digamma(k + 1.0)
                + _digamma(m + k + 1.0)
                - _digamma(a + m + k)
                - _digamma(x)
            )
            term = base * _rgamma(x) * bracket
        total += term
        if k > 1 and abs(term) <= cfg.series_tolerance * max(abs(total), 1e-300):
            return fin + pre * total
        base *= (a + m + k) * (-1.0) / ((m + k + 1.0) * (k + 1.0)) / z
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
    if _near_nonpositive_int(a) or _near_nonpositive_int(b):
        return _terminating(a, b, c, z)
    if z.imag == 0 and z.real >= 1.0:
        raise DomainError(f"z={z} lies on the branch cut [1, inf)")

    thr = cfg.transformation_threshold
    if abs(z) <= thr:
        return _series(a, b, c, z, cfg)
    w_pfaff = z / (z - 1.0)
    if abs(w_pfaff) <= thr:
        return (1.0 - z) ** (-a) * _series(a, c - b, c, w_pfaff, cfg)
    if abs(z) >= 1.0 / thr:
        hi, lo = (b, a) if (b - a).real >= 0 else (a, b)
        m = _near_int(hi - lo)
        if m is not None:
            return _inf_connection_integer(lo, m, c, z, cfg)
        return _inf_connection_generic(a, b, c, z, cfg)
    if abs(1.0 - z) <= thr:
        return _one_minus_connection(a, b, c, z, cfg)
    raise NoConvergence(
        f"no convergent transformation for z={z} (near the unit-circle crossing points)"
    )
