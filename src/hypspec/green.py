"""Scalar Green kernel of the shifted Laplacian on a hyperbolic space.

The kernel g0(s, r), a multiple of the resolvent kernel G of
Delta - rho^2 + s^2 at spectral parameter s (bottom of the spectrum at
rho^2), has the closed form

    g0(s, r) = C(s) * (2 sinh^2 r)^(-(s+rho)/2)
               * 2F1((s+rho)/2, (s+1)/2 - d(n-1)/4; s+1; -1/sinh^2 r),

real and positive for real s > 0.  The normalization C(s) is fixed by
the short-distance law  g0 ~ r^(2-dn) / vol(S^(dn-1))  (logarithmic for
dn = 2), which lacks the 1/(dn - 2) of the fundamental solution: for
dn >= 3, g0 = (dn - 2) G, and g0 = G for dn = 2.  It is validated
against the three-dimensional closed form e^(-sr) / (4 pi sinh r)
(factor 1) and ties to the classical Gamma-factor prefactor f(s)
through the Legendre duplication identity

    C(s) = max(dn-2, 1) * f(s) * 2^(-(s+rho)/2).

Derivatives for the equation residual come from one 2F1 pass per point:
the order-2 entry of `hyper` differentiates each series term by term
(the termwise form of d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z)),
never through the hypergeometric equation, so the residual measures
only formula and series error, with no finite-difference noise floor.
The 2F1 parameters and log C(s) are computed once per (d, n, s) and
kept in an LRU cache (hyper._CACHE_SIZE entries).  Radii below _MIN_R,
where the 2F1 argument -1/sinh^2 r passes the float64 range, a prefactor
past that range and a kernel value past it raise DomainError.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import Sequence

import numpy as np

from .errors import DegenerateFit, DomainError, PoleOfGamma
from .hyper import _CACHE_SIZE, _gauss_2f1_core, _loggamma, gauss_2f1
from .spaces import SpaceDescriptor

__all__ = [
    "vol_sphere",
    "plancherel_prefactor",
    "green0_eval",
    "green0_eval_many",
    "green0_derivatives",
    "green0_ode_residual",
    "decay_rate_fit",
    "small_r_constant",
]

_MIN_RESIDUAL_R = 0.01
# smallest radius taken: below about 7.46e-155 the 2F1 argument
# -1/sinh^2 r passes the float64 range
_MIN_R = 1e-154
_LOG_MAX = math.log(sys.float_info.max)  # exp passes the float64 range above it
# the two radii small_r_constant extrapolates from
_SMALL_R_RADII = (1e-3, 1e-4)


def vol_sphere(m: int) -> float:
    """Volume of the unit sphere S^(m-1) in R^m."""
    if m < 1:
        raise DomainError(f"sphere dimension parameter must be >= 1, got {m}")
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


def _check_gamma_args(*args: complex) -> None:
    for z in args:
        zr = round(z.real)
        if zr <= 0 and abs(z - zr) < 1e-12:
            raise PoleOfGamma(f"Gamma factor has a pole at argument {z}")


def plancherel_prefactor(space: SpaceDescriptor, s: complex) -> complex:
    """Gamma-factor prefactor f(s) of the hypergeometric closed form.

    f(s) = 2^(d-2) pi^(-(dn-1)/2) G((s+rho)/2) G(s + d(n-1)/2)
           / [G(s+1) G(s/2 + d(n-1)/4)].
    """
    s = complex(s)
    d, n = space.d, space.n
    rho = float(space.rho)
    num1 = (s + rho) / 2.0
    num2 = s + d * (n - 1) / 2.0
    _check_gamma_args(num1, num2)
    logf = (
        (d - 2) * math.log(2.0)
        - (d * n - 1) / 2.0 * math.log(math.pi)
        + _loggamma(num1)
        + _loggamma(num2)
        - _loggamma(s + 1.0)
        - _loggamma(s / 2.0 + d * (n - 1) / 4.0)
    )
    return complex(cmath.exp(logf))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _kernel_constants(d: int, n: int, s: complex) -> tuple[complex, complex, complex, complex]:
    """The 2F1 parameters (a, b, c) and log C(s) of the kernel on the space
    with base-field dimension d and rank-one dimension n.

    Keyed on (d, n, s) rather than on the SpaceDescriptor, whose Fraction
    is slow to hash.  Raises DomainError for a non-finite s and at or
    below the holomorphy boundary, and PoleOfGamma where C(s) has a pole.
    """
    m_alpha, m_2alpha = d * (n - 1), d - 1
    if not cmath.isfinite(s):
        raise DomainError(f"spectral parameter s = {s} is not finite")
    if s.real <= -m_alpha / 2.0:
        raise DomainError(
            f"spectral parameter Re s = {s.real} at or below the holomorphy "
            f"boundary -{m_alpha / 2}"
        )
    rho = m_alpha / 2.0 + m_2alpha
    a = (s + rho) / 2.0
    b = (s + 1.0) / 2.0 - m_alpha / 4.0
    c = s + 1.0
    _check_gamma_args(a, c - b)
    # C(s) is fixed by the short-distance law
    dn = d * n
    log_c = (
        a * math.log(2.0)
        + math.log(max(dn - 2, 1))
        + _loggamma(a)
        + _loggamma(c - b)
        - math.log(4.0)
        - (dn / 2.0) * math.log(math.pi)
        - _loggamma(c)
    )
    return a, b, c, log_c


def _log_sinh(r: float) -> float:
    # stable for large r: log sinh r = r - log 2 + log1p(-e^{-2r})
    if r > 20.0:
        return r - math.log(2.0) + math.log1p(-math.exp(-2.0 * r))
    return math.log(math.sinh(r))


def _prefactor(log_pre: complex, r: float) -> complex:
    """exp(log_pre), the kernel's prefactor at r; DomainError where it
    passes the float64 range."""
    if log_pre.real > _LOG_MAX:
        raise DomainError(f"the kernel's prefactor at r={r} passes the float64 range")
    return cmath.exp(log_pre)


def _finite(value: complex, r: float) -> complex:
    """value, the kernel or a derivative at r; DomainError where it passes
    the float64 range."""
    if not cmath.isfinite(value):
        raise DomainError(f"the kernel at r={r} passes the float64 range")
    return value


def green0_eval(space: SpaceDescriptor, s: complex, r: float) -> complex:
    """Green kernel g0(s, r) at geodesic distance r >= _MIN_R."""
    a, b, c, log_pre, z = _green0_point(space, complex(s), float(r))
    return _finite(_prefactor(log_pre, r) * gauss_2f1(a, b, c, z), r)


def green0_eval_many(space: SpaceDescriptor, s: complex, r) -> np.ndarray:
    """g0(s, r) at every distance in the array r, in one array pass.

    Agrees with green0_eval point by point to a relative 1e-13
    (`ARRAY_RTOL` in tests/test_green.py), not bit for bit: the one 2F1 entry
    (hyper._gauss_2f1_core) applies the same branch rule to the array of
    z and sums the points of each branch together, in array arithmetic.
    The normalization and the 2F1 parameters are computed once.
    """
    s = complex(s)
    r = np.asarray(r, dtype=float)
    bad = ~(r >= _MIN_R)  # NaN fails too
    if np.any(bad):
        raise DomainError(f"geodesic distance must be at least {_MIN_R}, got r={r[bad][0]}")
    a, b, c, log_c = _kernel_constants(space.d, space.n, s)
    L = math.log(2.0) + 2.0 * _log_sinh_many(r)
    over = (log_c - a * L).real > _LOG_MAX  # the bound of _prefactor
    if np.any(over):
        raise DomainError(f"the kernel's prefactor at r={r[over][0]} passes the float64 range")
    F = _gauss_2f1_core(a, b, c, -np.exp(-L + math.log(2.0)), 0)[0]
    with np.errstate(over="ignore", invalid="ignore"):  # a product past the range raises below
        g = np.exp(log_c - a * L) * F
    bad = ~np.isfinite(g)
    if np.any(bad):
        raise DomainError(f"the kernel at r={r[bad][0]} passes the float64 range")
    return g


def _log_sinh_many(r: np.ndarray) -> np.ndarray:
    out = np.empty_like(r)
    big = r > 20.0
    out[big] = r[big] - math.log(2.0) + np.log1p(-np.exp(-2.0 * r[big]))
    out[~big] = np.log(np.sinh(r[~big]))
    return out


def green0_derivatives(
    space: SpaceDescriptor, s: complex, r: float
) -> tuple[complex, complex, complex]:
    """The kernel and its first two radial derivatives, in closed form."""
    log_pre, (g, dg, ddg) = _green0_shape(space, complex(s), float(r))
    pre = _prefactor(log_pre, r)
    return _finite(pre * g, r), _finite(pre * dg, r), _finite(pre * ddg, r)


def _green0_point(
    space: SpaceDescriptor, s: complex, r: float
) -> tuple[complex, complex, complex, complex, float]:
    """The 2F1 parameters (a, b, c), the log of the prefactor
    C(s) (2 sinh^2 r)^(-a) and the 2F1 argument z = -1/sinh^2 r at r."""
    if not r >= _MIN_R:  # NaN fails too
        raise DomainError(f"geodesic distance must be at least {_MIN_R}, got r={r}")
    a, b, c, log_c = _kernel_constants(space.d, space.n, s)
    L = math.log(2.0) + 2.0 * _log_sinh(r)  # log(2 sinh^2 r)
    z = -math.exp(-L + math.log(2.0))        # -1/sinh^2 r, underflow-safe
    return a, b, c, log_c - a * L, z


def _green0_shape(
    space: SpaceDescriptor, s: complex, r: float
) -> tuple[complex, tuple[complex, complex, complex]]:
    """log of the prefactor of g0, and g0, g0' and g0'' divided by the
    prefactor, which stay finite where the prefactor underflows;
    DomainError where one of them passes the float64 range."""
    a, b, c, log_pre, z = _green0_point(space, s, r)
    # F and its first two z-derivatives from one pass over each series
    F0, F1, F2 = _gauss_2f1_core(a, b, c, complex(z), 2)
    Lp = 2.0 / math.tanh(r)                 # L'(r), with L = log(2 sinh^2 r)
    Lpp = 2.0 * z                          # L''(r) = -2/sinh^2 r
    zp = -Lp * z
    zpp = (Lp * Lp - Lpp) * z
    dg = -a * Lp * F0 + zp * F1
    # (a Lp)^2 as a product: past the float64 range it is inf, not an
    # OverflowError, and the check below raises
    ddg = (
        a * Lp * (a * Lp) * F0
        - a * Lpp * F0
        - 2.0 * a * Lp * zp * F1
        + zpp * F1
        + zp * zp * F2
    )
    if not (cmath.isfinite(F0) and cmath.isfinite(dg) and cmath.isfinite(ddg)):
        raise DomainError(f"the kernel's derivatives at r={r} pass the float64 range")
    return log_pre, (F0, dg, ddg)


def green0_ode_residual(space: SpaceDescriptor, s: complex, r: float) -> float:
    """Absolute residual of the radial equation, normalized by |g0|.

    The kernel solves
        g'' + [(dn-1) coth r + (d-1) tanh r] g' + (rho^2 - s^2) g = 0.
    Normalization by |g0| degenerates as r -> 0 (the coefficients blow
    up like 1/r), so small radii are rejected.  The prefactor of g0
    multiplies g, g' and g'' alike and cancels in the ratio, so it is
    left out: the residual stays finite where g0 underflows.
    """
    if r < _MIN_RESIDUAL_R:
        raise DomainError(
            f"residual normalization degenerates for r < {_MIN_RESIDUAL_R}, got {r}"
        )
    g, dg, ddg = _green0_shape(space, complex(s), float(r))[1]
    rho = space.m_alpha / 2.0 + space.m_2alpha
    coeff = (space.dim - 1) / math.tanh(r) + space.m_2alpha * math.tanh(r)
    res = ddg + coeff * dg + (rho * rho - s * s) * g
    return abs(res) / abs(g)


def decay_rate_fit(samples: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of -log(value) against r.

    For Green-kernel samples in the far field the slope recovers
    s + rho.  Radii and values must be finite, the values positive and
    the radii spread.
    """
    if len(samples) < 2:
        raise DegenerateFit("need at least two samples")
    rs = np.asarray([p[0] for p in samples], dtype=float)
    vals = np.asarray([p[1] for p in samples], dtype=float)
    if not (np.isfinite(rs).all() and np.isfinite(vals).all()):
        raise DomainError("decay fit requires finite radii and values")
    if np.any(vals <= 0):
        raise DomainError("decay fit requires positive values")
    if np.ptp(rs) < 1e-12:
        raise DegenerateFit("radii coincide; slope is undetermined")
    slope, _ = np.polyfit(rs, -np.log(vals), 1)
    return float(slope)


def small_r_constant(space: SpaceDescriptor, s: complex) -> float:
    """Extrapolated short-distance constant; equals 1 when the kernel
    satisfies  g0 ~ r^(2-dn)/vol(S^(dn-1))  (or the log law for dn = 2).

    The radii 1e-3 and 1e-4 are combined by linear extrapolation in the
    leading correction variable: r^min(dn-2, 2) in general, 1/log(1/r)
    for dn=2.
    """
    r1, r2 = _SMALL_R_RADII
    dn = space.dim
    if dn > 2:
        vol = vol_sphere(dn)
        v1 = (green0_eval(space, s, r1) * r1 ** (dn - 2) * vol).real
        v2 = (green0_eval(space, s, r2) * r2 ** (dn - 2) * vol).real
        kap = min(dn - 2, 2)
        w1, w2 = r1 ** kap, r2 ** kap
        return (v2 * w1 - v1 * w2) / (w1 - w2)
    u1 = (green0_eval(space, s, r1) * 2.0 * math.pi / (-math.log(r1))).real
    u2 = (green0_eval(space, s, r2) * 2.0 * math.pi / (-math.log(r2))).real
    L1, L2 = -math.log(r1), -math.log(r2)
    return (u2 * L2 - u1 * L1) / (L2 - L1)
