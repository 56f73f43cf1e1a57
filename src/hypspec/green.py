"""Scalar Green kernel of the shifted Laplacian on a hyperbolic space.

The kernel g0(s, r) of the resolvent at spectral parameter s (bottom of
the spectrum at rho^2, resolvent of Delta - rho^2 + s^2) has the closed
form

    g0(s, r) = C(s) * (2 sinh^2 r)^(-(s+rho)/2)
               * 2F1((s+rho)/2, (s+1)/2 - d(n-1)/4; s+1; -1/sinh^2 r),

real and positive for real s > 0.  The normalization C(s) is fixed by
the short-distance law  g0 ~ r^(2-dn) / vol(S^(dn-1))  (logarithmic for
dn = 2) and validated against the three-dimensional closed form
e^(-sr) / (4 pi sinh r); it ties to the classical Gamma-factor
prefactor f(s) through the Legendre duplication identity

    C(s) = max(dn-2, 1) * f(s) * 2^(-(s+rho)/2).

Derivatives for the equation residual are computed in closed form via
the contiguous relation d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z),
so the residual measures only formula and series error, with no
finite-difference noise floor.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .errors import DegenerateFit, DomainError, PoleOfGamma
from .hyper import (
    DEFAULT_CONFIG,
    GreenEvalConfig,
    _INF_EDGE,
    _loggamma,
    _near_nonpositive_int,
    _series_many,
    _terminates,
    gauss_2f1,
)
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


def _hyper_params(space: SpaceDescriptor, s: complex) -> tuple[complex, complex, complex]:
    rho = float(space.rho)
    a = (s + rho) / 2.0
    b = (s + 1.0) / 2.0 - space.d * (space.n - 1) / 4.0
    c = s + 1.0
    return a, b, c


def _log_norm_constant(space: SpaceDescriptor, s: complex) -> complex:
    """log C(s), with C fixed by the short-distance law."""
    a, b, c = _hyper_params(space, s)
    dn = space.dim
    _check_gamma_args(a, c - b)
    kappa = max(dn - 2, 1)
    return (
        a * math.log(2.0)
        + math.log(kappa)
        + _loggamma(a)
        + _loggamma(c - b)
        - math.log(4.0)
        - (dn / 2.0) * math.log(math.pi)
        - _loggamma(c)
    )


def _log_sinh(r: float) -> float:
    # stable for large r: log sinh r = r - log 2 + log1p(-e^{-2r})
    if r > 20.0:
        return r - math.log(2.0) + math.log1p(-math.exp(-2.0 * r))
    return math.log(math.sinh(r))


def _check_s_domain(space: SpaceDescriptor, s: complex) -> None:
    if s.real <= -space.m_alpha / 2.0:
        raise DomainError(
            f"spectral parameter Re s = {s.real} at or below the holomorphy "
            f"boundary -{space.m_alpha / 2}"
        )


def green0_eval(
    space: SpaceDescriptor,
    s: complex,
    r: float,
    config: GreenEvalConfig | None = None,
) -> complex:
    """Green kernel g0(s, r) at geodesic distance r > 0."""
    return _green0_core(space, complex(s), float(r), config or DEFAULT_CONFIG, 0)[0]


def green0_eval_many(space: SpaceDescriptor, s: complex, r) -> np.ndarray:
    """g0(s, r) at every distance in the array r, in one array pass.

    Agrees with green0_eval point by point and takes the same 2F1 branch
    at every point.  The normalization and the 2F1 parameters are
    computed once.  Points with |z| < 3 (r >~ 0.55), where gauss_2f1
    sums the Pfaff series at |z/(z-1)| <= 0.75, are summed by a masked
    Pfaff series that stops each point where the scalar series would;
    the remaining points (the z -> 1/z connection) and all points when
    a, b or c is a non-positive integer go through the scalar gauss_2f1.
    """
    s = complex(s)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError(f"geodesic distance must be positive, got r={r[r <= 0][0]}")
    _check_s_domain(space, s)
    cfg = DEFAULT_CONFIG
    a, b, c = _hyper_params(space, s)
    L = math.log(2.0) + 2.0 * _log_sinh_many(r)
    z = -np.exp(-L + math.log(2.0))
    if _near_nonpositive_int(c) or _terminates(a, b):
        pfaff = np.zeros(r.shape, dtype=bool)
    else:
        pfaff = z > -_INF_EDGE
    zp = z[pfaff]
    F = np.empty(r.shape, dtype=complex)
    F[pfaff] = _series_many(a, c - b, c, zp / (zp - 1.0), cfg)
    F[~pfaff] = [gauss_2f1(a, b, c, zi, cfg) for zi in z[~pfaff]]
    # the Pfaff factor (1 - z)^(-a) joins the prefactor's exponent
    L[pfaff] += np.log1p(-zp)
    return np.exp(_log_norm_constant(space, s) - a * L) * F


def _log_sinh_many(r: np.ndarray) -> np.ndarray:
    out = np.empty_like(r)
    big = r > 20.0
    out[big] = r[big] - math.log(2.0) + np.log1p(-np.exp(-2.0 * r[big]))
    out[~big] = np.log(np.sinh(r[~big]))
    return out


def green0_derivatives(
    space: SpaceDescriptor,
    s: complex,
    r: float,
    config: GreenEvalConfig | None = None,
) -> tuple[complex, complex, complex]:
    """The kernel and its first two radial derivatives, in closed form."""
    return _green0_core(space, complex(s), float(r), config or DEFAULT_CONFIG, 2)


def _green0_core(
    space: SpaceDescriptor,
    s: complex,
    r: float,
    cfg: GreenEvalConfig,
    order: int,
) -> tuple[complex, complex, complex]:
    if r <= 0:
        raise DomainError(f"geodesic distance must be positive, got r={r}")
    _check_s_domain(space, s)
    a, b, c = _hyper_params(space, s)
    ls = _log_sinh(r)
    L = math.log(2.0) + 2.0 * ls          # log(2 sinh^2 r)
    z = -math.exp(-L + math.log(2.0))     # -1/sinh^2 r, underflow-safe
    pre = cmath.exp(_log_norm_constant(space, s) - a * L)
    F0 = gauss_2f1(a, b, c, z, cfg)
    g = pre * F0
    if order == 0:
        return g, 0j, 0j
    coth = 1.0 / math.tanh(r)
    Lp = 2.0 * coth                        # L'(r)
    Lpp = -2.0 / math.sinh(r) ** 2         # L''(r)
    zp = -Lp * z
    zpp = (Lp * Lp - Lpp) * z
    F1 = a * b / c * gauss_2f1(a + 1, b + 1, c + 1, z, cfg)
    dg = pre * (-a * Lp * F0 + zp * F1)
    if order == 1:
        return g, dg, 0j
    F2 = a * (a + 1) * b * (b + 1) / (c * (c + 1)) * gauss_2f1(a + 2, b + 2, c + 2, z, cfg)
    ddg = pre * (
        (a * Lp) ** 2 * F0
        - a * Lpp * F0
        - 2.0 * a * Lp * zp * F1
        + zpp * F1
        + zp * zp * F2
    )
    return g, dg, ddg


def green0_ode_residual(
    space: SpaceDescriptor,
    s: complex,
    r: float,
    config: GreenEvalConfig | None = None,
) -> float:
    """Absolute residual of the radial equation, normalized by |g0|.

    The kernel solves
        g'' + [(dn-1) coth r + (d-1) tanh r] g' + (rho^2 - s^2) g = 0.
    Normalization by |g0| degenerates as r -> 0 (the coefficients blow
    up like 1/r), so small radii are rejected.
    """
    if r < _MIN_RESIDUAL_R:
        raise DomainError(
            f"residual normalization degenerates for r < {_MIN_RESIDUAL_R}, got {r}"
        )
    g, dg, ddg = green0_derivatives(space, s, r, config)
    d, n = space.d, space.n
    rho = float(space.rho)
    coeff = (d * n - 1) / math.tanh(r) + (d - 1) * math.tanh(r)
    res = ddg + coeff * dg + (rho * rho - s * s) * g
    return abs(res) / abs(g)


def decay_rate_fit(samples: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of -log(value) against r.

    For Green-kernel samples in the far field the slope recovers
    s + rho.  Values must be positive and the radii must have spread.
    """
    if len(samples) < 2:
        raise DegenerateFit("need at least two samples")
    rs = np.asarray([p[0] for p in samples], dtype=float)
    vals = np.asarray([p[1] for p in samples], dtype=float)
    if np.any(vals <= 0):
        raise DomainError("decay fit requires positive values")
    if np.ptp(rs) < 1e-12:
        raise DegenerateFit("radii coincide; slope is undetermined")
    slope, _ = np.polyfit(rs, -np.log(vals), 1)
    return float(slope)


def small_r_constant(
    space: SpaceDescriptor,
    s: complex,
    radii: tuple[float, float] = (1e-3, 1e-4),
    config: GreenEvalConfig | None = None,
) -> float:
    """Extrapolated short-distance constant; equals 1 when the kernel
    satisfies  g0 ~ r^(2-dn)/vol(S^(dn-1))  (or the log law for dn = 2).

    Two radii are combined by linear extrapolation in the leading
    correction variable: r^min(dn-2, 2) in general, 1/log(1/r) for dn=2.
    """
    r1, r2 = radii
    if not 0 < r2 < r1:
        raise DomainError("radii must satisfy 0 < r2 < r1")
    dn = space.dim
    if dn > 2:
        vol = vol_sphere(dn)
        v1 = (green0_eval(space, s, r1, config) * r1 ** (dn - 2) * vol).real
        v2 = (green0_eval(space, s, r2, config) * r2 ** (dn - 2) * vol).real
        kap = min(dn - 2, 2)
        w1, w2 = r1 ** kap, r2 ** kap
        return (v2 * w1 - v1 * w2) / (w1 - w2)
    u1 = (green0_eval(space, s, r1, config) * 2.0 * math.pi / (-math.log(r1))).real
    u2 = (green0_eval(space, s, r2, config) * 2.0 * math.pi / (-math.log(r2))).real
    L1, L2 = -math.log(r1), -math.log(r2)
    return (u2 * L2 - u1 * L1) / (L2 - L1)
