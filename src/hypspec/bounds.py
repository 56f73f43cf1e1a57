"""Spectral lower bounds on quotients and their side-by-side comparison.

Two routes to a lower bound for the bottom of the p-form spectrum of a
quotient with critical exponent delta:

* the resolvent route: alpha_p when delta <= rho, otherwise
  alpha_p - (delta - rho)^2, clamped at zero;
* the Weitzenboeck route: the function-case bound plus the curvature-term
  minimum.

All arithmetic is type-generic: exact inputs (int, Fraction) stay exact,
floats stay floats.  The comparison difference is taken on pre-clamp
values, where it is a delta-independent constant (p in the real case,
p(p+2) in the complex case, below the middle degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import CurvatureUnavailable, DomainError
from .spaces import SpaceDescriptor, alpha_p, curvature_term_min

Scalar = Union[int, float, Fraction]

__all__ = [
    "BoundsReport",
    "sullivan_corlette",
    "theorem_b_lower_bound",
    "bochner_lower_bound",
    "compare",
]


@dataclass(frozen=True)
class BoundsReport:
    space: SpaceDescriptor
    p: int
    delta: Scalar
    theorem_b_bound: Scalar          # clamped at 0
    theorem_b_raw: Scalar            # pre-clamp value
    zero_possible: bool              # an extra 0 eigenvalue can occur (middle degree)
    zero_isolated: bool              # ... and is then discrete and spectrally isolated
    sullivan_corlette_lambda00: Scalar
    bochner_bound: Optional[Scalar]  # None when the curvature term is unavailable
    difference: Optional[Scalar]     # theorem_b_raw - bochner_bound


def _check_delta(space: SpaceDescriptor, delta: Scalar) -> None:
    if not 0 <= delta <= 2 * space.rho:
        raise DomainError(
            f"critical exponent {delta} outside [0, {2 * space.rho}] for {space}"
        )


def sullivan_corlette(space: SpaceDescriptor, delta: Scalar) -> Scalar:
    """Bottom of the function spectrum of a quotient with critical exponent delta."""
    _check_delta(space, delta)
    rho = space.rho
    if delta <= rho:
        return rho * rho
    return delta * (2 * rho - delta)


def theorem_b_lower_bound(
    space: SpaceDescriptor, p: int, delta: Scalar
) -> tuple[Scalar, bool, bool]:
    """Resolvent-route lower bound for the degree-p spectrum.

    Returns (bound, zero_possible, zero_isolated).  The bound is clamped
    at zero; past delta = rho + sqrt(alpha_p) the statement degenerates
    to that triviality.  In the middle degree an extra zero eigenvalue is
    possible; it is spectrally isolated while delta < rho + sqrt(alpha_p).
    """
    return _theorem_b(space, p, delta)[1:]


def _theorem_b(space: SpaceDescriptor, p: int, delta: Scalar) -> tuple[Scalar, Scalar, bool, bool]:
    """(pre-clamp bound, bound, zero_possible, zero_isolated)."""
    _check_delta(space, delta)
    alpha = alpha_p(space, p)
    rho = space.rho
    if delta <= rho:
        raw = alpha
    else:
        raw = alpha - (delta - rho) ** 2
    bound = raw if raw > 0 else 0 * raw
    zero_possible = 2 * p == space.dim
    gap = delta - rho
    zero_isolated = zero_possible and (gap < 0 or gap * gap < alpha)
    return raw, bound, zero_possible, zero_isolated


def bochner_lower_bound(space: SpaceDescriptor, p: int, delta: Scalar) -> Scalar:
    """Weitzenboeck-route lower bound, unclamped.

    Function-case bound plus the curvature-term minimum; raises
    CurvatureUnavailable outside the real and complex fields.
    """
    return sullivan_corlette(space, delta) + curvature_term_min(space, p)


def compare(space: SpaceDescriptor, p: int, delta: Scalar) -> BoundsReport:
    """Both bounds side by side, with their pre-clamp difference."""
    raw, bound, zero_possible, zero_isolated = _theorem_b(space, p, delta)
    sc = sullivan_corlette(space, delta)
    try:
        bochner = bochner_lower_bound(space, p, delta)
        difference = raw - bochner
    except CurvatureUnavailable:
        bochner = None
        difference = None
    return BoundsReport(
        space=space,
        p=p,
        delta=delta,
        theorem_b_bound=bound,
        theorem_b_raw=raw,
        zero_possible=zero_possible,
        zero_isolated=zero_isolated,
        sullivan_corlette_lambda00=sc,
        bochner_bound=bochner,
        difference=difference,
    )
