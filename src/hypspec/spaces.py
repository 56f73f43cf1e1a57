"""Structure constants of rank-one hyperbolic spaces, in exact arithmetic.

Everything here is a rational number computed with `fractions.Fraction`;
floating point enters only in the numerical modules downstream.  The
metric normalization pins sectional curvature inside [-4, -1], so the
half-sum of positive restricted roots is the rational

    rho = d(n-1)/2 + d - 1,

with d the real dimension of the base field and n the rank-one dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import CurvatureUnavailable, DomainError, UnknownConstant

__all__ = [
    "Field",
    "SpaceDescriptor",
    "make_space",
    "alpha_p",
    "casimir_m_exterior",
    "casimir_tau_prime",
    "curvature_term_min",
]


class Field(str, Enum):
    REAL = "R"
    COMPLEX = "C"
    QUATERNION = "H"
    OCTONION = "O"


_FIELD_DIM = {Field.REAL: 1, Field.COMPLEX: 2, Field.QUATERNION: 4, Field.OCTONION: 8}


@dataclass(frozen=True)
class SpaceDescriptor:
    """The pair (base field, dimension) with its derived constants."""

    field: Field
    n: int
    d: int
    dim: int            # real dimension d*n
    m_alpha: int        # multiplicity of the short restricted root, d(n-1)
    m_2alpha: int       # multiplicity of the long restricted root, d-1
    rho: Fraction

    def __str__(self) -> str:
        return f"H^{self.n}_{self.field.value}"


def make_space(field: Field | str, n: int) -> SpaceDescriptor:
    """Build a space descriptor, validating the (field, n) combination."""
    field = Field(field)
    if n < 2:
        raise DomainError(f"rank-one dimension must be >= 2, got {n}")
    if field is Field.OCTONION and n != 2:
        raise DomainError("the octonionic hyperbolic space only exists for n = 2")
    d = _FIELD_DIM[field]
    rho = Fraction(d * (n - 1), 2) + (d - 1)
    return SpaceDescriptor(
        field=field,
        n=n,
        d=d,
        dim=d * n,
        m_alpha=d * (n - 1),
        m_2alpha=d - 1,
        rho=rho,
    )


def _hodge_reflect(space: SpaceDescriptor, p: int) -> int:
    if not 0 <= p <= space.dim:
        raise DomainError(f"form degree p={p} out of range [0, {space.dim}]")
    return min(p, space.dim - p)


def alpha_p(space: SpaceDescriptor, p: int) -> Fraction:
    """Bottom of the continuous L2 spectrum of the degree-p Hodge Laplacian.

    Degrees above the middle are reflected first (the value is symmetric
    under p -> dim - p).  Octonionic values are only known for p in
    {0, 1} (and their reflections); anything else raises UnknownConstant.
    """
    p = _hodge_reflect(space, p)
    n = space.n
    if space.field is Field.REAL:
        return (Fraction(n - 1, 2) - p) ** 2
    if space.field is Field.COMPLEX:
        return Fraction(1) if p == n else Fraction((n - p) ** 2)
    if space.field is Field.QUATERNION:
        if p == 0:
            return Fraction((2 * n + 1) ** 2)
        if 1 <= p <= (4 * n - 1) // 6:
            return Fraction((2 * n - p) ** 2 + 8 * (n - p))
        if p <= n:
            return Fraction((2 * n + 1 - p) ** 2)
        if p <= 2 * n - 1:
            return Fraction((2 * n - p) ** 2)
        return Fraction(1)  # p == 2n, the quaternionic middle
    # octonionic plane: only the two lowest degrees are known
    if p == 0:
        return Fraction(121)
    if p == 1:
        return Fraction(97)
    raise UnknownConstant(
        f"alpha_p for the octonionic plane is unknown at degree {p} (known: p in {{0, 1, 15, 16}})"
    )


def casimir_m_exterior(space: SpaceDescriptor, q: int) -> Fraction:
    """Casimir value of the q-th exterior power of SO(n-1), real field only."""
    if space.field is not Field.REAL:
        raise DomainError(f"operation requires the real field, got {space.field.value}")
    if not 0 <= q <= space.n - 1:
        raise DomainError(f"q={q} out of range [0, {space.n - 1}]")
    return Fraction(q * (space.n - 1 - q))


def casimir_tau_prime(n: int, r: int, s: int) -> Fraction:
    """Casimir value of the primitive type (r, s) on the complex space.

    For r + s <= n this is 2(r+s)(n+1) - 4rs; labels past the middle are
    reflected through (r, s) -> (n-s, n-r) first.
    """
    if r < 0 or s < 0:
        raise DomainError(f"negative Lefschetz indices ({r},{s})")
    if r + s > 2 * n:
        raise DomainError(f"Lefschetz indices ({r},{s}) exceed bidegree range for n={n}")
    if r + s > n:
        r, s = n - s, n - r
    return Fraction(2 * (r + s) * (n + 1) - 4 * r * s)


def curvature_term_min(space: SpaceDescriptor, p: int) -> Fraction:
    """Infimum of the curvature term in the Weitzenboeck identity on p-forms.

    Only derived for the real and complex fields; the quaternionic and
    octonionic values are not implemented.
    """
    if not 0 <= p <= space.dim:
        raise DomainError(f"form degree p={p} out of range [0, {space.dim}]")
    n = space.n
    if space.field is Field.REAL:
        return Fraction(-p * (space.dim - p))
    if space.field is Field.COMPLEX:
        if p <= n:
            return Fraction(-2 * p * (n + 1))
        return Fraction(-2 * (2 * n - p) * (n + 1))
    raise CurvatureUnavailable(
        f"curvature-term minimum not available for field {space.field.value}"
    )
