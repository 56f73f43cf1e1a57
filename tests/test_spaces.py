from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypspec.errors import CurvatureUnavailable, DomainError, UnknownConstant
from hypspec.spaces import (
    Field,
    alpha_p,
    casimir_m_exterior,
    casimir_tau_prime,
    curvature_term_min,
    make_space,
)

F = Fraction


def test_make_space_rho_values():
    assert make_space(Field.REAL, 3).rho == F(1)
    assert make_space(Field.REAL, 4).rho == F(3, 2)
    assert make_space(Field.COMPLEX, 3).rho == F(3)
    assert make_space(Field.QUATERNION, 2).rho == F(5)
    assert make_space(Field.OCTONION, 2).rho == F(11)


def test_make_space_derived_fields():
    sp = make_space("H", 3)
    assert (sp.d, sp.dim, sp.m_alpha, sp.m_2alpha) == (4, 12, 8, 3)
    assert sp.rho == F(4 * 2, 2) + 3


def test_make_space_rejects_bad_input():
    with pytest.raises(DomainError):
        make_space(Field.REAL, 1)
    with pytest.raises(DomainError):
        make_space(Field.OCTONION, 3)


def test_alpha_real_table():
    sp = make_space(Field.REAL, 5)
    assert alpha_p(sp, 2) == 0
    assert alpha_p(sp, 1) == 1
    assert alpha_p(make_space(Field.REAL, 3), 1) == 0
    # half-integer rho squared stays exact
    assert alpha_p(make_space(Field.REAL, 4), 1) == F(1, 4)


def test_alpha_complex_table():
    sp = make_space(Field.COMPLEX, 3)
    assert alpha_p(sp, 3) == 1
    assert alpha_p(sp, 2) == 1
    assert alpha_p(sp, 0) == 9


def test_alpha_quaternion_table():
    sp = make_space(Field.QUATERNION, 2)
    assert alpha_p(sp, 0) == 25
    # branch cut at floor((4n-1)/6) = 1
    assert alpha_p(sp, 1) == 17
    assert alpha_p(sp, 2) == 9
    assert alpha_p(sp, 3) == 1
    assert alpha_p(sp, 4) == 1


def test_alpha_quaternion_branch_boundaries():
    # the first branch covers 1 <= p <= floor((4n-1)/6) for every n
    for n in range(2, 9):
        sp = make_space(Field.QUATERNION, n)
        cut = (4 * n - 1) // 6
        for p in range(1, cut + 1):
            assert alpha_p(sp, p) == (2 * n - p) ** 2 + 8 * (n - p)
        for p in range(cut + 1, n + 1):
            assert alpha_p(sp, p) == (2 * n + 1 - p) ** 2


def test_alpha_octonion():
    sp = make_space(Field.OCTONION, 2)
    assert alpha_p(sp, 0) == 121
    assert alpha_p(sp, 1) == 97
    assert alpha_p(sp, 16) == 121
    assert alpha_p(sp, 15) == 97
    for p in range(2, 15):
        with pytest.raises(UnknownConstant):
            alpha_p(sp, p)


def test_alpha_zero_is_rho_squared_everywhere():
    for field, n in [(Field.REAL, 2), (Field.REAL, 7), (Field.COMPLEX, 4),
                     (Field.QUATERNION, 3), (Field.OCTONION, 2)]:
        sp = make_space(field, n)
        assert alpha_p(sp, 0) == sp.rho ** 2


def test_alpha_hodge_symmetry():
    for field, nmax in [(Field.REAL, 8), (Field.COMPLEX, 8), (Field.QUATERNION, 8)]:
        for n in range(2, nmax + 1):
            sp = make_space(field, n)
            for p in range(sp.dim + 1):
                assert alpha_p(sp, p) == alpha_p(sp, sp.dim - p)


def alpha_or_unknown(space, p):
    try:
        return alpha_p(space, p)
    except UnknownConstant:
        return UnknownConstant


HODGE_SPACES = [make_space(f, n) for f in (Field.REAL, Field.COMPLEX, Field.QUATERNION)
                for n in range(2, 9)] + [make_space(Field.OCTONION, 2)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(HODGE_SPACES), st.data())
def test_alpha_hodge_symmetry_random_degrees(space, data):
    # alpha_p(p) = alpha_p(dim - p), unknown octonionic degrees included
    p = data.draw(st.integers(0, space.dim))
    assert alpha_or_unknown(space, p) == alpha_or_unknown(space, space.dim - p)


def test_alpha_vanishes_only_for_real_adjacent_middle():
    for field, n in [(Field.REAL, 3), (Field.REAL, 5), (Field.REAL, 7)]:
        sp = make_space(field, n)
        zeros = {p for p in range(sp.dim + 1) if alpha_p(sp, p) == 0}
        assert zeros == {(n - 1) // 2, (n + 1) // 2}
    for field, n in [(Field.COMPLEX, 2), (Field.COMPLEX, 5), (Field.QUATERNION, 2)]:
        sp = make_space(field, n)
        assert all(alpha_p(sp, p) > 0 for p in range(sp.dim + 1))


def test_casimir_m_exterior_values():
    sp5 = make_space(Field.REAL, 5)
    assert casimir_m_exterior(sp5, 0) == 0
    # derived from rho^2 - alpha_1 = 4 - 1
    assert casimir_m_exterior(sp5, 1) == 3
    sp7 = make_space(Field.REAL, 7)
    # rho^2 - alpha_2 = 9 - 1, cross-check q(n-1-q) = 2*4
    assert casimir_m_exterior(sp7, 2) == 8


def test_casimir_m_exterior_matches_alpha():
    for n in range(2, 9):
        sp = make_space(Field.REAL, n)
        for p in range((n - 1) // 2 + 1):
            assert alpha_p(sp, p) == sp.rho ** 2 - casimir_m_exterior(sp, p)


def test_casimir_m_exterior_rejects_nonreal():
    with pytest.raises(DomainError):
        casimir_m_exterior(make_space(Field.COMPLEX, 2), 0)


def test_casimir_tau_prime_values():
    assert casimir_tau_prime(2, 1, 0) == 6
    assert casimir_tau_prime(3, 0, 0) == 0
    assert casimir_tau_prime(3, 1, 1) == 12
    # past the middle: (r,s) -> (n-s, n-r)
    assert casimir_tau_prime(2, 2, 1) == casimir_tau_prime(2, 1, 0)
    with pytest.raises(DomainError):
        casimir_tau_prime(2, -1, 0)
    with pytest.raises(DomainError):
        casimir_tau_prime(2, 3, 2)


def test_casimir_tau_prime_max_at_rank_zero():
    # at fixed degree p = r+s <= n the maximum sits at rs = 0
    for n in range(2, 7):
        for p in range(0, n + 1):
            values = [casimir_tau_prime(n, r, p - r) for r in range(0, p + 1)]
            assert max(values) == 2 * p * (n + 1)
            sp = make_space(Field.COMPLEX, n)
            assert 2 * p * (n + 1) == -curvature_term_min(sp, p)


def test_curvature_term_min():
    assert curvature_term_min(make_space(Field.REAL, 5), 1) == -4
    assert curvature_term_min(make_space(Field.COMPLEX, 2), 1) == -6
    assert curvature_term_min(make_space(Field.COMPLEX, 2), 0) == 0
    # complex case reflects through p = n
    assert curvature_term_min(make_space(Field.COMPLEX, 3), 5) == \
        curvature_term_min(make_space(Field.COMPLEX, 3), 1)
    with pytest.raises(CurvatureUnavailable):
        curvature_term_min(make_space(Field.QUATERNION, 2), 1)
    with pytest.raises(CurvatureUnavailable):
        curvature_term_min(make_space(Field.OCTONION, 2), 1)


def test_everything_is_exact_rational():
    for field, n in [(Field.REAL, 6), (Field.COMPLEX, 3), (Field.QUATERNION, 2)]:
        sp = make_space(field, n)
        assert isinstance(sp.rho, Fraction)
        for p in range(sp.dim + 1):
            assert isinstance(alpha_p(sp, p), Fraction)
