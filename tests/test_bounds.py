from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypspec.bounds import (
    bochner_lower_bound,
    compare,
    sullivan_corlette,
    theorem_b_lower_bound,
)
from hypspec.errors import DomainError, UnknownConstant
from hypspec.spaces import Field, make_space

F = Fraction


def test_sullivan_corlette_examples():
    sp = make_space(Field.COMPLEX, 2)
    assert sullivan_corlette(sp, 1) == 4
    assert sullivan_corlette(sp, 4) == 0
    assert sullivan_corlette(sp, 3) == 3


def test_sullivan_corlette_plateau_and_range():
    sp = make_space(Field.QUATERNION, 2)
    for delta in [0, 1, F(9, 2), 5]:
        assert sullivan_corlette(sp, delta) == 25
    assert sullivan_corlette(sp, 6) == 24
    with pytest.raises(DomainError):
        sullivan_corlette(sp, -1)
    with pytest.raises(DomainError):
        sullivan_corlette(sp, 11)


def test_theorem_b_examples():
    bound, zp, _ = theorem_b_lower_bound(make_space(Field.REAL, 5), 1, 2.5)
    assert bound == pytest.approx(0.75)
    assert not zp
    bound, _, _ = theorem_b_lower_bound(make_space(Field.COMPLEX, 2), 1, 1.5)
    assert bound == 1
    bound, zp, _ = theorem_b_lower_bound(make_space(Field.REAL, 5), 2, 2)
    assert bound == 0
    assert not zp


def test_theorem_b_clamps_but_reports_raw():
    sp = make_space(Field.REAL, 5)
    rep = compare(sp, 1, F(7, 2))  # alpha_1 = 1, (delta-rho)^2 = 9/4
    assert rep.theorem_b_raw == F(1) - F(9, 4)
    assert rep.theorem_b_bound == 0


def test_theorem_b_continuity_at_rho():
    for field, n in [(Field.REAL, 5), (Field.COMPLEX, 3), (Field.QUATERNION, 2)]:
        sp = make_space(field, n)
        for p in range(sp.dim // 2 + 1):
            below, _, _ = theorem_b_lower_bound(sp, p, sp.rho)
            eps = F(1, 10 ** 6)
            above, _, _ = theorem_b_lower_bound(sp, p, sp.rho + eps)
            assert abs(below - above) <= eps


def test_theorem_b_monotone_past_rho():
    sp = make_space(Field.COMPLEX, 3)
    for p in [0, 1, 2, 3]:
        prev = None
        for k in range(21):
            delta = sp.rho + (sp.rho * k) / 20
            b, _, _ = theorem_b_lower_bound(sp, p, delta)
            if prev is not None:
                assert b <= prev
            prev = b


def test_zero_flags():
    sp = make_space(Field.REAL, 4)  # dim 4, middle p = 2, alpha_2 = 1/4
    _, zp, zi = theorem_b_lower_bound(sp, 2, 1)
    assert zp and zi
    # at delta = rho + sqrt(alpha_p) isolation is no longer asserted
    _, zp, zi = theorem_b_lower_bound(sp, 2, sp.rho + F(1, 2))
    assert zp and not zi
    _, zp, zi = theorem_b_lower_bound(sp, 1, 1)
    assert not zp and not zi


def test_theorem_b_propagates_unknown():
    sp = make_space(Field.OCTONION, 2)
    with pytest.raises(UnknownConstant):
        theorem_b_lower_bound(sp, 5, 1)


def test_bochner_examples():
    assert bochner_lower_bound(make_space(Field.REAL, 5), 1, 2) == 0
    assert bochner_lower_bound(make_space(Field.COMPLEX, 2), 1, 1) == -2
    for sp in [make_space(Field.REAL, 6), make_space(Field.COMPLEX, 3)]:
        assert bochner_lower_bound(sp, 0, 1) == sp.rho ** 2


def test_compare_examples():
    rep = compare(make_space(Field.REAL, 5), 1, 2)
    assert rep.difference == 1
    rep = compare(make_space(Field.COMPLEX, 3), 2, 3)
    assert rep.difference == 8
    rep = compare(make_space(Field.COMPLEX, 4), 0, 2)
    assert rep.difference == 0


def test_compare_identity_exact_over_grid():
    # difference is p (real) or p(p+2) (complex), independent of delta,
    # over the whole stated delta range at each degree below the middle
    for n in range(2, 9):
        sp = make_space(Field.REAL, n)
        for p in range(0, (sp.dim - 1) // 2 + 1):
            lo, hi = sp.rho, F(n - 1 - p)
            for k in range(21):
                delta = lo + (hi - lo) * F(k, 20) if hi > lo else lo
                rep = compare(sp, p, delta)
                assert rep.difference == p
    for n in range(2, 9):
        sp = make_space(Field.COMPLEX, n)
        for p in range(0, n):
            lo, hi = sp.rho, F(2 * n - p)
            for k in range(21):
                delta = lo + (hi - lo) * F(k, 20)
                rep = compare(sp, p, delta)
                assert rep.difference == p * (p + 2)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from([Field.REAL, Field.COMPLEX]), st.integers(2, 8), st.data())
def test_compare_difference_is_delta_independent_at_random_rational_delta(field, n, data):
    # p (real) or p(p+2) (complex) at every degree up to the middle, for
    # any admissible delta in [0, 2 rho]
    sp = make_space(field, n)
    p = data.draw(st.integers(0, n // 2 if field is Field.REAL else n - 1))
    delta = data.draw(st.fractions(0, 2 * sp.rho, max_denominator=1000))
    want = p if field is Field.REAL else p * (p + 2)
    assert compare(sp, p, delta).difference == want


def test_compare_quaternion_has_no_bochner():
    rep = compare(make_space(Field.QUATERNION, 2), 1, 2)
    assert rep.bochner_bound is None and rep.difference is None
    assert rep.theorem_b_bound == 17
