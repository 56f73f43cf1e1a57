import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypspec import hyper
from hypspec.errors import DomainError, NoConvergence, PoleOfGamma
from hypspec.green import green0_derivatives
from hypspec.hyper import DEFAULT_CONFIG, GreenEvalConfig, _inf_connection_integer, gauss_2f1
from hypspec.spaces import make_space

mpmath.mp.dps = 30

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)
# the nine spaces of the green-sweep benchmark workload
GREEN_SPACES = [make_space(f, n) for f, n in [("R", 2), ("R", 3), ("R", 4), ("R", 5), ("C", 2),
                                              ("C", 3), ("H", 2), ("H", 3), ("O", 2)]]


def naive_series(a, b, c, z, kmax=200000):
    """Independent brute-force summation oracle (|z| < 1 only)."""
    term = 1.0 + 0j
    total = 1.0 + 0j
    for k in range(kmax):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * z
        total += term
        if abs(term) < 1e-17 * max(1.0, abs(total)):
            break
    return total


def test_empty_series():
    assert gauss_2f1(0.3, 1.7, 2.2, 0.0) == 1.0


def test_log_identity():
    # 2F1(1, 1; 2; z) = -log(1-z)/z
    for z in [0.5, -0.75, 0.3 + 0.2j]:
        expected = -np.log(1 - z) / z
        assert gauss_2f1(1, 1, 2, z) == pytest.approx(expected, rel=1e-13)


def test_binomial_identity():
    # 2F1(a, b; b; z) = (1-z)^(-a)
    for a, b, z in [(0.7, 2.3, -0.4), (1.5, 0.9, 0.6)]:
        assert gauss_2f1(a, b, b, z) == pytest.approx((1 - z) ** (-a), rel=1e-13)


def test_against_naive_series():
    cases = [
        (0.5, 1.5, 2.0, 0.3),
        (0.25, 0.75, 1.25, -0.6),
        (1.2 + 0.3j, 0.4, 2.1 - 0.2j, 0.5j),
    ]
    for a, b, c, z in cases:
        assert gauss_2f1(a, b, c, z) == pytest.approx(naive_series(a, b, c, z), rel=1e-12)


@pytest.mark.parametrize(
    "a,b,c",
    [
        (0.75, 1.25, 2.5),          # half-integer difference
        (0.3, 2.3, 1.7),            # integer difference m=2
        (0.3, 0.3, 1.7),            # equal parameters (m=0)
        (1.0, 2.0, 3.0),            # digamma poles inside the log series
        (0.75 + 0.25j, 1.75 + 0.25j, 2.5 + 0.5j),
        (0.6 + 0.1j, 0.6 + 0.1j, 1.9 + 0.2j),
        (0.25, 7.25, 0.5),          # large integer difference
    ],
)
@pytest.mark.parametrize("z", [-0.5, -2.0, -9.5, -120.0, -1e5])
def test_against_mpmath_negative_axis(a, b, c, z):
    ref = complex(mpmath.hyp2f1(a, b, c, z))
    val = gauss_2f1(a, b, c, z)
    assert val == pytest.approx(ref, rel=5e-13)


def test_against_mpmath_near_one():
    for a, b, c in [(0.3, 0.7, 2.25), (0.5 + 0.1j, 1.1, 2.3)]:
        for z in [0.95, 0.97 + 0.01j]:
            ref = complex(mpmath.hyp2f1(a, b, c, z))
            assert gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=1e-10)


def test_terminating_polynomial():
    # 2F1(-3, b; c; z) is a cubic polynomial, defined even past the cut
    a, b, c = -3, 1.3, 2.7
    for z in [0.5, 2.0, -15.0]:
        ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=1e-13)


def test_pole_of_gamma():
    with pytest.raises(PoleOfGamma):
        gauss_2f1(0.5, 0.7, 0, 0.3)
    with pytest.raises(PoleOfGamma):
        gauss_2f1(0.5, 0.7, -2, 0.3)


def test_branch_cut_rejected():
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.7, 1.3, 1.5)


def test_no_convergence_budget():
    cfg = GreenEvalConfig(series_tolerance=1e-14, max_terms=3)
    with pytest.raises(NoConvergence):
        gauss_2f1(0.5, 1.7, 1.1, 0.89, cfg)


def test_config_validation():
    with pytest.raises(DomainError):
        GreenEvalConfig(series_tolerance=0.0)
    with pytest.raises(DomainError):
        GreenEvalConfig(max_terms=0)


def test_green_kernel_parameter_shapes():
    # parameter shapes that the kernel evaluator generates, all fields
    for d, n in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (4, 2), (8, 2)]:
        rho = d * (n - 1) / 2 + d - 1
        for s in [0.6, 1.5, 2 + 1j]:
            a = (s + rho) / 2
            b = (s + 1) / 2 - d * (n - 1) / 4
            c = s + 1
            for r in [0.05, 0.5, 2.0]:
                z = -1.0 / math.sinh(r) ** 2
                ref = complex(mpmath.hyp2f1(a, b, c, z))
                assert gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=1e-12)


def mpmath_rel_err(a, b, c, z):
    ref = complex(mpmath.hyp2f1(a, b, c, z))
    return abs(gauss_2f1(a, b, c, z) - ref) / abs(ref)


def green_params(space, s):
    a = (s + float(space.rho)) / 2
    b = (s + 1) / 2 - space.m_alpha / 4
    return a, b, s + 1


def pole_distance(c):
    """Distance of c from the nearest non-positive integer."""
    return abs(c - min(round(c.real), 0))


@st.composite
def holomorphic_s(draw, im_max=2.0):
    """A space of the sweep and s with -m_alpha/2 + 0.05 <= Re s <= 2.5."""
    space = draw(st.sampled_from(GREEN_SPACES))
    re = draw(st.floats(-space.m_alpha / 2 + 0.05, 2.5))
    s = complex(re, draw(st.floats(-im_max, im_max)))
    assume(pole_distance(s + 1) > 1e-3)  # c = s + 1 at a pole of 2F1
    return space, s


neg_axis = st.floats(0.1, 100.0).map(lambda x: -x)
cplx_a = st.builds(complex, st.floats(-1.0, 2.5), st.floats(-1.5, 1.5))
cplx_c = st.builds(complex, st.floats(0.25, 3.0), st.floats(-1.5, 1.5))


# Each tolerance is about 5x the worst error against mpmath over these
# examples with smallest-argument dispatch.  Worst errors, with those of
# the previous dispatch (Pfaff up to |z| = 9, 1/z beyond) in brackets:
# Green shapes 1.2e-14 (3.3e-14); integer and half-integer gaps 7.4e-12
# (7.4e-12), from the Pfaff series at |z| = 1.8 with a - b = -6.5, where
# both dispatches agree; near-integer gaps 1.3e-7 (1.3e-7), at |z| = 62
# with a gap of 1.1e-8.  (Kept out of the test bodies, whose source seeds
# the examples.)
GREEN_SHAPES_RTOL = 6e-14
INTEGER_GAP_RTOL = 4e-11
NEAR_INTEGER_GAP_RTOL = 7e-7
# a within 3e-14 to 5e-9 of 0, -1, -2 or -3, off the terminating snap:
# worst 8.6e-15 (a = -3 + 5e-9, b = -2 + 5e-9, z = -0.3); 6.7e-5 when a
# and b within 1e-8 of a non-positive integer were summed as polynomials
NEAR_TERMINATING_RTOL = 5e-14


@PROPERTY
@given(holomorphic_s(), st.floats(0.02, 25.0))
def test_green_kernel_shapes_against_mpmath(space_s, r):
    space, s = space_s
    a, b, c = green_params(space, s)
    assert mpmath_rel_err(a, b, c, -1.0 / math.sinh(r) ** 2) <= GREEN_SHAPES_RTOL


@PROPERTY
@given(cplx_a, st.integers(-14, 14), cplx_c, neg_axis)
def test_integer_and_half_integer_gaps_against_mpmath(a, twice_gap, c, z):
    b = a + twice_gap / 2
    # a or b within 1e-15 of a non-positive integer snaps onto a polynomial
    assume(min(pole_distance(a), pole_distance(b)) > 1e-15)
    assert mpmath_rel_err(a, b, c, z) <= INTEGER_GAP_RTOL


@PROPERTY
@given(cplx_a, st.integers(-4, 4), st.floats(-8.0, -2.0), st.sampled_from([-1, 1]), cplx_c,
       neg_axis)
def test_near_integer_gaps_against_mpmath(a, m, log_gap, sign, c, z):
    # the generic 1/z connection cancels digits here (hyper module docstring)
    assert mpmath_rel_err(a, a + m + sign * 10.0 ** log_gap, c, z) <= 2e-7


@pytest.mark.parametrize("m", [0, -1, -2, -3])
@pytest.mark.parametrize("offset", [3e-14, -1e-10, 5e-9])
def test_near_terminating_parameters_against_mpmath(m, offset):
    a = m + offset
    for gap in (0.37, 0.5, 1.0, 2.0):
        for z in (-0.3, -5.0, -200.0):
            assert mpmath_rel_err(a, a + gap, 1.3 + 0.2j, z) <= NEAR_TERMINATING_RTOL


def test_terminating_snap_is_machine_precision():
    # exactly terminating: the polynomial; 5e-9 off: the general branches
    # (here the logarithmic 1/z series, a - b = -2), where the 1e-8 snap
    # returned 1 with a relative error of 6.7e-5
    assert gauss_2f1(-2.0, 0.5, 1.3, -200.0) == pytest.approx(
        1 + 2 * 0.5 * 200 / 1.3 + 0.5 * 1.5 * 200 ** 2 / (1.3 * 2.3), rel=1e-14)
    assert mpmath_rel_err(-2 + 5e-9, 5e-9, 1.3 + 0.2j, -200.0) <= INTEGER_GAP_RTOL


def record_series_arguments(monkeypatch):
    seen = []
    series = hyper._series

    def recording(a, b, c, z, cfg):
        seen.append(abs(z))
        return series(a, b, c, z, cfg)

    monkeypatch.setattr(hyper, "_series", recording)
    return seen


def test_negative_axis_series_arguments_stay_within_three_quarters(monkeypatch):
    # the green-sweep grids: 100 radii from 0.02 to 20, value and both
    # derivatives (2F1 at a, a+1 and a+2)
    seen = record_series_arguments(monkeypatch)
    for space in GREEN_SPACES:
        for s in [0.5, 1.5, 1.0 + 0.5j, 1.0 - 1.0j]:
            for r in np.geomspace(0.02, 20.0, 100):
                green0_derivatives(space, s, float(r))
    assert len(seen) > 5000
    assert max(seen) <= 0.75


def test_near_integer_band_keeps_pfaff_where_it_converges(monkeypatch):
    seen = record_series_arguments(monkeypatch)
    a, b, c = 0.3, 1.3 + 1e-4, 1.7
    gauss_2f1(a, b, c, -5.0)
    assert seen == [pytest.approx(5.0 / 6.0)]    # Pfaff, although |z| >= 3
    seen.clear()
    gauss_2f1(a, b, c, -20.0)
    assert seen == [pytest.approx(1.0 / 20.0)] * 2  # generic 1/z connection


@pytest.mark.parametrize(
    "a,m,c",
    [
        (1.5 + 0.3j, 2, 2.7 - 0.2j),   # no pole terms
        (3.0 + 0.5j, 3, 5.0 + 1.0j),   # no pole terms
        (2.5, 4, 6.5),                 # c - a - m = 0: pole terms from k = 0
        (3.0, 4, 7.0),
    ],
)
def test_log_series_past_the_gamma_overflow(a, m, c):
    # at |z| = 1.25 these need more than 170 terms, where 1/Gamma(x) and
    # the pole limits (-1)^i i! pass 1e308 on their own
    z = -1.25
    with pytest.raises(NoConvergence):
        _inf_connection_integer(a, m, c, z, GreenEvalConfig(max_terms=170))
    ref = complex(mpmath.hyp2f1(a, a + m, c, z))
    val = _inf_connection_integer(a, m, c, z, DEFAULT_CONFIG)
    assert val == pytest.approx(ref, rel=5e-13)
