import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypspec import hyper
from hypspec.errors import DomainError, NoConvergence, PoleOfGamma
from hypspec.green import green0_derivatives, green0_eval
from hypspec.hyper import _inf_connection_integer, gauss_2f1
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
    # 2F1(1, 1; 2; z) = -log(1-z)/z: Pfaff, then the logarithmic 1/z series
    for z in [-0.5, -0.75, -4.0, -250.0]:
        expected = -np.log(1 - z) / z
        assert gauss_2f1(1, 1, 2, z) == pytest.approx(expected, rel=1e-13)


def test_binomial_identity():
    # 2F1(a, b; b; z) = (1-z)^(-a)
    for a, b, z in [(0.7, 2.3, -0.4), (1.5, 0.9, -0.6), (1.5, 0.9, -30.0)]:
        assert gauss_2f1(a, b, b, z) == pytest.approx((1 - z) ** (-a), rel=1e-13)


def test_against_naive_series():
    cases = [
        (0.5, 1.5, 2.0, -0.3),
        (0.25, 0.75, 1.25, -0.6),
        (1.2 + 0.3j, 0.4, 2.1 - 0.2j, -0.5),
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


def test_terminating_polynomial():
    # 2F1(-3, b; c; z) is a cubic polynomial
    a, b, c = -3, 1.3, 2.7
    for z in [-0.5, -2.0, -15.0]:
        ref = complex(mpmath.hyp2f1(a, b, c, z))
        assert gauss_2f1(a, b, c, z) == pytest.approx(ref, rel=1e-13)


def test_pole_of_gamma():
    with pytest.raises(PoleOfGamma):
        gauss_2f1(0.5, 0.7, 0, 0.3)
    with pytest.raises(PoleOfGamma):
        gauss_2f1(0.5, 0.7, -2, 0.3)


def test_branch_cut_rejected():
    # the domain is real z <= 0: the cut [1, inf), the rest of the positive
    # axis, every point off the axis and NaN raise, terminating or not
    for z in [1.5, 0.3, 5e-324, -0.5 + 0.1j, 0.3j, -1e-300j, math.nan,
              complex(math.nan, 0.0), complex(-1.0, math.nan)]:
        with pytest.raises(DomainError):
            gauss_2f1(0.5, 0.7, 1.3, z)
        with pytest.raises(DomainError):
            gauss_2f1(-3, 0.7, 1.3, z)
        with pytest.raises(DomainError):
            hyper._gauss_2f1_core(0.5 + 0j, 0.7 + 0j, 1.3 + 0j, complex(z), 2)
        if not isinstance(z, complex):
            with pytest.raises(DomainError):
                hyper._gauss_2f1_core(0.5 + 0j, 0.7 + 0j, 1.3 + 0j, np.array([-1.0, z]), 0)


def test_no_convergence_budget(monkeypatch):
    monkeypatch.setattr(hyper, "_MAX_TERMS", 3)
    with pytest.raises(NoConvergence):
        gauss_2f1(0.5, 1.7, 1.1, -0.89)


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


# ---------------------------------------------- one-pass derivatives

# Worst errors over these examples of (F, F', F'') against mpmath, on the
# scales of derivative_scales, with those of three shifted gauss_2f1 calls
# on the same draws in brackets: Pfaff 4.9e-14, 1.3e-14, 1.2e-14 (2.3e-13,
# 1.5e-13, 9.6e-14); generic 1/z 8.0e-15, 5.2e-14, 5.1e-14 (6.6e-14,
# 1.7e-14, 2.8e-14); log 1/z with a and b at least 1e-3 from the
# non-positive integers 1.4e-14, 7.8e-15, 1.5e-14; terminating 8.6e-16,
# 5.5e-16, 5.7e-16 (7.0e-16, 5.9e-16, 4.4e-16).  Each tolerance is about
# 5x its branch's worst.  The log 1/z draws nearer a non-positive integer
# (one here: a = 1e-6, b = -5.999999, |z| = 4) get their own tolerance,
# which covers a known loss of the logarithmic series, not its accuracy:
# F is off by 2.3e-13 on either path, and the termwise F' and F'' inherit
# that absolute error (1.0e-12 and 3.8e-12 on these scales; over all log
# draws the three shifted calls reach 2.3e-13, 7.6e-15 and 1.3e-14).
DERIVATIVE_RTOL = {"pfaff": 2.5e-13, "generic": 3e-13, "log": 1e-13, "terminating": 5e-15,
                   "log, nearly terminating": 2e-11}
# a log 1/z draw this close to a non-positive integer is nearly terminating
NEARLY_TERMINATING = 1e-3
# the value of green0_derivatives against green0_eval, which stops its
# series without waiting for the derivative sums
GREEN_VALUE_RTOL = 1e-13

pfaff_axis = st.floats(0.01, 2.99).map(lambda x: -x)     # |z| < 3
inf_axis = st.floats(3.0, 1e4).map(lambda x: -x)         # |z| >= 3


def mp_hyp2f1(a, b, c, z):
    try:
        return mpmath.hyp2f1(a, b, c, z)
    except TypeError:
        # mpmath orders its parameters to find removable poles and cannot
        # with complex ones (c - a - m an integer here); 2F1 is analytic in
        # c there, so move c off by 1e-40 and keep 40 digits
        with mpmath.workdps(80):
            return mpmath.hyp2f1(a, b, mpmath.mpc(c) + mpmath.mpf("1e-40"), z)


def shifted_reference(a, b, c, z):
    """F, F' = (ab/c) 2F1(a+1, b+1; c+1; z) and F'' = the next shift, by mpmath."""
    return (
        complex(mp_hyp2f1(a, b, c, z)),
        complex(a * b / c * mp_hyp2f1(a + 1, b + 1, c + 1, z)),
        complex(a * (a + 1) * b * (b + 1) / (c * (c + 1)) * mp_hyp2f1(a + 2, b + 2, c + 2, z)),
    )


def derivative_scales(a, b, c, z):
    """The mpmath (F, F', F'') and the scale each is checked on.

    A relative error e in F that varies with z like F itself moves F' by
    about e |F/z| and F'' by about e |F/z^2|.  That is what termwise
    derivatives inherit where F's terms cancel, as for a nearly
    terminating 2F1 (a = 1e-6, b = -5.999999: F' is 1.9e-3 F)."""
    F, dF, ddF = ref = shifted_reference(a, b, c, z)
    return ref, (abs(F), abs(dF) + abs(F / z), abs(ddF) + abs(dF / z) + abs(F / (z * z)))


def check_derivatives(branch, a, b, c, z):
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    _, degree, _, gap = hyper._params(a, b, c)
    assert (degree is not None) == (branch == "terminating")
    if branch in ("generic", "log"):
        assert (gap is not None) == (branch == "log")
    if branch == "log" and min(pole_distance(a), pole_distance(b)) < NEARLY_TERMINATING:
        branch = "log, nearly terminating"
    got = hyper._gauss_2f1_core(a, b, c, z, 2)
    for val, ref, scale in zip(got, *derivative_scales(a, b, c, z)):
        assert abs(val - ref) <= DERIVATIVE_RTOL[branch] * scale


@PROPERTY
@given(cplx_a, cplx_a, cplx_c, pfaff_axis)
def test_pfaff_derivatives_against_mpmath(a, b, c, z):
    assume(min(pole_distance(a), pole_distance(b)) > 1e-15)
    check_derivatives("pfaff", a, b, c, z)


@PROPERTY
@given(cplx_a, st.integers(-6, 5), st.floats(0.05, 0.95), cplx_c, inf_axis)
def test_generic_inf_derivatives_against_mpmath(a, m, frac, c, z):
    b = a + m + frac
    assume(min(pole_distance(a), pole_distance(b)) > 1e-15)
    check_derivatives("generic", a, b, c, z)


@PROPERTY
@given(cplx_a, st.integers(-6, 6), cplx_c, inf_axis)
def test_log_inf_derivatives_against_mpmath(a, m, c, z):
    b = a + m
    assume(min(pole_distance(a), pole_distance(b)) > 1e-15)
    check_derivatives("log", a, b, c, z)


@PROPERTY
@given(st.integers(0, 8), cplx_a, cplx_c, st.floats(0.01, 1e4).map(lambda x: -x))
def test_terminating_derivatives_against_mpmath(k, b, c, z):
    # b within the snap of a non-positive integer would set the degree
    assume(pole_distance(b) > 1e-15)
    check_derivatives("terminating", -k, b, c, z)


@pytest.mark.parametrize("a", [1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize("b,c,z", [(0.7 + 0.2j, 1.3, -2.5), (-0.4, 0.6 + 0.5j, -1.0)])
def test_pfaff_derivatives_near_a_zero(a, b, c, z):
    # F' and F'' are O(a), far below the scales of derivative_scales, so
    # they are checked relative to themselves (worst 2.1e-14): stopping
    # on the value's sum alone leaves them 1e-5 off at a = 1e-9
    got = hyper._gauss_2f1_core(complex(a), complex(b), complex(c), complex(z), 2)
    for val, ref in zip(got, shifted_reference(a, b, c, z)):
        assert abs(val - ref) <= 1e-13 * abs(ref)


def test_second_derivative_waits_for_its_own_sum():
    # the terms of F'' carry about k^2 and converge after those of F and
    # F': stopping on F and F' alone left F'' 3.9e-13 off here (2.2e-14)
    a, b, c, z = -0.96 - 0.07j, 0.15 - 1.43j, 1.14 + 0.57j, -2.84
    ddF = hyper._gauss_2f1_core(a, b, c, complex(z), 2)[2]
    ref = shifted_reference(a, b, c, z)[2]
    assert abs(ddF - ref) <= 1e-13 * abs(ref)


def series_testing_every_term(a, b, c, x):
    """The defining series with the stopping test applied at every term."""
    term = total = 1.0 + 0j
    for k in range(10000):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1)) * x
        total += term
        if abs(term) <= 1e-14 * max(1.0, abs(total)):
            return total


def test_screened_stopping_test_stops_at_the_same_term():
    # _sum evaluates the test only below a bound on the partial sum; the
    # sums equal those that test every term, bit for bit
    a, b, c = 0.3 + 0.2j, 1.7 - 0.4j, 2.1 + 0.3j
    tab = hyper._power_table(a, b, c, False)
    for x in np.concatenate([np.linspace(-0.75, -0.01, 40), np.linspace(0.01, 0.75, 40)]):
        x = complex(x)
        assert hyper._sum(tab, x, 0)[0] == series_testing_every_term(a, b, c, x)


@pytest.mark.parametrize("a,b,c", [(0.3, 0.7 + 0.2j, 2.25), (-3.0, 0.7 + 0.2j, 2.25)])
def test_derivatives_where_z_squared_underflows(a, b, c):
    # the Pfaff series and the terminating polynomial at a z whose square
    # is 0: F' and F'' are their first terms, not a division by z
    z = -1e-170 + 0j
    got = hyper._gauss_2f1_core(complex(a), complex(b), complex(c), z, 2)
    ref = (1.0 + a * b / c * z, a * b / c, a * (a + 1) * b * (b + 1) / (c * (c + 1)))
    for val, want in zip(got, ref):
        assert val == pytest.approx(want, rel=1e-15)


@PROPERTY
@given(holomorphic_s(), st.floats(0.02, 25.0))
def test_green_derivatives_value_matches_green0_eval(space_s, r):
    space, s = space_s
    g = green0_derivatives(space, s, r)[0]
    ref = green0_eval(space, s, r)
    assert abs(g - ref) <= GREEN_VALUE_RTOL * abs(ref)


def record_series_arguments(monkeypatch):
    """Record |argument| of every series the scalar summation sums, with or
    without its termwise derivatives (terminating polynomials aside)."""
    seen = []
    summation = hyper._sum

    def recording(tab, x, order, L=0j, degree=None):
        if degree is None:  # a terminating polynomial has no radius to keep
            seen.append(abs(x))
        return summation(tab, x, order, L, degree)

    monkeypatch.setattr(hyper, "_sum", recording)
    return seen


def test_negative_axis_series_arguments_stay_within_three_quarters(monkeypatch):
    # the green-sweep grids: 100 radii from 0.02 to 20, the value alone
    # and with both derivatives
    seen = record_series_arguments(monkeypatch)
    grid = [(space, s, float(r)) for space in GREEN_SPACES
            for s in [0.5, 1.5, 1.0 + 0.5j, 1.0 - 1.0j] for r in np.geomspace(0.02, 20.0, 100)]
    for point in grid:
        green0_eval(*point)
    # one per Pfaff or logarithmic 1/z point, two per generic 1/z point
    value_series = len(seen)
    assert value_series > 2000
    for point in grid:
        green0_derivatives(*point)
    # the derivatives come from the same series, one pass each
    assert len(seen) == 2 * value_series
    assert max(seen) <= 0.75


def test_near_integer_band_keeps_pfaff_where_it_converges(monkeypatch):
    seen = record_series_arguments(monkeypatch)
    a, b, c = 0.3, 1.3 + 1e-4, 1.7
    gauss_2f1(a, b, c, -5.0)
    assert seen == [pytest.approx(5.0 / 6.0)]    # Pfaff, although |z| >= 3
    seen.clear()
    gauss_2f1(a, b, c, -20.0)
    assert seen == [pytest.approx(1.0 / 20.0)] * 2  # generic 1/z connection


@pytest.mark.parametrize("a, m, c, z", [
    # both parameters near poles, where rebuilding a as (a + m) - m moved
    # its distance to the pole: F, F' or F'' were off by 5.9e-9, 2.9e-11,
    # 8.0e-10, 1.7e-5 and 6.1e-8 of their scales
    (1e-8, -6, 1.0, -60.0),
    (1e-8, -6, 1.0, -6.0),
    (1e-12, -2, 1.0, -3000.0),
    (1e-12, -6, 1.0, -60.0),
    (1e-10, -6, 1.5 + 0.5j, -60.0),
    # c - b = 1 - 5e-9 was snapped to 1, which put F off by 2.9e-9
    (5e-9, -1, 1.0, -3.0),
])
def test_log_series_with_both_parameters_near_poles(a, m, c, z):
    check_derivatives("log", a, a + m, c, z)
    got = hyper._gauss_2f1_core(complex(a), complex(a + m), complex(c), complex(z), 0)[0]
    assert got == pytest.approx(complex(mp_hyp2f1(a, a + m, c, z)), rel=1e-14)


@pytest.mark.parametrize(
    "a,m,c",
    [
        (1.5 + 0.3j, 2, 2.7 - 0.2j),   # no pole terms
        (3.0 + 0.5j, 3, 5.0 + 1.0j),   # no pole terms
        (2.5, 4, 6.5),                 # c - a - m = 0: pole terms from k = 0
        (3.0, 4, 7.0),
    ],
)
def test_log_series_past_the_gamma_overflow(monkeypatch, a, m, c):
    # at |z| = 1.25 these need more than 170 terms, where 1/Gamma(x) and
    # the pole limits (-1)^i i! pass 1e308 on their own
    z = -1.25
    with monkeypatch.context() as mp:
        mp.setattr(hyper, "_MAX_TERMS", 170)
        with pytest.raises(NoConvergence):
            _inf_connection_integer(a, m, a + m, c, z, 0, hyper._sum)
    ref = complex(mpmath.hyp2f1(a, a + m, c, z))
    val = _inf_connection_integer(a, m, a + m, c, z, 0, hyper._sum)[0]
    assert val == pytest.approx(ref, rel=5e-13)


@pytest.mark.parametrize("a, m, c, z", [
    # the kernel's 2F1 on C^200 at s = 1 and r = 0.5 (mpmath 2.78853887527544e117)
    (-98.5, 199, 2.0, -1.0 / math.sinh(0.5) ** 2),
    (-90.25, 190, 1.5, -5.0),
    (-98.5, 199, 1.0 + 0.5j, -20.0),
])
def test_log_series_with_a_gap_past_170_factorial(a, m, c, z):
    # the finite part's (m - 1)! passes the float64 range from m = 172 on;
    # it once ended in OverflowError
    got = gauss_2f1(a + m, a, c, z)
    assert got == pytest.approx(complex(mpmath.hyp2f1(a + m, a, c, z)), rel=1e-12)


def test_log_series_gamma_ratio_past_the_float64_range():
    # 1/Gamma(180.5) underflows: the 2F1 is not a silent 0 or NaN
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 180.5, 2.0, -4.0)
