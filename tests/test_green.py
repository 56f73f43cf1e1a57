import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypspec import hyper
from hypspec.errors import DegenerateFit, DomainError, PoleOfGamma
from hypspec.green import (
    decay_rate_fit,
    green0_derivatives,
    green0_eval,
    green0_eval_many,
    green0_ode_residual,
    plancherel_prefactor,
    small_r_constant,
    vol_sphere,
)
from hypspec.spaces import Field, make_space

mpmath.mp.dps = 30

H2 = make_space(Field.REAL, 2)
H3 = make_space(Field.REAL, 3)


def h3_oracle(s, r):
    """Closed form on the 3-dimensional real space; solves the radial
    equation with unit small-r normalization."""
    return np.exp(-s * r) / (4 * math.pi * np.sinh(r))


def test_vol_sphere():
    assert vol_sphere(2) == pytest.approx(2 * math.pi)
    assert vol_sphere(3) == pytest.approx(4 * math.pi)
    assert vol_sphere(4) == pytest.approx(2 * math.pi ** 2)


def test_h3_closed_form():
    for s in [0.5, 1.0, 2 + 1j]:
        for r in np.geomspace(0.1, 10, 30):
            val = green0_eval(H3, s, r)
            assert val == pytest.approx(h3_oracle(s, r), rel=1e-11)


def test_h2_legendre_oracle():
    # independent special-function oracle: Q_{s-1/2}(cosh r) / (2 pi)
    for s in [0.5, 1.5]:
        for r in [0.05, 0.4, 1.0, 3.0, 8.0]:
            ref = complex(mpmath.legenq(s - 0.5, 0, mpmath.cosh(r), type=3)) / (2 * math.pi)
            assert green0_eval(H2, s, r) == pytest.approx(ref, rel=1e-12)


def test_positivity_on_log_grid():
    for field, n in [(Field.REAL, 2), (Field.REAL, 5), (Field.COMPLEX, 2),
                     (Field.QUATERNION, 2)]:
        sp = make_space(field, n)
        for s in [0.5, 2.0]:
            for r in np.geomspace(1e-3, 20, 40):
                v = green0_eval(sp, s, r)
                assert v.real > 0
                assert abs(v.imag) <= 1e-12 * v.real


def test_plancherel_prefactor_h3_constant():
    # Gamma factors cancel identically for (n, d) = (3, 1)
    assert plancherel_prefactor(H3, 1.0) == pytest.approx(1 / (2 * math.pi), rel=1e-14)
    assert plancherel_prefactor(H3, 2.0) == pytest.approx(1 / (2 * math.pi), rel=1e-14)


def test_plancherel_prefactor_h2_gamma_oracle():
    # independent direct Gamma evaluation
    s = 1.0
    ref = (
        2 ** (-1)
        * math.pi ** (-1 / 2)
        * float(mpmath.gamma((s + 0.5) / 2))
        * float(mpmath.gamma(s + 0.5))
        / (float(mpmath.gamma(s + 1)) * float(mpmath.gamma(s / 2 + 0.25)))
    )
    assert plancherel_prefactor(H2, s) == pytest.approx(ref, rel=1e-13)


def test_prefactor_ties_to_normalization_by_duplication():
    # the kernel's normalization constant equals
    # max(dn-2, 1) * f(s) * 2^(-(s+rho)/2) (Legendre duplication identity);
    # checked through the kernel value itself at a point where the
    # hypergeometric factor is computed independently.
    for field, n, s in [(Field.REAL, 5, 0.7), (Field.COMPLEX, 2, 1.3), (Field.QUATERNION, 2, 0.8)]:
        sp = make_space(field, n)
        rho = float(sp.rho)
        r = 2.0
        a = (s + rho) / 2
        b = (s + 1) / 2 - sp.d * (n - 1) / 4
        F = complex(mpmath.hyp2f1(a, b, s + 1, -1 / math.sinh(r) ** 2))
        C = (sp.dim - 2) * plancherel_prefactor(sp, s) * 2.0 ** (-a)
        expected = C * (2 * math.sinh(r) ** 2) ** (-a) * F
        assert green0_eval(sp, s, r) == pytest.approx(expected, rel=1e-12)


def test_rejects_bad_inputs():
    with pytest.raises(DomainError):
        green0_eval(H3, 1.0, 0.0)
    with pytest.raises(DomainError):
        green0_eval(H3, 1.0, -2.0)
    with pytest.raises(DomainError):
        green0_eval(H3, -2.0, 1.0)  # past the holomorphy boundary
    # NaN passes a bare r <= 0 test, and NaN s a bare Re s <= boundary test
    for s, r, what in [(1.0, math.nan, "distance"), (math.nan, 1.0, "spectral"),
                       (complex(1.0, math.nan), 1.0, "spectral"), (math.inf, 1.0, "spectral")]:
        for entry in (green0_eval, green0_derivatives, green0_ode_residual):
            with pytest.raises(DomainError, match=what):
                entry(H3, s, r)
        with pytest.raises(DomainError, match=what):
            green0_eval_many(H3, s, np.array([0.5, r]))


def test_tiny_radii():
    # below about 7.46e-155, -1/sinh^2 r overflowed: an OverflowError in the
    # scalar entries, NaN in the array entry
    for r in (1e-200, np.nextafter(1e-154, 0.0)):
        for entry in (green0_eval, green0_derivatives):
            with pytest.raises(DomainError, match="at least 1e-154"):
                entry(H3, 1.0, r)
        with pytest.raises(DomainError, match="at least 1e-154"):
            green0_eval_many(H3, 1.0, np.array([1.0, r]))
    # r = 1e-154 still works: e^(-r) / (4 pi sinh r) is 1 / (4 pi r) there
    expected = 1.0 / (4 * math.pi * 1e-154)
    assert green0_eval(H3, 1.0, 1e-154) == pytest.approx(expected, rel=1e-12)
    assert green0_eval_many(H3, 1.0, np.array([1e-154]))[0] == pytest.approx(expected, rel=1e-12)


def test_prefactor_past_the_float64_range():
    # once an OverflowError (scalar) or inf (array) instead of an error;
    # green0_derivatives sums its 2F1 first, which at n = 10^8 does not
    # converge (NoConvergence)
    for space, s, r in ((make_space(Field.REAL, 10 ** 8), 1.0, 1.0), (H3, 10.0, 1e-30)):
        with pytest.raises(DomainError, match="float64 range"):
            green0_eval(space, s, r)
        with pytest.raises(DomainError, match="float64 range"):
            green0_eval_many(space, s, np.array([2.0, r]))
    with pytest.raises(DomainError, match="float64 range"):
        green0_derivatives(H3, 10.0, 1e-30)


def test_kernel_past_the_float64_range():
    # on R^94 at r = 1e-3 the prefactor is in range and its product with
    # the 2F1 is not; that product was once returned as inf
    space = make_space(Field.REAL, 94)
    for evaluate in (green0_eval, green0_derivatives):
        with pytest.raises(DomainError, match="the kernel at r=0.001 passes"):
            evaluate(space, 1.0, 1e-3)
    with pytest.raises(DomainError, match="the kernel at r=0.001 passes"):
        green0_eval_many(space, 1.0, np.array([1.0, 1e-3]))


def test_derivatives_match_h3_closed_form():
    s = 0.8
    for r in [0.3, 1.0, 4.0]:
        g, dg, ddg = green0_derivatives(H3, s, r)
        sh, ch = math.sinh(r), math.cosh(r)
        ref = math.exp(-s * r) / (4 * math.pi * sh)
        dref = ref * (-s - ch / sh)
        ddref = ref * ((s + ch / sh) ** 2 + 1 / sh ** 2)
        assert g == pytest.approx(ref, rel=1e-12)
        assert dg == pytest.approx(dref, rel=1e-11)
        assert ddg == pytest.approx(ddref, rel=1e-10)


def test_ode_residual_small_everywhere():
    for field, n in [(Field.REAL, 2), (Field.REAL, 4), (Field.COMPLEX, 2),
                     (Field.QUATERNION, 2)]:
        sp = make_space(field, n)
        for s in [0.5, 1.5]:
            for r in np.geomspace(0.1, 10, 20):
                assert green0_ode_residual(sp, s, r) < 1e-8


def test_ode_residual_complex_s():
    assert green0_ode_residual(make_space(Field.COMPLEX, 2), 1.5 + 0.5j, 3.0) < 1e-8


def test_ode_residual_rejects_tiny_r():
    with pytest.raises(DomainError):
        green0_ode_residual(H3, 1.0, 1e-3)


def test_derivatives_far_out_where_z_squared_underflows():
    # from r ~ 187 on, z = -1/sinh^2 r is nonzero but z^2 underflows: the
    # termwise derivatives must not divide by z (R^4 at s = 0.5 sums the
    # terminating polynomial)
    s = 1.0
    for r in [200.0, 300.0]:
        g, dg, ddg = green0_derivatives(H3, s, r)
        ref = h3_oracle(s, r)
        coth = 1.0 / math.tanh(r)
        assert g == pytest.approx(ref, rel=1e-12)
        assert dg == pytest.approx(ref * (-s - coth), rel=1e-11)
        assert ddg == pytest.approx(ref * ((s + coth) ** 2 + 1 / math.sinh(r) ** 2), rel=1e-10)
        assert green0_ode_residual(H3, s, r) < 1e-8
        assert green0_ode_residual(make_space(Field.REAL, 4), 0.5, r) < 1e-8


@pytest.mark.parametrize("r", [200.0, 350.0, 400.0, 700.0])
@pytest.mark.parametrize(
    "field, n, s",
    [(Field.REAL, 3, 1.0), (Field.QUATERNION, 2, 1.0 + 0.5j), (Field.COMPLEX, 2, 0.3)],
)
def test_far_field_residual_where_the_kernel_underflows(field, n, s, r):
    # g0 underflows to 0 (H^2 from r = 200, C^2 by r = 350) and sinh^2 r
    # overflows from r ~ 356: the residual leaves out the prefactor, and
    # L'' = -2/sinh^2 r is taken as 2 z
    space = make_space(field, n)
    res = green0_ode_residual(space, s, r)
    assert math.isfinite(res) and res <= 1e-8
    assert all(cmath.isfinite(v) for v in green0_derivatives(space, s, r))


def test_small_r_law():
    for field, n in [(Field.REAL, 3), (Field.REAL, 4), (Field.COMPLEX, 2),
                     (Field.QUATERNION, 2)]:
        sp = make_space(field, n)
        for s in [0.5, 1.5]:
            assert small_r_constant(sp, s) == pytest.approx(1.0, abs=0.01)


def test_small_r_law_logarithmic():
    for s in [0.5, 1.5]:
        assert small_r_constant(H2, s) == pytest.approx(1.0, abs=0.01)


def test_decay_rate_fit_exact_exponential():
    rs = np.linspace(2, 12, 15)
    samples = [(r, math.exp(-3 * r)) for r in rs]
    assert decay_rate_fit(samples) == pytest.approx(3.0, abs=1e-12)


def test_decay_rate_fit_green():
    rs = np.linspace(5, 15, 11)
    samples = [(r, green0_eval(H3, 1.0, r).real) for r in rs]
    assert decay_rate_fit(samples) == pytest.approx(2.0, abs=1e-3)
    spH = make_space(Field.QUATERNION, 2)
    samples = [(r, green0_eval(spH, 0.5, r).real) for r in rs]
    assert decay_rate_fit(samples) == pytest.approx(5.5, abs=1e-2)


def test_decay_rate_fit_errors():
    with pytest.raises(DegenerateFit):
        decay_rate_fit([(1.0, 0.5)])
    with pytest.raises(DegenerateFit):
        decay_rate_fit([(1.0, 0.5), (1.0, 0.4)])
    with pytest.raises(DomainError):
        decay_rate_fit([(1.0, -0.5), (2.0, 0.4)])


def test_holomorphy_in_s():
    # Cauchy-Riemann finite-difference residual in the spectral parameter
    h = 1e-5
    for sp in [H3, make_space(Field.COMPLEX, 2)]:
        for s0 in [1.0 + 0.3j, 2.0 + 0.1j]:
            for r in [0.5, 3.0]:
                dre = (green0_eval(sp, s0 + h, r) - green0_eval(sp, s0 - h, r)) / (2 * h)
                dim = (green0_eval(sp, s0 + 1j * h, r) - green0_eval(sp, s0 - 1j * h, r)) / (2j * h)
                assert abs(dre - dim) / max(abs(dre), 1e-300) < 1e-6


# ------------------------------------------------------------ array path

# the nine spaces of the Green-grid benchmark
ARRAY_SPACES = [
    make_space(f, n)
    for f, n in [(Field.REAL, 2), (Field.REAL, 3), (Field.REAL, 4), (Field.REAL, 5),
                 (Field.COMPLEX, 2), (Field.COMPLEX, 3), (Field.QUATERNION, 2),
                 (Field.QUATERNION, 3), (Field.OCTONION, 2)]
]
# straddling |z| = 0.9 (r ~ 0.95), |z| = 3 where gauss_2f1 turns from
# Pfaff to the 1/z connection (r ~ 0.5493), the old Pfaff threshold
# |z| = 9 (r ~ 0.327) and the large-r branch of log sinh (r = 20)
EDGE_RADII = [0.02, 0.3, 0.3266, 0.3271, 0.33, 0.5, 0.5492, 0.54930614, 0.5493062,
              0.5494, 0.6, 0.9, 0.9513, 0.9515, 1.0, 19.999, 20.0, 20.001, 25.0]
ARRAY_RTOL = 1e-13


def assert_many_matches_scalar(space, s, radii):
    radii = np.asarray(radii, dtype=float)
    many = green0_eval_many(space, s, radii)
    scalar = np.array([green0_eval(space, s, float(r)) for r in radii])
    assert many.shape == radii.shape
    assert np.all(np.abs(many - scalar) <= ARRAY_RTOL * np.abs(scalar))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.sampled_from(ARRAY_SPACES),
    st.builds(complex, st.floats(0.2, 2.5), st.sampled_from([0.0, 0.0, -0.8, 0.6])),
    st.lists(st.floats(0.02, 25.0), min_size=1, max_size=40),
    # the 1/z connection's radii (|z| >= 3), down to |z| ~ 1e8
    st.lists(st.floats(1e-4, 0.55), max_size=20),
)
def test_green_many_matches_scalar(space, s, radii, inner):
    assert_many_matches_scalar(space, s, radii + inner + EDGE_RADII)


@pytest.mark.parametrize("a,b,c", [
    (0.3, 1.3 + 1e-4, 1.7),          # near-integer band: Pfaff up to |z| = 9
    (-3.0, 1.3 + 0.2j, 2.7),         # terminating polynomial
    (0.25, 7.25, 0.5),               # logarithmic 1/z series, m = 7
    (1.2 + 0.3j, 0.4, 2.1 - 0.2j),   # generic 1/z connection
])
def test_gauss_2f1_many_matches_scalar(a, b, c):
    z = -np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 80), [2.999999, 3.0, 9.0, 9.000001]])
    many = hyper._gauss_2f1_core(complex(a), complex(b), complex(c), z, 0)[0]
    scalar = np.array([hyper.gauss_2f1(a, b, c, x) for x in z])
    assert np.all(np.abs(many - scalar) <= ARRAY_RTOL * np.abs(scalar))


def test_green_many_every_space_real_and_complex_s():
    radii = np.concatenate([np.geomspace(0.02, 25.0, 60), EDGE_RADII])
    for space in ARRAY_SPACES:
        for s in [0.4, 1.3, 1.0 + 0.7j, 2.2 - 0.4j]:
            assert_many_matches_scalar(space, s, radii)


def test_green_many_takes_the_scalar_branch_rule(monkeypatch):
    # the array path sums Pfaff exactly where gauss_2f1 would (|z| < 3)
    # and the 1/z connection at every other point, itself: series
    # arguments w = z/(z-1) are positive, 1/z negative
    args, scalar_calls = [], []
    summation = hyper._sum_many

    def recording(tab, x, *rest, **kwargs):
        args.extend(x)
        return summation(tab, x, *rest, **kwargs)

    monkeypatch.setattr(hyper, "_sum_many", recording)
    monkeypatch.setattr(hyper, "gauss_2f1", lambda *z: scalar_calls.append(z))
    radii = np.array(EDGE_RADII)
    green0_eval_many(H3, 1.0, radii)
    edge = math.asinh(3 ** -0.5)  # |z| = 3
    z = -1.0 / np.sinh(radii) ** 2
    pfaff = np.sort([x for x in args if x >= 0])
    inverse = np.unique([x for x in args if x < 0])  # two series per point (a - b = 1/2)
    assert np.allclose(pfaff, np.sort((z / (z - 1))[radii >= edge]), rtol=1e-14, atol=0)
    assert np.allclose(inverse, np.sort(1 / z[radii < edge]), rtol=1e-14, atol=0)
    assert scalar_calls == []


def test_green_many_terminating_parameters(monkeypatch):
    # R^5 at s = 1: b = (s + 1)/2 - (n - 1)/4 = 0, a terminating 2F1,
    # which the array path sums as the polynomial of degree 0 at every
    # point, as the scalar rule does; 2e-9 off, b = 1e-9 is not snapped
    R5 = make_space(Field.REAL, 5)
    radii = np.geomspace(0.02, 25.0, 40)
    degrees = []
    summation = hyper._sum_many

    def recording(tab, x, *rest, degree=None):
        degrees.append(degree)
        return summation(tab, x, *rest, degree=degree)

    monkeypatch.setattr(hyper, "_sum_many", recording)
    assert_many_matches_scalar(R5, 1.0, radii)
    assert degrees == [0]
    degrees.clear()
    assert_many_matches_scalar(R5, 1.0 + 2e-9, radii)
    assert degrees and all(d is None for d in degrees)


def test_green_many_pole_of_c():
    # R^4 at s = -1: c = s + 1 = 0 is a pole of the 2F1 at every radius,
    # Pfaff points included
    with pytest.raises(PoleOfGamma):
        green0_eval_many(make_space(Field.REAL, 4), -1.0, np.array([1.0, 2.0]))


def test_green_many_edge_inputs():
    assert green0_eval_many(H3, 1.0, np.array([])).shape == (0,)
    with pytest.raises(DomainError):
        green0_eval_many(H3, 1.0, np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        green0_eval_many(H3, -2.0, np.array([1.0]))


# Worst residual over these examples: 1.2e-11, at O^2 with s = -0.98 + 1.47i
# and r = 0.1; the same at the previous 2F1 dispatch.
@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(ARRAY_SPACES), st.floats(0.0, 1.0, exclude_min=True),
       st.floats(-2.0, 2.0), st.floats(0.1, 20.0))
def test_ode_residual_random_s_in_holomorphy_half_plane(space, t, im, r):
    # Re s spans (-m_alpha/2 + 0.05, 2.5]
    lo = -space.m_alpha / 2 + 0.05
    s = complex(lo + t * (2.5 - lo), im)
    c = s + 1  # a pole of the 2F1 factor at non-positive integers
    assume(abs(c - min(round(c.real), 0)) > 1e-3)
    assert green0_ode_residual(space, s, r) <= 1e-8


# ------------------------------------------------- dimension shift on R^n

# On real hyperbolic space the resolvent kernels of dimensions n and n + 2
# satisfy G_(n+2) = -G_n' / (2 pi sinh r).  g0 is (n - 2) G for n >= 3
# (its short-distance law r^(2-n)/vol(S^(n-1)) lacks the 1/(n - 2) of the
# fundamental solution) and G itself for n = 2, so
# g_(n+2) = k_n (-g_n' / (2 pi sinh r)) with k_n = n/(n-2), k_2 = 2.
# Worst error over these examples: 1.6e-14 (tolerance about 5x).
SHIFT_RTOL = 8e-14


def shift_factor(n):
    return n / (n - 2) if n >= 3 else 2.0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(2, 11), st.floats(0.05, 2.5), st.floats(-2.0, 2.0), st.floats(0.05, 15.0))
def test_dimension_shift_identity(n, re_s, im_s, r):
    # green0_derivatives in dimension n against green0_eval in n + 2: the
    # order-2 and order-0 sums on the Pfaff, generic and log branches
    s = complex(re_s, im_s)
    dg = green0_derivatives(make_space(Field.REAL, n), s, r)[1]
    want = shift_factor(n) * (-dg / (2 * math.pi * math.sinh(r)))
    got = green0_eval(make_space(Field.REAL, n + 2), s, r)
    assert abs(got - want) <= SHIFT_RTOL * abs(got)


def shifted_closed_form(n, s, r):
    """G_n on R^n for odd n, from G_3 = e^(-sr) / (4 pi sinh r) by the
    shift, differentiated by mpmath (no hypergeometric function)."""
    if n == 3:
        return mpmath.exp(-s * r) / (4 * mpmath.pi * mpmath.sinh(r))
    return -mpmath.diff(lambda t: shifted_closed_form(n - 2, s, t), r) / (
        2 * mpmath.pi * mpmath.sinh(r))


@pytest.mark.parametrize("n", [5, 7, 9])
@pytest.mark.parametrize("s", [0.7, 1.3 + 0.6j, 2.0 - 1.1j])
def test_odd_dimensions_against_the_shifted_closed_form(n, s):
    # C(s), the prefactor and the 2F1 together, at 50 digits; worst 2.5e-14
    with mpmath.workdps(50):
        for r in (0.1, 0.6, 2.0, 7.0):
            ref = complex((n - 2) * shifted_closed_form(n, mpmath.mpc(s), mpmath.mpf(r)))
            assert abs(green0_eval(make_space(Field.REAL, n), s, r) - ref) <= 1.5e-13 * abs(ref)


def shifted_legendre(n, s, r):
    """G_n on R^n for even n, from G_2 = Q_(s-1/2)(cosh r) / (2 pi) by the
    shift, differentiated by mpmath."""
    if n == 2:
        return mpmath.legenq(s - 0.5, 0, mpmath.cosh(r), type=3) / (2 * mpmath.pi)
    return -mpmath.diff(lambda t: shifted_legendre(n - 2, s, t), r) / (
        2 * mpmath.pi * mpmath.sinh(r))


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("s", [0.7, 1.5, 1.3 + 0.6j, 2.0 - 1.1j])
def test_even_dimensions_against_the_shifted_legendre_oracle(n, s):
    # the logarithmic 1/z series and its finite part against a Legendre
    # function at 40 digits; worst 2.8e-14
    with mpmath.workdps(40):
        for r in (0.1, 0.6, 2.0, 7.0):
            ref = complex((n - 2) * shifted_legendre(n, mpmath.mpc(s), mpmath.mpf(r)))
            assert abs(green0_eval(make_space(Field.REAL, n), s, r) - ref) <= 1.5e-13 * abs(ref)
