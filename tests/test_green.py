import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypspec.errors import DegenerateFit, DomainError
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
)
def test_green_many_matches_scalar(space, s, radii):
    assert_many_matches_scalar(space, s, radii + EDGE_RADII)


def test_green_many_every_space_real_and_complex_s():
    radii = np.concatenate([np.geomspace(0.02, 25.0, 60), EDGE_RADII])
    for space in ARRAY_SPACES:
        for s in [0.4, 1.3, 1.0 + 0.7j, 2.2 - 0.4j]:
            assert_many_matches_scalar(space, s, radii)


def test_green_many_takes_the_scalar_branch_rule(monkeypatch):
    # the array path sums Pfaff exactly where gauss_2f1 would (|z| < 3)
    # and hands every other point to gauss_2f1
    from hypspec import green

    seen = []
    scalar = green.gauss_2f1

    def recording(a, b, c, z, cfg):
        seen.append(z)
        return scalar(a, b, c, z, cfg)

    monkeypatch.setattr(green, "gauss_2f1", recording)
    radii = np.array(EDGE_RADII)
    green0_eval_many(H3, 1.0, radii)
    edge = math.asinh(3 ** -0.5)  # |z| = 3
    assert np.allclose(seen, -1.0 / np.sinh(radii[radii < edge]) ** 2, rtol=1e-14, atol=0)
    assert min(abs(z) for z in seen) >= 3.0


def test_green_many_terminating_parameters(monkeypatch):
    from hypspec import green

    # R^5 at s = 1: b = (s + 1)/2 - (n - 1)/4 = 0, a terminating 2F1
    radii = np.geomspace(0.02, 25.0, 40)
    assert_many_matches_scalar(make_space(Field.REAL, 5), 1.0, radii)
    # 2e-9 off, b = 1e-9 is not snapped: the array path sums it itself
    scalar_calls = []
    monkeypatch.setattr(green, "gauss_2f1", lambda *args: scalar_calls.append(args) or 1.0)
    green0_eval_many(make_space(Field.REAL, 5), 1.0 + 2e-9, radii[radii > 0.6])
    assert scalar_calls == []
    monkeypatch.undo()
    assert_many_matches_scalar(make_space(Field.REAL, 5), 1.0 + 2e-9, radii)


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
