"""The resolvent's two hot loops against their straightforward references.

`frobenius_solve` takes every divisor, resonance mask and error position
from precomputed arrays and forms the W-series of a and b in one matrix
product per level; `dense_oracle.recursion_reference` runs the recursion
one (block, level) at a time with every check in the loop.
`psi_coefficient` integrates on scipy's compiled dop853;
`dense_oracle.psi_reference` on `solve_ivp`.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypspec import resolvent
from hypspec.cli import main
from hypspec.errors import FitFailure, ResonanceDetected, StiffIntegration, TruncationWarning
from hypspec.resolvent import (
    build_radial_operator,
    cover_point,
    e_element_values,
    frobenius_solve,
    psi_coefficient,
)
from hypspec.spaces import Field, make_space

from dense_oracle import psi_reference, recursion_reference

RECURSION = settings(derandomize=True, max_examples=150, deadline=None)
PSI = settings(derandomize=True, max_examples=12, deadline=None)


@st.composite
def degrees(draw, n_min=2):
    n = draw(st.integers(n_min, 9))
    return n, draw(st.integers(0, n))


spectral = st.one_of(
    st.floats(0.3, 2.0).map(complex),
    st.builds(complex, st.floats(0.3, 2.0), st.floats(-1.0, 1.0)),
)


# (n, p, s) with mu_i - s = m exactly for an E eigenvalue e_i > 0 and an
# integer m: s = (e_i - m^2) / 2m, in [0.3, 2]
RESONANCES = [
    (n, p, (e - m * m) / (2 * m))
    for n in range(2, 10) for p in range(n + 1) for e in e_element_values(n, p) if e > 0
    for m in range(1, 9) if 0.3 <= (e - m * m) / (2 * m) <= 2.0
]


def resonant(n_min=2):
    """A point of RESONANCES, exactly or shifted by 3e-9."""
    return st.builds(lambda nps, shift: (nps[0], nps[1], complex(nps[2] + shift)),
                     st.sampled_from([r for r in RESONANCES if r[0] >= n_min]),
                     st.sampled_from([0.0, 3e-9]))


def outcome(fn):
    """fn()'s result, or the type and message of its ResonanceDetected;
    the type alone of a FitFailure."""
    try:
        return fn()
    except ResonanceDetected as exc:
        return ResonanceDetected, str(exc)
    except FitFailure:
        return FitFailure, None


def check_recursion(n, p, s, signs=None, snap_tol=1e-10):
    op = build_radial_operator(n, p, L_w=1)
    cp = cover_point(make_space(Field.REAL, n), p, s, signs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)  # the reference does not test growth
        got = outcome(lambda: frobenius_solve(op, cp, L=40, snap_tol=snap_tol))
    want = outcome(lambda: recursion_reference(op, cp, L=40, snap_tol=snap_tol))
    if want[0] is ResonanceDetected:
        assert got == want
        return want
    coef_a, coef_b, margin, has_log = want
    assert got.resonance_margin == margin
    assert got.has_log_terms == has_log
    for new, ref in ((got.coef_a, coef_a), (got.coef_b, coef_b)):
        err = np.linalg.norm(new - ref, axis=-1)
        assert np.all(err <= 1e-13 * np.linalg.norm(ref, axis=-1)), err.max()
    return has_log


@RECURSION
@given(degrees(), spectral, st.booleans())
def test_recursion_matches_reference(deg, s, flipped):
    n, p = deg
    signs = [-1] * sum(e > 0 for e in e_element_values(n, p)) if flipped else None
    check_recursion(n, p, s, signs)


@RECURSION
@given(resonant())
def test_recursion_matches_reference_at_resonances(nps):
    check_recursion(*nps)


def test_recursion_reference_cases():
    assert check_recursion(5, 1, 1.0) is True
    assert check_recursion(4, 1, 0.5) is True
    assert check_recursion(5, 1, 1.0 + 3e-9)[1].startswith("recursion divisor")
    # flipped sheet, mu_1 = -sqrt(s^2 + 3) = -2: block 1 meets block 0 at
    # levels 1 and 3 and itself at level 4; the t-linear terms of level 1
    # leave no obstruction at the later two
    assert check_recursion(5, 1, 1.0, [-1]) is True
    # 1e-5 off, with a snap wide enough to treat those levels as resonant,
    # the obstruction at level 3 is not zero
    assert check_recursion(5, 1, 1.0 + 1e-5, [-1], snap_tol=1e-3) == (
        ResonanceDetected, "repeated resonance in one block needs t^2 terms; not supported")
    # mu_1 = -sqrt(s^2 + 4) = -2 at s = 0: lam = mu_1 + 2 = 0 is resonant with block 0
    assert check_recursion(6, 1, 0.0, [-1]) == (
        ResonanceDetected, "double root at exponent 0j (level 2 of block 1)")


# ------------------------------------------------------------------------- psi


# Both integrators stop on rtol = 1e-11 and atol = 1e-14.  Where the state
# is small the absolute tolerance governs, and each integrator then misses a
# tight-tolerance solution by up to 1e-6 in psi (n = 9, Re s near 2); the
# pins of test_block_reduction allow the same 1e-6.  Worst disagreement
# between the two, over 300 random and 24 resonant (n, p, s): 3.2e-7 in psi
# at (9, 3, 1.97) and 7.5e-8 in the exponent at (7, 3, 0.93), next to a
# zero of psi.
PSI_RTOL = 1e-6
EXPONENT_RTOL = 1e-6


def check_psi(n, p, s):
    op = build_radial_operator(n, p)
    kern = outcome(lambda: frobenius_solve(op, cover_point(make_space(Field.REAL, n), p, s)))
    assume(not isinstance(kern, tuple))
    got = outcome(lambda: psi_coefficient(op, kern))
    want = outcome(lambda: psi_reference(op, kern))
    if isinstance(want[0], type):
        assert got == want
        return
    (psi, expo), (psi_ref, expo_ref) = got, want
    assert abs(psi - psi_ref) <= PSI_RTOL * abs(psi_ref)
    assert abs(expo - expo_ref) <= EXPONENT_RTOL * expo_ref


@PSI
@given(degrees(n_min=3), spectral)
def test_psi_matches_solve_ivp_reference(deg, s):
    check_psi(*deg, s)


@PSI
@given(resonant(n_min=3))
def test_psi_matches_solve_ivp_reference_at_resonances(nps):
    check_psi(*nps)


# ------------------------------------------------------------------ error paths


def solve_5_1():
    op = build_radial_operator(5, 1)
    return op, frobenius_solve(op, cover_point(make_space(Field.REAL, 5), 1, 0.8))


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_integrator_failure_raises_stiff_integration(monkeypatch, action):
    # dop853 reports its failures as a UserWarning: under pytest's
    # filterwarnings = error that would be an exception of its own, and
    # under a filter that ignores it the integration would return garbage
    op, kern = solve_5_1()
    u = resolvent.RadialOperator.ode_coefficients
    monkeypatch.setattr(resolvent.RadialOperator, "ode_coefficients",
                        staticmethod(lambda t: u(t) if t > 1.0 else np.full(4, np.nan)))
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(StiffIntegration, match="dop853: step size becomes too small"):
            psi_coefficient(op, kern)


def test_step_cap_raises_stiff_integration(monkeypatch):
    op, kern = solve_5_1()
    monkeypatch.setattr(resolvent, "_PSI_MAX_STEPS", 10)
    with pytest.raises(StiffIntegration, match="at t=0.01: dop853: larger nsteps is needed"):
        psi_coefficient(op, kern)


def test_window_without_power_law_raises_fit_failure():
    op, kern = solve_5_1()
    # on [0.5, 3.2] the kernel decays exponentially, not as a power of t
    with pytest.raises(FitFailure, match="power-law fit residual"):
        psi_coefficient(op, kern, t0=0.5)


@pytest.mark.parametrize("patch,error", [
    (lambda mp: mp.setattr(resolvent, "_PSI_MAX_STEPS", 10), "StiffIntegration"),
    (lambda mp: mp.setattr(resolvent.psi_coefficient, "__defaults__", (0.5, 4.0, 1e-11)),
     "FitFailure"),
])
def test_cli_psi_failures_exit_4(monkeypatch, capsys, patch, error):
    patch(monkeypatch)
    assert main(["resolvent", "--n", "5", "--p", "1", "--s", "0.8"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["error"]
    assert doc["error"]["type"] == error and doc["error"]["message"]
