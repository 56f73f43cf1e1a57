"""The resolvent's two hot loops against their straightforward references.

`frobenius_solve` takes every divisor, resonance mask and table error
from precomputed arrays and runs all seeds at once, forming the W-series
of a and b of every seed in one matrix product per level;
`dense_oracle.recursion_reference` runs the recursion one (block, level)
at a time with every check in the loop.
`psi_coefficient` sums the local Frobenius basis at t = 0, matched to
the series at one time t*; `dense_oracle.psi_reference` integrates the
block equation down to the same window with `solve_ivp`.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypspec import resolvent
from hypspec.cli import main
from hypspec.errors import FitFailure, NumericalError, ResonanceDetected, TruncationWarning
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


def check_recursion(n, p, s, signs=None):
    op = build_radial_operator(n, p, L_w=1)
    cp = cover_point(make_space(Field.REAL, n), p, s, signs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)  # the reference does not test growth
        got = outcome(lambda: frobenius_solve(op, cp, L=40))
    want = outcome(lambda: recursion_reference(op, cp, L=40))
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


def test_recursion_reference_cases(monkeypatch):
    assert check_recursion(5, 1, 1.0) is True
    assert check_recursion(4, 1, 0.5) is True
    assert check_recursion(5, 1, 1.0 + 3e-9)[1].startswith("recursion divisor")
    # flipped sheet, mu_1 = -sqrt(s^2 + 3) = -2: block 1 meets block 0 at
    # levels 1 and 3 and itself at level 4; the t-linear terms of level 1
    # leave no obstruction at the later two
    assert check_recursion(5, 1, 1.0, [-1]) is True
    # 1e-5 off, with a snap wide enough to treat those levels as resonant,
    # the obstruction at level 3 is not zero
    with monkeypatch.context() as mp:
        mp.setattr(resolvent, "_SNAP_TOL", 1e-3)
        assert check_recursion(5, 1, 1.0 + 1e-5, [-1]) == (
            ResonanceDetected, "repeated resonance in one block needs t^2 terms; not supported")
    # both seeds fail, and in seed order: at s = -1 - 3e-9 on the flipped
    # sheet (each exponent minus that at s = 1) block 1 meets block 0 at
    # level 1, but block 0 meets itself at level 2 first in seed order
    assert check_recursion(5, 1, -1.0 - 3e-9, [-1]) == (
        ResonanceDetected, "recursion divisor -1.2e-08+0j at level 2 of block 0 is inside the "
                           "resonance floor 2e-08")
    # with this snap and floor, at s = -1/3 on the flipped sheet, block 1
    # stops before level 3 (a double root) while block 0 runs on to its
    # repeated resonance at level 3, which still comes first in seed order
    with monkeypatch.context() as mp:
        mp.setattr(resolvent, "_SNAP_TOL", 0.2)
        mp.setattr(resolvent, "_RESONANCE_FLOOR", 0.5)
        assert check_recursion(9, 1, -1 / 3, [-1]) == (
            ResonanceDetected, "repeated resonance in one block needs t^2 terms; not supported")
    # mu_1 = -sqrt(s^2 + 4) = -2 at s = 0: lam = mu_1 + 2 = 0 is resonant with block 0
    assert check_recursion(6, 1, 0.0, [-1]) == (
        ResonanceDetected, "double root at exponent 0j (level 2 of block 1)")


# ------------------------------------------------------------------------- psi


# psi_reference integrates at rtol 1e-13 and atol 1e-40.  Near t = 1e-3
# its state is dominated by the t^-n sector, which the sphere average
# cancels, so the reference itself carries up to about 1e-7 of that sector
# in psi (2e-8 to 9e-8 absolute).  Over 400 random (n, p, s), n from 3 to
# 9, real and complex s, 20% on the flipped sheet, the local basis was
# within 7e-8 of it (median 3e-10) but for one draw: 5e-6 at
# (8, 3, 1.5716), where psi = 0.0048 sits next to a zero and the reference
# moves by as much between rtol 1e-12 and 1e-13, while the basis moves by
# 7e-10 with t* from 1 to 2.5.  The pins of test_block_reduction allow the
# same 1e-6.
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


# ------------------------------------------------------------- the local basis


def local_kernel(op, kern, t):
    """The kernel's block coefficients (f, f', f'') at t from the local
    basis, and the sums of the moduli of the terms that sum to f."""
    V, phi, size, coef = resolvent._local_kernel(op, kern, np.array([t]))
    return tuple(V @ d for d in phi[:, 0] @ coef), np.abs(V) @ size[0, 0] @ np.abs(coef)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(degrees(), spectral, st.booleans(), st.floats(0.05, 1.0), st.floats(-3.0, 0.0))
def test_local_basis_continues_the_series_solution(deg, s, flipped, frac, log10_t):
    n, p = deg
    signs = [-1] * sum(e > 0 for e in e_element_values(n, p)) if flipped else None
    op = build_radial_operator(n, p)
    kern = outcome(lambda: frobenius_solve(op, cover_point(make_space(Field.REAL, n), p, s, signs)))
    assume(not isinstance(kern, tuple))
    # at a second time in (t*, 4], the series solution continued.  A kernel
    # that decays like e^(-mu t) is a sum of local solutions that grow like
    # e^(mu t), and the y-series of solutions that vanish fast at y = 1
    # cancel as t grows (at t = 4 the terms are 6e8 times the kernel for
    # (9, 8, 1.94)), so the error is measured against their moduli
    t_star = min(max(1.0, 2.0 * kern.t_min), resolvent._PSI_T)
    t2 = t_star + frac * (resolvent._PSI_T - t_star)
    assume(t2 > t_star)
    (f, _, _), terms = local_kernel(op, kern, t2)
    assert np.abs(f - resolvent.kernel_blocks(kern, t2)[0]).max() <= 1e-10 * terms.max()
    # and a solution of the block equation on [1e-3, 1]
    t = 10.0 ** log10_t
    (f, df, ddf), _ = local_kernel(op, kern, t)
    r = op.apply_blocks(s, f, df, ddf, t)
    assert np.abs(r).max() <= 1e-10 * max(np.abs(ddf).max(), np.abs(f).max())


# psi and the fitted exponent of `hypspec resolvent --n 2` from the
# downward DOP853 integration that the local basis replaced (rtol 1e-11);
# at n = 2 the exponents 0 and (2 - n)/2 coincide and the kernel grows as
# log(1/t), so the fit reads a small positive exponent
N2_PINS = [
    (0, "1", 41.524882453378666 + 0j, 0.17305800519144665),
    (1, "0.8+0.3j", 11.480531720439705 + 7.153578637401001j, 0.1517056884925111),
    (2, "1.5", 46.34596010305532 + 0j, 0.18558751313883723),
]


@pytest.mark.parametrize("p,s,psi,expo", N2_PINS)
def test_n2_psi_pins(capsys, p, s, psi, expo):
    assert main(["resolvent", "--n", "2", "--p", str(p), "--s", s]) == 0
    doc = json.loads(capsys.readouterr().out)
    got = complex(doc["extra"]["psi"]["re"], doc["extra"]["psi"]["im"])
    assert abs(got - psi) <= 1e-6 * abs(psi)
    assert doc["rows"][0]["psi_exponent"] == pytest.approx(expo, rel=1e-6)


@pytest.mark.parametrize("n,p,s,message", [
    # e^(-20 t) from local solutions that grow like e^(20 t): 1e17 at t* = 1
    (3, 0, 20.0, "sum of terms"),
    # the y-series of solutions that vanish like (1 - y)^28.5 at y = 1
    (60, 30, 1.0, "sum of terms"),
    # y^(-n/2) at t = 1e-3
    (100, 50, 1.0, "float64 range"),
])
def test_psi_refuses_to_lose_its_digits(n, p, s, message):
    op = build_radial_operator(n, p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        kern = frobenius_solve(op, cover_point(make_space(Field.REAL, n), p, s))
    with pytest.raises(NumericalError, match=message):
        psi_coefficient(op, kern)


def test_log_squared_resonance_exits_4(monkeypatch, capsys):
    # both n = 2 solutions seeded one level below their double root 0: the
    # level-1 obstruction would need a log^2 y term
    monkeypatch.setattr(resolvent, "_frobenius_seeds",
                        lambda n, B: [(0, -1.0, False), (0, -1.0, True)])
    assert main(["resolvent", "--n", "2", "--p", "0", "--s", "1"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "NumericalError"
    assert "log^2" in doc["error"]["message"]


# ------------------------------------------------------------------ error paths


def solve_5_1():
    op = build_radial_operator(5, 1)
    return op, frobenius_solve(op, cover_point(make_space(Field.REAL, 5), 1, 0.8))


def test_window_without_power_law_raises_fit_failure(monkeypatch):
    op, kern = solve_5_1()
    # on [0.5, 3.2] the kernel decays exponentially, not as a power of t
    monkeypatch.setattr(resolvent, "_PSI_T0", 0.5)
    with pytest.raises(FitFailure, match="power-law fit residual"):
        psi_coefficient(op, kern)


@pytest.mark.parametrize("patch,error", [
    (lambda mp: mp.setattr(resolvent, "_PSI_T0", 0.5), "FitFailure"),
])
def test_cli_psi_failures_exit_4(monkeypatch, capsys, patch, error):
    patch(monkeypatch)
    assert main(["resolvent", "--n", "5", "--p", "1", "--s", "0.8"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["error"]
    assert doc["error"]["type"] == error and doc["error"]["message"]
