import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypspec import resolvent
from hypspec.cli import main
from hypspec.errors import (
    BranchPoint,
    CombinatorialBlowup,
    DegenerateFit,
    DomainError,
    NumericalError,
    ResonanceDetected,
    TailBoundExceeded,
    TruncationWarning,
    UnsupportedField,
)
from hypspec.green import green0_eval
from hypspec.resolvent import (
    build_radial_operator,
    build_tau_p_action,
    cover_point,
    decay_check,
    e_element_values,
    form_ode_residual,
    frobenius_solve,
    kernel_blocks,
    kernel_derivatives,
    kernel_eval,
    psi_coefficient,
    psi_extract,
)
from hypspec.spaces import Field, alpha_p, make_space

from dense_oracle import operator_series_error


def solve(n, p, s, L=40, signs=None):
    sp = make_space(Field.REAL, n)
    cp = cover_point(sp, p, s, signs)
    op = build_radial_operator(n, p, L_w=L)
    return op, frobenius_solve(op, cp, L=L)


# ---------------------------------------------------------------- tau_p data


def test_taup_trivial_degrees():
    tp = build_tau_p_action(4, 0)
    assert tp.dim_v == 1
    assert all(np.all(y == 0) for y in tp.y_matrices)
    tp = build_tau_p_action(4, 4)
    assert tp.dim_v == 1
    assert all(np.all(y == 0) for y in tp.y_matrices)


def test_taup_antisymmetric_and_normalized():
    for n, p in [(3, 1), (5, 2), (6, 3)]:
        tp = build_tau_p_action(n, p)
        assert len(tp.y_matrices) == n - 1
        for y in tp.y_matrices:
            assert np.array_equal(y, -y.T)
        # the n x n generators pair to -delta_{rr'} under tr(XY)/2
        gens = [np.zeros((n, n)) for _ in range(n - 1)]
        for r in range(1, n):
            gens[r - 1][0, r] = 1.0
            gens[r - 1][r, 0] = -1.0
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                assert np.trace(gi @ gj) / 2 == pytest.approx(-(i == j))


def test_taup_is_a_representation_of_so_n():
    # [E_0r, E_0s] = -E_rs and [E_rs, E_0r] = -E_0s, so [[Y_r, Y_s], Y_r] = Y_s
    def bracket(x, y):
        return x @ y - y @ x

    for n in range(2, 9):
        for p in range(n + 1):
            ys = build_tau_p_action(n, p).y_matrices
            for r, yr in enumerate(ys):
                for s, y_s in enumerate(ys):
                    if r != s:
                        assert np.array_equal(bracket(bracket(yr, y_s), yr), y_s), (n, p, r, s)
        # on 1-forms Y_r is the n x n generator E_0r itself
        for r, y in enumerate(build_tau_p_action(n, 1).y_matrices, 1):
            gen = np.zeros((n, n))
            gen[0, r], gen[r, 0] = 1.0, -1.0
            assert np.array_equal(y, gen), (n, r)


def test_taup_exponentiates_to_the_compound_matrix():
    # the brackets fix the representation only up to a change of basis:
    # exp(t Y_r) is the p-th compound matrix (p x p minors, subsets in
    # lexicographic order) of the rotation exp(t E_0r).  Both generators
    # cube to minus themselves, so exp(t X) = 1 + sin t X + (1 - cos t) X^2.
    def rotation(x, t=0.7):
        return np.eye(len(x)) + math.sin(t) * x + (1 - math.cos(t)) * x @ x

    for n in range(2, 7):
        for p in range(n + 1):
            basis = list(itertools.combinations(range(n), p))
            for r, y in enumerate(build_tau_p_action(n, p).y_matrices, 1):
                gen = np.zeros((n, n))
                gen[0, r], gen[r, 0] = 1.0, -1.0
                g = rotation(gen)
                compound = [[np.linalg.det(g[np.ix_(J, I)]) for I in basis] for J in basis]
                assert np.allclose(rotation(y), compound, rtol=0, atol=1e-12), (n, p, r)


def test_omega_m_eigenvalues():
    # eigenvalues are -q(n-1-q) for q = p and p-1 (the two M-type blocks)
    tp = build_tau_p_action(5, 1)
    assert sorted(set(np.diag(tp.omega_m))) == [-3, 0]
    tp = build_tau_p_action(5, 2)
    assert sorted(set(np.diag(tp.omega_m))) == [-4, -3]
    tp = build_tau_p_action(4, 2)
    assert sorted(set(np.diag(tp.omega_m))) == [-2]


def test_omega_k_is_scalar_with_known_value():
    # c(Lambda^p of SO(n)) = p(n-p)
    for n, p in [(3, 1), (4, 2), (5, 1), (6, 2), (7, 3)]:
        tp = build_tau_p_action(n, p)
        assert tp.omega_k_scalar == p * (n - p)


def test_kuga_consistency_exact():
    # machinery-derived alpha_p equals the table value, exactly in rationals
    for n in range(2, 8):
        sp = make_space(Field.REAL, n)
        for p in range(0, n // 2 + 1):
            tp = build_tau_p_action(n, p)
            assert sp.rho ** 2 - tp.c_sigma_max == alpha_p(sp, p)
            # building the operator re-runs this check internally
            build_radial_operator(n, p, L_w=2)


def test_taup_rejects_bad_degree():
    with pytest.raises(DomainError):
        build_tau_p_action(4, 5)
    with pytest.raises(DomainError):
        build_tau_p_action(4, -1)


# ----------------------------------------------------------- radial operator


def test_operator_series_matches_direct_evaluation():
    for n, p in [(3, 1), (5, 1), (4, 2)]:
        op = build_radial_operator(n, p, L_w=30)
        for t in [2.0, 3.0]:
            assert operator_series_error(op, 1.0 + 0.2j, t) < 1e-10


# --------------------------------------------------------------- cover point


def test_cover_point_examples():
    sp = make_space(Field.REAL, 5)
    cp = cover_point(sp, 1, 1.0)
    assert cp.branch_values == (2 + 0j,)
    assert cp.h == 1.0
    assert cp.on_physical_sheet

    flipped = cover_point(sp, 1, 1.0, branch_signs=[-1])
    assert flipped.branch_values == (-2 + 0j,)
    assert flipped.h == -2.0
    assert not flipped.on_physical_sheet


def test_cover_point_branch_value_identity():
    sp = make_space(Field.REAL, 7)
    s = 0.5 + 0.1j
    cp = cover_point(sp, 2, s)
    # e_1 = c(Lambda^2) - c(Lambda^1) = 8 - 5 = 3 for SO(6)
    assert cp.e_values_pos == (3,)
    y = cp.branch_values[0]
    assert y ** 2 == pytest.approx(s * s + 3, rel=1e-12)
    assert cp.h == pytest.approx(s.real)


def test_cover_point_branch_point_and_field_guard():
    sp = make_space(Field.REAL, 5)
    with pytest.raises(BranchPoint):
        cover_point(sp, 1, 1j * math.sqrt(3))
    with pytest.raises(UnsupportedField):
        cover_point(make_space(Field.COMPLEX, 3), 1, 1.0)


@pytest.mark.parametrize("signs", [[1, 1], [], [2]])
def test_cover_point_rejects_bad_signs(signs):
    # (5, 1) has one positive E eigenvalue, so one sign of +1 or -1
    with pytest.raises(DomainError, match="branch signs"):
        cover_point(make_space(Field.REAL, 5), 1, 0.6, signs)


def test_e_element_values_closed_form_matches_representation():
    for n in range(2, 10):
        for p in range(n + 1):
            assert e_element_values(n, p) == build_tau_p_action(n, p).e_values, (n, p)
    with pytest.raises(DomainError):
        e_element_values(4, 5)


def test_cover_point_does_not_build_the_representation(monkeypatch):
    def fail(n, p):
        raise AssertionError("cover_point built the tau_p action")

    monkeypatch.setattr(resolvent, "build_tau_p_action", fail)
    cp = cover_point(make_space(Field.REAL, 10), 4, 1.0)
    assert cp.e_values_pos == (2,)  # 4 * 5 - 3 * 6
    with pytest.raises(DomainError):
        cover_point(make_space(Field.REAL, 3), 4, 1.0)


@pytest.mark.parametrize("n,p", [(3, 1), (5, 1), (4, 2), (6, 3), (5, 0), (5, 5)])
def test_production_paths_never_build_the_representation(monkeypatch, capsys, n, p):
    def fail(*args):
        raise AssertionError("a production path built the dense representation")

    monkeypatch.setattr(resolvent, "build_tau_p_action", fail)
    monkeypatch.setattr(resolvent, "_rotation_actions", fail)
    assert not hasattr(resolvent, "_block_structure")
    op = build_radial_operator(n, p)
    kern = frobenius_solve(op, cover_point(make_space(Field.REAL, n), p, 0.8))
    kernel_blocks(kern, 3.0)
    assert kernel_eval(kern, 3.0).shape == (math.comb(n, p),) * 2
    decay_check(kern, np.linspace(5, 15, 11))
    psi_extract(op, kern)
    for opts in (["--s", "0.8"], ["--scan", "0.6:1.2:4"]):
        assert main(["resolvent", "--n", str(n), "--p", str(p), *opts]) == 0
    capsys.readouterr()


def test_expand_refuses_oversized_matrices_before_allocating():
    # C(12,6)^2 = 853776 entries fit the cap of 2^20; C(13,6)^2 = 2944656 do not
    op = build_radial_operator(12, 6, L_w=1)
    assert op.expand(np.ones(1)).shape == (924, 924)
    op = build_radial_operator(13, 6, L_w=1)
    with pytest.raises(CombinatorialBlowup, match="2944656 entries"):
        op.expand(np.ones(2))


def test_block_pipeline_at_14_7_never_expands():
    tracemalloc.start()
    try:
        op = build_radial_operator(14, 7)
        kern = frobenius_solve(op, cover_point(make_space(Field.REAL, 14), 7, 1.0))
        f, _, _ = kernel_blocks(kern, 3.0)
        rate = decay_check(kern, np.linspace(5, 15, 11))
        expansions = [
            lambda: op.expand(f),
            lambda: kernel_eval(kern, 3.0),
            lambda: kernel_derivatives(kern, 3.0),
            lambda: kern.coeffs_a,
            lambda: kern.coeffs_b,
            lambda: kern.block_projectors,
            lambda: psi_extract(op, kern),
        ]
        for expand in expansions:
            with pytest.raises(CombinatorialBlowup, match="11778624 entries"):
                expand()
        psi, expo = psi_coefficient(op, kern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rate == pytest.approx(6.5 + 1.0, abs=2e-2)
    assert expo == pytest.approx(12.0, abs=0.02)
    assert abs(psi) > 0
    assert peak < 50 * 2 ** 20


def test_operator_at_40_20_builds_no_row_table(capsys):
    # dim_v = C(40, 20) ~ 1.4e11: the block of each basis row is built only
    # for an expansion, behind its guard
    tracemalloc.start()
    try:
        op = build_radial_operator(40, 20)
        with pytest.raises(CombinatorialBlowup):
            op.expand(np.ones(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "block_of" not in op.__dict__
    assert peak < 2 ** 20
    assert main(["resolvent", "--n", "40", "--p", "20", "--s", "1"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["psi_exponent"] == pytest.approx(38.0, abs=0.02)
    assert main(["resolvent", "--n", "40", "--p", "20", "--scan", "0.5:1:3"]) == 0
    capsys.readouterr()


def test_non_finite_s_and_t_rejected():
    # NaN passes bare s and t <= 0 tests
    sp = make_space(Field.REAL, 5)
    for s in (math.nan, complex(1.0, math.nan), math.inf):
        with pytest.raises(DomainError):
            cover_point(sp, 1, s)
    _, kern = solve(5, 1, 1.0)
    for t in (math.nan, math.inf, 800.0):
        with pytest.raises(DomainError):
            kernel_blocks(kern, t)
        with pytest.raises(DomainError):
            resolvent.block_ode_residual(kern, t)


@pytest.mark.parametrize("L", [2.5, 40.0, True, "40", None])
def test_frobenius_order_must_be_an_integer(L):
    op = build_radial_operator(5, 1)
    cp = cover_point(make_space(Field.REAL, 5), 1, 1.0)
    with pytest.raises(DomainError, match="truncation order L must be an integer"):
        frobenius_solve(op, cp, L=L)
    assert frobenius_solve(op, cp, L=np.int64(12)).truncation == 12


def test_array_times_name_their_first_failure():
    # an unsorted array of times names the first that fails, in array order
    _, kern = solve(5, 1, 1.0)
    with pytest.raises(DomainError, match=r"got t=-1.0$"):
        kernel_blocks(kern, np.array([3.0, -1.0, 2.0, math.nan]))
    with pytest.raises(DomainError, match=r"got t=800.0$"):
        kernel_blocks(kern, np.array([3.0, 800.0, -1.0]))
    with pytest.raises(TailBoundExceeded, match=r"^t=0.03 below the series validity"):
        kernel_blocks(kern, np.array([3.0, 0.03, 2.0, 0.02]))
    # at L = 2 the tail bound holds from t ~ 7 on
    _, low = solve(5, 1, 1.0, L=2)
    with pytest.raises(TailBoundExceeded, match=r"exceeds 1e-06 at t=3.0 "):
        kernel_blocks(low, np.array([20.0, 3.0, 2.0]))
    # the kernel passes below the float64 range at t ~ 300 (n = 5)
    with pytest.raises(DegenerateFit, match=r"vanished at t=300.0$"):
        decay_check(kern, [300.0, 2.0, 400.0, 5.0])
    # on the second sheet e^(-mu t), Re mu = -1.45, passes it from t ~ 490
    _, far = solve(12, 5, 0.3, signs=[-1])
    with pytest.raises(NumericalError, match=r"float64 range at t=700.0$"):
        kernel_blocks(far, np.array([5.0, 700.0, 650.0]))


def test_long_grids_at_long_orders_take_bounded_tables():
    # 4096 times at L = 2000 take 8.2e6 exp(-lam t) terms, 131 MB in one
    # table; built 2^20 terms at a time, each row is still the one-time call
    _, kern = solve(4, 2, 1.0, L=2000)
    ts = np.linspace(2.0, 8.0, 4096)
    tracemalloc.start()
    try:
        rows = kernel_blocks(kern, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    for k in (0, 523, 524, 4095):  # 524 rows to a table
        for got, want in zip(rows, kernel_blocks(kern, ts[k])):
            np.testing.assert_array_max_ulp(got[k].real, want.real, maxulp=1)
            np.testing.assert_array_max_ulp(got[k].imag, want.imag, maxulp=1)
    # one time more than the cap of 2^27 terms allows raises before any work
    count = (resolvent.MAX_SERIES_TERMS // 2001 + 1) * 2001
    with pytest.raises(CombinatorialBlowup, match=f"need {count} exp"):
        kernel_blocks(kern, np.linspace(2.0, 8.0, count // 2001))


def test_frobenius_order_guards():
    op = build_radial_operator(5, 1)
    cp = cover_point(make_space(Field.REAL, 5), 1, 1.0)
    for L in (-3, 0):
        with pytest.raises(DomainError):
            frobenius_solve(op, cp, L=L)
    # the cap counts the 16 B^3 L entries of the level maps, 128 L at B = 2:
    # 1048576 fit the cap of 2^20 at L = 8192, 1048704 do not at L = 8193,
    # and L = 200000 would count 2.56e7
    for L, entries in ((8193, 1048704), (200000, 25600000)):
        with pytest.raises(CombinatorialBlowup, match=f"{entries} entries"):
            frobenius_solve(op, cp, L=L)


def test_extreme_s_and_degree_rejected_up_front():
    sp = make_space(Field.REAL, 5)
    # |s|^2 once overflowed in the branch-point test
    for s in (1e200, complex(0.0, 2e150), 1.0000000000000002e150):
        with pytest.raises(DomainError, match="1e\\+150"):
            cover_point(sp, 1, s)
    assert cover_point(sp, 1, 1e150).s == 1e150
    # the block ranks are floats: C(1029, 514) ~ 1.4e308 has a float64
    # value, C(1030, 515) and C(2000, 1000) do not
    assert build_radial_operator(1029, 514).block_mult.max() < math.inf
    for n in (1030, 2000):
        with pytest.raises(CombinatorialBlowup, match=f"C\\({n}, {n // 2}\\)"):
            build_radial_operator(n, n // 2)


# ------------------------------------------------------------ frobenius solve


def test_block_projectors_resolve_identity():
    _, kern = solve(5, 1, 0.5)
    total = sum(kern.block_projectors)
    assert np.array_equal(total, np.eye(5, dtype=complex))
    for P, a in zip(kern.block_projectors, kern.coeffs_a):
        assert np.array_equal(a[0], P)


@pytest.mark.parametrize("n,p", [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2)])
@pytest.mark.parametrize("s", [0.5, 1.0, 1 + 0.5j])
def test_ode_residual_acceptance_grid(n, p, s):
    _, kern = solve(n, p, s)
    for t in np.linspace(2, 8, 7):
        assert form_ode_residual(kern, float(t)) < 1e-6


def test_dense_residual_where_sinh_squared_overflows():
    # at t = 400 sinh^2 t passes the float64 range, but the kernel (about
    # 4e-96) does not; the dense residual must read what the block one does
    _, kern = solve(2, 0, 0.05)
    dense = form_ode_residual(kern, 400.0)
    assert math.isfinite(dense) and dense < 1e-14


def test_log_terms_engage_exactly_at_integer_gaps():
    # sqrt(s^2+3) - s = 1 at s = 1 and sqrt(s^2+2) - s = 1 at s = 1/2
    _, kern = solve(5, 1, 1.0)
    assert kern.has_log_terms
    _, kern = solve(4, 1, 0.5)
    assert kern.has_log_terms
    _, kern = solve(5, 1, 0.75)
    assert not kern.has_log_terms


def test_long_orders_converge_without_a_warning():
    # the level maps are linear in L, so thousands of levels fit the cap;
    # the last dozen levels shrink or barely grow
    for n, p, L in ((110, 1, 2560), (60, 30, 5120)):
        _, kern = solve(n, p, 1.0, L=L)
        assert np.isfinite(kern.coef_a).all() and np.isfinite(kern.coef_b).all()
        assert 1.0 <= kern.growth_ratio < 1.05


def test_coefficients_past_the_float64_square_keep_their_growth():
    # at (400, 200) the coefficients pass 1.3e154, where their squares
    # overflow; their norms, and so the growth ratio, must not
    _, kern = solve(400, 200, 1.0, L=300)
    assert np.abs(kern.coef_a).max() > 1e160
    assert 1.8 < kern.growth_ratio < 1.9
    # at (1000, 500) they pass the float64 range inside the recursion
    with pytest.raises(NumericalError, match="float64 range, in value or in norm, at level 339$"):
        solve(1000, 500, 1.0, L=723)


def test_near_resonance_raises():
    sp = make_space(Field.REAL, 5)
    op = build_radial_operator(5, 1, L_w=40)
    cp = cover_point(sp, 1, 1.0 + 3e-9)
    with pytest.raises(ResonanceDetected):
        frobenius_solve(op, cp, L=40)


def test_resonance_margin_reported():
    _, kern = solve(5, 1, 0.75)
    assert 0 < kern.resonance_margin < math.inf


def test_decay_rates_on_sheet():
    for n, p, s in [(3, 1, 1.0), (5, 2, 0.5), (4, 1, 1 + 0.5j)]:
        _, kern = solve(n, p, s)
        rate = decay_check(kern, np.linspace(5, 15, 11))
        rho = (n - 1) / 2
        assert rate == pytest.approx(rho + complex(s).real, abs=2e-2)
        assert rate >= rho + complex(s).real - 1e-2


def test_decay_rate_off_sheet_tracks_h():
    # flipped branch: decay follows rho + h with h = Re(-sqrt(s^2+e))
    for n, p, s in [(5, 1, 0.6), (4, 1, 0.8)]:
        _, kern = solve(n, p, s, signs=[-1])
        rate = decay_check(kern, np.linspace(5, 15, 11))
        rho = (n - 1) / 2
        e = [v for v in kern.operator.taup.e_values if v > 0][0]
        h = -math.sqrt(s * s + e)
        assert rate == pytest.approx(rho + h, abs=2e-2)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    st.integers(3, 7),
    st.one_of(
        st.floats(0.3, 2.0),
        st.builds(complex, st.floats(0.3, 2.0), st.floats(-1.0, 1.0)),
    ),
)
@example(3, 0.8)
@example(5, 1.0)
def test_p0_pipeline_matches_scalar_kernel(n, s):
    sp = make_space(Field.REAL, n)
    _, kern = solve(n, 0, s)
    ratios = []
    for t in np.linspace(2, 10, 9):
        ratios.append(kernel_eval(kern, float(t))[0, 0] / green0_eval(sp, s, float(t)))
    ratios = np.asarray(ratios)
    mean = ratios.mean()
    assert np.abs(ratios - mean).max() / abs(mean) < 1e-8


def test_kernel_leading_exponent_on_sigma_max_block():
    # far field: F ~ e^{-(rho + s) t} on the lowest block
    _, kern = solve(5, 1, 1.0)
    t1, t2 = 12.0, 14.0
    F1 = kernel_eval(kern, t1)[1, 1]
    F2 = kernel_eval(kern, t2)[1, 1]
    rate = -(np.log(abs(F2)) - np.log(abs(F1))) / (t2 - t1)
    assert rate == pytest.approx(2.0 + 1.0, abs=1e-3)


def test_coefficient_terms_decay_in_validity_region():
    # raw coefficients grow polynomially (the perturbation has a pole at
    # q = 1), but the series terms |a_l| e^{-lt} decay geometrically for
    # every t in the validity region
    _, kern = solve(5, 2, 0.5)
    t = 2.0
    for a in kern.coeffs_a:
        terms = [np.linalg.norm(x) * math.exp(-l * t) for l, x in enumerate(a)]
        assert terms[-1] < 1e-12 * max(terms)
        assert all(t2 < 0.9 * t1 for t1, t2 in zip(terms[4:], terms[6:]))
    assert kern.growth_ratio < 1.5


def test_tail_bound_guard():
    _, kern = solve(4, 1, 1.0, L=10)
    with pytest.raises(TailBoundExceeded):
        kernel_derivatives(kern, 0.05)


def test_derivatives_are_consistent_with_finite_differences():
    _, kern = solve(4, 2, 0.7)
    t, h = 3.0, 1e-5
    F, dF, ddF = kernel_derivatives(kern, t)
    Fp = kernel_eval(kern, t + h)
    Fm = kernel_eval(kern, t - h)
    assert np.allclose((Fp - Fm) / (2 * h), dF, rtol=1e-8, atol=1e-12)
    assert np.allclose((Fp - 2 * F + Fm) / h ** 2, ddF, rtol=1e-5, atol=1e-9)


# ---------------------------------------------------------------- psi extract


def test_psi_extract_examples():
    for n, p in [(4, 1), (5, 1)]:
        op, kern = solve(n, p, 1.0)
        psi, expo = psi_extract(op, kern)
        assert expo == pytest.approx(n - 2, abs=0.02)
        svals = np.linalg.svd(psi, compute_uv=False)
        assert svals[-1] > 0


def test_psi_extract_expands_psi_coefficient():
    for n, p in [(4, 2), (5, 1)]:
        op, kern = solve(n, p, 0.7 + 0.2j)
        psi, expo = psi_coefficient(op, kern)
        mat, expo_mat = psi_extract(op, kern)
        assert expo_mat == expo
        assert np.array_equal(mat, psi * np.eye(op.taup.dim_v))


def test_psi_scalar_cross_check():
    # for p = 0 the coefficient equals the far-field ratio to the scalar kernel
    sp = make_space(Field.REAL, 3)
    op, kern = solve(3, 0, 1.0)
    psi, expo = psi_extract(op, kern)
    ratio = kernel_eval(kern, 6.0)[0, 0] / green0_eval(sp, 1.0, 6.0)
    assert expo == pytest.approx(1.0, abs=0.02)
    assert abs(psi[0, 0] - ratio) / abs(ratio) < 0.01


def test_d_spectrum_all_small_dimensions():
    # eigenvalues of the SO(n-1) Casimir on Lambda^p are exactly
    # {-q(n-2-q)} for q in {p, p-1} (merged when equal)
    for n in range(2, 8):
        for p in range(0, n // 2 + 1):
            tp = build_tau_p_action(n, p)
            c = lambda q: q * (n - 1 - q)
            expected = {-c(p)} | ({-c(p - 1)} if p >= 1 else set())
            assert set(int(v) for v in np.diag(tp.omega_m)) == expected, (n, p)


def test_physical_sheet_h_equals_re_s():
    for n, p in [(3, 1), (5, 1), (5, 2), (7, 3)]:
        sp = make_space(Field.REAL, n)
        for s in [0.3, 1.7, 0.4 + 1.1j, 2.0 + 0.05j]:
            cp = cover_point(sp, p, s)
            assert cp.on_physical_sheet
            assert cp.h == complex(s).real


def test_growing_coefficients_warn():
    # at (200, 3) the last coefficients grow with ratio 5.68 per level
    op = build_radial_operator(200, 3)
    with pytest.warns(TruncationWarning, match="ratio 5.684"):
        kern = frobenius_solve(op, cover_point(make_space(Field.REAL, 200), 3, 1.0))
    assert kern.growth_ratio == pytest.approx(5.6836, abs=1e-4)


def test_decay_check_rejects_a_vanished_kernel():
    # (sinh t)^-199.5 underflows at t = 5, so the kernel reads 0 there
    op = build_radial_operator(400, 200)
    with pytest.warns(TruncationWarning):
        kern = frobenius_solve(op, cover_point(make_space(Field.REAL, 400), 200, 1.0))
    with pytest.raises(DegenerateFit, match="vanished at t=5.0"):
        decay_check(kern, [5.0, 6.0, 7.0])
    with pytest.raises(DegenerateFit, match="vanished at t=7.0"):
        decay_check(kern, np.array([7.0, 5.0, 6.0]))
