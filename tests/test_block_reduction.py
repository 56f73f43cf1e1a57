"""The block-coefficient resolvent against dense full-matrix oracles.

The kernel lives in span{P_j} of the E-element block projectors; these
tests check the structure constants, the recursion, the reconstructed
kernel and the ker T projection against the dense maps, over random
degrees and spectral parameters, and pin psi to reference values.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypspec.resolvent import (
    block_ode_residual,
    build_radial_operator,
    cover_point,
    form_ode_residual,
    frobenius_solve,
    kernel_blocks,
    psi_extract,
)
from hypspec.spaces import Field, make_space

from dense_oracle import block_structure, w_apply

PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)


@st.composite
def degrees(draw, n_max=7):
    n = draw(st.integers(2, n_max))
    return n, draw(st.integers(0, n))


spectral = st.builds(
    complex,
    st.floats(0.3, 2.0, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
)


def off_resonance(n, p, s, gap=0.05):
    """Cover point whose exponent differences stay `gap` away from integers."""
    cp = cover_point(make_space(Field.REAL, n), p, s)
    mus = [cp.exponent_for(e) for e in build_radial_operator(n, p, L_w=1).e_values]
    for mi in mus:
        for mj in mus:
            d = mi - mj
            assume(abs(d - round(d.real)) >= gap or mi == mj)
    return cp


def dense_coefficients(op, cover, L):
    """Full-matrix recursion with the dense perturbation maps (no resonances)."""
    tp = op.taup
    s = cover.s
    blocks = []
    for e_j in tp.e_values:
        mu = cover.exponent_for(e_j)
        a = [np.diag((tp.e_diag == e_j).astype(complex))]
        for l in range(1, L + 1):
            rhs = sum(w_apply(op, k, a[l - k]) for k in range(1, l + 1))
            lam = mu + l
            a.append(rhs / ((lam * lam - s * s) - tp.e_diag)[:, None])
        blocks.append(a)
    return blocks


@functools.lru_cache(maxsize=None)
def ker_t_basis(n, p):
    """Orthonormal basis (flattened columns) of ker T, T(X) = AX + XA - 2 sum_r Y_r X Y_r."""
    tp = build_radial_operator(n, p, L_w=1).taup
    dim = tp.dim_v
    A = tp.omega_k - tp.omega_m
    T = np.zeros((dim * dim, dim * dim))
    for col in range(dim * dim):
        X = np.zeros((dim, dim))
        X.flat[col] = 1.0
        T[:, col] = (A @ X + X @ A - 2.0 * tp.sandwich(X)).ravel()
    w, V = np.linalg.eigh((T + T.T) / 2.0)
    return V[:, np.abs(w) < 1e-9 * max(1.0, np.abs(w).max())]


# ------------------------------------------------------------ structure constants


@PROPERTY
@given(degrees(), st.integers(1, 8))
def test_block_constants_reproduce_dense_maps(deg, k):
    n, p = deg
    op = build_radial_operator(n, p, L_w=1)
    tp = op.taup
    B = len(op.block_mult)
    assert B <= 2
    assert np.array_equal(np.diag(tp.omega_k - tp.omega_m), op.block_a[op.block_of])
    for c in np.eye(B):
        P = op.expand(c)
        assert np.array_equal(tp.sandwich(P), op.expand(op.block_s @ c))
        past = np.zeros((k, B))
        past[-1] = c  # W_k alone: past[k-1] = x_(l-k)
        assert np.array_equal(w_apply(op, k, P), op.expand(op.w_series(past)))


def test_block_constants_closed_form():
    # blocks (e = 0: 0 not in I; e = n - 2p: 0 in I) carry a = -p and
    # a = -(n-p); the sandwich swaps them: P_out -> -(n-p) P_in, P_in -> -p P_out
    op = build_radial_operator(5, 1, L_w=1)
    assert list(op.block_mult) == [4, 1]
    assert list(op.block_a) == [-1, -4]
    assert op.block_s.tolist() == [[0, -1], [-4, 0]]
    op = build_radial_operator(4, 2, L_w=1)  # n = 2p: one block
    assert list(op.block_mult) == [6] and op.block_s.tolist() == [[-2]]
    # every degree up to n = 9 against the dense derivation
    for n in range(2, 10):
        for p in range(n + 1):
            op = build_radial_operator(n, p, L_w=1)
            tp = op.taup
            ref = block_structure(tp)
            for name, value in ref.items():
                assert np.array_equal(getattr(op, name), value), (n, p, name)
            assert make_space(Field.REAL, n).rho ** 2 - op.alpha_p == tp.c_sigma_max
            assert tp.omega_k_scalar == p * (n - p)  # the Casimir `apply_blocks` uses


@PROPERTY
@given(degrees(), spectral, st.floats(0.2, 8.0), st.integers(0, 2 ** 32 - 1))
def test_apply_blocks_matches_direct_apply(deg, s, t, seed):
    n, p = deg
    op = build_radial_operator(n, p, L_w=1)
    rng = np.random.default_rng(seed)
    B = len(op.block_mult)
    f, df, ddf = rng.normal(size=(3, B)) + 1j * rng.normal(size=(3, B))
    got = op.expand(op.apply_blocks(s, f, df, ddf, t))
    want = op.direct_apply(s, op.expand(f), op.expand(df), op.expand(ddf), t)
    scale = max(1.0, np.abs(want).max()) / min(1.0, np.tanh(t) ** 2)
    assert np.abs(got - want).max() <= 1e-13 * scale


# ------------------------------------------------------------------- recursion


@PROPERTY
@given(degrees(n_max=6), spectral)
def test_block_coefficients_match_dense_recursion(deg, s):
    n, p = deg
    cp = off_resonance(n, p, s)
    op = build_radial_operator(n, p, L_w=20)
    kern = frobenius_solve(op, cp, L=20)
    assert not kern.has_log_terms
    for a_blk, d_blk in zip(kern.coeffs_a, dense_coefficients(op, cp, 20)):
        for a, d in zip(a_blk, d_blk):
            assert np.linalg.norm(a - d) <= 1e-12 * max(1.0, np.linalg.norm(d))


@PROPERTY
@given(degrees(), spectral)
def test_expanded_kernel_solves_dense_equation(deg, s):
    n, p = deg
    cp = off_resonance(n, p, s)
    op = build_radial_operator(n, p, L_w=40)
    kern = frobenius_solve(op, cp, L=40)
    for t in (2.0, 4.0, 8.0):
        dense = form_ode_residual(kern, t)
        assert dense <= 1e-6
        assert abs(block_ode_residual(kern, t) - dense) <= 1e-13
    # off the solution the residual is far above roundoff, and the two
    # normalizations must still agree
    level1 = (np.arange(kern.truncation + 1) == 1)[None, :, None]
    off = dataclasses.replace(kern, coef_a=kern.coef_a + 1e-3 * level1)
    dense = form_ode_residual(off, 2.0)
    assert dense > 1e-9
    assert block_ode_residual(off, 2.0) == pytest.approx(dense, rel=1e-9)


# -------------------------------------------------------------- ker T projection


@PROPERTY
@given(degrees(n_max=6), spectral)
@example((4, 2), 1.0 + 0.0j)
@example((6, 3), 0.7 + 0.4j)
def test_trace_average_is_ker_t_projection(deg, s):
    n, p = deg
    cp = off_resonance(n, p, s)
    op = build_radial_operator(n, p, L_w=40)
    kern = frobenius_solve(op, cp, L=40)
    null = ker_t_basis(n, p)
    # the Hodge star joins the identity in ker T exactly when n = 2p
    assert null.shape[1] == (2 if n == 2 * p else 1)
    dim = op.taup.dim_v
    kernel_values = [kernel_blocks(kern, t)[0] for t in (2.0, 5.0)]
    for f in [*np.eye(len(op.block_mult)), *kernel_values]:
        dense = (null @ (null.T @ op.expand(f).ravel())).reshape(dim, dim)
        avg = op.sphere_average(f) * np.eye(dim)
        assert np.abs(dense - avg).max() <= 1e-10 * np.abs(f).max()
        # the multiplicity-weighted norm is the Frobenius norm of the expansion
        assert op.block_norm(f) == pytest.approx(np.linalg.norm(op.expand(f)), rel=1e-14)


# ---------------------------------------------------------------- psi pins

# psi[0, 0] and the fitted singularity exponent from the full-matrix
# implementation (dense dim_v x dim_v ODE and dense ker T projection)
PSI_PINS = [
    (4, 1, 1.0, -0.8821906264561965 + 0j, 2.000703367043705),
    (4, 1, 1 + 0.3j, 1.8294524936046557 + 4.054968586301362j, 2.0000424407225283),
    (5, 1, 1.0, 11.624200735993197 + 0j, 3.0000068807145635),
    (5, 1, 1 + 0.3j, 11.855046612364763 + 16.023486896903638j, 3.0000210254459962),
    (6, 3, 1.0, 2.1268919452442296 + 0j, 3.9999854062759903),
    (6, 3, 1 + 0.3j, 2.359866140795164 + 0.6078991885691808j, 3.9999845777092395),
    (7, 3, 1.0, 0.27108283234657105 + 0j, 4.999847965643125),
    (7, 3, 1 + 0.3j, 1.1457354117136564 + 1.7179605776400482j, 4.999996101459131),
]


@pytest.mark.parametrize("n,p,s,psi00,expo", PSI_PINS)
def test_psi_matches_full_matrix_reference(n, p, s, psi00, expo):
    op = build_radial_operator(n, p, L_w=40)
    kern = frobenius_solve(op, cover_point(make_space(Field.REAL, n), p, s), L=40)
    psi, got = psi_extract(op, kern)
    assert psi.shape == (op.taup.dim_v, op.taup.dim_v)
    assert np.array_equal(psi, psi[0, 0] * np.eye(op.taup.dim_v))
    assert abs(psi[0, 0] - psi00) <= 1e-6 * abs(psi00)
    assert abs(got - expo) <= 1e-6 * expo
