"""Reference statements of the radial operator and its solvers, for tests only.

The library runs on block coefficients with closed-form constants; the
dense helpers derive the same objects from the integer-valued
representation (`RadialOperator.taup`) so the tests can compare the two.
The two solver references are the straightforward forms of the
library's solvers: the Frobenius recursion one (block, level) at a
time, and psi by integrating the block equation down to the window with
`solve_ivp`, where the library sums the local basis at t = 0.
"""

import math

import numpy as np

from hypspec import resolvent
from hypspec.errors import FitFailure, ResonanceDetected
from hypspec.green import vol_sphere
from hypspec.resolvent import kernel_blocks


def w_apply(op, k, X):
    """Apply the order-k perturbation map W_k to a dense X."""
    tp = op.taup
    beta = float(op.beta)
    if k % 2 == 0:
        A = tp.omega_k - tp.omega_m  # sum Y_r^2
        return 2.0 * k * ((beta * beta - beta) * X - A @ X - X @ A)
    return 4.0 * k * tp.sandwich(X)


def w_series(op, past):
    """sum_k W_k(x_(l-k)) on block coefficient vectors, past[k-1] = x_(l-k):
    one level of the recursion, with weights of its own, 2k (beta^2 - beta
    - 2a) for even k and 4k S for odd k, shared with no library table."""
    k = np.arange(1, len(past) + 1)
    even = np.where(k % 2 == 0, 2.0 * k, 0.0) @ past
    odd = np.where(k % 2 == 1, 4.0 * k, 0.0) @ past
    beta = float(op.beta)
    return (beta * beta - beta - 2.0 * op.block_a) * even + op.block_s @ odd


def operator_series_error(op, s, t, X=None):
    """Relative mismatch between the q-series form of the conjugated
    operator and its direct evaluation at time t, on a probe matrix;
    the direct side is `direct_apply` on (sinh t)^-beta X, rescaled."""
    tp = op.taup
    dim = tp.dim_v
    if X is None:
        X = np.eye(dim) + 0.1 * np.arange(dim * dim, dtype=float).reshape(dim, dim)
    X = X.astype(complex)
    beta = float(op.beta)
    q = math.exp(-t)
    # q^0 part: rho^2 - alpha_p + s^2 + D(left); rho = beta for d = 1
    series = (beta * beta - float(op.alpha_p) + s * s) * X + tp.omega_m @ X
    for k in range(1, op.L_w + 1):
        series += q ** k * w_apply(op, k, X)
    coth = 1.0 / math.tanh(t)
    direct = op.direct_apply(
        s, X, -beta * coth * X, ((beta * beta + beta) * coth * coth - beta) * X, t
    )
    return float(
        np.linalg.norm(series - direct, 2) / max(np.linalg.norm(direct, 2), 1e-300)
    )


def block_structure(tp):
    """Block constants from the dense maps applied to each P_j; raises
    AssertionError if A or a sandwich image leaves span{P_j}."""
    block_of = np.searchsorted(tp.e_values, tp.e_diag)
    onehot = (block_of[:, None] == np.arange(len(tp.e_values))).astype(float)
    mult = onehot.sum(axis=0)
    A = np.diag(tp.omega_k - tp.omega_m)
    a = A @ onehot / mult
    assert np.array_equal(A, a[block_of]), "A = sum_r Y_r^2 is not constant on the E blocks"
    S = np.empty((len(mult), len(mult)))
    for j, P in enumerate(onehot.T):
        img = tp.sandwich(np.diag(P))
        S[:, j] = np.diag(img) @ onehot / mult
        assert np.array_equal(img, np.diag(S[block_of, j])), f"sandwich image of block {j}"
    return {"block_of": block_of, "block_mult": mult, "block_a": a, "block_s": S}


def recursion_reference(op, cover, L=40):
    """The block recursion of `frobenius_solve`, one (block, level) at a
    time through `w_series`, with every check in the loop
    and the library's resonance floor and snap (read at call time).

    Returns (coef_a, coef_b, resonance_margin, has_log_terms) and raises
    what `frobenius_solve` raises, with the same messages.
    """
    s = cover.s
    resonance_floor = resolvent._RESONANCE_FLOOR * (1.0 + abs(s) ** 2)
    e = np.asarray(op.e_values, dtype=float)
    mus = [cover.exponent_for(ev) for ev in op.e_values]
    snap_abs = resolvent._SNAP_TOL * (1.0 + max(abs(m) for m in mus)) ** 2

    coef_a = np.zeros((len(mus), L + 1, len(mus)), dtype=complex)
    coef_b = np.zeros_like(coef_a)
    has_log = False
    margin = math.inf
    for j, mu in enumerate(mus):
        a, b = coef_a[j], coef_b[j]
        a[0, j] = 1.0
        for l in range(1, L + 1):
            lam = mu + l
            rhs_a = w_series(op, a[l - 1::-1])
            rhs_b = w_series(op, b[l - 1::-1])
            dvec = (lam * lam - s * s) - e
            res = np.abs(dvec) <= snap_abs
            if res.any() and abs(lam) < resonance_floor:
                raise ResonanceDetected(
                    f"double root at exponent {lam} (level {l} of block {j})"
                )
            near = (~res) & (np.abs(dvec) < resonance_floor)
            if near.any():
                raise ResonanceDetected(
                    f"recursion divisor {dvec[near][0]:.3g} at level {l} of block {j} "
                    f"is inside the resonance floor {resonance_floor:.3g}"
                )
            ok = ~res
            if ok.any():
                margin = min(margin, float(np.abs(dvec[ok]).min()))
            b[l, ok] = rhs_b[ok] / dvec[ok]
            if res.any():
                if np.abs(rhs_b[res]).max() > 1e-8 * max(1.0, np.abs(rhs_a).max()):
                    raise ResonanceDetected(
                        "repeated resonance in one block needs t^2 terms; not supported"
                    )
                b[l, res] = -rhs_a[res] / (2.0 * lam)
                has_log = True
            a[l, ok] = (rhs_a[ok] + 2.0 * lam * b[l, ok]) / dvec[ok]
    return coef_a, coef_b, margin, has_log


# psi_reference's tolerances, tight and its own: about 0.3 s per call
PSI_REF_RTOL = 1e-13
PSI_REF_ATOL = 1e-40


def psi_reference(op, kernel):
    """`psi_coefficient` by integration: scipy's `solve_ivp` (DOP853) from
    the series at t = 4 down to the window, on the complex state, with the
    right-hand side from `RadialOperator.apply_blocks`, the same window
    (the library's constants, read at call time), fit and errors."""
    from scipy.integrate import solve_ivp

    t0, T = resolvent._PSI_T0, resolvent._PSI_T
    n = op.n
    B = len(op.block_mult)
    s = kernel.cover.s
    f0, df0, _ = kernel_blocks(kernel, T)

    def rhs(t, y):
        f, df = y[:B], y[B:]
        return np.concatenate([df, op.apply_blocks(s, f, df, 0.0, t)])

    t_eval = np.geomspace(t0, min(10 * t0, 0.8 * T), 8)[::-1]
    sol = solve_ivp(rhs, (T, t0), np.concatenate([f0, df0]), method="DOP853",
                    rtol=PSI_REF_RTOL, atol=PSI_REF_ATOL, t_eval=t_eval)
    if not sol.success:
        raise RuntimeError(f"downward integration failed: {sol.message}")

    g = op.sphere_average(sol.y[:B])
    scaled = g * vol_sphere(n) * sol.t ** (n - 2)
    logt = np.log(sol.t)
    logn = np.log(np.abs(g))
    slope, intercept = np.polyfit(logt, logn, 1)
    fit_res = float(np.max(np.abs(logn - (slope * logt + intercept))))
    if fit_res > 0.05:
        raise FitFailure(f"power-law fit residual {fit_res:.3g} exceeds tolerance")
    tA, tB = sol.t[-1], sol.t[-2]
    psi = (scaled[-1] * tB ** 2 - scaled[-2] * tA ** 2) / (tB ** 2 - tA ** 2)
    return complex(psi), float(-slope)
