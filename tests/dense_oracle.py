"""Dense full-matrix statements of the radial operator, for tests only.

The library runs on block coefficients with closed-form constants; these
helpers derive the same objects from the integer-exact representation
(`RadialOperator.taup`) so the tests can compare the two.
"""

import math

import numpy as np


def w_apply(op, k, X):
    """Apply the order-k perturbation map W_k to a dense X."""
    tp = op.taup
    beta = float(op.beta)
    if k % 2 == 0:
        A = tp.omega_k.astype(float) - tp.omega_m.astype(float)  # sum Y_r^2
        return 2.0 * k * ((beta * beta - beta) * X - A @ X - X @ A)
    return 4.0 * k * tp.sandwich(X)


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
    series = (beta * beta - float(op.alpha_p) + s * s) * X + tp.omega_m.astype(float) @ X
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
    A = np.diag(tp.omega_k - tp.omega_m).astype(float)
    a = A @ onehot / mult
    assert np.array_equal(A, a[block_of]), "A = sum_r Y_r^2 is not constant on the E blocks"
    S = np.empty((len(mult), len(mult)))
    for j, P in enumerate(onehot.T):
        img = tp.sandwich(np.diag(P))
        S[:, j] = np.diag(img) @ onehot / mult
        assert np.array_equal(img, np.diag(S[block_of, j])), f"sandwich image of block {j}"
    return {"block_of": block_of, "block_mult": mult, "block_a": a, "block_s": S}
