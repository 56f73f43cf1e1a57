"""Form-valued radial resolvent kernel on real hyperbolic space.

Pipeline, d = 1 only (the other fields multiply the bookkeeping without
new algorithmic content and are rejected):

1.  `build_radial_operator` conjugates the radial Hodge-Laplacian
    operator by (sinh t)^((n-1)/2), which removes the first-derivative
    term and leaves

        -v'' + [rho^2 - alpha_p + s^2 + D + W(e^-t)] v = 0,

    where D acts by left multiplication by the SO(n-1) Casimir and the
    perturbation W has *closed-form* coefficients:

        W_k(X) = 2k [ (beta^2-beta) X - A X - X A ]   (k even)
        W_k(X) = 4k * sum_r Y_r X Y_r                 (k odd)

    with beta = (n-1)/2, Y_r the n-1 root-space generators projected into
    the maximal compact subalgebra, and A = sum_r Y_r^2.  The k = 0
    identification with rho^2 - alpha_p + D is checked exactly in
    rational arithmetic.

2.  The constants are closed-form integers on at most two blocks.  Y_r
    swaps the indices 0 and r, so Y_r^2 e_I = -e_I when exactly one of
    0 and r lies in I, and 0 otherwise.  With P_in projecting onto the
    e_I with 0 in I (C(n-1,p-1) of them, first in lexicographic order)
    and P_out onto the others (C(n-1,p)), A = -(n-p) P_in - p P_out and
    the sandwich map sends P_out to -(n-p) P_in and P_in to -p P_out.
    These are Lambda^(p-1) and Lambda^p of R^(n-1), the eigenspaces P_j
    of the E element (SO(n-1) Casimirs q(n-1-q), c(sigma_max) the larger;
    one block when n = 2p).  So F(t) = sum_j f_j(t) P_j, and everything
    below runs on length-B vectors (B <= 2) with a_j (A = sum_j a_j P_j)
    and S (sum_r Y_r P_j Y_r = sum_i S_ij P_i); cf. E. Pedon, C. R. Acad.
    Sci. Paris 1997.  `RadialOperator.apply_blocks` states the operator
    on blocks; the representation as integer-valued float matrices
    (`build_tau_p_action`, built on demand as `RadialOperator.taup`) and
    `direct_apply` are the dense oracle behind `form_ode_residual`.

3.  `frobenius_solve` builds the solution decaying at infinity as a sum
    of per-block series  e^(-mu_j t) sum_l (a_{j,l} + t b_{j,l}) e^(-lt)
    with exponents mu_j = sqrt(s^2 + e_j) over the eigenvalues e_j of
    the E element.  When two exponents differ by an exact integer the
    plain series is obstructed and the logarithmic (t-linear) terms are
    switched on; near-integer gaps inside the resonance floor raise
    ResonanceDetected instead of returning a poisoned series.  All
    divisors, resonance masks and the first (block, level) that must
    raise are computed before the recursion, whose loop only forms the
    W-series of a and b (one matrix product per level) and divides.

4.  `kernel_blocks` evaluates the series and its exact derivatives on
    coefficients, with norms ||sum_j c_j P_j||_F = sqrt(sum_j m_j |c_j|^2)
    (m_j = rank P_j, summed as sqrt(max m) times sqrt(sum_j (m_j / max m)
    |c_j|^2) so that ranks near the float64 limit stay finite);
    `kernel_eval` / `kernel_derivatives` expand them to dim_v x dim_v
    matrices, `block_ode_residual` / `form_ode_residual` check the radial
    equation and `decay_check` fits the far-field decay.

5.  `psi_coefficient` integrates the 2B-state system
    y' = sum_i u_i(t) K_i y (`RadialOperator.ode_matrices`, which
    `apply_blocks` reads too) down to small t with DOP853, in scipy's
    compiled dop853: its stepping loop runs in Fortran, where the Python
    loop of `solve_ivp` cost more than the arithmetic.  It extracts the
    coefficient of the t^(2-n) singularity, one number psi
    (`psi_extract` expands it to the matrix psi I).  For p >= 1 the
    kernel also carries *stronger* transverse singular sectors (up to
    t^-n); the delta-function normalizer lives in the spherically
    averaged sector ker T, T(X) = sum_r [Y_r, [Y_r, X]], the commutant of
    SO(n): C I, plus C * (Hodge star) when n = 2p.  The star sends e_I to
    +-e_(complement of I), so it is orthogonal to every P_j and the
    projection onto ker T is the trace average (sum_j m_j f_j / dim_v) I.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AssemblyMismatch,
    BranchPoint,
    CombinatorialBlowup,
    DegenerateFit,
    DomainError,
    FitFailure,
    ResonanceDetected,
    StiffIntegration,
    TailBoundExceeded,
    TruncationWarning,
    UnsupportedField,
)
from .green import decay_rate_fit, vol_sphere
from .spaces import Field, SpaceDescriptor, alpha_p, make_space

__all__ = [
    "TauPAction",
    "RadialOperator",
    "CoverPoint",
    "FrobeniusKernel",
    "build_tau_p_action",
    "build_radial_operator",
    "cover_point",
    "e_element_values",
    "frobenius_solve",
    "kernel_blocks",
    "kernel_eval",
    "kernel_derivatives",
    "block_ode_residual",
    "form_ode_residual",
    "decay_check",
    "psi_coefficient",
    "psi_extract",
]


def _exterior_matrix(Y: np.ndarray, n: int, p: int) -> np.ndarray:
    """Derivation extension of an antisymmetric n x n matrix to
    Lambda^p(R^n), integer-valued when Y is.

    Basis: p-element subsets of {0..n-1} in lexicographic order.
    """
    basis = list(itertools.combinations(range(n), p))
    index = {I: i for i, I in enumerate(basis)}
    dim = len(basis)
    out = np.zeros((dim, dim))
    for col, I in enumerate(basis):
        for t, it in enumerate(I):
            for j in range(n):
                y = Y[j, it]
                if y == 0 or j in I:
                    continue
                J = list(I)
                J[t] = j
                sign = 1
                k = t
                while k > 0 and J[k] < J[k - 1]:
                    J[k], J[k - 1] = J[k - 1], J[k]
                    sign = -sign
                    k -= 1
                while k < p - 1 and J[k] > J[k + 1]:
                    J[k], J[k + 1] = J[k + 1], J[k]
                    sign = -sign
                    k += 1
                out[index[tuple(J)], col] += sign * y
    return out


def _so_generator(n: int, i: int, j: int) -> np.ndarray:
    Y = np.zeros((n, n))
    Y[i, j] = 1
    Y[j, i] = -1
    return Y


@dataclass(frozen=True)
class TauPAction:
    """Integer-valued float matrices of the degree-p form representation
    and its Casimirs (exact: every entry is far below 2^53).

    y_matrices are the images of the n-1 root generators (antisymmetric,
    mutually orthonormal for the normalized invariant form); omega_m is
    the SO(n-1) Casimir (diagonal in the subset basis), omega_k the full
    SO(n) Casimir (a scalar).
    """

    n: int
    p: int
    dim_v: int
    y_matrices: tuple[np.ndarray, ...]
    omega_k: np.ndarray
    omega_m: np.ndarray
    omega_k_scalar: int
    e_diag: np.ndarray          # diagonal of E = c(sigma_max) + omega_m
    c_sigma_max: int
    e_values: tuple[int, ...]   # distinct eigenvalues of E, ascending

    def sandwich(self, X: np.ndarray) -> np.ndarray:
        """sum_r Y_r X Y_r."""
        out = np.zeros_like(X)
        for y in self.y_matrices:
            out += y @ X @ y
        return out


def _check_degree(n: int, p: int) -> None:
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not 0 <= p <= n:
        raise DomainError(f"degree p={p} out of range [0, {n}]")


def e_element_values(n: int, p: int) -> tuple[int, ...]:
    """Distinct eigenvalues of the E element on Lambda^p(R^n), ascending.

    Closed form of `build_tau_p_action(n, p).e_values`: restricted to
    SO(n-1), Lambda^p(R^n) = Lambda^p(R^(n-1)) + Lambda^(p-1)(R^(n-1))
    (e_I with 0 not in I, resp. in I), with Casimirs q(n-1-q), and E
    takes the value c(sigma_max) - q(n-1-q) on the degree-q summand.
    """
    _check_degree(n, p)
    casimirs = {q * (n - 1 - q) for q in (p - 1, p) if 0 <= q <= n - 1}
    top = max(casimirs)
    return tuple(sorted(top - c for c in casimirs))


def build_tau_p_action(n: int, p: int) -> TauPAction:
    """Construct the representation data for Lambda^p of SO(n), integer-valued."""
    _check_degree(n, p)
    ys = tuple(_exterior_matrix(_so_generator(n, 0, r), n, p) for r in range(1, n))
    dim = math.comb(n, p)
    omega_m = np.zeros((dim, dim))
    for i in range(1, n):
        for j in range(i + 1, n):
            m = _exterior_matrix(_so_generator(n, i, j), n, p)
            omega_m += m @ m
    mA = np.zeros((dim, dim))
    for y in ys:
        mA += y @ y
    omega_k = omega_m + mA
    if not np.array_equal(omega_m, np.diag(np.diag(omega_m))):
        raise AssemblyMismatch("SO(n-1) Casimir is not diagonal in the subset basis")
    diag_k = np.diag(omega_k)
    if not (np.array_equal(omega_k, np.diag(diag_k)) and np.all(diag_k == diag_k[0])):
        raise AssemblyMismatch("SO(n) Casimir is not scalar on Lambda^p")
    c_sigma_max = int(-np.diag(omega_m).min())
    e_diag = c_sigma_max + np.diag(omega_m)
    return TauPAction(
        n=n,
        p=p,
        dim_v=dim,
        y_matrices=ys,
        omega_k=omega_k,
        omega_m=omega_m,
        omega_k_scalar=int(-diag_k[0]),
        e_diag=e_diag,
        c_sigma_max=c_sigma_max,
        e_values=tuple(sorted(set(int(v) for v in e_diag))),
    )


# Largest dense matrix (entries) that the block-to-matrix expansion builds,
# and largest W table (2 (L+1)^2 entries) that frobenius_solve builds.
MAX_EXPAND_ENTRIES = 2 ** 20


@dataclass(frozen=True)
class RadialOperator:
    """Conjugated radial operator with its closed-form perturbation series.

    Block constants, for X = sum_j c_j P_j: block_mult[j] = rank P_j,
    block_a = a, block_s = S, and E = e_values[j] on block j.
    """

    n: int
    p: int
    beta: Fraction              # (n-1)/2
    alpha_p: Fraction
    L_w: int
    e_values: tuple[int, ...]
    block_mult: np.ndarray
    block_a: np.ndarray
    block_s: np.ndarray

    @functools.cached_property
    def taup(self) -> TauPAction:
        """The dense representation, built on first access (oracle only)."""
        return build_tau_p_action(self.n, self.p)

    @functools.cached_property
    def block_of(self) -> np.ndarray:
        """The block of each of the dim_v basis rows, built on first access
        (by `expand`, behind its size guard, and by the oracle tests).
        P_in's rows come first."""
        i, o, m_in, m_out = _block_layout(self.n, self.p, len(self.block_mult))
        return np.repeat([i, o], [m_in, m_out])

    def expand(self, c: np.ndarray) -> np.ndarray:
        """sum_j c_j P_j as a dim_v x dim_v matrix; CombinatorialBlowup,
        before allocating, above MAX_EXPAND_ENTRIES entries."""
        entries = math.comb(self.n, self.p) ** 2
        if entries > MAX_EXPAND_ENTRIES:
            raise CombinatorialBlowup(f"a dense (n, p) = ({self.n}, {self.p}) matrix has "
                                      f"{entries} entries, over the cap of {MAX_EXPAND_ENTRIES}")
        return np.diag(np.asarray(c)[self.block_of])

    def block_norm(self, c: np.ndarray) -> np.ndarray:
        """Frobenius norm of sum_j c_j P_j, over the last axis of c; the
        ranks enter over the largest one, so ranks near the float64 limit
        do not overflow the sum."""
        top = self.block_mult.max()
        return math.sqrt(top) * np.sqrt(np.abs(c) ** 2 @ (self.block_mult / top))

    def sphere_average(self, c: np.ndarray) -> np.ndarray:
        """Coefficient of I in the projection of sum_j c_j P_j onto ker T,
        over the first axis of c."""
        return self.block_mult @ c / self.block_mult.sum()

    @functools.cached_property
    def _w_scale(self) -> np.ndarray:
        """beta^2 - beta - 2a, the block factor of the even W_k."""
        return float(self.beta ** 2 - self.beta) - 2.0 * self.block_a

    def _w_rows(self, L: int) -> np.ndarray:
        """Weights of x_m in sum_k W_k(x_(l-k)) for levels l <= L, as
        rows[l, 0, m] = 2k (k = l - m even) and rows[l, 1, m] = 4k (k odd),
        zero for m >= l; one table, grown to the largest L asked for."""
        rows = self.__dict__.get("_w_table")
        if rows is None or len(rows) <= L:
            k = np.subtract.outer(np.arange(L + 1), np.arange(L + 1))
            rows = np.stack([np.where((k > 0) & (k % 2 == 0), 2.0 * k, 0.0),
                             np.where((k > 0) & (k % 2 == 1), 4.0 * k, 0.0)], axis=1)
            self.__dict__["_w_table"] = rows  # a cache, beside the frozen fields
        return rows[:L + 1, :, :L + 1]

    def w_series(self, past: np.ndarray) -> np.ndarray:
        """sum_k W_k(x_(l-k)) on coefficient vectors, past[k-1] = x_(l-k)."""
        l = len(past)
        even, odd = self._w_rows(l)[l, :, l - 1::-1] @ past
        return self._w_scale * even + self.block_s @ odd

    @functools.cached_property
    def _shift(self) -> float:
        """alpha_p plus the SO(n) Casimir scalar p(n-p)."""
        return float(self.alpha_p) + self.p * (self.n - self.p)

    @staticmethod
    def ode_coefficients(t: float) -> np.ndarray:
        """u(t) = (1, coth^2 t + 1/sinh^2 t, 2 cosh t / sinh^2 t, coth t),
        the weights of `ode_matrices`."""
        coth = 1.0 / math.tanh(t)
        sh2 = math.sinh(t) ** 2
        return np.array([1.0, coth * coth + 1.0 / sh2, 2.0 * math.cosh(t) / sh2, coth])

    def ode_matrices(self, s: complex) -> np.ndarray:
        """The radial equation on blocks as y' = sum_i u_i(t) K_i y with
        y = (f, f'): the constant 2B x 2B matrices K_i, stacked."""
        B = len(self.block_mult)
        eye = np.eye(B)
        K = np.zeros((4, 2 * B, 2 * B), dtype=complex)
        K[0, :B, B:] = eye
        K[0, B:, :B] = (s * s - self._shift) * eye
        K[1, B:, :B] = -np.diag(self.block_a)
        K[2, B:, :B] = self.block_s
        K[3, B:, B:] = -(self.n - 1) * eye
        return K

    def apply_blocks(self, s: complex, f, df, ddf, t: float) -> np.ndarray:
        """`direct_apply` on block coefficients: the coefficients r_j of
        (Delta_p - alpha_p + s^2) F(a_t) for F = sum_j f_j P_j, read off
        the f'' rows of `ode_matrices`."""
        y = self.ode_coefficients(t) @ (self.ode_matrices(s) @ np.concatenate([f, df]))
        return y[len(self.block_mult):] - ddf

    def direct_apply(
        self, s: complex, F: np.ndarray, dF: np.ndarray, ddF: np.ndarray, t: float
    ) -> np.ndarray:
        """Radial Hodge-Laplacian equation applied to dense (F, F', F'') at t.

        Returns  (Delta_p - alpha_p + s^2) F(a_t); zero on the kernel.
        """
        tp = self.taup
        coth = 1.0 / math.tanh(t)
        sh2 = math.sinh(t) ** 2
        A = tp.omega_k - tp.omega_m
        return (
            -ddF
            - (self.n - 1) * coth * dF
            - coth * coth * (A @ F)
            - (F @ A) / sh2
            + 2.0 * math.cosh(t) / sh2 * tp.sandwich(F)
            + tp.omega_k @ F
            + (s * s - float(self.alpha_p)) * F
        )


def _block_layout(n: int, p: int, B: int) -> tuple[int, int, int, int]:
    """The blocks of P_in and P_out and their ranks.

    Blocks are in ascending E order, so P_in is block 0 exactly when
    2p > n, where its Casimir (p-1)(n-p) is the larger.
    """
    m_in, m_out = (math.comb(n - 1, p - 1) if p else 0), math.comb(n - 1, p)
    i, o = (0, 0) if B == 1 else (int(2 * p < n), int(2 * p > n))
    return i, o, m_in, m_out


def _block_constants(n: int, p: int, B: int) -> dict:
    """Block constants in closed form (module docstring, step 2)."""
    i, o, m_in, m_out = _block_layout(n, p, B)
    mult, a, S = np.zeros(B), np.zeros(B), np.zeros((B, B))
    mult[i] += m_in
    mult[o] += m_out
    if m_in and m_out:  # else p = 0 or p = n, where A = 0 and S = 0
        a[i], a[o] = -(n - p), -p
        S[i, o], S[o, i] = -(n - p), -p
    return {"block_mult": mult, "block_a": a, "block_s": S}


def build_radial_operator(n: int, p: int, L_w: int = 40) -> RadialOperator:
    """Assemble the conjugated radial operator for degree p on dimension n.

    The zeroth-order coefficient is identified exactly in rationals with
    rho^2 - alpha_p + D; a mismatch with the closed-form constant table
    raises AssemblyMismatch.
    """
    if L_w < 1:
        raise DomainError("perturbation order L_w must be >= 1")
    e_values = e_element_values(n, p)
    if math.comb(n, p) > sys.float_info.max:  # the block ranks are floats
        raise CombinatorialBlowup(f"the rank C({n}, {p}) of the {p}-forms has no float64 value")
    c_sigma_max = max(q * (n - 1 - q) for q in (p - 1, p) if 0 <= q < n)
    beta = Fraction(n - 1, 2)
    space = make_space(Field.REAL, n)
    alpha_table = alpha_p(space, p)
    alpha_machine = space.rho ** 2 - c_sigma_max
    if alpha_machine != alpha_table:
        raise AssemblyMismatch(
            f"rho^2 - c(sigma_max) = {alpha_machine} != table value {alpha_table}"
        )
    return RadialOperator(
        n=n, p=p, beta=beta, alpha_p=alpha_table, L_w=L_w, e_values=e_values,
        **_block_constants(n, p, len(e_values)),
    )


@dataclass(frozen=True)
class CoverPoint:
    """A point on the branched cover: base parameter plus branch values.

    One branch value per distinct positive eigenvalue e_i of the E
    element, satisfying y_i^2 = s^2 + e_i; h is the minimum of the real
    parts of s and the y_i and governs the kernel decay rate rho + h.
    """

    s: complex
    e_values_pos: tuple[int, ...]
    branch_values: tuple[complex, ...]
    h: float
    on_physical_sheet: bool

    def exponent_for(self, e: int) -> complex:
        if e == 0:
            return self.s
        return self.branch_values[self.e_values_pos.index(e)]


# largest |s| taken: |s|^2 and the recursion's divisors lam^2 - s^2 stay
# far inside the float64 range
_MAX_ABS_S = 1e150


def cover_point(
    space: SpaceDescriptor,
    p: int,
    s: complex,
    branch_signs: Optional[Sequence[int]] = None,
) -> CoverPoint:
    """Place the spectral parameter on the cover with chosen branch signs.

    branch_signs has one +1/-1 entry per distinct positive eigenvalue of
    the E element (ascending order); omitted entries default to +1
    (principal roots, the physical sheet for Re s > 0).
    """
    if space.field is not Field.REAL:
        raise UnsupportedField("the form-valued resolvent is implemented for the real field only")
    s = complex(s)
    if not abs(s) <= _MAX_ABS_S:  # NaN fails too
        raise DomainError(f"spectral parameter s = {s} is not finite or |s| > {_MAX_ABS_S:g}")
    e_pos = tuple(e for e in e_element_values(space.n, p) if e > 0)
    signs = list(branch_signs) if branch_signs is not None else [1] * len(e_pos)
    if len(signs) != len(e_pos):
        raise DomainError(
            f"need {len(e_pos)} branch signs (one per positive E eigenvalue), got {len(signs)}"
        )
    ys = []
    for e, sg in zip(e_pos, signs):
        w = s * s + e
        if abs(w) < 1e-14 * (1.0 + abs(s) ** 2):
            raise BranchPoint(f"s={s} is a ramification point (s^2 + {e} = 0)")
        y = np.sqrt(complex(w))
        if sg not in (1, -1):
            raise DomainError(f"branch signs must be +1 or -1, got {sg}")
        ys.append(sg * complex(y))
    h = min([s.real] + [y.real for y in ys])
    physical = s.real > 0 and all(y.real > 0 for y in ys)
    return CoverPoint(
        s=s,
        e_values_pos=e_pos,
        branch_values=tuple(ys),
        h=h,
        on_physical_sheet=physical,
    )


# frobenius_solve: a divisor within _SNAP_TOL (1 + max |mu|)^2 of zero is a
# resonance, absorbed by t-linear terms; one farther off but within
# _RESONANCE_FLOOR (1 + |s|^2) raises ResonanceDetected
_SNAP_TOL = 1e-10
_RESONANCE_FLOOR = 1e-8
# largest truncated-tail estimate, relative to the kernel, that kernel_blocks accepts
_TAIL_RTOL = 1e-6


@dataclass
class FrobeniusKernel:
    """Truncated series solution decaying at infinity.

    coef_a[j, l, i]: coefficient of P_i at level l of the series seeded
    on block j; coef_b: the t-linear terms of log-absorbed resonances.
    block_projectors, coeffs_a and coeffs_b expand them on access.
    """

    operator: RadialOperator
    cover: CoverPoint
    exponents: tuple[complex, ...]
    coef_a: np.ndarray          # (B, L+1, B)
    coef_b: np.ndarray          # (B, L+1, B)
    truncation: int
    resonance_margin: float
    has_log_terms: bool
    growth_ratio: float = field(default=1.0)

    @property
    def t_min(self) -> float:
        """Advisory smallest t at which the truncated tail stays below
        _TAIL_RTOL; evaluation re-checks the bound pointwise."""
        return max(
            math.log(max(self.growth_ratio, 1.0))
            - math.log(_TAIL_RTOL) / max(self.truncation, 1),
            0.02,
        )

    def _expand(self, coef: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
        return tuple(tuple(self.operator.expand(c) for c in blk) for blk in coef)

    @property
    def block_projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(self.operator.expand(c) for c in np.eye(len(self.exponents), dtype=complex))

    @property
    def coeffs_a(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return self._expand(self.coef_a)

    @property
    def coeffs_b(self) -> tuple[tuple[np.ndarray, ...], ...]:
        return self._expand(self.coef_b)


def frobenius_solve(op: RadialOperator, cover: CoverPoint, L: int = 40) -> FrobeniusKernel:
    """Solve the block recursion for the decaying solution.

    Exponent gaps that are integers to within _SNAP_TOL are absorbed with
    t-linear (logarithmic in q) terms; gaps inside the resonance floor
    but not exactly integer raise ResonanceDetected.  A ratio test on
    the last coefficients emits TruncationWarning when the tail fails to
    decay.  L < 1 raises DomainError, and an L whose W table would pass
    MAX_EXPAND_ENTRIES entries raises CombinatorialBlowup before it
    allocates.
    """
    if L < 1:
        raise DomainError(f"truncation order L must be >= 1, got {L}")
    if 2 * (L + 1) ** 2 > MAX_EXPAND_ENTRIES:
        raise CombinatorialBlowup(f"truncation order L = {L} needs a W table of "
                                  f"{2 * (L + 1) ** 2} entries, over the cap of "
                                  f"{MAX_EXPAND_ENTRIES}")
    s = cover.s
    resonance_floor = _RESONANCE_FLOOR * (1.0 + abs(s) ** 2)
    mus = [cover.exponent_for(ev) for ev in op.e_values]
    B = len(mus)
    snap_abs = _SNAP_TOL * (1.0 + max(abs(m) for m in mus)) ** 2

    # every divisor [lam^2 - s^2 - E] of the recursion, d[j, l-1, i] for
    # lam = mu_j + l, with its resonance masks and the first (block, level)
    # that must raise; the squares are Python complex products, as the
    # per-level statement of the recursion forms them
    lams = [[mu + l for l in range(1, L + 1)] for mu in mus]
    d = np.array([[lam * lam - s * s for lam in row] for row in lams]).reshape(B, L, 1)
    d = d - np.asarray(op.e_values, dtype=float)
    absd = np.abs(d)
    res = absd <= snap_abs
    near = ~res & (absd < resonance_floor)
    double = res.any(axis=2) & (np.abs(lams) < resonance_floor)
    bad = double | near.any(axis=2)
    stop, error = (B, 0), None  # (block, level - 1) of the first error
    if bad.any():
        stop = j, k = divmod(int(bad.argmax()), L)
        if double[j, k]:
            error = f"double root at exponent {lams[j][k]} (level {k + 1} of block {j})"
        else:
            error = (f"recursion divisor {d[j, k][near[j, k]][0]:.3g} at level {k + 1} of block "
                     f"{j} is inside the resonance floor {resonance_floor:.3g}")
    # resonant entries divide to zero: a stays zero there (the freedom is
    # a multiple of the other block's solution, fixed to the minimal
    # choice) and b takes the log-term value below
    divisor = np.where(res, np.inf, d)
    has_res = res.any(axis=2).tolist()
    rows, scale, s_t = op._w_rows(L), op._w_scale, op.block_s.T

    # coef[j, l] = (a_(j,l), b_(j,l)); one matrix product per level forms
    # the even and odd W-series of both
    coef = np.zeros((B, L + 1, 2, B), dtype=complex)
    for j in range(B):
        x = coef[j]
        xr = x.reshape(L + 1, 2 * B).view(float)
        x[0, 0, j] = 1.0
        for l in range(1, L + 1):
            if (j, l - 1) == stop:
                raise ResonanceDetected(error)
            even, odd = (rows[l] @ xr).view(complex).reshape(2, 2, B)
            rhs_a, rhs_b = scale * even + odd @ s_t
            b = rhs_b / divisor[j, l - 1]
            lam = lams[j][l - 1]
            if has_res[j][l - 1]:
                r = res[j, l - 1]
                if np.abs(rhs_b[r]).max() > 1e-8 * max(1.0, np.abs(rhs_a).max()):
                    raise ResonanceDetected(
                        "repeated resonance in one block needs t^2 terms; not supported"
                    )
                b[r] = -rhs_a[r] / (2.0 * lam)
            x[l, 1] = b
            x[l, 0] = (rhs_a + 2.0 * lam * b) / divisor[j, l - 1]
    coef_a, coef_b = coef.transpose(2, 0, 1, 3).copy()
    margin = math.inf if res.all() else float(absd[~res].min())
    has_log = bool(res.any())

    # effective geometric growth of the coefficients, smoothed over a dozen
    # levels (parity of the perturbation makes consecutive ratios oscillate)
    growth = 1.0
    span = min(12, L)
    for norms in op.block_norm(coef_a):
        if span >= 2 and norms[-1 - span] > 0 and norms[-1] > 0:
            growth = max(growth, (norms[-1] / norms[-1 - span]) ** (1.0 / span))
    if growth > 2.0:
        warnings.warn(
            f"series coefficients grow with ratio {growth:.3f}; tail bound shrinks",
            TruncationWarning,
        )
    return FrobeniusKernel(
        operator=op, cover=cover, exponents=tuple(mus), coef_a=coef_a, coef_b=coef_b,
        truncation=L, resonance_margin=margin, has_log_terms=has_log, growth_ratio=growth,
    )


def kernel_blocks(
    kernel: FrobeniusKernel, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block coefficients (f, f', f'') of (F, F', F'') at t, F = sum_j f_j P_j.

    Exact derivatives of the truncated series; below the series validity
    threshold TailBoundExceeded is raised.
    """
    if not t > 0:  # NaN fails too
        raise DomainError(f"radial time must be positive, got t={t}")
    ratio = kernel.growth_ratio * math.exp(-t)
    if ratio >= 0.95:
        raise TailBoundExceeded(
            f"t={t} below the series validity threshold {kernel.t_min:.3f} "
            f"(coefficient growth {kernel.growth_ratio:.3f})"
        )
    op = kernel.operator
    beta = float(op.beta)
    mu = np.asarray(kernel.exponents)
    lam = mu[:, None] + np.arange(kernel.truncation + 1)
    E = np.exp(-lam * t)
    lam = lam[..., None]
    a, b = kernel.coef_a, kernel.coef_b
    term = a + t * b
    v = np.einsum("jl,jli->i", E, term)
    dv = np.einsum("jl,jli->i", E, b - lam * term)
    ddv = np.einsum("jl,jli->i", E, lam * lam * term - 2.0 * lam * b)
    tail = op.block_norm(a[:, -1]) @ np.exp(-(mu.real + kernel.truncation) * t) / (1.0 - ratio)
    vnorm = float(op.block_norm(v))
    if vnorm > 0 and tail > _TAIL_RTOL * vnorm:
        raise TailBoundExceeded(
            f"truncated tail estimate {tail / vnorm:.3g} of the kernel exceeds "
            f"{_TAIL_RTOL:.1g} at t={t} (threshold t ~ {kernel.t_min:.3f})"
        )
    coth = 1.0 / math.tanh(t)
    sig = math.sinh(t) ** (-beta)
    f = sig * v
    df = sig * (dv - beta * coth * v)
    ddf = sig * (
        ddv - 2.0 * beta * coth * dv + ((beta * beta + beta) * coth * coth - beta) * v
    )
    return f, df, ddf


def kernel_eval(kernel: FrobeniusKernel, t: float) -> np.ndarray:
    """Reconstructed kernel F_p at radial time t."""
    return kernel.operator.expand(kernel_blocks(kernel, t)[0])


def kernel_derivatives(
    kernel: FrobeniusKernel, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, F', F'') at t; exact derivatives of the truncated series."""
    f, df, ddf = kernel_blocks(kernel, t)
    return kernel.operator.expand(f), kernel.operator.expand(df), kernel.operator.expand(ddf)


def block_ode_residual(kernel: FrobeniusKernel, t: float) -> float:
    """`form_ode_residual` on the block coefficients: F is diagonal, so
    each 2-norm there is the largest block coefficient in modulus."""
    f, df, ddf = kernel_blocks(kernel, t)
    r = kernel.operator.apply_blocks(kernel.cover.s, f, df, ddf, t)
    return float(np.abs(r).max() / max(np.abs(ddf).max(), np.abs(f).max(), 1e-300))


def form_ode_residual(kernel: FrobeniusKernel, t: float) -> float:
    """Relative residual of the dense radial equation on the expanded kernel.

    Normalized by the largest of the individual operator-term norms, so
    the value is meaningful both in the far field and near the origin.
    """
    F, dF, ddF = kernel_derivatives(kernel, t)
    op = kernel.operator
    R = op.direct_apply(kernel.cover.s, F, dF, ddF, t)
    scale = max(np.linalg.norm(ddF, 2), np.linalg.norm(F, 2), 1e-300)
    return float(np.linalg.norm(R, 2) / scale)


def decay_check(kernel: FrobeniusKernel, t_grid: Sequence[float]) -> float:
    """Fitted exponential decay rate of the operator norm over t_grid
    (max_j |f_j| for F = sum_j f_j P_j)."""
    samples = []
    for t in t_grid:
        norm = float(np.abs(kernel_blocks(kernel, t)[0]).max())
        if norm <= 0:
            raise DegenerateFit(f"kernel norm vanished at t={t}")
        samples.append((float(t), norm))
    return decay_rate_fit(samples)


# psi_coefficient integrates from _PSI_T down to _PSI_T0 with relative
# tolerance _PSI_RTOL, allowing _PSI_MAX_STEPS dop853 steps between two
# output times before StiffIntegration
_PSI_T0 = 1e-3
_PSI_T = 4.0
_PSI_RTOL = 1e-11
_PSI_MAX_STEPS = 100_000


def _real_form(K: np.ndarray) -> np.ndarray:
    """Real matrices acting on the interleaved (re, im) view of a complex
    vector as the complex matrices K (last two axes) act on the vector."""
    R = np.empty(K.shape[:-2] + (2 * K.shape[-2], 2 * K.shape[-1]))
    R[..., 0::2, 0::2] = R[..., 1::2, 1::2] = K.real
    R[..., 0::2, 1::2] = -K.imag
    R[..., 1::2, 0::2] = K.imag
    return R


def psi_coefficient(op: RadialOperator, kernel: FrobeniusKernel) -> tuple[complex, float]:
    """The t^(2-n) singularity coefficient of the kernel, as one number.

    Integrates the block system y' = sum_i u_i(t) K_i y
    (`RadialOperator.ode_matrices`) from t = 4 down to 1e-3 with initial data
    from the series, projects onto the spherically averaged sector (ker T,
    the trace average), fits the power law, and extrapolates
    vol(S^(n-1)) t^(n-2) F(t) to t -> 0.

    The integrator is DOP853 (Hairer, Norsett and Wanner, Solving Ordinary
    Differential Equations I), in scipy's compiled dop853
    (`scipy.integrate.ode`) on the real view of the complex state: the
    stepping runs in Fortran and each right-hand side is two small matrix
    products, where `solve_ivp`'s Python stepping loop cost more than the
    arithmetic.  A failed call raises StiffIntegration.

    Returns (psi, fitted_singularity_exponent); the coefficient matrix
    is psi times the identity.
    """
    # deferred: importing scipy.integrate takes longer than most CLI
    # calls, and this is the only function that integrates an ODE
    from scipy.integrate import ode

    n = op.n
    B = len(op.block_mult)
    f0, df0, _ = kernel_blocks(kernel, _PSI_T)
    K = _real_form(op.ode_matrices(kernel.cover.s)).reshape(4 * 4 * B, 4 * B)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return op.ode_coefficients(t) @ (K @ y).reshape(4, 4 * B)

    t_eval = np.geomspace(_PSI_T0, min(10 * _PSI_T0, 0.8 * _PSI_T), 8)[::-1]
    solver = ode(rhs).set_integrator("dop853", rtol=_PSI_RTOL, atol=1e-14, nsteps=_PSI_MAX_STEPS)
    solver.set_initial_value(np.concatenate([f0, df0]).view(float), _PSI_T)
    y = np.empty((len(t_eval), 2 * B), dtype=complex)
    with warnings.catch_warnings():
        # dop853 reports a failed call as a UserWarning "dop853: <reason>"
        warnings.filterwarnings("error", "dop853", UserWarning)
        for i, t in enumerate(t_eval):
            try:
                y[i] = solver.integrate(t).view(complex)
            except UserWarning as exc:
                raise StiffIntegration(f"downward integration failed at t={t:.3g}: {exc}") from None

    g = op.sphere_average(y[:, :B].T)
    scaled = g * vol_sphere(n) * t_eval ** (n - 2)
    logt = np.log(t_eval)
    logn = np.log(np.abs(g))
    slope, intercept = np.polyfit(logt, logn, 1)
    fit_res = float(np.max(np.abs(logn - (slope * logt + intercept))))
    if fit_res > 0.05:
        raise FitFailure(f"power-law fit residual {fit_res:.3g} exceeds tolerance")
    # two smallest t values, Richardson in t^2
    tA, tB = t_eval[-1], t_eval[-2]
    psi = (scaled[-1] * tB ** 2 - scaled[-2] * tA ** 2) / (tB ** 2 - tA ** 2)
    return complex(psi), float(-slope)


def psi_extract(op: RadialOperator, kernel: FrobeniusKernel) -> tuple[np.ndarray, float]:
    """psi_coefficient expanded to the dim_v x dim_v coefficient matrix,
    a multiple of I (through RadialOperator.expand and its size guard).

    Returns (psi, fitted_singularity_exponent).
    """
    psi, expo = psi_coefficient(op, kernel)
    return op.expand(np.full(len(op.block_mult), psi)), expo
