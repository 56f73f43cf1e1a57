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
    divisors, resonance masks and each seed's first level that must raise
    are computed before the recursion, which runs all seeds at once: level
    l's W-series is a convolution over the gap l - m, one product of the
    levels, stored last first, with a table of gap weights.

4.  `kernel_blocks` evaluates the series and its exact derivatives on
    coefficients, at a time or a whole t-grid from one exp(-lam t) table,
    with norms ||sum_j c_j P_j||_F = sqrt(sum_j m_j |c_j|^2) (m_j = rank
    P_j, summed as sqrt(max m) times sqrt(sum_j (m_j / max m) |c_j|^2) so
    that ranks near the float64 limit stay finite); `kernel_eval` /
    `kernel_derivatives` expand them to dim_v x dim_v matrices,
    `block_ode_residual` / `form_ode_residual` check the radial equation
    and `decay_check` fits the far-field decay, each grid in one call.

5.  `psi_coefficient` reads the kernel near t = 0 from its local
    Frobenius basis there.  In y = tanh^2(t/2) the block equation is
    Fuchsian with singular points y = 0, 1 and infinity only, so the
    series of the 2B local solutions at y = 0 (exponents 0 and (2-n)/2 on
    one eigenvector of D_a - S, 1 and -n/2 on the other, with a log y
    term where a recurrence divisor is exactly 0) converge for every
    t > 0; matched to the decaying series at one t >= 1, they give the
    kernel on [1e-3, 1e-2] without integration (Coddington and Levinson,
    Theory of Ordinary Differential Equations, ch. 4).  It extracts the
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
import numbers
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    AssemblyMismatch,
    BranchPoint,
    CombinatorialBlowup,
    DegenerateFit,
    DomainError,
    FitFailure,
    NumericalError,
    ResonanceDetected,
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


def _rotation_actions(n: int, p: int, pairs: Iterable[tuple[int, int]]):
    """The action on Lambda^p(R^n) of the rotation E_ij = e_i e_j^T -
    e_j e_i^T, for each (i, j), i < j, of pairs in turn, as a dim_v x
    dim_v integer-valued float matrix.

    Basis: p-element subsets of {0..n-1} in lexicographic order.  In
    closed form, E_ij sends e_I to (-1)^m e_J, J = I xor {i, j}, when
    exactly one of i and j lies in I, where m counts the elements of I
    strictly between i and j, negated when i lies in I; it sends every
    other e_I to 0.
    """
    basis = list(itertools.combinations(range(n), p))
    index = {I: k for k, I in enumerate(basis)}
    for i, j in pairs:
        out = np.zeros((len(basis), len(basis)))
        for col, I in enumerate(basis):
            if (i in I) != (j in I):
                sign = (-1) ** sum(i < k < j for k in I)
                J = tuple(sorted(set(I) ^ {i, j}))
                out[index[J], col] = -sign if i in I else sign
        yield out


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
    ys = tuple(_rotation_actions(n, p, [(0, r) for r in range(1, n)]))
    dim = math.comb(n, p)
    omega_m = np.zeros((dim, dim))
    for m in _rotation_actions(n, p, itertools.combinations(range(1, n), 2)):
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
# and the cap on frobenius_solve's O(L^2) W-series work (2 (L+1)^2 entries).
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

    def _gap_weights(self, L: int) -> np.ndarray:
        """Weights of x_(l-k) in sum_k W_k(x_(l-k)): 2k diag(beta^2 - beta - 2a)
        for even k and 4k S^T for odd k, as kron(w, I_2) on the float view of the
        block vectors, one 2B x 2B block per gap k = 1..L stacked as (2BL, 2B);
        one table, grown to the largest L asked for."""
        table = self.__dict__.get("_gap_table")
        B2 = 2 * len(self.block_mult)
        if table is None or len(table) < B2 * L:
            k = np.arange(1.0, L + 1)[:, None, None]
            scale = float(self.beta ** 2 - self.beta) - 2.0 * self.block_a
            w = np.where(k % 2 == 0, 2.0 * k * np.diag(scale), 4.0 * k * self.block_s.T)
            table = np.kron(w, np.eye(2)).reshape(-1, B2)
            self.__dict__["_gap_table"] = table  # a cache, beside the frozen fields
        return table[:B2 * L]

    @functools.cached_property
    def _shift(self) -> float:
        """alpha_p plus the SO(n) Casimir scalar p(n-p)."""
        return float(self.alpha_p) + self.p * (self.n - self.p)

    def apply_blocks(self, s: complex, f, df, ddf, t: float | np.ndarray) -> np.ndarray:
        """`direct_apply` on block coefficients (B,) at a float t, or (T, B) at
        T times: the r_j of (Delta_p - alpha_p + s^2) F(a_t), F = sum_j f_j P_j,
        r = (s^2 - shift) f - (coth^2 + 1/sinh^2) a f + 2/(sinh tanh) S f
        - (n-1) coth f' - f'', with no weight that squares sinh t."""
        t = np.asarray(t, dtype=float)[..., None]
        sh, th = np.sinh(t), np.tanh(t)
        return ((s * s - self._shift) * f - ((1.0 / th) ** 2 + (1.0 / sh) ** 2) * self.block_a * f
                + 2.0 / (sh * th) * (self.block_s * f[..., None, :]).sum(axis=-1)
                - (self.n - 1) / th * df - ddf)

    def direct_apply(
        self, s: complex, F: np.ndarray, dF: np.ndarray, ddF: np.ndarray, t: float
    ) -> np.ndarray:
        """Radial Hodge-Laplacian equation applied to dense (F, F', F'') at t.

        Returns  (Delta_p - alpha_p + s^2) F(a_t); zero on the kernel.  The
        weights are those of `apply_blocks`, none of which squares sinh t.
        """
        tp = self.taup
        sh, th = math.sinh(t), math.tanh(t)
        coth = 1.0 / th
        A = tp.omega_k - tp.omega_m
        return (
            -ddF
            - (self.n - 1) * coth * dF
            - coth * coth * (A @ F)
            - (F @ A) * (1.0 / sh) ** 2
            + 2.0 / (sh * th) * tp.sandwich(F)
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

    @functools.cached_property
    def _series_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """`kernel_blocks`' tables, built on first use (coef_a and coef_b are
        not edited in place after it): lam = mu_j + l over the K = B (L+1)
        terms, the columns lam^k a and lam^k b (K, 6B), k = 0, 1, 2, and the
        tail's rates Re mu_j + L and last-level norms."""
        lam = (np.asarray(self.exponents)[:, None] + np.arange(self.truncation + 1))[..., None]
        a, b = self.coef_a, self.coef_b
        terms = np.concatenate([a, lam * a, lam * lam * a, b, lam * b, lam * lam * b], axis=2)
        return (lam.ravel(), terms.reshape(lam.size, -1), lam[:, -1, 0].real,
                self.operator.block_norm(a[:, -1]))

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
    """Solve the block recursion for the decaying solution, all seeds at once.

    Exponent gaps that are integers to within _SNAP_TOL are absorbed with
    t-linear (logarithmic in q) terms; gaps inside the resonance floor but
    not exactly integer raise ResonanceDetected, each seed's first error in
    seed order.  A ratio test on the last coefficients emits TruncationWarning
    when the tail fails to decay.  An L not an integer >= 1 (bool excluded)
    raises DomainError.  The W-series take O(L^2) work, counted as 2 (L+1)^2
    entries: past MAX_EXPAND_ENTRIES, CombinatorialBlowup is raised up front.
    """
    if not isinstance(L, numbers.Integral) or isinstance(L, bool):
        raise DomainError(f"truncation order L must be an integer, got {L!r}")
    if L < 1:
        raise DomainError(f"truncation order L must be >= 1, got {L}")
    if 2 * (L + 1) ** 2 > MAX_EXPAND_ENTRIES:
        raise CombinatorialBlowup(f"truncation order L = {L} needs W-series work of "
                                  f"{2 * (L + 1) ** 2} entries, over the cap of "
                                  f"{MAX_EXPAND_ENTRIES}")
    s = cover.s
    resonance_floor = _RESONANCE_FLOOR * (1.0 + abs(s) ** 2)
    mus = [cover.exponent_for(ev) for ev in op.e_values]
    B = len(mus)
    snap_abs = _SNAP_TOL * (1.0 + max(abs(m) for m in mus)) ** 2

    # every divisor [lam^2 - s^2 - E] of the recursion, d[j, l-1, i] for lam = mu_j + l,
    # with its resonance masks; the squares are Python complex products, as the
    # per-level statement of the recursion forms them
    lams = [[mu + l for l in range(1, L + 1)] for mu in mus]
    d = np.array([[lam * lam - s * s for lam in row] for row in lams]).reshape(B, L, 1)
    d = d - np.asarray(op.e_values, dtype=float)
    absd = np.abs(d)
    res = absd <= snap_abs
    near = ~res & (absd < resonance_floor)
    lam = np.array(lams)
    double = res.any(axis=2) & (np.abs(lam) < resonance_floor)
    bad = double | near.any(axis=2)

    # first[j] = (levels done once seed j's first error is settled, the error):
    # a table error once the seed is past its resonant levels below it, where a
    # repeated resonance would come first, a repeated resonance right after its
    # level.  It raises once every seed before j is past its resonant levels.
    def done(r):  # levels done once past the last resonant level of r[seeds, levels, :]
        return max(np.flatnonzero(r.any(axis=(0, 2))) + 1, default=0) if r.size else 0
    first = {j: (done(res[j:j + 1, :k]),
                 f"double root at exponent {lams[j][k]} (level {k + 1} of block {j})"
                 if double[j, k] else f"recursion divisor {d[j, k][near[j, k]][0]:.3g} at level "
                 f"{k + 1} of block {j} is inside the resonance floor {resonance_floor:.3g}")
             for j, k in enumerate(bad.argmax(axis=1).tolist()) if bad[j, k]}
    def settle():
        j = min(first, default=None)
        return (L + 1, None) if j is None else (max(first[j][0], done(res[:j])), first[j][1])
    stop, error = settle()
    if stop == 0:
        raise ResonanceDetected(error)

    # by level: resonant entries divide to zero (a stays zero there, the freedom is
    # a multiple of the other block's solution, fixed to the minimal choice; b takes
    # the log-term value below), as does a seed run past its table error, so no warning
    dead = np.logical_or.accumulate(bad, axis=1)[..., None]
    live_res = (res & ~dead).transpose(1, 0, 2)
    has_res = live_res.any(axis=(1, 2)).tolist()
    divisor = np.where(res | dead, np.inf, d).transpose(1, 0, 2)
    lam2 = (2.0 * lam.T)[..., None].repeat(B, axis=2)
    weights = op._gap_weights(L)

    # y[c, j, L - m] = (a, b)[c] of seed j at level m, so that levels l-1..0
    # are one run, whose product with the gap weights forms level l's W-series
    y = np.zeros((2, B, L + 1, B), dtype=complex)
    y[0, :, L] = np.eye(B)
    yr = y.view(float)
    for l in range(1, L + 1):
        run = yr[:, :, L - l + 1:].reshape(2 * B, -1)
        rhs_a, rhs_b = (run @ weights[:2 * B * l]).view(complex).reshape(2, B, B)
        x = y[:, :, L - l]
        x[1] = rhs_b / divisor[l - 1]
        if has_res[l - 1]:
            r = live_res[l - 1]
            repeated = (np.where(r, np.abs(rhs_b), 0.0).max(axis=1)
                        > 1e-8 * np.fmax(1.0, np.abs(rhs_a).max(axis=1)))
            for j in np.flatnonzero(repeated).tolist():  # an earlier repeat had this message
                first[j] = (l, "repeated resonance in one block needs t^2 terms; not supported")
            stop, error = settle()
            x[1][r] = -rhs_a[r] / lam2[l - 1][r]
        x[0] = (rhs_a + lam2[l - 1] * x[1]) / divisor[l - 1]
        if l == stop:
            raise ResonanceDetected(error)
    coef_a, coef_b = y[:, :, ::-1].copy()
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
    kernel: FrobeniusKernel, t: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block coefficients (f, f', f'') of (F, F', F'') at t, F = sum_j f_j P_j:
    (B,) arrays at a float t, (T, B) at a 1-d array of T times, whose rows
    are bit for bit the float calls.  Exact derivatives of the truncated
    series.  The first failing time names itself, check by check: DomainError
    (t not positive, or sinh t past the float64 range), TailBoundExceeded
    (below the series validity threshold, then past _TAIL_RTOL), NumericalError
    (a value past the float64 range, far out on the second sheet), DegenerateFit
    (the kernel norm max_j |f_j| vanished below it)."""
    ts = np.asarray(t, dtype=float).reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # the checks below read inf and NaN
        sh = np.sinh(ts)
        if (bad := ~(ts > 0) | np.isinf(sh)).any():  # NaN fails too
            raise DomainError(f"radial time must be positive with a finite sinh, "
                              f"got t={ts[bad.argmax(), 0]}")
        ratio = kernel.growth_ratio * np.exp(-ts)
        if (low := ratio >= 0.95).any():
            raise TailBoundExceeded(
                f"t={ts[low.argmax(), 0]} below the series validity threshold "
                f"{kernel.t_min:.3f} (coefficient growth {kernel.growth_ratio:.3f})"
            )
        lam, terms, rates, last = kernel._series_tables
        # one (1, K) x (K, 6B) product per time, so rows match one-time calls
        E = np.exp(-lam * ts)[:, None]
        a0, a1, a2, b0, b1, b2 = (E @ terms).reshape(len(ts), 6, -1).transpose(1, 0, 2)
        v = a0 + ts * b0  # the terms are e^(-lam t) (a + t b)
        dv = b0 - a1 - ts * b1
        ddv = a2 + ts * b2 - 2.0 * b1
        tail = (np.exp(-rates * ts) * last).sum(axis=1) / (1.0 - ratio[:, 0])
        vnorm = kernel.operator.block_norm(v)
        if (over := (vnorm > 0) & (tail > _TAIL_RTOL * vnorm)).any():
            i = over.argmax()
            raise TailBoundExceeded(
                f"truncated tail estimate {tail[i] / vnorm[i]:.3g} of the kernel exceeds "
                f"{_TAIL_RTOL:.1g} at t={ts[i, 0]} (threshold t ~ {kernel.t_min:.3f})"
            )
        beta = float(kernel.operator.beta)
        coth = 1.0 / np.tanh(ts)
        sig = sh ** -beta
        f = sig * v
        df = sig * (dv - beta * coth * v)
        ddf = sig * (ddv - 2.0 * beta * coth * dv + ((beta * beta + beta) * coth * coth - beta) * v)
    if (bad := ~np.isfinite(np.hstack([f, df, ddf])).all(axis=1)).any():
        raise NumericalError(f"the kernel series passes the float64 range "
                             f"at t={ts[bad.argmax(), 0]}")
    if (zero := np.abs(f).max(axis=1) <= 0).any():
        raise DegenerateFit(f"kernel norm vanished at t={ts[zero.argmax(), 0]}")
    return (f, df, ddf) if np.ndim(t) else (f[0], df[0], ddf[0])


def kernel_eval(kernel: FrobeniusKernel, t: float) -> np.ndarray:
    """Reconstructed kernel F_p at radial time t."""
    return kernel.operator.expand(kernel_blocks(kernel, t)[0])


def kernel_derivatives(
    kernel: FrobeniusKernel, t: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, F', F'') at t; exact derivatives of the truncated series."""
    f, df, ddf = kernel_blocks(kernel, t)
    return kernel.operator.expand(f), kernel.operator.expand(df), kernel.operator.expand(ddf)


def block_ode_residual(kernel: FrobeniusKernel, t: float | np.ndarray) -> float | np.ndarray:
    """`form_ode_residual` on the block coefficients: F is diagonal, so
    each 2-norm there is the largest block coefficient in modulus.  A float
    at a float t, an array at a 1-d array of times."""
    f, df, ddf = kernel_blocks(kernel, t)
    r = np.abs(kernel.operator.apply_blocks(kernel.cover.s, f, df, ddf, t)).max(axis=-1)
    scale = np.maximum(np.maximum(np.abs(ddf).max(axis=-1), np.abs(f).max(axis=-1)), 1e-300)
    return r / scale if np.ndim(t) else float(r / scale)


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
    (max_j |f_j| for F = sum_j f_j P_j), from one `kernel_blocks` call."""
    t = np.asarray(t_grid, dtype=float)
    return decay_rate_fit(np.column_stack([t, np.abs(kernel_blocks(kernel, t)[0]).max(axis=1)]))


# psi_coefficient reads the kernel on 8 points of [_PSI_T0, 10 _PSI_T0]
# from the local basis at t = 0, matched to the series at
# t* = min(max(1, 2 t_min), _PSI_T).  The basis series run until their
# terms fall below _PSI_SERIES_TOL at the largest y = tanh^2(t/2) taken; a
# match whose rounding passes _PSI_MATCH_RTOL of the kernel raises
# NumericalError
_PSI_T0 = 1e-3
_PSI_T = 4.0
_PSI_SERIES_TOL = 1e-17
_PSI_MATCH_RTOL = 1e-7


def _eigenbasis(op: RadialOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, V, M): the eigenvalues lam of D_a - S, D_a = diag(a), in
    closed form (0, and -n when B = 2), their eigenvectors as the columns
    of V in block coordinates, and V^-1 (D_a + S) V."""
    B = len(op.block_mult)
    V = np.ones((B, B))
    if B == 2:
        i, o, _, _ = _block_layout(op.n, op.p, B)
        V[i, 1], V[o, 1] = op.n - op.p, -op.p
    lam = np.array([0.0, -op.n][:B])
    return lam, V, np.linalg.solve(V, (np.diag(op.block_a) + op.block_s) @ V)


def _frobenius_seeds(n: int, B: int) -> list[tuple[int, float, bool]]:
    """(eigenvector, exponent r in y, log seed) of each local solution:
    exponents 0 and (2-n)/2 on eigenvalue 0, and 1 and -n/2 on -n.  At
    n = 2, r = 0 is a double root and the second solution starts as log y."""
    seeds = [(0, 0.0, False), (0, (2 - n) / 2, n == 2)]
    return seeds + [(1, 1.0, False), (1, -n / 2, False)][:2 * B - 2]


def _local_basis(op: RadialOperator, s: complex, mus: Sequence[complex],
                 t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2B local solutions at t = 0 and their first two t-derivatives
    at the times t: (V, phi, size), phi[d, i] the d-th derivatives at t[i]
    as a B x 2B matrix in the eigenbasis of D_a - S, whose vectors are the
    columns of V (`_eigenbasis`), and size the same sums over the moduli
    of their terms.  A value past the float64 range raises NumericalError.

    In y = tanh^2(t/2), with theta = y d/dy, the equation of
    `apply_blocks` reads L0(theta) f + y L1(theta) f + y^2 L2(theta) f = 0,
    L0(r) = 2r^2 + (n-2)r + (D_a - S), L1(r) = -4r^2 - 2(s^2 - shift) and
    L2(r) = 2r^2 - (n-2)r + (D_a + S): Fuchsian, with singular points
    y = 0, 1 and infinity only, so the series converge for every t > 0.
    Each solution is sum_k z^(r+k) (c_k + g_k log z) in z = y / y_top
    (y_top the largest y taken, so the terms fall with k), its vectors
    following a three-term recurrence whose divisors
    2(r+k)^2 + (n-2)(r+k) + lam are exact.  Where one is 0 the solution
    takes a log z term; a resonance that would need log^2 z raises
    NumericalError.  d/dt = (2 / sinh t) theta.
    """
    n = op.n
    B = len(op.block_mult)
    lam, V, M = _eigenbasis(op)
    sigma = s * s - op._shift
    y = np.tanh(np.asarray(t, dtype=float) / 2.0) ** 2
    y_top = float(y.max())
    # near y = 1 (t -> oo) the solutions grow as (1 - y)^(beta - |Re mu|),
    # so their coefficients as k^(gamma - 1), gamma = |Re mu| - beta
    gamma = max(0.0, max(abs(m.real) for m in mus) - float(op.beta))
    K = math.ceil(math.log(_PSI_SERIES_TOL) / math.log(y_top))
    while K * math.log(y_top) + gamma * math.log(K) > math.log(_PSI_SERIES_TOL):
        K += 1
    K += 4
    seeds = _frobenius_seeds(n, B)
    r = np.array([rj for _, rj, _ in seeds])
    rho = r + np.arange(K + 1)[:, None]                             # (K+1, 2B)
    d = (2.0 * rho * rho + (n - 2) * rho)[..., None] + lam          # (K+1, 2B, B)
    res = d == 0.0
    res[0] = False
    divisor = np.where(res, np.inf, d)
    dl0 = (4.0 * rho + (n - 2))[..., None]
    # -L1(rho - 1) and -L2(rho - 2) without D_a + S, and their derivatives
    # in rho, in z: times y_top and y_top^2
    r1, r2 = rho - 1.0, rho - 2.0
    l1 = (y_top * (4.0 * r1 * r1 + 2.0 * sigma))[..., None]
    dl1 = (y_top * 8.0 * r1)[..., None]
    l2 = (y_top ** 2 * ((n - 2) * r2 - 2.0 * r2 * r2))[..., None]
    dl2 = (y_top ** 2 * ((n - 2) - 4.0 * r2))[..., None]
    m2 = -y_top ** 2 * M.T

    # x[k + 1] = (c_k, g_k) of every solution, after a row of zeros for
    # level -1; the g_k stay 0 until a log term starts
    x = np.zeros((K + 2, 2, len(seeds), B), dtype=complex)
    for j, (i, _, log) in enumerate(seeds):
        x[1, int(log), j, i] = 1.0
    logs = any(log for _, _, log in seeds)
    has_res = res.any(axis=(1, 2))
    for k in range(1, K + 1):
        rhs = l1[k] * x[k] + l2[k] * x[k - 1] + x[k - 1] @ m2
        rhs_c, rhs_g = rhs
        if logs:
            rhs_c += dl1[k] * x[k, 1] + dl2[k] * x[k - 1, 1]
        gk = rhs_g / divisor[k]
        if has_res[k]:
            # the resonant entry of c is free (fixed to 0) and a new log
            # term takes the obstruction: L0'(rho) g_k = rhs_c there
            q = res[k]
            dq = np.broadcast_to(dl0[k], q.shape)[q]
            tol = 1e-8 * max(1.0, float(np.abs(rhs_c).max()))
            if (np.abs(rhs_g[q]) > tol).any() or ((dq == 0) & (np.abs(rhs_c[q]) > tol)).any():
                raise NumericalError(f"the local basis at t = 0 needs a log^2 term at level {k} "
                                     f"(n = {n}); not supported")
            gk[q] = rhs_c[q] / np.where(dq == 0, np.inf, dq)
            logs = logs or bool(gk.any())
        x[k + 1] = rhs_c - dl0[k] * gk, gk
        x[k + 1, 0] /= divisor[k]
    c, g = x[1:, 0], x[1:, 1]
    rho = rho[..., None]

    # theta^m of each term: z^rho [(rho^m c + m rho^(m-1) g) + rho^m g log z],
    # summed, and the same sums of moduli
    z = y / y_top
    tables = np.stack([c, g, rho * c + g, rho * g, rho * rho * c + 2.0 * rho * g, rho * rho * g],
                      axis=1).reshape(K + 1, -1)
    powers = z[:, None] ** np.arange(K + 1)
    logz = np.log(z)[:, None, None, None]
    sh = np.sinh(t)[:, None, None]
    ch = np.cosh(t)[:, None, None]
    out = []
    with np.errstate(over="raise", invalid="raise"):
        try:
            lead = (z[:, None] ** r)[:, None, :, None]
            # sign -1 for the moduli: log z <= 0, and d2/dt2 takes -2 cosh t theta
            for table, sign in ((tables, 1.0), (np.abs(tables), -1.0)):
                sums = (powers @ table).reshape(len(z), 3, 2, len(seeds), B)
                theta = lead * (sums[:, :, 0] + sign * logz * sums[:, :, 1])
                out.append(np.stack([theta[:, 0], 2.0 / sh * theta[:, 1],
                                     (4.0 * theta[:, 2] - sign * 2.0 * ch * theta[:, 1]) / (sh * sh)]))
        except FloatingPointError:
            raise NumericalError(f"the local basis at t = {min(t):.3g} passes the float64 range "
                                 f"(n = {n})") from None
    phi, size = (a.transpose(0, 1, 3, 2) for a in out)
    return V, phi, size


def _local_kernel(op: RadialOperator, kernel: FrobeniusKernel,
                  t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(V, phi, size, coef): the local basis at the times t (`_local_basis`)
    and the kernel's coefficients in it, from its value and derivative on
    the series at t* = min(max(1, 2 t_min), _PSI_T).  The kernel's k-th
    t-derivative at t[i] has block coefficients V phi[k, i] coef.

    The kernel at t* is a sum of terms far larger than itself where it
    decays like e^(-mu t) and the local solutions grow like e^(mu t), or
    where the series of a solution that vanishes fast at y = 1 cancel
    (large n); where the rounding of those terms would pass
    _PSI_MATCH_RTOL of the kernel, NumericalError is raised.
    """
    t_star = min(max(1.0, 2.0 * kernel.t_min), _PSI_T)
    f0, df0, _ = kernel_blocks(kernel, t_star)
    V, phi, size = _local_basis(op, kernel.cover.s, kernel.exponents, np.append(t, t_star))
    match = np.concatenate([V @ phi[0, -1], V @ phi[1, -1]])
    data = np.concatenate([f0, df0])
    coef = np.linalg.solve(match, data)
    terms = np.concatenate([np.abs(V) @ size[0, -1], np.abs(V) @ size[1, -1]]) @ np.abs(coef)
    cancel = float(terms.max() / np.abs(data).max())
    if cancel * 2.0 ** -53 > _PSI_MATCH_RTOL:
        raise NumericalError(f"the kernel at t* = {t_star:.3g} is a sum of terms {cancel:.3g} "
                             "times larger: psi would lose its digits")
    return V, phi[:, :-1], size[:, :-1], coef


def psi_coefficient(op: RadialOperator, kernel: FrobeniusKernel) -> tuple[complex, float]:
    """The t^(2-n) singularity coefficient of the kernel, as one number.

    Reads the kernel at 8 points of [1e-3, 1e-2] from the local basis at
    t = 0, matched to the series at one t* (`_local_kernel`), projects
    onto the spherically averaged sector (ker T, the trace average), fits
    the power law, and extrapolates vol(S^(n-1)) t^(n-2) F(t) to t -> 0.

    Returns (psi, fitted_singularity_exponent); the coefficient matrix
    is psi times the identity.
    """
    n = op.n
    t_eval = np.geomspace(_PSI_T0, min(10 * _PSI_T0, 0.8 * _PSI_T), 8)[::-1]
    V, phi, _, coef = _local_kernel(op, kernel, t_eval)
    # average each eigenvector first: the one of the t^-n sector averages
    # to exactly 0, so that sector never enters the sum
    g = op.sphere_average(V) @ (phi[0] @ coef).T
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
