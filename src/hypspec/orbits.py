"""Point models of real and complex hyperbolic space, orbit enumeration
for finitely generated discrete groups, and critical-exponent estimation.

Points live on the standard quadric models: the upper sheet of the unit
hyperboloid for a signature-(n,1) symmetric form (real case), negative
lines of a signature-(n,1) Hermitian form (complex case, metric scaled
to holomorphic sectional curvature -4, so pinched curvature in [-4,-1]).
The form matrix is diag(1, ..., 1, -1) with the time coordinate last.

Orbit enumeration walks freely reduced words in lexicographic order
(letter-major, generator then its inverse), so samples are deterministic
across runs.  The optional MatrixHash policy collapses words that give
the same isometry up to an entrywise quantization of 1e-9, for
generating sets that do not generate freely.
"""

from __future__ import annotations

import bisect
import json
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .errors import CombinatorialBlowup, DegenerateFit, DomainError, OrbitOverflow
from .green import green0_eval_many
from .spaces import Field, SpaceDescriptor

__all__ = [
    "RealHyperboloid",
    "ComplexProjective",
    "DedupPolicy",
    "GroupGenerators",
    "OrbitSample",
    "DeltaEstimate",
    "distance",
    "enumerate_orbit",
    "poincare_partial_sum",
    "shell_sums",
    "estimate_delta",
    "pullback_green_partial_sum",
    "load_group_file",
    "boost_matrix",
    "cyclic_group",
    "schottky_pair",
    "punctured_torus_group",
    "sl2_to_so21",
]

_DEFAULT_WORD_CAP = 20_000_000
_FORM_TOL = 1e-10
_TAIL_SHELLS = 4      # shell ratios averaged by the bisection estimator
_ROOT_XTOL = 1e-14     # relative step at which the delta root is accepted


@dataclass(frozen=True)
class RealHyperboloid:
    """Unit hyperboloid in R^(n,1); admissible points have q(x) < 0."""

    n: int

    @property
    def field(self) -> Field:
        return Field.REAL

    @property
    def ambient_dim(self) -> int:
        return self.n + 1

    @property
    def dtype(self):
        return np.float64

    def form_matrix(self) -> np.ndarray:
        J = np.eye(self.n + 1)
        J[-1, -1] = -1.0
        return J

    def origin(self) -> np.ndarray:
        x = np.zeros(self.n + 1)
        x[-1] = 1.0
        return x

    def form(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.dot(x[:-1], y[:-1]) - x[-1] * y[-1])

    def normalize(self, x: np.ndarray) -> np.ndarray:
        q = self.form(x, x)
        if q >= 0:
            raise DomainError("point is not on a negative vector of the form")
        x = x / math.sqrt(-q)
        return x if x[-1] > 0 else -x

    def batch_cosh_distance(self, pts: np.ndarray, base: np.ndarray) -> np.ndarray:
        Jb = np.append(base[:-1], -base[-1])
        return -(pts @ Jb)


@dataclass(frozen=True)
class ComplexProjective:
    """Negative lines in C^(n,1); curvature pinned to [-4, -1]."""

    n: int

    @property
    def field(self) -> Field:
        return Field.COMPLEX

    @property
    def ambient_dim(self) -> int:
        return self.n + 1

    @property
    def dtype(self):
        return np.complex128

    def form_matrix(self) -> np.ndarray:
        J = np.eye(self.n + 1, dtype=complex)
        J[-1, -1] = -1.0
        return J

    def origin(self) -> np.ndarray:
        x = np.zeros(self.n + 1, dtype=complex)
        x[-1] = 1.0
        return x

    def form(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.dot(x[:-1], np.conj(y[:-1])) - x[-1] * np.conj(y[-1]))

    def normalize(self, x: np.ndarray) -> np.ndarray:
        q = self.form(x, x).real
        if q >= 0:
            raise DomainError("point is not on a negative line of the form")
        return x / math.sqrt(-q)

    def batch_cosh_distance(self, pts: np.ndarray, base: np.ndarray) -> np.ndarray:
        Jb = np.append(np.conj(base[:-1]), -np.conj(base[-1]))
        ip = pts @ Jb
        Jc = np.append(np.ones(self.n), -1.0)
        qx = -np.real(np.einsum("ij,j,ij->i", pts, Jc, np.conj(pts)))
        qb = -self.form(base, base).real
        return np.abs(ip) / np.sqrt(qx * qb)


Model = Union[RealHyperboloid, ComplexProjective]


def _stable_acosh(c: np.ndarray) -> np.ndarray:
    delta = np.maximum(np.asarray(c, dtype=float) - 1.0, 0.0)
    # log1p(delta + sqrt(delta (delta + 2))) with the root split, so it stays
    # finite wherever cosh does; in place, so no more temporaries than before
    root = np.sqrt(delta + 2.0)
    root *= np.sqrt(delta)
    root += delta
    return np.log1p(root, out=root)


def distance(model: Model, x: Sequence, y: Sequence) -> float:
    """Geodesic distance between two admissible points."""
    x = model.normalize(np.asarray(x, dtype=model.dtype))
    y = model.normalize(np.asarray(y, dtype=model.dtype))
    c = model.batch_cosh_distance(x[None, :], y)[0]
    return float(_stable_acosh(np.asarray([c]))[0])


class DedupPolicy(str, Enum):
    FREE_REDUCTION = "free_reduction"
    MATRIX_HASH = "matrix_hash"


@dataclass(frozen=True)
class GroupGenerators:
    """Generating isometries with labels; inverses come from the form."""

    model: Model
    matrices: tuple[np.ndarray, ...]
    labels: tuple[str, ...]
    free: bool = True   # caller's assertion; recorded, not verified

    def __post_init__(self) -> None:
        J = self.model.form_matrix()
        for g, lab in zip(self.matrices, self.labels):
            if g.shape != (self.model.ambient_dim, self.model.ambient_dim):
                raise DomainError(f"generator {lab} has shape {g.shape}")
            scale = max(1.0, float(np.abs(g).max()) ** 2)
            err = np.abs(np.conj(g.T) @ J @ g - J).max() / scale
            if err > _FORM_TOL:
                raise DomainError(
                    f"generator {lab} does not preserve the form (relative error {err:.3g})"
                )

    def inverses(self) -> tuple[np.ndarray, ...]:
        J = self.model.form_matrix()
        Jinv = J  # J is an involution
        return tuple(Jinv @ np.conj(g.T) @ J for g in self.matrices)


@dataclass
class OrbitSample:
    """Distances of an orbit under all freely reduced words up to a cap."""

    model: Model
    base_point: np.ndarray
    max_word_length: int
    dedup_policy: DedupPolicy
    distances_by_length: list[np.ndarray]
    n_words: int
    _sorted: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def distances(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(np.concatenate(self.distances_by_length))
        return self._sorted

    def count_by_radius(self, R) -> np.ndarray:
        """Orbit counting function N(R), vectorized in R."""
        return np.searchsorted(self.distances, np.asarray(R, dtype=float), side="right")


def _quantize_key(m: np.ndarray) -> bytes:
    # +0.0 normalizes the sign of rounded zeros before hashing
    return (np.round(m, 9) + 0.0).tobytes()


def _word_cap(max_words: Optional[int]) -> int:
    if max_words is not None:
        return max_words
    env = os.environ.get("HYPSPEC_MAX_WORDS")
    return int(env) if env else _DEFAULT_WORD_CAP


def _extend_free(
    letters: list[np.ndarray], prev_pts: np.ndarray, prev_letter: np.ndarray, size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Next level under free reduction, written letter by letter into one
    array of the known size (no per-letter parts to concatenate)."""
    pts = np.empty((size, prev_pts.shape[1]), dtype=prev_pts.dtype)
    last = np.empty(size, dtype=np.int8)
    off = 0
    for li, g in enumerate(letters):
        mask = prev_letter != (li ^ 1)
        cnt = int(np.count_nonzero(mask))
        np.matmul(prev_pts[mask], g.T, out=pts[off:off + cnt])
        last[off:off + cnt] = li
        off += cnt
    return pts, last


def _extend_hashed(
    letters: list[np.ndarray],
    prev_mats: np.ndarray,
    prev_letter: np.ndarray,
    seen: set,
) -> tuple[np.ndarray, np.ndarray]:
    """Next level under matrix hashing: words whose isometry was not seen."""
    mat_parts, letter_parts = [], []
    for li, g in enumerate(letters):
        mask = prev_letter != (li ^ 1)
        if not mask.any():
            continue
        new_mats = np.einsum("ij,njk->nik", g, prev_mats[mask])
        keep = []
        for idx in range(new_mats.shape[0]):
            key = _quantize_key(new_mats[idx])
            if key not in seen:
                seen.add(key)
                keep.append(idx)
        if keep:
            mat_parts.append(new_mats[keep])
            letter_parts.append(np.full(len(keep), li, dtype=np.int8))
    if not mat_parts:
        return prev_mats[:0], prev_letter[:0]
    return np.concatenate(mat_parts, axis=0), np.concatenate(letter_parts)


@np.errstate(over="ignore", invalid="ignore")  # overflow raises OrbitOverflow below
def enumerate_orbit(
    gens: GroupGenerators,
    base: Optional[Sequence] = None,
    max_len: int = 8,
    dedup_policy: DedupPolicy = DedupPolicy.FREE_REDUCTION,
    max_words: Optional[int] = None,
) -> OrbitSample:
    """Apply all freely reduced words of length <= max_len to the base point.

    Enumeration is lexicographic in the alphabet (g1, g1^-1, g2, ...),
    level by level; within the free-reduction policy only point orbits
    are tracked, and each level is written into one array of its known
    size, so the punctured-torus cap of ~10^7 words stays within a few
    hundred MB.  Under free reduction level l has exactly m (m-1)^(l-1)
    words for m letters, so the word cap is checked once, before
    anything is built; under matrix hashing it is checked after each
    level.  OrbitOverflow is raised at the first word length whose
    distances are not finite.
    """
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    model = gens.model
    base_pt = model.normalize(
        np.asarray(base, dtype=model.dtype) if base is not None else model.origin()
    )
    letters: list[np.ndarray] = []
    for g, ginv in zip(gens.matrices, gens.inverses()):
        letters.append(np.asarray(g, dtype=model.dtype))
        letters.append(np.asarray(ginv, dtype=model.dtype))
    cap = _word_cap(max_words)
    blowup = CombinatorialBlowup(
        f"orbit enumeration exceeds the cap of {cap} words "
        f"(set HYPSPEC_MAX_WORDS or max_words to raise it)"
    )
    dedup = dedup_policy == DedupPolicy.MATRIX_HASH
    if not dedup:
        # m letters give m (m-1)^(l-1) freely reduced words of length l;
        # summed level by level, so a huge max_len stops at the cap
        m = len(letters)
        sizes, words = [], 1
        for level in range(max_len):
            sizes.append(m * (m - 1) ** level)
            words += sizes[-1]
            if words > cap:
                raise blowup

    dists: list[np.ndarray] = [np.zeros(1)]
    total = 1
    if dedup:
        prev_mats = np.eye(model.ambient_dim, dtype=model.dtype)[None, :, :]
        seen = {_quantize_key(prev_mats[0])}
    prev_pts = base_pt[None, :]
    prev_letter = np.array([-1], dtype=np.int8)

    for level in range(1, max_len + 1):
        if dedup:
            prev_mats, prev_letter = _extend_hashed(letters, prev_mats, prev_letter, seen)
            if not len(prev_letter):
                break
            prev_pts = prev_mats @ base_pt
            total += len(prev_letter)
            if total > cap:
                raise blowup
        else:
            if not sizes[level - 1]:
                break  # no generators: the orbit is the base point
            prev_pts, prev_letter = _extend_free(
                letters, prev_pts, prev_letter, sizes[level - 1]
            )
            total += len(prev_letter)
        d = _stable_acosh(model.batch_cosh_distance(prev_pts, base_pt))
        if not np.isfinite(d).all():
            raise OrbitOverflow(
                f"orbit distances stop being finite at word length {level} "
                f"(max_len={max_len} is beyond double precision for this group)"
            )
        dists.append(d)

    return OrbitSample(
        model=model,
        base_point=base_pt,
        max_word_length=max_len,
        dedup_policy=dedup_policy,
        distances_by_length=dists,
        n_words=total,
    )


def poincare_partial_sum(sample: OrbitSample, s: float) -> float:
    """Partial sum of exp(-s d) over the recorded orbit (identity included)."""
    return float(sum(np.exp(-s * d).sum() for d in sample.distances_by_length))


def shell_sums(sample: OrbitSample, s: float) -> np.ndarray:
    """Partial sums per word length, for tail-ratio diagnostics."""
    return np.asarray([np.exp(-s * d).sum() for d in sample.distances_by_length])


@dataclass(frozen=True)
class DeltaEstimate:
    growth_fit: float
    bisection: float
    spread: float


def _has_three_distinct(d: np.ndarray, decimals: int = 12) -> bool:
    """Whether sorted distances take at least three values after rounding.

    Rounding is monotone, so on sorted input the values rounding like
    d[0] form a prefix; a bisection finds its end without a pass over d.
    """
    def key(v):
        return np.round(v, decimals)

    first = key(d[0])
    i = bisect.bisect_right(d, first, key=key)
    return i < len(d) and key(d[i]) != key(d[-1])


def _log_shell_sum(d: np.ndarray, d_min: float, s: float) -> tuple[float, float]:
    """log sum exp(-s d) over one shell, and the exp(-s d)-weighted mean
    distance, which is minus its derivative in s.  Shifted by the shell's
    smallest distance, so no term overflows or underflows to zero."""
    w = np.subtract(d, d_min)
    w *= -s
    np.exp(w, out=w)
    total = float(w.sum())
    return -s * d_min + math.log(total), float(w @ d) / total


def _safeguarded_newton(fn, lo: float, hi: float, x: float) -> float:
    """Root of fn in [lo, hi], given fn(lo) >= 0 > fn(hi), starting at x;
    fn returns the value and the derivative.  Newton steps that leave the
    bracket are replaced by bisection, so this converges wherever
    bisection does."""
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    for _ in range(200):
        f, df = fn(x)
        if f == 0.0:
            return x
        if f > 0.0:
            lo = x
        else:
            hi = x
        x_new = x - f / df if df < 0.0 else 0.5 * (lo + hi)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= _ROOT_XTOL * max(1.0, x):
            return x_new
        x = x_new
    return x


def estimate_delta(
    sample: OrbitSample,
    window: tuple[float, float] = (0.5, 1.0),
) -> DeltaEstimate:
    """Two truncation-biased estimators of the critical exponent.

    growth_fit: least-squares slope of log N(R) over a window of the
    *effectively complete* radius range.  A word-length ball only counts
    every orbit point out to roughly the smallest distance reached by
    the final word-length shell (beyond it, longer words would still
    contribute: severe for groups with parabolic elements), so the fit
    window is taken as fractions of that completeness radius.  The
    default (0.5, 1.0) keeps the outer half of it, away from small-R
    transients; both endpoints are tunable.
    bisection: abscissa where the geometric-tail model of the partial
    sums switches between convergence and divergence.  The last
    word-length shells T_l(s) = sum exp(-s d) are modelled as a
    geometric series whose ratio is the geometric mean of the last
    k <= 4 shell ratios; that mean telescopes to (T_last / T_(last-k))^(1/k),
    so only two shells enter.  The root of log T_last - log T_(last-k)
    is bracketed as before and found by a Newton iteration safeguarded
    by bisection, with the derivative -(<d>_last - <d>_(last-k)) from the
    same pass.  (The field keeps its name: it is the CLI's key.)
    """
    d = sample.distances
    if not _has_three_distinct(d):
        raise DegenerateFit("need at least three distinct radii")
    last_shell = sample.distances_by_length[-1]
    r_complete = float(last_shell.min()) if len(last_shell) else float(d[-1])
    if r_complete <= 0:
        r_complete = float(d[-1])
    lo, hi = window[0] * r_complete, window[1] * r_complete
    grid = np.linspace(lo, hi, 64)
    counts = sample.count_by_radius(grid)
    good = counts > 0
    if good.sum() < 2:
        raise DegenerateFit("window too small for the growth fit")
    growth = float(np.polyfit(grid[good], np.log(counts[good]), 1)[0])

    shells = sample.distances_by_length[1:]  # drop the identity shell
    if len(shells) < 2:
        raise DegenerateFit("need at least two word-length shells")
    k = min(_TAIL_SHELLS, len(shells) - 1)
    top, bottom = shells[-1], shells[-1 - k]
    top_min, bottom_min = float(top.min()), float(bottom.min())

    def tail_log_ratio(s: float) -> tuple[float, float]:
        # k times the log of the tail ratio, and its derivative in s
        log_top, mean_top = _log_shell_sum(top, top_min, s)
        log_bottom, mean_bottom = _log_shell_sum(bottom, bottom_min, s)
        return log_top - log_bottom, mean_bottom - mean_top

    s_lo, s_hi = 0.0, max(1.0, 2.0 * abs(growth))
    f_lo, df_lo = tail_log_ratio(s_lo)
    if f_lo < 0.0 or (f_lo == 0.0 and df_lo < 0.0):
        bisection = 0.0  # the tail already converges at s = 0, or turns there
    else:
        while tail_log_ratio(s_hi)[0] >= 0.0:
            s_hi *= 2.0
            if s_hi > 1e3:
                raise DegenerateFit("tail ratio never drops below 1")
        # the growth fit estimates the same exponent: a close first guess
        bisection = _safeguarded_newton(tail_log_ratio, s_lo, s_hi, growth)
    return DeltaEstimate(
        growth_fit=growth,
        bisection=bisection,
        spread=abs(growth - bisection),
    )


def pullback_green_partial_sum(
    space: SpaceDescriptor, s: float, sample: OrbitSample
) -> float:
    """Partial sum of the scalar Green kernel over nonzero orbit distances,
    evaluated in one array pass (green0_eval_many)."""
    if space.field is not sample.model.field or space.n != sample.model.n:
        raise DomainError(
            f"space {space} does not match the sample's model "
            f"({sample.model.field.value}, n={sample.model.n})"
        )
    if s <= 0:
        raise DomainError("the comparison requires real s > 0")
    d = sample.distances
    d = d[d > 1e-12]
    return float(green0_eval_many(space, s, d).real.sum())


# ---------------------------------------------------------------------------
# model/group builders and the group-definition file format


def boost_matrix(n: int, length: float, axis: int = 0) -> np.ndarray:
    """Hyperbolic translation of the given length along a coordinate axis."""
    if not 0 <= axis < n:
        raise DomainError(f"axis {axis} out of range for n={n}")
    M = np.eye(n + 1)
    ch, sh = math.cosh(length), math.sinh(length)
    M[axis, axis] = ch
    M[axis, n] = sh
    M[n, axis] = sh
    M[n, n] = ch
    return M


def cyclic_group(n: int, length: float) -> GroupGenerators:
    """Infinite cyclic group generated by one translation."""
    model = RealHyperboloid(n)
    return GroupGenerators(model, (boost_matrix(n, length),), ("a",))


def schottky_pair(length: float) -> GroupGenerators:
    """Two translations along orthogonal axes through the base point.

    For length large enough this is a free convex-cocompact group whose
    critical exponent decays like log(3)/length.
    """
    model = RealHyperboloid(2)
    return GroupGenerators(
        model,
        (boost_matrix(2, length, axis=0), boost_matrix(2, length, axis=1)),
        ("a", "b"),
    )


def sl2_to_so21(g: np.ndarray) -> np.ndarray:
    """Image of an SL(2, R) matrix under the symmetric-square isometry
    onto SO(2,1), in coordinates (x, y, t) with form x^2 + y^2 - t^2."""
    p, q = float(g[0, 0]), float(g[0, 1])
    r, s = float(g[1, 0]), float(g[1, 1])
    return np.array(
        [
            [p * s + q * r, p * r - q * s, p * r + q * s],
            [p * q - r * s, (p * p - q * q - r * r + s * s) / 2, (p * p + q * q - r * r - s * s) / 2],
            [p * q + r * s, (p * p - q * q + r * r - s * s) / 2, (p * p + q * q + r * r + s * s) / 2],
        ]
    )


def punctured_torus_group() -> GroupGenerators:
    """Free rank-2 lattice (finite covolume, one cusp) in SO(2,1)."""
    A = sl2_to_so21(np.array([[1.0, 2.0], [0.0, 1.0]]))
    B = sl2_to_so21(np.array([[1.0, 0.0], [2.0, 1.0]]))
    return GroupGenerators(RealHyperboloid(2), (A, B), ("a", "b"))


def _parse_entry(v) -> complex:
    if isinstance(v, dict):
        return complex(float(v.get("re", 0.0)), float(v.get("im", 0.0)))
    if isinstance(v, str):
        return complex(float(v), 0.0)
    return complex(v)


def load_group_file(path: str) -> tuple[GroupGenerators, Optional[np.ndarray]]:
    """Read a group definition file.

    JSON schema:
      model:       {"type": "real_hyperboloid" | "complex_projective", "n": int}
      generators:  [{"label": str, "matrix": [[entry, ...], ...]}, ...]
      base_point:  [entry, ...]   (optional)
    Matrix entries are numbers, decimal strings, or {"re":..., "im":...}.
    """
    with open(path) as f:
        spec = json.load(f)
    try:
        mtype = spec["model"]["type"]
        n = int(spec["model"]["n"])
        if mtype == "real_hyperboloid":
            model: Model = RealHyperboloid(n)
        elif mtype == "complex_projective":
            model = ComplexProjective(n)
        else:
            raise DomainError(f"unknown model type {mtype!r}")
        mats = []
        labels = []
        for i, g in enumerate(spec["generators"]):
            raw = np.asarray(
                [[_parse_entry(v) for v in row] for row in g["matrix"]]
            )
            if model.dtype == np.float64:
                if np.abs(raw.imag).max() > 0:
                    raise DomainError("real model with complex generator entries")
                raw = raw.real
            mats.append(raw.astype(model.dtype))
            labels.append(str(g.get("label", f"g{i}")))
        base = None
        if "base_point" in spec:
            base = np.asarray([_parse_entry(v) for v in spec["base_point"]])
            if model.dtype == np.float64:
                base = base.real
    except KeyError as exc:
        raise DomainError(f"group file missing key {exc}") from exc
    return GroupGenerators(model, tuple(mats), tuple(labels)), base
