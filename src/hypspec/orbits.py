"""Point models of real and complex hyperbolic space, orbit enumeration
for finitely generated discrete groups, and critical-exponent estimation.

Points live on the standard quadric models: the upper sheet of the unit
hyperboloid for a signature-(n,1) symmetric form (real case), negative
lines of a signature-(n,1) Hermitian form (complex case, metric scaled
to holomorphic sectional curvature -4, so pinched curvature in [-4,-1]).
The form matrix is diag(1, ..., 1, -1) with the time coordinate last.
Both models derive from QuadricModel, whose read method is the one
place where points and matrices from outside the library (generators,
base points, the points given to distance, group files) become arrays
of the model's dtype: it rejects a wrong shape, a non-finite entry and,
on the real model, an imaginary part, with DomainError.

Orbit enumeration walks freely reduced words in lexicographic order
(letter-major, generator then its inverse), so samples are deterministic
across runs.  The optional MatrixHash policy collapses words that give
the same isometry up to an entrywise quantization of 1e-9, for
generating sets that do not generate freely.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Optional, Sequence

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
_CHUNK = 1 << 16      # rows per block of orbit points turned into distances
_FORM_TOL = 1e-10
_FIT_WINDOW = (0.5, 1.0)  # growth-fit radii, as fractions of the completeness radius
_TAIL_SHELLS = 4      # shell ratios averaged by the bisection estimator
_ROOT_XTOL = 1e-14     # relative step at which the delta root is accepted
_MAX_DIM = 1 << 10    # largest model dimension n: an (n+1)^2 form matrix of about 2^20 entries


@dataclass(frozen=True)
class QuadricModel:
    """A signature-(n,1) form on the field's (n+1)-space, time coordinate
    last; the subclasses give the form, the normalization of admissible
    points and their cosh distances."""

    n: int
    field: ClassVar[Field]
    dtype: ClassVar[type]

    def __post_init__(self) -> None:
        if not 1 <= self.n:
            raise DomainError(f"model dimension n must be >= 1, got {self.n}")

    @property
    def ambient_dim(self) -> int:
        return self.n + 1

    def _dense_dim(self) -> int:
        """ambient_dim, for an array of that size; DomainError, before
        anything is allocated, above n = _MAX_DIM."""
        if self.n > _MAX_DIM:
            raise DomainError(f"model dimension n = {self.n} is over the cap of {_MAX_DIM}")
        return self.ambient_dim

    def form_matrix(self) -> np.ndarray:
        J = np.eye(self._dense_dim(), dtype=self.dtype)
        J[-1, -1] = -1.0
        return J

    def origin(self) -> np.ndarray:
        x = np.zeros(self._dense_dim(), dtype=self.dtype)
        x[-1] = 1.0
        return x

    def read(self, values, what: str, ndim: int = 1) -> np.ndarray:
        """values, a point (ndim 1) or a matrix (ndim 2) from outside the
        library, as a new array of the model's dtype.  DomainError unless
        the shape fits the model and every entry is a finite number with,
        on the real model, no imaginary part."""
        try:
            x = np.asarray(values)
        except ValueError as exc:  # ragged nesting
            raise DomainError(f"{what} is not an array of numbers") from exc
        shape = (self.ambient_dim,) * ndim
        if x.shape != shape:
            raise DomainError(f"{what} has shape {x.shape}, expected {shape}")
        if x.dtype.kind not in "biufc":
            raise DomainError(f"{what} has entries that are not numbers")
        if not np.isfinite(x).all():
            raise DomainError(f"{what} has an entry that is not finite")
        if self.field is Field.REAL and np.iscomplexobj(x):
            if np.any(x.imag):
                raise DomainError(f"{what} has an imaginary part on a real model")
            x = x.real
        return np.array(x, dtype=self.dtype)


class RealHyperboloid(QuadricModel):
    """Unit hyperboloid in R^(n,1); admissible points have q(x) < 0."""

    field = Field.REAL
    dtype = np.float64

    def form(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.dot(x[:-1], y[:-1]) - x[-1] * y[-1])

    def normalize(self, x: np.ndarray) -> np.ndarray:
        q = self.form(x, x)
        if not -math.inf < q < 0:  # NaN and an overflowed form fail too
            raise DomainError("point is not on a negative vector of the form")
        x = x / math.sqrt(-q)
        return x if x[-1] > 0 else -x

    def batch_cosh_distance(self, pts: np.ndarray, base: np.ndarray) -> np.ndarray:
        Jb = np.append(base[:-1], -base[-1])
        return -(pts @ Jb)


class ComplexProjective(QuadricModel):
    """Negative lines in C^(n,1); curvature pinned to [-4, -1]."""

    field = Field.COMPLEX
    dtype = np.complex128

    def form(self, x: np.ndarray, y: np.ndarray) -> complex:
        return complex(np.dot(x[:-1], np.conj(y[:-1])) - x[-1] * np.conj(y[-1]))

    def normalize(self, x: np.ndarray) -> np.ndarray:
        q = self.form(x, x).real
        if not -math.inf < q < 0:  # NaN and an overflowed form fail too
            raise DomainError("point is not on a negative line of the form")
        return x / math.sqrt(-q)

    def batch_cosh_distance(self, pts: np.ndarray, base: np.ndarray) -> np.ndarray:
        Jb = np.append(np.conj(base[:-1]), -np.conj(base[-1]))
        ip = pts @ Jb
        Jc = np.append(np.ones(self.n), -1.0)
        qx = -np.real(np.einsum("ij,j,ij->i", pts, Jc, np.conj(pts)))
        qb = -self.form(base, base).real
        return np.abs(ip) / np.sqrt(qx * qb)


def _stable_acosh(c: np.ndarray) -> np.ndarray:
    """arccosh of an array of cosh values that the caller gives up: a
    float64 array is overwritten with max(c - 1, 0)."""
    # log1p(delta + sqrt(delta + 2) sqrt(delta)), the root split so it stays
    # finite wherever cosh does; the steps run in place, in this order
    delta = np.asarray(c, dtype=float)
    np.subtract(delta, 1.0, out=delta)
    np.maximum(delta, 0.0, out=delta)
    root = np.add(delta, 2.0)
    np.sqrt(root, out=root)
    root *= np.sqrt(delta)
    root += delta
    return np.log1p(root, out=root)


def distance(model: QuadricModel, x: Sequence, y: Sequence) -> float:
    """Geodesic distance between two admissible points."""
    x = model.normalize(model.read(x, "point"))
    y = model.normalize(model.read(y, "point"))
    c = model.batch_cosh_distance(x[None, :], y)[0]
    return float(_stable_acosh(np.asarray([c]))[0])


class DedupPolicy(str, Enum):
    FREE_REDUCTION = "free_reduction"
    MATRIX_HASH = "matrix_hash"


@dataclass(frozen=True)
class GroupGenerators:
    """Generating isometries with labels; inverses come from the form.

    The matrices are read through the model (QuadricModel.read), so they
    are held in its dtype, and each must preserve the form to _FORM_TOL
    relative to its largest entry squared.
    """

    model: QuadricModel
    matrices: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.matrices) != len(self.labels):
            raise DomainError(f"{len(self.matrices)} generators but {len(self.labels)} labels")
        mats = tuple(self.model.read(g, f"generator {lab}", ndim=2)
                     for g, lab in zip(self.matrices, self.labels))
        object.__setattr__(self, "matrices", mats)
        J = self.model.form_matrix()
        for g, lab in zip(mats, self.labels):
            # entries near the float64 limit overflow to inf or NaN, which fail
            with np.errstate(over="ignore", invalid="ignore"):
                scale = max(1.0, np.abs(g).max()) ** 2
                err = np.abs(np.conj(g.T) @ J @ g - J).max() / scale
            if not err <= _FORM_TOL:
                raise DomainError(
                    f"generator {lab} does not preserve the form (relative error {err:.3g})"
                )

    def inverses(self) -> tuple[np.ndarray, ...]:
        J = self.model.form_matrix()  # an involution: J^-1 = J
        return tuple(J @ np.conj(g.T) @ J for g in self.matrices)


@dataclass
class OrbitSample:
    """Distances of an orbit under all freely reduced words up to a cap.

    The sample holds one unsorted distance array per word length (the
    shells, in enumeration order); counting and summing run shell by
    shell, so no library path builds a copy of the whole sample.
    """

    model: QuadricModel
    base_point: np.ndarray
    max_word_length: int
    dedup_policy: DedupPolicy
    distances_by_length: list[np.ndarray]
    n_words: int

    @functools.cached_property
    def distances(self) -> np.ndarray:
        """All distances, sorted: a copy of the whole sample, built on
        first access."""
        return np.sort(np.concatenate(self.distances_by_length))

    def count_by_radius(self, R) -> np.ndarray:
        """Orbit counting function N(R), vectorized in R.

        Each shell's distances up to the largest R are binned against the
        sorted radii and the bins are summed cumulatively: a distance d is
        counted at every R >= d.
        """
        R = np.asarray(R, dtype=float)
        order = np.argsort(R, axis=None)
        radii = R.ravel()[order]
        top = radii.max(initial=-np.inf)
        hist = np.zeros(radii.size, dtype=np.intp)
        for shell in self.distances_by_length:
            hist += np.bincount(
                np.searchsorted(radii, shell[shell <= top], side="left"),
                minlength=radii.size,
            )
        counts = np.empty(radii.size, dtype=np.intp)
        counts[order] = np.cumsum(hist)
        return counts.reshape(R.shape)[()]  # a scalar for scalar R


def _quantize(mats: np.ndarray) -> np.ndarray:
    # +0.0 normalizes the sign of rounded zeros before hashing
    return np.round(mats, 9) + 0.0


def _word_cap(max_words: Optional[int]) -> int:
    if max_words is not None:
        return max_words
    env = os.environ.get("HYPSPEC_MAX_WORDS")
    return int(env) if env else _DEFAULT_WORD_CAP


def _blocks(n: int):
    """Row slices of at most _CHUNK rows, except that a one-row remainder
    joins the block before it.  A one-row operand takes another BLAS path
    (dot or gemv instead of gemv or gemm) with other rounding, so blocks
    have two rows or more whenever the whole array does, and a blocked
    product or distance equals the unblocked one bit for bit."""
    start = 0
    while start < n:
        stop = start + _CHUNK
        if stop >= n - 1:
            stop = n
        yield slice(start, stop)
        start = stop


def _runs(shells: list[np.ndarray]):
    """The shells' distances, in order, in arrays of about _CHUNK values:
    small shells are joined and large ones cut, so a pass with a fixed
    cost per call pays it per block rather than per shell, and no copy
    of the whole sample is made."""
    parts, size = [], 0
    for d in shells:
        for rows in _blocks(len(d)):
            parts.append(d[rows])
            size += len(parts[-1])
            if size >= _CHUNK:
                yield np.concatenate(parts)
                parts, size = [], 0
    if parts:
        yield np.concatenate(parts)


def _shell_distances(model: QuadricModel, pts: np.ndarray, base: np.ndarray, out: np.ndarray) -> None:
    """Distances of pts from base, written into out block by block, so the
    cosh and acosh temporaries stay at _CHUNK rows."""
    for rows in _blocks(len(pts)):
        out[rows] = _stable_acosh(model.batch_cosh_distance(pts[rows], base))


def _extend_free(
    model: QuadricModel,
    letters_t: list[np.ndarray],
    prev_pts: np.ndarray,
    base: np.ndarray,
    size: int,
    keep: bool,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Distances of the next level under free reduction, and its points
    if keep is set.

    Past the base point a level is m runs of equal length, one per last
    letter, so the words that letter li may extend are the previous
    level without the run of its inverse li ^ 1.  They are multiplied
    block by block, in letter-major order, into a kept level's one
    array of known size; otherwise each block's products become
    distances at once and no point of the level is stored.  letters_t
    holds the letters' transposes as contiguous arrays, so each block
    product is one BLAS gemm; a block that lies on one side of the
    skipped run is a view of the previous level, not a copy.
    """
    n = len(prev_pts)
    run = n // len(letters_t)  # 0 at the base point: nothing to skip
    dists = np.empty(size)
    pts = np.empty((size, prev_pts.shape[1]), dtype=prev_pts.dtype) if keep else None
    off = 0
    for li, g_t in enumerate(letters_t):
        skip = (li ^ 1) * run
        for rows in _blocks(n - run):
            lo, hi = rows.start, rows.stop
            if hi <= skip:
                block = prev_pts[lo:hi]
            elif lo >= skip:
                block = prev_pts[lo + run:hi + run]
            else:
                block = np.concatenate((prev_pts[lo:skip], prev_pts[skip + run:hi + run]))
            out = slice(off + lo, off + hi)
            if keep:
                np.matmul(block, g_t, out=pts[out])
            else:
                dists[out] = _stable_acosh(model.batch_cosh_distance(block @ g_t, base))
        off += n - run
    if keep:
        _shell_distances(model, pts, base, dists)
    return dists, pts


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
        keys = _quantize(new_mats)
        keep = []
        for idx in range(new_mats.shape[0]):
            key = keys[idx].tobytes()
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
    level by level.  Within the free-reduction policy only point orbits
    are tracked: each kept level is written into one array of its known
    size, a final level larger than one block is never stored (each
    block of its products becomes distances at once), and distances are
    computed in blocks of _CHUNK rows, each block multiplied by a
    letter's contiguous transpose in one BLAS gemm.  At the
    punctured-torus cap of ~10^7 words the peak is the second-to-last
    level's points plus the distances.
    Under free reduction level l has exactly m (m-1)^(l-1) words for m
    letters, so the word cap is checked once, before anything is built;
    under matrix hashing it is checked after each level.  OrbitOverflow
    is raised at the first word length whose distances are not finite.
    """
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    model = gens.model
    base_pt = model.normalize(model.origin() if base is None else model.read(base, "base point"))
    letters = [g for pair in zip(gens.matrices, gens.inverses()) for g in pair]
    letters_t = [np.ascontiguousarray(g.T) for g in letters]
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
        seen = {_quantize(prev_mats)[0].tobytes()}
        prev_letter = np.array([-1], dtype=np.int8)
    prev_pts = base_pt[None, :]

    for level in range(1, max_len + 1):
        if dedup:
            prev_mats, prev_letter = _extend_hashed(letters, prev_mats, prev_letter, seen)
            if not len(prev_letter):
                break
            prev_pts = prev_mats @ base_pt
            total += len(prev_letter)
            if total > cap:
                raise blowup
            d = np.empty(len(prev_letter))
            _shell_distances(model, prev_pts, base_pt, d)
        else:
            if not sizes[level - 1]:
                break  # no generators: the orbit is the base point
            # a final level that fits in one block is kept as well, so its
            # distances come from one pass over it, never from one-row blocks
            d, prev_pts = _extend_free(
                model, letters_t, prev_pts, base_pt, sizes[level - 1],
                keep=level < max_len or sizes[level - 1] <= _CHUNK,
            )
            total += len(d)
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


def _shell_sum(d: np.ndarray, shift: float, s: float) -> tuple[float, float]:
    """sum exp(-s (d - shift)) over one shell and the same terms' dot
    with d, in one pass per block of _blocks(len(d)) through one reused
    buffer, so no temporary the size of the shell is made.  Each block
    is subtracted, scaled, exponentiated, summed and dotted in that
    order, so a shell of one block gives the bits of the same steps on
    the whole array."""
    buf = np.empty(min(len(d), _CHUNK + 1))
    total = dot = 0.0
    for rows in _blocks(len(d)):
        part = d[rows]
        w = buf[:len(part)]
        np.subtract(part, shift, out=w)
        w *= -s
        np.exp(w, out=w)
        total += float(w.sum())
        dot += float(w @ part)
    return total, dot


def poincare_partial_sum(sample: OrbitSample, s: float) -> float:
    """Partial sum of exp(-s d) over the recorded orbit (identity included)."""
    return float(sum(_shell_sum(d, 0.0, s)[0] for d in sample.distances_by_length))


def shell_sums(sample: OrbitSample, s: float) -> np.ndarray:
    """Partial sums per word length, for tail-ratio diagnostics."""
    return np.asarray([_shell_sum(d, 0.0, s)[0] for d in sample.distances_by_length])


@dataclass(frozen=True)
class DeltaEstimate:
    growth_fit: float
    bisection: float
    spread: float


def _log_shell_sum(d: np.ndarray, d_min: float, s: float) -> tuple[float, float]:
    """log sum exp(-s d) over one shell, and the exp(-s d)-weighted mean
    distance, which is minus its derivative in s.  Shifted by the shell's
    smallest distance, so no term overflows or underflows to zero."""
    total, dot = _shell_sum(d, d_min, s)
    return -s * d_min + math.log(total), dot / total


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


def estimate_delta(sample: OrbitSample) -> DeltaEstimate:
    """Two truncation-biased estimators of the critical exponent.

    growth_fit: least-squares slope of log N(R) over a window of the
    *effectively complete* radius range.  A word-length ball only counts
    every orbit point out to roughly the smallest distance reached by
    the final word-length shell (beyond it, longer words would still
    contribute: severe for groups with parabolic elements), so the fit
    window is taken as fractions of that completeness radius:
    _FIT_WINDOW = (0.5, 1.0) keeps the outer half of it, away from
    small-R transients.
    bisection: abscissa where the geometric-tail model of the partial
    sums switches between convergence and divergence.  The last
    word-length shells T_l(s) = sum exp(-s d) are modelled as a
    geometric series whose ratio is the geometric mean of the last
    k <= 4 shell ratios; that mean telescopes to (T_last / T_(last-k))^(1/k),
    so only two shells enter.  The root of log T_last - log T_(last-k)
    is bracketed as before and found by a Newton iteration safeguarded
    by bisection, with the derivative -(<d>_last - <d>_(last-k)) from the
    same pass.  (The field keeps its name: it is the CLI's key.)
    Each pass streams a shell through blocks of at most _CHUNK + 1
    distances in one reused buffer (_shell_sum), so beyond the sample
    the sums hold about half a megabyte, whatever the shell's size.  At
    s = 0 every term is 1 and log T_last - log T_(last-k) is
    log N_last - log N_(last-k) exactly; that end of the bracket takes
    no pass unless the two shells have equal size and the sign of the
    derivative decides.
    """
    shells = sample.distances_by_length
    ends = np.array([(d.min(), d.max()) for d in shells])
    rounded = np.round(ends, 12)
    n_radii = len(np.unique(rounded))
    if n_radii == 2:
        # rounding is monotone, so a third radius can only lie strictly
        # inside a shell whose ends round to the two radii found
        first, last = rounded.min(), rounded.max()
        inner = (np.round(d, 12) for d, (a, b) in zip(shells, rounded) if a != b)
        n_radii += any(((r > first) & (r < last)).any() for r in inner)
    if n_radii < 3:
        raise DegenerateFit("need at least three distinct radii")
    r_complete = float(ends[-1, 0])
    if r_complete <= 0:
        r_complete = float(ends.max())
    lo, hi = _FIT_WINDOW[0] * r_complete, _FIT_WINDOW[1] * r_complete
    grid = np.linspace(lo, hi, 64)
    counts = sample.count_by_radius(grid)
    good = counts > 0
    if good.sum() < 2:
        raise DegenerateFit("window too small for the growth fit")
    growth = float(np.polyfit(grid[good], np.log(counts[good]), 1)[0])

    if len(shells) < 3:  # the identity shell and two word-length shells
        raise DegenerateFit("need at least two word-length shells")
    k = min(_TAIL_SHELLS, len(shells) - 2)
    top, bottom = shells[-1], shells[-1 - k]
    top_min, bottom_min = float(ends[-1, 0]), float(ends[-1 - k, 0])

    def tail_log_ratio(s: float) -> tuple[float, float]:
        # k times the log of the tail ratio, and its derivative in s
        log_top, mean_top = _log_shell_sum(top, top_min, s)
        log_bottom, mean_bottom = _log_shell_sum(bottom, bottom_min, s)
        return log_top - log_bottom, mean_bottom - mean_top

    s_lo, s_hi = 0.0, max(1.0, 2.0 * abs(growth))
    # every term is 1 at s = 0: the pass would return these bits exactly
    f_lo = math.log(len(top)) - math.log(len(bottom))
    if f_lo < 0.0 or (f_lo == 0.0 and tail_log_ratio(s_lo)[1] < 0.0):
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
    one array pass (green0_eval_many) per run of about _CHUNK distances
    of consecutive shells."""
    if space.field is not sample.model.field or space.n != sample.model.n:
        raise DomainError(
            f"space {space} does not match the sample's model "
            f"({sample.model.field.value}, n={sample.model.n})"
        )
    if s <= 0:
        raise DomainError("the comparison requires real s > 0")
    total = 0.0
    for d in _runs(sample.distances_by_length):
        d = d[d > 1e-12]
        if len(d):
            total += float(green0_eval_many(space, s, d).real.sum())
    return total


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
    """The free rank-2 lattice Gamma(2) in SO(2,1), generated by the
    images of [[1, 2], [0, 1]] and [[1, 0], [2, 1]].

    Despite the name, the quotient surface is the thrice-punctured
    sphere: finite covolume, three cusps, critical exponent delta = 1.
    It shares the free fundamental group of rank 2 with the once-punctured
    torus, whose name the function keeps.
    """
    A = sl2_to_so21(np.array([[1.0, 2.0], [0.0, 1.0]]))
    B = sl2_to_so21(np.array([[1.0, 0.0], [2.0, 1.0]]))
    return GroupGenerators(RealHyperboloid(2), (A, B), ("a", "b"))


_MODEL_TYPES = {"real_hyperboloid": RealHyperboloid, "complex_projective": ComplexProjective}


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
    Matrix entries are numbers, decimal strings, or {"re":..., "im":...};
    the model reads them (QuadricModel.read), so every entry must be
    finite and a real model rejects imaginary parts.  A file that is
    not JSON or does not follow the schema raises DomainError.
    """
    try:
        with open(path) as f:
            spec = json.load(f)
        mtype = spec["model"]["type"]
        if mtype not in _MODEL_TYPES:
            raise DomainError(f"unknown model type {mtype!r}")
        model = _MODEL_TYPES[mtype](int(spec["model"]["n"]))
        gens = spec["generators"]
        mats = [[[_parse_entry(v) for v in row] for row in g["matrix"]] for g in gens]
        labels = [str(g.get("label", f"g{i}")) for i, g in enumerate(gens)]
        base = None
        if "base_point" in spec:
            base = model.read([_parse_entry(v) for v in spec["base_point"]], "base point")
    except KeyError as exc:
        raise DomainError(f"group file missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # a value of the wrong kind
        raise DomainError(f"malformed group file: {exc}") from exc
    return GroupGenerators(model, tuple(mats), tuple(labels)), base
