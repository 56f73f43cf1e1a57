import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from hypspec import orbits
from hypspec.errors import (
    CombinatorialBlowup,
    DegenerateFit,
    DomainError,
    NumericalError,
    OrbitOverflow,
)
from hypspec.orbits import (
    ComplexProjective,
    DedupPolicy,
    GroupGenerators,
    RealHyperboloid,
    boost_matrix,
    cyclic_group,
    distance,
    enumerate_orbit,
    estimate_delta,
    load_group_file,
    poincare_partial_sum,
    pullback_green_partial_sum,
    punctured_torus_group,
    schottky_pair,
    shell_sums,
    sl2_to_so21,
)
from hypspec.green import green0_eval, green0_eval_many
from hypspec.spaces import Field, make_space


# ------------------------------------------------------------------ distance


def test_distance_coincident_points():
    m = RealHyperboloid(2)
    assert distance(m, (0, 0, 1), (0, 0, 1)) == 0


def test_distance_boost_example():
    m = RealHyperboloid(2)
    x = (0.0, 0.0, 1.0)
    y = (math.sinh(1.0), 0.0, math.cosh(1.0))
    assert distance(m, x, y) == pytest.approx(1.0, abs=1e-12)


def test_distance_complex_boost_parametrizes_arclength():
    # one-parameter subgroup moves the base point at unit speed for the
    # curvature -4 normalization
    m = ComplexProjective(1)
    base = (0.0, 1.0)
    for t in [0.25, 1.0, 3.0]:
        pt = (math.sinh(t), math.cosh(t))
        assert distance(m, base, pt) == pytest.approx(t, abs=1e-12)


def test_distance_rejects_bad_points():
    m = RealHyperboloid(2)
    with pytest.raises(DomainError):
        distance(m, (1.0, 0.0, 0.0), (0, 0, 1))  # positive vector


def test_distance_isometry_invariance():
    m = RealHyperboloid(3)
    gens = GroupGenerators(
        m, (boost_matrix(3, 0.7, axis=0), boost_matrix(3, 1.1, axis=2)), ("a", "b")
    )
    rng = np.random.default_rng(7)
    for g in gens.matrices + gens.inverses():
        for _ in range(5):
            v = rng.normal(size=4)
            v[-1] = math.sqrt(1.0 + np.dot(v[:-1], v[:-1])) * 1.5
            w = rng.normal(size=4)
            w[-1] = math.sqrt(1.0 + np.dot(w[:-1], w[:-1])) * 2.0
            d0 = distance(m, v, w)
            d1 = distance(m, g @ v, g @ w)
            assert abs(d0 - d1) < 1e-9


def test_generator_form_validation():
    m = RealHyperboloid(2)
    bad = np.eye(3)
    bad[0, 0] = 2.0
    with pytest.raises(DomainError):
        GroupGenerators(m, (bad,), ("a",))


def test_models_share_one_base():
    real, cplx = RealHyperboloid(3), ComplexProjective(3)
    assert isinstance(real, orbits.QuadricModel) and isinstance(cplx, orbits.QuadricModel)
    assert repr(real) == "RealHyperboloid(n=3)" and repr(cplx) == "ComplexProjective(n=3)"
    assert real != cplx and real == RealHyperboloid(3)
    assert (real.field, cplx.field) == (Field.REAL, Field.COMPLEX)
    for m in (real, cplx):
        assert m.ambient_dim == 4
        assert m.form_matrix().dtype == m.origin().dtype == m.dtype
        assert np.array_equal(m.form_matrix(), np.diag([1.0, 1.0, 1.0, -1.0]))
        assert np.array_equal(m.origin(), [0, 0, 0, 1])


def test_read_returns_a_new_array_of_the_model_dtype():
    g = boost_matrix(2, 1.0)
    for m, value in [(RealHyperboloid(2), g.astype(complex)),
                     (RealHyperboloid(2), g.tolist()),
                     (ComplexProjective(2), g)]:
        x = m.read(value, "generator", ndim=2)
        assert x.dtype == m.dtype and np.array_equal(x, g)
        assert x is not value and x.flags.c_contiguous
    assert ComplexProjective(2).read([0, 0, 1], "point").dtype == np.complex128


NAN_BOOST = boost_matrix(2, 1.0)
NAN_BOOST[0, 1] = math.nan


@pytest.mark.parametrize("model, matrix, labels, message", [
    # preserves the form, but a real model once cast it to zero
    (RealHyperboloid(2), np.diag([1j, 1j, 1j]), ("a",), "imaginary part"),
    # NaN passed a bare err > tol test
    (RealHyperboloid(2), NAN_BOOST, ("a",), "not finite"),
    (ComplexProjective(2), NAN_BOOST, ("a",), "not finite"),
    (RealHyperboloid(2), np.full((3, 3), np.inf), ("a",), "not finite"),
    (RealHyperboloid(2), np.array([["1", "0", "0"]] * 3), ("a",), "not numbers"),
    (RealHyperboloid(2), [[1, 0], [0, 1, 0]], ("a",), "not an array"),
    # the (n+1)^2 form matrix is never built for a wrong shape
    (RealHyperboloid(10 ** 9), np.eye(2), ("a",), "shape"),
    (RealHyperboloid(2), boost_matrix(2, 1.0), (), "labels"),
    # entries whose squares overflow
    (RealHyperboloid(2), boost_matrix(2, 1.0) * 1e200, ("a",), "preserve the form"),
])
def test_generators_rejected(model, matrix, labels, message):
    with pytest.raises(DomainError, match=message):
        GroupGenerators(model, (matrix,), labels)


@pytest.mark.parametrize("model, point, message", [
    (RealHyperboloid(2), [0, 0, 1 + 5j], "imaginary part"),
    (RealHyperboloid(2), [0, math.nan, 1], "not finite"),
    (ComplexProjective(1), [complex(0, math.inf), 1], "not finite"),
    (RealHyperboloid(2), [0, 1], "shape"),
])
def test_points_rejected(model, point, message):
    with pytest.raises(DomainError, match=message):
        enumerate_orbit(GroupGenerators(model, (), ()), base=point, max_len=2)
    with pytest.raises(DomainError, match=message):
        distance(model, point, model.origin())


def test_normalize_rejects_nan_and_an_overflowed_form():
    # NaN passed a bare q >= 0 test; q = -inf scaled the point to zero
    for m in (RealHyperboloid(2), ComplexProjective(2)):
        with pytest.raises(DomainError, match="negative"):
            m.normalize(np.array([math.nan, 0.0, 1.0], dtype=m.dtype))
    with pytest.raises(DomainError, match="negative"):
        enumerate_orbit(cyclic_group(2, 1.0), base=[0, 0, 1e200], max_len=2)


# --------------------------------------------------------------- enumeration


def test_cyclic_enumeration_exact_distances():
    ell = 2.5
    sample = enumerate_orbit(cyclic_group(2, ell), max_len=6)
    expected = sorted([0.0] + [k * ell for k in range(1, 7) for _ in range(2)])
    assert np.allclose(sample.distances, expected, atol=1e-9)
    assert sample.n_words == 13


def test_free_group_word_counts():
    sample = enumerate_orbit(schottky_pair(4.0), max_len=5)
    counts = [len(d) for d in sample.distances_by_length]
    assert counts == [1] + [4 * 3 ** (k - 1) for k in range(1, 6)]


def test_no_generators_orbit_is_the_base_point():
    sample = enumerate_orbit(GroupGenerators(RealHyperboloid(2), (), ()), max_len=3)
    assert sample.n_words == 1 and len(sample.distances_by_length) == 1


def test_count_by_radius_monotone():
    sample = enumerate_orbit(schottky_pair(4.0), max_len=5)
    grid = np.linspace(0, sample.distances[-1], 50)
    counts = sample.count_by_radius(grid)
    assert np.all(np.diff(counts) >= 0)
    assert counts[-1] == sample.n_words


def test_count_by_radius_matches_sorted_search():
    sample = enumerate_orbit(punctured_torus_group(), max_len=6)
    flat = np.sort(np.concatenate(sample.distances_by_length))
    rng = np.random.default_rng(11)
    # exact orbit distances (each taken by several words) and radii between
    R = np.concatenate([rng.choice(flat, 30), rng.uniform(-1.0, flat[-1] + 1.0, 30),
                        [0.0, flat[-1]]])
    rng.shuffle(R)
    assert np.array_equal(sample.count_by_radius(R), np.searchsorted(flat, R, side="right"))
    grid = R.reshape(2, 31)
    assert np.array_equal(sample.count_by_radius(grid),
                          np.searchsorted(flat, grid, side="right"))
    assert sample.count_by_radius(float(flat[5])) == np.searchsorted(flat, flat[5], "right")


def test_enumeration_deterministic():
    a = enumerate_orbit(punctured_torus_group(), max_len=6)
    b = enumerate_orbit(punctured_torus_group(), max_len=6)
    for da, db in zip(a.distances_by_length, b.distances_by_length):
        assert np.array_equal(da, db)


def test_word_cap_guard():
    with pytest.raises(CombinatorialBlowup):
        enumerate_orbit(schottky_pair(4.0), max_len=10, max_words=1000)


@pytest.mark.parametrize("policy", list(DedupPolicy))
def test_word_cap_is_exact(policy):
    # 1 + 4 + 12 + 36 + 108 freely reduced words of length <= 4 in two generators
    gens = punctured_torus_group()
    assert enumerate_orbit(gens, max_len=4, dedup_policy=policy, max_words=161).n_words == 161
    with pytest.raises(CombinatorialBlowup, match="cap of 160 words"):
        enumerate_orbit(gens, max_len=4, dedup_policy=policy, max_words=160)


def test_word_cap_checked_before_building_the_level():
    # under free reduction the level past the cap is never allocated
    gens = punctured_torus_group()
    through_11 = 1 + sum(4 * 3 ** (k - 1) for k in range(1, 12))
    level_12_bytes = 4 * 3 ** 11 * 3 * 8
    tracemalloc.start()
    try:
        with pytest.raises(CombinatorialBlowup):
            enumerate_orbit(gens, max_len=12, max_words=through_11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * level_12_bytes


def test_over_default_cap_raises_before_any_level(monkeypatch):
    # 1 + sum 4 * 3^(l-1) for l <= 15 is about 2.9e7 words, over the 2e7 default
    monkeypatch.delenv("HYPSPEC_MAX_WORDS", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(CombinatorialBlowup, match="cap of 20000000 words"):
            enumerate_orbit(punctured_torus_group(), max_len=15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_huge_max_len_raises_at_once():
    with pytest.raises(CombinatorialBlowup):
        enumerate_orbit(schottky_pair(4.0), max_len=10 ** 6, max_words=1000)


def test_enumeration_peak_memory():
    # kept levels are written into one array of their known size and the
    # final level's points are never stored: the peak is the level-11
    # points, the distances and one block of temporaries
    level_12_bytes = 4 * 3 ** 11 * 3 * 8
    tracemalloc.start()
    try:
        sample = enumerate_orbit(punctured_torus_group(), max_len=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sample.distances_by_length[-1]) == 4 * 3 ** 11
    assert peak <= 1.25 * level_12_bytes


def test_estimate_delta_peak_memory():
    # counting runs shell by shell and the tail sums block by block: no
    # sorted copy of the sample and no temporary the size of the last shell
    sample = enumerate_orbit(punctured_torus_group(), max_len=12)
    last_shell_bytes = sample.distances_by_length[-1].nbytes
    tracemalloc.start()
    try:
        estimate_delta(sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * last_shell_bytes


def unchunked_distances(gens, max_len, base=None):
    """Free-reduction enumeration as first written: each level's points in
    one array, its distances in one pass over it, no blocks.  Products
    are taken with contiguous transposes (BLAS gemm), as enumerate_orbit
    takes them: on a transposed view numpy runs another loop, whose
    rounding differs by an ulp for generators without zero entries."""
    model = gens.model
    base_pt = model.normalize(model.read(base, "base") if base is not None else model.origin())
    letters = [g for pair in zip(gens.matrices, gens.inverses()) for g in pair]
    pts, last = base_pt[None, :], np.array([-1], dtype=np.int8)
    dists = [np.zeros(1)]
    for _ in range(max_len):
        parts, last_parts = [], []
        for li, g in enumerate(letters):
            mask = last != (li ^ 1)
            parts.append(pts[mask] @ np.ascontiguousarray(g.T))
            last_parts.append(np.full(np.count_nonzero(mask), li, dtype=np.int8))
        pts, last = np.concatenate(parts), np.concatenate(last_parts)
        dists.append(orbits._stable_acosh(model.batch_cosh_distance(pts, base_pt)))
    return dists


def complex_pair():
    # a translation and a boost composed with a phase, in complex H^2
    m = ComplexProjective(2)
    g = np.eye(3, dtype=complex)
    g[0, 0] = g[2, 2] = math.cosh(1.2)
    g[0, 2] = g[2, 0] = math.sinh(1.2)
    h = np.eye(3, dtype=complex)
    h[1, 1] = h[2, 2] = math.cosh(0.9)
    h[1, 2] = h[2, 1] = math.sinh(0.9)
    h[0, 0] = np.exp(0.3j)
    return GroupGenerators(m, (g, h), ("a", "b"))


def dense_translation():
    # one translation along a generic axis: no zero entries, so every
    # product rounds, and each level has two points
    m = RealHyperboloid(3)
    c, s = math.cos(0.7), math.sin(0.7)
    rot = np.eye(4)
    rot[:2, :2] = [[c, -s], [s, c]]
    h = rot @ boost_matrix(3, 0.9, axis=1) @ boost_matrix(3, 0.4)
    return GroupGenerators(m, (h @ boost_matrix(3, 1.3) @ np.linalg.inv(h),), ("a",))


@pytest.mark.parametrize("chunk", [7, orbits._CHUNK])
@pytest.mark.parametrize(
    "gens, max_len, base",
    [
        (punctured_torus_group(), 7, None),
        (schottky_pair(4.0), 6, None),
        (cyclic_group(3, 3.0), 20, None),
        (cyclic_group(2, 3.0), 12, [0.5, 0.0, math.sqrt(1.25)]),
        (dense_translation(), 12, [0.3, -0.2, 0.1, math.sqrt(1.14)]),
        (complex_pair(), 6, None),
    ],
)
def test_chunking_is_invisible(monkeypatch, chunk, gens, max_len, base):
    # a small odd block size puts block edges inside every letter's run
    monkeypatch.setattr(orbits, "_CHUNK", chunk)
    sample = enumerate_orbit(gens, base=base, max_len=max_len)
    ref = unchunked_distances(gens, max_len, base)
    assert len(sample.distances_by_length) == len(ref)
    for got, want in zip(sample.distances_by_length, ref):
        assert np.array_equal(got, want)
    assert sample.n_words == sum(len(d) for d in ref)


def test_overflowing_orbit_structured_error():
    # cosh(3 k) leaves double precision at k = 237
    assert issubclass(OrbitOverflow, NumericalError)
    with pytest.raises(OrbitOverflow, match="word length 237"):
        estimate_delta(enumerate_orbit(cyclic_group(3, 3.0), max_len=400))
    sample = enumerate_orbit(cyclic_group(3, 3.0), max_len=236)
    assert sample.distances[-1] == pytest.approx(708.0, rel=1e-12)


def test_inverse_symmetry_of_sample():
    # the multiset of distances is symmetric under word inversion
    gens = punctured_torus_group()
    sample = enumerate_orbit(gens, max_len=4)
    A, B = gens.matrices
    Ai, Bi = gens.inverses()
    base = sample.base_point
    m = gens.model
    for word, inverse in [((A, B), (Bi, Ai)), ((A, Bi, A), (Ai, B, Ai))]:
        pt1, pt2 = base.copy(), base.copy()
        for g in reversed(word):
            pt1 = g @ pt1
        for g in reversed(inverse):
            pt2 = g @ pt2
        assert distance(m, pt1, base) == pytest.approx(distance(m, pt2, base), abs=1e-9)


def test_matrix_hash_dedup_collapses_relations():
    # order-4 rotation: free enumeration overcounts, dedup recovers the
    # 4-element group orbit
    m = RealHyperboloid(2)
    c, s = math.cos(math.pi / 2), math.sin(math.pi / 2)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    gens = GroupGenerators(m, (rot,), ("r",))
    base = np.array([math.sinh(1.0), 0.0, math.cosh(1.0)])
    free = enumerate_orbit(gens, base=base, max_len=8)
    assert free.n_words == 17
    dd = enumerate_orbit(gens, base=base, max_len=8, dedup_policy=DedupPolicy.MATRIX_HASH)
    assert dd.n_words == 4


# ------------------------------------------------------------- partial sums


def test_poincare_identity_only():
    sample = enumerate_orbit(cyclic_group(2, 3.0), max_len=1)
    # identity contributes 1, the two length-1 words e^{-3s}
    s = 0.7
    assert poincare_partial_sum(sample, s) == pytest.approx(1 + 2 * math.exp(-3 * s))


def test_poincare_cyclic_geometric():
    ell, m = 1.5, 10
    sample = enumerate_orbit(cyclic_group(2, ell), max_len=m)
    for s in [0.5, 1.0]:
        expected = 1 + 2 * sum(math.exp(-s * k * ell) for k in range(1, m + 1))
        assert poincare_partial_sum(sample, s) == pytest.approx(expected, rel=1e-12)


def test_poincare_monotone_in_s():
    sample = enumerate_orbit(schottky_pair(4.0), max_len=6)
    values = [poincare_partial_sum(sample, s) for s in np.linspace(0.1, 2.0, 8)]
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))


def test_shell_sums_shape():
    sample = enumerate_orbit(schottky_pair(4.0), max_len=5)
    T = shell_sums(sample, 0.3)
    assert len(T) == 6 and T[0] == 1.0


# ---------------------------------------------------------------- estimators


def test_estimate_delta_cyclic_small():
    sample = enumerate_orbit(cyclic_group(3, 3.0), max_len=40)
    est = estimate_delta(sample)
    assert est.growth_fit <= 0.05
    assert est.bisection <= 0.05


def test_estimate_delta_punctured_torus():
    # Gamma(2) has delta = 1; at L = 14 the tail sums of the 6.4e6-distance
    # top shell run over about 100 blocks
    sample = enumerate_orbit(punctured_torus_group(), max_len=14)
    est = estimate_delta(sample)
    assert abs(est.bisection - 1.0) <= 0.03
    assert abs(est.growth_fit - 1.0) <= 0.02


def test_estimate_delta_schottky_separation():
    previous = None
    for ell in [4.0, 6.0, 8.0]:
        sample = enumerate_orbit(schottky_pair(ell), max_len=9)
        est = estimate_delta(sample)
        assert est.spread < 0.05
        if previous is not None:
            assert est.growth_fit < previous
        previous = est.growth_fit
        # brute-force oracle: re-enumerate deeper; estimate stable
        deeper = estimate_delta(enumerate_orbit(schottky_pair(ell), max_len=11))
        assert deeper.bisection == pytest.approx(est.bisection, abs=0.02)


def test_estimate_delta_range_sanity():
    for gens, ml in [(cyclic_group(2, 2.0), 20), (punctured_torus_group(), 10)]:
        sample = enumerate_orbit(gens, max_len=ml)
        est = estimate_delta(sample)
        two_rho = gens.model.n - 1  # real field: 2 rho = n - 1
        assert -0.05 <= est.growth_fit <= two_rho + 0.1
        assert -0.05 <= est.bisection <= two_rho + 0.1


def reference_bisection(sample, growth):
    """The estimator as first written: 60 bisection steps on the geometric
    mean of the last four ratios of all shell sums, in the same bracket."""

    def tail_ratio(s):
        T = shell_sums(sample, s)[1:]
        ratios = T[1:] / T[:-1]
        return float(np.exp(np.mean(np.log(ratios[-4:]))))

    s_lo, s_hi = 0.0, max(1.0, 2.0 * abs(growth))
    if tail_ratio(s_lo) < 1.0:
        return 0.0
    while tail_ratio(s_hi) >= 1.0:
        s_hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (s_lo + s_hi)
        if tail_ratio(mid) >= 1.0:
            s_lo = mid
        else:
            s_hi = mid
    return 0.5 * (s_lo + s_hi)


_REFERENCE_CASES = (
    [(punctured_torus_group(), 10)]
    + [(schottky_pair(ell), 9) for ell in (4.0, 6.0, 8.0)]
    + [(cyclic_group(n, 3.0), 40) for n in (2, 3, 4)]
)


@pytest.mark.parametrize("gens, max_len", _REFERENCE_CASES)
def test_estimate_delta_matches_reference_bisection(gens, max_len):
    sample = enumerate_orbit(gens, max_len=max_len)
    est = estimate_delta(sample)
    assert abs(est.bisection - reference_bisection(sample, est.growth_fit)) <= 1e-12


@pytest.mark.parametrize("gens, max_len", _REFERENCE_CASES)
def test_blocked_tail_sums_match_reference_bisection(monkeypatch, gens, max_len):
    # at a block size of 7 every shell of more than 8 distances is summed
    # in several blocks (a cyclic group's shells of two stay whole)
    sample = enumerate_orbit(gens, max_len=max_len)
    monkeypatch.setattr(orbits, "_CHUNK", 7)
    est = estimate_delta(sample)
    monkeypatch.undo()
    assert abs(est.bisection - reference_bisection(sample, est.growth_fit)) <= 1e-12


def test_blocked_shell_sum_matches_one_pass(monkeypatch):
    # the weighted dot is read only as a Newton slope, so check it here
    d = enumerate_orbit(punctured_torus_group(), max_len=6).distances_by_length[-1]
    shift, s = float(d.min()), 0.8
    w = np.exp(-s * (d - shift))
    monkeypatch.setattr(orbits, "_CHUNK", 7)
    total, dot = orbits._shell_sum(d, shift, s)
    assert total == pytest.approx(w.sum(), rel=1e-14)
    assert dot == pytest.approx(w @ d, rel=1e-14)


def periodic_word_lengths(gens, max_m):
    """Translation lengths of the cyclically reduced words of each length
    m <= max_m, from traces: l(w) = arccosh((tr w - 1) / 2) in SO(2,1)."""
    letters = [g for pair in zip(gens.matrices, gens.inverses()) for g in pair]
    mats = np.array(letters)
    first = last = np.arange(len(letters))
    lengths = []
    for m in range(1, max_m + 1):
        if m > 1:
            keep = [last != (li ^ 1) for li in range(len(letters))]
            mats = np.concatenate([mats[k] @ g for k, g in zip(keep, letters)])
            first = np.concatenate([first[k] for k in keep])
            last = np.concatenate([np.full(np.count_nonzero(k), li) for li, k in enumerate(keep)])
        cyclic = last != (first ^ 1)
        lengths.append(np.arccosh((np.trace(mats[cyclic], axis1=1, axis2=2) - 1.0) / 2.0))
    return lengths


def periodic_word_delta(gens, max_m=10):
    """Critical exponent of a Fuchsian Schottky group from its periodic
    words (Jenkinson-Pollicott, Amer. J. Math. 124, 2002): the largest real
    zero in s of exp(-sum_m a_m(s) z^m / m) at z = 1, truncated as a power
    series in z at degree max_m, where a_m(s) sums
    exp(-s l(w)) / (1 - exp(-l(w))) over the cyclically reduced words of
    length m."""
    lengths = periodic_word_lengths(gens, max_m)

    def determinant(s):
        # log D = sum_m b_m z^m, and n c_n = sum_k k b_k c_(n-k) for D = sum c_n z^n
        b = [-np.sum(np.exp(-s * ell) / -np.expm1(-ell)) / m
             for m, ell in enumerate(lengths, start=1)]
        c = [1.0]
        for n in range(1, max_m + 1):
            c.append(sum(k * b[k - 1] * c[n - k] for k in range(1, n + 1)) / n)
        return sum(c)

    grid = np.linspace(0.0, 1.0, 101)
    below = [k for k, x in enumerate(grid) if determinant(x) < 0.0]
    return brentq(determinant, grid[below[-1]], grid[below[-1] + 1], xtol=1e-15)


def schottky_pair_at_angle(length, angle):
    """boost_matrix(2, length) and its conjugate by the rotation by angle
    about the base point: two translations whose axes meet there at that
    angle (schottky_pair at pi/2)."""
    a = boost_matrix(2, length)
    rot = np.eye(3)
    rot[:2, :2] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    return GroupGenerators(RealHyperboloid(2), (a, rot @ a @ rot.T), ("a", "b"))


# About 5x the worst |bisection - oracle| over these examples, 4.0e-9 at
# length 3 and angle pi/3, the slowest-converging corner; the other draws
# came within 4.1e-13.  (Kept out of the test body, whose source seeds the
# examples.)
PERIODIC_WORD_TOL = 2e-8


@settings(derandomize=True, max_examples=5, deadline=None)
@given(length=st.floats(3.0, 8.0), angle=st.floats(math.pi / 3, math.pi / 2))
def test_estimate_delta_matches_periodic_word_oracle(length, angle):
    # ping-pong holds: the four half-planes cut off at distance length / 2
    # along the axes each fill a visual angle 2 arccos(tanh(length / 2))
    # <= 0.89 at the base point, less than the angle between the axes
    gens = schottky_pair_at_angle(length, angle)
    est = estimate_delta(enumerate_orbit(gens, max_len=11))
    assert abs(est.bisection - periodic_word_delta(gens)) <= PERIODIC_WORD_TOL


def _conjugator(n, length, angle):
    # a boost along the first axis followed by a rotation in the first plane
    rot = np.eye(n + 1)
    if n >= 2:
        rot[:2, :2] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    return rot @ boost_matrix(n, length)


_CONJUGATION_CASES = {
    "torus": (punctured_torus_group(), 9),
    "schottky": (schottky_pair(5.0), 8),
    "cyclic": (cyclic_group(3, 3.0), 30),
}


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    case=st.sampled_from(sorted(_CONJUGATION_CASES)),
    length=st.floats(0.0, 2.0),
    angle=st.floats(0.0, 2 * math.pi),
)
def test_estimate_delta_conjugation_invariant(case, length, angle):
    # h Gamma h^-1 acting on h o has the orbit distances of Gamma on o;
    # only roundoff differs, and it can move a point across a bin edge of
    # the growth fit's 64 radii, but not the bisection root
    gens, max_len = _CONJUGATION_CASES[case]
    h = _conjugator(gens.model.n, length, angle)
    h_inv = np.linalg.inv(h)
    conj = GroupGenerators(gens.model, tuple(h @ g @ h_inv for g in gens.matrices),
                           gens.labels)
    ref = estimate_delta(enumerate_orbit(gens, max_len=max_len))
    est = estimate_delta(enumerate_orbit(conj, base=h @ gens.model.origin(), max_len=max_len))
    assert abs(est.bisection - ref.bisection) <= 1e-12
    assert abs(est.growth_fit - ref.growth_fit) <= 5e-3


@pytest.mark.parametrize("fn, lo, hi, x", [
    # start outside the bracket
    (lambda x: (1.0 - x, -1.0), 0.0, 3.0, 5.0),
    # a derivative of the wrong sign, or zero, gives no Newton step
    (lambda x: (1.0 - x, 0.0), 0.0, 3.0, 2.0),
    (lambda x: (1.0 - x, 1.0), 0.0, 3.0, 2.0),
    # from x = 8 the Newton step of -atan(x - 1) lands at -63
    (lambda x: (-math.atan(x - 1.0), -1.0 / (1.0 + (x - 1.0) ** 2)), -10.0, 10.0, 8.0),
])
def test_safeguarded_newton_bisects_outside_the_bracket(fn, lo, hi, x):
    seen = []

    def recording(x):
        seen.append(x)
        return fn(x)

    root = orbits._safeguarded_newton(recording, lo, hi, x)
    assert root == pytest.approx(1.0, abs=1e-12)
    assert all(lo < v < hi for v in seen)


def test_estimate_delta_degenerate():
    sample = enumerate_orbit(cyclic_group(2, 2.0), max_len=1)
    with pytest.raises(DegenerateFit):
        estimate_delta(sample)


def shell_sample(*shells):
    """An OrbitSample with the given distance shells, identity shell first."""
    m = RealHyperboloid(2)
    shells = [np.array(d, dtype=float) for d in shells]
    return orbits.OrbitSample(m, m.origin(), len(shells) - 1, DedupPolicy.FREE_REDUCTION,
                              shells, sum(map(len, shells)))


def test_estimate_delta_two_shells_are_too_few():
    # two generators of lengths 1 and 2 give three radii in two shells
    m = RealHyperboloid(2)
    gens = GroupGenerators(m, (boost_matrix(2, 1.0), boost_matrix(2, 2.0, axis=1)),
                           ("a", "b"))
    with pytest.raises(DegenerateFit, match="two word-length shells"):
        estimate_delta(enumerate_orbit(gens, max_len=1))


def test_estimate_delta_window_without_counts():
    # no distance below the completeness radius 1, which the window ends at
    with pytest.raises(DegenerateFit, match="window too small"):
        estimate_delta(shell_sample([2.0], [3.0], [1.0]))


def test_estimate_delta_doubles_the_bracket():
    # T_last / T_prev = 1000 e^-s, whose root log 1000 lies past the first
    # bracket end 2 * growth_fit ~ 1.13
    est = estimate_delta(shell_sample([0.0], [1.0], [2.0] * 1000))
    assert 2.0 * est.growth_fit < 3.0
    assert est.bisection == pytest.approx(math.log(1000.0), rel=1e-13)
    # T_last / T_prev = 2 + e^-s stays above 1 for every s
    with pytest.raises(DegenerateFit, match="never drops below 1"):
        estimate_delta(shell_sample([0.0], [1.0], [1.0, 1.0, 2.0]))


# --------------------------------------------------------- green pullback


def test_pullback_green_cyclic_oracle():
    ell = 2.0
    space = make_space(Field.REAL, 3)
    sample = enumerate_orbit(cyclic_group(3, ell), max_len=10)
    s = 1.0
    total = pullback_green_partial_sum(space, s, sample)
    expected = 2 * sum(
        math.exp(-s * k * ell) / (4 * math.pi * math.sinh(k * ell)) for k in range(1, 11)
    )
    assert total == pytest.approx(expected, rel=1e-10)


def test_pullback_green_comparable_to_poincare():
    space = make_space(Field.REAL, 3)
    rho = 1.0
    s = 1.0
    ratios = []
    for ml in [6, 8, 10]:
        sample = enumerate_orbit(cyclic_group(3, 2.0), max_len=ml)
        num = pullback_green_partial_sum(space, s, sample)
        den = sum(
            math.exp(-(s + rho) * d) for d in sample.distances if d > 1e-12
        )
        ratios.append(num / den)
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread < 0.05


@pytest.mark.parametrize(
    "space, gens, max_len, s",
    [
        # distances 0.1 .. 3: the 1/z, Pfaff and direct-series branches
        (make_space(Field.REAL, 3), cyclic_group(3, 0.1), 30, 1.0),
        (make_space(Field.REAL, 2), punctured_torus_group(), 6, 0.7),
        (make_space(Field.REAL, 2), schottky_pair(4.0), 6, 0.4),
        (make_space(Field.REAL, 4), cyclic_group(4, 0.25), 20, 1.6),
    ],
)
def test_pullback_green_matches_scalar_loop(space, gens, max_len, s):
    sample = enumerate_orbit(gens, max_len=max_len)
    ref = 0.0
    for d in sample.distances:
        if d > 1e-12:
            ref += green0_eval(space, s, float(d)).real
    total = pullback_green_partial_sum(space, s, sample)
    assert abs(total - ref) <= 1e-13 * abs(ref)


def test_pullback_green_joins_shells_into_runs(monkeypatch):
    # a block size of 7 joins the small shells and cuts the large ones
    monkeypatch.setattr(orbits, "_CHUNK", 7)
    calls = []

    def recording(space, s, d):
        calls.append(np.array(d))
        return green0_eval_many(space, s, d)

    space, s = make_space(Field.REAL, 2), 0.4
    sample = enumerate_orbit(schottky_pair(4.0), max_len=5)
    monkeypatch.setattr(orbits, "green0_eval_many", recording)
    total = pullback_green_partial_sum(space, s, sample)
    shells = sample.distances_by_length
    assert np.array_equal(np.concatenate(calls), np.concatenate(shells)[1:])
    # every run but the last holds 7 distances or more (the identity's 0
    # is dropped from the first), and none holds two blocks' worth
    assert len(calls) > 1
    assert all(len(d) >= 7 for d in calls[1:-1]) and len(calls[0]) >= 6
    assert all(len(d) <= 2 * 7 for d in calls)
    per_shell = sum(float(green0_eval_many(space, s, d[d > 1e-12]).real.sum())
                    for d in shells[1:])
    assert total == pytest.approx(per_shell, rel=1e-13)


def test_pullback_green_model_mismatch():
    sample = enumerate_orbit(cyclic_group(3, 2.0), max_len=3)
    with pytest.raises(DomainError):
        pullback_green_partial_sum(make_space(Field.REAL, 4), 1.0, sample)
    with pytest.raises(DomainError):
        pullback_green_partial_sum(make_space(Field.REAL, 3), -1.0, sample)


# ----------------------------------------------------------------- builders


def test_sl2_to_so21_preserves_form_and_distance():
    J = np.diag([1.0, 1.0, -1.0])
    for g in [np.array([[1.0, 2.0], [0.0, 1.0]]),
              np.array([[2.0, 0.0], [0.0, 0.5]]),
              np.array([[1.3, 0.7], [0.4, (1 + 0.7 * 0.4) / 1.3]])]:
        M = sl2_to_so21(g)
        assert np.allclose(M.T @ J @ M, J, atol=1e-12)
        # cosh distance of g.i to i equals ||g||_F^2 / 2
        base = np.array([0.0, 0.0, 1.0])
        coshd = -np.dot((M @ base)[:2], base[:2]) + (M @ base)[2] * base[2]
        assert coshd == pytest.approx(np.sum(g * g) / 2, abs=1e-12)


def test_punctured_torus_is_parabolic_at_infinity():
    gens = punctured_torus_group()
    A = gens.matrices[0]
    # a^k travels only logarithmically: cosh d = 1 + 2k^2
    base = gens.model.origin()
    pt = np.linalg.matrix_power(A, 5) @ base
    d = distance(gens.model, pt, base)
    assert d == pytest.approx(math.acosh(1 + 2 * 25), abs=1e-9)


# ---------------------------------------------------------------- group file


def test_load_group_file_roundtrip(tmp_path):
    doc = {
        "model": {"type": "real_hyperboloid", "n": 2},
        "generators": [
            {
                "label": "a",
                "matrix": [
                    [format(v, ".17g") for v in row] for row in boost_matrix(2, 1.5)
                ],
            }
        ],
        "base_point": ["0", "0", "1"],
    }
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    gens, base = load_group_file(str(path))
    assert gens.labels == ("a",)
    assert np.allclose(gens.matrices[0], boost_matrix(2, 1.5))
    assert np.allclose(base, [0, 0, 1])


def write_group(tmp_path, model_type, n, matrix, base=None):
    doc = {"model": {"type": model_type, "n": n},
           "generators": [{"label": "a", "matrix": matrix}]}
    if base is not None:
        doc["base_point"] = base
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    return str(path)


BOOST_TEXT = [[format(v, ".17g") for v in row] for row in boost_matrix(2, 1.5)]


@pytest.mark.parametrize("model_type, n, matrix, base, message", [
    # "nan" once ran into OrbitOverflow, and NaN passed |imag| > 0
    ("real_hyperboloid", 2, [["nan", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], None,
     "not finite"),
    ("real_hyperboloid", 2, [[{"re": 1, "im": math.nan}, 0, 0], [0, 1, 0], [0, 0, 1]],
     None, "not finite"),
    ("complex_projective", 2, [["inf", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], None,
     "not finite"),
    ("real_hyperboloid", 2, [[{"re": 1, "im": 1e-3}, 0, 0], [0, 1, 0], [0, 0, 1]], None,
     "imaginary part"),
    # the base point's imaginary part was once dropped
    ("real_hyperboloid", 2, BOOST_TEXT, [0, 0, {"re": 1, "im": 5}], "imaginary part"),
    ("real_hyperboloid", 2, BOOST_TEXT, ["0", "nan", "1"], "not finite"),
    # once asked for 6.94 EiB
    ("real_hyperboloid", 10 ** 9, [[1, 0], [0, 1]], None, "shape"),
])
def test_load_group_file_rejects_outside_values(tmp_path, model_type, n, matrix, base,
                                                 message):
    with pytest.raises(DomainError, match=message):
        load_group_file(write_group(tmp_path, model_type, n, matrix, base))


def test_load_group_file_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"type": "nope", "n": 2}, "generators": []}))
    with pytest.raises(DomainError):
        load_group_file(str(path))
    path.write_text(json.dumps({"generators": []}))
    with pytest.raises(DomainError):
        load_group_file(str(path))


def test_word_cap_from_environment(monkeypatch):
    monkeypatch.setenv("HYPSPEC_MAX_WORDS", "500")
    with pytest.raises(CombinatorialBlowup):
        enumerate_orbit(schottky_pair(4.0), max_len=8)
    monkeypatch.setenv("HYPSPEC_MAX_WORDS", "100000")
    enumerate_orbit(schottky_pair(4.0), max_len=8)


def test_pullback_green_identity_only_sample():
    space = make_space(Field.REAL, 3)
    sample = enumerate_orbit(cyclic_group(3, 2.0), max_len=1)
    sample.distances_by_length = [np.zeros(1)]  # strip to the identity
    assert pullback_green_partial_sum(space, 1.0, sample) == 0.0


def test_complex_model_enumeration():
    # cyclic translation in the complex-hyperbolic line: distances k * t
    m = ComplexProjective(1)
    t = 1.2
    g = np.array([[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]],
                 dtype=complex)
    gens = GroupGenerators(m, (g,), ("a",))
    sample = enumerate_orbit(gens, max_len=5)
    expected = sorted([0.0] + [k * t for k in range(1, 6) for _ in range(2)])
    assert np.allclose(sample.distances, expected, atol=1e-9)


def test_complex_group_file(tmp_path):
    t = 0.8
    doc = {
        "model": {"type": "complex_projective", "n": 1},
        "generators": [
            {"label": "a",
             "matrix": [
                 [{"re": math.cosh(t), "im": 0.0}, {"re": math.sinh(t), "im": 0.0}],
                 [{"re": math.sinh(t), "im": 0.0}, {"re": math.cosh(t), "im": 0.0}],
             ]}
        ],
    }
    path = tmp_path / "cgroup.json"
    path.write_text(json.dumps(doc))
    gens, base = load_group_file(str(path))
    assert isinstance(gens.model, ComplexProjective)
    sample = enumerate_orbit(gens, max_len=3)
    assert sample.distances[-1] == pytest.approx(3 * t, abs=1e-9)
