import json
import math
import tracemalloc

import numpy as np
import pytest

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
from hypspec.green import green0_eval
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
    # each level is written into one array of its known size
    level_12_bytes = 4 * 3 ** 11 * 3 * 8
    tracemalloc.start()
    try:
        sample = enumerate_orbit(punctured_torus_group(), max_len=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sample.distances_by_length[-1]) == 4 * 3 ** 11
    assert peak <= 3 * level_12_bytes


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
    sample = enumerate_orbit(punctured_torus_group(), max_len=12)
    est = estimate_delta(sample)
    assert est.growth_fit == pytest.approx(1.0, abs=0.15)
    assert est.bisection == pytest.approx(1.0, abs=0.15)


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


@pytest.mark.parametrize(
    "gens, max_len",
    [(punctured_torus_group(), 10)]
    + [(schottky_pair(ell), 9) for ell in (4.0, 6.0, 8.0)]
    + [(cyclic_group(n, 3.0), 40) for n in (2, 3, 4)],
)
def test_estimate_delta_matches_reference_bisection(gens, max_len):
    sample = enumerate_orbit(gens, max_len=max_len)
    est = estimate_delta(sample)
    assert abs(est.bisection - reference_bisection(sample, est.growth_fit)) <= 1e-12


def test_estimate_delta_degenerate():
    sample = enumerate_orbit(cyclic_group(2, 2.0), max_len=1)
    with pytest.raises(DegenerateFit):
        estimate_delta(sample)


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
    sample._sorted = None
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
