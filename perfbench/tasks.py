"""Seeded task lists for the four workloads, the code that runs each task,
and the correctness gate every task must pass.

Task generation uses only `random.Random(seed)` and closed-form facts
(no hypspec call), so the program under test receives only the
generated inputs.  The tolerances are the ones pinned by
tests/test_acceptance.py.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

# Pinned tolerances (tests/test_acceptance.py).
CLOSED_FORM_RTOL = 1e-10      # R^3 kernel against exp(-sr) / (4 pi sinh r)
GREEN_RESIDUAL_MAX = 1e-8     # scalar radial-equation residual
GREEN_DECAY_TOL = 1e-3        # far-field decay rate against s + rho
FORM_RESIDUAL_MAX = 1e-6      # form-valued radial-equation residual
FORM_DECAY_SLACK = 1e-2       # form decay >= rho + Re s - slack
FLIPPED_DECAY_TOL = 2e-2      # decay off the physical sheet against rho + h
PSI_EXPONENT_TOL = 0.02       # fitted singularity exponent against n - 2
P0_SCALAR_TOL = 1e-8          # p = 0 kernel against the scalar kernel
TORUS_DELTA_TOL = 0.15        # punctured torus critical exponent against 1
CYCLIC_DELTA_MAX = 0.05       # cyclic groups have critical exponent 0
COMPARABILITY_MAX = 0.05      # pullback / Poincare ratio variation

GREEN_SPACES = (("R", 2), ("R", 3), ("R", 4), ("R", 5), ("C", 2), ("C", 3), ("H", 2), ("H", 3),
                ("O", 2))
REPORT_CONFIGS = ((3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 2), (6, 3), (7, 3), (8, 3))
SCAN_CONFIGS = ((4, 1), (5, 1), (6, 1), (6, 2))
P0_DIMS = (3, 4, 5, 6)
# Group files for `hypspec delta`, with the word length each is enumerated to.
CLI_GROUP_FILES = (("perfbench/groups/schottky_l5.json", 9), ("perfbench/groups/cyclic_h3.json", 40))
FIELD_DIM = {"R": 1, "C": 2, "H": 4, "O": 8}
# Flipped-branch and report points are drawn this far (in the recursion
# divisor) from an exponent resonance, where the decay fit is ill-conditioned;
# resonances themselves are exercised by the scan tasks.
RESONANCE_CLEARANCE = 0.15


class GateMiss(Exception):
    """An answer outside the pinned tolerance."""


def gate(ok: bool, what: str) -> None:
    if not ok:
        raise GateMiss(what)


# --------------------------------------------------------------------------
# closed-form facts used by the generator and the gate

def rho(field: str, n: int) -> float:
    d = FIELD_DIM[field]
    return d * (n - 1) / 2 + d - 1


def e_values(n: int, p: int) -> list[int]:
    """Eigenvalues of the E element on Lambda^p(R^n): Lambda^p restricted
    to SO(n-1) is Lambda^p + Lambda^(p-1), with Casimirs q(n-1-q)."""
    cas = [q * (n - 1 - q) for q in (p, p - 1) if 0 <= q <= n - 1]
    return sorted({max(cas) - c for c in cas})


def resonant_s(n: int, p: int) -> float:
    """Smallest s > 0 with an integer exponent gap sqrt(s^2 + e) - s = 1."""
    e = max(e_values(n, p))
    return (e - 1) / 2


def resonance_distance(s: complex, evals: list[int], flipped: bool, levels: int = 40) -> float:
    mus = [s if e == 0 else (-1 if flipped else 1) * cmath.sqrt(s * s + e) for e in evals]
    return min(abs((mu + l) ** 2 - (s * s + e)) for mu in mus for l in range(1, levels + 1)
               for e in evals)


def alpha_oracle(field: str, n: int, p: int):
    """The piecewise alpha_p table of tests/test_acceptance.py; None = unknown."""
    F = Fraction
    dim = FIELD_DIM[field] * n
    p = min(p, dim - p)
    if field == "R":
        return (F(n - 1, 2) - p) ** 2
    if field == "C":
        return F(1) if p == n else F((n - p) ** 2)
    if field == "O":
        return {0: F(121), 1: F(97)}.get(p)
    if p == 0:
        return F((2 * n + 1) ** 2)
    if 1 <= p <= (4 * n - 1) // 6:
        return F((2 * n - p) ** 2 + 8 * (n - p))
    if (4 * n - 1) // 6 + 1 <= p <= n:
        return F((2 * n + 1 - p) ** 2)
    if n + 1 <= p <= 2 * n - 1:
        return F((2 * n - p) ** 2)
    return F(1)


# --------------------------------------------------------------------------
# generation

def _draw_s(rng, lo, hi, n, p, flipped, im=0.0):
    evals = e_values(n, p)
    for _ in range(1000):
        s = complex(rng.uniform(lo, hi), im)
        if resonance_distance(s, evals, flipped) >= RESONANCE_CLEARANCE:
            return [s.real, s.imag]
    raise ValueError(f"no s in [{lo}, {hi}] clears the resonances of ({n}, {p})")


# The seed jitters parameters inside fixed bands and never changes a
# round's composition, so the cost of each task slot varies little
# between seeds and the rank statistics (median, tail) pick the same kind
# of task on every run.

def green_round(rng) -> list[dict]:
    """One kernel table per space: two real and two complex s, 100-point grid each."""
    def s_values():
        return [[rng.uniform(0.3, 0.7), 0.0], [rng.uniform(1.3, 1.7), 0.0],
                [rng.uniform(0.8, 1.2), rng.uniform(0.3, 0.7)],
                [rng.uniform(0.8, 1.2), -rng.uniform(0.8, 1.2)]]

    return [{"kind": "green_table", "field": field, "n": n, "s": s_values(),
             "r0": 0.02 * rng.uniform(0.9, 1.1), "r1": 20.0 * rng.uniform(0.9, 1.1), "points": 100}
            for field, n in GREEN_SPACES]


def resolvent_round(rng) -> list[dict]:
    tasks = []
    for i, (n, p) in enumerate(REPORT_CONFIGS):
        im = rng.choice((-1, 1)) * rng.uniform(0.25, 0.35) if i % 2 else 0.0
        tasks.append({"kind": "report", "n": n, "p": p, "s": _draw_s(rng, 0.9, 1.1, n, p, False, im)})
        if max(e_values(n, p)) > 0:
            tasks.append({"kind": "flipped", "n": n, "p": p,
                          "s": _draw_s(rng, 0.65, 0.8, n, p, True)})
    for n in P0_DIMS:
        tasks.append({"kind": "p0", "n": n, "s": rng.uniform(0.9, 1.1)})
    for n, p in SCAN_CONFIGS * 3:
        s_res = resonant_s(n, p)
        step = rng.uniform(0.04, 0.05)
        at = rng.randrange(1, 4)
        grid = [s_res + step * (j - at) for j in range(5)]
        # exactly resonant: log terms; 3e-9 off: inside the resonance floor
        grid[at] = s_res if rng.random() < 0.5 else s_res + 3e-9
        tasks.append({"kind": "scan", "n": n, "p": p, "grid": grid, "resonant_index": at})
    return tasks


def orbit_round(rng) -> list[dict]:
    tasks = [
        {"kind": "torus", "max_len": 14},
        {"kind": "torus_over_cap", "max_len": 15},
        {"kind": "pullback", "length": rng.uniform(3.8, 4.2), "max_len": 10,
         "s": rng.uniform(0.9, 1.1)},
        {"kind": "hash_dedup", "length": rng.uniform(4.8, 5.2), "max_len": 9},
    ]
    for _ in range(8):
        tasks.append({"kind": "schottky_series", "max_len": 10,
                      "lengths": [ell + rng.uniform(-0.3, 0.3) for ell in (4.0, 6.0, 8.0)]})
    for n in (2, 3, 4, 2, 3, 4):
        tasks.append({"kind": "cyclic", "n": n, "length": rng.uniform(2.8, 3.2), "max_len": 40})
    for _ in range(2):
        tasks.append({"kind": "comparability", "length": rng.uniform(1.8, 2.2),
                      "s": rng.uniform(0.9, 1.1)})
    return tasks


def cli_round(rng) -> list[dict]:
    field, n = rng.choice([("R", k) for k in range(2, 9)] + [("C", k) for k in range(2, 9)]
                          + [("H", k) for k in range(2, 6)] + [("O", 2)])
    alpha = ["alpha", "--field", field, "--n", str(n)]

    bfield = rng.choice("RC")
    bn = rng.randrange(2, 8)
    r = rho(bfield, bn)
    if bfield == "R":
        bp = rng.randrange(0, (bn - 1) // 2 + 1)
        hi = max(r, bn - 1 - bp)
    else:
        bp = rng.randrange(0, bn)
        hi = 2 * bn - bp
    delta = r + (hi - r) * rng.random()
    bounds = ["bounds", "--field", bfield, "--n", str(bn), "--p", str(bp), "--delta", repr(delta)]

    gfield, gn = rng.choice(GREEN_SPACES)
    green = ["green", "--field", gfield, "--n", str(gn), "--s", repr(rng.uniform(0.3, 2.0)),
             "--r-grid", "0.1:10:100", "--log"]

    step = rng.uniform(0.03, 0.06)
    at = rng.randrange(2, 7)
    scan = ["resolvent", "--n", "5", "--p", "1", "--scan",
            f"{1.0 - at * step!r}:{1.0 + (8 - at) * step!r}:9"]

    # a critical exponent above 2 rho is a domain error (exit code 3)
    bad = ["bounds", "--field", bfield, "--n", str(bn), "--p", str(bp),
           "--delta", repr(2 * r + rng.uniform(0.1, 2.0))]
    group_file, max_len = rng.choice(CLI_GROUP_FILES)
    return [
        {"kind": "cli", "argv": alpha},
        {"kind": "cli", "argv": bounds},
        {"kind": "cli", "argv": green},
        {"kind": "cli", "argv": ["resolvent", "--n", "5", "--p", "1", "--s", "1"]},
        {"kind": "cli", "argv": scan, "resonant_index": at},
        {"kind": "cli", "argv": ["delta", "--group-file", group_file, "--max-len", str(max_len)]},
        {"kind": "cli", "argv": bad, "expect_exit": 3},
    ]


WORKLOADS = {
    # workload: (round generator, nominal round time in seconds on the
    # reference machine, used to size the fixed task list to --seconds)
    "green-sweep": (green_round, 0.64),
    "resolvent-report": (resolvent_round, 17.5),
    "orbit-delta": (orbit_round, 9.4),
    "cli-session": (cli_round, 6.3),
}


# Run by name only; not in BENCHMARK.json (see README.md).
PROBES = {"resolvent-9-4": [{"kind": "report", "n": 9, "p": 4, "s": [1.0, 0.0]}]}


def spread_out(tasks: list[dict]) -> list[dict]:
    """Order a round so that the tasks of each kind are spread evenly over it.

    The host's speed drifts over seconds; spreading a kind over the round
    lets its latencies sample that drift instead of one moment of it.
    """
    kinds: dict[str, list[dict]] = {}
    for t in tasks:
        kinds.setdefault(t["kind"], []).append(t)
    keyed = [((i + 0.5) / len(group), t) for group in kinds.values() for i, t in enumerate(group)]
    return [t for _, t in sorted(keyed, key=lambda kt: kt[0])]


def make_tasks(workload: str, seed: int, seconds: float) -> list[dict]:
    """R rounds of the workload's seeded task list, R sized so that a run
    at the reference commit measures for about `seconds`."""
    if workload in PROBES:
        return PROBES[workload]
    gen, round_s = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    rounds = max(1, round(seconds / round_s))
    return [t for _ in range(rounds) for t in spread_out(gen(rng))]


def warmup_tasks(workload: str) -> list[dict]:
    """Small tasks of each workload's kinds, run before timing starts."""
    if workload in PROBES:
        workload = "resolvent-report"
    return {
        "green-sweep": [{"kind": "green_table", "field": "R", "n": 3, "s": [[1.0, 0.0]],
                         "r0": 0.05, "r1": 15.0, "points": 20}],
        "resolvent-report": [
            {"kind": "report", "n": 3, "p": 1, "s": [1.0, 0.0]},
            {"kind": "scan", "n": 4, "p": 1, "grid": [0.4, 0.5, 0.6], "resonant_index": 1},
        ],
        "orbit-delta": [{"kind": "cyclic", "n": 3, "length": 3.0, "max_len": 40},
                        {"kind": "comparability", "length": 2.0, "s": 1.0}],
        "cli-session": [{"kind": "cli", "argv": ["alpha", "--field", "R", "--n", "3"]}],
    }[workload]


def census_tasks() -> list[dict]:
    """The in-process pass every traced run ends with: one call into each
    traced layer, the same in every workload, so that every per-layer
    metric is measured on every workload."""
    cli = [
        ["alpha", "--field", "H", "--n", "2"],
        ["bounds", "--field", "C", "--n", "3", "--p", "2", "--delta", "3.0"],
        ["green", "--field", "R", "--n", "3", "--s", "1.0", "--r-grid", "0.1:10:100", "--log"],
        ["green", "--field", "C", "--n", "2", "--s", "0.7", "--r-grid", "0.1:10:100", "--log"],
        ["resolvent", "--n", "5", "--p", "1", "--s", "1"],
        ["delta", "--group-file", CLI_GROUP_FILES[0][0], "--max-len", str(CLI_GROUP_FILES[0][1])],
    ]
    return [{"kind": "cli", "in_process": True, "argv": a} for a in cli] + [
        {"kind": "cli", "in_process": True, "resonant_index": 4,
         "argv": ["resolvent", "--n", "5", "--p", "1", "--scan", "0.8:1.2:9"]},
        {"kind": "cli", "in_process": True, "expect_exit": 3,
         "argv": ["bounds", "--field", "R", "--n", "3", "--p", "1", "--delta", "5.0"]},
        {"kind": "comparability", "length": 2.0, "s": 1.0},
    ]


# --------------------------------------------------------------------------
# runners: each runs one task through the library (or the CLI) and gates it

def run_green_table(t, ctx):
    import numpy as np

    r = np.geomspace(t["r0"], t["r1"], t["points"])
    for s in t["s"]:
        _green_grid(t["field"], t["n"], complex(*s), r)


def _green_grid(field, n, s, r):
    import numpy as np
    from hypspec import green, spaces

    sp = spaces.make_space(field, n)
    g = np.array([green.green0_eval(sp, s, float(x)) for x in r])
    res = [green.green0_ode_residual(sp, s, float(x)) for x in r if x >= 0.1]
    gate(max(res) <= GREEN_RESIDUAL_MAX, f"green residual {max(res):.3g}")
    if (field, n) == ("R", 3):
        m = (r >= 0.1) & (r <= 10.0)
        ref = np.exp(-s * r[m]) / (4 * math.pi * np.sinh(r[m]))
        err = float(np.max(np.abs(g[m] - ref) / np.abs(ref)))
        gate(err <= CLOSED_FORM_RTOL, f"R^3 closed form error {err:.3g}")
    far = (r >= 5.0) & (r <= 15.0)
    if far.sum() >= 2:
        rate = green.decay_rate_fit(list(zip(r[far], np.abs(g[far]))))
        want = s.real + rho(field, n)
        gate(abs(rate - want) <= GREEN_DECAY_TOL, f"decay {rate:.6g} vs {want:.6g}")


def _kernel(n, p, s, flipped=False):
    from hypspec import resolvent, spaces

    sp = spaces.make_space("R", n)
    op = resolvent.build_radial_operator(n, p, L_w=40)
    signs = [-1] * sum(e > 0 for e in e_values(n, p)) if flipped else None
    cp = resolvent.cover_point(sp, p, s, signs)
    return op, cp, resolvent.frobenius_solve(op, cp, L=40)


def run_report(t, ctx):
    """The `hypspec resolvent` report pipeline, through the library."""
    import numpy as np
    from hypspec import resolvent

    n, p, s = t["n"], t["p"], complex(*t["s"])
    op, cp, kern = _kernel(n, p, s)
    res = max(resolvent.form_ode_residual(kern, float(x)) for x in np.linspace(2, 8, 13))
    gate(res <= FORM_RESIDUAL_MAX, f"form residual {res:.3g}")
    rate = resolvent.decay_check(kern, np.linspace(5, 15, 11))
    r = (n - 1) / 2
    gate(rate >= r + s.real - FORM_DECAY_SLACK, f"decay {rate:.6g} below rho + Re s")
    gate(abs(rate - (r + cp.h)) <= FLIPPED_DECAY_TOL, f"decay {rate:.6g} vs rho + h")
    psi, expo = resolvent.psi_extract(op, kern)
    gate(abs(expo - (n - 2)) <= PSI_EXPONENT_TOL, f"psi exponent {expo:.6g}")
    gate(float(np.linalg.svd(psi, compute_uv=False)[-1]) > 0, "psi is singular")


def run_flipped(t, ctx):
    import numpy as np
    from hypspec import resolvent

    _, cp, kern = _kernel(t["n"], t["p"], complex(*t["s"]), flipped=True)
    rate = resolvent.decay_check(kern, np.linspace(5, 15, 11))
    want = (t["n"] - 1) / 2 + cp.h
    gate(abs(rate - want) <= FLIPPED_DECAY_TOL, f"flipped decay {rate:.6g} vs {want:.6g}")


def run_p0(t, ctx):
    import numpy as np
    from hypspec import green, resolvent, spaces

    n, s = t["n"], t["s"]
    sp = spaces.make_space("R", n)
    _, _, kern = _kernel(n, 0, s)
    ratios = np.array([resolvent.kernel_eval(kern, float(x))[0, 0] / green.green0_eval(sp, s, float(x))
                       for x in np.linspace(2, 10, 9)])
    dev = float(np.abs(ratios - ratios.mean()).max() / abs(ratios.mean()))
    gate(dev <= P0_SCALAR_TOL, f"p = 0 against scalar kernel {dev:.3g}")


def run_scan(t, ctx):
    """Resonance scan over an s-grid: frobenius_solve per point, no ODE."""
    from hypspec import errors, resolvent, spaces

    n, p = t["n"], t["p"]
    sp = spaces.make_space("R", n)
    op = resolvent.build_radial_operator(n, p, L_w=40)
    for i, s in enumerate(t["grid"]):
        try:
            kern = resolvent.frobenius_solve(op, resolvent.cover_point(sp, p, s), L=40)
            status = "log" if kern.has_log_terms else "ok"
        except errors.ResonanceDetected:
            status = "ResonanceDetected"
        if i == t["resonant_index"]:
            gate(status in ("log", "ResonanceDetected"), f"resonant point s={s!r} gave {status}")
        else:
            gate(status == "ok" and kern.resonance_margin > 0, f"s={s!r} gave {status}")


def _delta(gens, max_len, **kw):
    from hypspec import orbits

    sample = orbits.enumerate_orbit(gens, max_len=max_len, **kw)
    return sample, orbits.estimate_delta(sample)


def run_torus(t, ctx):
    from hypspec import orbits

    _, est = _delta(orbits.punctured_torus_group(), t["max_len"])
    gate(abs(est.growth_fit - 1.0) <= TORUS_DELTA_TOL, f"torus growth fit {est.growth_fit:.4g}")
    gate(abs(est.bisection - 1.0) <= TORUS_DELTA_TOL, f"torus bisection {est.bisection:.4g}")


def run_torus_over_cap(t, ctx):
    from hypspec import errors, orbits

    try:
        orbits.enumerate_orbit(orbits.punctured_torus_group(), max_len=t["max_len"])
    except errors.CombinatorialBlowup:
        return
    raise GateMiss("enumeration past the word cap did not raise CombinatorialBlowup")


def run_schottky_series(t, ctx):
    from hypspec import orbits

    prev = None
    for ell in t["lengths"]:
        _, est = _delta(orbits.schottky_pair(ell), t["max_len"])
        if prev is not None:
            gate(est.growth_fit < prev.growth_fit and est.bisection < prev.bisection,
                 f"Schottky delta not decreasing at length {ell:.4g}")
        prev = est


def run_cyclic(t, ctx):
    from hypspec import orbits

    _, est = _delta(orbits.cyclic_group(t["n"], t["length"]), t["max_len"])
    gate(est.growth_fit <= CYCLIC_DELTA_MAX and est.bisection <= CYCLIC_DELTA_MAX,
         f"cyclic delta {est.growth_fit:.4g} / {est.bisection:.4g}")


def run_hash_dedup(t, ctx):
    import numpy as np
    from hypspec import orbits

    gens = orbits.schottky_pair(t["length"])
    hashed = orbits.enumerate_orbit(gens, max_len=t["max_len"],
                                    dedup_policy=orbits.DedupPolicy.MATRIX_HASH)
    free = orbits.enumerate_orbit(gens, max_len=t["max_len"])
    # a Schottky pair is free: hashing must find no coincidences
    gate(hashed.n_words == 2 * 3 ** t["max_len"] - 1, f"hash dedup kept {hashed.n_words} words")
    gate(np.allclose(hashed.distances, free.distances, rtol=1e-12, atol=1e-12),
         "hash dedup distances differ from free reduction")


def _boost_pair_h3(length):
    from hypspec import orbits

    return orbits.GroupGenerators(
        orbits.RealHyperboloid(3),
        (orbits.boost_matrix(3, length, axis=0), orbits.boost_matrix(3, length, axis=1)),
        ("a", "b"),
    )


def run_pullback(t, ctx):
    """Green pullback sum over ~10^5 orbit points of a Schottky pair in H^3,
    against the closed form exp(-sr) / (4 pi sinh r)."""
    import numpy as np
    from hypspec import orbits, spaces

    sample = orbits.enumerate_orbit(_boost_pair_h3(t["length"]), max_len=t["max_len"])
    s = t["s"]
    total = orbits.pullback_green_partial_sum(spaces.make_space("R", 3), s, sample)
    d = sample.distances[sample.distances > 1e-12]
    ref = float(np.sum(np.exp(-s * d) / (4 * math.pi * np.sinh(d))))
    gate(abs(total - ref) <= CLOSED_FORM_RTOL * abs(ref), f"pullback {total!r} vs {ref!r}")


def run_comparability(t, ctx):
    from hypspec import orbits, spaces

    space = spaces.make_space("R", 3)
    s = t["s"]
    ratios = []
    for ml in (6, 8, 10):
        sample = orbits.enumerate_orbit(orbits.cyclic_group(3, t["length"]), max_len=ml)
        num = orbits.pullback_green_partial_sum(space, s, sample)
        den = orbits.poincare_partial_sum(sample, s + 1.0) - 1.0  # rho = 1; drop identity
        ratios.append(num / den)
    var = (max(ratios) - min(ratios)) / min(ratios)
    gate(var < COMPARABILITY_MAX, f"pullback/Poincare ratio variation {var:.3g}")


def run_cli(t, ctx):
    """One CLI call: a fresh `python -m hypspec` process, or hypspec.cli.main
    in this process for the traced census."""
    argv = t["argv"]
    if t.get("in_process"):
        from hypspec import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        out = buf.getvalue()
    else:
        entry = ["perfbench/clitrace.py"] if ctx.traced else ["-m", "hypspec"]
        proc = subprocess.run([sys.executable, *entry, *argv], capture_output=True, text=True,
                              timeout=120)
        if ctx.traced:
            ctx.merge_child_spans(proc.stderr)
        code, out = proc.returncode, proc.stdout
    want = t.get("expect_exit", 0)
    gate(code == want, f"{' '.join(argv)}: exit {code}, expected {want}")
    doc = json.loads(out)
    if want:
        gate(doc["error"]["type"] == "DomainError", f"{' '.join(argv)}: error {doc['error']['type']}")
        return
    check_cli_output(argv, doc, t)


def check_cli_output(argv, doc, t):
    cmd = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    rows = doc["rows"]
    if cmd == "alpha":
        field, n = opts["--field"], int(opts["--n"])
        for row in rows:
            want = alpha_oracle(field, n, row["p"])
            got = None if row["alpha"] is None else Fraction(row["alpha"])
            gate(got == want, f"alpha_{row['p']}({field}, {n}) = {got}, expected {want}")
        gate(len(rows) == FIELD_DIM[field] * n + 1, "alpha table has the wrong length")
    elif cmd == "bounds":
        p = int(opts["--p"])
        want = p if opts["--field"] == "R" else p * (p + 2)
        got = rows[0]["difference"]
        gate(abs(got - want) <= 1e-9 * max(1, want), f"bounds difference {got!r}, expected {want}")
    elif cmd == "green":
        worst = max(row["residual"] for row in rows)
        gate(len(rows) == 100 and worst <= GREEN_RESIDUAL_MAX, f"green residual {worst:.3g}")
        if (opts["--field"], opts["--n"]) == ("R", "3"):
            s = float(opts["--s"])
            for row in rows:
                ref = math.exp(-s * row["r"]) / (4 * math.pi * math.sinh(row["r"]))
                gate(abs(row["re"] - ref) <= CLOSED_FORM_RTOL * ref, "R^3 closed form")
    elif cmd == "resolvent" and "--scan" in opts:
        for i, row in enumerate(rows):
            if i == t["resonant_index"]:
                gate(row["status"] in ("log", "ResonanceDetected"), f"scan row {i}: {row['status']}")
            else:
                gate(row["status"] == "ok" and row["resonance_margin"] > 0,
                     f"scan row {i}: {row['status']}")
    elif cmd == "resolvent":
        row = rows[0]
        n, s = int(opts["--n"]), float(opts["--s"])
        gate(row["ode_residual_max"] <= FORM_RESIDUAL_MAX, "form residual")
        gate(row["decay_fit"] >= (n - 1) / 2 + s - FORM_DECAY_SLACK, "form decay")
        gate(abs(row["psi_exponent"] - (n - 2)) <= PSI_EXPONENT_TOL, "psi exponent")
        gate(row["psi_sigma_min"] > 0 and row["has_log_terms"] is True, "psi / log terms")
    elif cmd == "delta":
        row = rows[0]
        if "cyclic" in opts["--group-file"]:
            gate(row["growth_fit"] <= CYCLIC_DELTA_MAX and row["bisection"] <= CYCLIC_DELTA_MAX,
                 "cyclic delta")
        else:
            gate(row["n_words"] == 2 * 3 ** int(opts["--max-len"]) - 1, "Schottky word count")
            gate(0 < row["bisection"] < 1 and row["spread"] < 0.01, "Schottky delta")


RUNNERS = {
    "green_table": run_green_table,
    "report": run_report,
    "flipped": run_flipped,
    "p0": run_p0,
    "scan": run_scan,
    "torus": run_torus,
    "torus_over_cap": run_torus_over_cap,
    "schottky_series": run_schottky_series,
    "cyclic": run_cyclic,
    "hash_dedup": run_hash_dedup,
    "pullback": run_pullback,
    "comparability": run_comparability,
    "cli": run_cli,
}
