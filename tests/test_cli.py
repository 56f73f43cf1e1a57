import contextlib
import io
import json
import math
import re
import shlex
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hypspec import cli, hyper, resolvent
from hypspec.cli import OutputEnvelope, _csv_cell, build_parser, main, to_json
from hypspec.errors import TruncationWarning
from hypspec.orbits import DedupPolicy, boost_matrix
from hypspec.resolvent import kernel_blocks


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_alpha_quaternion_table(capsys):
    code, out = run(capsys, "alpha", "--field", "H", "--n", "2")
    assert code == 0
    doc = json.loads(out)
    rows = {r["p"]: r for r in doc["rows"]}
    assert rows[1]["alpha"] == "17"
    assert rows[0]["alpha_float"] == 25.0
    assert doc["version"] == "0.1.0"
    assert doc["parameters"]["rho"] == "5"


def test_alpha_real_row(capsys):
    code, out = run(capsys, "alpha", "--field", "R", "--n", "3")
    rows = {r["p"]: r for r in json.loads(out)["rows"]}
    assert rows[1]["alpha_float"] == 0.0


def test_alpha_octonion_unknown_marker(capsys):
    code, out = run(capsys, "alpha", "--field", "O", "--n", "2")
    assert code == 0
    rows = {r["p"]: r for r in json.loads(out)["rows"]}
    assert rows[2]["error"] == "unknown"
    assert rows[0]["alpha"] == "121"
    assert rows[16]["alpha"] == "121"


@pytest.mark.parametrize("p_range, code, rows", [
    ("1:3", 0, [1, 2, 3]),
    ("2:2", 0, [2]),
    ("1-3", 3, None),
    ("1:2:3", 3, None),
    ("a:b", 3, None),
    ("0:5", 3, None),
    ("-1:2", 3, None),
    ("3:1", 3, None),
])
def test_alpha_p_range(capsys, p_range, code, rows):
    got, out = run(capsys, "alpha", "--field", "R", "--n", "4", f"--p-range={p_range}")
    assert got == code
    doc = json.loads(out)
    if rows is None:
        assert doc["error"]["type"] == "DomainError"
    else:
        assert [r["p"] for r in doc["rows"]] == rows
        assert doc["rows"][0]["alpha"] == {1: "1/4", 2: "1/4"}[rows[0]]


def test_alpha_large_table_under_the_row_cap(capsys):
    code, out = run(capsys, "alpha", "--field", "R", "--n", "100000", "--format", "csv")
    assert code == 0
    assert out.count("\n") == 100002  # header and p = 0 .. 100000


def test_alpha_csv_projection(capsys):
    code, out = run(capsys, "alpha", "--field", "R", "--n", "3", "--format", "csv")
    lines = out.strip().split("\n")
    assert lines[0] == "p,alpha,alpha_float,error"
    assert len(lines) == 5


def test_bounds_examples(capsys):
    code, out = run(capsys, "bounds", "--field", "C", "--n", "2", "--p", "1",
                    "--delta", "2.5")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["theorem_b_bound"] == pytest.approx(0.75)

    code, out = run(capsys, "bounds", "--field", "R", "--n", "5", "--p", "1",
                    "--delta", "2")
    assert json.loads(out)["rows"][0]["difference"] == 1.0

    code, out = run(capsys, "bounds", "--field", "C", "--n", "3", "--p", "2",
                    "--delta", "3")
    assert json.loads(out)["rows"][0]["difference"] == 8.0


def test_green_h3_matches_oracle(capsys):
    code, out = run(capsys, "green", "--field", "R", "--n", "3", "--s", "1",
                    "--r-grid", "0.5:5:10")
    assert code == 0
    doc = json.loads(out)
    for row in doc["rows"]:
        r = row["r"]
        ref = math.exp(-r) / (4 * math.pi * math.sinh(r))
        assert row["re"] == pytest.approx(ref, rel=1e-10)
        assert abs(row["im"]) < 1e-15
        assert row["residual"] < 1e-8


@pytest.mark.parametrize(
    "argv",
    [("--field", "H", "--n", "2", "--s", "1+0.5i", "--r-grid", "150:250:3"),
     ("--field", "R", "--n", "3", "--s", "1", "--r-grid", "300:400:3")],
)
def test_green_far_field_grid_reports_residuals(capsys, argv):
    # the kernel underflows to 0 and sinh^2 r overflows on these grids
    code, out = run(capsys, "green", *argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 3
    assert all(row["residual"] <= 1e-8 for row in rows)


def test_green_grid_parsing(capsys):
    code, out = run(capsys, "green", "--field", "R", "--n", "2", "--s", "0.5",
                    "--r-grid", "0.1:10:100", "--log")
    doc = json.loads(out)
    rs = [row["r"] for row in doc["rows"]]
    assert len(rs) == 100
    assert rs[0] == pytest.approx(0.1) and rs[-1] == pytest.approx(10.0)
    # log spacing: constant ratio
    ratios = [b / a for a, b in zip(rs, rs[1:])]
    assert max(ratios) - min(ratios) < 1e-9


def test_green_rejects_nonpositive_grid(capsys):
    code, out = run(capsys, "green", "--field", "R", "--n", "3", "--s", "1",
                    "--r-grid", "0:5:3")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_resolvent_report(capsys):
    code, out = run(capsys, "resolvent", "--n", "5", "--p", "1", "--s", "1")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["decay_fit"] >= 2.0 + 1.0 - 1e-2
    assert row["ode_residual_max"] < 1e-6
    assert row["psi_exponent"] == pytest.approx(3.0, abs=0.02)
    assert row["psi_sigma_min"] > 0
    assert row["has_log_terms"] is True
    assert doc["extra"]["e_values"] == [0, 3]


def test_resolvent_scalar_agreement_metric(capsys):
    code, out = run(capsys, "resolvent", "--n", "3", "--p", "0", "--s", "0.8")
    doc = json.loads(out)
    assert doc["extra"]["scalar_oracle_agreement"] < 1e-8


def test_resolvent_resonance_structured_error(capsys):
    code, out = run(capsys, "resolvent", "--n", "5", "--p", "1", "--s", "1.000000003")
    assert code == 4
    doc = json.loads(out)
    assert doc["error"]["type"] == "ResonanceDetected"


def test_resolvent_tail_bound_error_states_the_relative_tail(capsys):
    # the check is tail > 1e-6 |kernel|: the message prints tail / |kernel|
    code, out = run(capsys, "resolvent", "--n", "5", "--p", "1", "--s", "1", "--order", "1")
    assert code == 4
    assert json.loads(out) == {"error": {
        "type": "TailBoundExceeded",
        "message": "truncated tail estimate 2.28e-05 of the kernel exceeds 1e-06 at t=5.0 "
                   "(threshold t ~ 13.816)"}}


def test_complex_s_parsing(capsys):
    code, out = run(capsys, "resolvent", "--n", "4", "--p", "1", "--s", "1+0.5i")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["s_im"] == 0.5


def test_delta_cyclic_group_file(tmp_path, capsys):
    doc = {
        "model": {"type": "real_hyperboloid", "n": 2},
        "generators": [
            {"label": "a",
             "matrix": [[format(v, ".17g") for v in row] for row in boost_matrix(2, 3.0)]}
        ],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "delta", "--group-file", str(path), "--max-len", "40")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["growth_fit"] <= 0.05
    assert row["bisection"] <= 0.05
    # rho^2 = 1/4 for the plane when the estimate is below rho
    assert row["lambda00_at_estimate"] == pytest.approx(0.25, abs=0.05)


def test_delta_overflow_structured_error(tmp_path, capsys):
    doc = {
        "model": {"type": "real_hyperboloid", "n": 3},
        "generators": [
            {"label": "a",
             "matrix": [[format(v, ".17g") for v in row] for row in boost_matrix(3, 3.0)]}
        ],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "delta", "--group-file", str(path), "--max-len", "400")
    assert code == 4
    assert json.loads(out)["error"]["type"] == "OrbitOverflow"


def test_readme_group_file_runs(tmp_path, monkeypatch, capsys):
    # every hypspec line of the README's CLI examples, with group.json the
    # README's group file, so neither can drift from what the CLI accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [shlex.split(ln, comments=True) for ln in examples.splitlines()]
    commands = [argv[1:] for argv in lines if argv and argv[0] == "hypspec"]
    after = readme.split("A group file looks like", 1)[1]
    (tmp_path / "group.json").write_text(after.split("```json", 1)[1].split("```", 1)[0])
    monkeypatch.chdir(tmp_path)
    assert {argv[0] for argv in commands} == {"alpha", "bounds", "green", "resolvent", "delta"}
    for argv in commands:
        code, out = run(capsys, *argv)
        assert code == 0, argv
        if argv[0] == "delta":
            assert json.loads(out)["rows"][0]["n_words"] == 25


MALFORMED_GROUPS = [
    {"model": {"type": "real_hyperboloid", "n": 2},
     "generators": [{"matrix": [[1, None, 0], [0, 1, 0], [0, 0, 1]]}]},
    {"model": {"type": "real_hyperboloid", "n": 2},
     "generators": [{"matrix": [5, [0, 1, 0], [0, 0, 1]]}]},
    {"model": {"type": "real_hyperboloid", "n": 2}, "generators": 5},
    {"model": "real_hyperboloid", "generators": []},
    [{"model": {"type": "real_hyperboloid", "n": 2}, "generators": []}],
    {"model": {"type": "real_hyperboloid", "n": 10 ** 9}, "generators": []},
    {"model": {"type": "real_hyperboloid", "n": "abc"}, "generators": []},
    {"model": {"type": "real_hyperboloid", "n": -5}, "generators": []},
    {"model": {"type": "real_hyperboloid", "n": 2}, "generators": [{"matrix": "abc"}]},
    {"model": {"type": "real_hyperboloid", "n": 2},
     "generators": [{"matrix": [["x", 0, 0], [0, 1, 0], [0, 0, 1]]}]},
    # n read through int() built n = 2 and n = 1 models
    {"model": {"type": "real_hyperboloid", "n": 2.7}, "generators": []},
    {"model": {"type": "real_hyperboloid", "n": True}, "generators": []},
]


@pytest.mark.parametrize("doc", MALFORMED_GROUPS)
def test_delta_malformed_group_file(tmp_path, capsys, doc):
    # each once ended in a TypeError or MemoryError traceback, or exited 3
    # as a ValueError
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "delta", "--group-file", str(path))
    assert code == 3
    assert json.loads(out)["error"]["type"] == "DomainError"


BOOST3 = [[format(v, ".17g") for v in row] for row in boost_matrix(3, 1.0)]


@pytest.mark.parametrize("matrix, base, flag", [
    # once exited 4 with OrbitOverflow
    ([["nan"] + row[1:] for row in BOOST3], None, None),
    ([[{"re": "inf", "im": 0}] + row[1:] for row in BOOST3], None, None),
    (BOOST3, [0, 0, 0, {"re": 1, "im": 5}], None),
    # --base once dropped the imaginary part on a real model
    (BOOST3, None, "0,0,0,1+5i"),
    (BOOST3, None, "0,0,1"),
])
def test_delta_rejects_outside_values(tmp_path, capsys, matrix, base, flag):
    doc = {"model": {"type": "real_hyperboloid", "n": 3},
           "generators": [{"label": "a", "matrix": matrix}]}
    if base is not None:
        doc["base_point"] = base
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    argv = ["delta", "--group-file", str(path), "--max-len", "4"]
    code, out = run(capsys, *argv, *(["--base", flag] if flag else []))
    assert code == 3
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_delta_huge_model_with_a_small_generator(tmp_path, capsys):
    # once a traceback from allocating the (n+1)^2 form matrix (6.94 EiB)
    doc = {"model": {"type": "real_hyperboloid", "n": 10 ** 9},
           "generators": [{"label": "a", "matrix": [[1, 0], [0, 1]]}]}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "delta", "--group-file", str(path))
    assert code == 3
    assert "shape" in json.loads(out)["error"]["message"]


def test_delta_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run(capsys, "delta", "--group-file", str(path))
    assert code == 3


def test_delta_group_file_is_a_directory(tmp_path, capsys):
    # once an IsADirectoryError traceback: every OSError of the file exits 3
    code, out = run(capsys, "delta", "--group-file", str(tmp_path))
    assert code == 3
    assert json.loads(out)["error"]["type"] == "IsADirectoryError"


def test_delta_missing_file(capsys):
    code, out = run(capsys, "delta", "--group-file", "/nonexistent/file.json")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "FileNotFoundError"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["alpha", "--field", "Z", "--n", "3"])
    assert exc.value.code == 2


def test_byte_identical_reruns(capsys):
    _, out1 = run(capsys, "resolvent", "--n", "4", "--p", "2", "--s", "0.7")
    _, out2 = run(capsys, "resolvent", "--n", "4", "--p", "2", "--s", "0.7")
    assert out1 == out2
    _, out3 = run(capsys, "green", "--field", "C", "--n", "2", "--s", "1.5",
                  "--r-grid", "1:5:7", "--format", "csv")
    _, out4 = run(capsys, "green", "--field", "C", "--n", "2", "--s", "1.5",
                  "--r-grid", "1:5:7", "--format", "csv")
    assert out3 == out4


def test_float_serialization_17_digits():
    assert to_json(1 / 3) == "0.33333333333333331"
    assert to_json({"x": 2.0 + 0.25j}) == '{"x": {"re": 2, "im": 0.25}}'


def test_rare_encodings():
    # non-finite floats are strings, a Fraction is its exact text, and an
    # unknown type is an error, not a repr
    assert to_json([math.nan, math.inf, -math.inf, np.float64("-inf")]) == \
        '["nan", "inf", "-inf", "-inf"]'
    assert to_json({"q": Fraction(-3, 4)}) == '{"q": "-3/4"}'
    with pytest.raises(TypeError, match="cannot serialize"):
        to_json({"x": {1, 2}})
    # CSV writes booleans as true/false, None as an empty cell, and no rows
    # as nothing
    rows = [{"ok": True, "v": None, "x": 0.5}, {"ok": False, "v": 1, "x": 2.0}]
    assert OutputEnvelope("t", {}, rows, format="csv").render() == \
        "ok,v,x\ntrue,,0.5\nfalse,1,2\n"
    assert OutputEnvelope("t", {}, [], format="csv").render() == ""


# (value, its JSON, its CSV cell), as rendered when the renderer tested numpy
# types directly: Integral prints as an int, Fraction (a Real) stays exact
# text, other Reals get 17 digits, and CSV prints ints and Fractions as str()
@pytest.mark.parametrize("value, json_text, csv_text", [
    (True, "true", "true"),
    (7, "7", "7"),
    (2 ** 70, "1180591620717411303424", "1180591620717411303424"),
    (-0.1, "-0.10000000000000001", "-0.10000000000000001"),
    (1e300, "1.0000000000000001e+300", "1.0000000000000001e+300"),
    (math.nan, '"nan"', "nan"),
    (1 + 2j, '{"re": 1, "im": 2}', "(1+2j)"),
    (np.int64(-3), "-3", "-3"),
    (np.float32(0.1), "0.10000000149011612", "0.10000000149011612"),
    (np.float64(2.5), "2.5", "2.5"),
    (np.complex128(1.5 - 0.25j), '{"re": 1.5, "im": -0.25}', "(1.5-0.25j)"),
    (Fraction(17, 3), '"17/3"', "17/3"),
    (Fraction(4), '"4"', "4"),
    (np.array([1.0, 2.5]), "[1, 2.5]", "[1.  2.5]"),
    (np.array([[1, 2]]), "[[1, 2]]", "[[1 2]]"),
])
def test_rendering_of_python_and_numpy_values(value, json_text, csv_text):
    assert to_json(value) == json_text
    assert _csv_cell(value) == csv_text


def test_dedup_choices_are_the_policy_values(capsys):
    # the parser spells them out, so that building it does not load orbits
    assert cli._DEDUP_POLICIES == [d.value for d in DedupPolicy]
    args = build_parser().parse_args(["delta", "--group-file", "g.json"])
    assert args.dedup == DedupPolicy.FREE_REDUCTION.value
    with pytest.raises(SystemExit) as exc:
        main(["delta", "--group-file", "g.json", "--dedup", "bogus"])
    assert exc.value.code == 2
    assert "usage: hypspec delta" in capsys.readouterr().err


def test_json_escapes_control_characters(capsys):
    assert to_json('a"b\\c\n\x00\x1f\x7f') == '"a\\"b\\\\c\\u000a\\u0000\\u001f\x7f"'
    code, out = run(capsys, "green", "--field", "R", "--n", "3", "--s", "1",
                    "--r-grid", "0.5:1:2\n")
    assert code == 0
    assert json.loads(out)["parameters"]["r_grid"] == "0.5:1:2\n"


def test_resolvent_rejects_unknown_sign_characters(capsys):
    # only + and - name a branch sign
    code, out = run(capsys, "resolvent", "--n", "5", "--p", "1", "--s", "1", "--signs", "x")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "DomainError"


def test_seed_flag_removed(capsys):
    # --seed was a reserved no-op (no command samples); it is now unknown
    with pytest.raises(SystemExit) as exc:
        main(["alpha", "--field", "R", "--n", "2", "--seed", "7"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_resolvent_kernel_grid_in_extra(capsys):
    code, out = run(capsys, "resolvent", "--n", "4", "--p", "1", "--s", "0.7",
                    "--t-grid", "2:6:5")
    assert code == 0
    grid = json.loads(out)["extra"]["kernel_grid"]
    assert len(grid) == 5
    assert grid[0]["t"] == 2.0
    norms = [g["total_norm"] for g in grid]
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert "block0_norm" in grid[0] and "block1_norm" in grid[0]


def test_resolvent_resonance_scan(capsys):
    code, out = run(capsys, "resolvent", "--n", "5", "--p", "1",
                    "--scan", "0.8:1.2:5")
    assert code == 0
    rows = json.loads(out)["rows"]
    by_s = {round(r["s_re"], 3): r for r in rows}
    assert by_s[1.0]["status"] == "log"      # exact integer exponent gap
    assert by_s[0.8]["status"] == "ok"
    assert by_s[0.8]["resonance_margin"] > 0


def test_resolvent_scan_requires_s_otherwise(capsys):
    code, out = run(capsys, "resolvent", "--n", "4", "--p", "1")
    assert code == 3


def test_resolvent_flipped_sign_is_off_sheet(capsys):
    # the branch value -sqrt(s^2 + 3) sets h, so the decay rate is rho + h
    code, out = run(capsys, "resolvent", "--n", "5", "--p", "1", "--s", "0.6", "--signs", "-")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["on_physical_sheet"] is False
    assert row["h"] == pytest.approx(-math.sqrt(0.36 + 3.0), rel=1e-15)
    assert row["decay_fit"] == pytest.approx(row["rho_plus_h"], abs=1e-3)


def test_resolvent_scan_point_inside_the_resonance_floor(capsys):
    code, out = run(capsys, "resolvent", "--n", "5", "--p", "1",
                    "--scan", "1.000000003:1.1:2")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["status"] == "ResonanceDetected" and rows[0]["resonance_margin"] is None
    assert rows[1]["status"] == "ok" and rows[1]["resonance_margin"] > 0


def test_resolvent_order_is_the_truncation_order(capsys):
    code, out = run(capsys, "resolvent", "--n", "5", "--p", "1", "--s", "1", "--order", "0")
    assert code == 3
    assert json.loads(out) == {"error": {
        "type": "DomainError", "message": "truncation order L must be >= 1, got 0"}}


@pytest.mark.filterwarnings("ignore::hypspec.errors.TruncationWarning")
def test_resolvent_norm_checks_finite_at_large_degree(capsys):
    # the ranks near C(999, 499) ~ 1.4e299 once overflowed the tail and
    # growth checks (RuntimeWarning, then "tail estimate inf"); numpy's
    # RuntimeWarnings are errors here
    code, out = run(capsys, "resolvent", "--n", "1000", "--p", "500", "--s", "1")
    assert code == 4
    assert json.loads(out) == {"error": {
        "type": "DegenerateFit", "message": "kernel norm vanished at t=5.0"}}


@pytest.mark.parametrize("grid,t", [("2:300:3", "300.0"), ("2:400:3", "400.0")])
def test_resolvent_grid_past_the_float64_range(capsys, grid, t):
    # at n = 5 the kernel passes below the float64 range near t = 300; it
    # once printed total_norm 0 there, and from t ~ 355 the 1/sinh^2 weight
    # ended in an OverflowError traceback
    code, out = run(capsys, "resolvent", "--n", "5", "--p", "1", "--s", "1", "--t-grid", grid)
    assert code == 4
    assert json.loads(out) == {"error": {
        "type": "DegenerateFit", "message": f"kernel norm vanished at t={t}"}}


def test_resolvent_report_makes_at_most_four_kernel_calls(monkeypatch, capsys):
    # one kernel_blocks call each for the decay fit, the t-grid's rows, its
    # residuals and psi's match, where the per-time loops once made 38
    calls = []

    def counted(kernel, t):
        calls.append(np.size(t))
        return kernel_blocks(kernel, t)

    monkeypatch.setattr(resolvent, "kernel_blocks", counted)
    code, _ = run(capsys, "resolvent", "--n", "5", "--p", "1", "--s", "1")
    assert code == 0
    assert len(calls) <= 4 and 13 in calls


def test_green_residual_null_where_it_is_not_defined(capsys):
    # the residual's normalization degenerates below r = 0.01
    code, out = run(capsys, "green", "--field", "R", "--n", "3", "--s", "1",
                    "--r-grid", "0.001:1:4", "--log")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["r"] == 0.001 and rows[0]["residual"] is None
    assert all(row["residual"] < 1e-8 for row in rows[1:])


def test_delta_base_point_flag(tmp_path, capsys):
    doc = {
        "model": {"type": "real_hyperboloid", "n": 2},
        "generators": [
            {"label": "a",
             "matrix": [[format(v, ".17g") for v in row] for row in boost_matrix(2, 3.0)]}
        ],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "delta", "--group-file", str(path), "--max-len", "30",
                    "--base", "0.5,0,1.118033988749895")
    assert code == 0
    assert json.loads(out)["rows"][0]["growth_fit"] <= 0.06


def test_resolvent_grid_rows_csv(capsys):
    code, out = run(capsys, "resolvent", "--n", "5", "--p", "2", "--s", "0.5",
                    "--t-grid", "2:6:5", "--grid-rows", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,total_norm,block0_norm,block1_norm"
    assert len(lines) == 6


def test_resolvent_reports_psi_as_one_number_at_14_7(capsys):
    # the psi matrix at (14, 7), psi I, would have C(14,7)^2 = 11778624 entries
    code, out = run(capsys, "resolvent", "--n", "14", "--p", "7", "--s", "1")
    assert code == 0
    assert len(out) < 10_000
    doc = json.loads(out)
    row = doc["rows"][0]
    psi = doc["extra"]["psi"]
    assert "psi_matrix" not in doc["extra"]
    assert row["psi_exponent"] == pytest.approx(12.0, abs=0.02)
    assert row["psi_sigma_min"] == pytest.approx(math.hypot(psi["re"], psi["im"]), rel=1e-15)
    assert row["psi_sigma_min"] > 0


GROUPS = Path(__file__).resolve().parents[1] / "perfbench" / "groups"


@pytest.mark.parametrize(
    "group, max_len, row, extra",
    [
        (
            "schottky_l5.json", 9,
            {"growth_fit": 0.24493526425114567, "bisection": 0.2427786576851491,
             "spread": 0.0021566065659965605, "n_words": 39365, "max_word_length": 9,
             "lambda00_at_estimate": 0.25},
            {"shell_word_counts": [1, 4, 12, 36, 108, 324, 972, 2916, 8748, 26244],
             "shell_sums_at_growth_fit": [
                 1, 1.1754111953477884, 1.1639999687281908, 1.1527269908094966,
                 1.141563198938629, 1.130507524821845, 1.1195589213694725,
                 1.1087163516364031, 1.097978788720012, 1.0873452156628969]},
        ),
        (
            "cyclic_h3.json", 40,
            {"growth_fit": 0.011398796928633334, "bisection": 0,
             "spread": 0.011398796928633334, "n_words": 81, "max_word_length": 40,
             "lambda00_at_estimate": 1},
            {"shell_word_counts": [1] + [2] * 40,
             "shell_sums_at_growth_fit": [
                 1, 1.93276339507775, 1.8677871706762355, 1.804995336639433,
                 1.7443144574713685, 1.6856735664527829, 1.62900408264505,
                 1.5742397306842812, 1.5213164632718172, 1.4701723862704563,
                 1.4207476863188224, 1.3729845608792126, 1.3268271506371205,
                 1.282221474173369, 1.2391153648324593, 1.1974584097132945,
                 1.1572018907109352, 1.1182987275404295, 1.080703422676084,
                 1.0443720081417864, 1.0092619940901435, 0.9753323191103028,
                 0.9425433022063423, 0.910856596390062, 0.88023514383391,
                 0.8506431325315897, 0.822045954415664, 0.7944101648831741,
                 0.7677034436819393, 0.7418945571117928, 0.716953321496546,
                 0.692850567883967, 0.6695581079324816, 0.6470487009447089,
                 0.6252960220092717, 0.6042746312136258, 0.5839599438919014,
                 0.564328201872962, 0.5453564456950539, 0.5270224877545534,
                 0.5093048863574063]},
        ),
    ],
)
def test_delta_output_pinned(capsys, group, max_len, row, extra):
    # exact values of the enumeration and both estimators: a change to how
    # orbits are enumerated, counted or summed must not move a digit
    code, out = run(capsys, "delta", "--group-file", str(GROUPS / group),
                    "--max-len", str(max_len))
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [row]
    assert doc["extra"] == extra


@pytest.mark.parametrize("argv, error", [
    (["delta", "--group-file", str(GROUPS / "schottky_l5.json"), "--max-len", "20"],
     "CombinatorialBlowup"),
    (["bounds", "--field", "O", "--n", "2", "--p", "2", "--delta", "5"], "UnknownConstant"),
    # non-finite numbers, which once crashed, integrated or printed NaN rows
    (["green", "--field", "R", "--n", "3", "--s", "nan", "--r-grid", "1:2:3"], "DomainError"),
    (["resolvent", "--n", "5", "--p", "1", "--s", "nan"], "DomainError"),
    (["green", "--field", "R", "--n", "3", "--s", "1", "--r-grid", "nan:1:3"], "DomainError"),
    (["green", "--field", "R", "--n", "3", "--s", "1", "--r-grid", "1:inf:3"], "DomainError"),
    (["resolvent", "--n", "5", "--p", "1", "--s", "1", "--t-grid", "nan:8:3"], "DomainError"),
    (["resolvent", "--n", "5", "--p", "1", "--scan", "nan:1:3"], "DomainError"),
    # sizes that once ended in MemoryError tracebacks (745 GiB, 298 GiB)
    (["green", "--field", "R", "--n", "3", "--s", "1", "--r-grid", "0.1:10:100000000000"],
     "DomainError"),
    (["resolvent", "--n", "5", "--p", "1", "--scan", "0.5:1:100000000000"], "DomainError"),
    (["resolvent", "--n", "5", "--p", "1", "--s", "1", "--order", "200000"],
     "CombinatorialBlowup"),
    # finite but extreme inputs that once ended in OverflowError or
    # MemoryError tracebacks
    (["green", "--field", "R", "--n", "3", "--s", "1", "--r-grid", "1e-200:1e-100:2"],
     "DomainError"),
    (["green", "--field", "R", "--n", "100000000", "--s", "1", "--r-grid", "1:2:2"],
     "DomainError"),
    (["resolvent", "--n", "5", "--p", "1", "--s", "1e200"], "DomainError"),
    (["resolvent", "--n", "5", "--p", "1", "--scan", "1e200:1e201:2"], "DomainError"),
    (["resolvent", "--n", "2000", "--p", "1000", "--s", "1"], "CombinatorialBlowup"),
    (["resolvent", "--n", "2000", "--p", "1000", "--scan", "0.5:1:2"], "CombinatorialBlowup"),
    (["alpha", "--field", "R", "--n", "1048576"], "DomainError"),  # the first past the cap
    (["alpha", "--field", "R", "--n", "100000000000000"], "DomainError"),
    # arguments that do not parse
    (["green", "--field", "R", "--n", "3", "--s", "abc", "--r-grid", "1:2:3"], "DomainError"),
    (["green", "--field", "R", "--n", "3", "--s", "1", "--r-grid", "1:2"], "DomainError"),
    (["green", "--field", "R", "--n", "3", "--s", "1", "--r-grid", "0:2:3", "--log"],
     "DomainError"),
])
def test_library_errors_exit_3(monkeypatch, capsys, argv, error):
    monkeypatch.delenv("HYPSPEC_MAX_WORDS", raising=False)
    code, out = run(capsys, *argv)
    assert code == 3
    doc = json.loads(out)
    assert list(doc) == ["error"]
    assert doc["error"]["type"] == error and doc["error"]["message"]


@pytest.mark.parametrize("value", ["abc", "1e3", "0", "-5"])
def test_delta_rejects_a_bad_word_cap_in_the_environment(monkeypatch, capsys, value):
    # these once ended as a bare ValueError, or as a cap of -5 words
    monkeypatch.setenv("HYPSPEC_MAX_WORDS", value)
    code, out = run(capsys, "delta", "--group-file", str(GROUPS / "cyclic_h3.json"))
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError"
    assert "HYPSPEC_MAX_WORDS" in error["message"]


def test_green_large_integer_gap_ends_in_a_structured_error(capsys):
    # a - b = 199: the finite part of the logarithmic series once took
    # 198! as a float (OverflowError traceback); the 2F1 is now summed, and
    # the kernel at r = 0.5, 2F1 = 2.79e117 times a prefactor of about
    # 1e235, passes the float64 range
    code, out = run(capsys, "green", "--field", "C", "--n", "200", "--s", "1",
                    "--r-grid", "0.5:1:2")
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "DomainError", "message": "the kernel at r=0.5 passes the float64 range"}


def mp_kernel(d, n, s, r):
    """g0(s, r) = C(s) (2 sinh^2 r)^(-a) 2F1(a, b; s+1; -1/sinh^2 r) by mpmath."""
    s, r = mpmath.mpf(s), mpmath.mpf(r)
    m_alpha, dn = d * (n - 1), d * n
    a, b, c = (s + m_alpha / 2 + d - 1) / 2, (s + 1) / 2 - mpmath.mpf(m_alpha) / 4, s + 1
    C = (2 ** a * max(dn - 2, 1) * mpmath.gamma(a) * mpmath.gamma(c - b)
         / (4 * mpmath.pi ** (mpmath.mpf(dn) / 2) * mpmath.gamma(c)))
    sh2 = mpmath.sinh(r) ** 2
    return complex(C * (2 * sh2) ** -a * mpmath.hyp2f1(a, b, c, -1 / sh2))


def test_green_at_large_negative_s_matches_mpmath(capsys):
    # R^256 at s = -100.3 (c = -99.3): the kernel at r = 1 once came back
    # 28 orders of magnitude off with exit 0
    code, out = run(capsys, "green", "--field", "R", "--n", "256", "--s=-100.3",
                    "--r-grid", "0.5:1.5:3")
    assert code == 0
    with mpmath.workdps(30):
        for row in json.loads(out)["rows"]:
            ref = mp_kernel(1, 256, -100.3, row["r"])
            assert abs(complex(row["re"], row["im"]) - ref) <= 1e-10 * abs(ref)


def test_cancelled_series_is_a_numerical_failure(monkeypatch, capsys):
    # a 2F1 whose rounding error bound passes the cancellation threshold
    # (here made 0) ends in exit 4 with a JSON body
    monkeypatch.setattr(hyper, "_CANCEL", 0.0)
    code, out = run(capsys, "green", "--field", "R", "--n", "3", "--s", "1", "--r-grid", "1:2:2")
    assert code == 4
    error = json.loads(out)["error"]
    assert error["type"] == "NumericalError" and "cancels" in error["message"]


def test_green_kernel_past_the_float64_range_is_a_domain_error(capsys):
    # the prefactor guard passes at r = 1e-3 and its product with the 2F1
    # overflows; this once printed "re": "inf" and exited 0
    code, out = run(capsys, "green", "--field", "R", "--n", "94", "--s", "1",
                    "--r-grid", "1e-3:50:6", "--log")
    assert code == 3
    assert json.loads(out)["error"] == {
        "type": "DomainError", "message": "the kernel at r=0.001 passes the float64 range"}


def test_green_2f1_past_the_float64_range_is_a_domain_error(capsys):
    # (-z)^65 of the 1/z connection overflows at |z| ~ 1e186; this once
    # ended in a traceback (OverflowError, exit 1)
    code, out = run(capsys, "green", "--field", "R", "--n", "134", "--s=-64.2734072396132",
                    "--r-grid", "6.88e-94:7e-94:2")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "DomainError" and "passes the float64 range" in error["message"]


def test_green_gamma_pole_next_to_the_holomorphy_boundary(capsys):
    # a = (s + 1)/2 is within 1e-12 of the pole of Gamma at 0
    code, out = run(capsys, "green", "--field", "R", "--n", "3", "--s=-0.9999999999999",
                    "--r-grid", "1:2:2")
    assert code == 4
    assert json.loads(out)["error"]["type"] == "PoleOfGamma"


def complex_text(re_part, im_part):
    return f"{re_part!r}{im_part:+}i"


# spectral parameters on both sides of Re s = 0
IM_PARTS = st.sampled_from([0.0, -1.5, 0.3, 2.0])
SPECTRAL = st.builds(complex_text, st.floats(-4.0, 6.0), IM_PARTS)
# log-uniform radii over the kernel's documented domain, r >= 1e-154
RADIUS = st.floats(math.log(1e-154), math.log(500.0)).map(math.exp)


@st.composite
def green_argv(draw):
    field = draw(st.sampled_from("RCHO"))
    n = draw(st.integers(1, 3 if field == "O" else 256))
    # Re s down to the holomorphy boundary -m_alpha/2
    m_alpha = {"R": 1, "C": 2, "H": 4, "O": 8}[field] * (n - 1)
    s = complex_text(draw(st.floats(min(-m_alpha / 2, -4.0), 6.0)), draw(IM_PARTS))
    start, stop = sorted([draw(RADIUS), draw(RADIUS)])
    grid = f"{start!r}:{stop!r}:{draw(st.integers(1, 8))}"
    return (["green", "--field", field, "--n", str(n), f"--s={s}", "--r-grid", grid]
            + ["--log"] * draw(st.booleans()))


@st.composite
def resolvent_argv(draw):
    n = draw(st.integers(2, 12))
    argv = ["resolvent", "--n", str(n), "--p", str(draw(st.integers(0, n))),
            "--order", str(draw(st.integers(1, 40)))]
    if draw(st.booleans()):
        lo = draw(st.floats(-2.0, 4.0))
        return argv + [f"--scan={lo!r}:{lo + draw(st.floats(0.0, 2.0))!r}:{draw(st.integers(1, 3))}"]
    argv.append(f"--s={draw(SPECTRAL)}")
    if draw(st.booleans()):
        argv.append("--signs=" + draw(st.sampled_from(["+", "-", "+-", "--"])))
    return argv + ["--t-grid", f"{draw(st.floats(0.5, 6.0))!r}:8:{draw(st.integers(1, 4))}"]


@st.composite
def bounds_argv(draw):
    return ["bounds", "--field", draw(st.sampled_from("RCHO")), "--n", str(draw(st.integers(1, 300))),
            "--p", str(draw(st.integers(0, 40))), f"--delta={draw(st.floats(-5.0, 1e3))!r}"]


@st.composite
def alpha_argv(draw):
    return ["alpha", "--field", draw(st.sampled_from("RCHO")), "--n", str(draw(st.integers(1, 300)))]


@st.composite
def group_doc(draw):
    """A malformed group document, or a valid one of one or two boosts."""
    if draw(st.booleans()):
        return draw(st.sampled_from(MALFORMED_GROUPS))
    n = draw(st.integers(2, 3))
    gens = [{"label": f"g{i}", "matrix": [[format(v, ".17g") for v in row]
                                          for row in boost_matrix(n, t)]}
            for i, t in enumerate(draw(st.lists(st.floats(0.05, 6.0), min_size=1, max_size=2)))]
    return {"model": {"type": "real_hyperboloid", "n": n}, "generators": gens}


@st.composite
def delta_argv(draw):
    """delta's argv, with the group document in place of the file name."""
    return ["delta", draw(group_doc()), "--max-len", str(draw(st.integers(1, 6)))]


# the values of a kernel: the green and resolvent rows, the kernel grid's
# block norms and psi
KERNEL_KEYS = re.compile(r"re|im|residual|total_norm|block\d+_norm|psi|psi_sigma_min")


def kernel_values(doc):
    if isinstance(doc, dict):
        for key, value in doc.items():
            if KERNEL_KEYS.fullmatch(key) and not isinstance(value, (dict, list)):
                yield key, value
            yield from kernel_values(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from kernel_values(value)


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(alpha_argv(), bounds_argv(), green_argv(), resolvent_argv(), delta_argv()))
@example(["resolvent", "--n", "5", "--p", "1", "--s", "1", "--t-grid", "2:300:3"])
@example(["resolvent", "--n", "5", "--p", "1", "--s", "1", "--t-grid", "2:400:3"])
@example(["resolvent", "--n", "12", "--p", "5", "--s", "0.3", "--signs=-", "--t-grid", "5:700:2"])
def test_cli_contract(tmp_path, argv):
    # every argv exits 0, 2, 3 or 4, exits 3 and 4 with a JSON error, and
    # exit 0 prints no NaN and no infinite kernel value; the truncation
    # warning of a low --order is the designed one, every other warning an
    # error
    if argv[0] == "delta":
        path = tmp_path / "group.json"
        path.write_text(json.dumps(argv[1]))
        argv = ["delta", "--group-file", str(path), *argv[2:]]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.filterwarnings("ignore", category=TruncationWarning)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), argv
    if code in (3, 4):
        doc = json.loads(out.getvalue())
        assert list(doc) == ["error"] and doc["error"]["type"], argv
    elif code == 0:
        assert '"nan"' not in out.getvalue(), argv
        bad = [kv for kv in kernel_values(json.loads(out.getvalue())) if kv[1] in ("inf", "-inf")]
        assert not bad, (argv, bad)
