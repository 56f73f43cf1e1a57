import json
import math

import pytest

from hypspec.cli import main, to_json
from hypspec.orbits import boost_matrix


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


def test_delta_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out = run(capsys, "delta", "--group-file", str(path))
    assert code == 3


def test_delta_missing_file(capsys):
    code, out = run(capsys, "delta", "--group-file", "/nonexistent/file.json")
    assert code == 3


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


def test_resolvent_dense_output_over_cap_is_refused(capsys):
    # the psi matrix at (14, 7) would have C(14,7)^2 = 11778624 entries
    code, out = run(capsys, "resolvent", "--n", "14", "--p", "7", "--s", "1")
    assert code == 3
    assert json.loads(out)["error"]["type"] == "CombinatorialBlowup"
