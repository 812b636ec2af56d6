"""Command-line surface: subcommands, exit codes, file outputs."""

import json

import pytest

from ncps.checks import MAX_HEAT_ORDERS, run_check
from ncps.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list(capsys):
    code, out = run(capsys, "list")
    assert code == 0
    assert "eta-coupled" in out and "flow-index" in out


def test_verify_pass_and_json(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(capsys, "verify", "eta-invariance", "--json", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["status"] == "pass"
    assert json.loads(out) == payload


def test_verify_flow_flags(capsys):
    code, out = run(capsys, "verify", "flow-index", "--u", "1,0,0", "--grid", "41", "--cutoff", "4")
    assert code == 0
    assert json.loads(out)["details"]["flow"] == 0


def test_verify_error_exit_code(capsys):
    code, _ = run(capsys, "verify", "flow-index", "--grid", "1")
    assert code == 2


def test_verify_negative_cutoff_is_clean_error(capsys):
    code, out = run(capsys, "verify", "flow-index", "--cutoff", "-1")
    assert code == 2
    payload = json.loads(out)
    assert payload["witness"].startswith("cutoff must be >= 1")
    assert "broadcast" not in out


@pytest.mark.parametrize("name", ["eta-coupled", "eta-conformal"])
def test_verify_floor_above_residue_degree_exits_2(capsys, name):
    code, out = run(capsys, "verify", name, "--floor", "5")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["witness"].endswith("got 5")
    assert "floor 6" not in payload["witness"]


def test_verify_unread_flags_are_error(capsys):
    code, out = run(capsys, "verify", "eta-coupled", "--dim", "2", "--cutoff", "99")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["witness"] == "check 'eta-coupled' does not read cutoff, dim; it reads: floor"


def test_verify_has_no_theta_flag(capsys):
    # no check reads a deformation matrix, and neither does `num flow`
    with pytest.raises(SystemExit) as exc:
        main(["verify", "flow-index", "--theta", "x"])
    assert exc.value.code != 0
    assert "--theta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["num", "flow", "--theta", "theta.json"], "--theta"),
        (["anomaly", "--dim", "2"], "--dim"),
    ],
)
def test_removed_flags_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_wres_family_file(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "coupled_dirac", "dim": 3}))
    code, out = run(capsys, "wres", "--family", str(fam), "--compose", "sign")
    assert code == 0
    payload = json.loads(out)
    assert payload["vanishing_level"] == "trace"


def test_wres_malformed_family(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "mystery", "dim": 3}))
    code, _ = run(capsys, "wres", "--family", str(fam))
    assert code == 2
    fam.write_text("{not json")
    code, _ = run(capsys, "wres", "--family", str(fam))
    assert code == 2


def test_heat_command(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "conformal_dirac", "dim": 3, "t_cap": 1}))
    code, out = run(capsys, "heat", "--family", str(fam), "--orders", "3", "--localizer", "h")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"]["beta_1"]["traced"] == "0"


@pytest.mark.parametrize(
    "argv, kind, check, config",
    [
        (["wres", "--floor", "-7"], "coupled_dirac", "eta-coupled", {"floor": -7}),
        (["wres", "--compose", "abs-inverse", "--floor", "-6"], "coupled_dirac", "eta-coupled", {"floor": -6}),
        (["wres", "--t-order", "7"], "conformal_dirac", "zeta-conformal", {"t_order": 7}),
        (["wres", "--t-order", "9"], "coupled_dirac", "zeta-conformal", {"t_order": 9}),
        (["heat", "--t-order", "7"], "conformal_dirac", "zeta-conformal", {"t_order": 7}),
        (["wres", "--compose", "abs-inverse", "--floor", "0"], "coupled_dirac", "eta-coupled", {"floor": 0}),
        (["wres", "--compose", "sign", "--floor", "1"], "coupled_dirac", "eta-coupled", {"floor": 1}),
        (["wres", "--floor", "-2"], "conformal_dirac", "eta-coupled", {"floor": -2}),
    ],
)
def test_wres_and_heat_bounds_exit_2_with_the_verify_message(tmp_path, capsys, argv, kind, check, config):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": kind, "dim": 3, "t_cap": 1}))
    code = main([*argv, "--family", str(fam)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {run_check(check, config).witness}\n"


def test_wres_keeps_the_floor_of_a_2d_family(tmp_path, capsys):
    # the residue floor -3 of the 3-d checks is not a bound of `wres`
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "conformal_dirac", "dim": 2, "t_cap": 1}))
    for argv in ([], ["--floor", "-2"]):
        code, out = run(capsys, "wres", "--family", str(fam), *argv)
        assert code == 0 and json.loads(out)["floor"] == -2
    for compose in ("sign", "abs-inverse"):
        code = main(["wres", "--family", str(fam), "--compose", compose, "--floor", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "error: floor must be <= -2 (the residue reads the degree -2 component), got -1\n"
        )


def test_heat_orders_above_the_bound_exit_2_naming_the_value(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "conformal_dirac", "dim": 3, "t_cap": 2}))
    code = main(["heat", "--family", str(fam), "--orders", str(MAX_HEAT_ORDERS + 1)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: orders must be <= {MAX_HEAT_ORDERS} ")
    assert captured.err.endswith(f", got {MAX_HEAT_ORDERS + 1}\n")


def test_heat_command_negative_orders_is_clean_error(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "free_dirac", "dim": 2}))
    code = main(["heat", "--family", str(fam), "--orders", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be >= 0, got -1" in captured.err


def test_anomaly_command(capsys):
    code, out = run(capsys, "anomaly", "--t-order", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["density_per_grade"]["t^0"] == "0"
    assert "d(1,1)(h)" in payload["density_per_grade"]["t^1"]


def test_cs_density_command(capsys):
    code, out = run(capsys, "cs-density")
    assert code == 0
    payload = json.loads(out)
    assert "dA1" in payload["tau_class"]


def test_num_spectrum_with_csv(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "free_dirac", "dim": 3}))
    csv = tmp_path / "spec.csv"
    code, out = run(capsys, "num", "spectrum", "--family", str(fam), "--cutoff", "1", "--csv", str(csv))
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 2 * 27
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 2 * 27


def test_num_spectrum_numeric_family(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(
        json.dumps(
            {
                "kind": "conformal_dirac",
                "dim": 3,
                "theta": [[0, 0.3, 0.1], [-0.3, 0, 0.2], [-0.1, -0.2, 0]],
                "weyl_modes": {"1,0,0": [0.15, 0.0], "-1,0,0": [0.15, 0.0]},
            }
        )
    )
    code, out = run(capsys, "num", "spectrum", "--family", str(fam), "--cutoff", "2", "--t", "0.1")
    assert code == 0
    assert json.loads(out)["hermiticity_defect"] < 1e-12


def test_num_flow_command(capsys):
    code, out = run(capsys, "num", "flow", "--u", "1,0,0", "--grid", "51", "--cutoff", "4")
    assert code == 0
    assert json.loads(out)["flow"] == 0


SHIFT_BOUND = "kernel_shift must be < 1 (the smallest nonzero |n| at the endpoints), got "


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--cutoff", "0"], "cutoff must be >= 1 (mode box |k|_inf <= cutoff), got 0"),
        (["--cutoff", "-1"], "cutoff must be >= 1 (mode box |k|_inf <= cutoff), got -1"),
        (["--u", "1,0"], "lattice vector u has 2 entries but dim is 3"),
        (["--grid", "1"], "grid must be >= 2 points on [0, 1], got 1"),
        (["--kernel-shift", "-1"], "kernel shift must be >= 0, got -1.0"),
        (["--kernel-shift", "nan"], "kernel shift must be >= 0, got nan"),
        (["--kernel-shift", "0", "--grid", "11", "--cutoff", "2"], "exact zero eigenvalue at grid point 0"),
        (["--u", "1,-8,-7", "--grid", "5", "--cutoff", "8"], "step 1: movement 2.5 exceeds half the zero window"),
        (["--u", "1,x,0"], "u must be comma-separated integers, got '1,x,0'"),
        (["--u", "5,0,0", "--grid", "11", "--cutoff", "2"], "cutoff must be >= max|u_i| = 5, got 2"),
        (["--u", "2,1,0", "--cutoff", "1"], "cutoff must be >= max|u_i| = 2, got 1"),
        (["--kernel-shift", "inf"], f"{SHIFT_BOUND}'inf'"),
        (["--kernel-shift", "1e300"], f"{SHIFT_BOUND}'1e300'"),
        (["--kernel-shift", "1"], f"{SHIFT_BOUND}'1'"),
        (["--kernel-shift=-inf"], "kernel shift must be >= 0, got -inf"),
        (["--kernel-shift", "x"], "kernel_shift must be a number, got 'x'"),
    ],
)
def test_num_flow_bad_input_exits_2_with_message(capsys, argv, message):
    code = main(["num", "flow", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert "broadcast" not in captured.err


def test_num_flow_echoes_the_parsed_shift(capsys):
    code, out = run(capsys, "num", "flow", "--grid", "11", "--cutoff", "2", "--kernel-shift", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["kernel_shift"] == 0.5 and payload["flow"] == 0


def test_num_heat_command(capsys):
    code, out = run(capsys, "num", "heat", "--t", "0.05", "--cutoff", "40", "--dim", "3")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["scaled_trace"] - 11.1366) < 1e-3


def test_missing_family_file(capsys):
    code, _ = run(capsys, "wres", "--family", "/nonexistent/f.json")
    assert code == 2


@pytest.mark.parametrize(
    "data, message",
    [
        ({"kind": "free_dirac"}, "malformed numeric family file: 'dim'"),
        ({"kind": "free_dirac", "dim": "x"}, "malformed numeric family file: invalid literal"),
        ({"kind": "free_dirac", "dim": 2, "theta": [[0, 1], [1, 0]]},
         "malformed numeric family file: deformation matrix must be skew-symmetric"),
    ],
)
def test_num_spectrum_malformed_family_file_exits_2(tmp_path, capsys, data, message):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(data))
    code = main(["num", "spectrum", "--family", str(fam), "--cutoff", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_num_spectrum_coupled_modes(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(
        json.dumps(
            {
                "kind": "coupled_dirac",
                "dim": 3,
                "theta": [[0, 0.3, 0.1], [-0.3, 0, 0.2], [-0.1, -0.2, 0]],
                "gauge_modes": [
                    {"1,0,0": [0.1, 0.0], "-1,0,0": [0.1, 0.0]},
                    {"0,1,0": [0.1, 0.0], "0,-1,0": [0.1, 0.0]},
                    {"0,0,1": [0.1, 0.0], "0,0,-1": [0.1, 0.0]},
                ],
            }
        )
    )
    code, out = run(capsys, "num", "spectrum", "--family", str(fam), "--cutoff", "2")
    assert code == 0
    assert json.loads(out)["hermiticity_defect"] < 1e-12


def test_wres_t_order_override(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "conformal_dirac", "dim": 3, "t_cap": 1}))
    code, out = run(capsys, "wres", "--family", str(fam), "--t-order", "2")
    assert code == 0
    assert json.loads(out)["family"]["t_cap"] == 2


def test_cs_density_deterministic(capsys):
    code1, out1 = run(capsys, "cs-density")
    code2, out2 = run(capsys, "cs-density")
    assert code1 == code2 == 0
    assert out1 == out2


def test_num_spectrum_flow_family(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "unitary_flow", "dim": 3, "flow_k": [1, 0, 0]}))
    code, out = run(capsys, "num", "spectrum", "--family", str(fam), "--cutoff", "1", "--t", "0.5")
    assert code == 0
    vals = json.loads(out)["eigenvalues"]
    assert min(abs(v) for v in vals) > 0.4  # shifted spectrum avoids zero


def test_installed_entry_point_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ncps.cli", "verify", "eta-invariance"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "pass"


@pytest.mark.parametrize("dim, u", [("4", "1,0,0,0"), ("1", "1")])
def test_verify_flow_unmodeled_dimension_exits_2(capsys, dim, u):
    code, out = run(capsys, "verify", "flow-index", "--dim", dim, "--u", u)
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert "dimensions 2 and 3" in payload["witness"]


@pytest.mark.parametrize("dim", [4, 1])
def test_num_spectrum_unmodeled_dimension_exits_2(tmp_path, capsys, dim):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "free_dirac", "dim": dim}))
    code = main(["num", "spectrum", "--family", str(fam), "--cutoff", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "gamma algebra is modeled in dimensions 2 and 3" in captured.err


def test_verify_unparsable_u_prints_the_error_report(capsys):
    code, out = run(capsys, "verify", "flow-index", "--u", "1,x")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["witness"] == "u must be comma-separated integers, got '1,x'"
    assert payload["params"]["u"] == "1,x"
