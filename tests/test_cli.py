"""Command-line surface: subcommands, exit codes, file outputs."""

import json
import subprocess
import sys

import pytest

from ncps import heat as ht
from ncps import numeric as nm
from ncps import symbols as sy
from ncps.checks import MAX_HEAT_DEPTH, MAX_HEAT_ORDERS, PARSERS, run_check
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
        # spectral flow has one kernel convention, numeric.KERNEL_TOL
        (["num", "flow", "--kernel-shift", "0.5"], "--kernel-shift 0.5"),
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
    cap = {"t_cap": 1} if kind == "conformal_dirac" else {}
    fam.write_text(json.dumps({"kind": kind, "dim": 3, **cap}))
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


@pytest.mark.parametrize("t_cap, orders", [(6, 4), (3, 6), (5, 5), (6, 5)])
def test_heat_t_cap_and_orders_are_bounded_jointly(tmp_path, capsys, monkeypatch, t_cap, orders):
    # (6, 4) took 40 s and 986 MB; refused before any symbol is built
    monkeypatch.setattr(sy, "dirac_symbol", None)
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "conformal_dirac", "dim": 3, "t_cap": 2}))
    code = main(["heat", "--family", str(fam), "--t-order", str(t_cap), "--orders", str(orders)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error: t_cap plus the last even order must be <= {MAX_HEAT_DEPTH} (the cost grows "
        f"three- to sixfold per step), got t_cap {t_cap} and orders {orders}\n"
    )


@pytest.mark.parametrize("t_cap, orders", [(2, 6), (4, 4), (6, 3), (4, 5)])
def test_heat_joint_bound_admits(tmp_path, capsys, monkeypatch, t_cap, orders):
    # an odd last order builds no layer, so it costs nothing past the even one
    seen = []
    monkeypatch.setattr(ht, "heat_coefficients", lambda sd2, n, localizer: seen.append(n) or [])
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "conformal_dirac", "dim": 3, "t_cap": t_cap}))
    code, out = run(capsys, "heat", "--family", str(fam), "--orders", str(orders))
    assert code == 0 and seen == [orders]
    assert json.loads(out)["family"]["t_cap"] == t_cap


def test_heat_at_the_joint_bound_runs(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "conformal_dirac", "dim": 3, "t_cap": 6}))
    code, out = run(capsys, "heat", "--family", str(fam), "--orders", "3")
    assert code == 0
    assert set(json.loads(out)["coefficients"]) == {"beta_0", "beta_1", "beta_2", "beta_3"}


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


ANOMALY_BOUND = PARSERS["anomaly_t_order"].hi


@pytest.mark.parametrize(
    "value, message",
    [
        (str(ANOMALY_BOUND + 1),
         f"anomaly_t_order must be <= {ANOMALY_BOUND} (the memory grows about 1.5-fold "
         f"per grade), got {ANOMALY_BOUND + 1}"),
        ("2.5", "anomaly_t_order must be an integer, got '2.5'"),
    ],
)
def test_anomaly_t_order_outside_its_bound_exits_2_before_any_symbol(capsys, monkeypatch, value, message):
    monkeypatch.setattr(ht, "anomaly_density", None)
    code = main(["anomaly", "--t-order", value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--cutoff", "0"], "cutoff must be >= 1 (mode box |k|_inf <= cutoff), got 0"),
        (["--cutoff", "-1"], "cutoff must be >= 1 (mode box |k|_inf <= cutoff), got -1"),
        (["--u", "1,0"], "lattice vector u has 2 entries but dim is 3"),
        (["--grid", "1"], "grid must be >= 2 points on [0, 1], got 1"),
        (["--dim", "2"], "lattice vector u has 3 entries but dim is 2"),
        (["--dim", "4", "--u", "1,0,0,0"], "gamma algebra is modeled in dimensions 2 and 3"),
        (["--u", ""], "u must be comma-separated integers, got ''"),
        (["--u", "1,-8,-7", "--grid", "5", "--cutoff", "8"], "step 1: movement 2.5 exceeds half the zero window"),
        (["--u", "1,x,0"], "u must be comma-separated integers, got '1,x,0'"),
        (["--u", "5,0,0", "--grid", "11", "--cutoff", "2"], "cutoff must be >= max|u_i| = 5, got 2"),
        (["--u", "2,1,0", "--cutoff", "1"], "cutoff must be >= max|u_i| = 2, got 1"),
    ],
)
def test_num_flow_bad_input_exits_2_with_message(capsys, argv, message):
    code = main(["num", "flow", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert "broadcast" not in captured.err
    # the flow-index check runs the same computation and gives the same
    # message as an error report
    code, out = run(capsys, "verify", "flow-index", *argv)
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "error" and report["witness"].startswith(message)


def test_num_flow_echoes_the_parsed_values(capsys):
    code, out = run(capsys, "num", "flow", "--grid", "11", "--cutoff", "2", "--u", "0,1,0")
    assert code == 0
    assert json.loads(out) == {"cutoff": 2, "dim": 3, "flow": 0, "grid": 11, "u": [0, 1, 0]}


def test_num_heat_command(capsys):
    code, out = run(capsys, "num", "heat", "--t", "0.05", "--cutoff", "40", "--dim", "3")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["scaled_trace"] - 11.1366) < 1e-3


def test_missing_family_file(capsys):
    code, _ = run(capsys, "wres", "--family", "/nonexistent/f.json")
    assert code == 2


BAD_WEYL = (
    "malformed numeric family file: weyl_modes must be a map of comma-separated integer keys "
    "to [re, im] pairs, got "
)
NEEDS_KIND_AND_DIM = "malformed numeric family file: family file needs 'kind' and integer 'dim'"


@pytest.mark.parametrize(
    "data, message",
    [
        ({"kind": "free_dirac"}, NEEDS_KIND_AND_DIM),
        ({"kind": "free_dirac", "dim": "x"}, "malformed numeric family file: dim must be an integer, got 'x'"),
        ({"kind": "free_dirac", "dim": 2, "theta": [[0, 1], [1, 0]]},
         "malformed numeric family file: deformation matrix must be skew-symmetric"),
        # each field is named, never in Python's own wording
        ([{"kind": "free_dirac", "dim": 2}], NEEDS_KIND_AND_DIM),
        ({"kind": "mystery", "dim": 2}, "malformed numeric family file: unknown family kind 'mystery'"),
        ({"kind": "coupled_dirac", "dim": 2, "theta": "x"},
         "malformed numeric family file: theta must be a skew-symmetric matrix, got 'x'"),
        ({"kind": "conformal_dirac", "dim": 3, "weyl_modes": {"1,0,0": ["0.1", 0]}},
         BAD_WEYL + "{'1,0,0': ['0.1', 0]}"),
        ({"kind": "coupled_dirac", "dim": 2, "gauge_modes": [{"1,0": [0.1, 0]}, 5]},
         "malformed numeric family file: gauge_modes must be a list of maps of comma-separated "
         "integer keys to [re, im] pairs, got [{'1,0': [0.1, 0]}, 5]"),
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


def test_num_spectrum_reads_a_null_field_as_absent(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "free_dirac", "dim": 3, "theta": None, "flow_k": None}))
    code, out = run(capsys, "num", "spectrum", "--family", str(fam), "--cutoff", "1")
    assert code == 0
    assert json.loads(out)["size"] == 54


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


T_CAP_9 = {"kind": "conformal_dirac", "dim": 3, "t_cap": 9}
T_CAP_BOUND = "t_cap must be <= 6 (the cost grows about fivefold per grade), got 9"


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("wres", T_CAP_9, T_CAP_BOUND),
        ("heat", T_CAP_9, T_CAP_BOUND),
        ("wres", {"kind": "coupled_dirac", "dim": 3.9}, "dim must be an integer, got 3.9"),
        ("wres", {"kind": "conformal_dirac", "dim": 3, "t_cap": 1.7}, "t_cap must be an integer, got 1.7"),
        ("wres", {"kind": "unitary_flow", "dim": 3, "flow_k": [1.9, 0, 0]},
         "flow_k must be a list of integers, got [1.9, 0, 0]"),
        ("heat", {"kind": "conformal_dirac", "dim": 3, "t_cap": "x"}, "t_cap must be an integer, got 'x'"),
        ("wres", {"kind": "unitary_flow", "dim": 3, "flow_k": [1, 0, 0], "flow_t": "abc"},
         "flow_t must be a rational number, got 'abc'"),
        ("wres", {"kind": "unitary_flow", "dim": 3, "flow_k": [1, 0, 0], "flow_t": "1/0"},
         "flow_t must be a rational number, got '1/0'"),
        ("wres", {"kind": "coupled_dirac", "dim": 3, "gauge": 5},
         "gauge must be a list of generator names, got 5"),
        ("wres", {"kind": "coupled_dirac", "dim": 3, "gauge": ["A1", 2, "A3"]},
         "gauge must be a list of generator names, got ['A1', 2, 'A3']"),
        ("num spectrum", {"kind": "free_dirac", "dim": 3.9},
         "malformed numeric family file: dim must be an integer, got 3.9"),
        ("num spectrum", {"kind": "conformal_dirac", "dim": 3, "weyl_modes": {"1.5,0,0": [0.1, 0.0]}},
         f"{BAD_WEYL}{{'1.5,0,0': [0.1, 0.0]}}"),
        ("num spectrum", {"kind": "conformal_dirac", "dim": 3, "weyl_modes": {"1,0,0": [0.1]}},
         f"{BAD_WEYL}{{'1,0,0': [0.1]}}"),
        ("num spectrum", {"kind": "conformal_dirac", "dim": 3, "weyl_modes": 5}, f"{BAD_WEYL}5"),
        ("wres", {"kind": "coupled_dirac", "dim": 3, "t_cap": 1, "flow_k": [1, 2, 3]},
         "a coupled_dirac family does not read 't_cap', 'flow_k'"),
        ("wres", {"kind": "unitary_flow", "dim": 3, "flow_k": [1, 0, 0], "flowt": "1/2"},
         "a unitary_flow family does not read 'flowt'"),
        ("heat", {"kind": "free_dirac", "dim": 3, "weyl": "h", "gauge": None},
         "a free_dirac family does not read 'weyl'"),
    ],
)
def test_malformed_family_file_exits_2_before_any_symbol(tmp_path, capsys, monkeypatch, command, data, message):
    # integers in a family file parse as check configs do, and its t_cap has
    # the bound of --t-order; all is refused before the engine is reached
    for module, name in ((sy, "dirac_symbol"), (sy, "sign_symbol"), (nm, "build_operator")):
        monkeypatch.setattr(module, name, None)
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(data))
    code = main([*command.split(), "--family", str(fam)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


CONFORMAL_NUMERIC = {"kind": "conformal_dirac", "dim": 3, "weyl_modes": {"1,0,0": [0.1, 0.0], "-1,0,0": [0.1, 0.0]}}


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["num", "spectrum", "--t", "nan"], CONFORMAL_NUMERIC, "family parameter t must be finite, got nan"),
        (["num", "spectrum", "--t", "inf"], {"kind": "free_dirac", "dim": 3},
         "family parameter t must be finite, got inf"),
        (["num", "heat", "--cutoff", "-1"], None, "cutoff must be >= 0 (mode box |k|_inf <= cutoff), got -1"),
        (["num", "heat", "--dim", "5"], None, "gamma algebra is modeled in dimensions 2 and 3"),
        (["num", "heat", "--t", "inf"], None, "heat parameter must be positive and finite"),
        (["num", "spectrum"], {"kind": "free_dirac", "dim": 3, "Theta": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]},
         "a free_dirac family does not read 'Theta'"),
        # the cutoff is checked before the support of the Weyl element
        (["num", "spectrum", "--cutoff", "-1"], CONFORMAL_NUMERIC,
         "cutoff must be >= 0 (mode box |k|_inf <= cutoff), got -1"),
        # JSON NaN and Infinity parse, and are refused as coefficients
        (["num", "spectrum", "--t", "0.5"],
         {**CONFORMAL_NUMERIC, "weyl_modes": {"0,0,0": [float("nan"), 0.0]}},
         "malformed numeric family file: Fourier coefficients must be finite, got (nan+0j)"),
        (["num", "spectrum"],
         {"kind": "coupled_dirac", "dim": 2, "gauge_modes": [{"0,0": [float("inf"), 0.0]}, {}]},
         "malformed numeric family file: Fourier coefficients must be finite, got (inf+0j)"),
        (["num", "spectrum", "--t", "20000"], CONFORMAL_NUMERIC,
         "exp(s h) overflows at s = 10000.0"),
        # a field the kind does not read is parsed, then refused
        (["num", "spectrum"],
         {"kind": "coupled_dirac", "dim": 3, "flow_k": [1, 0, 0],
          "weyl_modes": CONFORMAL_NUMERIC["weyl_modes"], "gauge_modes": [{}, {}, {}]},
         "a coupled_dirac family does not read 'flow_k', 'weyl_modes'"),
        (["num", "spectrum"], {"kind": "free_dirac", "dim": 2, "theta": [[0, 0.3], [-0.3, 0]]},
         "a free_dirac family does not read 'theta'"),
        (["num", "spectrum"], {**CONFORMAL_NUMERIC, "gauge_modes": [{}, {}, {}], "flow_k": None},
         "a conformal_dirac family does not read 'gauge_modes'"),
        (["num", "spectrum"],
         {"kind": "unitary_flow", "dim": 3, "flow_k": [1, 0, 0], "theta": [[0, 0, 0]] * 3},
         "a unitary_flow family does not read 'theta'"),
    ],
)
def test_numeric_input_outside_the_model_exits_2(tmp_path, capsys, argv, data, message):
    if data is not None:
        fam = tmp_path / "fam.json"
        fam.write_text(json.dumps(data))
        # the default cutoff 1 goes first, so a cutoff in argv overrides it
        argv = [*argv[:2], "--family", str(fam), "--cutoff", "1", *argv[2:]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_malformed_family_file_through_the_entry_point_has_no_traceback(tmp_path):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({"kind": "unitary_flow", "dim": 3, "flow_k": ["a", 0, 0]}))
    proc = subprocess.run(
        [sys.executable, "-m", "ncps.cli", "wres", "--family", str(fam)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: flow_k must be a list of integers, got ['a', 0, 0]\n"


NOT_CONFORMAL = "--t-order sets the cap of a conformal_dirac family, not "


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["wres", "--compose", "none", "--floor", "0"], {"kind": "coupled_dirac", "dim": 3},
         "--floor is not read with --compose none, whose symbol is exact"),
        (["wres", "--t-order", "2"], {"kind": "coupled_dirac", "dim": 3}, NOT_CONFORMAL + "coupled_dirac"),
        (["heat", "--t-order", "2"], {"kind": "free_dirac", "dim": 2}, NOT_CONFORMAL + "free_dirac"),
        (["wres", "--t-order", "0"], {"kind": "unitary_flow", "dim": 3, "flow_k": [1, 0, 0]},
         NOT_CONFORMAL + "unitary_flow"),
    ],
)
def test_wres_and_heat_unread_flag_exits_2_naming_it(tmp_path, capsys, argv, data, message):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(data))
    code = main([*argv, "--family", str(fam)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"
