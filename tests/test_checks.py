"""Named verifications: registry semantics, determinism, report invariants."""

import json
from pathlib import Path

import pytest

from ncps import heat as ht
from ncps import numeric as nm
from ncps import symbols as sy
from ncps.algebra import AlgebraElement
from ncps.checks import CHECKS, _residue_verdict, run_check
from ncps.scalars import DomainError, ExactScalar


def test_registry_has_descriptions():
    assert set(CHECKS) == {
        "eta-coupled",
        "eta-conformal",
        "eta-invariance",
        "zeta-conformal",
        "res-heat",
        "cs-density",
        "flow-index",
    }
    for spec in CHECKS.values():
        assert spec.description


def test_unknown_check_raises():
    with pytest.raises(KeyError):
        run_check("no-such-check")


def test_pass_reports_have_null_witness():
    report = run_check("eta-invariance")
    assert report.passed
    assert report.witness is None
    assert report.vanishing_level in ("density", "trace", "tau", "n-a")
    assert "conventions" in report.params


def test_flow_index_report():
    report = run_check("flow-index", {"grid": 51, "cutoff": 4})
    assert report.passed
    assert report.details["flow"] == 0
    assert report.params["grid"] == 51


def test_eta_conformal_per_grade_details():
    report = run_check("eta-conformal", {"t_order": 1})
    assert report.passed
    assert set(report.details["per_grade"]) == {"t^0", "t^1"}
    assert all(v != "none" for v in report.details["per_grade"].values())
    # the one-sided closed form differs from the two-sided solution beyond t^0
    assert report.details["sigma0_one_sided_matches"]["t^0"] is True


def test_reports_are_deterministic_mod_elapsed():
    r1 = run_check("res-heat")
    r2 = run_check("res-heat")
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1.pop("elapsed_ms")
    d2.pop("elapsed_ms")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)


def test_config_overrides_are_echoed():
    report = run_check("zeta-conformal", {"t_order": 1})
    assert report.params["t_order"] == 1
    assert report.passed


def test_error_reports_on_bad_config():
    report = run_check("flow-index", {"grid": 1})
    assert report.status == "error"
    assert report.witness is not None


@pytest.mark.parametrize(
    "config, message",
    [
        ({"cutoff": -1}, "cutoff must be >= 1"),
        ({"cutoff": 0}, "cutoff must be >= 1"),
        ({"grid": -3}, "grid must be >= 2"),
        ({"grid": 1}, "grid must be >= 2"),
    ],
)
def test_flow_index_out_of_range_is_error_report(config, message):
    report = run_check("flow-index", config)
    assert report.status == "error"
    assert report.witness.startswith(message)
    assert "broadcast" not in report.witness and "samples" not in report.witness


def test_family_error_becomes_error_report():
    report = run_check("eta-conformal", {"t_order": -1})
    assert report.status == "error"
    assert "t cap" in report.witness
    json.loads(report.to_json())


@pytest.mark.parametrize("name", ["eta-coupled", "eta-conformal"])
@pytest.mark.parametrize("floor", [-2, 0, 5])
def test_floor_above_residue_degree_names_given_value(name, floor):
    report = run_check(name, {"floor": floor})
    assert report.status == "error"
    assert report.witness == (
        f"floor must be <= -3 (the residue reads the degree -3 component), got {floor}"
    )
    assert report.params["floor"] == floor


def test_flow_index_dimension_mismatch_is_error_report():
    report = run_check("flow-index", {"dim": 2})
    assert report.status == "error"
    assert report.witness == "lattice vector u has 3 entries but dim is 2"
    assert report.params["u"] == (1, 0, 0)


@pytest.mark.parametrize(
    "name, config, unread",
    [
        ("eta-invariance", {"t_order": 5}, "t_order"),
        ("flow-index", {"theta": "0.3", "grid": 11, "cutoff": 2}, "theta"),
    ],
)
def test_unread_key_is_error_report(name, config, unread):
    report = run_check(name, config)
    assert report.status == "error"
    assert f"does not read {unread};" in report.witness
    assert report.params[unread] == config[unread]


@pytest.mark.parametrize(
    "config, message, cutoff",
    [
        ({"grid": 11, "cutoff": 2, "u": (5, 0, 0)}, "cutoff must be >= max|u_i| = 5, got 2", 5),
        ({"grid": 101, "cutoff": 1, "u": (2, 1, 0)}, "cutoff must be >= max|u_i| = 2, got 1", 2),
    ],
)
def test_flow_index_cutoff_below_the_shift_is_error_report(config, message, cutoff):
    # the endpoint kernel mode -u lies outside the box: this read as a false
    # fail with flow -1 before the cutoff was checked against u
    report = run_check("flow-index", config)
    assert report.status == "error"
    assert report.witness == message
    assert run_check("flow-index", {**config, "cutoff": cutoff}).passed


@pytest.mark.parametrize("name", ["eta-coupled", "eta-conformal"])
@pytest.mark.parametrize("floor", [-6, "-9"])
def test_residue_floor_is_bounded_below(name, floor, monkeypatch):
    monkeypatch.setattr(sy, "sign_symbol", None)  # rejected before any symbol
    report = run_check(name, {"floor": floor})
    assert report.status == "error"
    assert report.witness == (
        f"floor must be >= -5 (the word-terms grow about sevenfold per degree), got {int(floor)}"
    )
    assert report.params["floor"] == int(floor)  # it parsed, so the echo is parsed


def test_kernel_shift_is_not_read():
    # spectral flow has one kernel convention, numeric.KERNEL_TOL
    report = run_check("flow-index", {"kernel_shift": 1e-6})
    assert report.status == "error"
    assert report.witness == (
        "check 'flow-index' does not read kernel_shift; it reads: cutoff, dim, grid, u"
    )


def test_json_roundtrip():
    report = run_check("eta-invariance")
    payload = json.loads(report.to_json())
    assert payload["check"] == "eta-invariance"
    assert payload["status"] == "pass"


@pytest.mark.parametrize("dim, u", [(4, (1, 0, 0, 0)), (1, (1,))])
def test_flow_index_unmodeled_dimension_is_error_report(dim, u):
    report = run_check("flow-index", {"dim": dim, "u": u, "grid": 11, "cutoff": 2})
    assert report.status == "error"
    assert report.witness == "gamma algebra is modeled in dimensions 2 and 3"


class _Density:
    """A residue density that vanishes at a given level, as the verdict reads it."""

    def __init__(self, level):
        self.level = level
        self.tau_value = AlgebraElement.rational(5)

    def vanishing_level(self):
        return self.level


@pytest.mark.parametrize(
    "level, grades, verdict",
    [
        ("trace", None, ("pass", "trace", None)),
        ("density", {"t^0": "density", "t^1": "tau"}, ("pass", "tau", None)),
        ("none", None, ("fail", "none", "5")),
        # a grade that does not vanish fails the residue, witnessed by its trace class
        ("trace", {"t^0": "trace", "t^1": "none"}, ("fail", "none", "5")),
    ],
)
def test_residue_verdict_takes_the_weakest_level(level, grades, verdict):
    assert _residue_verdict(_Density(level), grades) == verdict


PI_WITNESS = {1: "pi", 2: "(2 * pi)", 7: "(7 * pi)"}


@pytest.mark.parametrize(
    "broken, witness",
    [
        ({"flat pair"}, 1),
        ({"conformal pair"}, 2),
        ({"flat value"}, 7),
        # the flat pair wins over the conformal pair, which wins over the flat value
        ({"flat pair", "conformal pair", "flat value"}, 1),
        ({"conformal pair", "flat value"}, 2),
        ({"flat pair", "flat value"}, 1),
    ],
)
def test_res_heat_failure_witness(monkeypatch, broken, witness):
    # both sides are multiples of pi, and so is what is injected: the flat
    # pair's sides differ by pi, the conformal pair's by 2 pi, and a flat
    # value off 4 pi is 3 pi more on both sides, so each failure renders
    # apart as the multiple of pi given
    crosscheck = ht.res_heat_crosscheck
    pi = AlgebraElement.scalar(ExactScalar.pi_half(2))

    def broken_crosscheck(k, fam):
        pair = crosscheck(k, fam)
        lhs, rhs = pair.lhs_traced, pair.rhs_traced
        name = "flat" if fam.kind == "free_dirac" else "conformal"
        if f"{name} value" in broken:
            lhs, rhs = lhs + pi.scale_rational(3), rhs + pi.scale_rational(3)
        if f"{name} pair" in broken:
            rhs = rhs - pi.scale_rational(1 if name == "flat" else 2)
        return ht.ResHeatPair(lhs, rhs)

    monkeypatch.setattr(ht, "res_heat_crosscheck", broken_crosscheck)
    report = run_check("res-heat")
    assert (report.status, report.vanishing_level) == ("fail", "n-a")
    assert report.witness == PI_WITNESS[witness]
    assert report.details["flat"]["agree"] is ("flat pair" not in broken)
    assert report.details["flat"]["equals_4pi"] is ("flat value" not in broken)
    assert report.details["conformal"]["agree"] is ("conformal pair" not in broken)


PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"


def test_default_reports_match_the_benchmark_pins():
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    for name in CHECKS:
        report = json.loads(run_check(name).to_json())
        report.pop("elapsed_ms")
        assert report == pins[f"checks.{name}"], name


@pytest.mark.parametrize(
    "name, t_order",
    [("eta-conformal", 7), ("eta-conformal", 99), ("zeta-conformal", 7), ("res-heat", 7)],
)
def test_t_order_above_the_limit_is_error_report(name, t_order, monkeypatch):
    def no_symbols(*_a, **_k):
        raise AssertionError("the bound is checked before any symbol is built")

    monkeypatch.setattr(sy.OperatorFamily, "conformal", no_symbols)
    report = run_check(name, {"t_order": t_order})
    assert report.status == "error"
    assert report.witness == (
        f"t_order must be <= 6 (the cost grows about fivefold per grade), got {t_order}"
    )
    assert report.params["t_order"] == t_order


def test_t_order_limit_admits_six():
    # the limit itself stays allowed; res-heat is the cheap check that reads it
    report = run_check("res-heat", {"t_order": 6})
    assert report.passed
    assert report.params["t_order"] == 6


def test_zeta_conformal_at_the_t_order_limit():
    # beta_1 and beta_3 vanish for both families at the deepest grade allowed
    report = run_check("zeta-conformal", {"t_order": 6})
    assert report.passed and report.vanishing_level == "trace"
    zero = {"beta_1": "zero", "beta_3": "zero"}
    assert report.details == {"flat": zero, "conformal": zero}


@pytest.mark.parametrize(
    "name, config, message",
    [
        ("flow-index", {"u": "1,x"}, "u must be comma-separated integers, got '1,x'"),
        ("flow-index", {"dim": "three"}, "dim must be an integer, got 'three'"),
        ("flow-index", {"grid": "many"}, "grid must be an integer, got 'many'"),
        ("eta-coupled", {"floor": "abc"}, "floor must be an integer, got 'abc'"),
        ("eta-conformal", {"floor": "abc"}, "floor must be an integer, got 'abc'"),
        ("eta-conformal", {"t_order": "x"}, "t_order must be an integer, got 'x'"),
        ("zeta-conformal", {"t_order": "x"}, "t_order must be an integer, got 'x'"),
        ("res-heat", {"t_order": "x"}, "t_order must be an integer, got 'x'"),
        # an integer is never truncated: an int, an integral float or an
        # integer string, for every integer key and each entry of u
        ("flow-index", {"grid": 11.9}, "grid must be an integer, got 11.9"),
        ("flow-index", {"cutoff": "2.5"}, "cutoff must be an integer, got '2.5'"),
        ("flow-index", {"dim": float("inf")}, "dim must be an integer, got inf"),
        ("eta-coupled", {"floor": -3.7}, "floor must be an integer, got -3.7"),
        ("eta-coupled", {"floor": True}, "floor must be an integer, got True"),
        ("eta-conformal", {"t_order": [2]}, "t_order must be an integer, got [2]"),
        ("flow-index", {"u": [1.9, 0, 0]}, "u must be comma-separated integers, got [1.9, 0, 0]"),
        ("flow-index", {"u": (1, False, 0)}, "u must be comma-separated integers, got (1, False, 0)"),
        ("flow-index", {"u": 7}, "u must be comma-separated integers, got 7"),
        ("flow-index", {"u": "1,0.5,0"}, "u must be comma-separated integers, got '1,0.5,0'"),
    ],
)
def test_unparsable_config_is_error_report(name, config, message, monkeypatch):
    monkeypatch.setattr(sy.OperatorFamily, "conformal", None)  # parsing comes first
    report = run_check(name, config)
    assert report.status == "error"
    assert report.vanishing_level == "n-a"
    assert report.witness == message
    (key,) = config
    assert report.params[key] == config[key]
    json.loads(report.to_json())


def test_parsed_values_reach_the_runner_and_the_echo():
    report = run_check("flow-index", {"u": "0,1,0", "grid": "21", "cutoff": 2})
    assert report.passed
    assert report.params["u"] == (0, 1, 0) and report.params["grid"] == 21


def test_integral_floats_and_integer_strings_are_integers():
    given = run_check("flow-index", {"grid": 21.0, "cutoff": "2", "u": [0, 1.0, "0"]})
    plain = run_check("flow-index", {"grid": 21, "cutoff": 2, "u": (0, 1, 0)})
    assert given.passed and given.details == plain.details
    # identical configurations, however spelled, echo the same values
    assert given.params == plain.params


def test_a_config_however_spelled_gives_the_default_report():
    def text(report):
        return [line for line in report.to_json().splitlines() if '"elapsed_ms"' not in line]

    spelled = run_check("eta-conformal", {"t_order": "2", "floor": "-3"})
    assert spelled.passed and text(spelled) == text(run_check("eta-conformal"))


def test_a_flow_past_its_size_bound_is_an_error_report(monkeypatch):
    monkeypatch.setattr(nm.np, "linspace", None)  # refused before the grid is built
    report = run_check("flow-index", {"grid": 10**12})
    assert report.status == "error" and report.details == {}
    assert report.witness.startswith("grid must be <= 10000000 (") and report.params["grid"] == 10**12


@pytest.mark.parametrize(
    "cls",
    [sy.FamilyError, sy.InsufficientFloorError, sy.EllipticityShapeError,
     nm.GridTooCoarseError],
)
def test_every_engine_error_is_a_domain_error(cls, monkeypatch):
    assert issubclass(cls, DomainError)

    def raising(*_args, **_kwargs):
        raise cls("raised by the runner")

    monkeypatch.setattr(nm, "spectral_flow", raising)
    report = run_check("flow-index", {"grid": 11, "cutoff": 2})
    assert report.status == "error"
    assert report.witness == "raised by the runner"


def test_runner_value_error_is_not_a_config_error(monkeypatch):
    from ncps import numeric as nm

    def broken(*_args, **_kwargs):
        raise ValueError("not a parse failure")

    monkeypatch.setattr(nm, "spectral_flow", broken)
    with pytest.raises(ValueError, match="not a parse failure"):
        run_check("flow-index", {"grid": 11, "cutoff": 2})
