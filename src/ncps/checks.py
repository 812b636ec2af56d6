"""Named verifications behind the command-line runner.

Each check runs one spectral statement end to end and reports a structured
result: pass/fail status, the strongest level at which a vanishing holds
(density, after matrix trace, or in the trace class), a witness expression on
failure, and a full echo of the parameters and conventions that pin the run.
Identical configurations produce byte-identical reports apart from the
timing field.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import functionals as fn
from . import heat as ht
from . import numeric as nm
from . import symbols as sy
from .algebra import AlgebraElement, exp_expand, gen
from .scalars import DomainError, parse_int, parse_ints, parse_value

CONVENTIONS = {
    "cutoff": "sharp radial cutoff, indicator of |xi| >= 1",
    "contour": "orientation pinned by a positive flat heat coefficient",
    "trace_model": "cyclic quotient of the free algebra, zero test extended "
    "by integration by parts (derivation images)",
    "sphere": "exact Gamma-product moments; no 2pi normalization factors",
}


@dataclass
class CheckReport:
    check_name: str
    status: str  # pass | fail | error
    vanishing_level: str  # density | trace | tau | none | n-a
    witness: Optional[str]
    params: dict
    elapsed_ms: int
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check_name,
            "status": self.status,
            "vanishing_level": self.vanishing_level,
            "witness": self.witness,
            "params": self.params,
            "details": self.details,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


# -- individual checks ---------------------------------------------------------------


MIN_FLOOR = -5
MAX_T_ORDER = 6
MAX_HEAT_ORDERS = 6
# t_cap plus the last even heat order (an odd last order builds no layer); a
# 3-d conformal family took 2.6 s at 8, 6.4-7.3 s at 9 and 40 s at 10
MAX_HEAT_DEPTH = 8


class Key(NamedTuple):
    """How a check config key, a subcommand flag or a family file field is
    read: its parser, what a value must be, and for the costly depths the
    range a parsed value must lie in, with the reason."""

    parse: Callable
    what: str
    lo: Optional[int] = None
    hi: Optional[int] = None
    why: str = ""


_INT = (parse_int, "an integer")
# every value run_check, `wres`, `heat` and `num flow` are given is read here
PARSERS = {
    "floor": Key(*_INT, lo=MIN_FLOOR, why="the word-terms grow about sevenfold per degree"),
    "t_order": Key(*_INT, hi=MAX_T_ORDER, why="the cost grows about fivefold per grade"),
    # heat_coefficients of coupled(3): 1.1 s at 6 orders, over 60 s at 8; of
    # conformal(3, t_cap=2): 0.5 s at 6, 6.0 s at 8
    "orders": Key(*_INT, hi=MAX_HEAT_ORDERS, why="the cost grows at least fivefold per two orders"),
    "anomaly_t_order": Key(*_INT, hi=11, why="the memory grows about 1.5-fold per grade"),
    "grid": Key(*_INT), "cutoff": Key(*_INT), "dim": Key(*_INT),
    "u": Key(parse_ints, "comma-separated integers"),
}
PARSERS["t_cap"] = PARSERS["t_order"]  # the deformation cap of a family file


def _parsed(cfg: dict) -> dict:
    """``cfg`` with every value parsed, then bounded, before any symbol is
    built.  An unparsable value is a :class:`DomainError` that names the key
    and the value given; one out of its range names the range, the reason
    and the parsed value."""
    out = {key: parse_value(key, value, *PARSERS[key][:2]) for key, value in cfg.items()}
    for key, value in out.items():
        lo, hi, why = PARSERS[key][2:]
        if lo is not None and value < lo:
            raise DomainError(f"{key} must be >= {lo} ({why}), got {value}")
        if hi is not None and value > hi:
            raise DomainError(f"{key} must be <= {hi} ({why}), got {value}")
    return out


def _residue_floor(floor: int, dim: int) -> int:
    """The floor of a symbol whose residue is read on the ``dim``-torus, of a
    check or of ``ncps wres``.  The residue reads the degree ``-dim``
    component, so a higher floor is rejected here, with the value as given,
    before any internal floor is derived from it."""
    if floor > -dim:
        raise DomainError(
            f"floor must be <= {-dim} (the residue reads the degree {-dim} "
            f"component), got {floor}"
        )
    return floor


def _residue_verdict(
    density: fn.ResidueDensity, grades: Optional[dict[str, str]] = None
) -> tuple[str, str, Optional[str]]:
    """Status, level and witness of a residue that must vanish, and with it
    every level in ``grades``.  The level is the weakest of them all; the
    witness on failure is the residue's trace class."""
    levels = [density.vanishing_level(), *(grades or {}).values()]
    level = max(levels, key=("density", "trace", "tau", "none").index)
    if level == "none":
        return "fail", level, density.tau_value.render()
    return "pass", level, None


def _check_eta_coupled(cfg: dict) -> tuple[str, str, Optional[str], dict]:
    floor = _residue_floor(cfg["floor"], 3)
    fam = sy.OperatorFamily.coupled(3)
    # an insufficient floor is reported as an error, never silently deepened
    sgn = sy.sign_symbol(fam, floor=floor)
    return (*_residue_verdict(fn.wres(sgn, 3)), {})


def _check_eta_conformal(cfg: dict) -> tuple[str, str, Optional[str], dict]:
    floor = _residue_floor(cfg["floor"], 3)
    fam = sy.OperatorFamily.conformal(3, t_cap=cfg["t_order"])
    sigma0 = _one_sided_sigma0_comparison(fam)
    sgn = sy.sign_symbol(fam, floor=floor)
    density = fn.wres(sgn, 3)
    grades = {f"t^{j}": density.t_grade(j).vanishing_level() for j in range(fam.t_cap + 1)}
    details = {"per_grade": grades, "sigma0_one_sided_matches": sigma0}
    return (*_residue_verdict(density, grades), details)


def _one_sided_sigma0_comparison(fam: sy.OperatorFamily) -> dict[str, bool]:
    """Compare the order-0 component of ``|D|`` of the 3-d conformal ``fam``
    against the one-sided closed form (division by the conformal factor on the
    right).  The closed form presumes a commutation the free algebra does not
    grant, so the comparison is reported per grade rather than assumed."""
    h = gen(fam.weyl, 3)
    e_half = exp_expand(h, Fraction(1, 2), fam.t_cap)
    e_3half = exp_expand(h, Fraction(3, 2), fam.t_cap)
    e_minus = exp_expand(h, -1, fam.t_cap)
    # (S C1 + C2 S) / 2, with S = xi-slash / |xi| and C1, C2 slashes of coefficients
    s = sy._xi_slash(3).mul_xi2(-1)
    c1 = sy._slash_component(3, [e_3half * e_half.delta(mu) * e_minus for mu in (1, 2, 3)])
    c2 = sy._slash_component(3, [e_half * e_3half.delta(mu) * e_minus for mu in (1, 2, 3)])
    comp = s.mul(c1).add(c2.mul(s)).scale_rational(Fraction(1, 2))
    diff = sy.sqrt_symbol(sy.dirac_symbol(fam)[1], 0).component(0).sub(comp)
    return {f"t^{j}": diff.t_grade(j).is_zero() for j in range(fam.t_cap + 1)}


def _check_eta_invariance(cfg: dict) -> tuple[str, str, Optional[str], dict]:
    free = sy.OperatorFamily.free(3)
    conf = sy.OperatorFamily.conformal(3, t_cap=1)
    # direct path: -Wres(dD |D|^{-1}) with dD = (hD + Dh)/2 at t = 0
    direct = fn.variation_residue(free, fn.conformal_variation_direction(conf))
    # cyclic reduction path: -Wres(h D|D|^{-1})
    h = AlgebraElement.generator(gen("h", 3))
    hsym = sy.Symbol.make(3, [sy.Component.scalar(3, h)])
    reduced = fn.wres(sy.star_product(hsym, sy.sign_symbol(free, -3), -3), 3)
    details = {"direct_path": direct.vanishing_level(), "cyclic_path": reduced.vanishing_level()}
    # the weaker of the two levels; a failure is witnessed by the direct path
    return (*_residue_verdict(direct, {"cyclic_path": details["cyclic_path"]}), details)


def _check_zeta_conformal(cfg: dict) -> tuple[str, str, Optional[str], dict]:
    details, nonzero = {}, []
    for name, fam in (
        ("flat", sy.OperatorFamily.free(3)),
        ("conformal", sy.OperatorFamily.conformal(3, t_cap=cfg["t_order"])),
    ):
        _sd, sd2 = sy.dirac_symbol(fam)
        coeffs = ht.heat_coefficients(sd2, 3)
        details[name] = {}
        for i in (1, 3):
            zero = coeffs[i].traced.is_zero()
            details[name][f"beta_{i}"] = "zero" if zero else "nonzero"
            if not zero:
                nonzero.append(coeffs[i].traced)
    if nonzero:  # the last one found is the witness
        return "fail", "none", nonzero[-1].render(), details
    return "pass", "trace", None, details


def _check_res_heat(cfg: dict) -> tuple[str, str, Optional[str], dict]:
    flat = ht.res_heat_crosscheck(1, sy.OperatorFamily.free(2))
    conf = ht.res_heat_crosscheck(1, sy.OperatorFamily.conformal(2, t_cap=cfg["t_order"]))
    four_pi = AlgebraElement.scalar(fn.sphere_integral((0, 0), 2).scale(2))
    equals_4pi = (flat.lhs_traced - four_pi).is_zero()
    details = {
        "flat": {"agree": flat.agree(), "value": flat.lhs_traced.render(), "equals_4pi": equals_4pi},
        "conformal": {"agree": conf.agree(), "value": conf.lhs_traced.render()},
    }
    # the first failure, in this order, is the witness
    for ok, witness in (
        (details["flat"]["agree"], flat.lhs_traced - flat.rhs_traced),
        (details["conformal"]["agree"], conf.lhs_traced - conf.rhs_traced),
        (equals_4pi, flat.lhs_traced),
    ):
        if not ok:
            return "fail", "n-a", witness.render(), details
    return "pass", "n-a", None, details


def _check_cs_density(cfg: dict) -> tuple[str, str, Optional[str], dict]:
    fam = sy.OperatorFamily.coupled(3)
    full = fn.induced_cs_density(fam)
    capped = fn.induced_cs_density(fam, gauge_cap=2)
    linear = fn.induced_cs_density(fam, gauge_cap=1)
    agree_full = (full.representative - capped.representative).is_zero()
    trunc = full.representative.filter_base_degree(fam.gauge, 1)
    agree_lin = (linear.representative - trunc).is_zero()
    details = {
        "density": full.render(),
        "gauge_cap_2_matches_full": agree_full,
        "linearized_matches_truncation": agree_lin,
        "linear_in_variation": _linear_in(full.representative, ("dA1", "dA2", "dA3")),
    }
    if agree_full and agree_lin:
        return "pass", "n-a", None, details
    return "fail", "n-a", (full.representative - capped.representative).render(), details


def _linear_in(a: AlgebraElement, bases: tuple[str, ...]) -> bool:
    """Whether every word of ``a`` has exactly one letter with a base in ``bases``."""
    return all(sum(g.base in bases for g in word) == 1 for word, _s in a.terms())


def _net_flow(u, grid, cutoff, dim) -> tuple[int, int]:
    """Net spectral flow of the commutator-shift family over the unit
    interval, and its mode count; for the check and for ``ncps num flow``."""
    spectra = nm.unitary_flow_spectra(u, nm.flow_grid(grid), cutoff, dim)
    return nm.spectral_flow(spectra), len(spectra[0])


def _check_flow_index(cfg: dict) -> tuple[str, str, Optional[str], dict]:
    flow, modes = _net_flow(**cfg)
    ok = flow == 0
    details = {"flow": flow, "modes": modes}
    return ("pass" if ok else "fail", "n-a", None if ok else str(flow), details)


@dataclass(frozen=True)
class CheckSpec:
    name: str
    description: str
    runner: Callable[[dict], tuple[str, str, Optional[str], dict]]
    defaults: dict  # every key the runner reads


CHECKS: dict[str, CheckSpec] = {
    c.name: c
    for c in [
        CheckSpec(
            "eta-coupled",
            "vanishing of the residue density of the sign symbol for the "
            "gauge-coupled Dirac family (regularity of the coupled eta value)",
            _check_eta_coupled,
            {"floor": -3},
        ),
        CheckSpec(
            "eta-conformal",
            "vanishing, per deformation grade, of the residue of the sign "
            "symbol for the conformally perturbed Dirac family",
            _check_eta_conformal,
            {"t_order": 2, "floor": -3},
        ),
        CheckSpec(
            "eta-invariance",
            "vanishing of the first conformal variation of the eta value at "
            "zero, via both the direct and the cyclically reduced residue",
            _check_eta_invariance,
            {},
        ),
        CheckSpec(
            "zeta-conformal",
            "vanishing of the odd heat coefficients for the flat and "
            "conformally perturbed squared Dirac families in dimension 3 "
            "(conformal invariance of the zeta derivative at zero)",
            _check_zeta_conformal,
            {"t_order": 2},
        ),
        CheckSpec(
            "res-heat",
            "residue of the inverse squared family against twice the matching "
            "heat coefficient in dimension 2, flat and first conformal grade",
            _check_res_heat,
            {"t_order": 1},
        ),
        CheckSpec(
            "cs-density",
            "explicit gauge-variation density of the coupled eta value, "
            "recomputed through a gauge-degree-filtered pipeline",
            _check_cs_density,
            {},
        ),
        CheckSpec(
            "flow-index",
            "net spectral flow of the commutator-shift family over the unit "
            "interval, matching the integrated index pairing (zero)",
            _check_flow_index,
            {"u": (1, 0, 0), "grid": 101, "cutoff": 6, "dim": 3},
        ),
    ]
}


def run_check(name: str, config: Optional[dict] = None) -> CheckReport:
    if name not in CHECKS:
        raise KeyError(
            f"unknown check {name!r}; available: {', '.join(sorted(CHECKS))}"
        )
    spec = CHECKS[name]
    cfg = dict(spec.defaults)
    if config:
        cfg.update({k: v for k, v in config.items() if v is not None})
    params = {**cfg, "conventions": CONVENTIONS}
    unread = sorted(set(cfg) - set(spec.defaults))
    if unread:
        return CheckReport(
            name, "error", "n-a",
            f"check {name!r} does not read {', '.join(unread)}; "
            f"it reads: {', '.join(sorted(spec.defaults)) or 'nothing'}",
            params, 0,
        )
    t0 = time.perf_counter()
    try:
        status, level, witness, details = spec.runner(_parsed(cfg))
    except DomainError as exc:
        status, level, witness, details = "error", "n-a", str(exc), {}
    elapsed = int((time.perf_counter() - t0) * 1000)
    return CheckReport(name, status, level, witness, params, elapsed, details)
