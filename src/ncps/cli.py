"""Command-line entry point.

Subcommands expose the named verifications (``verify``), raw symbolic
computations (``wres``, ``heat``, ``anomaly``, ``cs-density``) and the
numerical harness (``num spectrum | flow | heat``).  Reports are
deterministic JSON (timing aside) written to stdout or ``--json``; spectra can
additionally be dumped as CSV.  Exit codes: 0 pass, 1 fail, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import functionals as fn
from . import heat as ht
from . import numeric as nm
from . import symbols as sy
from .algebra import AlgebraElement, gen
from .checks import (
    CHECKS,
    CONVENTIONS,
    MAX_HEAT_DEPTH,
    PARSERS,
    _net_flow,
    _parsed,
    _residue_floor,
    run_check,
)
from .scalars import DomainError, parse_int, parse_ints, parse_value


def _emit(payload: dict, json_path: Optional[str]) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if json_path:
        Path(json_path).write_text(text + "\n", encoding="utf-8")
    print(text)


def _given(args: argparse.Namespace, **more) -> dict:
    """The values of ``more`` and of the flags in ``args`` that
    ``checks.PARSERS`` reads, as given; an absent one (None) is left out."""
    return {k: v for k, v in {**more, **vars(args)}.items() if k in PARSERS and v is not None}


def _load_family(args: argparse.Namespace) -> tuple[sy.OperatorFamily, dict]:
    """The family file of ``args`` and its flags, parsed and bounded as
    ``verify`` bounds them, the file's ``t_cap`` as ``--t-order``.  A
    ``--t-order`` overrides the cap of a conformal family and is an error for
    any other, which has no cap to override."""
    data = json.loads(Path(args.family).read_text(encoding="utf-8"))
    fam = sy.OperatorFamily.from_dict(data)
    cfg = _parsed(_given(args, t_cap=fam.t_cap))
    if "t_order" in cfg:
        if fam.kind != "conformal_dirac":
            raise DomainError(f"--t-order sets the cap of a conformal_dirac family, not {fam.kind}")
        fam = sy.OperatorFamily.conformal(fam.dim, t_cap=cfg["t_order"], weyl=fam.weyl)
    return fam, cfg


# The fields of a numeric family file each kind reads besides "kind" and
# "dim": what numeric._dirac_blocks uses of the family
NUMERIC_FIELDS = {
    "free_dirac": (),
    "coupled_dirac": ("theta", "gauge_modes"),
    "conformal_dirac": ("theta", "weyl_modes"),
    "unitary_flow": ("flow_k",),
}
MODES = "comma-separated integer keys to [re, im] pairs"


def _load_numeric_family(path: str) -> nm.NumericFamily:
    """The numeric family of a file, read as a symbolic family file is
    (:meth:`~ncps.symbols.OperatorFamily.from_dict`): every field through
    :func:`~ncps.scalars.parse_value`, so a malformed one is named, then a
    field the kind does not read (:data:`NUMERIC_FIELDS`) is refused.  A
    ``null`` field is absent."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        if not isinstance(data, dict) or not {"kind", "dim"} <= data.keys():
            raise DomainError("family file needs 'kind' and integer 'dim'")
        kind = data["kind"]
        if not isinstance(kind, str) or kind not in NUMERIC_FIELDS:
            raise DomainError(f"unknown family kind {kind!r}")
        data = {k: v for k, v in data.items() if v is not None}
        dim = parse_value("dim", data.get("dim"), parse_int, "an integer")

        def field(key, parse, what, default=None):
            return parse_value(key, data[key], parse, what) if key in data else default

        def modes(obj) -> nm.ConcreteElement:
            # dict.items refuses a non-dict, the unpacking a value that is no
            # pair and complex a string, each naming the field
            pairs = {parse_ints(k): complex(re, im) for k, (re, im) in dict.items(obj)}
            return nm.ConcreteElement(dim, pairs)

        fam = nm.NumericFamily(
            kind=kind,
            dim=dim,
            theta=field("theta", nm.theta_matrix, "a skew-symmetric matrix"),
            weyl=field("weyl_modes", modes, f"a map of {MODES}"),
            gauge=field("gauge_modes", lambda v: [modes(g) for g in v] or None,
                        f"a list of maps of {MODES}"),
            flow_k=field("flow_k", parse_ints, "a list of integers", ()),
        )
    except DomainError as exc:
        raise DomainError(f"malformed numeric family file: {exc}") from None
    unread = sorted(data.keys() - {"kind", "dim", *NUMERIC_FIELDS[kind]})
    if unread:
        raise DomainError(f"a {kind} family does not read {', '.join(map(repr, unread))}")
    return fam


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in sorted(CHECKS):
        print(f"{name:15s} {CHECKS[name].description}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_check(args.name, _given(args))
    _emit(report.to_dict(), args.json)
    if report.status == "error":
        return 2
    return 0 if report.passed else 1


def _cmd_wres(args: argparse.Namespace) -> int:
    fam, cfg = _load_family(args)
    floor = cfg.get("floor", -fam.dim)
    if args.compose == "none":
        if "floor" in cfg:
            raise DomainError("--floor is not read with --compose none, whose symbol is exact")
        symbol, _ = sy.dirac_symbol(fam)
    else:
        make = sy.sign_symbol if args.compose == "sign" else sy.inverse_abs_symbol
        symbol = make(fam, floor=_residue_floor(floor, fam.dim))
    density = fn.wres(symbol, fam.dim)
    payload = {
        "family": fam.to_dict(),
        "compose": args.compose,
        "floor": floor,
        "vanishing_level": density.vanishing_level(),
        "density_matrix": density.value.render(),
        "traced": density.traced.render(),
        "tau_class": density.tau_value.render(),
        "conventions": CONVENTIONS,
    }
    _emit(payload, args.json)
    return 0


def _cmd_heat(args: argparse.Namespace) -> int:
    fam, cfg = _load_family(args)
    if (fam.t_cap or 0) + cfg["orders"] // 2 * 2 > MAX_HEAT_DEPTH:
        what = f"t_cap plus the last even order must be <= {MAX_HEAT_DEPTH}"
        why = "the cost grows three- to sixfold per step"
        raise DomainError(f"{what} ({why}), got t_cap {fam.t_cap} and orders {cfg['orders']}")
    _sd, sd2 = sy.dirac_symbol(fam)
    localizer = None
    if args.localizer:
        localizer = AlgebraElement.generator(gen(args.localizer, fam.dim))
    coeffs = ht.heat_coefficients(sd2, cfg["orders"], localizer=localizer)
    payload = {
        "family": fam.to_dict(),
        "orders": cfg["orders"],
        "localizer": args.localizer,
        "coefficients": {
            f"beta_{c.index}": {
                "traced": c.traced.render(),
                "tau_class": c.tau.render(),
            }
            for c in coeffs
        },
        "conventions": CONVENTIONS,
    }
    _emit(payload, args.json)
    return 0


def _cmd_anomaly(args: argparse.Namespace) -> int:
    t_order = _parsed(_given(args))["anomaly_t_order"]
    grades = ht.anomaly_density(sy.OperatorFamily.conformal(2, t_cap=t_order))
    payload = {
        "dim": 2,
        "t_order": t_order,
        "density_per_grade": {f"t^{j}": v.render() for j, v in grades.items()},
        "conventions": CONVENTIONS,
    }
    _emit(payload, args.json)
    return 0


def _cmd_cs_density(args: argparse.Namespace) -> int:
    fam = sy.OperatorFamily.coupled(3)
    density = fn.induced_cs_density(fam)
    payload = {
        "family": fam.to_dict(),
        "variation_generators": ["dA1", "dA2", "dA3"],
        "tau_class": density.render(),
        "conventions": CONVENTIONS,
    }
    _emit(payload, args.json)
    return 0


def _cmd_num_spectrum(args: argparse.Namespace) -> int:
    fam = _load_numeric_family(args.family)
    top = nm.build_operator(fam, args.cutoff, t=args.t)
    vals = nm.hermitian_eigenvalues(top)
    if args.csv:
        Path(args.csv).write_text(
            "\n".join(f"{v:.15g}" for v in vals) + "\n", encoding="utf-8"
        )
    payload = {
        "kind": fam.kind,
        "cutoff": args.cutoff,
        "t": args.t,
        "size": int(top.size),
        "hermiticity_defect": top.hermiticity_defect,
        "eigenvalues": [float(v) for v in vals],
    }
    _emit(payload, args.json)
    return 0


def _cmd_num_flow(args: argparse.Namespace) -> int:
    cfg = _parsed(_given(args))
    flow, _modes = _net_flow(**cfg)  # what the flow-index check computes
    _emit({**cfg, "u": list(cfg["u"]), "flow": flow}, args.json)
    return 0


def _cmd_num_heat(args: argparse.Namespace) -> int:
    value = nm.heat_trace_lattice(args.t, args.cutoff, args.dim)
    scaled = args.t ** (args.dim / 2.0) * value
    payload = {
        "t": args.t,
        "cutoff": args.cutoff,
        "dim": args.dim,
        "trace": value,
        "scaled_trace": scaled,
    }
    _emit(payload, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ncps",
        description="exact symbol calculus and spectral checks for Dirac "
        "families on noncommutative tori",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list named verifications").set_defaults(fn=_cmd_list)

    v = sub.add_parser("verify", help="run a named verification")
    v.add_argument("name", choices=sorted(CHECKS))
    v.add_argument("--t-order", dest="t_order", type=int, default=None)
    v.add_argument("--floor", type=int, default=None)
    v.add_argument("--dim", type=int, default=None)
    v.add_argument("--cutoff", type=int, default=None)
    v.add_argument("--grid", type=int, default=None)
    v.add_argument("--u", type=str, default=None)
    v.add_argument("--json", type=str, default=None)
    v.set_defaults(fn=_cmd_verify)

    w = sub.add_parser("wres", help="residue density of a family symbol")
    w.add_argument("--family", required=True)
    w.add_argument("--compose", choices=["sign", "abs-inverse", "none"], default="sign")
    w.add_argument("--t-order", dest="t_order", default=None,
                   help="override the deformation cap of a conformal family")
    w.add_argument("--floor", default=None)
    w.add_argument("--json", type=str, default=None)
    w.set_defaults(fn=_cmd_wres)

    h = sub.add_parser("heat", help="heat coefficients of a family")
    h.add_argument("--family", required=True)
    h.add_argument("--t-order", dest="t_order", default=None,
                   help="override the deformation cap of a conformal family")
    h.add_argument("--orders", default=4)
    h.add_argument("--localizer", type=str, default=None)
    h.add_argument("--json", type=str, default=None)
    h.set_defaults(fn=_cmd_heat)

    a = sub.add_parser("anomaly", help="conformal anomaly density, dimension 2")
    a.add_argument("--t-order", dest="anomaly_t_order", metavar="T_ORDER", default=1)
    a.add_argument("--json", type=str, default=None)
    a.set_defaults(fn=_cmd_anomaly)

    c = sub.add_parser("cs-density", help="gauge variation density of the coupled eta value")
    c.add_argument("--json", type=str, default=None)
    c.set_defaults(fn=_cmd_cs_density)

    n = sub.add_parser("num", help="numerical harness")
    nsub = n.add_subparsers(dest="num_command", required=True)

    ns = nsub.add_parser("spectrum", help="eigenvalues of a truncated family member")
    ns.add_argument("--family", required=True)
    ns.add_argument("--cutoff", type=int, default=4)
    ns.add_argument("--t", type=float, default=0.0)
    ns.add_argument("--csv", type=str, default=None)
    ns.add_argument("--json", type=str, default=None)
    ns.set_defaults(fn=_cmd_num_spectrum)

    nf = nsub.add_parser("flow", help="spectral flow of the commutator-shift family")
    nf.add_argument("--u", type=str, default="1,0,0")
    nf.add_argument("--grid", default=101)
    nf.add_argument("--cutoff", default=6)
    nf.add_argument("--dim", default=3)
    nf.add_argument("--json", type=str, default=None)
    nf.set_defaults(fn=_cmd_num_flow)

    nh = nsub.add_parser("heat", help="lattice heat trace of the flat family")
    nh.add_argument("--t", type=float, default=0.05)
    nh.add_argument("--cutoff", type=int, default=40)
    nh.add_argument("--dim", type=int, default=3)
    nh.add_argument("--json", type=str, default=None)
    nh.set_defaults(fn=_cmd_num_heat)

    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
