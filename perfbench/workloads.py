"""The four benchmark workloads, built on the public API of ``ncps``.

A workload turns ``(seed, size)`` into a list of ops.  Building the list is
the set-up (families, seeded lattice data); running an op's ``compute`` is
the timed work.  ``judge`` turns an op's output into a summary that is
compared with the pinned value in ``pins.json`` (or, for the lattice ops,
into seed-independent identities), and ``sizes`` reports the output sizes
that the traced run prints.

Sizes: ``full`` is what the benchmark measures, ``smoke`` a small version of
every workload for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ncps import checks as ck
from ncps import functionals as fn
from ncps import heat as ht
from ncps import numeric as nm
from ncps import symbols as sy

SIZES = ("full", "smoke")
# the three slowest checks are left out of the smoke size
SMOKE_CHECKS = ("eta-coupled", "eta-invariance", "res-heat", "flow-index")
HEAT_TIME = 0.2  # heat parameter of the localized lattice traces
DEFECT_TOL = 1e-12
IDENTITY_RTOL = 1e-10


@dataclass
class Op:
    """One unit of work: ``compute`` is timed, ``judge`` checks its output.

    ``pinned`` ops are correct when ``judge``'s summary equals the pinned
    one; the others when the summary has ``"ok": True``.
    """

    name: str
    compute: Callable[[], Any]
    judge: Callable[[Any], dict]
    pinned: bool = True
    sizes: Callable[[Any], dict] = field(default=lambda out: {})
    span: Optional[str] = None  # span around the whole op (named checks)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def mat_word_terms(mat: sy.Mat2) -> int:
    """Word-terms of a matrix: words summed over its four entries."""
    return sum(len(entry._terms) for row in mat.e for entry in row)


def word_terms(comp: sy.Component) -> int:
    return sum(mat_word_terms(mat) for mat in comp.terms.values())


def max_word_len(mats) -> int:
    return max(
        (len(w) for mat in mats for row in mat.e for entry in row for w in entry._terms),
        default=0,
    )


def symbol_mats(sym: sy.Symbol):
    return [mat for comp in sym.components.values() for mat in comp.terms.values()]


# -- checks ---------------------------------------------------------------------


def checks_ops(seed: int, size: str) -> list[Op]:
    names = sorted(ck.CHECKS) if size == "full" else list(SMOKE_CHECKS)
    random.Random(seed).shuffle(names)

    def judge(report: ck.CheckReport) -> dict:
        out = json.loads(report.to_json())
        out.pop("elapsed_ms")
        return out

    return [
        Op(
            name=f"checks.{name}",
            compute=lambda name=name: ck.run_check(name),
            judge=judge,
            span="checks." + name.replace("-", "_"),
        )
        for name in names
    ]


# -- coupled-deep -----------------------------------------------------------------


def coupled_deep_ops(seed: int, size: str) -> list[Op]:
    """``eta-coupled`` at a deep floor: the paper's fixed coupled family."""
    floor = -4 if size == "full" else -3
    fam = sy.OperatorFamily.coupled(3)

    def compute():
        sd, sd2 = sy.dirac_symbol(fam)
        absd = sy.sqrt_symbol(sd2, floor + 1)
        inv = sy.invert_symbol(absd, floor - 1)
        sgn = sy.star_product(sd, inv, floor)
        level = fn.wres(sgn, 3).vanishing_level()
        return inv, sgn, level

    def judge(out) -> dict:
        _inv, sgn, level = out
        return {
            "sign_sha256": digest(sgn.render()),
            "word_terms": {str(d): word_terms(c) for d, c in sorted(sgn.components.items())},
            "level": level,
        }

    def sizes(out) -> dict:
        inv, sgn, _level = out
        per_degree = {d: word_terms(c) for d, c in sgn.components.items()}
        sizes = {f"symbols.sign_word_terms.deg{d}": per_degree.get(d, 0) for d in range(0, -5, -1)}
        sizes["symbols.inverse_abs_word_terms"] = sum(word_terms(c) for c in inv.components.values())
        sizes["symbols.max_word_len"] = max_word_len(symbol_mats(sgn))
        sizes["output_terms"] = sum(per_degree.values())
        return sizes

    return [Op(f"coupled-deep.sign@floor{floor}", compute, judge, sizes=sizes)]


# -- conformal-heat ---------------------------------------------------------------


def conformal_heat_ops(seed: int, size: str) -> list[Op]:
    """Heat coefficients and two inverse-square-root routes: the paper's fixed
    conformal family."""
    t_cap = 3 if size == "full" else 1
    fam = sy.OperatorFamily.conformal(3, t_cap=t_cap)
    state: dict = {}

    def heat():
        _sd, state["sd2"] = sy.dirac_symbol(fam)
        return ht.heat_coefficients(state["sd2"], 3)

    def judge_heat(coeffs) -> dict:
        text = "\n".join(
            f"beta_{c.index}: {c.matrix.render()} | {c.traced.render()}" for c in coeffs
        )
        return {
            "sha256": digest(text),
            "odd_traced_zero": {
                f"beta_{i}": [coeffs[i].traced.t_grade(j).is_zero() for j in range(t_cap + 1)]
                for i in (1, 3)
            },
        }

    def heat_sizes(coeffs) -> dict:
        mats = [c.matrix for c in coeffs]
        return {
            "heat.beta_word_terms": sum(mat_word_terms(m) for m in mats),
            "symbols.max_word_len": max_word_len(mats),
        }

    def routes():
        sd2 = state["sd2"]
        mellin = ht.mellin_inverse_power(sd2, -3)
        direct = sy.invert_symbol(sy.sqrt_symbol(sd2, -1), -3)
        return mellin, direct

    def judge_routes(out) -> dict:
        mellin, direct = out
        return {"agree": mellin.equals(direct, -3), "direct_sha256": digest(direct.render())}

    def route_sizes(out) -> dict:
        _mellin, direct = out
        return {
            "symbols.inverse_abs_word_terms": sum(
                word_terms(c) for c in direct.components.values()
            ),
            "symbols.max_word_len": max_word_len(symbol_mats(direct)),
        }

    return [
        Op(f"conformal-heat.beta@t_cap{t_cap}", heat, judge_heat, sizes=heat_sizes),
        Op(f"conformal-heat.routes@t_cap{t_cap}", routes, judge_routes, sizes=route_sizes),
    ]


# -- lattice ----------------------------------------------------------------------


def _theta(rng: np.random.Generator, dim: int) -> np.ndarray:
    th = np.zeros((dim, dim))
    iu = np.triu_indices(dim, 1)
    th[iu] = rng.uniform(-0.5, 0.5, len(iu[0]))
    return nm.theta_matrix(th - th.T)


def _selfadjoint(rng: np.random.Generator, dim: int, pairs: int = 2) -> nm.ConcreteElement:
    """Self-adjoint Fourier data of support radius 1 with a nonzero zero mode."""
    modes: dict[tuple[int, ...], complex] = {(0,) * dim: complex(rng.uniform(0.2, 0.6))}
    while pairs:
        k = tuple(int(x) for x in rng.integers(-1, 2, dim))
        mk = tuple(-x for x in k)
        if not any(k) or k in modes:
            continue
        c = complex(rng.normal(0.0, 0.1), rng.normal(0.0, 0.1))
        modes[k], modes[mk] = c, c.conjugate()
        pairs -= 1
    return nm.ConcreteElement(dim, modes)


def lattice_ops(seed: int, size: str) -> list[Op]:
    """Numeric assembly, eigensolve and localized heat traces on seeded
    twisted tori."""
    L3, L2 = (4, 10) if size == "full" else (2, 2)
    rng = np.random.default_rng(seed)
    th3 = _theta(rng, 3)
    conformal = nm.NumericFamily("conformal_dirac", 3, theta=th3, weyl=_selfadjoint(rng, 3))
    coupled = nm.NumericFamily(
        "coupled_dirac", 3, theta=th3, gauge=[_selfadjoint(rng, 3) for _ in range(3)]
    )
    th2 = _theta(rng, 2)
    h2 = _selfadjoint(rng, 2)
    heat_family = nm.NumericFamily("conformal_dirac", 2, theta=th2, weyl=h2)

    def spectrum(fam, t):
        def compute():
            op = nm.build_operator(fam, L3, t=t)
            return op, nm.hermitian_eigenvalues(op)

        return compute

    def judge_spectrum(out) -> dict:
        op, vals = out
        ok = (
            op.hermiticity_defect <= DEFECT_TOL
            and len(vals) == op.size
            and bool(np.all(np.isfinite(vals)))
        )
        return {"ok": ok, "hermiticity_defect": op.hermiticity_defect}

    def spectrum_sizes(out) -> dict:
        op, _vals = out
        return {"numeric.matrix_dim": op.size, "numeric.bytes_computed": op.matrix.nbytes}

    def heat():
        loc = np.kron(nm.multiplication_matrix(h2, L2, th2), np.eye(2, dtype=complex))
        ops = [nm.build_operator(heat_family, L2, t=t) for t in (0.5, 0.0)]
        traces = [nm.heat_trace_operator(op, HEAT_TIME, loc) for op in ops]
        return loc, ops, traces

    def judge_heat(out) -> dict:
        _loc, ops, (moved, flat) = out
        ref = nm.heat_trace_lattice(HEAT_TIME, L2, 2, weight=h2.tau())
        rel = abs(flat - ref) / abs(ref)
        defect = max(op.hermiticity_defect for op in ops)
        ok = rel <= IDENTITY_RTOL and defect <= DEFECT_TOL and math.isfinite(moved)
        return {"ok": ok, "flat_relative_error": rel, "hermiticity_defect": defect}

    def heat_sizes(out) -> dict:
        loc, ops, _traces = out
        return {
            "numeric.matrix_dim": max(op.size for op in ops),
            "numeric.bytes_computed": loc.nbytes + sum(op.matrix.nbytes for op in ops),
        }

    return [
        Op("lattice.conformal3", spectrum(conformal, 0.5), judge_spectrum, False, spectrum_sizes),
        Op("lattice.coupled3", spectrum(coupled, 0.0), judge_spectrum, False, spectrum_sizes),
        Op("lattice.heat2", heat, judge_heat, False, heat_sizes),
    ]


WORKLOADS: dict[str, Callable[[int, str], list[Op]]] = {
    "checks": checks_ops,
    "coupled-deep": coupled_deep_ops,
    "conformal-heat": conformal_heat_ops,
    "lattice": lattice_ops,
}
