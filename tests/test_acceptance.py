"""Acceptance gate: every headline statement at its stated tolerance.

One test per criterion; each prints a single pass/fail line (run with ``-s``
to see them live).  Symbolic statements are exact zero tests; numerical ones
carry the fixed tolerances from the module contracts.
"""

import math
import random
import sys
import time

import numpy as np

from ncps import functionals as fn
from ncps import heat as ht
from ncps import numeric as nm
from ncps import symbols as sy
from ncps.algebra import AlgebraElement, tau_class
from ncps.checks import run_check
from ncps.clifford import Mat2, clifford_word, gamma, levi_civita
from ncps.scalars import ExactScalar

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))


def report(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name:<28s} {status}  ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_eta_coupled():
    t0 = time.perf_counter()
    rep = run_check("eta-coupled")
    ok = rep.passed and rep.vanishing_level in ("density", "trace", "tau")
    report(1, "eta-coupled residue", ok, time.perf_counter() - t0, 60)


def test_criterion_02_eta_conformal_t2():
    t0 = time.perf_counter()
    rep = run_check("eta-conformal", {"t_order": 2})
    grades = rep.details.get("per_grade", {})
    ok = rep.passed and set(grades) == {"t^0", "t^1", "t^2"} and all(
        v != "none" for v in grades.values()
    )
    report(2, "eta-conformal residue (t^2)", ok, time.perf_counter() - t0, 300)


def test_criterion_03_eta_invariance():
    t0 = time.perf_counter()
    rep = run_check("eta-invariance")
    ok = rep.passed and rep.details["direct_path"] != "none"
    report(3, "eta conformal invariance", ok, time.perf_counter() - t0, 10)


def test_criterion_04_zeta_conformal_t2():
    t0 = time.perf_counter()
    rep = run_check("zeta-conformal", {"t_order": 2})
    ok = rep.passed and all(
        v == "zero"
        for fam in rep.details.values()
        for v in fam.values()
    )
    report(4, "odd heat coefficients (t^2)", ok, time.perf_counter() - t0, 300)


def test_criterion_05_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for fam in (
        sy.OperatorFamily.free(3),
        sy.OperatorFamily.coupled(3),
        sy.OperatorFamily.conformal(3, t_cap=2),
    ):
        _, sd2 = sy.dirac_symbol(fam)
        mel = ht.mellin_inverse_power(sd2, floor=-4)
        direct = sy.invert_symbol(sy.sqrt_symbol(sd2, -2), -4)
        ok = ok and mel.equals(direct, down_to=-4)
    report(5, "two-route inverse oracle", ok, time.perf_counter() - t0, 300)


def test_criterion_06_res_heat_dim2():
    t0 = time.perf_counter()
    rep = run_check("res-heat")
    four_pi = rep.details["flat"]["equals_4pi"]
    ok = rep.passed and four_pi and rep.details["conformal"]["agree"]
    report(6, "residue-heat crosscheck", ok, time.perf_counter() - t0, 60)


def test_criterion_07_property_suites():
    t0 = time.perf_counter()
    from test_symbols import random_symbol

    ok = True
    rng = random.Random(20260810)
    # star associativity, 100 random symbols, exact modulo the floor
    for _ in range(100):
        a, b, c = (random_symbol(rng) for _ in range(3))
        left = sy.star_product(sy.star_product(a, b, -3), c, -2)
        right = sy.star_product(a, sy.star_product(b, c, -3), -2)
        ok = ok and left.equals(right, down_to=-2)
    # residue trace property, 50 random pairs
    for _ in range(50):
        a, b = random_symbol(rng), random_symbol(rng)
        comm = sy.star_product(a, b, -3).sub(sy.star_product(b, a, -3))
        ok = ok and fn.wres(comm, 3).tau_value.is_zero()
    # exhaustive gamma identity tables
    for dim in (2, 3):
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                anti = gamma(dim, i).mul(gamma(dim, j)).add(
                    gamma(dim, j).mul(gamma(dim, i))
                )
                expect = Mat2.diag(AlgebraElement.unit()).scale(
                    ExactScalar.rational(2 if i == j else 0)
                )
                ok = ok and anti.e == expect.e
                ok = ok and clifford_word(dim, [i, j]).trace() == AlgebraElement.rational(
                    2 if i == j else 0
                )
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                ok = ok and clifford_word(3, [i, j, k]).trace() == AlgebraElement.rational(
                    0, 2 * levi_civita((i, j, k))
                )
    # trace cyclicity, adjoint and Leibniz laws on random elements
    from test_algebra import random_element

    for _ in range(25):
        a = random_element(rng)
        b = random_element(rng)
        mu = rng.randint(1, 3)
        ok = ok and tau_class(a * b - b * a).is_zero()
        ok = ok and a.adjoint().adjoint() == a
        ok = ok and (a * b).adjoint() == b.adjoint() * a.adjoint()
        ok = ok and ((a * b).delta(mu) - (a.delta(mu) * b + a * b.delta(mu))).is_zero()
    report(7, "exact property suites", ok, time.perf_counter() - t0, 300)


def test_criterion_08_numerical_heat():
    t0 = time.perf_counter()
    t = 0.05
    scaled = t**1.5 * nm.heat_trace_lattice(t, 40, 3)
    ok = abs(scaled - 2 * math.pi**1.5) < 1e-3
    const = nm.heat_trace_lattice(t, 40, 2) - 2 * math.pi / t
    ok = ok and abs(const) < 1e-6
    report(8, "lattice heat trace", ok, time.perf_counter() - t0, 30)


def test_criterion_09_numerical_spectra():
    t0 = time.perf_counter()
    top = nm.build_operator(nm.NumericFamily("free_dirac", 3), L=2)
    vals = nm.hermitian_eigenvalues(top)
    expect = np.sort(
        np.concatenate(
            [[r, -r] for k in nm.mode_box(2, 3) for r in [float(np.linalg.norm(k))]]
        )
    )
    ok = float(np.max(np.abs(vals - expect))) < 1e-12
    ok = ok and float(np.max(np.abs(np.sort(vals) + np.sort(-vals)[::-1]))) < 1e-12
    theta = nm.theta_matrix([[0, 0.3, 0.1], [-0.3, 0, 0.2], [-0.1, -0.2, 0]])
    ok = ok and nm.gauge_conjugation_deviation((1, 0, 0), 4, 3, theta) < 1e-9
    report(9, "truncated spectra", ok, time.perf_counter() - t0, 60)


def test_criterion_10_flow_index():
    t0 = time.perf_counter()
    rep = run_check("flow-index", {"u": "1,0,0", "grid": 101, "cutoff": 6})
    ok = rep.passed and rep.details["flow"] == 0
    report(10, "spectral flow index", ok, time.perf_counter() - t0, 120)


def test_criterion_11_cs_density():
    t0 = time.perf_counter()
    fam = sy.OperatorFamily.coupled(3)
    full = fn.induced_cs_density(fam)
    capped = fn.induced_cs_density(fam, gauge_cap=2)
    ok = not full.representative.is_zero()
    ok = ok and (full.representative - capped.representative).is_zero()
    for word, _ in full.representative.terms():
        ok = ok and sum(1 for g in word if g.base in ("dA1", "dA2", "dA3")) == 1
    rep = run_check("cs-density")
    ok = ok and rep.passed
    report(11, "induced gauge density", ok, time.perf_counter() - t0, 120)
