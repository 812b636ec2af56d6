"""Residue functionals: sphere moments, residues, cut-off integral, variations."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ncps import functionals as fn
from ncps import symbols as sy
from ncps.algebra import AlgebraElement, gen, tau_class
from ncps.scalars import DomainError, ExactScalar
from ncps.symbols import (
    Component,
    InsufficientFloorError,
    Mat2,
    OperatorFamily,
    Symbol,
    sign_symbol,
    star_product,
)

DIM = 3


def unit_mat(scale=1):
    return Mat2.diag(AlgebraElement.rational(scale))


def sphere_quadrature(beta):
    """Gauss-Legendre quadrature of a monomial over the unit 2-sphere."""
    nodes, weights = np.polynomial.legendre.leggauss(40)
    phis = np.linspace(0.0, 2 * math.pi, 161)[:-1]
    dphi = phis[1] - phis[0]
    total = 0.0
    for c, w in zip(nodes, weights):
        s = math.sqrt(1 - c * c)
        for phi in phis:
            x, y, z = s * math.cos(phi), s * math.sin(phi), c
            total += w * dphi * x ** beta[0] * y ** beta[1] * z ** beta[2]
    return total


def test_sphere_integral_examples():
    assert fn.sphere_integral((0, 0, 0), 3) == ExactScalar.pi_half(2, 4)
    assert fn.sphere_integral((1, 0, 0), 3).is_zero()
    assert fn.sphere_integral((2, 2, 0), 3) == ExactScalar.pi_half(2, Fraction(4, 15))


@pytest.mark.parametrize(
    "beta", [(0, 0, 0), (2, 0, 0), (2, 2, 0), (4, 0, 0), (2, 2, 2), (1, 1, 0), (0, 4, 2)]
)
def test_sphere_integral_against_quadrature(beta):
    exact = fn.sphere_integral(beta, 3).to_complex().real
    approx = sphere_quadrature(beta)
    assert abs(exact - approx) < 1e-12


def test_sphere_integral_dim2():
    assert fn.sphere_integral((0, 0), 2) == ExactScalar.pi_half(2, 2)
    assert fn.sphere_integral((2, 0), 2) == ExactScalar.pi_half(2, 1)


def test_wres_free_vanishes_at_density():
    sgn = sign_symbol(OperatorFamily.free(3), floor=-3)
    assert fn.wres(sgn, 3).vanishing_level() == "density"


def test_wres_coupled_vanishes_after_matrix_trace():
    sgn = sign_symbol(OperatorFamily.coupled(3), floor=-3)
    level = fn.wres(sgn, 3).vanishing_level()
    assert level in ("density", "trace", "tau")
    assert level == "trace"


def test_wres_conformal_vanishes_per_grade():
    sgn = sign_symbol(OperatorFamily.conformal(3, t_cap=2), floor=-3)
    density = fn.wres(sgn, 3)
    assert density.vanishing_level() in ("density", "trace", "tau")
    for j in range(3):
        assert density.traced.t_grade(j).is_zero()


def test_wres_requires_depth():
    sgn = sign_symbol(OperatorFamily.free(3), floor=-2)
    with pytest.raises(InsufficientFloorError):
        fn.wres(sgn, 3)


def test_wres_nonzero_witness():
    comp = Component(DIM, -3)
    h = AlgebraElement.generator(gen("h", DIM))
    comp.add_term((0, 0, 0), 3, Mat2.diag(h))
    density = fn.wres(Symbol.make(DIM, [comp]), 3)
    assert density.vanishing_level() == "none"
    # 4pi sphere area times matrix trace 2
    expect = h.scale(ExactScalar.pi_half(2, 8))
    assert (density.traced - expect).is_zero()


def test_wres_invariant_under_rerepresentation():
    h = AlgebraElement.generator(gen("h", DIM))
    a = Component(DIM, -3)
    a.add_term((0, 0, 0), 3, Mat2.diag(h))
    b = Component(DIM, -3)
    for i in range(DIM):
        b.add_term(tuple(2 if j == i else 0 for j in range(DIM)), 5, Mat2.diag(h))
    da = fn.wres(Symbol.make(DIM, [a]), 3)
    db = fn.wres(Symbol.make(DIM, [b]), 3)
    assert (da.traced - db.traced).is_zero()


def test_cutoff_integral_examples():
    c = Component(DIM, -4)
    c.add_term((0, 0, 0), 4, unit_mat())
    finite, logdiv = fn.cutoff_integral(Symbol.make(DIM, [c]), 3)
    assert not logdiv
    expect = unit_mat().scale(ExactScalar.pi_half(2, 4))
    assert all(
        (finite.e[i][j] - expect.e[i][j]).is_zero() for i in range(2) for j in range(2)
    )

    r = Component(DIM, -3)
    r.add_term((0, 0, 0), 3, unit_mat())
    finite, logdiv = fn.cutoff_integral(Symbol.make(DIM, [r]), 3)
    assert logdiv and finite.is_zero()

    finite, logdiv = fn.cutoff_integral(Symbol(DIM, {}, None), 3)
    assert not logdiv and finite.is_zero()


def test_laurent_residue_examples():
    sgn = sign_symbol(OperatorFamily.coupled(3), floor=-3)
    assert fn.laurent_residue(sgn, 1, 3).is_zero()

    h = AlgebraElement.generator(gen("h", DIM))
    comp = Component(DIM, -3)
    comp.add_term((0, 0, 0), 3, Mat2.diag(h))
    cls = fn.laurent_residue(Symbol.make(DIM, [comp]), 2, 3)
    expect = tau_class(h.scale(ExactScalar.pi_half(2, 4)))
    assert (cls.representative - expect.representative).is_zero()

    assert fn.laurent_residue(Symbol(DIM, {}, -4), 1, 3).is_zero()
    with pytest.raises(DomainError):
        fn.laurent_residue(sgn, 0, 3)


def test_variation_residue_conformal_direction():
    conf = OperatorFamily.conformal(3, t_cap=1)
    direction = fn.conformal_variation_direction(conf)
    assert fn.variation_residue(OperatorFamily.free(3), direction).is_zero()


def test_variation_residue_unitary_flow_samples():
    direction = Symbol.make(DIM, [sy._slash_component(DIM, [
        AlgebraElement.rational(1),
        AlgebraElement.rational(0),
        AlgebraElement.rational(0),
    ])])
    for t in (Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(7, 5)):
        fam = OperatorFamily.unitary(3, (1, 0, 0), t)
        assert fn.variation_residue(fam, direction).is_zero()


def test_variation_residue_zero_direction():
    assert fn.variation_residue(
        OperatorFamily.free(3), Symbol(DIM, {}, None)
    ).is_zero()


def test_variation_residue_is_minus_the_residue_of_the_product():
    # the gauge direction gamma^mu dA_mu of a coupled family, where the
    # variation is the induced Chern-Simons density with the opposite sign
    fam = OperatorFamily.coupled(3)
    coeffs = [AlgebraElement.generator(gen(f"dA{m}", DIM)) for m in range(1, DIM + 1)]
    direction = Symbol.make(DIM, [sy._slash_component(DIM, coeffs)])
    got = fn.variation_residue(fam, direction)
    inv = sy.inverse_abs_symbol(fam, floor=-4)
    plain = fn.wres(star_product(direction, inv, -3), 3)
    assert got.value == plain.value.neg()
    assert got.traced == -plain.traced
    assert got.vanishing_level() == "none"
    assert (got.tau_value + fn.induced_cs_density(fam)).is_zero()


def test_residue_trace_property_random():
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from test_symbols import random_symbol

    rng = random.Random(211)
    for _ in range(50):
        a = random_symbol(rng)
        b = random_symbol(rng)
        comm = star_product(a, b, -3).sub(star_product(b, a, -3))
        assert fn.wres(comm, 3).tau_value.is_zero()


def test_residue_vanishes_without_residue_component():
    # differential-operator case: polynomial symbols have no degree -3 part
    _, sd2 = sy.dirac_symbol(OperatorFamily.coupled(3))
    assert fn.wres(sd2, 3).vanishing_level() == "density"


def test_cs_density_zero_gauge():
    # with the gauge generators filtered to degree zero the density vanishes
    fam = OperatorFamily.coupled(3)
    cls = fn.induced_cs_density(fam, gauge_cap=0)
    assert cls.is_zero()


def test_cs_density_linear_and_filtered():
    fam = OperatorFamily.coupled(3)
    full = fn.induced_cs_density(fam)
    assert not full.is_zero()
    for word, _ in full.representative.terms():
        assert sum(1 for g in word if g.base in ("dA1", "dA2", "dA3")) == 1
    capped = fn.induced_cs_density(fam, gauge_cap=2)
    assert (full.representative - capped.representative).is_zero()
    linear = fn.induced_cs_density(fam, gauge_cap=1)
    trunc = full.representative.filter_base_degree(fam.gauge, 1)
    assert (linear.representative - trunc).is_zero()


def sqrt_inversion_cs_density(f, gauge_cap):
    """``Wres(gamma^mu dA_mu |D|^{-1})`` with ``|D|^{-1}`` by the square root
    and then its inverse, trimmed to ``gauge_cap`` after every stage."""

    def trim(sym):
        return sym if gauge_cap is None else sym.filter_base_degree(f.gauge, gauge_cap)

    dim = f.dim
    sd2 = sy.dirac_symbol(f)[1]
    absd = sy.sqrt_symbol(trim(sd2), -dim + 1)
    inv = trim(sy.invert_symbol(trim(absd), -dim - 1))
    coeffs = [AlgebraElement.generator(gen(f"dA{m}", dim)) for m in range(1, dim + 1)]
    direction = Symbol.make(dim, [sy._slash_component(dim, coeffs)])
    return fn.wres(trim(star_product(direction, inv, -dim)), dim).tau_value


@pytest.mark.parametrize("gauge_cap", [None, 1, 2])
def test_cs_density_matches_the_sqrt_inversion_pipeline(gauge_cap):
    fam = OperatorFamily.coupled(3)
    got = fn.induced_cs_density(fam, gauge_cap=gauge_cap)
    ref = sqrt_inversion_cs_density(fam, gauge_cap)
    assert (got.representative - ref.representative).is_zero()
    assert got.render() == ref.render()


# sha256 of the render, pinned before products skipped word pairs over the
# t cap
GOLDEN_CS_DENSITY = "3183a61967a9063c61d3b1eb98520e53d4cd19aab13782afb6d71fd87e2df36b"


def test_cs_density_closed_form():
    # -4 pi i eps^{mu nu lam} tau(dA_mu (delta_nu A_lam + A_nu A_lam))
    import hashlib

    full = fn.induced_cs_density(OperatorFamily.coupled(3))
    A = [AlgebraElement.generator(gen(f"A{m}", DIM)) for m in (1, 2, 3)]
    dA = [AlgebraElement.generator(gen(f"dA{m}", DIM)) for m in (1, 2, 3)]
    expect = AlgebraElement.zero()
    for mu, nu, lam in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        for n, l, sign in ((nu, lam, 1), (lam, nu, -1)):
            term = dA[mu] * (A[l].delta(n + 1) + A[n] * A[l])
            expect = expect + term.scale_rational(sign)
    expect = expect.scale(ExactScalar({(2, 0): (0, -4)}))
    assert not full.is_zero()
    assert tau_class(full.representative - expect).is_zero()
    assert hashlib.sha256(full.render().encode()).hexdigest() == GOLDEN_CS_DENSITY


@pytest.mark.parametrize(
    "phase, invariant",
    [((1, 0), True), ((-1, 0), False), ((0, 1), False), ((0, -1), False)],
)
def test_cs_density_is_gauge_invariant_in_tau(phase, invariant):
    # dA_mu -> delta_mu u + c [A_mu, u] with u not self-adjoint: only c = 1,
    # the convention of the README, gives zero in tau
    density = fn.induced_cs_density(OperatorFamily.coupled(3)).representative
    u = AlgebraElement.generator(gen("u", DIM, selfadj=False))
    c = ExactScalar.rational(*phase)
    for m in (1, 2, 3):
        A = AlgebraElement.generator(gen(f"A{m}", DIM))
        density = density.substitute(f"dA{m}", u.delta(m) + (A * u - u * A).scale(c))
    assert not density.is_zero()
    assert tau_class(density).is_zero() is invariant


def _letters(base):
    return [AlgebraElement.generator(gen(f"{base}{m}", DIM)) for m in (1, 2, 3)]


def _cs_variation(omega, B, X):
    """D_B omega_A(X): the t^1 part of ``omega`` after A_mu -> A_mu + t B_mu
    and dA_mu -> X_mu; a derived letter d(nu)(A_mu) becomes delta_nu of the
    shifted A_mu."""
    t = AlgebraElement.scalar(ExactScalar.t_power(1, t_cap=1))
    for m, (A, b) in enumerate(zip(_letters("A"), B), start=1):
        omega = omega.substitute(f"A{m}", A + t * b)
    for m, x in enumerate(X, start=1):
        omega = omega.substitute(f"dA{m}", x)
    return omega.t_grade(1)


def _cs_closed(omega) -> bool:
    """Whether the one-form omega_A(X) is closed in tau:
    D_B omega_A(X) = D_X omega_A(B)."""
    B, X = _letters("B"), _letters("X")
    return tau_class(_cs_variation(omega, B, X) - _cs_variation(omega, X, B)).is_zero()


def test_cs_density_is_closed_in_tau():
    # the induced CS density is the variation of a functional, so as a
    # one-form on gauge fields it is closed.  Closedness does not fix the
    # ratio of the A dA part to the A A dA part, since each part is closed on
    # its own; the gauge-invariance test above fixes it.
    omega = fn.induced_cs_density(OperatorFamily.coupled(3)).representative
    assert not tau_class(_cs_variation(omega, _letters("B"), _letters("X"))).is_zero()
    assert _cs_closed(omega)
    terms = list(omega.terms())
    assert len(terms) == 12
    for length in (2, 3):
        assert _cs_closed(AlgebraElement({w: s for w, s in terms if len(w) == length}))
    # every single-term sign flip breaks it
    for i in range(len(terms)):
        flipped = AlgebraElement({w: -s if j == i else s for j, (w, s) in enumerate(terms)})
        assert not _cs_closed(flipped), terms[i][0]


def test_cs_density_rejects_other_families():
    with pytest.raises(DomainError):
        fn.induced_cs_density(OperatorFamily.free(3))


def test_functionals_are_linear_over_scalars():
    s = ExactScalar.rational(Fraction(3, 5), Fraction(1, 2)) * ExactScalar.pi_half(1)
    h = AlgebraElement.generator(gen("h", DIM))
    comp = Component(DIM, -3)
    comp.add_term((2, 0, 0), 5, Mat2.diag(h))
    sym = Symbol.make(DIM, [comp])
    scaled = Symbol.make(DIM, [comp.scale(s)])
    lhs = fn.wres(scaled, 3).traced
    rhs = fn.wres(sym, 3).traced.scale(s)
    assert (lhs - rhs).is_zero()
    fin_a, _ = fn.cutoff_integral(Symbol.make(DIM, [Component.scalar(DIM, AlgebraElement.unit())]), 3)
    fin_b, _ = fn.cutoff_integral(Symbol.make(DIM, [Component.scalar(DIM, AlgebraElement.unit()).scale(s)]), 3)
    assert all(
        (fin_b.e[i][j] - fin_a.e[i][j].scale(s)).is_zero()
        for i in range(2)
        for j in range(2)
    )


def test_residue_density_t_grade_slices_every_level():
    # grade 1 of a density that vanishes only in tau: h d1(h) - d1(h) h
    h = AlgebraElement.generator(gen("h", DIM))
    t1 = ExactScalar.t_power(1, t_cap=2)
    comm = (h * h.delta(1) - h.delta(1) * h).scale(t1)
    value = Mat2(((comm, AlgebraElement.zero()), (AlgebraElement.zero(), comm)))
    density = fn.ResidueDensity.from_matrix(value.add(Mat2.diag(AlgebraElement.unit())))
    assert density.t_grade(0).vanishing_level() == "none"
    assert density.t_grade(1).vanishing_level() == "tau"
    assert density.t_grade(2).vanishing_level() == "density"
    grade1 = density.t_grade(1)
    assert grade1.value == value and grade1.traced == comm.scale_rational(2)

