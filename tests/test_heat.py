"""Heat machinery: resolvent layers, contour and Mellin values, coefficients."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ncps import clifford
from ncps import functionals as fn
from ncps import heat as ht
from ncps import numeric as nm
from ncps import symbols as sy
from ncps.algebra import AlgebraElement, gen, tau_class
from ncps.scalars import DomainError, ExactScalar, gamma_half_pair
from ncps.symbols import Component, Mat2, OperatorFamily, dirac_symbol

DIM = 3


def unit_mat(scale=1):
    return Mat2.diag(AlgebraElement.rational(scale))


def test_free_resolvent_layers():
    _, sd2 = dirac_symbol(OperatorFamily.free(3))
    layers = ht.resolvent_symbols(sd2, 3)
    assert list(layers[0].terms) == [((0, 0, 0), 0, 1)]
    assert all(layers[k].is_empty() for k in (1, 2, 3))


def test_coupled_first_layer():
    fam = OperatorFamily.coupled(3)
    _, sd2 = dirac_symbol(fam)
    layers = ht.resolvent_symbols(sd2, 1)
    # one recursion step by hand: r1 = -r0 a1 r0 = -2 A_mu xi_mu (xi^2-lam)^{-2}
    A = [AlgebraElement.generator(gen(n, 3)) for n in fam.gauge]
    expect = ht.ResolventComponent(3, 1)
    for mu in range(3):
        beta = tuple(1 if j == mu else 0 for j in range(3))
        expect.add_term(beta, 0, 2, Mat2.diag(A[mu].scale_rational(-2)))
    diff = layers[1].add(expect.neg())
    assert all(m.is_zero() for m in diff.terms.values())


def test_conformal_leading_layer():
    _, sd2 = dirac_symbol(OperatorFamily.conformal(3, t_cap=1))
    r0 = ht.resolvent_symbols(sd2, 0)[0]
    h = AlgebraElement.generator(gen("h", 3))
    grade0 = {k: m.map(lambda v: v.t_grade(0)) for k, m in r0.terms.items()}
    assert set(k for k, m in grade0.items() if not m.is_zero()) == {((0, 0, 0), 0, 1)}
    # t grade: -2 t h xi^2 (xi^2 - lam)^{-2}, with xi^2 kept factored
    assert set(r0.terms) == {((0, 0, 0), 0, 1), ((0, 0, 0), 1, 2)}
    mat = r0.terms[((0, 0, 0), 1, 2)]
    expect = Mat2.diag(h.scale(ExactScalar.t_power(1, -2, t_cap=1)))
    assert all(
        (mat.e[r][c] - expect.e[r][c]).is_zero() for r in range(2) for c in range(2)
    )


def test_resolvent_render_shows_xi2_factor():
    _, sd2 = dirac_symbol(OperatorFamily.conformal(3, t_cap=2))
    text = ht.resolvent_symbols(sd2, 0)[0].render()
    assert text.startswith("(xi^2-lam)^{-1} . ")
    assert "  +  (xi^2)*(xi^2-lam)^{-2} . " in text
    assert "  +  (xi^2)^2*(xi^2-lam)^{-3} . " in text


# sha256 of render(), recorded before the term maps shared one render
GOLDEN_RENDERS = {
    "coupled r_1": "13ee7a8b3f17f420d1c9e3769049d7b0f622e7be139d2ec07fd7985fefb6489a",
    "coupled r_2": "c56940c25ea1bc5a8097d0c78fe9228e245e173521ea2df4ddf75f2f5d63b3a8",
    "conformal_t1 r_1": "de71ffefaf8a5533ad2def26f9a352c1f594a082295ce8436e7b76901847ec37",
    "conformal_t1 r_2": "30dbbe7a81183dbec18725ea4ce0da5eada7dc36794e656a7cebb64a7cc271f2",
    "coupled sign": "a79d23b4d478620613b342e030239e59e962a9b97dfa369d0398dad5d8cb8b9b",
}


def test_golden_layer_and_sign_renders():
    import hashlib

    texts = {}
    for name, fam in (("coupled", OperatorFamily.coupled(3)), ("conformal_t1", OperatorFamily.conformal(3, 1))):
        layers = ht.resolvent_symbols(dirac_symbol(fam)[1], 2)
        texts.update({f"{name} r_{k}": layers[k].render() for k in (1, 2)})
    texts["coupled sign"] = sy.sign_symbol(OperatorFamily.coupled(3), -3).render()
    assert {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()} == GOLDEN_RENDERS


def test_momentum_integrand_render_shows_the_xi2_power():
    _, sd2 = dirac_symbol(OperatorFamily.conformal(3, t_cap=1))
    text = ht.lambda_contour_integral(ht.resolvent_symbols(sd2, 0)[0]).render()
    assert text.startswith("1 . ") and "  +  (xi^2) . " in text


def test_resolvent_homogeneity_audit():
    for fam in (OperatorFamily.coupled(3), OperatorFamily.conformal(3, t_cap=2)):
        _, sd2 = dirac_symbol(fam)
        for k, layer in enumerate(ht.resolvent_symbols(sd2, 3)):
            for (beta, s, m) in layer.terms:
                assert sum(beta) + 2 * s - 2 * m == -2 - k


def reference_resolvent_symbols(sd2, count):
    """The recursion with r_0 expanded into monomials: each (xi^2)^j of the
    Neumann series becomes its xi2_monomials sum, so every key has s = 0.
    No derivative caches and no skipped pairings."""
    dim = sd2.dim
    _two, u = sy._central_leading(sd2)
    nu = u - AlgebraElement.unit()
    r0 = ht.ResolventComponent(dim, 0)
    power, j = AlgebraElement.unit(), 0
    while not power.is_zero():
        for mono, coeff in sy.xi2_monomials(dim, j):
            r0.add_term(mono, 0, j + 1, Mat2.diag(power).scale_rational((-1) ** j * coeff))
        power, j = power * nu, j + 1
    layers = [r0]
    for k in range(1, count + 1):
        cross = ht.ResolventComponent(dim, k - 2)
        for d, ad in sd2.components.items():
            for j, rj in enumerate(layers):
                order = d + k - 2 - j
                if order < 0:
                    continue
                for alpha in sy.multi_indices(dim, order):
                    left, right = ad, rj
                    for i, a in enumerate(alpha):
                        for _ in range(a):
                            left, right = left.xi_derivative(i), right.delta(i + 1)
                    term = right._like(right.degree + left.degree)
                    term.add_product(left, right)
                    cross = cross.add(term.scale_rational(Fraction(1, sy._alpha_factorial(alpha))))
        layers.append(r0.mul(cross).neg())
    return layers


def expand_xi2(layer):
    out = ht.ResolventComponent(layer.dim, layer.k)
    for (beta, s, m), mat in layer.terms.items():
        for mono, coeff in sy.xi2_monomials(layer.dim, s):
            beta2 = tuple(b + c for b, c in zip(beta, mono))
            out.add_term(beta2, 0, m, mat.scale_rational(coeff))
    return out


@pytest.mark.parametrize(
    "fam",
    [OperatorFamily.coupled(3), OperatorFamily.conformal(3, t_cap=2)],
    ids=["coupled", "conformal_t2"],
)
def test_factored_layers_match_monomial_reference(fam):
    _, sd2 = dirac_symbol(fam)
    layers = ht.resolvent_symbols(sd2, 3)
    reference = reference_resolvent_symbols(sd2, 3)
    for layer, ref in zip(layers, reference, strict=True):
        assert layer.k == ref.k
        assert expand_xi2(layer).add(ref.neg()).is_empty()
    if fam.kind == "conformal_dirac":
        # one term per Neumann power against 1 + 3 + 6 monomials
        assert len(layers[0].terms) == 3 and len(reference[0].terms) == 10
        assert any(s for (_beta, s, _m) in layers[2].terms)


def test_negative_layer_count_is_domain_error():
    _, sd2 = dirac_symbol(OperatorFamily.free(2))
    for fn in (ht.resolvent_symbols, ht.heat_coefficients):
        with pytest.raises(DomainError, match="must be >= 0, got -5"):
            fn(sd2, -5)
    assert len(ht.resolvent_symbols(sd2, 0)) == 1


def test_resolvent_rejects_nonpolynomial():
    fam = OperatorFamily.free(3)
    _, sd2 = dirac_symbol(fam)
    bad = sy.sqrt_symbol(sd2, floor=0)
    with pytest.raises((DomainError, sy.EllipticityShapeError)):
        ht.resolvent_symbols(bad, 1)


def contour_quadrature(m, xi2=1.7, radius=0.9):
    """Numerical clockwise contour integral of exp(-lam) (xi2-lam)^{-m} around xi2."""
    nodes = 4000
    total = 0j
    for k in range(nodes):
        th = 2 * math.pi * k / nodes
        lam = xi2 + radius * np.exp(-1j * th)  # clockwise
        dlam = -1j * radius * np.exp(-1j * th) * (2 * math.pi / nodes)
        total += np.exp(-lam) * (xi2 - lam) ** (-m) * dlam
    return (total / (2j * math.pi)).real


@pytest.mark.parametrize("m,factor", [(1, 1.0), (2, 1.0), (3, 0.5), (4, Fraction(1, 6))])
def test_contour_integral_matches_quadrature(m, factor):
    rc = ht.ResolventComponent(DIM, 2 * m - 2)
    rc.add_term((0, 0, 0), 0, m, unit_mat())
    out = ht.lambda_contour_integral(rc)
    mat = out.terms[((0, 0, 0), 0)]
    coeff = mat.e[0][0].unit_coefficient().rational_part()[0]
    assert coeff == Fraction(factor)
    xi2 = 1.7
    assert abs(float(coeff) * math.exp(-xi2) - contour_quadrature(m, xi2)) < 1e-10


def test_gaussian_moment_values():
    assert ht.gaussian_moment((0, 0, 0)) == ExactScalar.pi_half(3)
    assert ht.gaussian_moment((1, 0, 0)).is_zero()
    assert ht.gaussian_moment((2, 0)) == ExactScalar.pi_half(2, Fraction(1, 2))


@pytest.mark.parametrize("n", [2, 3])
def test_gaussian_xi2_moment_matches_monomial_expansion(n):
    for total in range(5):
        for beta in sy.multi_indices(n, total):
            for s in range(4):
                expect = ExactScalar.zero()
                for mono, coeff in sy.xi2_monomials(n, s):
                    shifted = tuple(b + c for b, c in zip(beta, mono))
                    expect = expect + ht.gaussian_moment(shifted).scale(coeff)
                assert ht.gaussian_xi2_moment(beta, s) == expect, (beta, s)


def _gamma_product_moment(beta, s):
    """The moment as a product of one-dimensional Gaussian moments
    ``Gamma((b + 1) / 2)`` times the radial ratio ``Gamma(a + s) / Gamma(a)``,
    ``a = (|beta| + n) / 2``."""
    if any(b % 2 for b in beta):
        return ExactScalar.zero()
    coeff, p = Fraction(1), 0
    for b in beta:
        c, half = gamma_half_pair(b + 1)
        coeff, p = coeff * c, p + half
    a = Fraction(sum(beta) + len(beta), 2)
    return ExactScalar.pi_half(p, coeff * math.prod(a + i for i in range(s)))


@pytest.mark.parametrize("n", [2, 3])
def test_gaussian_moments_match_the_gamma_product_reference(n):
    for total in range(9):
        for beta in sy.multi_indices(n, total):
            for s in range(4):
                assert ht.gaussian_xi2_moment(beta, s) == _gamma_product_moment(beta, s), (beta, s)
            assert ht.gaussian_moment(beta) == _gamma_product_moment(beta, 0), beta


def test_gaussian_xi2_moment_values():
    # int_{R^3} xi^2 exp(-xi^2) = (3/2) pi^{3/2}; int_{R^2} xi_1^2 (xi^2)^2 exp(-xi^2) = 3 pi
    assert ht.gaussian_xi2_moment((0, 0, 0), 1) == ExactScalar.pi_half(3, Fraction(3, 2))
    assert ht.gaussian_xi2_moment((2, 0), 2) == ExactScalar.pi_half(2, 3)
    assert ht.gaussian_xi2_moment((1, 0), 3).is_zero()


def test_free_heat_coefficients():
    _, sd2 = dirac_symbol(OperatorFamily.free(3))
    coeffs = ht.heat_coefficients(sd2, 3)
    assert (coeffs[0].traced - AlgebraElement.scalar(ExactScalar.pi_half(3, 2))).is_zero()
    assert all(coeffs[i].traced.is_zero() for i in (1, 2, 3))


def test_free_heat_coefficient_against_lattice():
    target = ExactScalar.pi_half(3, 2).to_complex().real
    t = 0.05
    value = nm.heat_trace_lattice(t, 40, 3)
    assert abs(t**1.5 * value - target) < 1e-3


def test_odd_coefficients_vanish_per_grade():
    _, sd2 = dirac_symbol(OperatorFamily.conformal(3, t_cap=2))
    coeffs = ht.heat_coefficients(sd2, 3)
    for i in (1, 3):
        for j in range(3):
            assert coeffs[i].traced.t_grade(j).is_zero()


def test_coupled_odd_coefficients_vanish():
    _, sd2 = dirac_symbol(OperatorFamily.coupled(3))
    coeffs = ht.heat_coefficients(sd2, 3)
    assert coeffs[1].traced.is_zero()
    assert coeffs[3].traced.is_zero()


def mellin_quadrature(m, c=1.3):
    """Numerical value of int_0^inf lam^{-1/2} (c + lam)^{-m} dlam,
    via the substitution lam = u^2 that removes the endpoint singularity."""
    us = np.linspace(0.0, 120.0, 2_000_001)
    ys = 2.0 * (c + us * us) ** (-float(m))
    return float(np.trapezoid(ys, us))


def test_mellin_factor_against_quadrature():
    # int lam^{-1/2} (xi^2 + lam)^{-2} = (pi/2) (xi^2)^{-3/2}
    c = 1.3
    expect = 0.5 * math.pi * c ** (-1.5)
    assert abs(mellin_quadrature(2, c) - expect) < 1e-4
    assert sy._mellin_half_factor(2) == Fraction(1, 2)  # (1/pi) * (pi/2)
    assert sy._mellin_half_factor(1) == Fraction(1)
    assert sy._mellin_half_factor(3) == Fraction(3, 8)


def test_mellin_free_single_component():
    _, sd2 = dirac_symbol(OperatorFamily.free(3))
    mel = ht.mellin_inverse_power(sd2, floor=-4)
    assert sorted(mel.components) == [-1]
    lead = Component(DIM, -1)
    lead.add_term((0, 0, 0), 1, unit_mat())
    assert mel.component(-1).equals(lead)


def test_mellin_coupled_order_minus_two():
    fam = OperatorFamily.coupled(3)
    _, sd2 = dirac_symbol(fam)
    mel = ht.mellin_inverse_power(sd2, floor=-2)
    A = [AlgebraElement.generator(gen(n, 3)) for n in fam.gauge]
    expect = Component(DIM, -2)
    for mu in range(3):
        beta = tuple(1 if j == mu else 0 for j in range(3))
        expect.add_term(beta, 3, Mat2.diag(-A[mu]))
    assert mel.component(-2).equals(expect)


def _route_case(fam, floor):
    cap = "" if fam.t_cap is None else f"_t{fam.t_cap}"
    return pytest.param(fam, floor, id=f"{fam.kind}{fam.dim}{cap}_floor{floor}")


ROUTE_CASES = [
    pytest.param(OperatorFamily.free(3), -4, id="free"),
    pytest.param(OperatorFamily.coupled(3), -4, id="coupled"),
    pytest.param(OperatorFamily.conformal(3, t_cap=2), -4, id="conformal_t2"),
    *(_route_case(OperatorFamily.free(2), floor) for floor in (-2, -3)),
    _route_case(OperatorFamily.free(3), -3),
    *(_route_case(OperatorFamily.coupled(3), floor) for floor in (-3, -5)),
    *(
        _route_case(OperatorFamily.conformal(3, t_cap=k), floor)
        for k in range(4)
        for floor in (-3, -4)
        if (k, floor) != (2, -4)
    ),
    *(
        _route_case(OperatorFamily.conformal(2, t_cap=k), floor)
        for k in range(5)
        for floor in (-2, -3)
    ),
    *(
        _route_case(OperatorFamily.unitary(3, (1, 0, 0), Fraction(1, 2)), floor)
        for floor in (-3, -4)
    ),
]


@pytest.mark.parametrize("fam, floor", ROUTE_CASES)
def test_oracle_equivalence_mellin_vs_sqrt_route(fam, floor):
    """The resolvent layers and the square root followed by inversion give
    the same ``|D|^{-1}``, component by component and byte for byte."""
    _, sd2 = dirac_symbol(fam)
    mel = ht.mellin_inverse_power(sd2, floor=floor)
    direct = sy.invert_symbol(sy.sqrt_symbol(sd2, floor + 2), floor)
    assert mel.floor == direct.floor == floor
    assert mel.equals(direct, down_to=floor)
    assert mel.render() == direct.render()


# sha256 of the per-grade renders joined by " | ", pinned before products
# skipped word pairs over the t cap
GOLDEN_ANOMALY_T2 = "0562b53524efbded94763154787c0c48521539de3e4990c660f2b3fa02880cf4"


def test_anomaly_density_grades():
    # closed form: -(2 pi / 3) t tau(h Delta h) at grade 1, zero elsewhere
    import hashlib

    h = AlgebraElement.generator(gen("h", 2))
    for t_cap in (1, 2):
        grades = ht.anomaly_density(OperatorFamily.conformal(2, t_cap=t_cap))
        assert sorted(grades) == list(range(t_cap + 1))
        lap = (h * (h.delta(1).delta(1) + h.delta(2).delta(2))).scale(
            ExactScalar.pi_half(2, Fraction(-2, 3)) * ExactScalar.t_power(1, t_cap=t_cap)
        )
        assert (grades[1].representative - tau_class(lap).representative).is_zero()
        assert tau_class(grades[1].representative - lap).is_zero()
        assert all(grades[j].is_zero() for j in grades if j != 1)
    text = " | ".join(grades[j].render() for j in sorted(grades))  # t_cap 2
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_ANOMALY_T2


def test_anomaly_density_rejects_wrong_family():
    with pytest.raises(DomainError):
        ht.anomaly_density(OperatorFamily.free(2))
    with pytest.raises(DomainError):
        ht.anomaly_density(OperatorFamily.conformal(3, t_cap=1))


def test_anomaly_against_lattice_finite_difference():
    """Numeric closure: the symbolic first-grade anomaly density must match a
    finite-difference extraction from truncated heat traces on a twisted
    torus."""
    dim = 2
    theta = nm.theta_matrix([[0.0, 0.37], [-0.37, 0.0]])
    h = nm.ConcreteElement(dim, {(1, 0): 0.2, (-1, 0): 0.2, (0, 1): 0.15, (0, -1): 0.15})
    fam = OperatorFamily.conformal(2, t_cap=1)
    grades = ht.anomaly_density(fam)
    d_a2_sym = (-0.5 * nm.evaluate_tau(grades[1], {"h": h}, theta, t=1.0)).real
    hh = AlgebraElement.generator(gen("h", dim))
    d_a0_sym = (-4 * math.pi * nm.evaluate_tau(tau_class(hh * hh), {"h": h}, theta)).real

    L, eps = 10, 0.02
    loc = np.kron(nm.multiplication_matrix(h, L, theta), np.eye(2, dtype=complex))
    numfam = nm.NumericFamily("conformal_dirac", dim, theta=theta, weyl=h)

    def traces(t, svals):
        return nm.heat_trace_operator(nm.build_operator(numfam, L, t=t), svals, loc)

    svals = np.linspace(0.15, 0.45, 13)
    g = (traces(eps, svals) - traces(-eps, svals)) / (2 * eps) - d_a0_sym / svals
    design = np.vstack([np.ones_like(svals), svals, svals**2, svals**3]).T
    coef, *_ = np.linalg.lstsq(design, g, rcond=None)
    assert abs(coef[0] - d_a2_sym) < 3e-3


def test_res_heat_crosscheck_free():
    pair = ht.res_heat_crosscheck(1, OperatorFamily.free(2))
    assert pair.agree()
    four_pi = AlgebraElement.scalar(ExactScalar.pi_half(2, 4))
    assert (pair.lhs_traced - four_pi).is_zero()


def test_res_heat_crosscheck_conformal_grades():
    pair = ht.res_heat_crosscheck(1, OperatorFamily.conformal(2, t_cap=1))
    assert pair.agree()
    for j in (0, 1):
        assert (pair.lhs_traced.t_grade(j) - pair.rhs_traced.t_grade(j)).is_zero()


def test_res_heat_invalid_k():
    with pytest.raises(DomainError):
        ht.res_heat_crosscheck(2, OperatorFamily.free(2))
    with pytest.raises(DomainError):
        ht.res_heat_crosscheck(0, OperatorFamily.free(2))


def test_res_heat_all_shipped_combinations():
    # every (k, family) pair reachable at these dimensions gives equal sides
    shipped = [
        OperatorFamily.free(2),
        OperatorFamily.conformal(2, t_cap=1),
        OperatorFamily.free(3),
        OperatorFamily.coupled(3),
        OperatorFamily.conformal(3, t_cap=2),
    ]
    for fam in shipped:
        pair = ht.res_heat_crosscheck(1, fam)
        assert pair.agree(), fam.kind


# -- residues equal heat coefficients in dimension 3 -------------------------------
#
# Tr(a Delta^{-z}) has a pole at z = (3 - k)/2 with residue beta_k(a) / Gamma((3 - k)/2),
# and by Wodzicki that residue is Wres(a Delta^{-(3-k)/2}) / 2 in the engine's
# normalization.  Gamma(1/2) = sqrt(pi) and ExactScalar has no negative pi power,
# so the residue side is multiplied by sqrt(pi).  |D|^{+-1} come from sqrt_symbol
# and invert_symbol, never from the resolvent layers the heat side is built on.

SQRT_PI = ExactScalar.pi_half(1)


def sqrt_pi_wres(sym, localizer=None):
    """sqrt(pi) times the traced residue density of ``localizer . sym`` in n = 3."""
    if localizer is not None:
        sym = sy.Symbol(DIM, {d: c.lmul_elem(localizer) for d, c in sym.components.items()}, sym.floor)
    return fn.wres(sym, DIM).traced.scale(SQRT_PI)


def inverse_abs_by_sqrt(sd2, floor):
    return sy.invert_symbol(sy.sqrt_symbol(sd2, floor + 2), floor)


def test_residue_of_localized_inverse_abs_is_twice_beta_2():
    _, sd2 = dirac_symbol(OperatorFamily.conformal(3, t_cap=2))
    h = AlgebraElement.generator(gen("h", DIM))
    lhs = sqrt_pi_wres(inverse_abs_by_sqrt(sd2, -3), h)
    rhs = ht.heat_coefficients(sd2, 2, localizer=h)[2].traced.scale_rational(2)
    assert (lhs - rhs).is_zero()
    assert [j for j in range(3) if not lhs.t_grade(j).is_zero()] == [1, 2]


@pytest.mark.parametrize("localizer", [None, "A1"])
def test_residue_of_localized_abs_is_minus_beta_4(localizer):
    _, sd2 = dirac_symbol(OperatorFamily.coupled(3))
    a = None if localizer is None else AlgebraElement.generator(gen(localizer, DIM))
    lhs = sqrt_pi_wres(sy.sqrt_symbol(sd2, -3), a)
    rhs = ht.heat_coefficients(sd2, 4, localizer=a)[4].traced.scale_rational(-1)
    assert (lhs - rhs).is_zero()
    assert not tau_class(lhs).is_zero()


def test_residue_of_inverse_abs_cubed_is_four_beta_0():
    _, sd2 = dirac_symbol(OperatorFamily.coupled(3))
    cube = sy.star_product(sy.invert_symbol(sd2, -3), inverse_abs_by_sqrt(sd2, -3), -3)
    lhs = sqrt_pi_wres(cube)
    assert (lhs - ht.heat_coefficients(sd2, 0)[0].traced.scale_rational(4)).is_zero()
    assert not lhs.is_zero()


def test_coupled_beta_4_is_the_yang_mills_density():
    # tau(beta_4) = -(pi^{3/2} / 3) sum_{mu != nu} tau(F_{mu nu}^2), with
    # F_{mu nu} = delta_mu A_nu - delta_nu A_mu + [A_mu, A_nu]
    fam = OperatorFamily.coupled(3)
    A = [AlgebraElement.generator(gen(name, DIM)) for name in fam.gauge]
    square = AlgebraElement.zero()
    for mu in range(DIM):
        for nu in range(DIM):
            if mu != nu:
                F = A[nu].delta(mu + 1) - A[mu].delta(nu + 1) + A[mu] * A[nu] - A[nu] * A[mu]
                square = square + F * F
    beta_4 = ht.heat_coefficients(dirac_symbol(fam)[1], 4)[4].traced
    assert not tau_class(beta_4).is_zero()
    assert tau_class(beta_4 - square.scale(ExactScalar.pi_half(3, Fraction(-1, 3)))).is_zero()


# -- conformal variation of the heat coefficients ---------------------------------
#
# D_t = e^{th/2} D e^{th/2} gives d/dt D_t = (h D_t + D_t h)/2, so by cyclicity of
# tau alone d/dt Tr e^{-s D_t^2} = 2s d/ds Tr(h e^{-s D_t^2}), hence
# d/dt beta_k = (k - n) beta_k(h); per grade, j [tau beta_k]_j = (k - n) t
# [tau beta_k(h)]_{j-1}.  The commutative form is Branson-Orsted, "Conformal
# indices of Riemannian manifolds" (Compositio Math. 1986).  For n = k = 2 it is
# Gauss-Bonnet; for n = 3, k = 3 the conformal invariance of zeta'(0).


def traced_beta_and_its_variation_gaps(n, k, t_cap):
    """The traced beta_k of conformal(n, t_cap), and per grade j >= 1 the
    trace class of j [beta_k]_j - (k - n) t [beta_k(h)]_{j-1}."""
    _, sd2 = dirac_symbol(OperatorFamily.conformal(n, t_cap=t_cap))
    beta = ht.heat_coefficients(sd2, k)[k]
    # beta_k(h) is the momentum integral localized by h on the left, then traced
    beta_h = beta.matrix.lmul(AlgebraElement.generator(gen("h", n))).trace()
    t = ExactScalar.t_power(1, t_cap=t_cap)
    gaps = []
    for j in range(1, t_cap + 1):
        lhs = beta.traced.t_grade(j).scale_rational(j)
        rhs = beta_h.t_grade(j - 1).scale(t).scale_rational(k - n)
        gaps.append(tau_class(lhs - rhs))
    return beta.traced, gaps


@pytest.mark.parametrize(
    "n, k, t_cap, nonzero_from",
    [
        (3, 0, 5, 0),
        (3, 2, 5, 2),
        (3, 4, 3, 2),
        pytest.param(3, 4, 4, 2, marks=pytest.mark.stress),
        pytest.param(3, 2, 6, 2, marks=pytest.mark.stress),
    ],
)
def test_conformal_variation_of_heat_coefficients(n, k, t_cap, nonzero_from):
    traced, gaps = traced_beta_and_its_variation_gaps(n, k, t_cap)
    assert all(gap.is_zero() for gap in gaps)
    # the identity relates classes that do not vanish from grade nonzero_from on
    assert all(not tau_class(traced.t_grade(j)).is_zero() for j in range(nonzero_from, t_cap + 1))


def test_gauss_bonnet_is_the_variation_identity_at_n_equal_k_equal_2():
    traced, gaps = traced_beta_and_its_variation_gaps(2, 2, 6)
    assert all(gap.is_zero() for gap in gaps)
    assert all(tau_class(traced.t_grade(j)).is_zero() for j in range(7))
    assert [j for j in range(7) if not traced.t_grade(j).is_zero()] == [1, 3, 5]


def test_third_order_conformal_stress():
    # the vanishing statements keep holding one grade beyond the acceptance
    fam = OperatorFamily.conformal(3, t_cap=3)
    sgn = sy.sign_symbol(fam, floor=-3)
    from ncps import functionals as fn

    density = fn.wres(sgn, 3)
    for j in range(4):
        assert density.traced.t_grade(j).is_zero()
    _, sd2 = dirac_symbol(fam)
    coeffs = ht.heat_coefficients(sd2, 3)
    for j in range(4):
        assert coeffs[1].traced.t_grade(j).is_zero()
        assert coeffs[3].traced.t_grade(j).is_zero()


def reference_resolvent_at_zero(sd2, floor):
    """The inverse read off the resolvent layers at lambda = 0: layer r_j
    gives the degree -2 - j component, and (xi^2 - lam)^{-m} becomes
    (xi^2)^{-m}, next to the (xi^2)^s the layer keeps factored."""
    comps = []
    for j, rc in enumerate(ht.resolvent_symbols(sd2, -floor - 2)):
        comp = Component(sd2.dim, -2 - j)
        for (beta, s, m), mat in rc.terms.items():
            comp.add_term(beta, 2 * (m - s), mat)
        comps.append(comp)
    return sy.Symbol.make(sd2.dim, comps, floor)


@pytest.mark.parametrize(
    "fam,floor",
    [
        (OperatorFamily.coupled(3), -4),
        (OperatorFamily.conformal(3, t_cap=2), -4),
        (OperatorFamily.free(2), -2),
        (OperatorFamily.conformal(2, t_cap=2), -2),
    ],
    ids=["coupled", "conformal_t2", "free2", "conformal2_t2"],
)
def test_resolvent_at_zero_is_the_inverse(fam, floor):
    _, sd2 = dirac_symbol(fam)
    inv = sy.invert_symbol(sd2, floor)
    assert reference_resolvent_at_zero(sd2, floor).render() == inv.render()
    # a second inversion renders the same: no state carries over between calls
    assert sy.invert_symbol(sd2, floor).render() == inv.render()


def test_resolvent_rejects_non_nilpotent_leading_perturbation():
    # sd2 = xi^2 (1 + t h) I with an uncapped t: the Neumann series never ends
    h = AlgebraElement.generator(gen("h", DIM))
    perturbed = Mat2.diag(AlgebraElement.unit() + h.scale(ExactScalar.t_power(1)))
    lead = Component(DIM, 2)
    for i in range(DIM):
        lead.add_term(tuple(2 if j == i else 0 for j in range(DIM)), 0, perturbed)
    sd2 = sy.Symbol.make(DIM, [lead])
    with pytest.raises(sy.EllipticityShapeError, match="not nilpotent"):
        ht.resolvent_symbols(sd2, 0)


def test_laurent_normalization_against_lattice():
    """The 1/q-normalized residue pairing must equal the leading lattice heat
    coefficient: both compute the residue of the zeta-type trace of the
    inverse flat squared family in dimension 2 (value 2 pi)."""
    from ncps import functionals as fn

    fam = OperatorFamily.free(2)
    _, sd2 = dirac_symbol(fam)
    inv = sy.invert_symbol(sd2, floor=-2)
    cls = fn.laurent_residue(inv, 2, 2)
    value = cls.representative.unit_coefficient().to_complex().real
    assert abs(value - 2 * math.pi) < 1e-15
    t = 0.05
    lattice_a0 = t * nm.heat_trace_lattice(t, 40, 2)
    assert abs(lattice_a0 - value) < 1e-6


# sha256 of "<matrix render> | <traced render>" per coefficient, pinned
# before the coefficient ring moved from Fractions to integer triples
GOLDEN_CONFORMAL_BETAS = {
    0: "6e8ffa0a6e1245b44d28cb2fcb3056c3253fda35a983c830c8adfb7a2f48c45a",
    1: "06d6e88daf0684baaed3679db61ee95c4bd214ce4bc0df2006d35f282a20f56f",
    2: "5f4f1a2b76e3be9f76762ace3470dc68adcbc7d619f580700ca9ed934da54451",
    3: "06d6e88daf0684baaed3679db61ee95c4bd214ce4bc0df2006d35f282a20f56f",
}


def test_golden_conformal_heat_renders():
    import hashlib

    _, sd2 = dirac_symbol(OperatorFamily.conformal(3, t_cap=2))
    coeffs = ht.heat_coefficients(sd2, 3)
    digests = {
        c.index: hashlib.sha256(
            f"{c.matrix.render()} | {c.traced.render()}".encode()
        ).hexdigest()
        for c in coeffs
    }
    assert digests == GOLDEN_CONFORMAL_BETAS


# sha256 of the symbol renders, pinned before the resolvent recursion and the
# star product shared one Moyal kernel
GOLDEN_CONFORMAL_INVERSE_POWERS = {
    "mellin_inverse_power": "3b1ca1fd608a9dcd1ad5a18b9465ba14bdfb0e1fcd4f0ffb38ee27f46ead3a16",
    "resolvent_at_zero": "9aae9dde5bc86a66d953f8edad0435a5c5604c93fb86a400c80d592f54d514a5",
}


def test_golden_conformal_inverse_power_renders():
    import hashlib

    _, sd2 = dirac_symbol(OperatorFamily.conformal(3, t_cap=2))
    # the resolvent at lambda = 0 is the symbol inverse itself
    routes = {"mellin_inverse_power": ht.mellin_inverse_power, "resolvent_at_zero": sy.invert_symbol}
    digests = {
        name: hashlib.sha256(route(sd2, -4).render().encode()).hexdigest()
        for name, route in routes.items()
    }
    assert digests == GOLDEN_CONFORMAL_INVERSE_POWERS


def test_contour_integral_drops_odd_moments():
    # every term of r_1 and r_3 is odd in some xi_i, so its moment is zero
    _, sd2 = dirac_symbol(OperatorFamily.conformal(3, t_cap=2))
    layers = ht.resolvent_symbols(sd2, 3)
    for k in (1, 3):
        assert not layers[k].is_empty()
        assert ht.lambda_contour_integral(layers[k]).is_empty()
    even = ht.lambda_contour_integral(layers[2])
    assert even.terms and all(b % 2 == 0 for beta, _s in even.terms for b in beta)


# sha256 of the "beta_<k>: <matrix render> | <traced render>" lines, recorded
# before the coefficient ring was hash-consed
GOLDEN_CONFORMAL_BETAS_T_CAP_3 = "850e441bd6706119d60b1bdd1b472adf955758233535097f8ff2e6bb433ceb6f"


def test_golden_conformal_heat_renders_at_t_cap_3():
    import hashlib

    _, sd2 = dirac_symbol(OperatorFamily.conformal(3, t_cap=3))
    text = "\n".join(
        f"beta_{c.index}: {c.matrix.render()} | {c.traced.render()}"
        for c in ht.heat_coefficients(sd2, 3)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_CONFORMAL_BETAS_T_CAP_3


def reference_heat_coefficients(sd2, count, localizer=None):
    """The contour integral of the full layers of ``resolvent_symbols``, as
    (matrix, traced, tau) per coefficient, and the layers themselves."""
    layers = ht.resolvent_symbols(sd2, count)
    out = []
    for rc in layers:
        mat = ht.momentum_integral(ht.lambda_contour_integral(rc))
        traced = (mat if localizer is None else mat.lmul(localizer)).trace()
        out.append((mat, traced, tau_class(traced)))
    return out, layers


def same_layer(a, b):
    return a.k == b.k and set(a.terms) == set(b.terms) and a.sub(b).is_empty()


def xi_even_part(layer):
    out = ht.ResolventComponent(layer.dim, layer.k)
    for (beta, s, m), mat in layer.terms.items():
        if not ht._xi_odd(beta):
            out.add_term(beta, s, m, mat)
    return out


H2 = AlgebraElement.generator(gen("h", 2))


@pytest.mark.parametrize(
    "fam, counts, localizer",
    [(OperatorFamily.conformal(3, t_cap=t), range(5), None) for t in range(4)]
    + [
        (OperatorFamily.coupled(3), (2, 3), None),
        (OperatorFamily.free(2), range(5), None),
        (OperatorFamily.free(3), range(5), None),
    ]
    + [(OperatorFamily.conformal(2, t_cap=t), range(1, 4), H2) for t in range(6)],
    ids=[f"conformal3_t{t}" for t in range(4)]
    + ["coupled3", "free2", "free3"]
    + [f"conformal2_t{t}_h" for t in range(6)],
)
def test_heat_coefficients_match_the_full_layer_reference(fam, counts, localizer, monkeypatch):
    # the last layer is built in its xi-even part only; the coefficients, and
    # every layer below it, are those of the full recursion
    _, sd2 = dirac_symbol(fam)
    reference, full = reference_heat_coefficients(sd2, max(counts), localizer)
    integrate = ht.lambda_contour_integral
    seen = []
    monkeypatch.setattr(ht, "lambda_contour_integral", lambda rc: seen.append(rc) or integrate(rc))
    for count in counts:
        seen.clear()
        coeffs = ht.heat_coefficients(sd2, count, localizer=localizer)
        assert len(coeffs) == len(seen) == count + 1
        for layer, ref in zip(seen[:-1], full):
            assert same_layer(layer, ref)
        assert same_layer(seen[-1], xi_even_part(full[count]))
        for c, (mat, traced, tau) in zip(coeffs, reference, strict=False):
            assert c.matrix.render() == mat.render()
            assert c.traced.render() == traced.render()
            assert c.tau.render() == tau.render()


def test_an_odd_last_layer_builds_no_rung_and_no_product(monkeypatch):
    calls = {"delta": 0, "mul": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(sy, "_delta_step", counting("delta", sy._delta_step))
    mul = counting("mul", clifford._mul_into)
    monkeypatch.setattr(clifford, "_mul_into", mul)
    monkeypatch.setattr(sy, "_mul_into", mul)

    def cost(fn, *args):
        calls.update(delta=0, mul=0)
        fn(*args)
        return dict(calls)

    _, sd2 = dirac_symbol(OperatorFamily.conformal(3, t_cap=2))
    below = cost(ht.resolvent_symbols, sd2, 2)
    assert cost(ht.heat_coefficients, sd2, 3) == below
    # the full layer r_3 costs both
    full = cost(ht.resolvent_symbols, sd2, 3)
    assert full["delta"] > below["delta"] > 0 and full["mul"] > below["mul"] > 0
