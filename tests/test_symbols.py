"""Symbol calculus: zero tests, star product, families, inversion, square root."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncps import symbols as sy
from ncps.algebra import AlgebraElement, Generator, exp_expand, gen, sqrt_perturbed_unit
from ncps.scalars import DomainError, ExactScalar
from ncps.symbols import (
    Component,
    EllipticityShapeError,
    InsufficientFloorError,
    Mat2,
    OperatorFamily,
    Symbol,
    dirac_symbol,
    invert_symbol,
    sign_symbol,
    sqrt_symbol,
    star_product,
)

DIM = 3
E = lambda *b: tuple(b)  # noqa: E731


def unit_mat(scale=1):
    return Mat2.diag(AlgebraElement.rational(scale))


def elem_mat(a):
    return Mat2.diag(a)


def one_symbol(dim=DIM):
    return Symbol.make(dim, [Component.scalar(dim, AlgebraElement.unit())])


def xi_slash(dim=DIM):
    return sy._xi_slash(dim)


# -- zero test -------------------------------------------------------------------


def test_zero_test_xi2_identity():
    c = Component(DIM, -1)
    for i in range(DIM):
        beta = tuple(2 if j == i else 0 for j in range(DIM))
        c.add_term(beta, 3, unit_mat())
    c.add_term((0, 0, 0), 1, unit_mat(-1))
    assert c.reduced().is_empty()


def test_zero_test_odd_function():
    c = Component(DIM, 0)
    c.add_term((1, 0, 0), 1, unit_mat())
    assert not c.reduced().is_empty()


def test_zero_test_no_free_commutation():
    h = AlgebraElement.generator(gen("h", DIM))
    d1h = h.delta(1)
    c = Component(DIM, 1)
    c.add_term((1, 0, 0), 0, elem_mat(h * d1h - d1h * h))
    assert not c.reduced().is_empty()


def test_reduction_is_canonical():
    # the same function written at two denominator levels reduces identically
    a = Component(DIM, 0)
    a.add_term((2, 0, 0), 2, unit_mat())
    b = Component(DIM, 0)
    b.add_term((2, 2, 0), 4, unit_mat())
    b.add_term((4, 0, 0), 4, unit_mat())
    b.add_term((2, 0, 2), 4, unit_mat())
    assert a.reduced().terms.keys() == b.reduced().terms.keys()
    assert a.sub(b).is_zero()


def _reference_acc(numer, beta, mat):
    if beta in numer:
        s = numer[beta].add(mat)
        if s.is_zero():
            del numer[beta]
        else:
            numer[beta] = s
    elif not mat.is_zero():
        numer[beta] = mat


def _reference_divmod(numer, dim):
    """Divide a numerator by sum_i xi_i^2, leading monomial xi_1^2 in lex order."""
    work = dict(numer)
    quot = {}
    while True:
        cand = [beta for beta in work if beta[0] >= 2]
        if not cand:
            return quot, work
        beta = max(cand)
        mat = work.pop(beta)
        q = (beta[0] - 2,) + beta[1:]
        _reference_acc(quot, q, mat)
        for i in range(1, dim):
            b = list(q)
            b[i] += 2
            _reference_acc(work, tuple(b), mat.neg())


def reference_reduced(comp):
    """The former canonicalization: per parity class of m, clear to a common
    denominator, then peel xi^2 factors off the numerator level by level."""
    out = Component(comp.dim, comp.degree)
    for parity in (0, 1):
        group = {k: v for k, v in comp.terms.items() if k[1] % 2 == parity}
        if not group:
            continue
        level = max(m for (_b, m) in group)
        numer = {}
        for (beta, m), mat in group.items():
            for mono, coeff in sy.xi2_monomials(comp.dim, (level - m) // 2):
                b = tuple(x + y for x, y in zip(beta, mono))
                _reference_acc(numer, b, mat.scale_rational(coeff))
        while True:
            if level < 2:
                for beta, mat in numer.items():
                    out.add_term(beta, level, mat)
                break
            quot, rem = _reference_divmod(numer, comp.dim)
            for beta, mat in rem.items():
                out.add_term(beta, level, mat)
            if not quot:
                break
            level -= 2
            numer = quot
    return out


def same_terms(a, b):
    return a.terms.keys() == b.terms.keys() and all(
        a.terms[k] == b.terms[k] for k in a.terms
    )


@st.composite
def components(draw):
    """Components in dim 2 and 3: mixed parities and levels of m, t-graded
    coefficients under one cap with the grade fixed by the word (one per
    ``h``), and terms that cancel one level up through
    ``xi^beta (xi^2)^{-m/2} = sum_i xi^{beta + 2e_i} (xi^2)^{-(m+2)/2}``."""
    dim = draw(st.sampled_from((2, 3)))
    degree = draw(st.integers(-3, 2))
    cap = draw(st.sampled_from((None, 2)))
    h = AlgebraElement.generator(gen("h", dim))
    c = Component(dim, degree)
    for _ in range(draw(st.integers(1, 6))):
        beta = tuple(draw(st.integers(0, 4)) for _ in range(dim))
        if sum(beta) < degree:
            beta = (beta[0] + degree - sum(beta),) + beta[1:]
        m = sum(beta) - degree
        coeff = Fraction(draw(st.sampled_from((-3, -1, 1, 2))), draw(st.integers(1, 3)))
        grade = draw(st.integers(0, 2))
        v = AlgebraElement.scalar(ExactScalar.t_power(grade, coeff, cap))
        for _ in range(grade):
            v = v * h
        entries = [AlgebraElement.zero()] * 4
        entries[draw(st.integers(0, 3))] = v
        mat = Mat2(((entries[0], entries[1]), (entries[2], entries[3])))
        c.add_term(beta, m, mat)
        if draw(st.booleans()):
            for i in range(dim):
                b = tuple(x + 2 * (j == i) for j, x in enumerate(beta))
                c.add_term(b, m + 2, mat.neg())
    return c


@settings(max_examples=300, deadline=None)
@given(components())
def test_reduced_matches_common_denominator_reference(c):
    assert same_terms(c.reduced(), reference_reduced(c))


@settings(max_examples=100, deadline=None)
@given(components())
def test_reduced_is_idempotent_and_peeled(c):
    r = c.reduced()
    assert same_terms(r.reduced(), r)
    assert all(beta[0] < 2 for (beta, m) in r.terms if m >= 2)


def test_reduced_peels_xi1_squared_dim2():
    c = Component(2, 0)
    c.add_term((2, 0), 2, unit_mat())
    expect = {((0, 0), 0): unit_mat(), ((0, 2), 2): unit_mat(-1)}
    assert c.reduced().terms == expect


@pytest.mark.parametrize("beta, m", [((4, 1), 0), ((3, 2), 1), ((0, 0), 1)])
def test_reduced_keeps_polynomial_and_inverse_abs_levels(beta, m):
    c = Component(2, sum(beta) - m)
    c.add_term(beta, m, unit_mat(3))
    assert c.reduced().terms == {(beta, m): unit_mat(3)}


# -- star product -----------------------------------------------------------------


def test_star_free_dirac_square():
    sd, _ = dirac_symbol(OperatorFamily.free(DIM))
    sq = star_product(sd, sd)
    assert sorted(sq.components) == [2]
    expect = Component(DIM, 2)
    for i in range(DIM):
        expect.add_term(tuple(2 if j == i else 0 for j in range(DIM)), 0, unit_mat())
    assert sq.component(2).equals(expect)


def test_star_coupled_square_parts():
    fam = OperatorFamily.coupled(DIM)
    sd, sd2 = dirac_symbol(fam)
    A = [AlgebraElement.generator(gen(n, DIM)) for n in fam.gauge]
    # degree 1: the symmetrized gauge pairing collapses to 2 A_mu xi_mu x I
    expect1 = Component(DIM, 1)
    for mu in range(DIM):
        beta = tuple(1 if j == mu else 0 for j in range(DIM))
        expect1.add_term(beta, 0, elem_mat(A[mu].scale_rational(2)))
    assert sd2.component(1).equals(expect1)
    # degree 0: derivative plus quadratic gauge terms, as a concrete matrix
    expect0 = Component(DIM, 0)
    for mu in range(1, DIM + 1):
        for lam in range(1, DIM + 1):
            gmat = sy.gamma(DIM, mu).mul(sy.gamma(DIM, lam))
            c = A[lam - 1].delta(mu) + A[mu - 1] * A[lam - 1]
            expect0.add_term((0,) * DIM, 0, gmat.map(lambda v, c=c: c * v))
    assert sd2.component(0).equals(expect0)


def test_star_unit_law():
    rng = random.Random(3)
    for _ in range(5):
        b = random_symbol(rng)
        prod = star_product(one_symbol(), b, floor=min(b.components) if b.components else 0)
        assert prod.equals(b)


def test_star_requires_floor_for_nonpolynomial():
    a = Symbol.make(DIM, [inverse_sqrt_component()])
    with pytest.raises(InsufficientFloorError):
        star_product(a, a)


def inverse_sqrt_component():
    c = Component(DIM, -1)
    c.add_term((0, 0, 0), 1, unit_mat())
    return c


# -- families ---------------------------------------------------------------------


def test_free_dirac_symbol_matrix():
    sd, _ = dirac_symbol(OperatorFamily.free(DIM))
    comp = sd.component(1)
    # xi_3 on the diagonal, xi_1 -+ i xi_2 off it
    m3 = comp.terms[((0, 0, 1), 0)]
    assert m3.e[0][0] == AlgebraElement.rational(1)
    assert m3.e[1][1] == AlgebraElement.rational(-1)
    m1 = comp.terms[((1, 0, 0), 0)]
    assert m1.e[0][1] == AlgebraElement.rational(1)
    m2 = comp.terms[((0, 1, 0), 0)]
    assert m2.e[0][1] == AlgebraElement.rational(0, -1)


def test_conformal_symbol_first_order():
    sd, _ = dirac_symbol(OperatorFamily.conformal(DIM, t_cap=1))
    h = gen("h", DIM)
    one_plus_th = exp_expand(h, 1, 1)
    expect1 = Component(DIM, 1)
    for mu in range(1, DIM + 1):
        beta = tuple(1 if i == mu - 1 else 0 for i in range(DIM))
        expect1.add_term(beta, 0, sy.gamma(DIM, mu).map(lambda v, c=one_plus_th: c * v))
    assert sd.component(1).equals(expect1)
    expect0 = Component(DIM, 0)
    half = ExactScalar.t_power(1, Fraction(1, 2), t_cap=1)
    for mu in range(1, DIM + 1):
        dmu = AlgebraElement.generator(h).delta(mu).scale(half)
        expect0.add_term((0,) * DIM, 0, sy.gamma(DIM, mu).map(lambda v, c=dmu: c * v))
    assert sd.component(0).equals(expect0)


def test_conformal_symbol_matches_expansion_oracle():
    # sigma(D_t) = xi_mu e^{th} gamma^mu + e^{th/2} delta_mu(e^{th/2}) gamma^mu
    sd, _ = dirac_symbol(OperatorFamily.conformal(DIM, t_cap=2))
    h = gen("h", DIM)
    eth = exp_expand(h, 1, 2)
    ehalf = exp_expand(h, Fraction(1, 2), 2)
    deg1 = Component(DIM, 1)
    deg0 = Component(DIM, 0)
    for mu in range(1, DIM + 1):
        beta = tuple(1 if i == mu - 1 else 0 for i in range(DIM))
        deg1.add_term(beta, 0, sy.gamma(DIM, mu).map(lambda v, c=eth: c * v))
        c0 = ehalf * ehalf.delta(mu)
        deg0.add_term((0,) * DIM, 0, sy.gamma(DIM, mu).map(lambda v, c=c0: c * v))
    assert sd.equals(Symbol.make(DIM, [deg1, deg0]))


def test_unitary_flow_symbol():
    fam = OperatorFamily.unitary(DIM, (1, 0, 0), Fraction(1, 2))
    sd, _ = dirac_symbol(fam)
    free, _ = dirac_symbol(OperatorFamily.free(DIM))
    shift = Component(DIM, 0)
    shift.add_term((0,) * DIM, 0, sy.gamma(DIM, 1).scale_rational(Fraction(1, 2)))
    assert sd.equals(free.add(Symbol.make(DIM, [shift])))


def test_family_validation():
    with pytest.raises(sy.FamilyError):
        OperatorFamily("coupled_dirac", 3, gauge=("A1",))
    with pytest.raises(sy.FamilyError):
        OperatorFamily("conformal_dirac", 3)
    with pytest.raises(sy.FamilyError):
        OperatorFamily("unitary_flow", 3, flow_k=(1, 0))
    with pytest.raises(sy.FamilyError):
        OperatorFamily("nonsense", 3)
    with pytest.raises(sy.FamilyError):
        OperatorFamily("free_dirac", 4)


def test_family_roundtrip_dict():
    fam = OperatorFamily.unitary(3, (1, 0, 0), Fraction(1, 2))
    again = OperatorFamily.from_dict(fam.to_dict())
    assert again == fam


@pytest.mark.parametrize(
    "fam",
    [
        OperatorFamily.free(2),
        OperatorFamily.coupled(3),
        OperatorFamily.conformal(3, t_cap=2, weyl="k"),
        OperatorFamily.unitary(3, (1, 0, 2), Fraction(-1, 3)),
    ],
    ids=lambda fam: fam.kind,
)
def test_family_dict_holds_exactly_the_fields_of_its_kind(fam):
    data = fam.to_dict()
    assert set(data) == {"kind", "dim", *sy.FAMILY_FIELDS[fam.kind]}
    assert OperatorFamily.from_dict(json.loads(json.dumps(data))) == fam
    # a null field stands for an absent one, also where the kind reads none
    nulls = {key: None for key in ("t_cap", "gauge", "flow_t", "x") if key not in data}
    assert OperatorFamily.from_dict({**data, **nulls}) == fam


# -- inversion --------------------------------------------------------------------


def test_invert_identity():
    inv = invert_symbol(one_symbol(), floor=-2)
    assert inv.equals(one_symbol(), down_to=-2)


def test_invert_coupled_leading_terms():
    fam = OperatorFamily.coupled(DIM)
    _, sd2 = dirac_symbol(fam)
    absd = sqrt_symbol(sd2, floor=-2)
    inv = invert_symbol(absd, floor=-4)
    lead = Component(DIM, -1)
    lead.add_term((0, 0, 0), 1, unit_mat())
    assert inv.component(-1).equals(lead)
    # order -2 from the two-sided recursion: -(A.xi) (xi^2)^{-3/2} x I
    A = [AlgebraElement.generator(gen(n, DIM)) for n in fam.gauge]
    expect = Component(DIM, -2)
    for mu in range(DIM):
        beta = tuple(1 if j == mu else 0 for j in range(DIM))
        expect.add_term(beta, 3, elem_mat(-A[mu]))
    assert inv.component(-2).equals(expect)


def test_invert_requires_central_leading():
    bad = Symbol.make(DIM, [xi_slash()])  # leading matrix is not scalar
    with pytest.raises(EllipticityShapeError):
        invert_symbol(bad, floor=-2)


def test_invert_insufficient_floor():
    fam = OperatorFamily.coupled(DIM)
    _, sd2 = dirac_symbol(fam)
    absd = sqrt_symbol(sd2, floor=0)
    with pytest.raises(InsufficientFloorError):
        invert_symbol(absd, floor=-4)


# -- square root -------------------------------------------------------------------


def test_sqrt_scalar_symbol():
    _, sd2 = dirac_symbol(OperatorFamily.free(DIM))
    absd = sqrt_symbol(sd2, floor=-1)
    expect = Component(DIM, 0)
    expect.add_term((0, 0, 0), 0, unit_mat())
    assert absd.equals(Symbol.make(DIM, [expect.mul_xi2(1)]), down_to=-1)


def test_sqrt_coupled_order_zero():
    # the symmetric equation gives (A.xi)/sqrt(xi^2) x I at order zero
    fam = OperatorFamily.coupled(DIM)
    _, sd2 = dirac_symbol(fam)
    absd = sqrt_symbol(sd2, floor=0)
    A = [AlgebraElement.generator(gen(n, DIM)) for n in fam.gauge]
    expect = Component(DIM, 0)
    for mu in range(DIM):
        beta = tuple(1 if j == mu else 0 for j in range(DIM))
        expect.add_term(beta, 1, elem_mat(A[mu]))
    assert absd.component(0).equals(expect)


def test_sqrt_conformal_leading():
    _, sd2 = dirac_symbol(OperatorFamily.conformal(DIM, t_cap=1))
    absd = sqrt_symbol(sd2, floor=1)
    eth = exp_expand(gen("h", DIM), 1, 1)
    expect = Component(DIM, 0)
    expect.add_term((0, 0, 0), 0, elem_mat(eth))
    assert absd.component(1).equals(expect.mul_xi2(1))


def test_sqrt_odd_order_rejected():
    sd, _ = dirac_symbol(OperatorFamily.free(DIM))
    with pytest.raises(EllipticityShapeError):
        sqrt_symbol(sd, floor=0)


# -- sign symbols -------------------------------------------------------------------


def test_sign_free_single_component():
    sgn = sign_symbol(OperatorFamily.free(DIM), floor=-3)
    assert sorted(sgn.components) == [0]
    expect = xi_slash().mul_xi2(-1)
    assert sgn.component(0).equals(expect)


def test_sign_unitary_flow_binomial_oracle():
    # independent expansion of (xi + tk)_mu |xi + tk|^{-1} into homogeneous
    # parts by the binomial series, then compared against the engine
    t = Fraction(1, 3)
    k = (1, 0, 0)
    fam = OperatorFamily.unitary(DIM, k, t)
    sgn = sign_symbol(fam, floor=-3)

    # series for (xi^2 + u)^{-1/2}, u = 2t k.xi + t^2 k^2, graded by degree
    order = 5
    parts: dict[int, Component] = {}
    unit = Component(DIM, 0)
    unit.add_term((0,) * DIM, 0, unit_mat())
    coeff = Fraction(1)
    upow: dict[int, Component] = {0: unit}
    for j in range(order + 1):
        if j > 0:
            coeff *= Fraction(-(2 * j - 1), 2 * j)  # binom(-1/2, j) recurrence
            new: dict[int, Component] = {}
            for d, comp in upow.items():
                lin = Component(DIM, 1)
                lin.add_term(tuple(1 if i == 0 else 0 for i in range(DIM)), 0,
                             unit_mat().scale_rational(2 * t))
                const = Component(DIM, 0)
                const.add_term((0,) * DIM, 0, unit_mat().scale_rational(t * t))
                for part, shift in ((lin, 1), (const, 0)):
                    nd = d + shift
                    term = comp.mul(part)
                    new[nd] = new[nd].add(term) if nd in new else term
            upow = new
        for d, comp in upow.items():
            target = d - 1 - 2 * j
            if target < -4:
                continue
            contrib = comp.scale_rational(coeff).mul_xi2(-1 - 2 * j)
            parts[target] = parts[target].add(contrib) if target in parts else contrib
    inv_abs = Symbol.make(DIM, parts.values(), floor=-4)

    # multiply by (xi + tk) gamma pointwise (constant in the algebra sense)
    slash = Symbol.make(DIM, [xi_slash()]).add(
        Symbol.make(DIM, [_const_slash(t, k)])
    )
    expect = star_product(slash, inv_abs, -3)
    assert sgn.equals(expect, down_to=-3)


def _const_slash(t, k):
    comp = Component(DIM, 0)
    for mu in range(1, DIM + 1):
        if k[mu - 1]:
            comp.add_term(
                (0,) * DIM, 0,
                sy.gamma(DIM, mu).scale_rational(Fraction(t) * k[mu - 1]),
            )
    return comp


# -- random property suites -----------------------------------------------------------


def random_component(rng, dim, degree, *, gens=True):
    c = Component(dim, degree)
    beta = [0] * dim
    if rng.random() < 0.7:
        beta[rng.randint(0, dim - 1)] += 1
    m = sum(beta) - degree
    if m < 0:
        beta[rng.randint(0, dim - 1)] += -m
        m = 0
    nonzero = lambda: rng.choice([-3, -2, -1, 1, 2, 3])  # noqa: E731
    if gens and rng.random() < 0.6:
        base = rng.choice(["h", "A1"])
        deriv = [0] * dim
        if rng.random() < 0.5:
            deriv[rng.randint(0, dim - 1)] = 1
        val = AlgebraElement.generator(Generator(base, tuple(deriv))).scale_rational(
            Fraction(nonzero(), rng.randint(1, 2))
        )
    else:
        val = AlgebraElement.rational(
            Fraction(nonzero(), rng.randint(1, 2)), rng.randint(-1, 1)
        )
    entries = [AlgebraElement.zero()] * 4
    entries[rng.randint(0, 3)] = val
    if rng.random() < 0.3:
        entries[rng.randint(0, 3)] = AlgebraElement.rational(rng.randint(-2, 2))
    mat = Mat2(((entries[0], entries[1]), (entries[2], entries[3])))
    c.add_term(tuple(beta), m, mat)
    return c


def random_symbol(rng, dim=DIM, orders=(1, 0, -1)):
    comps = []
    for d in orders:
        if rng.random() < 0.7:
            comps.append(random_component(rng, dim, d))
    if not comps:
        comps.append(random_component(rng, dim, 0))
    return Symbol.make(dim, comps)


def test_star_associativity_random():
    rng = random.Random(101)
    floor = -2
    for _ in range(100):
        a = random_symbol(rng)
        b = random_symbol(rng)
        c = random_symbol(rng)
        ab = star_product(a, b, floor - 1)
        bc = star_product(b, c, floor - 1)
        left = star_product(ab, c, floor)
        right = star_product(a, bc, floor)
        assert left.equals(right, down_to=floor)


def test_star_leibniz_random():
    rng = random.Random(103)
    for _ in range(30):
        a = random_symbol(rng)
        b = random_symbol(rng)
        mu = rng.randint(1, DIM)
        floor = -2
        lhs = star_product(a, b, floor).map_coeffs(lambda v: v.delta(mu))
        da = a.map_coeffs(lambda v: v.delta(mu))
        db = b.map_coeffs(lambda v: v.delta(mu))
        rhs = star_product(da, b, floor).add(star_product(a, db, floor))
        assert lhs.equals(rhs, down_to=floor)


def test_star_degree_bookkeeping():
    rng = random.Random(107)
    for _ in range(20):
        a = random_symbol(rng)
        b = random_symbol(rng)
        floor = -3
        prod = star_product(a, b, floor)
        hi = a.order + b.order
        for d in prod.components:
            assert floor <= d <= hi


def test_roundtrips_for_shipped_families():
    fams = [
        OperatorFamily.free(3),
        OperatorFamily.coupled(3),
        OperatorFamily.conformal(3, t_cap=2),
        OperatorFamily.unitary(3, (1, 0, 0), Fraction(2, 5)),
        OperatorFamily.free(2),
        OperatorFamily.conformal(2, t_cap=1),
    ]
    one2 = Symbol.make(2, [Component.scalar(2, AlgebraElement.unit())])
    for fam in fams:
        _, sd2 = dirac_symbol(fam)
        absd = sqrt_symbol(sd2, floor=-2)
        inv = invert_symbol(absd, floor=-fam.dim - 1)
        unit = one_symbol() if fam.dim == 3 else one2
        assert star_product(absd, absd, -1).equals(sd2, down_to=-1), fam.kind
        assert star_product(absd, inv, -fam.dim).equals(unit, down_to=-fam.dim), fam.kind


def test_sign_coupled_residue_degree_assembly():
    """Independent assembly of the degree -3 part of the coupled sign symbol.

    Collecting the star product by orders, the only contributions at the
    residue degree are the two pointwise pairs and the first xi-derivative of
    the leading part (the order-0 factor is xi-free and the order-1 factor is
    linear in xi, so everything else dies)."""
    fam = OperatorFamily.coupled(DIM)
    sd, sd2 = sy.dirac_symbol(fam)
    absd = sy.sqrt_symbol(sd2, floor=-2)
    inv = sy.invert_symbol(absd, floor=-4)
    engine = sy.sign_symbol(fam, floor=-3).component(-3)

    d1 = sd.component(1)
    d0 = sd.component(0)
    assembled = d1.mul(inv.component(-4)).add(d0.mul(inv.component(-3)))
    for i in range(DIM):
        assembled = assembled.add(
            d1.xi_derivative(i).mul(inv.component(-3).delta(i + 1))
        )
    assert engine.equals(assembled)


def _sha256(text):
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_coupled_sign_render():
    """Byte-identical render of the coupled sign symbol at floor -3, pinned
    before the coefficient ring moved from Fractions to integer triples."""
    sd, sd2 = dirac_symbol(OperatorFamily.coupled(3))
    sgn = star_product(sd, invert_symbol(sqrt_symbol(sd2, -2), -4), -3)
    assert _sha256(sgn.render()) == (
        "a79d23b4d478620613b342e030239e59e962a9b97dfa369d0398dad5d8cb8b9b"
    )


def test_golden_conformal_sign_render():
    """Byte-identical render of the conformal sign symbol at floor -3, pinned
    before the star product, inversion and square root shared one Moyal
    kernel."""
    sgn = sy.sign_symbol(OperatorFamily.conformal(3, t_cap=2), -3)
    assert _sha256(sgn.render()) == (
        "c4ee031cfb57e5f1fdb78b086e4427717a5be397817eb239067e480abda2b240"
    )


def test_golden_conformal_sqrt_render():
    """Byte-identical render of the conformal square root at t_cap 3, floor
    -2, pinned while its two-sided equation was still solved t grade by t
    grade."""
    sd2 = dirac_symbol(OperatorFamily.conformal(3, t_cap=3))[1]
    assert _sha256(sqrt_symbol(sd2, -2).render()) == (
        "d5d87b4c75a4b09b025bbe8e8ecaa4cca0a38d681dc96947781f6bf542fafef5"
    )


@pytest.mark.parametrize("degree", [1, 0])
def test_solve_symmetric_is_exact(degree):
    # v X + X v = R for the perturbed unit v of the conformal family at
    # t_cap 3, whose t-graded part does not commute with R
    sd2 = dirac_symbol(OperatorFamily.conformal(DIM, t_cap=3))[1]
    v = sqrt_perturbed_unit(sy._central_leading(sd2)[1])
    rhs = sd2.component(degree)
    x = sy._solve_symmetric(v, rhs)
    assert not rhs.is_zero() and not x.is_zero()
    assert x.lmul_elem(v).add(x.rmul_elem(v)).equals(rhs)
    assert not x.equals(rhs.scale_rational(Fraction(1, 2)))
    # with w = 0 the orbit has one term: X = R / 2
    half = sy._solve_symmetric(AlgebraElement.unit(), rhs)
    assert half.equals(rhs.scale_rational(Fraction(1, 2)))


def reference_star_product(a, b, floor):
    """The Moyal sum with no derivative caches and no skipped pairings: every
    d_xi^alpha and delta^alpha is walked one step at a time from the factor,
    and every product is divided by alpha! afterwards."""
    out = []
    for da, ca in a.components.items():
        for db, cb in b.components.items():
            for r in range(da + db - floor + 1):
                for alpha in sy.multi_indices(a.dim, r):
                    left, right = ca, cb
                    for i, n in enumerate(alpha):
                        for _ in range(n):
                            left, right = left.xi_derivative(i), right.delta(i + 1)
                    fact = 1
                    for n in alpha:
                        fact *= math.factorial(n)
                    out.append(left.mul(right).scale_rational(Fraction(1, fact)))
    return Symbol.make(a.dim, out, floor)


def test_star_product_matches_cache_free_reference():
    rng = random.Random(211)
    floor = -3
    for _ in range(25):
        a = random_symbol(rng)
        b = random_symbol(rng)  # non-polynomial components at degrees 0 and -1
        got = star_product(a, b, floor)
        assert got.render() == reference_star_product(a, b, floor).render()
    # a right factor with generators that is no finite polynomial in xi
    fam = OperatorFamily.coupled(DIM)
    sd, sd2 = dirac_symbol(fam)
    inv = invert_symbol(sqrt_symbol(sd2, -2), -4)
    assert any(not c.is_polynomial() and c.has_generators() for c in inv.components.values())
    for left in (sd, random_symbol(rng)):
        got = star_product(left, inv, floor)
        assert got.render() == reference_star_product(left, inv, floor).render()


# -- Pauli storage against the entrywise reference ------------------------------------


def entry_mul(a, b):
    """The entrywise 2x2 product, operand order kept: the reference for
    :meth:`Mat2.mul`, which works on Pauli components."""
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)) for i in range(2)
    )


def entry_add(a, b):
    return tuple(tuple(a[i][j] + b[i][j] for j in range(2)) for i in range(2))


def entry_render(a):
    return "[" + ", ".join("[" + ", ".join(v.render() for v in row) + "]" for row in a) + "]"


PAULI_LETTERS = (gen("h", 3), gen("A1", 3), Generator("h", (1, 0, 0)))


@st.composite
def entry_rows(draw, cap):
    """Entry rows over non-commuting words.  A coefficient's t grade is fixed
    by its word, one per ``h`` letter, as the calculus builds them; it
    carries the example's cap, or none when it is t-free, so one matrix
    mixes the caps None and ``cap``.  Ties between entries make Pauli
    components vanish: s = p kills a3, r = q kills a2, q = r = 0 kills a1
    and a2."""

    def entry():
        out = AlgebraElement.zero()
        for _ in range(draw(st.integers(0, 3))):
            word = tuple(draw(st.lists(st.sampled_from(PAULI_LETTERS), max_size=2)))
            re = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
            im = draw(st.integers(-2, 2))
            grade = sum(g.base == "h" for g in word)
            free = grade == 0 and draw(st.booleans())
            coeff = ExactScalar(re, im, j=grade, t_cap=None if free else cap)
            out = out + AlgebraElement({word: coeff})
        return out

    p, q, r, s = entry(), entry(), entry(), entry()
    tie = draw(st.sampled_from(("none", "s=p", "r=q", "offdiag=0")))
    if tie == "s=p":
        s = p
    elif tie == "r=q":
        r = q
    elif tie == "offdiag=0":
        q = r = AlgebraElement.zero()
    return ((p, q), (r, s))


@st.composite
def entry_row_pairs(draw):
    cap = draw(st.sampled_from((None, 1, 2)))
    return draw(entry_rows(cap)), draw(entry_rows(cap))


@settings(max_examples=200, deadline=None)
@given(entry_row_pairs())
def test_pauli_mat2_matches_entrywise_reference(pair):
    ra, rb = pair
    a, b = Mat2(ra), Mat2(rb)
    assert a.e == ra and b.e == rb
    prod = entry_mul(ra, rb)
    assert a.mul(b).e == prod
    assert a.mul(b).render() == entry_render(prod)
    assert b.mul(a).e == entry_mul(rb, ra)
    total = entry_add(ra, rb)
    assert a.add(b).e == total
    assert a.add(b).render() == entry_render(total)
    assert a.trace() == ra[0][0] + ra[1][1]
    assert a.mul(b).trace() == prod[0][0] + prod[1][1]
    assert a.is_scalar() == all(v.is_scalar() for row in ra for v in row)
    assert a.mul(b).is_zero() == all(v.is_zero() for row in prod for v in row)


def test_pauli_mat2_round_trip_and_components():
    h = AlgebraElement.generator(gen("h", 3))
    i_h = h.scale(ExactScalar.rational(0, 1))
    z = AlgebraElement.zero()
    rows = ((h, h * h - i_h), (h + i_h, z))
    assert Mat2(rows).e == rows
    # sigma_2 = [[0, -i], [i, 0]] is the basis vector a2 = 1
    assert Mat2(((z, -AlgebraElement.rational(0, 1)), (AlgebraElement.rational(0, 1), z))).a == (
        z, z, AlgebraElement.unit(), z
    )
    for mu in range(1, 4):
        assert sy.gamma(3, mu).a[mu] == AlgebraElement.unit()


def test_mat2_rows_with_mixed_t_caps_are_rejected():
    # p = t^2 uncapped and s = t at cap 1: the sums p +- s meet at cap 1 and
    # drop the t^2, so the Pauli components cannot give the entries back
    z = AlgebraElement.zero()
    p = AlgebraElement.scalar(ExactScalar.t_power(2))
    s = AlgebraElement.scalar(ExactScalar.t_power(1, t_cap=1))
    with pytest.raises(DomainError, match="mix t caps"):
        Mat2(((p, z), (z, s)))
    with pytest.raises(DomainError, match="mix t caps"):
        Mat2(((z, p), (s, z)))
    # one cap, or an uncapped t-free entry beside a capped one, round-trips
    one, p3 = AlgebraElement.unit(), p.scale_rational(-3)
    assert Mat2(((p, z), (z, p3))).e == ((p, z), (z, p3))
    assert Mat2(((one, z), (s, z))).e == ((one, z), (s, z))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_central_leading_rejects_sigma_part(k):
    h = AlgebraElement.generator(gen("h", DIM))
    one = AlgebraElement.unit()
    z = AlgebraElement.zero()
    ih = h.scale(ExactScalar.rational(0, 1))
    rows = {
        1: ((one, h), (h, one)),
        2: ((one, -ih), (ih, one)),
        3: ((one + h, z), (z, one - h)),
    }[k]
    mat = Mat2(rows)
    assert [not v.is_zero() for v in mat.a] == [True] + [j == k for j in (1, 2, 3)]
    lead = Component(DIM, 2)
    for i in range(DIM):
        lead.add_term(tuple(2 if j == i else 0 for j in range(DIM)), 0, mat)
    with pytest.raises(EllipticityShapeError, match="not a scalar multiple of I"):
        sy._central_leading(Symbol.make(DIM, [lead]))
    # the same lead without its sigma part is accepted, with u = a0
    scalar = Component(DIM, 2)
    for i in range(DIM):
        scalar.add_term(tuple(2 if j == i else 0 for j in range(DIM)), 0, Mat2.diag(mat.a[0]))
    assert sy._central_leading(Symbol.make(DIM, [scalar])) == (2, mat.a[0])


# sha256 of the render, recorded before the coefficient ring was hash-consed
GOLDEN_COUPLED_SIGN_FLOOR_4 = "aef221e7cf9e99e9b3c4b8953d30aee5f76054b5748899dd6e621927c92d3628"


def test_golden_coupled_sign_symbol_render_at_floor_minus_4():
    import hashlib

    sgn = sign_symbol(OperatorFamily.coupled(3), floor=-4)
    assert hashlib.sha256(sgn.render().encode()).hexdigest() == GOLDEN_COUPLED_SIGN_FLOOR_4


@pytest.mark.parametrize(
    "fam, layers",
    [
        (OperatorFamily.coupled(3), True),
        (OperatorFamily.conformal(2, t_cap=sy.MAX_RESOLVENT_POWERS - 1), True),
        (OperatorFamily.conformal(2, t_cap=sy.MAX_RESOLVENT_POWERS), False),
    ],
    ids=["coupled", "conformal_at_the_bound", "conformal_past_the_bound"],
)
def test_inverse_abs_takes_the_layers_up_to_max_resolvent_powers(monkeypatch, fam, layers):
    """The leading layer of a conformal family has one key per t grade, and
    past ``MAX_RESOLVENT_POWERS`` keys the square root and inversion are
    taken; ``test_oracle_equivalence_mellin_vs_sqrt_route`` holds the two
    routes equal."""
    sd2 = dirac_symbol(fam)[1]
    keys = 1 if fam.t_cap is None else fam.t_cap + 1
    assert len(sy._resolvent_leading(sd2, 0).terms) == keys
    calls = []
    for name in ("mellin_inverse_power", "sqrt_symbol"):
        real = getattr(sy, name)
        monkeypatch.setattr(sy, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    sign_symbol(fam)
    sy.inverse_abs_symbol(fam, -fam.dim)
    assert calls == 2 * ["mellin_inverse_power" if layers else "sqrt_symbol"]
