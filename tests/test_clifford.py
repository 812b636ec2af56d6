"""Gamma algebra: fixed representation, anticommutation, trace identities."""

import itertools

import pytest

from ncps.algebra import AlgebraElement
from ncps.clifford import (
    Mat2,
    clifford_word,
    gamma,
    levi_civita,
)
from ncps.scalars import DomainError, ExactScalar


def identity():
    return Mat2.diag(AlgebraElement.unit())


def test_generator_values():
    g1 = clifford_word(3, [1])
    assert g1.e[0][0].is_zero()
    assert g1.e[0][1] == AlgebraElement.unit()
    assert g1.e[1][0] == AlgebraElement.unit()
    g2 = clifford_word(3, [2])
    assert g2.e[0][1] == AlgebraElement.rational(0, -1)
    g3 = clifford_word(3, [3])
    assert g3.e[1][1] == AlgebraElement.rational(-1)


def test_word_examples():
    assert clifford_word(3, [1, 1]).e == identity().e
    g123 = clifford_word(3, [1, 2, 3])
    expect = identity().scale(ExactScalar.rational(0, 1))
    assert g123.e == expect.e
    assert g123.render() == "[[i, 0], [0, i]]"


def test_trace_examples():
    assert gamma(3, 1).trace().is_zero()
    assert clifford_word(3, [1, 2, 3]).trace() == AlgebraElement.rational(0, 2)
    assert identity().trace() == AlgebraElement.rational(2)


@pytest.mark.parametrize("dim", [2, 3])
def test_anticommutation_exhaustive(dim):
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            anti = gamma(dim, i).mul(gamma(dim, j)).add(gamma(dim, j).mul(gamma(dim, i)))
            expect = identity().scale(ExactScalar.rational(2 if i == j else 0))
            assert anti.e == expect.e


@pytest.mark.parametrize("dim", [2, 3])
def test_two_gamma_traces(dim):
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            tr = clifford_word(dim, [i, j]).trace()
            assert tr == AlgebraElement.rational(2 if i == j else 0)


def test_three_gamma_traces_dim3():
    for i, j, k in itertools.product(range(1, 4), repeat=3):
        tr = clifford_word(3, [i, j, k]).trace()
        assert tr == AlgebraElement.rational(0, 2 * levi_civita((i, j, k)))


def test_index_range_errors():
    with pytest.raises(DomainError):
        clifford_word(3, [4])
    with pytest.raises(DomainError):
        clifford_word(2, [3])
    with pytest.raises(DomainError):
        gamma(4, 1)
    with pytest.raises(DomainError, match="dimensions 2 and 3"):
        clifford_word(4, [])


def test_empty_word_is_identity():
    assert clifford_word(3, []).e == identity().e


def test_symbols_uses_the_one_2x2_type():
    from ncps import symbols as sy

    assert sy.Mat2 is Mat2
    assert sy.gamma is gamma


# -- the Pauli product kernel against the entrywise reference -------------------------


def entry_product(a, b):
    """Row-by-column product of the entry views, with the algebra's own ``*``
    and ``+``: the reference for :meth:`Mat2.mul`."""
    x, y = a.e, b.e
    return tuple(
        tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)) for i in range(2)
    )


def family_matrices(fam, floor):
    """Every matrix coefficient of the family's |D| and |D|^-1 to ``floor``."""
    from ncps import symbols as sy

    _sd, sd2 = sy.dirac_symbol(fam)
    absd = sy.sqrt_symbol(sd2, floor)
    mats = []
    for sym in (absd, sy.invert_symbol(absd, floor - 1)):
        for comp in sym.components.values():
            mats.extend(comp.terms.values())
    return mats


@pytest.mark.parametrize("kind", ["coupled", "conformal"])
def test_mul_matches_entrywise_reference_on_family_coefficients(kind):
    from ncps import symbols as sy

    fam = sy.OperatorFamily.coupled(3) if kind == "coupled" else sy.OperatorFamily.conformal(3, t_cap=2)
    mats = family_matrices(fam, -2)
    assert any(not v.is_zero() for m in mats for v in m.a[1:])
    pairs = list(itertools.product(mats[:12], mats[-6:]))
    for a, b in pairs:
        assert a.mul(b).e == entry_product(a, b)
        assert b.mul(a).e == entry_product(b, a)


def _h_elements():
    from ncps.algebra import gen

    h, k = (AlgebraElement.generator(gen(n, 3)) for n in ("h", "k"))
    return h, k


def test_mul_with_zero_components_multiplies_only_nonzero_pairs(monkeypatch):
    import ncps.clifford as cl

    h, k = _h_elements()
    z = AlgebraElement.zero()
    calls = []
    kernel = cl._mul_rows_into

    def spy(out, left, right, phase=0):
        assert left and right
        calls.append(phase)
        kernel(out, left, right, phase)

    monkeypatch.setattr(cl, "_mul_rows_into", spy)
    cases = [
        (Mat2._of(h, z, k, z), Mat2._of(z, k, h * k, z)),
        (Mat2._of(z, h, z, z), Mat2._of(z, z, k, z)),
        (Mat2._of(z, z, z, h + k), Mat2._of(k, z, z, h)),
        (Mat2.zero(), Mat2._of(h, k, h, k)),
    ]
    for a, b in cases:
        calls.clear()
        got = a.mul(b)
        nonzero = sum(not v.is_zero() for v in a.a) * sum(not v.is_zero() for v in b.a)
        assert len(calls) == nonzero
        assert got.e == entry_product(a, b)
    # sigma_1 sigma_2 = i sigma_3, sigma_2 sigma_1 = -i sigma_3, sigma_k^2 = 1
    s1, s2 = Mat2._of(z, h, z, z), Mat2._of(z, z, k, z)
    assert s1.mul(s2).a == (z, z, z, (h * k).scale(ExactScalar.rational(0, 1)))
    assert s2.mul(s1).a == (z, z, z, (k * h).scale(ExactScalar.rational(0, -1)))
    assert s2.mul(s2).a == (k * k, z, z, z)


def pairwise(x, y):
    """``x y`` summed over every word pair with no pruning."""
    out = AlgebraElement.zero()
    for w1, s1 in x._terms.items():
        for w2, s2 in y._terms.items():
            out = out + AlgebraElement({w1 + w2: s1 * s2})
    return out


def test_mul_mixed_caps_meet_at_the_smaller_cap():
    h, k = _h_elements()
    one = AlgebraElement.unit()

    def t(j, cap):
        return ExactScalar.t_power(j, t_cap=cap)

    # an uncapped unit beside t-capped terms; the right factor's rows ascend
    # in lowest grade with caps 1 then 3, so a pair skipped against the cap 1
    # must not end the row before the t^2 term at cap 3
    x = one + h.scale(t(1, 3))
    y = one + k.scale(t(1, 1)) + (k * k).scale(t(2, 3))
    a = Mat2._of(x, y, h.scale(t(1, 3)), one)
    b = Mat2._of(y, x, one, k.scale(t(1, 1)))
    got = a.mul(b)
    assert got.e == entry_product(a, b)
    c0 = pairwise(x, y) + pairwise(y, x) + pairwise(h.scale(t(1, 3)), one) + pairwise(one, k.scale(t(1, 1)))
    assert got.a[0] == c0
    assert (h * k * k).scale(t(3, 3)) == pairwise(x, y).t_grade(3)
    assert got.a[0].t_grade(3) == (h * k * k + k * k * h).scale(t(3, 3))
    # every coefficient of a component meets at the smallest cap it touched
    assert min(s.t_cap for _w, s in got.a[0].terms() if s.t_cap is not None) == 1
    assert {s.t_cap for _w, s in got.a[0].terms()} == {s.t_cap for _w, s in c0.terms()}


def _component_pair(kind):
    from ncps import symbols as sy

    fam = sy.OperatorFamily.coupled(3) if kind == "coupled" else sy.OperatorFamily.conformal(3, t_cap=2)
    _sd, sd2 = sy.dirac_symbol(fam)
    absd = sy.sqrt_symbol(sd2, -2)
    return absd.component(0), sy.invert_symbol(absd, -3).component(-2)


def merged_one_at_a_time(out, left, right):
    for k1, m1 in left.terms.items():
        for k2, m2 in right.terms.items():
            out._merge(out._join(k1, k2), m1.mul(m2))


@pytest.mark.parametrize("kind", ["coupled", "conformal"])
def test_add_product_matches_merging_each_product(kind):
    from ncps.symbols import Component

    left, right = _component_pair(kind)
    degree = left.degree + right.degree
    ref = Component(3, degree)
    merged_one_at_a_time(ref, left, right)
    got = Component(3, degree)
    got.add_product(left, right)
    assert got.terms == ref.terms and got.terms
    # into a map that holds entries already: twice the product, then nothing
    got.add_product(left, right)
    twice = ref.add(ref)
    assert got.terms == twice.terms
    cancel = ref.neg()
    cancel.add_product(left, right)
    assert cancel.terms == {}
    # a new key of the wrong degree fails the audit
    with pytest.raises(DomainError, match="component expects"):
        Component(3, degree + 1).add_product(left, right)


def test_add_product_accumulates_without_copying_sums(monkeypatch):
    from ncps.symbols import Component

    left, right = _component_pair("conformal")
    ref = Component(3, left.degree + right.degree)
    merged_one_at_a_time(ref, left, right)
    seeded = ref.scale_rational(3)

    def forbidden(*_args):
        raise AssertionError("add_product accumulated by copy")

    monkeypatch.setattr(Mat2, "add", forbidden)
    monkeypatch.setattr(AlgebraElement, "__add__", forbidden)
    got = Component(3, ref.degree)
    got.add_product(left, right)
    seeded.add_product(left, right)
    monkeypatch.undo()
    assert got.terms == ref.terms
    assert seeded.terms == ref.scale_rational(4).terms
