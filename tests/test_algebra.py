"""Free *-algebra: products, adjoints, derivations, trace classes, exponentials."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncps.algebra import (
    AlgebraElement,
    Generator,
    exp_expand,
    gen,
    invert_perturbed_unit,
    nilpotent_orbit,
    nilpotent_powers,
    sqrt_perturbed_unit,
    tau_class,
)
from ncps.scalars import DomainError, ExactScalar

H = gen("h", 3)
A1 = gen("A1", 3)


def elem(g):
    return AlgebraElement.generator(g)


def random_element(rng, *, bases=("h", "A1"), max_words=3, max_len=2, t=False):
    out = AlgebraElement.zero()
    for _ in range(rng.randint(1, max_words)):
        word = []
        for _ in range(rng.randint(0, max_len)):
            base = rng.choice(bases)
            deriv = tuple(rng.randint(0, 1) for _ in range(3))
            word.append(Generator(base, deriv))
        coeff = ExactScalar.rational(
            Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2)),
            t_cap=2,
        )
        if t and rng.random() < 0.5:
            coeff = coeff * ExactScalar.t_power(1, t_cap=2)
        out = out + AlgebraElement({tuple(word): coeff})
    return out


def test_multiply_examples():
    d1h = elem(H).delta(1)
    prod = elem(H) * d1h
    words = [w for w, _ in prod.terms()]
    assert words == [(H, Generator("h", (1, 0, 0)))]
    assert AlgebraElement.unit() * elem(A1) == elem(A1)
    # truncation at the cap
    h = elem(H)
    capped = AlgebraElement.scalar(ExactScalar.one(t_cap=1)) + (h * h).scale(
        ExactScalar.t_power(1, t_cap=1)
    )
    out = capped * h
    expect = h + (h * h * h).scale(ExactScalar.t_power(1, t_cap=1))
    assert (out - expect).is_zero()


def test_product_with_zero_operand_multiplies_nothing(monkeypatch):
    import ncps.algebra as alg

    def forbidden(*_args):
        raise AssertionError("a product with an empty operand did arithmetic")

    monkeypatch.setattr(ExactScalar, "__mul__", forbidden)
    monkeypatch.setattr(alg, "_grade_rows", forbidden)
    x = elem(H) + AlgebraElement.scalar(ExactScalar.t_power(1, 3, t_cap=2))
    zero = AlgebraElement.zero()
    assert (x * zero).is_zero()
    assert (zero * x).is_zero()
    assert (zero * zero).is_zero()


def test_adjoint_examples():
    d1h = elem(H).delta(1)
    assert d1h.adjoint() == -d1h
    assert (elem(H) * elem(A1)).adjoint() == elem(A1) * elem(H)
    i_unit = AlgebraElement.rational(0, 1)
    assert i_unit.adjoint() == AlgebraElement.rational(0, -1)


def test_adjoint_on_non_selfadjoint_base():
    u = gen("u", 3, selfadj=False)
    a = elem(u).delta(1)
    st = a.adjoint()
    ((word, coeff),) = list(st.terms())
    assert word[0].star and word[0].base == "u"
    assert coeff == -ExactScalar.one()
    assert st.adjoint() == a


def test_delta_examples():
    hh = elem(H) * elem(H)
    d = hh.delta(1)
    d1h = elem(H).delta(1)
    assert d == d1h * elem(H) + elem(H) * d1h
    assert AlgebraElement.unit().delta(2).is_zero()
    assert elem(H).delta(1).delta(2) == elem(H).delta(2).delta(1)


def test_tau_examples():
    d1h = elem(H).delta(1)
    assert tau_class(elem(H) * d1h - d1h * elem(H)).is_zero()
    assert tau_class(elem(H)).representative == elem(H)
    a123 = elem(gen("A1", 3)) * elem(gen("A2", 3)) * elem(gen("A3", 3))
    a231 = elem(gen("A2", 3)) * elem(gen("A3", 3)) * elem(gen("A1", 3))
    assert tau_class(a123 - a231).is_zero()


def test_exp_expand_examples():
    assert exp_expand(H, 1, 1) == AlgebraElement.scalar(ExactScalar.one(t_cap=1)) + elem(
        H
    ).scale(ExactScalar.t_power(1, t_cap=1))
    e = exp_expand(H, Fraction(1, 2), 2)
    expect = (
        AlgebraElement.scalar(ExactScalar.one(t_cap=2))
        + elem(H).scale(ExactScalar.t_power(1, Fraction(1, 2), t_cap=2))
        + (elem(H) * elem(H)).scale(ExactScalar.t_power(2, Fraction(1, 8), t_cap=2))
    )
    assert (e - expect).is_zero()
    assert (exp_expand(H, 0, 2) - AlgebraElement.unit()).is_zero()


def test_exp_group_law():
    rng = random.Random(7)
    for _ in range(10):
        c1 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        c2 = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        m = rng.randint(1, 3)
        prod = exp_expand(H, c1, m) * exp_expand(H, c2, m)
        assert (prod - exp_expand(H, c1 + c2, m)).is_zero()


def test_adjoint_involution_and_antihomomorphism():
    rng = random.Random(11)
    for _ in range(25):
        a = random_element(rng)
        b = random_element(rng)
        assert a.adjoint().adjoint() == a
        assert (a * b).adjoint() == b.adjoint() * a.adjoint()


def test_delta_leibniz_random():
    rng = random.Random(13)
    for _ in range(25):
        a = random_element(rng)
        b = random_element(rng)
        mu = rng.randint(1, 3)
        lhs = (a * b).delta(mu)
        rhs = a.delta(mu) * b + a * b.delta(mu)
        assert (lhs - rhs).is_zero()


def test_substitute_is_a_homomorphism_that_commutes_with_delta():
    rng = random.Random(19)
    for _ in range(25):
        a, b = random_element(rng), random_element(rng)
        x = random_element(rng, bases=("A1", "g"))
        mu = rng.randint(1, 3)
        sa, sb = a.substitute("h", x), b.substitute("h", x)
        assert (a * b + b).substitute("h", x) == sa * sb + sb
        assert a.delta(mu).substitute("h", x) == sa.delta(mu)
        assert a.substitute("h", elem(H)) == a
        assert all(g.base != "h" for w, _ in sa.terms() for g in w)


def test_substitute_examples():
    d12h = elem(H).delta(1).delta(2)
    x = elem(A1) * elem(A1) + AlgebraElement.rational(3)
    got = (elem(A1) * d12h).substitute("h", x)
    assert got == elem(A1) * x.delta(1).delta(2)
    assert got.substitute("h", elem(H)) == got  # no h left
    # a starred letter of a non-self-adjoint base takes the adjoint of x
    u = gen("u", 3, selfadj=False)
    y = elem(A1) * AlgebraElement.rational(0, 1)
    starred = elem(u).adjoint().delta(3)
    assert starred.substitute("u", y) == y.adjoint().delta(3)
    assert elem(u).substitute("u", y) == y


def test_tau_commutators_random():
    rng = random.Random(17)
    for _ in range(25):
        a = random_element(rng)
        b = random_element(rng)
        assert tau_class(a * b - b * a).is_zero()


def test_perturbed_unit_inverse_and_sqrt():
    nil = elem(H).scale(ExactScalar.t_power(1, t_cap=2)) + (elem(H) * elem(H)).scale(
        ExactScalar.t_power(2, Fraction(1, 3), t_cap=2)
    )
    u = AlgebraElement.scalar(ExactScalar.one(t_cap=2)) + nil
    inv = invert_perturbed_unit(u)
    assert (u * inv - AlgebraElement.unit()).is_zero()
    assert (inv * u - AlgebraElement.unit()).is_zero()
    v = sqrt_perturbed_unit(u)
    assert (v * v - u).is_zero()


def test_perturbed_unit_rejects_non_nilpotent():
    u = AlgebraElement.unit() + elem(A1)  # A1 carries no t grade
    with pytest.raises(DomainError):
        invert_perturbed_unit(u)


def test_exp_sqrt_consistency():
    # binomial square root of exp(2 t h) is exp(t h), in the truncated grade
    u = exp_expand(H, 2, 3)
    assert (sqrt_perturbed_unit(u) - exp_expand(H, 1, 3)).is_zero()


def test_render_grammar():
    d1h = elem(H).delta(1)
    x = (elem(H) * d1h) + (elem(H) * elem(H)).scale(
        ExactScalar.t_power(1, Fraction(1, 2))
    )
    # words render in canonical sorted order
    assert x.render() == "(1/2 * t)*[h^2] + [h . d(1)(h)]"


# -- the product against a pairwise reference -----------------------------------

D1H = Generator("h", (1, 0, 0))
small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
words = st.lists(st.sampled_from((H, A1, D1H)), max_size=2).map(tuple)


@st.composite
def elements(draw):
    """Elements whose coefficients have caps None and 0..3, with the t grade
    fixed by the word, as the calculus builds them: one per h letter (``h``
    or ``d(1)(h)``), and a pi half-power per ``A1``; a grade past the cap
    leaves the word out."""
    terms = {}
    for w in draw(st.lists(words, max_size=4)):
        p, j = w.count(A1), len(w) - w.count(A1)
        cap = draw(st.one_of(st.none(), st.integers(0, 3)))
        terms[w] = ExactScalar(draw(small), draw(small), p, j, t_cap=cap)
    return AlgebraElement(terms)


def naive_product(a, b):
    """Sum of ``s1 * s2`` over every word pair, in the product's own order."""
    out = AlgebraElement.zero()
    for w1, s1 in a._terms.items():
        for w2, s2 in b._terms.items():
            out = out + AlgebraElement({w1 + w2: s1 * s2})
    return out


@settings(max_examples=300, deadline=None)
@given(elements(), elements())
def test_product_matches_pairwise_reference(a, b):
    prod = a * b
    ref = naive_product(a, b)
    assert prod == ref
    assert [s.t_cap for _, s in prod.terms()] == [s.t_cap for _, s in ref.terms()]
    assert prod.render() == ref.render()


def test_product_with_uncapped_t_grades(monkeypatch):
    # against a cap-1 t, the pair cap is 1: an uncapped t^2 is skipped
    # unmultiplied, since its grade is known to the pruning, and an uncapped
    # 3 is multiplied under the cap
    capped = elem(H).scale(ExactScalar.t_power(1, t_cap=1))
    high = elem(A1).scale(ExactScalar.t_power(2))
    low = elem(A1).scale(ExactScalar.rational(3))
    for a, b in ((capped, low), (low, capped)):
        assert a * b == naive_product(a, b)
        ((_w, s),) = list((a * b).terms())
        assert s is ExactScalar.t_power(1, 3, t_cap=1)
    calls = []
    mul = ExactScalar.__mul__
    monkeypatch.setattr(ExactScalar, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    assert (capped * high).is_zero() and (high * capped).is_zero()
    assert calls == []


def test_product_skips_every_pair_over_the_cap(monkeypatch):
    a = elem(H).scale(ExactScalar.t_power(1, t_cap=1)) + (elem(H) * elem(A1)).scale(
        ExactScalar.t_power(2, 5, t_cap=3)
    )
    b = elem(A1).scale(ExactScalar.t_power(1, -2, t_cap=1)) + elem(D1H).scale(
        ExactScalar.t_power(2, Fraction(1, 3), t_cap=2) + ExactScalar.t_power(3, 7)
    )
    assert naive_product(a, b).is_zero()
    calls = []
    mul = ExactScalar.__mul__
    monkeypatch.setattr(ExactScalar, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    assert (a * b).is_zero()
    assert calls == []


def test_nilpotent_powers():
    x = elem(H).scale(ExactScalar.t_power(1, t_cap=2))
    powers = nilpotent_powers(x)
    assert len(powers) == 3
    assert powers[0] == AlgebraElement.unit()
    assert (powers[2] - x * x).is_zero()
    assert nilpotent_powers(AlgebraElement.zero()) == [AlgebraElement.unit()]
    with pytest.raises(DomainError, match="not nilpotent"):
        nilpotent_powers(elem(A1))  # A1 carries no t grade


def test_nilpotent_orbit_stops_at_the_last_nonzero_term():
    x = elem(H).scale(ExactScalar.t_power(1, t_cap=3))
    orbit = nilpotent_orbit(x, lambda p: p * x + x * p)
    assert orbit == [x, (x * x).scale_rational(2), (x * x * x).scale_rational(4)]
    assert nilpotent_orbit(AlgebraElement.unit(), lambda p: p * x) == nilpotent_powers(x)
    assert nilpotent_orbit(x, lambda p: p * x * x * x) == [x]
    # at most 64 terms: x^63 is the deepest power an orbit holds
    deep = elem(H).scale(ExactScalar.t_power(1, t_cap=63))
    assert len(nilpotent_powers(deep)) == 64
    with pytest.raises(DomainError, match="not nilpotent"):
        nilpotent_powers(elem(H).scale(ExactScalar.t_power(1, t_cap=64)))


@pytest.mark.parametrize("m", [0, 1, 2, 4])
@pytest.mark.parametrize("c", [1, Fraction(-3, 2), Fraction(1, 2)])
def test_exp_expand_caps_every_coefficient(m, c):
    e = exp_expand(H, c, m)
    terms = dict(e.terms())
    assert len(terms) == m + 1
    assert {s.t_cap for s in terms.values()} == {m}
    assert terms[()] == ExactScalar.one(t_cap=m)  # the t-free unit included
    for j in range(1, m + 1):
        assert terms[(H,) * j] == ExactScalar.t_power(j, Fraction(c) ** j / math.factorial(j), t_cap=m)
    assert exp_expand(H, 0, m) == AlgebraElement.scalar(ExactScalar.one(t_cap=m))


def test_derived_letters_are_built_once(monkeypatch):
    import ncps.algebra as alg

    x = (elem(H) * elem(A1) * elem(H)).delta(2) + elem(D1H)
    first = [x.delta(mu) for mu in (1, 2, 3)]
    tau_first = [tau_class(d * elem(H)).is_zero() for d in first]
    calls = []
    original = Generator._replace

    def counted(self, **kwargs):
        calls.append(kwargs)
        return original(self, **kwargs)

    monkeypatch.setattr(Generator, "_replace", counted)
    assert [x.delta(mu) for mu in (1, 2, 3)] == first
    assert [tau_class(d * elem(H)).is_zero() for d in first] == tau_first
    assert calls == []
    assert alg._derived(H, 1, 1) == D1H and alg._derived(D1H, 1, -1) == H


def test_linear_sums_do_not_accumulate_by_copy(monkeypatch):
    from ncps import functionals as fn
    from ncps import heat as ht
    from ncps import symbols as sy
    from ncps.clifford import Mat2

    _sd, sd2 = sy.dirac_symbol(sy.OperatorFamily.conformal(3, t_cap=1))
    comp = sy.invert_symbol(sy.sqrt_symbol(sd2, -2), -3).component(-3)
    layer = ht.lambda_contour_integral(sy.resolvent_symbols(sd2, 2)[2])
    # both words rotate to one necklace, where their coefficients add
    x = (elem(H) * elem(D1H)).scale(ExactScalar.rational(2, 1)) + elem(D1H) * elem(H)
    expect = (
        fn.sphere_integral_component(comp, 3),
        ht.momentum_integral(layer),
        tau_class(x).representative,
        x.adjoint(),
    )
    assert not any(v.is_zero() for v in expect)

    def forbidden(*_args):
        raise AssertionError("a linear sum accumulated by copy")

    monkeypatch.setattr(AlgebraElement, "__add__", forbidden)
    monkeypatch.setattr(Mat2, "add", forbidden)
    got = (
        fn.sphere_integral_component(comp, 3),
        ht.momentum_integral(layer),
        tau_class(x).representative,
        x.adjoint(),
    )
    assert got == expect
    # 3 h d1(h) is a derivation image, 3/2 d1(h^2), so the span test runs too
    assert tau_class(x).is_zero()
