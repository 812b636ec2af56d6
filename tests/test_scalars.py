"""Exact coefficient ring: constructors, ring laws, gamma values, truncation."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncps.scalars import DomainError, ExactScalar, half_gamma

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)


parts = st.one_of(st.just(Fraction(0)), rationals)


def raw_scalars(max_cap=3, p=st.integers(0, 4), j=st.integers(0, 3)):
    """``(re, im, p, j, cap)`` of one term with Fraction parts, before any
    ExactScalar is built; the parts are zero now and then."""
    return st.tuples(parts, parts, p, j, st.one_of(st.none(), st.integers(0, max_cap)))


def scalars(max_cap=3, **term):
    return raw_scalars(max_cap, **term).map(lambda x: ExactScalar(*x))


@st.composite
def term_scalars(draw, n):
    """``n`` scalars of one pi power and t grade, so every sum of them is
    one term, as in the calculus."""
    key = {"p": st.just(draw(st.integers(0, 4))), "j": st.just(draw(st.integers(0, 3)))}
    return [draw(scalars(**key)) for _ in range(n)]


def test_half_gamma_values():
    assert half_gamma(Fraction(1, 2)) == ExactScalar.pi_half(1)
    assert half_gamma(Fraction(3, 2)) == ExactScalar.pi_half(1, Fraction(1, 2))
    assert half_gamma(3) == ExactScalar.rational(2)


def test_half_gamma_domain():
    with pytest.raises(DomainError):
        half_gamma(0)
    with pytest.raises(DomainError):
        half_gamma(Fraction(-1, 2))
    with pytest.raises(DomainError):
        half_gamma(Fraction(1, 3))


@given(st.integers(1, 12))
def test_half_gamma_functional_equation(two_x):
    x = Fraction(two_x, 2)
    lhs = half_gamma(x + 1)
    rhs = half_gamma(x) * ExactScalar.rational(x)
    assert (lhs - rhs).is_zero()


def test_truncate_examples():
    assert ExactScalar.t_power(1).truncate_t(1) == ExactScalar.t_power(1, t_cap=1)
    assert ExactScalar.t_power(2).truncate_t(1) is ExactScalar.zero(t_cap=1)
    assert (ExactScalar.pi_half(2) * ExactScalar.t_power(3)).truncate_t(2).is_zero()
    assert ExactScalar.rational(Fraction(3, 4)).truncate_t(0) == ExactScalar.rational(
        Fraction(3, 4)
    )


@given(scalars(), term_scalars(3))
@settings(max_examples=150)
def test_ring_axioms(a, same):
    b, c, d = same
    assert ((b + c) + d) == (b + (c + d))
    assert ((a * b) * c) == (a * (b * c))
    assert a * b == b * a
    assert (a * (b + c)) == (a * b + a * c)
    assert (a - a).is_zero()


@given(scalars(), scalars(), st.integers(0, 3))
@settings(max_examples=150)
def test_truncation_consistency(a, b, m):
    full = (a * b).truncate_t(m)
    stepped = (a.truncate_t(m) * b.truncate_t(m)).truncate_t(m)
    assert full == stepped


@given(scalars(), scalars())
@settings(max_examples=100)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_zero_is_empty_map():
    s = ExactScalar.pi_half(1, 3, t_cap=2) - ExactScalar.pi_half(1, 3)
    assert s.is_zero() and s is ExactScalar.zero(t_cap=2)
    assert (s.p, s.j, s.coefficient()) == (0, 0, (0, 0))


def test_caps_combine_to_minimum():
    a = ExactScalar.t_power(1, t_cap=2)
    b = ExactScalar.t_power(1, t_cap=3)
    prod = a * b
    assert prod.t_cap == 2
    assert prod == ExactScalar.t_power(2)
    capped = a * ExactScalar.t_power(2, t_cap=2)
    assert capped.is_zero()


def test_render_grammar():
    s = ExactScalar(Fraction(3, 4), Fraction(1, 2), 3, 2)
    assert s.render() == "(3/4 + 1/2 i) * pi^{3/2} * t^2"
    assert ExactScalar(Fraction(-3, 4), 0, 0, 1).render() == "(-3/4) * t"
    assert ExactScalar(0, -1, 4, 0).render() == "(-i) * pi^2"
    assert ExactScalar(2, 1).render() == "2 + i"
    assert ExactScalar.zero().render() == "0"
    assert ExactScalar.pi_half(2).render() == "pi"
    assert (-ExactScalar.t_power(1)).render() == "-t"


def test_to_complex():
    import math

    s = ExactScalar.pi_half(1, Fraction(1, 2)) * ExactScalar.t_power(2, 3)
    assert abs(s.to_complex(t=0.5) - 1.5 * math.sqrt(math.pi) * 0.25) < 1e-14
    assert ExactScalar(1, -2).to_complex() == 1 - 2j
    assert ExactScalar.zero().to_complex() == 0


# -- integer-triple kernel against a Fraction reference ------------------------
#
# The reference ring keeps ``(p, j) -> (re, im)`` Fraction pairs with a cap,
# exactly as the coefficient ring is specified; a sum the reference holds as
# two terms is one the scalar refuses.


def ref_clean(terms, cap):
    return {
        k: v for k, v in terms.items() if any(v) and (cap is None or k[1] <= cap)
    }


def ref_min_cap(a, b):
    return b if a is None else a if b is None else min(a, b)


def ref_add(x, y):
    cap = ref_min_cap(x[1], y[1])
    out = dict(ref_clean(x[0], cap))
    for k, (re, im) in ref_clean(y[0], cap).items():
        a, b = out.get(k, (0, 0))
        out[k] = (a + re, b + im)
    return ref_clean(out, cap), cap


def ref_mul(x, y):
    cap = ref_min_cap(x[1], y[1])
    out = {}
    for (p1, j1), (a1, b1) in x[0].items():
        for (p2, j2), (a2, b2) in y[0].items():
            k = (p1 + p2, j1 + j2)
            a, b = out.get(k, (0, 0))
            out[k] = (a + a1 * a2 - b1 * b2, b + a1 * b2 + b1 * a2)
    return ref_clean(out, cap), cap


def ref_scale(x, q):
    return ref_clean({k: (re * q, im * q) for k, (re, im) in x[0].items()}, x[1]), x[1]


def ref_value(re, im, p, j, cap):
    return ref_clean({(p, j): (re, im)}, cap), cap


def ref_neg(x):
    return ref_scale(x, -1)


def assert_matches(s, ref):
    terms, cap = ref
    assert s.t_cap == cap
    assert ({} if s.is_zero() else {(s.p, s.j): s.coefficient()}) == terms
    re, im = s.coefficient()
    assert type(re) is Fraction and type(im) is Fraction
    assert_canonical(s)
    # the same value built directly from the reference has the same identity
    (p, j), (re, im) = next(iter(terms.items()), ((0, 0), (0, 0)))
    direct = ExactScalar(re, im, p, j, cap)
    assert s is direct
    assert hash(s) == hash(direct)
    assert s.render() == direct.render()


def assert_canonical(s):
    assert s.p >= 0 and s.j >= 0
    assert s.t_cap is None or s.j <= s.t_cap
    if s._c is None:
        assert (s.p, s.j) == (0, 0)
        return
    re, im, den = s._c
    assert type(re) is int and type(im) is int and type(den) is int
    assert den > 0
    assert (re, im) != (0, 0)
    assert math.gcd(re, im, den) == 1


def assert_sum_matches(op, ref):
    """``op()`` matches the reference sum, or refuses one of two terms."""
    if len(ref[0]) > 1:
        with pytest.raises(DomainError, match="different pi power or t grade"):
            op()
    else:
        assert_matches(op(), ref)


@given(raw_scalars(), raw_scalars())
@settings(max_examples=200)
def test_kernel_add_sub_match_fraction_reference(x, y):
    a, b = ExactScalar(*x), ExactScalar(*y)
    assert_matches(a, ref_value(*x))
    assert_sum_matches(lambda: a + b, ref_add(ref_value(*x), ref_value(*y)))
    assert_matches(-b, ref_neg(ref_value(*y)))
    assert_sum_matches(lambda: a - b, ref_add(ref_value(*x), ref_neg(ref_value(*y))))


@given(term_scalars(2))
@settings(max_examples=200)
def test_kernel_add_of_one_term_matches_fraction_reference(same):
    a, b = same
    ref = ref_add(ref_value(*a.coefficient(), a.p, a.j, a.t_cap),
                  ref_value(*b.coefficient(), b.p, b.j, b.t_cap))
    assert_matches(a + b, ref)


def test_sum_of_different_terms_names_both():
    with pytest.raises(DomainError, match=r"3/4 \* pi and \(2 \+ i\) \* t$"):
        ExactScalar.pi_half(2, Fraction(3, 4)) + ExactScalar(2, 1, 0, 1)
    with pytest.raises(DomainError, match="different pi power or t grade"):
        ExactScalar.one() - ExactScalar.pi_half(1)
    # a grade past the smaller cap is zero before the sum is taken
    assert ExactScalar.one(t_cap=1) + ExactScalar.t_power(2) is ExactScalar.one(t_cap=1)
    assert ExactScalar.pi_half(1) + ExactScalar.zero() is ExactScalar.pi_half(1)


@given(raw_scalars(), raw_scalars())
@settings(max_examples=200)
def test_kernel_mul_matches_fraction_reference(x, y):
    a, b = ExactScalar(*x), ExactScalar(*y)
    assert_matches(a * b, ref_mul(ref_value(*x), ref_value(*y)))


@given(raw_scalars(), st.one_of(st.integers(-6, 6), rationals))
@settings(max_examples=200)
def test_kernel_scale_matches_fraction_reference(x, q):
    assert_matches(ExactScalar(*x).scale(q), ref_scale(ref_value(*x), Fraction(q)))


@given(raw_scalars(), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=150)
def test_kernel_conjugate_grade_truncate_match_fraction_reference(x, j, m):
    a = ExactScalar(*x)
    terms, cap = ref_value(*x)
    assert_matches(a.conjugate(), ({k: (re, -im) for k, (re, im) in terms.items()}, cap))
    assert_matches(a.t_grade(j), ({k: v for k, v in terms.items() if k[1] == j}, cap))
    trunc_cap = m if cap is None else min(cap, m)
    assert_matches(a.truncate_t(m), ({k: v for k, v in terms.items() if k[1] <= m}, trunc_cap))
    assert_matches(a.times_i(), ({k: (-im, re) for k, (re, im) in terms.items()}, cap))
    assert_matches(a.times_i(-1), ({k: (im, -re) for k, (re, im) in terms.items()}, cap))


def test_equal_values_built_differently_share_identity():
    half = ExactScalar.rational(Fraction(1, 2))
    one = half + half
    assert one == ExactScalar.one()
    assert hash(one) == hash(ExactScalar.one())
    assert one.render() == "1"
    three_sixths = ExactScalar.rational(3).scale(Fraction(1, 6))
    assert three_sixths._c == (1, 0, 2)
    assert three_sixths == half
    assert hash(three_sixths) == hash(half)
    assert three_sixths.render() == half.render() == "1/2"
    # (1/2 + 1/2 i)(1 - i) = 1, reached through a non-trivial gcd
    w = ExactScalar.rational(Fraction(1, 2), Fraction(1, 2)) * ExactScalar.rational(1, -1)
    assert w == ExactScalar.one() and w.render() == "1"
    thirds = ExactScalar.rational(Fraction(1, 3), Fraction(2, 3)).scale(3)
    assert thirds._c == (1, 2, 1)
    assert thirds.render() == "1 + 2 i"


def test_boundary_returns_fractions():
    s = ExactScalar(Fraction(3, 4), Fraction(-1, 6))
    assert s._c == (9, -2, 12)
    assert s.rational_part() == s.coefficient() == (Fraction(3, 4), Fraction(-1, 6))
    assert all(type(v) is Fraction for v in s.coefficient())
    pi = ExactScalar.pi_half(1, 2)
    assert pi.coefficient() == (Fraction(2), Fraction(0))
    assert pi.rational_part() == ExactScalar.zero().rational_part() == (0, 0)
    assert s.render() == "3/4 - 1/6 i" and pi.render() == "2 * pi^{1/2}"


# -- hash-consing: one object per value, memoized arithmetic ---------------------


def test_equal_value_and_cap_give_the_same_object():
    half = ExactScalar.rational(Fraction(1, 2), t_cap=2)
    assert half + half is ExactScalar.one(t_cap=2)
    assert ExactScalar.rational(3).scale(Fraction(1, 6)) is ExactScalar.rational(Fraction(1, 2))
    assert ExactScalar(Fraction(2, 4), 1, 2, 1) is ExactScalar(Fraction(1, 2), Fraction(3, 3), 2, 1)
    assert ExactScalar.t_power(3, t_cap=2) is ExactScalar.zero(t_cap=2)


def test_equal_terms_with_different_caps_are_different_objects_that_compare_equal():
    capped, free = ExactScalar.t_power(1, t_cap=2), ExactScalar.t_power(1)
    assert capped is not free
    assert capped == free and hash(capped) == hash(free)
    assert (capped.t_cap, free.t_cap) == (2, None)
    assert ExactScalar.zero(t_cap=0) is not ExactScalar.zero()


@pytest.mark.parametrize("cap", [None, 0, 3])
def test_copy_deepcopy_and_pickle_return_the_interned_object(cap):
    import copy
    import pickle

    for s in (ExactScalar(3, Fraction(-2, 7), 1, 0, t_cap=cap), ExactScalar.zero(cap)):
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin is s
    assert copy.deepcopy([s, s]) == [s, s]
    assert ExactScalar.zero().is_zero() and ExactScalar.zero().render() == "0"
    assert ExactScalar.one().render() == "1"


def fresh(op):
    """``op()`` computed with an empty memo, so every operation it makes runs
    its arithmetic; the memo is put back afterwards."""
    from ncps import scalars

    saved, scalars._MEMO = scalars._MEMO, {}
    try:
        return op()
    finally:
        scalars._MEMO = saved


@given(raw_scalars(), raw_scalars(), st.one_of(st.integers(-6, 6), rationals))
@settings(max_examples=200)
def test_memoized_arithmetic_matches_a_fresh_computation(x, y, q):
    # y is moved to the term of x, so that the sum is one term
    y = y[:2] + x[2:4] + y[4:]
    a, b = ExactScalar(*x), ExactScalar(*y)
    ops = {
        "mul": (lambda: a * b, ref_mul(ref_value(*x), ref_value(*y))),
        "add": (lambda: a + b, ref_add(ref_value(*x), ref_value(*y))),
        "scale": (lambda: a.scale(q), ref_scale(ref_value(*x), Fraction(q))),
        "neg": (lambda: -a, ref_neg(ref_value(*x))),
        "i": (lambda: a.times_i(), ref_mul(ref_value(*x), ref_value(0, 1, 0, 0, None))),
    }
    for op, ref in ops.values():
        first, again = op(), op()
        assert again is first
        computed = fresh(op)
        assert computed is first and computed.t_cap == first.t_cap
        assert_matches(first, ref)


def test_no_module_imports_a_private_name_of_scalars():
    # the memo and the intern table are the scalar ring's own: every other
    # module goes through ExactScalar
    import ast
    from pathlib import Path

    import ncps

    offenders = []
    for path in sorted(Path(ncps.__file__).parent.glob("*.py")):
        if path.stem == "scalars":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("scalars", "ncps.scalars"):
                offenders += [f"{path.stem}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []
