"""Gamma algebra: fixed representation, anticommutation, trace identities."""

import itertools

import pytest

from ncps.algebra import AlgebraElement
from ncps.clifford import (
    Mat2,
    clifford_word,
    gamma,
    levi_civita,
    matrix_trace,
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
    assert matrix_trace(gamma(3, 1)).is_zero()
    assert matrix_trace(clifford_word(3, [1, 2, 3])) == AlgebraElement.rational(0, 2)
    assert matrix_trace(identity()) == AlgebraElement.rational(2)


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
            tr = matrix_trace(clifford_word(dim, [i, j]))
            assert tr == AlgebraElement.rational(2 if i == j else 0)


def test_three_gamma_traces_dim3():
    for i, j, k in itertools.product(range(1, 4), repeat=3):
        tr = matrix_trace(clifford_word(3, [i, j, k]))
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
