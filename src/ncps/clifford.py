"""Exact 2x2 matrix model of the gamma algebra in dimensions 2 and 3.

The three generators are the Pauli spin matrices; dimension 2 uses the first
two.  Products and traces are computed with exact complex-rational entries, so
the anticommutation relation and the trace identities (vanishing single-gamma
trace, Levi-Civita three-gamma trace) hold as matrix identities rather than
rewrite rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .scalars import DomainError, ExactScalar

N = 2  # spinor dimension in torus dimensions 2 and 3

_Z = Fraction(0)
_ONE = Fraction(1)

# entries as (re, im) pairs
_PAULI = {
    1: (((_Z, _Z), (_ONE, _Z)), ((_ONE, _Z), (_Z, _Z))),
    2: (((_Z, _Z), (_Z, -_ONE)), ((_Z, _ONE), (_Z, _Z))),
    3: (((_ONE, _Z), (_Z, _Z)), ((_Z, _Z), (-_ONE, _Z))),
}


@dataclass(frozen=True)
class GammaMatrix:
    """Exact 2x2 complex-rational matrix tagged with the word that produced it."""

    dim: int
    entries: tuple[tuple[ExactScalar, ...], ...]
    word: tuple[int, ...] = field(default=(), compare=False)

    def mul(self, other: "GammaMatrix") -> "GammaMatrix":
        if self.dim != other.dim:
            raise DomainError("gamma matrices from different dimensions")
        e = tuple(
            tuple(
                sum(
                    (self.entries[i][k] * other.entries[k][j] for k in range(N)),
                    ExactScalar.zero(),
                )
                for j in range(N)
            )
            for i in range(N)
        )
        return GammaMatrix(self.dim, e, self.word + other.word)

    def trace(self) -> ExactScalar:
        return self.entries[0][0] + self.entries[1][1]

    def scale(self, s: ExactScalar) -> "GammaMatrix":
        return GammaMatrix(
            self.dim,
            tuple(tuple(v * s for v in row) for row in self.entries),
            self.word,
        )

    def add(self, other: "GammaMatrix") -> "GammaMatrix":
        return GammaMatrix(
            self.dim,
            tuple(
                tuple(self.entries[i][j] + other.entries[i][j] for j in range(N))
                for i in range(N)
            ),
            (),
        )

    def is_zero(self) -> bool:
        return all(v.is_zero() for row in self.entries for v in row)

    def __repr__(self) -> str:
        if self.word:
            return "G[" + ",".join(map(str, self.word)) + "]"
        rows = ", ".join(
            "[" + ", ".join(v.render() for v in row) + "]" for row in self.entries
        )
        return f"[{rows}]"


def identity(dim: int) -> GammaMatrix:
    check_dim(dim)
    one, zero = ExactScalar.one(), ExactScalar.zero()
    return GammaMatrix(dim, ((one, zero), (zero, one)))


def check_dim(dim: int) -> None:
    if dim not in (2, 3):
        raise DomainError("gamma algebra is modeled in dimensions 2 and 3")


def gamma(dim: int, mu: int) -> GammaMatrix:
    """The ``mu``-th generator in the fixed Pauli representation."""
    check_dim(dim)
    if not 1 <= mu <= dim:
        raise DomainError(f"gamma index {mu} out of range for dimension {dim}")
    raw = _PAULI[mu]
    e = tuple(
        tuple(ExactScalar.rational(re, im) for (re, im) in row) for row in raw
    )
    return GammaMatrix(dim, e, (mu,))


def clifford_word(dim: int, indices: Sequence[int]) -> GammaMatrix:
    """Exact product of generators; the empty word is the identity."""
    out = identity(dim)
    for mu in indices:
        out = out.mul(gamma(dim, mu))
    return out


def matrix_trace(g: GammaMatrix) -> ExactScalar:
    return g.trace()


def levi_civita(indices: Sequence[int]) -> int:
    """Sign of the permutation, 0 on repeated indices."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return 0
    sign = 1
    for i in range(len(idx)):
        for j in range(i + 1, len(idx)):
            if idx[i] > idx[j]:
                sign = -sign
    return sign
