"""2x2 matrices over the free algebra, and the gamma algebra on them.

:class:`Mat2` is the one 2x2 type of the package: the symbol calculus of
:mod:`ncps.symbols` (which held it before) stores every matrix coefficient in
it, and the gamma algebra here is built on the same type.  The generators in
dimensions 2 and 3 are the Pauli matrices, ``gamma_mu = sigma_mu``: the Pauli
component ``a_mu`` is 1 and the others vanish.  Products and traces are exact,
so the anticommutation relation and the trace identities (vanishing
single-gamma trace, Levi-Civita three-gamma trace) hold as matrix identities
rather than rewrite rules.  Products walk only pairs of nonzero components,
each into the component and phase of the table :data:`_PAULI`, and
accumulate in place (:func:`_mul_into`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .algebra import AlgebraElement, _accumulate, _grade_rows, _mul_rows_into
from .scalars import DomainError, ExactScalar, RationalLike


# -- 2x2 matrices over the free algebra ------------------------------------------


def _times_i(x: AlgebraElement) -> AlgebraElement:
    """``i x``, a permutation of each coefficient triple."""
    return AlgebraElement._raw({w: s.times_i() for w, s in x._terms.items()})


# sigma_i sigma_j = delta_ij 1 + i eps_ijk sigma_k, with sigma_0 = 1: row i,
# column j holds (k, p), the component the pair lands on and the power p of i
_PAULI = (
    ((0, 0), (1, 0), (2, 0), (3, 0)),
    ((1, 0), (0, 0), (3, 1), (2, -1)),
    ((2, 0), (3, -1), (0, 0), (1, 1)),
    ((3, 0), (2, 1), (1, -1), (0, 0)),
)


def _component_rows(m: "Mat2") -> list[tuple[int, list]]:
    """``(index, grade rows)`` of each nonzero Pauli component of ``m``."""
    return [(i, _grade_rows(v)) for i, v in enumerate(m.a) if v._terms]


def _mul_into(acc: Sequence[dict], left: list, right: list) -> None:
    """Merge the product of two matrices, given by their
    :func:`_component_rows`, into the four component term maps ``acc``."""
    for i, x in left:
        table = _PAULI[i]
        for j, y in right:
            k, phase = table[j]
            _mul_rows_into(acc[k], x, y, phase)


class Mat2:
    """2x2 matrix over the free algebra in the Pauli basis: components
    ``a = (a0, a1, a2, a3)`` of ``a0 1 + sum_k a_k sigma_k``.  ``Mat2(rows)``
    converts entry rows ``((p, q), (r, s))`` once: ``a0, a3 = (p +- s)/2``,
    ``a1 = (q + r)/2``, ``a2 = i (q - r)/2``.  :attr:`e` is the entry view
    ``[[a0 + a3, a1 - i a2], [a1 + i a2, a0 - a3]]`` that ``render`` prints.
    Sums meet at the smaller t cap, so entries round-trip exactly when their
    t-graded coefficients share one cap, as those of every family do; rows
    that would lose a grade in the conversion raise :class:`DomainError`.
    The product keeps operand order, since entries do not commute; each pair
    of nonzero components ``a_i b_j`` adds into the one component of
    :data:`_PAULI`, and a zero component costs nothing:

        c0  = a0 b0 + sum_k a_k b_k
        c_k = a0 b_k + a_k b0 + i (a_i b_j - a_j b_i),   (i, j, k) cyclic

    Each component sits in two entries, so this is half the word-pair work of
    the entrywise product.  The trace is ``2 a0``.  The rest acts on each
    component: scalars and algebra elements commute with sigma_k, and every
    :meth:`map` (``delta``, ``t_grade``, ``filter_base_degree``, left
    multiplication) is complex-linear, so it commutes with the change of basis."""

    __slots__ = ("a",)

    def __init__(self, rows: tuple[tuple[AlgebraElement, AlgebraElement], ...]):
        (p, q), (r, s) = rows
        pauli = (p + s, q + r, _times_i(q - r), p - s)
        self.a = tuple(v.scale_rational(Fraction(1, 2)) for v in pauli)
        if self.e != ((p, q), (r, s)):
            raise DomainError("Mat2 entries mix t caps; the Pauli components drop grades")

    @classmethod
    def _of(cls, *a: AlgebraElement) -> "Mat2":
        """Trusted constructor from the four Pauli components."""
        out = object.__new__(cls)
        out.a = a
        return out

    @classmethod
    def zero(cls) -> "Mat2":
        return cls.diag(AlgebraElement.zero())

    @classmethod
    def diag(cls, a: AlgebraElement) -> "Mat2":
        z = AlgebraElement.zero()
        return cls._of(a, z, z, z)

    @property
    def e(self) -> tuple[tuple[AlgebraElement, AlgebraElement], ...]:
        a0, a1, a2, a3 = self.a
        ia2 = _times_i(a2)
        return ((a0 + a3, a1 - ia2), (a1 + ia2, a0 - a3))

    def add(self, other: "Mat2") -> "Mat2":
        return Mat2._of(*(x + y for x, y in zip(self.a, other.a)))

    def neg(self) -> "Mat2":
        return Mat2._of(*(-v for v in self.a))

    def mul(self, other: "Mat2") -> "Mat2":
        acc = ({}, {}, {}, {})
        _mul_into(acc, _component_rows(self), _component_rows(other))
        return Mat2._of(*map(AlgebraElement._raw, acc))

    @classmethod
    def sum(cls, mats: Iterable["Mat2"]) -> "Mat2":
        """Sum of ``mats``, accumulated in place."""
        acc = ({}, {}, {}, {})
        for m in mats:
            for out, v in zip(acc, m.a):
                for w, s in v._terms.items():
                    _accumulate(out, w, s)
        return cls._of(*map(AlgebraElement._raw, acc))

    def lmul(self, c: AlgebraElement) -> "Mat2":
        return Mat2._of(*(c * v for v in self.a))

    def rmul(self, c: AlgebraElement) -> "Mat2":
        return Mat2._of(*(v * c for v in self.a))

    def scale(self, s: ExactScalar) -> "Mat2":
        return Mat2._of(*(v.scale(s) for v in self.a))

    def scale_rational(self, q: RationalLike) -> "Mat2":
        return Mat2._of(*(v.scale_rational(q) for v in self.a))

    def map(self, fn: Callable[[AlgebraElement], AlgebraElement]) -> "Mat2":
        """``fn`` on each component; ``fn`` must be complex-linear."""
        return Mat2._of(*(fn(v) for v in self.a))

    def trace(self) -> AlgebraElement:
        return self.a[0].scale_rational(2)

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.a)

    def is_scalar(self) -> bool:
        """All entries are scalar multiples of the algebra unit."""
        return all(v.is_scalar() for v in self.a)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.a == other.a

    def render(self) -> str:
        rows = ", ".join(
            "[" + ", ".join(v.render() for v in row) + "]" for row in self.e
        )
        return f"[{rows}]"

    __repr__ = render


# -- the gamma algebra ------------------------------------------------------------


def check_dim(dim: int) -> None:
    if dim not in (2, 3):
        raise DomainError("gamma algebra is modeled in dimensions 2 and 3")


def gamma(dim: int, mu: int) -> Mat2:
    """The ``mu``-th generator, ``sigma_mu``: Pauli component ``a_mu = 1``."""
    check_dim(dim)
    if not 1 <= mu <= dim:
        raise DomainError(f"gamma index {mu} out of range for dimension {dim}")
    a = [AlgebraElement.zero()] * 4
    a[mu] = AlgebraElement.unit()
    return Mat2._of(*a)


def clifford_word(dim: int, indices: Sequence[int]) -> Mat2:
    """Exact product of generators; the empty word is the identity."""
    check_dim(dim)
    out = Mat2.diag(AlgebraElement.unit())
    for mu in indices:
        out = out.mul(gamma(dim, mu))
    return out


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
