"""Graded classical-symbol arithmetic for Dirac families on the flat torus.

A symbol is a finite collection of homogeneous components; each component is a
sum of terms

    C * xi^beta * (xi^2)^{-m/2}

with ``C`` a 2x2 matrix over the free algebra, ``beta`` a monomial multi-index
and ``m >= 0``.  ``C`` is a :class:`ncps.clifford.Mat2`, held in the Pauli
basis ``a0 1 + sum_k a_k sigma_k``; the type moved from here to
:mod:`ncps.clifford`, where the gamma generators of :func:`dirac_symbol` are
built on it, and is re-exported here.  Coefficient maps, all complex-linear,
act on each Pauli component.  The degree of a term is ``|beta| - m``.
Components carry an exact zero test: each term is rewritten on its own by
``xi_1^2 = xi^2 - sum_{i>=2} xi_i^2`` until every term with ``m >= 2`` has
``beta_1 < 2``.  That form is unique, since ``xi^2`` is monic in ``xi_1^2``:
over a common denominator it is the expansion of the numerator in powers of
``xi^2`` with remainders of ``xi_1``-degree below 2.  A component is zero iff
its canonical form has no terms.

The composition law is the graded star product

    a * b  =  sum_alpha (1/alpha!) (d/dxi)^alpha a . delta^alpha b

truncated below a floor.  It is written once, in :class:`_Moyal`, which the
star product, inversion, the square root and the resolvent layers all call.
Components and resolvent layers share one term map, :class:`TermMap`.
Inversion is written once as well, in :func:`_inverse_layers`: symbol
inversion and the resolvent layers are the same recursion from different
leading layers.  Inversion and square roots are solved degree by degree; the
leading components that occur here are central scalar functions times
``1 + (nilpotent)`` and are handled by finite Neumann / binomial series.  At
each degree the square root solves the two-sided equation ``v X + X v = R``,
``v = 1 + w``, by the finite series ``X = 1/2 sum_k (-1/2)^k A^k(R)`` of the
nilpotent map ``A(X) = w X + X w``.

The resolvent layer ``r_k`` of an order-2 polynomial symbol ``sigma(D^2)``
is graded by joint homogeneity in xi and the resolvent parameter, which
counts with degree two: a term ``xi^beta (xi^2)^s (xi^2 - lambda)^{-m}``,
keyed ``(beta, s, m)``, has degree ``-2 - k``; the powers of ``xi^2`` that
the Neumann series of the leading layer brings in stay factored through every
product.  ``|D|^{-1}``, behind the sign and inverse-absolute-value symbols,
comes from these layers by the Mellin representation
``A^{-1/2} = (1/pi) int_0^inf lam^{-1/2} (A + lam)^{-1} dlam``, where each
``(xi^2 + lambda)^{-m}`` integrates to a rational multiple of
``(xi^2)^{1/2 - m}``: one recursion whose left factor is the polynomial
``sigma(D^2)``.  The square root followed by inversion reaches the same
symbol by two recursions with non-polynomial left factors, but merges the
keys that differ only in the power of ``xi^2``, which the layers keep apart
because their Mellin weights differ.  So the layers carry about one copy of
each term per nilpotent power of the leading layer, and past
``MAX_RESOLVENT_POWERS`` such powers :func:`_inverse_abs` takes the square
root and inversion instead; the tests hold the two routes equal.  The heat
coefficients of :mod:`ncps.heat` close the same layers by a contour
integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Collection, Iterable, Optional

from .algebra import (
    AlgebraElement,
    exp_expand,
    gen,
    invert_perturbed_unit,
    nilpotent_orbit,
    nilpotent_powers,
    sqrt_perturbed_unit,
)
from .clifford import Mat2, _component_rows, _mul_into, gamma
from .scalars import (
    DomainError, ExactScalar, RationalLike, gamma_half_pair, parse_int, parse_ints, parse_value,
)


class EllipticityShapeError(DomainError):
    """Leading component is not a central scalar power times a perturbed unit."""


class InsufficientFloorError(DomainError):
    """A computation needs homogeneous components below the computed floor."""


class FamilyError(DomainError):
    """Malformed operator-family description."""


# -- multi-index helpers ----------------------------------------------------------


@lru_cache(maxsize=None)
def multi_indices(dim: int, total: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices over ``dim`` directions with |alpha| = total."""
    if dim == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in multi_indices(dim - 1, total - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _alpha_factorial(alpha: tuple[int, ...]) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


@lru_cache(maxsize=None)
def xi2_monomials(dim: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Expansion of ``(xi_1^2 + ... + xi_dim^2)^k`` as (beta, coefficient) pairs."""
    out = []
    for alpha in multi_indices(dim, k):
        coeff = math.factorial(k) // _alpha_factorial(alpha)
        out.append((tuple(2 * a for a in alpha), coeff))
    return tuple(out)


TermKey = tuple[tuple[int, ...], int]  # (beta, m)


class TermMap:
    """Finite map key -> :class:`Mat2` of a fixed joint degree.  A key starts
    with a monomial multi-index ``beta``, followed by integer powers of
    central factors in xi (and, in :class:`ResolventComponent`, the resolvent
    parameter).  Entries merge on insert and zero entries are dropped.
    ``_keep``, a predicate on keys or ``None``, restricts the map to a part:
    :meth:`add_product` skips every pair whose product key it refuses.

    Subclasses fix what the powers mean: :meth:`_audit` checks a new key
    against the degree, :meth:`_join` gives the key of a product of two
    terms, and ``_powers`` prints them, one factor text per power (empty
    where the factor is 1) after the ``xi^beta`` factors.  A plain term map,
    the momentum integrand of :mod:`ncps.heat`, is keyed ``(beta, s)`` for
    ``xi^beta (xi^2)^s``."""

    __slots__ = ("dim", "degree", "terms", "_keep")
    _powers: tuple[Callable[[int], str], ...] = (
        lambda s: "(xi^2)" + (f"^{s}" if s > 1 else "") if s else "",
    )

    def __init__(self, dim: int, degree: Optional[int]):
        self.dim = dim
        self.degree = degree
        self.terms: dict = {}
        self._keep = None

    def _like(self, degree: Optional[int]):
        """Empty map of the same kind at ``degree``, keeping every key."""
        out = object.__new__(type(self))
        out.dim, out.degree, out.terms, out._keep = self.dim, degree, {}, None
        return out

    def _audit(self, key: tuple) -> None:
        pass

    @staticmethod
    def _join(k1: tuple, k2: tuple) -> tuple:
        """Key of the product of two terms: every entry adds."""
        beta = tuple(x + y for x, y in zip(k1[0], k2[0]))
        return (beta,) + tuple(x + y for x, y in zip(k1[1:], k2[1:]))

    def add_term(self, *entry) -> None:
        """``add_term(*key, mat)``: merge ``mat`` into the term at ``key``."""
        self._merge(entry[:-1], entry[-1])

    def _merge(self, key: tuple, mat: Mat2) -> None:
        if mat.is_zero():
            return
        old = self.terms.get(key)
        if old is None:
            self._audit(key)
            self.terms[key] = mat
            return
        s = old.add(mat)
        if s.is_zero():
            del self.terms[key]
        else:
            self.terms[key] = s

    def is_empty(self) -> bool:
        return not self.terms

    def reduced(self):
        """Canonical representative; the keys of a plain term map already are."""
        return self

    def render(self) -> str:
        """Terms sorted on (powers reversed, beta), as ``factors . matrix``."""
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (k[:0:-1], k[0])):
            factors = [f"xi{i}" + (f"^{b}" if b > 1 else "") for i, b in enumerate(key[0], 1) if b]
            factors += filter(None, (text(p) for text, p in zip(self._powers, key[1:])))
            parts.append(f"{'*'.join(factors) or '1'} . {self.terms[key].render()}")
        return "  +  ".join(parts)

    __repr__ = render

    # -- linear structure ---------------------------------------------------

    def add(self, other: "TermMap"):
        if other.degree != self.degree:
            raise DomainError("cannot add components of different degrees")
        out = self._like(self.degree)
        out.terms = dict(self.terms)
        for key, mat in other.terms.items():
            out._merge(key, mat)
        return out

    def sub(self, other: "TermMap"):
        return self.add(other.neg())

    def _mapped(self, fn: Callable[[Mat2], Mat2]):
        """Apply ``fn`` to every matrix, keeping the keys."""
        out = self._like(self.degree)
        for key, mat in self.terms.items():
            v = fn(mat)
            if not v.is_zero():
                out.terms[key] = v
        return out

    def neg(self):
        return self._mapped(Mat2.neg)

    def scale(self, s: ExactScalar):
        return self._mapped(lambda mat: mat.scale(s))

    def scale_rational(self, q: RationalLike):
        return self._mapped(lambda mat: mat.scale_rational(q))

    def map_coeffs(self, fn: Callable[[AlgebraElement], AlgebraElement]):
        return self._mapped(lambda mat: mat.map(fn))

    def lmul_elem(self, c: AlgebraElement):
        return self._mapped(lambda mat: mat.lmul(c))

    def rmul_elem(self, c: AlgebraElement):
        return self._mapped(lambda mat: mat.rmul(c))

    def delta(self, mu: int):
        """Entrywise formal derivation on the matrix coefficients (1-based)."""
        return self.map_coeffs(lambda v: v.delta(mu))

    def t_grade(self, j: int):
        return self.map_coeffs(lambda v: v.t_grade(j))

    def has_generators(self) -> bool:
        return any(not mat.is_scalar() for mat in self.terms.values())

    # -- multiplicative structure ----------------------------------------------

    def mul(self, other: "TermMap"):
        """Pointwise product; matrix factors keep left/right order."""
        out = self._like(self.degree + other.degree)
        out.add_product(self, other)
        return out

    def add_product(self, left: "TermMap", right: "TermMap") -> None:
        """Merge the pointwise product ``left . right`` into this map: each key
        accumulates four component term maps and becomes one ``Mat2``."""
        join, keep = self._join, self._keep
        rights = [(k2, _component_rows(mat2)) for k2, mat2 in right.terms.items()]
        acc: dict = {}
        for k1, mat1 in left.terms.items():
            rows1 = _component_rows(mat1)
            for k2, rows2 in rights:
                key = join(k1, k2)
                if keep is not None and not keep(key):
                    continue
                comps = acc.get(key)
                if comps is None:
                    old = self.terms.get(key)
                    if old is None:
                        self._audit(key)
                    comps = acc[key] = tuple(dict(v._terms) for v in (old or Mat2.zero()).a)
                _mul_into(comps, rows1, rows2)
        for key, comps in acc.items():
            mat = Mat2._of(*map(AlgebraElement._raw, comps))
            if mat.is_zero():
                self.terms.pop(key, None)
            else:
                self.terms[key] = mat


class Component(TermMap):
    """Homogeneous component of fixed degree: term map (beta, m) -> matrix."""

    __slots__ = ()
    _powers = (lambda m: f"(xi^2)^{{-{m}/2}}" if m else "",)

    @classmethod
    def scalar(cls, dim: int, a: AlgebraElement) -> "Component":
        """The degree-0 component ``a (x) 1``, constant in xi."""
        c = cls(dim, 0)
        c.add_term((0,) * dim, 0, Mat2.diag(a))
        return c

    def _audit(self, key: TermKey) -> None:
        beta, m = key
        if m < 0:
            raise DomainError("denominator half-power must be >= 0")
        if sum(beta) - m != self.degree:
            raise DomainError(
                f"term xi^{beta} (xi^2)^{{-{m}/2}} has degree {sum(beta) - m}, "
                f"component expects {self.degree}"
            )

    def mul_xi2(self, half: int) -> "Component":
        """Multiply by ``(xi^2)^{half/2}``, keeping m >= 0 by expanding
        positive powers into monomials."""
        if half == 0:
            return self
        out = Component(self.dim, self.degree + half)
        for (beta, m), mat in self.terms.items():
            m_new = m - half
            if m_new >= 0:
                out._merge((beta, m_new), mat)
                continue
            pos = -m_new  # leftover positive half-power
            if pos % 2 == 0:
                k, m_final = pos // 2, 0
            else:
                k, m_final = (pos + 1) // 2, 1
            for mono, coeff in xi2_monomials(self.dim, k):
                b = tuple(x + y for x, y in zip(beta, mono))
                out._merge((b, m_final), mat.scale_rational(coeff))
        return out

    def xi_derivative(self, i: int, q: RationalLike = 1) -> "Component":
        """``q d/dxi_i``, lowering the degree by one (0-based direction)."""
        out = Component(self.dim, self.degree - 1)
        for (beta, m), mat in self.terms.items():
            if beta[i] > 0:
                b = list(beta)
                b[i] -= 1
                out._merge((tuple(b), m), mat.scale_rational(beta[i] * q))
            if m > 0:
                b = list(beta)
                b[i] += 1
                out._merge((tuple(b), m + 2), mat.scale_rational(-m * q))
        return out

    def is_polynomial(self) -> bool:
        return all(m == 0 for (_beta, m) in self.terms)

    # -- canonical form ----------------------------------------------------------

    def reduced(self) -> "Component":
        """Canonical representative: the sum of the cached normal forms of the
        terms (:func:`_normal_form`).  Terms at m >= 2 end with beta_1 < 2,
        terms at m = 0, 1 are left alone; unique as the module doc explains."""
        out = Component(self.dim, self.degree)
        for (beta, m), mat in self.terms.items():
            for b, mm, c in _normal_form(beta, m):
                out._merge((b, mm), mat if c == 1 else mat.scale_rational(c))
        return out

    def is_zero(self) -> bool:
        return self.reduced().is_empty()

    def equals(self, other: "Component") -> bool:
        return self.sub(other).is_zero()


@lru_cache(maxsize=None)
def _normal_form(beta: tuple[int, ...], m: int) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """``xi^beta (xi^2)^{-m/2}`` as ``(beta', m', coeff)`` terms with
    ``beta'_1 < 2`` whenever ``m' >= 2``, by rewriting
    ``xi_1^2 = xi^2 - sum_{i>=2} xi_i^2`` until no term allows it."""
    if m < 2 or beta[0] < 2:
        return ((beta, m, 1),)
    rest = (beta[0] - 2,) + beta[1:]
    pieces = [(rest, m - 2, 1)]
    for i in range(1, len(beta)):
        pieces.append((rest[:i] + (rest[i] + 2,) + rest[i + 1 :], m, -1))
    acc: dict[TermKey, int] = {}
    for b, mm, sign in pieces:
        for key_b, key_m, c in _normal_form(b, mm):
            acc[(key_b, key_m)] = acc.get((key_b, key_m), 0) + sign * c
    return tuple((b, mm, c) for (b, mm), c in acc.items() if c)


# -- symbols ---------------------------------------------------------------------


class Symbol:
    """Map degree -> homogeneous component, with a floor marking how deep the
    expansion is known.  ``floor=None`` means the symbol is an exact finite sum
    (every absent degree is exactly zero)."""

    __slots__ = ("dim", "components", "floor")

    def __init__(self, dim: int, components: dict[int, Component], floor: Optional[int]):
        self.dim = dim
        self.components = components
        self.floor = floor

    @classmethod
    def make(
        cls, dim: int, components: Iterable[Component], floor: Optional[int] = None
    ) -> "Symbol":
        merged: dict[int, Component] = {}
        for c in components:
            if c.degree in merged:
                merged[c.degree] = merged[c.degree].add(c)
            else:
                merged[c.degree] = c
        comps: dict[int, Component] = {}
        for d, c in merged.items():
            r = c.reduced()
            if not r.is_empty():
                comps[d] = r
        return cls(dim, comps, floor)

    @property
    def order(self) -> int:
        if not self.components:
            raise DomainError("zero symbol has no order")
        return max(self.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components.values())

    def component(self, d: int) -> Component:
        if d in self.components:
            return self.components[d]
        return Component(self.dim, d)

    def known_down_to(self, d: int) -> bool:
        return self.floor is None or self.floor <= d

    def reduced(self) -> "Symbol":
        return Symbol.make(self.dim, self.components.values(), self.floor)

    def add(self, other: "Symbol") -> "Symbol":
        floor = _combine_floor(self.floor, other.floor)
        comps = {}
        for d in set(self.components) | set(other.components):
            comps[d] = self.component(d).add(other.component(d))
        sym = Symbol.make(self.dim, comps.values(), floor)
        return sym

    def neg(self) -> "Symbol":
        return Symbol(
            self.dim, {d: c.neg() for d, c in self.components.items()}, self.floor
        )

    def sub(self, other: "Symbol") -> "Symbol":
        return self.add(other.neg())

    def map_coeffs(self, fn: Callable[[AlgebraElement], AlgebraElement]) -> "Symbol":
        return Symbol.make(
            self.dim,
            (c.map_coeffs(fn) for c in self.components.values()),
            self.floor,
        )

    def filter_base_degree(self, bases: Iterable[str], cap: int) -> "Symbol":
        names = tuple(bases)
        return self.map_coeffs(lambda v: v.filter_base_degree(names, cap))

    def equals(self, other: "Symbol", down_to: Optional[int] = None) -> bool:
        lo = down_to
        if lo is None:
            floors = [f for f in (self.floor, other.floor) if f is not None]
            if floors:
                lo = max(floors)
        degrees = {d for d in set(self.components) | set(other.components) if lo is None or d >= lo}
        return all(self.component(d).equals(other.component(d)) for d in degrees)

    def render(self) -> str:
        if not self.components:
            return "0"
        lines = []
        for d in sorted(self.components, reverse=True):
            lines.append(f"deg {d}: {self.components[d].render()}")
        if self.floor is not None:
            lines.append(f"(truncated below degree {self.floor})")
        return "\n".join(lines)

    __repr__ = render


def _combine_floor(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _require_known(a: Symbol, d: int, what: str) -> None:
    if not a.known_down_to(d):
        raise InsufficientFloorError(
            f"{what} needs components down to degree {d}, "
            f"but the symbol is truncated at {a.floor}"
        )


# -- star product ---------------------------------------------------------------


class _Moyal:
    """The composition law, written once for every caller: the order-r part

        sum_{|alpha| = r} (1/alpha!) (d/dxi)^alpha a . delta^alpha b

    of a product of two term maps, and in :meth:`cross` the one loop that
    picks, for the star product, the inverse layers and the square root, the
    pairs of factors that meet at a degree.  One instance lives for one call
    and memoizes two derivative ladders, keyed by the factor itself and alpha:
    Taylor coefficients ``(d/dxi)^alpha a / alpha!`` of left factors, so
    ``1/alpha!`` is applied once per (factor, alpha) and no product is
    scaled, and ``delta^alpha b`` of right factors.  Each rung is one step
    up from the rung below it in the first direction that alpha uses.
    ``delta`` changes coefficients only, so the keys of ``delta^alpha b`` are
    keys of ``b``: when the output map keeps no product key of the Taylor
    rung with ``b``, the ``delta`` rung is never built."""

    def __init__(self):
        self.memo: dict[tuple, TermMap] = {}

    def add(self, a: Component, b: TermMap, r: int, out: TermMap) -> None:
        """Merge the order-``r`` part of ``a * b`` into ``out``."""
        if r and not b.has_generators():
            return  # delta kills a factor with constant coefficients
        keep = out._keep
        for alpha in multi_indices(a.dim, r):
            left = self._rung(_taylor_step, a, alpha)
            if left.is_empty() or keep is not None and not any(
                keep(out._join(k1, k2)) for k1 in left.terms for k2 in b.terms
            ):
                continue
            right = self._rung(_delta_step, b, alpha)
            if not right.is_empty():
                out.add_product(left, right)

    def cross(self, lefts: Iterable[Component], rights: Collection[TermMap], out: TermMap) -> None:
        """Merge into ``out`` the part of every product ``l * r`` at its
        degree: the order ``deg l + deg r - deg out`` part, where that is >= 0."""
        for a in lefts:
            for b in rights:
                r = a.degree + b.degree - out.degree
                if r >= 0:
                    self.add(a, b, r, out)

    def _rung(self, step, c: TermMap, alpha: tuple[int, ...]) -> TermMap:
        if not any(alpha):
            return c
        key = (step, c, alpha)
        hit = self.memo.get(key)
        if hit is None:
            i = next(j for j, n in enumerate(alpha) if n)
            below = alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]
            hit = self.memo[key] = step(self._rung(step, c, below), i, alpha[i])
        return hit


def _taylor_step(c: Component, i: int, n: int) -> Component:
    # d/dxi_i of the Taylor coefficient below, over the new alpha_i = n
    return c.xi_derivative(i, Fraction(1, n)).reduced()


def _delta_step(c: TermMap, i: int, _n: int) -> TermMap:
    return c.delta(i + 1)


def star_product(a: Symbol, b: Symbol, floor: Optional[int] = None) -> Symbol:
    """Composition of symbols, truncated below ``floor``.

    With ``floor=None`` the product is computed exactly, which requires the
    left factor to be polynomial in xi (finite derivative ladder) and both
    factors to be exact finite sums.  A polynomial component of degree
    ``d`` is a sum of ``xi^beta`` with ``|beta| = d``, so its Taylor rungs
    past order ``d`` are empty, which ends its sum, and the product reaches
    down to the lowest degree of the right factor.
    """
    if a.dim != b.dim:
        raise DomainError("symbols live on tori of different dimensions")
    if not a.components or not b.components:
        return Symbol(a.dim, {}, floor)
    if floor is None:
        if a.floor is not None or b.floor is not None:
            raise InsufficientFloorError(
                "exact star product requires exact finite factors"
            )
        if not all(c.is_polynomial() for c in a.components.values()):
            raise InsufficientFloorError(
                "exact star product requires a polynomial left factor; pass a floor"
            )
    else:
        _require_known(a, floor - b.order, "star product")
        _require_known(b, floor - a.order, "star product")

    lo = min(b.components) if floor is None else floor
    out = [Component(a.dim, d) for d in range(a.order + b.order, lo - 1, -1)]
    moyal = _Moyal()
    for comp in out:
        moyal.cross(a.components.values(), b.components.values(), comp)
    return Symbol.make(a.dim, out, floor)


# -- leading-shape analysis -------------------------------------------------------


def _central_leading(a: Symbol) -> tuple[int, AlgebraElement]:
    """Recognize the top component as ``(xi^2)^{d/2} (c + nilpotent) (x) I``.

    Returns the degree and the algebra element; raises
    :class:`EllipticityShapeError` otherwise.
    """
    a = a.reduced()
    if not a.components:
        raise EllipticityShapeError("zero symbol has no leading component")
    d = a.order
    flat = a.components[d].mul_xi2(-d).reduced()
    keys = set(flat.terms)
    unit_key = ((0,) * a.dim, 0)
    if keys != {unit_key}:
        raise EllipticityShapeError(
            "leading component is not a pure (xi^2) power times a constant matrix"
        )
    u, *sigma = flat.terms[unit_key].a
    if not all(v.is_zero() for v in sigma):
        raise EllipticityShapeError("leading matrix is not a scalar multiple of I")
    return d, u


# -- inversion and square root ----------------------------------------------------


def invert_symbol(a: Symbol, floor: int) -> Symbol:
    """Symbol ``b`` with ``a * b = 1`` modulo degrees below ``floor``."""
    a = a.reduced()
    r, u = _central_leading(a)
    try:
        uinv = invert_perturbed_unit(u)
    except DomainError as exc:
        raise EllipticityShapeError(str(exc)) from exc
    kmax = -floor - r
    if kmax < 0:
        raise DomainError(f"floor {floor} is above the leading inverse degree {-r}")
    _require_known(a, 2 * r + floor, "inversion")

    lead = Component.scalar(a.dim, uinv).mul_xi2(-r).reduced()
    return Symbol.make(a.dim, _inverse_layers(a, lead, kmax), floor)


def _inverse_layers(a: Symbol, lead: TermMap, count: int, keep=None) -> list:
    """Layers ``b_0 = lead, .., b_count`` of the right inverse of ``a``, where
    ``lead`` inverts the top component of ``a``.  Layer ``k`` has degree
    ``deg lead - k`` and is ``-lead . cross``, with ``cross`` the degree
    ``-k`` part of ``a * (b_0 + .. + b_{k-1})``: the Moyal pairs of ``a_d``
    and a known layer ``b_j`` at order ``d + deg b_j + k``.  Both
    :func:`invert_symbol` and :func:`resolvent_symbols` are this recursion;
    the layer type comes from ``lead``.  A ``keep`` predicate on keys
    restricts the last ``cross`` to the keys it accepts; the layers below it
    are needed in full."""
    minus_lead = lead.neg()  # negate the short factor once
    layers = [lead]
    moyal = _Moyal()
    for k in range(1, count + 1):
        cross = lead._like(-k)
        if k == count:
            cross._keep = keep
        moyal.cross(a.components.values(), layers, cross)
        layers.append(minus_lead.mul(cross).reduced())
    return layers


def _solve_symmetric(v: AlgebraElement, rhs: Component) -> Component:
    """Solve ``v X + X v = rhs`` for a perturbed unit ``v = 1 + w``.

    With ``A(X) = w X + X w`` the equation is ``(2 + A) X = rhs``.  ``w`` is
    t-nilpotent, so ``A`` is too, and ``X = 1/2 sum_k (-1/2)^k A^k(rhs)`` sums
    one orbit of ``A``; ``A`` keeps every key, so no term needs reducing.
    """
    w = v - AlgebraElement.unit()
    orbit = nilpotent_orbit(rhs, lambda x: x.lmul_elem(w).add(x.rmul_elem(w)))
    out = Component(rhs.dim, rhs.degree)
    for k, term in enumerate(orbit):
        out = out.add(term.scale_rational(Fraction(1, 2) * Fraction(-1, 2) ** k))
    return out


def sqrt_symbol(a: Symbol, floor: int) -> Symbol:
    """Symbol ``b`` of half the order with ``b * b = a`` modulo the floor."""
    a = a.reduced()
    two_r, u = _central_leading(a)
    if two_r % 2:
        raise EllipticityShapeError("square root needs a symbol of even order")
    r = two_r // 2
    try:
        v = sqrt_perturbed_unit(u)
    except DomainError as exc:
        raise EllipticityShapeError(str(exc)) from exc
    kmax = r - floor
    if kmax < 0:
        raise DomainError(f"floor {floor} is above the leading square-root degree {r}")
    _require_known(a, r + floor, "square root")

    lead = Component.scalar(a.dim, v).mul_xi2(r).reduced()

    b: dict[int, Component] = {r: lead}
    moyal = _Moyal()
    for k in range(1, kmax + 1):
        # the unknown degree r - k is not in b yet, so every pair is known
        cross = Component(a.dim, 2 * r - k)
        moyal.cross(b.values(), b.values(), cross)
        # divide by the central scalar (xi^2)^{r/2}
        rhs = a.component(2 * r - k).sub(cross).mul_xi2(-r).reduced()
        comp = _solve_symmetric(v, rhs).reduced()
        if not comp.is_empty():
            b[r - k] = comp
    return Symbol(a.dim, b, floor).reduced()


# -- resolvent layers and the inverse square root ------------------------------------


ResKey = tuple[tuple[int, ...], int, int]  # (beta, xi^2 power s >= 0, resolvent power m >= 1)


class ResolventComponent(TermMap):
    """Layer ``r_k``: term map (beta, s, m) -> matrix, with factors
    ``xi^beta (xi^2)^s (xi^2 - lambda)^{-m}`` and joint degree
    ``|beta| + 2s - 2m = -2 - k``.  The ``(xi^2)^s`` factor stays factored:
    products add ``s``, and the momentum integral of :mod:`ncps.heat`
    integrates it in closed form as a shift of the radial Gamma argument."""

    __slots__ = ()
    _powers = (TermMap._powers[0], lambda m: f"(xi^2-lam)^{{-{m}}}")

    def __init__(self, dim: int, k: int):
        super().__init__(dim, -2 - k)

    @property
    def k(self) -> int:
        return -2 - self.degree

    def _audit(self, key: ResKey) -> None:
        beta, s, m = key
        if m < 1 or s < 0:
            raise DomainError("resolvent power must be >= 1 and xi^2 power >= 0")
        if sum(beta) + 2 * s - 2 * m != self.degree:
            raise DomainError(
                f"term xi^{beta} (xi^2)^{s} (xi^2-lam)^{{-{m}}} breaks the "
                f"homogeneity audit for layer {self.k}"
            )

    @staticmethod
    def _join(k1: tuple, k2: ResKey) -> ResKey:
        if len(k1) == 2:  # a polynomial symbol term xi^beta, key (beta, 0)
            k1 = (k1[0], 0, 0)
        return TermMap._join(k1, k2)


def _resolvent_leading(sd2: Symbol, count: int) -> ResolventComponent:
    """``r_0``: inverse of the leading part ``xi^2 (1 + nu)``, as the finite
    Neumann series ``sum_j (-nu)^j (xi^2)^j (xi^2 - lambda)^{-j-1}`` in the
    nilpotent perturbation ``nu`` of the central symbol, after the checks
    that ``count`` layers can be built from it."""
    if count < 0:
        raise DomainError(f"the number of resolvent layers must be >= 0, got {count}")
    if sd2.floor is not None:
        raise DomainError("resolvent recursion expects an exact differential symbol")
    for c in sd2.components.values():
        if not c.is_polynomial():
            raise DomainError("resolvent recursion expects polynomial components")
    two, u = _central_leading(sd2)
    if two != 2:
        raise EllipticityShapeError("resolvent recursion expects an order-2 symbol")
    unit = AlgebraElement.unit()
    if not (u.t_grade(0) - unit).is_zero():
        raise EllipticityShapeError("leading symbol must be xi^2 (1 + nilpotent)")
    try:
        powers = nilpotent_powers(u - unit)
    except DomainError as exc:
        raise EllipticityShapeError(f"leading {exc}") from exc
    r0 = ResolventComponent(sd2.dim, 0)
    for j, power in enumerate(powers):
        r0.add_term((0,) * sd2.dim, j, j + 1, Mat2.diag(-power if j % 2 else power))
    return r0


def resolvent_symbols(sd2: Symbol, count: int) -> list[ResolventComponent]:
    """Layers ``r_0 .. r_count`` of the resolvent of an order-2 polynomial
    symbol: the inverse-layer recursion from ``r_0``."""
    return _inverse_layers(sd2, _resolvent_leading(sd2, count), count)


def _mellin_half_factor(m: int) -> Fraction:
    """``(1/pi) * Beta(1/2, m - 1/2)`` = Gamma(m-1/2) / (sqrt(pi) (m-1)!)."""
    c, half = gamma_half_pair(2 * m - 1)
    if half != 1:
        raise DomainError("unexpected pi bookkeeping in the Mellin factor")
    return c / math.factorial(m - 1)


def mellin_inverse_power(sd2: Symbol, floor: int) -> Symbol:
    """Expansion of the inverse square root of an order-2 family.

    Uses ``A^{-1/2} = (1/pi) int_0^inf lam^{-1/2} (A + lam)^{-1} dlam``
    termwise on the resolvent layers: layer ``r_j`` gives the degree
    ``-1 - j`` component, and its term ``xi^beta (xi^2)^s (xi^2 + lam)^{-m}``
    integrates to a rational multiple of ``xi^beta (xi^2)^{s + 1/2 - m}``; no
    ``(xi^2)^s`` is expanded, and :meth:`Symbol.make` reduces the result to
    normal form.  One recursion whose left factor is the polynomial ``sd2``,
    where the square-root/inversion route runs two with non-polynomial left
    factors; the tests hold the two routes equal component by component.
    """
    if floor > -1:
        raise DomainError("floor must be at most -1 for an order -1 expansion")
    comps = []
    for j, rc in enumerate(resolvent_symbols(sd2, -floor - 1)):
        comp = Component(sd2.dim, -1 - j)
        for (beta, s, m), mat in rc.terms.items():
            w = _mellin_half_factor(m)
            comp.add_term(beta, 2 * (m - s) - 1, mat if w == 1 else mat.scale_rational(w))
        comps.append(comp)
    return Symbol.make(sd2.dim, comps, floor)


# |D|^{-1} of conformal(3, t_cap) down to degree -4, whose leading layer has
# t_cap + 1 keys, in a fresh interpreter: from the layers 0.15-0.17 s and 33 MB
# at t_cap 3, 0.50 s and 48 MB at 4, 1.6-1.8 s and 94 MB at 5, 5.0-5.7 s and
# 216 MB at 6; by the square root and inversion 0.15-0.25 s and 33 MB,
# 0.60-0.75 s and 39 MB, 1.5-1.7 s and 64 MB, 3.7-3.9 s and 124 MB.  The
# layers' memory outgrows the other route's from t_cap 4 on.
MAX_RESOLVENT_POWERS = 4


def _inverse_abs(sd2: Symbol, floor: int) -> Symbol:
    """``|D|^{-1}`` down to ``floor`` from the exact ``sd2 = sigma(D^2)``.

    The resolvent layers run one recursion on the polynomial ``sd2``, but
    keep the keys of the leading layer's Neumann series apart through every
    product, since their Mellin weights differ, where the square root and
    the inversion merge them into one.  So the layers are used while the
    leading layer has at most ``MAX_RESOLVENT_POWERS`` keys, one per
    nilpotent power (every free, coupled and unitary family has one), and
    past that the square root of ``sd2`` down to ``floor + 2`` and its
    inverse."""
    if len(_resolvent_leading(sd2, 0).terms) <= MAX_RESOLVENT_POWERS:
        return mellin_inverse_power(sd2, floor)
    return invert_symbol(sqrt_symbol(sd2, floor + 2), floor)


# -- operator families -------------------------------------------------------------


# The fields each kind reads besides "kind" and "dim", with how a report echoes
# each; a family file giving any other field is refused.
FAMILY_FIELDS = {
    "free_dirac": {},
    "coupled_dirac": {"gauge": list},
    "conformal_dirac": {"t_cap": int, "weyl": str},
    "unitary_flow": {"flow_k": list, "flow_t": str},
}


@dataclass(frozen=True)
class OperatorFamily:
    """Declarative recipe for a Dirac-type family on the dim-torus.

    kinds:
      free_dirac      -- the flat Dirac operator
      coupled_dirac   -- free Dirac plus a gauge potential with one abstract
                         self-adjoint generator per direction
      conformal_dirac -- two-sided conformal perturbation by a Weyl factor,
                         expanded in the nilpotent grade up to t_cap
      unitary_flow    -- free Dirac shifted along the commutator with a basic
                         unitary of lattice vector k, at a rational parameter
    """

    kind: str
    dim: int
    t_cap: Optional[int] = None
    weyl: str = "h"
    gauge: tuple[str, ...] = ()
    flow_k: tuple[int, ...] = ()
    flow_t: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in FAMILY_FIELDS:
            raise FamilyError(f"unknown family kind {self.kind!r}")
        if self.dim not in (2, 3):
            raise FamilyError("families are modeled in dimensions 2 and 3")
        if self.kind == "coupled_dirac" and len(self.gauge) != self.dim:
            raise FamilyError("coupled family needs one gauge generator per direction")
        if self.kind == "conformal_dirac" and (self.t_cap is None or self.t_cap < 0):
            raise FamilyError("conformal family needs a t cap >= 0")
        if self.kind == "unitary_flow" and len(self.flow_k) != self.dim:
            raise FamilyError("unitary flow needs an integer lattice vector of length dim")

    @classmethod
    def free(cls, dim: int) -> "OperatorFamily":
        return cls("free_dirac", dim)

    @classmethod
    def coupled(cls, dim: int, gauge: Optional[tuple[str, ...]] = None) -> "OperatorFamily":
        if gauge is None:
            gauge = tuple(f"A{m}" for m in range(1, dim + 1))
        return cls("coupled_dirac", dim, gauge=gauge)

    @classmethod
    def conformal(cls, dim: int, t_cap: int, weyl: str = "h") -> "OperatorFamily":
        return cls("conformal_dirac", dim, t_cap=t_cap, weyl=weyl)

    @classmethod
    def unitary(cls, dim: int, k: tuple[int, ...], t: RationalLike) -> "OperatorFamily":
        return cls("unitary_flow", dim, flow_k=tuple(k), flow_t=Fraction(t))

    @classmethod
    def from_dict(cls, data: dict) -> "OperatorFamily":
        """The family a family file describes.  Integers parse as check
        configs do (:func:`~ncps.scalars.parse_int`), so none is truncated; a
        malformed field, or one the kind does not read (:data:`FAMILY_FIELDS`),
        is a :class:`DomainError` naming it.  A ``null`` field is absent."""
        if not isinstance(data, dict) or not {"kind", "dim"} <= data.keys():
            raise FamilyError("family file needs 'kind' and integer 'dim'")

        def field(key, parse, what, default=None):
            value = data.get(key)
            return default if value is None else parse_value(key, value, parse, what)

        kind = data["kind"]
        dim = parse_value("dim", data["dim"], parse_int, "an integer")
        fam = cls(
            kind=kind,
            dim=dim,
            t_cap=field("t_cap", parse_int, "an integer"),
            weyl=field("weyl", lambda v: _names([v])[0], "a generator name", "h"),
            gauge=field("gauge", _names, "a list of generator names", ()) or (
                tuple(f"A{m}" for m in range(1, dim + 1)) if kind == "coupled_dirac" else ()
            ),
            flow_k=field("flow_k", parse_ints, "a list of integers", ()),
            flow_t=field("flow_t", lambda v: Fraction(str(v)), "a rational number", Fraction(0)),
        )
        reads = {"kind", "dim", *FAMILY_FIELDS[kind]}
        unread = [k for k, v in data.items() if v is not None and k not in reads]
        if unread:
            raise FamilyError(f"a {kind} family does not read {', '.join(map(repr, unread))}")
        return fam

    def to_dict(self) -> dict:
        """``kind``, ``dim`` and the fields the kind reads."""
        out = {"kind": self.kind, "dim": self.dim}
        for key, echo in FAMILY_FIELDS[self.kind].items():
            out[key] = echo(getattr(self, key))
        return out


def _names(value) -> tuple[str, ...]:
    """A list of generator names, as a family file gives them."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError(value)
    return tuple(value)


def _slash_component(dim: int, coeffs: list[AlgebraElement]) -> Component:
    """Degree-0 component ``sum_mu coeffs[mu] (x) gamma^mu``."""
    comp = Component(dim, 0)
    for mu, c in enumerate(coeffs, start=1):
        comp.add_term((0,) * dim, 0, gamma(dim, mu).map(lambda v, c=c: c * v))
    return comp


def _xi_slash(dim: int) -> Component:
    comp = Component(dim, 1)
    for mu in range(1, dim + 1):
        beta = tuple(1 if i == mu - 1 else 0 for i in range(dim))
        comp.add_term(beta, 0, gamma(dim, mu))
    return comp


def dirac_symbol(f: OperatorFamily) -> tuple[Symbol, Symbol]:
    """Symbols of the family operator and of its square."""
    dim = f.dim
    free = Symbol.make(dim, [_xi_slash(dim)])
    if f.kind == "free_dirac":
        sd = free
    elif f.kind == "coupled_dirac":
        coeffs = [AlgebraElement.generator(gen(name, dim)) for name in f.gauge]
        sd = free.add(Symbol.make(dim, [_slash_component(dim, coeffs)]))
    elif f.kind == "unitary_flow":
        coeffs = [
            AlgebraElement.rational(f.flow_t * k) for k in f.flow_k
        ]
        sd = free.add(Symbol.make(dim, [_slash_component(dim, coeffs)]))
    elif f.kind == "conformal_dirac":
        half = exp_expand(gen(f.weyl, dim), Fraction(1, 2), f.t_cap)
        e_sym = Symbol.make(dim, [Component.scalar(dim, half)])
        sd = star_product(e_sym, star_product(free, e_sym))
    else:  # pragma: no cover - guarded by __post_init__
        raise FamilyError(f.kind)
    sd2 = star_product(sd, sd)
    return sd, sd2


def inverse_abs_symbol(f: OperatorFamily, floor: int) -> Symbol:
    """Expansion of the inverse absolute value down to ``floor``, from the
    resolvent layers of the squared family, or by its square root and
    inversion past ``MAX_RESOLVENT_POWERS`` leading keys
    (:func:`_inverse_abs`).  The tests hold the two routes equal."""
    return _inverse_abs(dirac_symbol(f)[1], floor)


def sign_symbol(f: OperatorFamily, floor: Optional[int] = None) -> Symbol:
    """Symbol of the sign operator of the family, down to ``floor``.

    Default floor is ``-dim`` so that the residue component is determined.
    The product ``D |D|^{-1}`` takes ``|D|^{-1}`` as
    :func:`inverse_abs_symbol` does.
    """
    if floor is None:
        floor = -f.dim
    sd, sd2 = dirac_symbol(f)
    return star_product(sd, _inverse_abs(sd2, floor - 1), floor)
