"""Residue-type functionals on symbols.

The residue density of a symbol on the ``n``-torus is the exact sphere
integral of its degree-``(-n)`` component; the denominators ``(xi^2)^{-m/2}``
restrict to 1 on the sphere, and monomial moments are Gamma-function products,
so the density is an exact matrix over the free algebra.  The residue proper
is the formal trace class of the matrix-traced density.

Vanishing statements are graded: a density can vanish as a matrix, after the
matrix trace, or only in the cyclic trace class; callers receive all three
levels.  The cut-off integral uses the sharp radial convention (cutoff equal
to the indicator of ``|xi| >= 1``), which fixes the otherwise
convention-dependent constant term; the choice is echoed in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import AlgebraElement, TauClass, gen, tau_class
from .scalars import DomainError, ExactScalar, gamma_half_pair
from .symbols import (
    Component,
    InsufficientFloorError,
    Mat2,
    OperatorFamily,
    Symbol,
    _inverse_abs,
    _slash_component,
    dirac_symbol,
    inverse_abs_symbol,
    star_product,
)


def sphere_integral(beta: tuple[int, ...], n: int) -> ExactScalar:
    """Exact moment ``int_{S^{n-1}} xi^beta dS``.

    Zero when any exponent is odd; otherwise
    ``2 prod_i Gamma((beta_i+1)/2) / Gamma(sum_i (beta_i+1)/2)``.
    """
    if len(beta) != n:
        raise DomainError("multi-index length must match the dimension")
    if any(b < 0 for b in beta):
        raise DomainError("monomial exponents must be >= 0")
    if any(b % 2 for b in beta):
        return ExactScalar.zero()
    num = Fraction(2)
    p = 0
    for b in beta:
        c, half = gamma_half_pair(b + 1)
        num *= c
        p += half
    dc, dp = gamma_half_pair(sum(b + 1 for b in beta))
    if dp > p:
        raise DomainError("unexpected pi excess in sphere moment")
    return ExactScalar.pi_half(p - dp, num / dc)


def sphere_integral_component(c: Component, n: int) -> Mat2:
    """Sphere integral of a homogeneous component; denominators restrict to 1."""
    moments = ((mat, sphere_integral(beta, n)) for (beta, _m), mat in c.terms.items())
    return Mat2.sum(mat.scale(w) for mat, w in moments if not w.is_zero())


@dataclass
class ResidueDensity:
    """Sphere integral of the residue component, with its graded trace data."""

    value: Mat2
    traced: AlgebraElement
    tau_value: TauClass

    @classmethod
    def from_matrix(cls, value: Mat2) -> "ResidueDensity":
        traced = value.trace()
        return cls(value=value, traced=traced, tau_value=tau_class(traced))

    def vanishing_level(self) -> str:
        """Strongest level at which the density vanishes."""
        if self.value.is_zero():
            return "density"
        if self.traced.is_zero():
            return "trace"
        if self.tau_value.is_zero():
            return "tau"
        return "none"

    def t_grade(self, j: int) -> "ResidueDensity":
        """The grade-``j`` slice of the density and of its trace data."""
        return ResidueDensity(
            self.value.map(lambda v: v.t_grade(j)),
            self.traced.t_grade(j),
            self.tau_value.t_grade(j),
        )

    def is_zero(self) -> bool:
        return self.vanishing_level() != "none"


def wres(a: Symbol, n: int) -> ResidueDensity:
    """Residue of a symbol on the ``n``-torus.

    Requires the expansion to be known down to degree ``-n``.
    """
    if a.dim != n:
        raise DomainError("symbol dimension does not match the requested residue")
    if not a.known_down_to(-n):
        raise InsufficientFloorError(
            f"residue needs the degree {-n} component; symbol floor is {a.floor}"
        )
    comp = a.component(-n)
    return ResidueDensity.from_matrix(sphere_integral_component(comp, n))


def cutoff_integral(a: Symbol, n: int) -> tuple[Mat2, bool]:
    """Finite part of the radial-cutoff integral and a log-divergence flag.

    With the sharp cutoff at ``|xi| = 1`` the finite part is
    ``- sum_{d != -n} 1/(d+n) int_{S^{n-1}} a_d`` and the coefficient of
    ``log R`` is the sphere integral of the degree ``-n`` component.
    """
    if a.dim != n:
        raise DomainError("symbol dimension does not match the integral dimension")
    sph = {d: sphere_integral_component(comp, n) for d, comp in a.components.items()}
    finite = Mat2.sum(m.scale_rational(Fraction(-1, d + n)) for d, m in sph.items() if d != -n)
    return finite, -n in sph and not sph[-n].is_zero()


def laurent_residue(a: Symbol, q: int, n: int) -> TauClass:
    """Residue at zero of the zeta-type pairing against a positive order-``q``
    elliptic weight: ``(1/q)`` times the residue of the symbol."""
    if q <= 0:
        raise DomainError("weight order must be a positive integer")
    density = wres(a, n)
    return tau_class(density.traced.scale_rational(Fraction(1, q)))


def variation_residue(f: OperatorFamily, direction: Symbol) -> ResidueDensity:
    """First variation of the eta value at zero along ``direction``.

    Returns the residue density of ``-Wres(direction * |D_f|^{-1})``, with its
    three vanishing levels.  The direction is the symbol of the derivative of
    the family, of order at most one.
    """
    n = f.dim
    if direction.components and direction.order > 1:
        raise DomainError("variation direction must have order <= 1")
    inv = inverse_abs_symbol(f, floor=-n - 1)
    return wres(star_product(direction.neg(), inv, -n), n)


def conformal_variation_direction(f: OperatorFamily) -> Symbol:
    """Symbol of the symmetrized Weyl derivative ``(h D + D h)/2`` at t = 0."""
    dim = f.dim
    h = AlgebraElement.generator(gen(f.weyl, dim))
    hsym = Symbol.make(dim, [Component.scalar(dim, h)])
    free, _ = dirac_symbol(OperatorFamily.free(dim))
    left = star_product(hsym, free)
    right = star_product(free, hsym)
    both = left.add(right)
    return Symbol.make(
        dim,
        (c.scale_rational(Fraction(1, 2)) for c in both.components.values()),
    )


def induced_cs_density(f: OperatorFamily, gauge_cap: Optional[int] = None) -> TauClass:
    """Gauge variation density of the eta value for a coupled family.

    Returns ``Wres(gamma^mu dA_mu |D|^{-1})`` as an explicit trace class,
    linear in the fresh variation generators ``dA1 .. dA<dim>``.
    ``gauge_cap`` runs the same pipeline with the words of gauge degree above
    the cap dropped after every stage.  No stage lowers the gauge degree of a
    word, so that gives the full density truncated at the cap: equal to the
    full density exactly when it has gauge degree at most the cap.  It is the
    same computation, not an independent route.
    """
    if f.kind != "coupled_dirac":
        raise DomainError("the induced gauge density is defined for coupled families")
    dim = f.dim

    def trim(sym: Symbol) -> Symbol:
        if gauge_cap is None:
            return sym
        return sym.filter_base_degree(f.gauge, gauge_cap)

    _sd, sd2 = dirac_symbol(f)
    inv = trim(_inverse_abs(trim(sd2), -dim - 1))
    coeffs = [AlgebraElement.generator(gen(f"dA{m}", dim)) for m in range(1, dim + 1)]
    direction = Symbol.make(dim, [_slash_component(dim, coeffs)])
    prod = star_product(direction, inv, -dim)
    return wres(trim(prod), dim).tau_value
