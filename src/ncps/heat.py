"""Resolvent recursion and heat-trace coefficients for squared Dirac families.

The resolvent parameter enters through central factors ``(xi^2 - lambda)^{-m}``
and counts with homogeneity degree two, so the recursion for the inverse of
``sigma(D^2) - lambda`` is graded by joint homogeneity: the k-th layer has
degree ``-2 - k``.  A layer term is ``xi^beta (xi^2)^s (xi^2 - lambda)^{-m}``
times a matrix, keyed ``(beta, s, m)``: the powers of ``xi^2`` that the
Neumann series of the leading part brings in stay factored through every
product and are never expanded into monomials.  Layers are term maps of
:mod:`ncps.symbols`, computed by the inversion kernel there (the one that
inverts symbols) from the leading layer ``r_0``.  All analytic steps are
exact:

* the contour integral against ``exp(-lambda)`` reduces to the residue at
  ``lambda = xi^2``, replacing ``(xi^2 - lambda)^{-m}`` by
  ``exp(-xi^2)/(m-1)!`` (orientation pinned so that the flat heat coefficient
  is positive); a term odd in some ``xi_i`` has Gaussian moment zero, so the
  heat coefficients build the last layer in its xi-even part only (see
  :func:`heat_coefficients`), and an odd layer not at all, since the audit
  makes ``|beta|`` as odd as ``k``;
* momentum integrals reduce to Gaussian moments, in polar coordinates a
  sphere moment of ``xi^beta`` times ``Gamma(a + s) / 2``, ``a = (|beta| + n)
  / 2``: the factored ``(xi^2)^s`` only shifts the Gamma argument by ``s``;
* the inverse square root comes from the Mellin representation, where each
  ``(xi^2 + lambda)^{-m}`` integrates to a Beta value, a rational multiple of
  ``(xi^2)^{1/2 - m}``.

This provides a derivation of the inverse-absolute-value expansion that is
independent of the square-root/inversion route in :mod:`ncps.symbols`; the two
must agree component by component.  The inverse at ``lambda = 0`` is the symbol
inverse itself, so the residue / heat-coefficient identity takes its residue
side from symbol inversion and its heat side from the contour integral of the
layers, not both from one set of layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import AlgebraElement, TauClass, gen, nilpotent_powers, tau_class
from .functionals import sphere_integral, sphere_integral_component
from .scalars import DomainError, ExactScalar, gamma_half_pair
from .symbols import (
    Component,
    EllipticityShapeError,
    Mat2,
    OperatorFamily,
    Symbol,
    TermMap,
    _central_leading,
    _inverse_layers,
    dirac_symbol,
    invert_symbol,
)


ResKey = tuple[tuple[int, ...], int, int]  # (beta, xi^2 power s >= 0, resolvent power m >= 1)


class ResolventComponent(TermMap):
    """Layer ``r_k``: term map (beta, s, m) -> matrix, with factors
    ``xi^beta (xi^2)^s (xi^2 - lambda)^{-m}`` and joint degree
    ``|beta| + 2s - 2m = -2 - k``.  The ``(xi^2)^s`` factor stays factored:
    products add ``s``, and :func:`momentum_integral` integrates it in closed
    form as a shift of the radial Gamma argument."""

    __slots__ = ()

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

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (beta, s, m) in sorted(self.terms, key=lambda k: (k[2], k[1], k[0])):
            mat = self.terms[(beta, s, m)]
            factors = []
            for i, b in enumerate(beta, start=1):
                if b:
                    factors.append(f"xi{i}" + (f"^{b}" if b > 1 else ""))
            if s:
                factors.append("(xi^2)" + (f"^{s}" if s > 1 else ""))
            factors.append(f"(xi^2-lam)^{{-{m}}}")
            parts.append("*".join(factors) + f" . {mat.render()}")
        return "  +  ".join(parts)

    __repr__ = render


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
    symbol: the inverse-layer recursion of :mod:`ncps.symbols` from ``r_0``."""
    return _inverse_layers(sd2, _resolvent_leading(sd2, count), count)


# -- contour integral and Gaussian moments ------------------------------------------


def _xi_odd(beta: tuple[int, ...]) -> bool:
    """Whether ``xi^beta`` is odd in some ``xi_i``: its Gaussian moment is zero."""
    return any(b % 2 for b in beta)


def lambda_contour_integral(rc: ResolventComponent) -> TermMap:
    """Close the resolvent parameter against ``exp(-lambda)``.

    Each factor ``(xi^2 - lambda)^{-m}`` reduces to the residue at
    ``lambda = xi^2``, giving ``exp(-xi^2) / (m-1)!``; the orientation is
    pinned so the flat case comes out positive.  The result is the
    momentum-space integrand ``sum M_{beta,s} xi^beta (xi^2)^s exp(-xi^2)``,
    a term map keyed ``(beta, s)`` with no single degree.  A term odd in some
    ``xi_i`` has Gaussian moment zero, so it is dropped before it is scaled.
    """
    out = TermMap(rc.dim, None)
    for (beta, s, m), mat in rc.terms.items():
        if _xi_odd(beta):
            continue
        w = Fraction(1, math.factorial(m - 1))
        out.add_term(beta, s, mat if w == 1 else mat.scale_rational(w))
    return out


def gaussian_xi2_moment(beta: tuple[int, ...], s: int) -> ExactScalar:
    """Exact moment ``int_{R^n} xi^beta (xi^2)^s exp(-xi^2) dxi``.

    In polar coordinates it is the radial integral
    ``int_0^inf r^{2a + 2s - 1} exp(-r^2) dr = Gamma(a + s) / 2``, with
    ``a = (|beta| + n) / 2``, times the sphere moment of ``xi^beta``; zero
    for odd exponents.
    """
    c, p = gamma_half_pair(sum(beta) + len(beta) + 2 * s)
    return sphere_integral(beta, len(beta)) * ExactScalar.pi_half(p, c / 2)


def gaussian_moment(beta: tuple[int, ...]) -> ExactScalar:
    """Exact moment ``int_{R^n} xi^beta exp(-xi^2) dxi``; zero for odd exponents."""
    return gaussian_xi2_moment(beta, 0)


def momentum_integral(g: TermMap) -> Mat2:
    moments = ((mat, gaussian_xi2_moment(beta, s)) for (beta, s), mat in g.terms.items())
    return Mat2.sum(mat.scale(w) for mat, w in moments if not w.is_zero())


@dataclass
class HeatCoefficient:
    """One coefficient of the short-time heat expansion, with trace data.

    ``matrix`` is the raw momentum integral; ``traced`` applies the optional
    localizer from the left and takes the matrix trace; ``tau`` is its trace
    class.
    """

    index: int
    matrix: Mat2
    traced: AlgebraElement
    tau: TauClass


def heat_coefficients(
    sd2: Symbol, count: int, localizer: Optional[AlgebraElement] = None
) -> list[HeatCoefficient]:
    """Exact heat coefficients ``beta_0 .. beta_count`` of an order-2 family.

    The recursion needs ``r_0 .. r_{count-1}`` in full, but of ``r_count``
    only what :func:`lambda_contour_integral` keeps: the terms even in every
    ``xi_i``.  Its ``cross`` merges only the Moyal pairs whose joined key is
    xi-even, and builds no ``delta`` rung that feeds none of them.  This is
    exact: a term's parity class depends on its key alone, ``r_0`` has
    ``beta = 0``, so ``r_count = -r_0 . cross`` keeps the classes of
    ``cross``, and ``reduced`` leaves a layer's keys as they are.  The audit
    ``|beta| + 2s - 2m = -2 - k`` makes every key of an odd layer odd in some
    ``xi_i``, so an odd ``r_count`` costs no rung and no product at all.
    """
    layers = _inverse_layers(
        sd2, _resolvent_leading(sd2, count), count, lambda key: not _xi_odd(key[0])
    )
    out = []
    for i, rc in enumerate(layers):
        mat = momentum_integral(lambda_contour_integral(rc))
        loc = mat if localizer is None else mat.lmul(localizer)
        traced = loc.trace()
        out.append(HeatCoefficient(i, mat, traced, tau_class(traced)))
    return out


# -- inverse powers through the Mellin representation --------------------------------


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
    normal form.  Independent of the square-root/inversion route, against
    which it is tested.
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


# -- localized densities ----------------------------------------------------------


def anomaly_density(f: OperatorFamily, t_order: Optional[int] = None) -> dict[int, TauClass]:
    """Conformal variation density of the log-determinant on the 2-torus.

    Returns ``-2 tr(h beta_2)`` per t grade for the squared conformal family;
    the flat grade vanishes and grade one is the local anomaly integrand.
    """
    if f.kind != "conformal_dirac" or f.dim != 2:
        raise DomainError("the anomaly density is defined for conformal families in dimension 2")
    order = f.t_cap if t_order is None else t_order
    _sd, sd2 = dirac_symbol(f)
    h = AlgebraElement.generator(gen(f.weyl, f.dim))
    coeffs = heat_coefficients(sd2, 2, localizer=h)
    density = coeffs[2].traced.scale_rational(-2)
    return {j: tau_class(density.t_grade(j)) for j in range(order + 1)}


@dataclass
class ResHeatPair:
    """Both sides of the residue / heat-coefficient identity, for assertion."""

    lhs_traced: AlgebraElement
    rhs_traced: AlgebraElement
    lhs_tau: TauClass
    rhs_tau: TauClass

    def agree(self) -> bool:
        return (self.lhs_traced - self.rhs_traced).is_zero()


def res_heat_crosscheck(k: int, f: OperatorFamily) -> ResHeatPair:
    """Residue of the k-th inverse power of the squared family against the
    matching heat coefficient: ``res(Delta^{-k}) = (2/(k-1)!) beta_{n-2k}``.
    """
    n = f.dim
    if k < 1 or n - 2 * k < 0:
        raise DomainError("need k >= 1 and n - 2k >= 0 for the order-2 crosscheck")
    _sd, sd2 = dirac_symbol(f)
    # the two sides come from independent routes: symbol inversion on the
    # left, the resolvent layers and their contour integral on the right
    inv = invert_symbol(sd2, floor=-n)
    lhs_mat = sphere_integral_component(inv.component(-n), n)
    lhs = lhs_mat.trace()
    beta = heat_coefficients(sd2, n - 2 * k)[n - 2 * k]
    rhs = beta.traced.scale_rational(Fraction(2, math.factorial(k - 1)))
    return ResHeatPair(lhs, rhs, tau_class(lhs), tau_class(rhs))
