"""Heat-trace coefficients and localized densities of squared Dirac families.

The resolvent layers ``r_k`` of ``sigma(D^2) - lambda``, their leading layer
and the Mellin route to ``|D|^{-1}`` live in :mod:`ncps.symbols`, which the
sign and inverse-absolute-value symbols need.  A layer term is
``xi^beta (xi^2)^s (xi^2 - lambda)^{-m}`` times a matrix, keyed
``(beta, s, m)``, with joint degree ``-2 - k``.  This module closes the
layers into heat coefficients.  All analytic steps are exact:

* the contour integral against ``exp(-lambda)`` reduces to the residue at
  ``lambda = xi^2``, replacing ``(xi^2 - lambda)^{-m}`` by
  ``exp(-xi^2)/(m-1)!`` (orientation pinned so that the flat heat coefficient
  is positive); a term odd in some ``xi_i`` has Gaussian moment zero, so the
  heat coefficients build the last layer in its xi-even part only (see
  :func:`heat_coefficients`), and an odd layer not at all, since the audit
  makes ``|beta|`` as odd as ``k``;
* momentum integrals reduce to Gaussian moments, in polar coordinates a
  sphere moment of ``xi^beta`` times ``Gamma(a + s) / 2``, ``a = (|beta| + n)
  / 2``: the factored ``(xi^2)^s`` only shifts the Gamma argument by ``s``.

The inverse at ``lambda = 0`` is the symbol inverse itself, so the residue /
heat-coefficient identity takes its residue side from symbol inversion and its
heat side from the contour integral of the layers, not both from one set of
layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import AlgebraElement, TauClass, gen, tau_class
from .functionals import sphere_integral, sphere_integral_component
from .scalars import DomainError, ExactScalar, gamma_half_pair
from .symbols import (
    Mat2,
    OperatorFamily,
    ResolventComponent,
    Symbol,
    TermMap,
    _inverse_layers,
    _resolvent_leading,
    dirac_symbol,
    invert_symbol,
    # re-exported: the benchmark times and calls it as heat.mellin_inverse_power
    mellin_inverse_power,
)


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
    ``cross``, and a layer's keys are their own normal form.  The audit
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


# -- localized densities ----------------------------------------------------------


def anomaly_density(f: OperatorFamily) -> dict[int, TauClass]:
    """Conformal variation density of the log-determinant on the 2-torus.

    Returns ``-2 tr(h beta_2)`` per t grade for the squared conformal family;
    the flat grade vanishes and grade one is the local anomaly integrand.
    """
    if f.kind != "conformal_dirac" or f.dim != 2:
        raise DomainError("the anomaly density is defined for conformal families in dimension 2")
    _sd, sd2 = dirac_symbol(f)
    h = AlgebraElement.generator(gen(f.weyl, f.dim))
    coeffs = heat_coefficients(sd2, 2, localizer=h)
    density = coeffs[2].traced.scale_rational(-2)
    return {j: tau_class(density.t_grade(j)) for j in range(f.t_cap + 1)}


@dataclass
class ResHeatPair:
    """Both sides of the residue / heat-coefficient identity, for assertion."""

    lhs_traced: AlgebraElement
    rhs_traced: AlgebraElement

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
    return ResHeatPair(lhs, rhs)
