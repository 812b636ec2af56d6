"""Exact symbol calculus and spectral invariants for Dirac families on
noncommutative tori, with a floating-point truncation harness.

The symbolic half works over an exact coefficient ring (Gaussian rationals
times half-integer powers of pi, nilpotently graded) and a free *-algebra with
formal derivations, so every vanishing theorem is decided exactly.  The
numerical half truncates families to Fourier boxes and measures spectra, heat
traces and spectral flow.
"""

from .scalars import ExactScalar, half_gamma
from .algebra import (
    AlgebraElement,
    Generator,
    TauClass,
    exp_expand,
    gen,
    tau_class,
)
from .clifford import Mat2, clifford_word, gamma
from .symbols import (
    Component,
    OperatorFamily,
    Symbol,
    dirac_symbol,
    inverse_abs_symbol,
    invert_symbol,
    mellin_inverse_power,
    resolvent_symbols,
    sign_symbol,
    sqrt_symbol,
    star_product,
)
from .functionals import (
    ResidueDensity,
    cutoff_integral,
    induced_cs_density,
    laurent_residue,
    sphere_integral,
    variation_residue,
    wres,
)
from .heat import (
    HeatCoefficient,
    anomaly_density,
    gaussian_moment,
    heat_coefficients,
    lambda_contour_integral,
    res_heat_crosscheck,
)
from .numeric import (
    ConcreteElement,
    NumericFamily,
    TruncatedOperator,
    build_operator,
    heat_trace_lattice,
    hermitian_eigenvalues,
    spectral_flow,
    theta_matrix,
)
from .checks import CheckReport, run_check

__version__ = "0.1.0"
