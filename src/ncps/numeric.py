"""Floating-point harness: truncated operators on the concrete twisted torus.

Operators act on Fourier modes ``|k|_inf <= L`` tensored with a 2-spinor slot.
Multiplication by a basic unitary of lattice vector ``m`` is the twisted shift
``k -> k + m`` with phase ``exp(pi i Theta(m, k))``, a slice of the mode box
reshaped to ``(2L + 1,) * dim`` per Fourier mode (:func:`_shifts`).  Spectra
and flows are taken over the whole truncated box.  Each assembled operator
records ``interior_cutoff``, the radius of the interior modes on which the
twisted shifts are exact isometries, but no spectrum is restricted to it; only
:func:`gauge_conjugation_deviation` compares on interior modes.

Every family member is assembled blockwise as ``sum_mu B_mu (x) gamma_mu``
from ``N x N`` mode blocks, so no ``2N x 2N`` product is formed: the
conformal member ``(e (x) 1) D (e (x) 1)`` with ``e = exp(t h / 2)`` has
blocks ``e diag(k_mu) e``, three ``N x N`` matrix products; at ``t = 0``
they are ``diag(k_mu)``, with no exponential.  ``e`` is a scaled Taylor series
of slice adds, or one ``eigh`` where that costs fewer ``N x N`` products (many
modes or a large ``|t| sum |h_m|``).  A localized heat trace
``Tr(a exp(-s D^2))`` of an operator whose diagonal spinor blocks are both
exactly zero (every 2-d member, as gamma_1 and gamma_2 are off-diagonal) is
read off one ``N x N`` SVD of its off-diagonal block ``X = U S V^*``: the
weights ``u_j^* a_00 u_j + v_j^* a_11 v_j`` come from BLAS products with the
diagonal spinor blocks of ``a``.  Any other operator is diagonalized whole,
and eigenvector ``v_j`` is weighed by ``v_j^* a v_j``, read off one BLAS
product ``a V`` and a row-wise dot.  The commutator-shift family is diagonal
over modes, and its spectra along a flow grid are read off each Hermitian 2x2
mode block ``[[a, b], [conj(b), d]]`` in closed form,
``(a + d) / 2 +- hypot((a - d) / 2, |b|)``, one grid point at a time.

Also hosts the numeric evaluator for formal trace classes: words in derived
generators are mapped to twisted convolutions of concrete Fourier data and the
trace reads off the zero mode.  This closes the loop between the exact
symbolic densities and finite-dimensional spectral data.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import clifford
from .algebra import TauClass
from .scalars import DomainError


class GridTooCoarseError(DomainError):
    """Eigenvalue movement between samples is too large to count crossings."""


# Sizes refused before anything is allocated, each with the cost that sets it
# (fresh interpreter, one BLAS thread, 2-core VM).  Assembly and eigensolve of a
# 2(2L+1)^dim member: 1,458 (3-d, L = 4) took 1.0 s and 105 MB, 2,662 (L = 5)
# 5.8 s and 276 MB, 2,738 (2-d, L = 18) 5.5 s and 290 MB
MAX_OPERATOR_SIZE = 3000
# grid points x eigenvalues of a flow, linear in both: 10 million (3-d, cutoff
# 6, 2,275 points) took 0.36 s and 117 MB; a flow grid holds its points too
MAX_FLOW_VALUES = 10_000_000
# the flat lattice heat trace holds a few floats per point of [-L, L]: 0.02 s
# and 75 MB at the bound
MAX_HEAT_CUTOFF = 1_000_000


def _check_size(what: str, size: int, bound: int, why: str) -> None:
    if size > bound:
        raise DomainError(f"{what} must be <= {bound} ({why}), got {size}")


def theta_matrix(data: Sequence[Sequence[float]]) -> np.ndarray:
    th = np.asarray(data, dtype=float)
    if th.ndim != 2 or th.shape[0] != th.shape[1]:
        raise DomainError("deformation matrix must be square")
    if not np.allclose(th, -th.T, atol=1e-14):
        raise DomainError("deformation matrix must be skew-symmetric")
    return th


@dataclass
class ConcreteElement:
    """Finite Fourier sum ``sum_k a_k U_k`` with complex coefficients."""

    dim: int
    modes: dict[tuple[int, ...], complex]

    def __post_init__(self):
        modes = {tuple(int(x) for x in k): complex(v) for k, v in self.modes.items()}
        for v in modes.values():
            if not cmath.isfinite(v):
                raise DomainError(f"Fourier coefficients must be finite, got {v}")
        self.modes = {k: v for k, v in modes.items() if v}
        for k in self.modes:
            if len(k) != self.dim:
                raise DomainError("mode vector length must match the dimension")

    @classmethod
    def unit(cls, dim: int) -> "ConcreteElement":
        return cls(dim, {(0,) * dim: 1.0})

    @classmethod
    def cosine(cls, dim: int, k: Sequence[int], amplitude: float = 1.0) -> "ConcreteElement":
        """Self-adjoint element ``amplitude (U_k + U_k^*) / 2``."""
        k = tuple(int(x) for x in k)
        mk = tuple(-x for x in k)
        return cls(dim, {k: amplitude / 2.0, mk: amplitude / 2.0})

    def support_radius(self) -> int:
        return max((max(abs(x) for x in k) for k in self.modes), default=0)

    def is_selfadjoint(self, tol: float = 1e-12) -> bool:
        # U_k^* = U_{-k} exactly, so the condition is a_{-k} = conj(a_k)
        for k, v in self.modes.items():
            mk = tuple(-x for x in k)
            if abs(self.modes.get(mk, 0.0) - np.conj(v)) > tol:
                return False
        return True

    def star(self) -> "ConcreteElement":
        return ConcreteElement(
            self.dim,
            {tuple(-x for x in k): np.conj(v) for k, v in self.modes.items()},
        )

    def delta(self, mu: int) -> "ConcreteElement":
        return ConcreteElement(
            self.dim, {k: v * k[mu - 1] for k, v in self.modes.items()}
        )

    def twisted_mul(self, other: "ConcreteElement", theta: np.ndarray) -> "ConcreteElement":
        out: dict[tuple[int, ...], complex] = {}
        for p, a in self.modes.items():
            pv = np.asarray(p, dtype=float)
            for q, b in other.modes.items():
                phase = np.exp(1j * math.pi * float(pv @ theta @ np.asarray(q, dtype=float)))
                k = tuple(x + y for x, y in zip(p, q))
                out[k] = out.get(k, 0.0) + a * b * phase
        return ConcreteElement(self.dim, out)

    def tau(self) -> complex:
        return self.modes.get((0,) * self.dim, 0.0)


# -- mode boxes and operator assembly ----------------------------------------------


def mode_box(L: int, dim: int) -> list[tuple[int, ...]]:
    """Lattice vectors with ``|k|_inf <= L``, in lexicographic order."""
    return list(itertools.product(range(-L, L + 1), repeat=dim))


@lru_cache(maxsize=None)
def gamma_num(dim: int, mu: int) -> np.ndarray:
    """Read-only complex array of :func:`ncps.clifford.gamma`."""
    g = clifford.gamma(dim, mu)
    out = np.array([[v.unit_coefficient().to_complex() for v in row] for row in g.e])
    out.flags.writeable = False
    return out


def _shifts(a: ConcreteElement, L: int, theta: Optional[np.ndarray]):
    """Per Fourier mode ``m`` of ``a``: the source and target slices ``k`` and
    ``k + m`` of the mode box reshaped to ``(2L + 1,) * dim``, and the weights
    ``a_m exp(pi i (m Theta).k)`` over the source."""
    side, js = 2 * L + 1, np.arange(-L, L + 1)
    th = np.zeros((a.dim, a.dim)) if theta is None else theta
    for m, coeff in a.modes.items():
        src = tuple(slice(max(0, -c), side - max(0, c)) for c in m)
        tgt = tuple(slice(max(0, c), side - max(0, -c)) for c in m)
        arg = sum(np.ix_(*(w * js[ax] for w, ax in zip(np.asarray(m) @ th, src))))
        yield src, tgt, coeff * np.exp(1j * math.pi * arg)


def multiplication_matrix(
    a: ConcreteElement, L: int, theta: Optional[np.ndarray] = None
) -> np.ndarray:
    """Matrix of left multiplication by ``a`` on the mode box (no spinor slot)."""
    flat = np.arange((2 * L + 1) ** a.dim).reshape((2 * L + 1,) * a.dim)
    out = np.zeros((flat.size, flat.size), dtype=complex)
    for src, tgt, w in _shifts(a, L, theta):
        out[flat[tgt], flat[src]] += w  # the shift is injective: no entry repeats
    return out


# an eigh plus the rebuild of exp from it cost about 12 N x N products, and a
# slice add about 40 / N of one (one BLAS thread, N = 343 to 1,331)
_EIGH_PRODUCTS, _SLICE_ADD_N = 12.0, 40.0


def expm_multiplication(
    a: ConcreteElement, L: int, theta: Optional[np.ndarray], s: float
) -> np.ndarray:
    """``exp(s M(a))`` for self-adjoint ``a``.  The shifts are partial
    isometries, so ``rho = |s| sum_{m != 0} |a_m|`` bounds the non-zero modes;
    halved ``k`` times to ``rho <= 1/2``, their Taylor series is summed by
    slice adds until the tail bound ``2 rho^(j+1) / (j+1)!`` is below 1e-17,
    scaled by ``exp(s a_0 / 2^k)``, squared ``k`` times up to the first
    overflow, and symmetrized.  Where that costs more ``N x N`` products than
    ``_EIGH_PRODUCTS``, one ``eigh`` of ``s M(a)`` is taken instead."""
    side, zero = 2 * L + 1, (0,) * a.dim
    n, box = side**a.dim, (side,) * a.dim + (side**a.dim,)
    rest = ConcreteElement(a.dim, {m: v for m, v in a.modes.items() if m != zero})
    rho, k = abs(s) * sum(map(abs, rest.modes.values())), 0
    if not math.isfinite(rho):
        raise DomainError("exp(s M(a)) overflows: |s| sum |a_m| is not finite")
    while rho > 0.5:
        rho, k = rho / 2.0, k + 1
    j, tail = 0, 2.0 * rho
    while tail > 1e-17:
        j, tail = j + 1, tail * rho / (j + 2)
    if j * len(rest.modes) * _SLICE_ADD_N / n + k > _EIGH_PRODUCTS:
        vals, vecs = np.linalg.eigh(s * multiplication_matrix(a, L, theta))
        e = (vecs * np.exp(vals)) @ vecs.conj().T
    else:
        h, shifts = s / 2**k, list(_shifts(rest, L, theta))
        e, term = np.eye(n, dtype=complex), np.eye(n, dtype=complex).reshape(box)
        for i in range(1, j + 1):  # term <- (h / i) M(rest) term
            term, x = np.zeros(box, dtype=complex), term
            for src, tgt, w in shifts:
                term[tgt] += (h / i * w)[..., None] * x[src]
            e += term.reshape(n, n)
        e *= np.exp(h * a.modes.get(zero, 0.0).real)
        for _ in range(k):
            if not np.isfinite(e).all():
                break
            e = e @ e
        e *= 0.5
        e = e + e.conj().T
    if not np.isfinite(e).all():
        raise DomainError(f"exp(s h) overflows at s = {s}")
    return e


def _box_coordinates(L: int, dim: int) -> np.ndarray:
    """``(dim, N)`` array whose row ``mu - 1`` is ``k_mu`` over the mode box."""
    return np.asarray(mode_box(L, dim), dtype=float).T


def _spinor_sum(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Dense ``sum_mu blocks[mu - 1] (x) gamma_mu``, spinor index fastest."""
    n = blocks[0].shape[0]
    out = np.zeros((n, 2, n, 2), dtype=complex)
    for mu, b in enumerate(blocks, start=1):
        g = gamma_num(len(blocks), mu)
        for s, r in zip(*np.nonzero(g)):
            out[:, s, :, r] += g[s, r] * b
    return out.reshape(2 * n, 2 * n)


@dataclass
class TruncatedOperator:
    """Dense Hermitian matrix on modes ``|k|_inf <= L`` times the spinor slot."""

    cutoff: int
    dim: int
    matrix: np.ndarray
    hermiticity_defect: float = 0.0
    interior_cutoff: Optional[int] = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass
class NumericFamily:
    """Concrete data for building truncated operators.

    kinds mirror the symbolic families; ``weyl`` (a self-adjoint concrete
    element) drives the conformal kind, ``flow_k`` the unitary flow.
    """

    kind: str
    dim: int
    theta: Optional[np.ndarray] = None
    weyl: Optional[ConcreteElement] = None
    gauge: Optional[list[ConcreteElement]] = None
    flow_k: tuple[int, ...] = ()

    def support_radius(self) -> int:
        r = 0
        if self.weyl is not None:
            r = max(r, self.weyl.support_radius())
        for g in self.gauge or []:
            r = max(r, g.support_radius())
        return r


def _dirac_blocks(f: NumericFamily, L: int, t: float) -> list[np.ndarray]:
    """The ``N x N`` blocks ``B_mu`` of ``D_t = sum_mu B_mu (x) gamma_mu``."""
    dim = f.dim
    ks = _box_coordinates(L, dim)
    if f.kind == "free_dirac":
        return [np.diag(k) for k in ks]
    if f.kind == "unitary_flow":
        if len(f.flow_k) != dim:
            raise DomainError("unitary flow needs a lattice vector of length dim")
        return [np.diag(k + t * c) for k, c in zip(ks, f.flow_k)]
    if f.kind == "conformal_dirac":
        if f.weyl is None or not f.weyl.is_selfadjoint():
            raise DomainError("conformal family needs a self-adjoint Weyl element")
        if t == 0.0:
            return [np.diag(k) for k in ks]
        e = expm_multiplication(f.weyl, L, f.theta, t / 2.0)
        # (e (x) 1) D (e (x) 1) = sum_mu (e diag(k_mu) e) (x) gamma_mu
        return [(e * k) @ e for k in ks]
    if f.kind == "coupled_dirac":
        if not f.gauge or len(f.gauge) != dim:
            raise DomainError("coupled family needs one gauge element per direction")
        if not all(a.is_selfadjoint() for a in f.gauge):
            raise DomainError("gauge elements must be self-adjoint")
        return [np.diag(k) + multiplication_matrix(a, L, f.theta) for k, a in zip(ks, f.gauge)]
    raise DomainError(f"unknown family kind {f.kind!r}")


def build_operator(f: NumericFamily, L: int, t: float = 0.0) -> TruncatedOperator:
    """Assemble the truncated family member at a finite parameter ``t``."""
    clifford.check_dim(f.dim)
    if not math.isfinite(t):
        raise DomainError(f"family parameter t must be finite, got {t}")
    if L < 0:
        raise DomainError(f"cutoff must be >= 0 (mode box |k|_inf <= cutoff), got {L}")
    _check_size("the matrix size 2(2 cutoff + 1)^dim", 2 * (2 * L + 1) ** f.dim,
                MAX_OPERATOR_SIZE, "a dense eigensolve grows with its cube: 5.8 s at 2662")
    if f.support_radius() > L:
        raise DomainError("mode support exceeds the truncation box")
    with np.errstate(over="ignore", invalid="ignore"):  # overflows are refused
        mat = _spinor_sum(_dirac_blocks(f, L, t))
        defect = _defect_and_scale(mat)[0]
    if not math.isfinite(defect):
        raise DomainError(f"the member at t = {t} overflows")
    mat += mat.conj().T  # symmetrize in place: _spinor_sum returns a fresh array
    mat /= 2.0
    return TruncatedOperator(
        cutoff=L,
        dim=f.dim,
        matrix=mat,
        hermiticity_defect=defect,
        interior_cutoff=L - f.support_radius(),
    )


def _defect_and_scale(mat: np.ndarray) -> tuple[float, float]:
    """``max |mat - mat^*|`` and ``max |mat|`` entrywise, taken by row blocks
    so that no full-size difference, adjoint or modulus is formed; a
    non-finite entry makes the defect NaN or infinite."""
    defect = scale = 0.0
    for i in range(0, len(mat), 64):
        rows = mat[i : i + 64]
        defect = float(np.maximum(defect, np.max(np.abs(rows - mat[:, i : i + 64].conj().T))))
        scale = max(scale, float(np.max(np.abs(rows))))
    return defect, scale


def _check_hermitian(mat: np.ndarray, what: str) -> None:
    """Refuse a ``mat`` whose Hermiticity defect exceeds ``1e-10`` of its
    largest entry (of 1, if that is smaller); a NaN entry is refused too."""
    defect, scale = _defect_and_scale(mat)
    if not defect <= 1e-10 * max(1.0, scale):
        raise DomainError(f"{what} is not Hermitian: max |a - a^*| is {defect:.3g}")


def hermitian_eigenvalues(T: TruncatedOperator | np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense Hermitian matrix, ascending."""
    mat = T.matrix if isinstance(T, TruncatedOperator) else np.asarray(T)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError("matrix must be square")
    _check_hermitian(mat, "matrix")
    return np.linalg.eigvalsh(mat)


# -- heat traces ---------------------------------------------------------------------


def _check_heat_parameter(t: float | np.ndarray) -> None:
    t = np.asarray(t)
    if not np.all((t > 0) & np.isfinite(t)):
        raise DomainError("heat parameter must be positive and finite")


def heat_trace_lattice(t: float, L: int, dim: int, weight: complex = 1.0) -> float:
    """Localized free heat trace ``weight * sum_{|k|<=L} 2 exp(-t |k|^2)``.

    The weight is the zero mode of the localizer, which is all the diagonal
    of a multiplication operator contributes for the flat family.  The trace
    is returned as a float, so a weight with a nonzero imaginary part (a
    localizer that is not self-adjoint) is refused, as is a non-finite one.
    """
    _check_heat_parameter(t)
    if not cmath.isfinite(weight):
        raise DomainError(f"heat trace weight must be finite, got {weight}")
    if weight.imag:
        raise DomainError(f"heat trace weight must be real, got {weight}")
    clifford.check_dim(dim)
    if L < 0:
        raise DomainError(f"cutoff must be >= 0 (mode box |k|_inf <= cutoff), got {L}")
    _check_size("cutoff", L, MAX_HEAT_CUTOFF, "a few floats per point of [-cutoff, cutoff]")
    js = np.arange(-L, L + 1)
    theta1 = np.exp(-t * js**2).sum()
    return float(2.0 * weight.real * theta1**dim)


def heat_trace_operator(
    T: TruncatedOperator, t: float | np.ndarray, localizer: Optional[np.ndarray] = None
) -> float | np.ndarray:
    """``Tr(a exp(-t D^2))`` for a truncated operator, ``t > 0``.

    ``t`` is one heat parameter, which gives a float, or a 1-d array of them,
    which gives an array of traces from the same single decomposition.

    When both diagonal spinor blocks of ``D`` are exactly zero (every 2-d
    member: gamma_1 and gamma_2 are off-diagonal), ``D = [[0, X], [X^*, 0]]``
    in the spinor slot and ``D^2 = diag(X X^*, X^* X)``.  One SVD
    ``X = U S V^*`` then gives the trace as
    ``sum_j exp(-t s_j^2) (u_j^* a_00 u_j + v_j^* a_11 v_j)``, where ``a_00``
    and ``a_11`` are the diagonal spinor blocks of the localizer ``a``; its
    off-diagonal blocks drop out of the trace.  Any other operator is
    diagonalized whole, and eigenvector ``v_j`` is weighed by ``v_j^* a v_j``.
    Either way the weights are read off BLAS products and a row-wise dot.
    The trace is real only for a Hermitian localizer, so any other is refused.
    """
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise DomainError(f"heat parameters must be a number or a 1-d array, got shape {ts.shape}")
    _check_heat_parameter(ts)
    mat = T.matrix
    loc = None
    if localizer is not None:
        loc = np.asarray(localizer)
        if loc.shape != mat.shape:
            raise DomainError(
                f"localizer shape {loc.shape} does not match operator shape {mat.shape}"
            )
        _check_hermitian(loc, "localizer")
    if not mat[0::2, 0::2].any() and not mat[1::2, 1::2].any():
        x = mat[0::2, 1::2]
        if loc is None:
            w, sq = 2.0, np.linalg.svd(x, compute_uv=False) ** 2
        else:
            u, sv, vh = np.linalg.svd(x)
            w = np.einsum("ij,ij->j", u.conj(), loc[0::2, 0::2] @ u).real
            w += np.einsum("jk,jk->j", vh @ loc[1::2, 1::2], vh.conj()).real
            sq = sv**2
    elif loc is None:
        w, sq = 1.0, np.linalg.eigvalsh(mat) ** 2
    else:
        vals, vecs = np.linalg.eigh(mat)
        w = np.einsum("ij,ij->j", vecs.conj(), loc @ vecs).real
        sq = vals**2
    traces = (w * np.exp(-np.multiply.outer(ts, sq))).sum(axis=-1)
    return float(traces) if ts.ndim == 0 else traces


# -- spectral flow -------------------------------------------------------------------


# Eigenvalues with |lambda| <= KERNEL_TOL count as positive (the kernel
# projection): the commutator-shift family has a kernel at both ends, and its
# other endpoint eigenvalues are +-|n| >= 1, so any tolerance in (0, 1) gives
# the same flow; this one lies far above the round-off of its spectra.
KERNEL_TOL = 1e-9


def spectral_flow(spectra: Sequence[np.ndarray]) -> int:
    """Net signed count of eigenvalue crossings through zero along the grid,
    matched by sorted index, eigenvalues within :data:`KERNEL_TOL` of zero
    counting as positive.  A step whose movement could hide a double crossing
    raises :class:`GridTooCoarseError`."""
    if len(spectra) < 2:
        raise DomainError("need at least two grid points")
    arrs = [np.asarray(s, dtype=float) for s in spectra]
    n = len(arrs[0])
    if any(len(a) != n for a in arrs):
        raise DomainError("all spectra must have the same size")

    def prepared(a: np.ndarray) -> tuple[np.ndarray, bool]:
        """``a`` ascending, with values within the tolerance moved onto it."""
        if not np.all(a[:-1] <= a[1:]):
            a = np.sort(a)
        near = np.abs(a) <= KERNEL_TOL
        if near.any():
            return np.where(near, KERNEL_TOL, a), True
        return a, False

    flow = 0
    b, b_shifted = prepared(arrs[0])
    for j in range(len(arrs) - 1):
        a, a_shifted = b, b_shifted
        b, b_shifted = prepared(arrs[j + 1])
        move = float(np.max(np.abs(b - a))) if n else 0.0
        up = int(np.sum((a < 0) & (b > 0)))
        down = int(np.sum((a > 0) & (b < 0)))
        crossing = up + down > 0 or a_shifted or b_shifted
        if not crossing:
            # without a recorded crossing, movement must stay below half the
            # zero window, else a crossing pair could have come and gone unseen
            window = min(_zero_window(a), _zero_window(b))
            if move > 0.5 * window * (1.0 + 1e-6):
                raise GridTooCoarseError(
                    f"step {j}: movement {move:.3g} exceeds half the zero window "
                    f"{window:.3g}; refine the grid"
                )
        flow += up - down
    return flow


def _zero_window(vals: np.ndarray) -> float:
    pos = vals[vals > 0]
    neg = vals[vals < 0]
    if pos.size == 0 or neg.size == 0:
        return math.inf
    return float(pos.min() - neg.max())


def flow_grid(n: int) -> np.ndarray:
    """``n >= 2`` equally spaced parameters on the unit interval."""
    if n < 2:
        raise DomainError(f"grid must be >= 2 points on [0, 1], got {n}")
    _check_size("grid", n, MAX_FLOW_VALUES, "a flow holds grid points x eigenvalues floats")
    return np.linspace(0.0, 1.0, n)


def unitary_flow_spectra(
    k: Sequence[int],
    grid: Sequence[float],
    L: int,
    dim: int,
) -> list[np.ndarray]:
    """Sorted spectra of the commutator-shift family along the grid.

    The shift is a constant matrix, so the member at ``t`` is block-diagonal
    over modes: mode ``n`` carries the Hermitian 2x2 block
    ``sum_mu (n_mu + t k_mu) gamma_mu = [[a, b], [conj(b), d]]``, whose
    eigenvalues are ``(a + d) / 2 +- hypot((a - d) / 2, |b|)``.  ``a``, ``b``
    and ``d`` are read off :func:`gamma_num`, and the grid is taken one point
    at a time, so no eigensolver runs and no array spans the grid.
    """
    # cutoff 0 keeps only the zero mode, whose one crossing reads as flow -1
    if L < 1:
        raise DomainError(f"cutoff must be >= 1 (mode box |k|_inf <= cutoff), got {L}")
    if len(k) != dim:
        raise DomainError(f"lattice vector u has {len(k)} entries but dim is {dim}")
    # the endpoint kernel mode n = -u must lie in the box, else one crossing
    # has no partner and the flow reads nonzero
    if max(map(abs, k), default=0) > L:
        raise DomainError(f"cutoff must be >= max|u_i| = {max(map(abs, k))}, got {L}")
    _check_size("grid points x eigenvalues", len(grid) * 2 * (2 * L + 1) ** dim, MAX_FLOW_VALUES,
                "the cost is linear in it: 0.36 s and 117 MB at the bound")
    box = np.asarray(mode_box(L, dim), dtype=float)
    kvec = np.asarray(k, dtype=float)
    gammas = np.stack([gamma_num(dim, mu) for mu in range(1, dim + 1)])
    ga, gb, gd = gammas[:, 0, 0].real, gammas[:, 0, 1], gammas[:, 1, 1].real
    out = []
    for t in grid:
        shifted = box + t * kvec  # (N, dim)
        a, b, d = shifted @ ga, shifted @ gb, shifted @ gd
        mid = (a + d) / 2.0
        rad = np.hypot((a - d) / 2.0, np.abs(b))
        out.append(np.sort(np.concatenate([mid - rad, mid + rad])))
    return out


def gauge_conjugation_deviation(
    m: Sequence[int], L: int, dim: int, theta: Optional[np.ndarray] = None
) -> float:
    """Spectral deviation of the conjugated truncation from exact covariance.

    Conjugating the truncated free operator by the twisted shift of ``m`` and
    compressing to interior modes must reproduce the free eigenvalues on the
    shifted interior box; returns the largest mismatch.
    """
    m = tuple(int(x) for x in m)
    r = max(abs(x) for x in m)
    if L - r < 0:
        raise DomainError("cutoff too small for the requested shift")
    u = multiplication_matrix(ConcreteElement(dim, {m: 1.0}), L, theta)
    conj = _spinor_sum([(u.conj().T * k) @ u for k in _box_coordinates(L, dim)])
    box = mode_box(L, dim)
    keep = [i for i, k in enumerate(box) if max(abs(x) for x in k) <= L - r]
    idx = np.array(
        [2 * i + s for i in keep for s in (0, 1)], dtype=int
    )
    inner = conj[np.ix_(idx, idx)]
    got = np.linalg.eigvalsh(inner)
    expect = np.sort(
        np.concatenate(
            [
                [vv, -vv]
                for k in (np.asarray(box)[keep] + np.asarray(m))
                for vv in [float(np.linalg.norm(k))]
            ]
        )
    )
    return float(np.max(np.abs(got - expect)))


# -- numeric evaluation of formal trace classes ---------------------------------------


def evaluate_tau(
    cls: TauClass,
    assign: dict[str, ConcreteElement],
    theta: np.ndarray,
    t: float = 1.0,
) -> complex:
    """Numeric value of a trace class on the concrete twisted torus: each
    word of the representative, with its generators bound to concrete data,
    becomes a twisted convolution whose zero mode is its trace.

    Cyclic rotation of words is a symmetry of the concrete trace, so any
    representative gives the same number.
    """
    total = 0j
    for word, coeff in cls.representative.terms():
        val: Optional[ConcreteElement] = None
        for g in word:
            base = assign.get(g.base)
            if base is None:
                raise DomainError(f"no concrete data bound to generator {g.base!r}")
            # the letter d^alpha(g*) is delta^alpha of g*, as the algebra reads it
            x = base.star() if g.star else base
            for mu, order in enumerate(g.deriv, start=1):
                for _ in range(order):
                    x = x.delta(mu)
            val = x if val is None else val.twisted_mul(x, theta)
        wtau = 1.0 + 0j if val is None else val.tau()
        total += coeff.to_complex(t) * wtau
    return total
