"""Numerical harness: truncations, spectra, heat traces, flow, evaluation."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncps import numeric as nm
from ncps.algebra import AlgebraElement, gen, tau_class
from ncps.scalars import DomainError

THETA3 = nm.theta_matrix(
    [[0.0, 0.3, 0.1], [-0.3, 0.0, 0.2], [-0.1, -0.2, 0.0]]
)


def expected_free_spectrum(L, dim, shift=None):
    out = []
    for k in nm.mode_box(L, dim):
        v = np.asarray(k, dtype=float)
        if shift is not None:
            v = v + np.asarray(shift)
        r = float(np.linalg.norm(v))
        out.extend([r, -r])
    return np.sort(out)


def test_theta_validation():
    with pytest.raises(DomainError):
        nm.theta_matrix([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(DomainError):
        nm.theta_matrix([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])


def test_selfadjointness_check():
    good = nm.ConcreteElement.cosine(3, (1, 2, 0))
    assert good.is_selfadjoint()
    bad = nm.ConcreteElement(3, {(1, 0, 0): 1.0})
    assert not bad.is_selfadjoint()
    assert bad.star().modes == {(-1, 0, 0): 1.0}


def test_twisted_product_relation():
    # U_k U_l = exp(pi i Theta(k,l)) U_{k+l}
    k, l = (1, 0, 0), (0, 1, 0)
    uk = nm.ConcreteElement(3, {k: 1.0})
    ul = nm.ConcreteElement(3, {l: 1.0})
    prod = uk.twisted_mul(ul, THETA3)
    phase = np.exp(1j * math.pi * (np.asarray(k) @ THETA3 @ np.asarray(l)))
    assert abs(prod.modes[(1, 1, 0)] - phase) < 1e-15
    # and the shift matrices satisfy the same relation on interior modes
    L = 3
    mk = nm.multiplication_matrix(uk, L, THETA3)
    ml = nm.multiplication_matrix(ul, L, THETA3)
    mkl = nm.multiplication_matrix(prod, L, THETA3)
    box = nm.mode_box(L, 3)
    index = {m: i for i, m in enumerate(box)}
    lhs = mk @ ml
    for m in nm.mode_box(L - 1, 3):
        tgt = (m[0] + 1, m[1] + 1, m[2])
        assert abs(lhs[index[tgt], index[m]] - mkl[index[tgt], index[m]]) < 1e-12


def _multiplication_reference(a, L, theta):
    # one phase per (mode, box entry), as a plain loop
    box = nm.mode_box(L, a.dim)
    index = {k: i for i, k in enumerate(box)}
    out = np.zeros((len(box), len(box)), dtype=complex)
    for m, coeff in a.modes.items():
        for k, i in index.items():
            j = index.get(tuple(x + y for x, y in zip(m, k)))
            if j is not None:
                phase = np.exp(1j * math.pi * float(np.asarray(m) @ theta @ np.asarray(k)))
                out[j, i] += coeff * phase
    return out


def _weyl(dim):
    # self-adjoint, complex coefficients, a zero mode and a diagonal pair
    a, b = (1,) + (0,) * (dim - 1), (1, -1) + (0,) * (dim - 2)
    ma, mb = tuple(-x for x in a), tuple(-x for x in b)
    modes = {(0,) * dim: 0.35, a: 0.2 + 0.1j, ma: 0.2 - 0.1j, b: -0.05 + 0.15j, mb: -0.05 - 0.15j}
    return nm.ConcreteElement(dim, modes)


THETAS = {2: nm.theta_matrix([[0.0, 0.37], [-0.37, 0.0]]), 3: THETA3}


def _kron_dirac(L, dim):
    ks = np.asarray(nm.mode_box(L, dim), dtype=float).T
    return sum(np.kron(np.diag(ks[mu - 1]), nm.gamma_num(dim, mu)) for mu in range(1, dim + 1))


def _symmetrized(m):
    return (m + m.conj().T) / 2.0


def _expm_hermitian(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.exp(vals)) @ vecs.conj().T


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("L", [1, 2, 3])
def test_multiplication_matrix_matches_loop_reference(dim, L):
    h = _weyl(dim)
    for theta in (THETAS[dim], np.zeros((dim, dim))):
        got = nm.multiplication_matrix(h, L, theta)
        assert np.max(np.abs(got - _multiplication_reference(h, L, theta))) < 1e-14


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("L", [2, 3])
def test_blockwise_assembly_matches_kron_reference(dim, L):
    theta, h = THETAS[dim], _weyl(dim)
    d = nm.build_operator(nm.NumericFamily("free_dirac", dim), L).matrix
    assert np.array_equal(d, _kron_dirac(L, dim))
    e = np.kron(_expm_hermitian(0.35 * nm.multiplication_matrix(h, L, theta)), np.eye(2))
    top = nm.build_operator(nm.NumericFamily("conformal_dirac", dim, theta=theta, weyl=h), L, t=0.7)
    assert np.max(np.abs(top.matrix - _symmetrized(e @ d @ e))) <= 1e-12
    gauge = [_weyl(dim) for _ in range(dim)]
    top = nm.build_operator(nm.NumericFamily("coupled_dirac", dim, theta=theta, gauge=gauge), L)
    ref = d + sum(
        np.kron(nm.multiplication_matrix(a, L, theta), nm.gamma_num(dim, mu))
        for mu, a in enumerate(gauge, start=1)
    )
    assert np.max(np.abs(top.matrix - _symmetrized(ref))) <= 1e-12


ROUTES = {"taylor": math.inf, "eigh": 0.0}  # values of nm._EIGH_PRODUCTS that force a route


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("t", [0.35, 4.0, 16.0])  # 0, 3 and 5 squarings
@pytest.mark.parametrize("twisted", [True, False])
@pytest.mark.parametrize("dim, L", [(2, 3), (3, 2)])
def test_expm_multiplication_matches_scipy_expm(dim, L, twisted, t, route, monkeypatch):
    expm = pytest.importorskip("scipy.linalg").expm
    monkeypatch.setattr(nm, "_EIGH_PRODUCTS", ROUTES[route])
    theta, h = (THETAS[dim] if twisted else np.zeros((dim, dim))), _weyl(dim)
    ref = expm(t * nm.multiplication_matrix(h, L, theta))
    got = nm.expm_multiplication(h, L, theta, t)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    if route == "taylor":  # symmetrized
        assert np.array_equal(got, got.conj().T)


@pytest.mark.parametrize("dim, L", [(2, 8), (3, 3)])
def test_few_mode_conformal_member_takes_no_eigensolver(dim, L, monkeypatch):
    fam = nm.NumericFamily("conformal_dirac", dim, theta=THETAS[dim], weyl=_weyl(dim))

    def no_eigensolver(*_a, **_k):
        raise AssertionError("exp(t h / 2) of four non-zero modes is a Taylor series")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    top = nm.build_operator(fam, L, t=4.0)
    # the member is symmetrized; before that its defect is the rounding of e diag(k) e
    assert top.hermiticity_defect <= 1e-13


def test_many_mode_exponential_takes_one_eigh(monkeypatch):
    # every mode of radius 1 (27 of them): the Taylor series would cost more products
    h = nm.ConcreteElement(3, {m: 0.05 if any(m) else 0.4 for m in nm.mode_box(1, 3)})
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
    got = nm.expm_multiplication(h, 3, THETA3, 0.25)
    assert calls == [(343, 343)]
    monkeypatch.setattr(nm, "_EIGH_PRODUCTS", math.inf)
    ref = nm.expm_multiplication(h, 3, THETA3, 0.25)
    assert calls == [(343, 343)]
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("route", ROUTES)
def test_exponential_with_a_large_zero_mode_stays_finite(route, monkeypatch):
    # h = 5 + 5 cos x_1 >= 0, so exp(-200 M(h)) has norm at most 1, while
    # exp(-200 M(h - 5)) alone reaches e^866 at L = 2
    monkeypatch.setattr(nm, "_EIGH_PRODUCTS", ROUTES[route])
    h = nm.ConcreteElement(3, {(0, 0, 0): 5.0, (1, 0, 0): 2.5, (-1, 0, 0): 2.5})
    top = nm.build_operator(nm.NumericFamily("conformal_dirac", 3, theta=THETA3, weyl=h), 2, t=-400.0)
    assert np.all(np.isfinite(top.matrix))
    ref = _expm_hermitian(-200.0 * nm.multiplication_matrix(h, 2, THETA3))
    got = nm.expm_multiplication(h, 2, THETA3, -200.0)
    # either route rounds the exponent 200 M(h), of norm 2,000, to about 2e-13
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("route", ROUTES)
def test_overflowing_exponential_is_refused_at_once(route, monkeypatch):
    monkeypatch.setattr(nm, "_EIGH_PRODUCTS", ROUTES[route])
    fam = nm.NumericFamily("conformal_dirac", 2, theta=THETAS[2], weyl=_weyl(2))
    start = time.perf_counter()
    # about 1,000 squarings of a 289 x 289 matrix if they ran on past the overflow
    with pytest.raises(DomainError, match="exp\\(s h\\) overflows at s = 5e\\+299"):
        nm.build_operator(fam, 8, t=1e300)
    assert time.perf_counter() - start < 1.0
    huge = nm.ConcreteElement.cosine(2, (1, 0), 1e10)
    with pytest.raises(DomainError, match=r"\|s\| sum \|a_m\| is not finite"):
        nm.build_operator(nm.NumericFamily("conformal_dirac", 2, weyl=huge), 2, t=1e300)
    # e = e^500 is finite; the blocks e diag(k) e are not
    flat = nm.NumericFamily("conformal_dirac", 2, weyl=nm.ConcreteElement(2, {(0, 0): 1.0}))
    with pytest.raises(DomainError, match="the member at t = 1000.0 overflows"):
        nm.build_operator(flat, 2, t=1000.0)


def test_shift_matrix_unitarity_on_columns():
    u = nm.multiplication_matrix(nm.ConcreteElement(3, {(1, 0, 0): 1.0}), 2, THETA3)
    norms = np.linalg.norm(u, axis=0)
    # columns either shift inside the box (norm 1) or fall off the edge (norm 0)
    assert set(np.round(norms, 12)) <= {0.0, 1.0}
    gram = u.conj().T @ u
    inside = norms > 0.5
    assert np.max(np.abs(gram[np.ix_(inside, inside)] - np.eye(inside.sum()))) < 1e-12


def test_free_spectrum_exact():
    top = nm.build_operator(nm.NumericFamily("free_dirac", 3), L=2)
    vals = nm.hermitian_eigenvalues(top)
    assert np.max(np.abs(vals - expected_free_spectrum(2, 3))) < 1e-12


def test_free_spectrum_negation_symmetric():
    top = nm.build_operator(nm.NumericFamily("free_dirac", 3), L=2)
    vals = nm.hermitian_eigenvalues(top)
    assert np.max(np.abs(np.sort(vals) + np.sort(-vals)[::-1])) < 1e-12


def test_unitary_flow_constant_shift():
    fam = nm.NumericFamily("unitary_flow", 3, flow_k=(1, 0, 0))
    top = nm.build_operator(fam, L=2, t=0.5)
    vals = nm.hermitian_eigenvalues(top)
    assert np.max(np.abs(vals - expected_free_spectrum(2, 3, (0.5, 0, 0)))) < 1e-12


def test_displayed_symbol_block_eigenvalues():
    # the 2x2 block at k = (1,1,0) has eigenvalues +-sqrt(2)
    block = sum(k * nm.gamma_num(3, mu) for mu, k in [(1, 1), (2, 1), (3, 0)])
    vals = np.linalg.eigvalsh(block)
    assert np.allclose(vals, [-math.sqrt(2), math.sqrt(2)], atol=1e-14)


def test_identity_eigenvalues():
    vals = nm.hermitian_eigenvalues(np.eye(7, dtype=complex))
    assert np.allclose(vals, 1.0)


def test_random_hermitian_residual_and_trace():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
    mat = (raw + raw.conj().T) / 2
    vals = nm.hermitian_eigenvalues(mat)
    assert abs(vals.sum() - np.trace(mat).real) < 1e-9 * np.abs(np.trace(mat)).max()
    # every eigenpair solves T v = lam v to 1e-9 relative to ||T||
    _, vecs = np.linalg.eigh(mat)
    res = np.linalg.norm(mat @ vecs - vecs * vals, axis=0)
    assert float(np.max(res)) < 1e-9 * float(np.linalg.norm(mat, 2))


def test_non_hermitian_rejected():
    with pytest.raises(DomainError):
        nm.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_conformal_build_is_hermitian_and_close_to_free():
    h = nm.ConcreteElement.cosine(3, (1, 0, 0), amplitude=1.0)
    fam = nm.NumericFamily("conformal_dirac", 3, theta=THETA3, weyl=h)
    free_vals = nm.hermitian_eigenvalues(nm.build_operator(fam, L=2, t=0.0))
    # first-order bound: |movement| <= t ||(hD + Dh)/2|| + O(t^2), and the
    # norm is at most max|lambda| ||h||_1 = sqrt(12) here
    bound = math.sqrt(12.0)
    for t in (0.01, 0.02, 0.04):
        top = nm.build_operator(fam, L=2, t=t)
        assert top.hermiticity_defect < 1e-12
        vals = nm.hermitian_eigenvalues(top)
        moved = np.max(np.abs(vals - free_vals))
        assert moved < bound * t * (1 + 5 * t)


def test_coupled_build():
    a = [
        nm.ConcreteElement.cosine(3, (1, 0, 0), 0.2),
        nm.ConcreteElement.cosine(3, (0, 1, 0), 0.2),
        nm.ConcreteElement.cosine(3, (0, 0, 1), 0.2),
    ]
    fam = nm.NumericFamily("coupled_dirac", 3, theta=THETA3, gauge=a)
    top = nm.build_operator(fam, L=2)
    assert top.hermiticity_defect < 1e-12
    assert top.interior_cutoff == 1


def test_support_overflow_rejected():
    h = nm.ConcreteElement.cosine(3, (3, 0, 0))
    fam = nm.NumericFamily("conformal_dirac", 3, theta=THETA3, weyl=h)
    with pytest.raises(DomainError):
        nm.build_operator(fam, L=2)


def test_heat_trace_dim3():
    t = 0.05
    value = nm.heat_trace_lattice(t, 40, 3)
    assert abs(t**1.5 * value - 2 * math.pi**1.5) < 1e-3


def test_heat_trace_dim2_constant_term():
    t = 0.05
    value = nm.heat_trace_lattice(t, 40, 2)
    assert abs(value - 2 * math.pi / t) < 1e-6


def test_heat_trace_large_t_kernel_only():
    # at large t only the zero mode survives: weighted trace -> 2 tau(h)
    value = nm.heat_trace_lattice(60.0, 10, 3, weight=0.7)
    assert abs(value - 2 * 0.7) < 1e-20


def test_heat_trace_operator_matches_lattice_for_free():
    top = nm.build_operator(nm.NumericFamily("free_dirac", 3), L=3)
    t = 0.4
    direct = nm.heat_trace_operator(top, t)
    lattice = nm.heat_trace_lattice(t, 3, 3)
    assert abs(direct - lattice) < 1e-9


def test_localized_heat_trace_matches_dense_trace():
    dim, L, s = 2, 3, 0.3
    theta, h = THETAS[dim], _weyl(dim)
    fam = nm.NumericFamily("conformal_dirac", dim, theta=theta, weyl=h)
    loc = np.kron(nm.multiplication_matrix(h, L, theta), np.eye(2))
    top = nm.build_operator(fam, L, t=0.6)
    vals, vecs = np.linalg.eigh(top.matrix)
    dense = np.trace(loc @ (vecs * np.exp(-s * vals**2)) @ vecs.conj().T).real
    assert abs(nm.heat_trace_operator(top, s, loc) - dense) < 1e-12 * abs(dense)
    # flat member: only the zero mode of the localizer survives the trace
    flat = nm.heat_trace_operator(nm.build_operator(fam, L, t=0.0), s, loc)
    assert abs(flat - h.tau() * nm.heat_trace_lattice(s, L, dim)) < 1e-10


def test_heat_trace_rejects_wrong_localizer_shape():
    top = nm.build_operator(nm.NumericFamily("free_dirac", 2), L=2)
    with pytest.raises(DomainError, match=r"\(48, 48\).*\(50, 50\)"):
        nm.heat_trace_operator(top, 0.3, np.eye(48))


def test_heat_traces_refuse_a_complex_weight_or_non_hermitian_localizer():
    # both traces are returned as real numbers, so an imaginary part would be
    # dropped: Tr(i exp(-0.1 D^2)) of the free 2-d member is 34.45 i, not 0
    with pytest.raises(DomainError, match=r"weight must be real, got 1j"):
        nm.heat_trace_lattice(0.1, 3, 2, weight=1j)
    assert nm.heat_trace_lattice(0.1, 3, 2, weight=0.5 + 0j) == nm.heat_trace_lattice(0.1, 3, 2, 0.5)
    top = nm.build_operator(nm.NumericFamily("free_dirac", 2), 2)
    eye = np.eye(top.size)
    with pytest.raises(DomainError, match=r"localizer is not Hermitian: max \|a - a\^\*\| is 2"):
        nm.heat_trace_operator(top, 0.1, 1j * eye)
    skew = eye.astype(complex)
    skew[0, 1] = 1e-3
    with pytest.raises(DomainError, match="localizer is not Hermitian"):
        nm.heat_trace_operator(top, 0.1, skew)
    # a defect at round-off is accepted, as for the eigensolve
    skew[0, 1] = 1e-12
    assert abs(nm.heat_trace_operator(top, 0.1, skew) - nm.heat_trace_operator(top, 0.1)) < 1e-9


def _dense_heat_trace(mat, s, loc):
    vals, vecs = np.linalg.eigh(mat)
    return np.trace(loc @ (vecs * np.exp(-s * vals**2)) @ vecs.conj().T).real


def _chiral_family(kind):
    return nm.NumericFamily(
        kind, 2, theta=THETAS[2],
        weyl=_weyl(2) if kind == "conformal_dirac" else None,
        gauge=[_weyl(2), nm.ConcreteElement.cosine(2, (0, 1), 0.3)]
        if kind == "coupled_dirac" else None,
        flow_k=(1, 0) if kind == "unitary_flow" else (),
    )


def _chiral_localizer(which, L):
    if which == "multiplication":
        return np.kron(nm.multiplication_matrix(_weyl(2), L, THETAS[2]), np.eye(2))
    n = 2 * len(nm.mode_box(L, 2))
    raw = np.random.default_rng(7).normal(size=(n, n, 2)).view(complex)[..., 0]
    return (raw + raw.conj().T) / 2  # dense, nonzero off-diagonal spinor blocks


@pytest.mark.parametrize("localizer", ["multiplication", "dense"])
@pytest.mark.parametrize(
    "kind, t",
    [
        ("conformal_dirac", -0.6),
        ("conformal_dirac", 0.0),
        ("conformal_dirac", 0.6),
        ("coupled_dirac", 0.0),
        ("unitary_flow", 1.0),  # k = (-1, 0) is a zero mode
    ],
)
def test_chiral_heat_trace_matches_dense_trace(kind, t, localizer, monkeypatch):
    L, s = 3, 0.3
    top = nm.build_operator(_chiral_family(kind), L, t=t)
    assert not top.matrix[0::2, 0::2].any() and not top.matrix[1::2, 1::2].any()
    loc = _chiral_localizer(localizer, L)
    if localizer == "dense":
        assert np.abs(loc[0::2, 1::2]).min() > 0.0
    dense = _dense_heat_trace(top.matrix, s, loc)
    vals = np.linalg.eigvalsh(top.matrix)
    if kind == "unitary_flow":
        assert np.sum(vals == 0.0) == 2
    bare = np.exp(-s * vals**2).sum()

    def no_eigensolve(*_args, **_kwargs):
        raise AssertionError("the chiral route diagonalizes nothing")

    monkeypatch.setattr(np.linalg, "eigh", no_eigensolve)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
    assert abs(nm.heat_trace_operator(top, s, loc) - dense) < 1e-12 * abs(dense)
    assert abs(nm.heat_trace_operator(top, s) - bare) < 1e-12 * bare


@pytest.mark.parametrize("entry", [2, 3])  # in the first, then the second diagonal spinor block
@pytest.mark.parametrize("localizer", ["multiplication", "dense"])
def test_heat_trace_with_diagonal_spinor_entry_takes_eigh_path(localizer, entry, monkeypatch):
    L, s = 3, 0.3
    top = nm.build_operator(_chiral_family("conformal_dirac"), L, t=0.6)
    loc = _chiral_localizer(localizer, L)
    chiral = nm.heat_trace_operator(top, s, loc)
    top.matrix[entry, entry] += 0.5
    dense = _dense_heat_trace(top.matrix, s, loc)
    assert abs(dense - chiral) > 1e-6 * abs(dense)

    def no_svd(*_args, **_kwargs):
        raise AssertionError("a nonzero diagonal spinor block must not take the SVD route")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert abs(nm.heat_trace_operator(top, s, loc) - dense) < 1e-12 * abs(dense)


@pytest.mark.parametrize("t", [-5.0, 0.0, float("nan")])
@pytest.mark.parametrize("dim", [2, 3])
def test_heat_trace_rejects_nonpositive_heat_parameter(dim, t):
    top = nm.build_operator(nm.NumericFamily("free_dirac", dim), L=2)
    for loc in (None, np.eye(top.size)):
        with pytest.raises(DomainError, match="heat parameter must be positive"):
            nm.heat_trace_operator(top, t, loc)
    with pytest.raises(DomainError, match="heat parameter must be positive"):
        nm.heat_trace_lattice(t, 2, dim)


@pytest.mark.parametrize("with_loc", [False, True])
@pytest.mark.parametrize("dim", [2, 3])  # the SVD route, then the eigh route
def test_heat_trace_of_many_parameters_takes_one_decomposition(dim, with_loc, monkeypatch):
    L = 2
    fam = nm.NumericFamily("conformal_dirac", dim, theta=THETAS[dim], weyl=_weyl(dim))
    top = nm.build_operator(fam, L, t=0.6)
    loc = np.kron(nm.multiplication_matrix(_weyl(dim), L, THETAS[dim]), np.eye(2)) if with_loc else None
    svals = np.linspace(0.15, 0.45, 13)
    each = [nm.heat_trace_operator(top, s, loc) for s in svals]
    assert all(type(v) is float for v in each)
    calls = []
    for name in ("svd", "eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)
        )
    many = nm.heat_trace_operator(top, svals, loc)
    assert len(calls) == 1
    assert isinstance(many, np.ndarray) and many.shape == svals.shape
    assert np.allclose(many, each, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("t", [np.array([0.2, 0.0]), np.array([0.2, float("nan")]), np.ones((2, 2))])
def test_heat_trace_rejects_bad_parameter_arrays(t):
    top = nm.build_operator(nm.NumericFamily("free_dirac", 2), L=2)
    with pytest.raises(DomainError, match="heat parameter"):
        nm.heat_trace_operator(top, t)


@pytest.mark.parametrize("dim", [2, 3])
def test_conformal_member_at_zero_is_the_free_operator(dim, monkeypatch):
    L = 2
    fam = nm.NumericFamily("conformal_dirac", dim, theta=THETAS[dim], weyl=_weyl(dim))

    def no_exponential(*_args):
        raise AssertionError("exp(0 h / 2) is the identity")

    monkeypatch.setattr(nm, "expm_multiplication", no_exponential)
    monkeypatch.setattr(nm, "_shifts", no_exponential)
    top = nm.build_operator(fam, L, t=0.0)
    free = nm.build_operator(nm.NumericFamily("free_dirac", dim), L)
    assert np.array_equal(top.matrix, free.matrix)
    assert np.array_equal(top.matrix, _kron_dirac(L, dim))
    assert top.hermiticity_defect == 0.0
    bad = nm.NumericFamily("conformal_dirac", dim, theta=THETAS[dim],
                           weyl=nm.ConcreteElement(dim, {(1,) + (0,) * (dim - 1): 1.0}))
    with pytest.raises(DomainError, match="self-adjoint Weyl element"):
        nm.build_operator(bad, L, t=0.0)


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2), (0, 3)])
def test_hermitian_eigenvalues_rejects_non_square(shape):
    with pytest.raises(DomainError, match="matrix must be square"):
        nm.hermitian_eigenvalues(np.zeros(shape))


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_hermitian_eigenvalues_rejects_a_non_finite_entry(entry):
    mat = np.eye(70)  # past the first 64-row block of the defect scan
    mat[66, 3] = mat[3, 66] = entry
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="matrix is not Hermitian"):
        nm.hermitian_eigenvalues(mat)


def test_gauge_conjugation_deviation():
    dev = nm.gauge_conjugation_deviation((1, 0, 0), L=4, dim=3, theta=THETA3)
    assert dev < 1e-9
    dev2 = nm.gauge_conjugation_deviation((1, 1, 0), L=3, dim=3, theta=THETA3)
    assert dev2 < 1e-9


def test_spectral_flow_unitary_family():
    spectra = nm.unitary_flow_spectra((1, 0, 0), np.linspace(0, 1, 101), 6, 3)
    assert nm.spectral_flow(spectra) == 0


def test_spectral_flow_artificial_crossing():
    base = [np.array([t - 0.513, -2.0, 2.0]) for t in np.linspace(0, 1, 21)]
    assert nm.spectral_flow(base) == 1
    down = [np.array([0.487 - t, -2.0, 2.0]) for t in np.linspace(0, 1, 21)]
    assert nm.spectral_flow(down) == -1


def test_spectral_flow_coarse_grid_rejection():
    bad = [np.array([-0.5, 0.2]), np.array([-0.5, 0.9])]
    with pytest.raises(nm.GridTooCoarseError):
        nm.spectral_flow(bad)


def _stacked_eigvalsh_spectra(k, grid, L, dim):
    """The eigensolver route: LAPACK on the stack of 2x2 mode blocks."""
    box = np.asarray(nm.mode_box(L, dim), dtype=float)
    gammas = np.stack([nm.gamma_num(dim, mu) for mu in range(1, dim + 1)])
    out = []
    for t in grid:
        blocks = np.einsum("nd,dij->nij", box + t * np.asarray(k, dtype=float), gammas)
        out.append(np.sort(np.linalg.eigvalsh(blocks).ravel()))
    return out


@pytest.mark.parametrize("dim, k", [(2, (0, -2)), (2, (-1, 1)), (3, (-1, 0, 2)), (3, (1, -2, 0))])
def test_unitary_flow_spectra_are_the_closed_form_block_spectra(dim, k, monkeypatch):
    L, grid = 2, [0.0, 0.37, 1.0]
    assembled = [
        np.sort(nm.hermitian_eigenvalues(
            nm.build_operator(nm.NumericFamily("unitary_flow", dim, flow_k=k), L, t)))
        for t in grid
    ]
    stacked = _stacked_eigvalsh_spectra(k, grid, L, dim)

    def no_eigensolver(*_a, **_k):
        raise AssertionError("the unitary flow spectra need no eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
    got = nm.unitary_flow_spectra(k, grid, L, dim)
    for vals, ref, ref2 in zip(got, assembled, stacked):
        assert vals.shape == ref.shape == (2 * (2 * L + 1) ** dim,)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.max(np.abs(vals - ref)) < 1e-12
        assert np.max(np.abs(vals - ref2)) < 1e-12
    # at t = 1 the mode n = -k is an exact zero mode, counted as positive:
    # from t = 0.37, where one of its eigenvalues is negative, the flow is 1
    assert np.count_nonzero(got[-1] == 0.0) == 2
    assert nm.spectral_flow(got[1:]) == 1 and nm.spectral_flow(got) == 0


@pytest.mark.parametrize(
    "k, L, dim, message",
    [
        ((1, 0, 0), 0, 3, "cutoff must be >= 1 (mode box |k|_inf <= cutoff), got 0"),
        ((1, 0, 0), -1, 3, "cutoff must be >= 1 (mode box |k|_inf <= cutoff), got -1"),
        ((1, 0), 2, 3, "lattice vector u has 2 entries but dim is 3"),
        ((1, 0, 0), 2, 2, "lattice vector u has 3 entries but dim is 2"),
        ((1, 0, 0, 0), 2, 4, "gamma algebra is modeled in dimensions 2 and 3"),
        # the endpoint kernel mode -u must lie in the box
        ((5, 0, 0), 4, 3, "cutoff must be >= max|u_i| = 5, got 4"),
        ((2, 1, 0), 1, 3, "cutoff must be >= max|u_i| = 2, got 1"),
        ((0, -3), 2, 2, "cutoff must be >= max|u_i| = 3, got 2"),
    ],
)
def test_unitary_flow_spectra_input_checks(k, L, dim, message):
    with pytest.raises(DomainError) as err:
        nm.unitary_flow_spectra(k, [0.0, 1.0], L, dim)
    assert str(err.value) == message


@pytest.mark.parametrize("n", [1, 0, -3])
def test_flow_grid_needs_two_points(n):
    with pytest.raises(DomainError) as err:
        nm.flow_grid(n)
    assert str(err.value) == f"grid must be >= 2 points on [0, 1], got {n}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: nm.build_operator(nm.NumericFamily("free_dirac", 2), 19),
         "the matrix size 2(2 cutoff + 1)^dim must be <= 3000 "
         "(a dense eigensolve grows with its cube: 5.8 s at 2662), got 3042"),
        (lambda: nm.heat_trace_lattice(0.1, 1_000_001, 3),
         "cutoff must be <= 1000000 (a few floats per point of [-cutoff, cutoff]), got 1000001"),
        (lambda: nm.flow_grid(10_000_001),
         "grid must be <= 10000000 (a flow holds grid points x eigenvalues floats), got 10000001"),
        (lambda: nm.unitary_flow_spectra((1, 0, 0), [0.0] * 2276, 6, 3),
         "grid points x eigenvalues must be <= 10000000 "
         "(the cost is linear in it: 0.36 s and 117 MB at the bound), got 10000744"),
    ],
    ids=["operator", "heat-cutoff", "flow-grid", "flow-values"],
)
def test_numeric_sizes_past_their_bounds_are_refused_before_any_allocation(call, message, monkeypatch):
    # the largest sizes in use: 3-d L = 4 and 2-d L = 10 operators, a
    # 101-point flow at cutoff 6 and a heat trace at cutoff 40
    assert max(2 * 9**3, 2 * 21**2) <= nm.MAX_OPERATOR_SIZE and 40 <= nm.MAX_HEAT_CUTOFF
    assert 101 * 2 * 13**3 <= nm.MAX_FLOW_VALUES

    def forbidden(*_args, **_kwargs):
        raise AssertionError("allocated before the size was checked")

    for module, name in ((nm, "_dirac_blocks"), (nm, "mode_box"), (np, "arange"), (np, "linspace")):
        monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_spectral_flow_conformal_family():
    h = nm.ConcreteElement.cosine(3, (1, 0, 0), amplitude=0.3)
    fam = nm.NumericFamily("conformal_dirac", 3, theta=THETA3, weyl=h)
    spectra = [
        nm.hermitian_eigenvalues(nm.build_operator(fam, L=2, t=t))
        for t in np.linspace(0, 1, 41)
    ]
    assert nm.spectral_flow(spectra) == 0


def test_evaluate_tau_products():
    h = nm.ConcreteElement.cosine(3, (1, 0, 0), amplitude=0.3)
    hh = AlgebraElement.generator(gen("h", 3))
    val = nm.evaluate_tau(tau_class(hh * hh), {"h": h}, THETA3)
    assert abs(val - 0.045) < 1e-15
    # cyclicity of the concrete trace over a twisted pair
    a = nm.ConcreteElement(3, {(1, 0, 0): 0.4, (-1, 0, 0): 0.4})
    b = nm.ConcreteElement(3, {(0, 1, 0): 0.7, (0, -1, 0): 0.7})
    ab = a.twisted_mul(b, THETA3).tau()
    ba = b.twisted_mul(a, THETA3).tau()
    assert abs(ab - ba) < 1e-15
    # derivations kill the concrete trace
    d = a.twisted_mul(b, THETA3).delta(1)
    assert abs(d.tau()) < 1e-15


def test_evaluate_tau_reads_a_starred_derived_letter_as_the_algebra_does():
    # the letter d(1)(u*) is delta_1(u*), which is -(delta_1 u)* on concrete
    # data as in AlgebraElement.adjoint; only a u that is not self-adjoint
    # tells the two readings apart
    data = nm.ConcreteElement(3, {(1, 0, 0): 0.7 + 0.2j, (0, 1, 0): -0.3 + 0.5j, (1, 1, 0): 0.4})
    u = AlgebraElement.generator(gen("u", 3, selfadj=False))
    star_u = u.adjoint()
    cases = [
        # tau(x* y) with x = delta_1 u, y = u
        (u.delta(1).adjoint() * u, data.delta(1).star().twisted_mul(data, THETA3)),
        (star_u.delta(1) * u, data.star().delta(1).twisted_mul(data, THETA3)),
        (star_u.delta(1) * u.delta(2), data.star().delta(1).twisted_mul(data.delta(2), THETA3)),
    ]
    assert star_u.delta(1).render() == "[d(1)(u*)]"
    for word, concrete in cases:
        expect = concrete.tau()
        assert abs(expect) > 0.1
        assert abs(nm.evaluate_tau(tau_class(word), {"u": data}, THETA3) - expect) < 1e-12


def test_evaluate_tau_requires_bindings():
    hh = AlgebraElement.generator(gen("h", 3))
    with pytest.raises(DomainError):
        nm.evaluate_tau(tau_class(hh), {}, THETA3)


def test_heat_trace_remainder_is_exponentially_small():
    # scaled deviation from the leading coefficient is far below any power
    # t^{k/2}, consistent with all higher coefficients vanishing exactly
    target = 2 * math.pi**1.5
    for t in (0.1, 0.05):
        scaled = t**1.5 * nm.heat_trace_lattice(t, 40, 3)
        assert abs(scaled - target) < 1e-9


@pytest.mark.parametrize("kind", ["free_dirac", "conformal_dirac", "coupled_dirac", "unitary_flow"])
def test_build_operator_symmetrization_is_bit_identical(kind):
    # one adjoint, symmetrized in place, against the two-expression form
    dim, L, t = 3, 2, 0.7
    fam = nm.NumericFamily(
        kind, dim, theta=THETA3,
        weyl=_weyl(dim) if kind == "conformal_dirac" else None,
        gauge=[_weyl(dim)] * dim if kind == "coupled_dirac" else None,
        flow_k=(1, 0, 0) if kind == "unitary_flow" else (),
    )
    raw = nm._spinor_sum(nm._dirac_blocks(fam, L, t))
    top = nm.build_operator(fam, L, t=t)
    assert np.array_equal(top.matrix, (raw + raw.conj().T) / 2.0)
    assert top.hermiticity_defect == float(np.max(np.abs(raw - raw.conj().T)))
    if kind == "conformal_dirac":
        assert top.hermiticity_defect > 0.0  # rounding leaves e D e off Hermitian


def test_gamma_num_is_the_exact_pauli_table():
    from ncps import clifford

    for dim in (2, 3):
        for mu in range(1, dim + 1):
            exact = clifford.gamma(dim, mu).e
            num = nm.gamma_num(dim, mu)
            assert not num.flags.writeable
            assert all(exact[i][j].is_scalar() for i in range(2) for j in range(2))
            assert all(
                num[i, j] == exact[i][j].unit_coefficient().to_complex()
                for i in range(2)
                for j in range(2)
            )
    for dim, mu in ((1, 1), (4, 4), (3, 4)):
        with pytest.raises(DomainError):
            nm.gamma_num(dim, mu)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_blockwise_hermiticity_defect_equals_full_max(n):
    rng = np.random.default_rng(n)
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert nm._defect_and_scale(mat)[0] == float(np.max(np.abs(mat - mat.conj().T)))
    herm = (mat + mat.conj().T) / 2
    assert nm._defect_and_scale(herm)[0] == 0.0
    bad = herm.copy()
    bad[n - 1, 0] += 1e-6j * max(1.0, float(np.max(np.abs(herm))))
    with pytest.raises(DomainError, match="not Hermitian"):
        nm.hermitian_eigenvalues(bad)
    assert len(nm.hermitian_eigenvalues(herm)) == n


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_blockwise_scale_equals_full_max(n):
    rng = np.random.default_rng(100 + n)
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    defect, scale = nm._defect_and_scale(mat)
    assert scale == float(np.max(np.abs(mat)))
    assert defect == nm._defect_and_scale(mat)[0]
    # a non-Hermitian array is refused whatever its size
    with pytest.raises(DomainError, match="not Hermitian"):
        nm.hermitian_eigenvalues(mat)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_mode_box_covers_every_dimension(dim):
    box = nm.mode_box(1, dim)
    assert len(box) == 3**dim == len(set(box))
    assert box == sorted(box) and all(len(k) == dim for k in box)


def _reference_spectral_flow(spectra):
    """The sort-everything formulation: every spectrum sorted again and a
    mask built at every grid point."""
    if len(spectra) < 2:
        raise DomainError("need at least two grid points")
    arrs = [np.sort(np.asarray(s, dtype=float)) for s in spectra]
    n = len(arrs[0])
    if any(len(a) != n for a in arrs):
        raise DomainError("all spectra must have the same size")
    shifted = [np.abs(a) <= nm.KERNEL_TOL for a in arrs]
    arrs = [np.where(s, nm.KERNEL_TOL, a) for a, s in zip(arrs, shifted)]
    flow = 0
    for j in range(len(arrs) - 1):
        a, b = arrs[j], arrs[j + 1]
        move = float(np.max(np.abs(b - a))) if n else 0.0
        up = int(np.sum((a < 0) & (b > 0)))
        down = int(np.sum((a > 0) & (b < 0)))
        crossing = up + down > 0 or bool(np.any(shifted[j] | shifted[j + 1]))
        if not crossing:
            window = min(nm._zero_window(a), nm._zero_window(b))
            if move > 0.5 * window * (1.0 + 1e-6):
                raise nm.GridTooCoarseError(
                    f"step {j}: movement {move:.3g} exceeds half the zero window "
                    f"{window:.3g}; refine the grid"
                )
        flow += up - down
    return flow


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def test_spectral_flow_matches_the_sort_everything_reference():
    rng = np.random.default_rng(7)
    cases = [
        nm.unitary_flow_spectra((1, 0, 0), np.linspace(0, 1, 11), 2, 3),
        nm.unitary_flow_spectra((0, -1, 1), np.linspace(0, 1, 31), 2, 3),
        [np.array([t - 0.513, -2.0, 2.0]) for t in np.linspace(0, 1, 21)],
        [np.array([-0.5, 0.2]), np.array([-0.5, 0.9])],
        [np.array([-1.0, 1.0]), np.array([-1.0, 1.0, 2.0])],
    ]
    for _ in range(20):
        walk = np.cumsum(rng.normal(0, 0.05, size=(15, 4)), axis=0) + rng.normal(0, 1, 4)
        walk[rng.integers(15), rng.integers(4)] = 0.0 if rng.random() < 0.3 else 1e-7
        cases.append(list(walk))
    for spectra in cases:
        shuffled = [rng.permutation(s) for s in spectra]
        expect = _outcome(_reference_spectral_flow, spectra)
        assert _outcome(nm.spectral_flow, spectra) == expect
        assert _outcome(nm.spectral_flow, shuffled) == expect


_EIGENVALUE = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([0.0, -0.0, 1e-12, -1e-12, 1e-9, -1e-9, 2e-9, -2e-9]),
)
_SPECTRA = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(_EIGENVALUE, min_size=n, max_size=n), min_size=2, max_size=6)
)


@settings(max_examples=300, deadline=None)
@given(_SPECTRA, st.randoms(use_true_random=False))
def test_spectral_flow_is_the_endpoint_difference_of_negative_counts(spectra, rnd):
    # the walk telescopes: with |lambda| <= KERNEL_TOL counted as positive,
    # every sorted index contributes its sign change between the two ends
    def negatives(vals):
        return sum(v < -nm.KERNEL_TOL for v in vals)

    expect = negatives(spectra[0]) - negatives(spectra[-1])
    shuffled = [rnd.sample(vals, len(vals)) for vals in spectra]
    for given_spectra in (sorted(vals) for vals in spectra), shuffled:
        try:
            flow = nm.spectral_flow([np.array(v) for v in given_spectra])
        except nm.GridTooCoarseError:
            continue
        assert flow == expect


def test_spectral_flow_sorts_only_unsorted_spectra_and_spans_no_grid(monkeypatch):
    import tracemalloc

    spectra = nm.unitary_flow_spectra((1, 0, 0), nm.flow_grid(101), 6, 3)
    expect = nm.spectral_flow(spectra)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("spectral_flow did work its input does not need")

    monkeypatch.setattr(np, "sort", forbidden)
    tracemalloc.start()
    try:
        assert nm.spectral_flow(spectra) == expect
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a few arrays the size of one spectrum, none the size of the grid
    assert peak < 10 * spectra[0].nbytes < len(spectra) * spectra[0].nbytes
    # a spectrum with no eigenvalue within KERNEL_TOL of zero is not copied
    monkeypatch.setattr(np, "where", forbidden)
    monkeypatch.setattr(np, "zeros", forbidden)
    assert nm.spectral_flow([np.array([-1.0, 1.0]), np.array([-1.0, 2.0])]) == 0
