"""Kernel coupling: interaction field, pairing identity, local limit."""

import dataclasses
import math
from pathlib import Path

import dense_oracle
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlpf import longrange
from nlpf.config import build_components, parse_config_text, resolve_config
from nlpf.errors import ConfigError
from nlpf.geometry import build_grid
from nlpf.longrange import (ConstantKernel, EvenPolynomialG, GaussianKernel,
                            QuadraticG, ScaledTopHat, build_coupling,
                            local_limit_error, local_limit_nu)
from nlpf.stepper import run

DEFAULT_CFG = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"


def two_cell_coupling():
    grid = build_grid(1, [1.0], [2])
    return build_coupling(grid, ConstantKernel(1.0), QuadraticG(), 1.0)


def pairing_step(cp, chi, chi_new, dt):
    """(lhs, rhs, residual) of the pairing identity over one step."""
    chis = np.stack([chi, chi_new])
    return tuple(v[0] for v in cp.pairing_residual(chis, cp.b_field(chis),
                                                   [dt]))


def test_two_cell_oracle():
    # cells of weight 1/2, chi = (0, 1): b_i = 2 sum_j w_j (chi_i - chi_j)
    # gives (-1, +1); B_i = sum_j w_j G(chi_i - chi_j) = 1/2 * 1/2 = 1/4
    cp = two_cell_coupling()
    chi = np.array([[0.0], [1.0]])
    assert np.allclose(cp.b_field(chi).b, [[-1.0], [1.0]], atol=1e-15)
    assert np.allclose(cp.b_field(chi).B, [0.25, 0.25], atol=1e-15)
    assert np.dot(cp.w, cp.b_field(chi).B) == pytest.approx(0.25, abs=1e-15)


def test_pairing_identity_oracle():
    # with chi-dot = (1, 0) both sides of the chain rule equal -1/2
    cp = two_cell_coupling()
    chi = np.array([[0.0], [1.0]])
    chid = np.array([[1.0], [0.0]])
    lhs, rhs, residual = pairing_step(cp, chi, chi + chid, 1.0)
    assert lhs == pytest.approx(-0.5, abs=1e-15)
    assert rhs == pytest.approx(-0.5, abs=1e-15)
    assert abs(residual) <= 1e-15


def test_kernel_matrix_is_symmetric():
    """The matrix is stored as its stencil, so symmetry is evenness, or as
    Toeplitz factors, each of which must be symmetric."""
    for cells in ([16], [24, 3]):
        grid = build_grid(len(cells), [1.0] * len(cells), cells)
        cp = build_coupling(grid, GaussianKernel(0.3, 0.2), QuadraticG(), 1.0)
        assert cp.stencil.shape == tuple(2 * n - 1 for n in cells)
        assert np.array_equal(cp.stencil, cp.stencil[(slice(None, None, -1),)
                                                     * len(cells)])
        assert np.all(cp.stencil >= 0.0)
    grid = build_grid(2, [1.0, 1.0], [5, 8])
    cp = build_coupling(grid, GaussianKernel(0.3, 0.2), QuadraticG(), 1.0)
    for t, n in ((cp.t0, 5), (cp.t1, 8)):
        assert t.shape == (n, n)
        assert np.array_equal(t, t.T)
        assert np.all(t >= 0.0)


def test_negative_kernel_rejected():
    grid = build_grid(1, [1.0], [4])
    with pytest.raises(ConfigError):
        build_coupling(grid, ConstantKernel(-0.5), QuadraticG(), 1.0)


@given(st.integers(0, 2 ** 31 - 1))
def test_field_bound(seed):
    """sup |b| stays below 2 sup(K) sup(G') |Omega| for admissible chi."""
    grid = build_grid(1, [1.0], [12])
    kernel = GaussianKernel(0.4, 0.3)
    g = QuadraticG()
    cp = build_coupling(grid, kernel, g, 1.0)
    rng = np.random.default_rng(seed)
    chi = rng.random((12, 1))
    c_b = 2.0 * kernel.sup() * g.sup_grad_norm(1.0) * grid.domain_volume
    assert cp.c_b == c_b
    norms = np.linalg.norm(cp.b_field(chi).b, axis=1)
    assert np.max(norms) <= c_b + 1e-12


@given(st.integers(0, 2 ** 31 - 1))
def test_pairing_residual_is_tiny(seed):
    grid = build_grid(1, [1.0], [10])
    cp = build_coupling(grid, GaussianKernel(0.2, 0.25),
                        EvenPolynomialG([0.5, 0.25]), 1.0)
    rng = np.random.default_rng(seed)
    chi = rng.random((10, 1))
    chid = rng.normal(size=(10, 1))
    _, _, residual = pairing_step(cp, chi, chi + 1e-3 * chid, 1e-3)
    assert abs(residual) <= 1e-13


def test_even_polynomial_grad_consistent():
    g = EvenPolynomialG([0.5, 0.25])
    z = np.array([[0.3, -0.4]])
    eps = 1e-6
    num = np.zeros(2)
    for k in range(2):
        zp, zm = z.copy(), z.copy()
        zp[0, k] += eps
        zm[0, k] -= eps
        num[k] = (dense_oracle.value(g, zp)[0]
                  - dense_oracle.value(g, zm)[0]) / (2 * eps)
    assert np.allclose(dense_oracle.grad(g, z)[0], num, atol=1e-8)


def test_nu_oracles():
    """The unit top-hat's moment nu = (1/N) integral of |z|^2 over the unit
    ball, by adaptive quadrature: 2/3 in 1D and pi/4 in 2D, bit for bit."""
    from scipy import integrate
    one, _ = integrate.quad(lambda z: z * z, -1.0, 1.0, limit=200)
    two, _ = integrate.quad(lambda r: r ** 3, 0.0, 1.0, limit=200)
    assert local_limit_nu(1) == one == 2.0 / 3.0
    assert local_limit_nu(2) == math.pi * two == np.pi / 4.0
    with pytest.raises(ConfigError):
        local_limit_nu(3)


def test_scaled_tophat_support():
    k = ScaledTopHat(4, 1)
    x = np.array([[0.5]])
    near = np.array([[0.5 + 0.2]])
    far = np.array([[0.5 + 0.3]])
    assert k(x, near)[0] > 0.0
    assert k(x, far)[0] == 0.0
    assert k.sup() == pytest.approx(k(x, x)[0])


def test_local_limit_error_decays():
    grid = build_grid(1, [1.0], [64])
    L = 1.0

    def chi_fn(x):
        return 0.5 + 0.25 * np.sin(2 * np.pi * x / L)

    def grad_fn(x):
        return 0.25 * (2 * np.pi / L) * np.cos(2 * np.pi * x / L)

    r4 = local_limit_error(grid, 4, chi_fn, grad_fn)
    r8 = local_limit_error(grid, 8, chi_fn, grad_fn)
    assert r8.sup_error < r4.sup_error
    assert r4.nu == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert not r8.resolution_warning


def test_local_limit_resolution_warning():
    # 8 cells cannot resolve the n = 16 interaction range
    grid = build_grid(1, [1.0], [8])
    rep = local_limit_error(grid, 16, lambda x: 0.5 * x, lambda x: 0.5 + 0 * x)
    assert rep.resolution_warning


# ---------------------------------------------------------------------------
# convolution operator against the dense oracle

KERNELS = {
    "constant": lambda dim: ConstantKernel(0.7),
    "gaussian": lambda dim: GaussianKernel(0.3, 0.2),
    "tophat": lambda dim: ScaledTopHat(4, dim, 0.5),
}
INTERACTIONS = {
    "quadratic": QuadraticG,
    "poly2": lambda: EvenPolynomialG([1.0, 0.5]),
    "poly3": lambda: EvenPolynomialG([0.5, 0.25, 0.1]),
    "poly4": lambda: EvenPolynomialG([0.5, 0.25, 0.1, 0.05]),
}
GRIDS = ([1], [2], [7], [32], [1, 5], [6, 9], [16, 16], [24, 3])
# grids on which a separable kernel's factors hold fewer numbers than the
# stencil, so build_coupling applies their Kronecker product
KRONECKER_GRIDS = ([6, 9], [16, 16])


def assert_matches_oracle(grid, kernel, G, chi, chid, dt=1.0):
    """b and B to 1e-13 relative; pairing residual and both of its sums.
    Returns the coupling."""
    cp = build_coupling(grid, kernel, G, 1.0)
    old = cp.b_field(chi)
    chi_new = chi + dt * chid
    b_ref = dense_oracle.b_field(grid, kernel, G, chi)
    B_ref = dense_oracle.B_field(grid, kernel, G, chi)
    assert np.max(np.abs(old.b - b_ref)) <= 1e-13 * np.max(np.abs(b_ref))
    assert np.max(np.abs(old.B - B_ref)) <= 1e-13 * np.max(np.abs(B_ref))
    assert np.array_equal(cp.b_field(chi).B, old.B)

    lhs, rhs, residual = pairing_step(cp, chi, chi_new, dt)
    assert abs(residual) <= 1e-13
    chid = (chi_new - chi) / dt
    lhs_ref, rhs_ref = dense_oracle.pairing(grid, kernel, G, chi, chid)
    scale = float(np.sum(grid.volumes[:, None] * np.abs(b_ref * chid)))
    assert abs(lhs - lhs_ref) <= 1e-13 * scale
    assert abs(rhs - rhs_ref) <= 1e-13 * scale
    return cp


@pytest.mark.parametrize("cells", GRIDS, ids=lambda c: "x".join(map(str, c)))
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("interaction", INTERACTIONS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_fft_fields_match_dense_oracle(kernel, interaction, d, cells):
    dim = len(cells)
    grid = build_grid(dim, [1.0] * dim, cells)
    rng = np.random.default_rng([d, *cells])
    chi = rng.random((grid.n_cells, d))
    chid = rng.normal(size=chi.shape)
    cp = assert_matches_oracle(grid, KERNELS[kernel](dim),
                               INTERACTIONS[interaction](), chi, chid)
    kronecker = kernel != "tophat" and cells in KRONECKER_GRIDS
    assert (cp.stencil is None) == kronecker
    assert (cp.t0 is not None) == kronecker


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_monomial_table_matches_direct_powers(degree, d, monkeypatch):
    # the columns handed to apply are the expansion's monomials, each an
    # earlier one times chi_e or a; the direct table raises a and every
    # chi_e to its power.  The adjoint takes the expansion at degree 1 too.
    grid = build_grid(2, [1.0, 1.0], [4, 3])
    cp = build_coupling(grid, GaussianKernel(0.3, 0.2),
                        EvenPolynomialG(np.ones(degree)), 1.0)
    chi = np.random.default_rng([degree, d]).normal(size=(12, d))
    seen, apply = [], cp.apply
    monkeypatch.setattr(cp, "apply", lambda f, adjoint=False:
                        seen.append(f) or apply(f, adjoint))
    cp._fields(chi, adjoint=True)
    x = (chi - chi.mean(axis=0)).T
    a = np.add.reduce(x * x, axis=0)
    direct = []
    for q, alpha in longrange._pair_expansion(degree, d)[0]:
        col = a ** q
        for e, k in enumerate(alpha):
            if k:
                col = col * x[e] ** k
        direct.append(col)
    direct = np.array(direct)
    [table] = seen
    assert table.shape == direct.shape
    assert np.all(np.abs(table - direct) <= 4e-16 * np.abs(direct))
    if degree <= 2:
        assert np.array_equal(table, direct)


def test_tophat_tie_matches_oracle():
    # h = 1/8 and n = 4: cells two apart sit exactly on the inclusive
    # support radius 1/n, so they interact
    grid = build_grid(1, [1.0], [8])
    kernel = ScaledTopHat(4, 1)
    cp = build_coupling(grid, kernel, QuadraticG(), 1.0)
    assert cp.stencil[7 + 2] > 0.0 and cp.stencil[7 + 3] == 0.0
    rng = np.random.default_rng(8)
    chi = rng.random((8, 1))
    assert_matches_oracle(grid, kernel, QuadraticG(), chi,
                          rng.normal(size=chi.shape))


def test_stacked_fields_match_per_snapshot(monkeypatch):
    # a small budget sends the stack through in chunks of two states: ten
    # columns of 12 cells each on the Kronecker path, of 8 x 5 padded
    # points each on the FFT path
    grid = build_grid(2, [1.0, 1.0], [4, 3])
    chis = np.random.default_rng(3).random((5, 12, 2))
    for kernel, budget in (("gaussian", 240), ("tophat", 800)):
        monkeypatch.setattr(longrange, "_STACK_POINTS", budget)
        cp = build_coupling(grid, KERNELS[kernel](2),
                            EvenPolynomialG([1.0, 0.5]), 1.0)
        assert (cp.stencil is None) == (kernel == "gaussian")
        chunks, apply = [], cp.apply

        def counted(f, adjoint=False):
            chunks.append(len(f))
            return apply(f, adjoint)

        monkeypatch.setattr(cp, "apply", counted)
        stack = cp.b_field(chis)
        assert chunks == [2, 2, 1]
        b, B = stack.b, stack.B
        for n, chi in enumerate(chis):
            one = cp.b_field(chi)
            assert np.allclose(b[n], one.b, rtol=0, atol=1e-15)
            assert np.allclose(B[n], one.B, rtol=0, atol=1e-15)
        assert cp.b_field(chis[:0]).b.shape == (0, 12, 2)


def assert_pairing_catches(cp, bad):
    """The pairing residual is tiny for ``cp`` and large for ``bad``."""
    rng = np.random.default_rng(11)
    chi = rng.random((cp.grid.n_cells, 2))
    chi_new = chi + 1e-3 * rng.normal(size=chi.shape)
    for coupling, broken in ((cp, False), (bad, True)):
        _, _, residual = pairing_step(coupling, chi, chi_new, 1e-3)
        assert (abs(residual) > 1e-11) == broken


@pytest.mark.parametrize("interaction", ["quadratic", "poly2"])
def test_pairing_catches_asymmetric_stencil(interaction):
    # the top-hat keeps this plate on the FFT path
    grid = build_grid(2, [1.0, 1.0], [6, 5])
    cp = build_coupling(grid, ScaledTopHat(2, 2, 0.02),
                        INTERACTIONS[interaction](), 1.0)
    stencil = cp.stencil.copy()
    stencil[5 + 2, 4 + 1] *= 1.5          # offset (2, 1) but not (-2, -1)
    assert_pairing_catches(cp, dataclasses.replace(cp, stencil=stencil))


@pytest.mark.parametrize("interaction", ["quadratic", "poly2"])
def test_pairing_catches_asymmetric_factor(interaction):
    grid = build_grid(2, [1.0, 1.0], [6, 5])
    cp = build_coupling(grid, GaussianKernel(0.3, 0.4),
                        INTERACTIONS[interaction](), 1.0)
    t0 = cp.t0.copy()
    t0[2, 0] *= 1.5                       # T_0[2, 0] but not T_0[0, 2]
    assert_pairing_catches(cp, dataclasses.replace(cp, t0=t0))


def test_coupling_memory_128_squared():
    # the dense kernel matrix of this grid would take 2 GiB
    raw = parse_config_text(DEFAULT_CFG.read_text())
    raw.update({"grid.dim": "2", "grid.lengths": "1.0,1.0",
                "grid.cells": "128,128", "solver.horizon": raw["solver.dt"]})
    comp, _ = build_components(resolve_config(raw))
    traj = run(comp)
    assert traj.records.size == 1
    assert abs(traj.records["pairing_residual"][0]) <= 1e-11
    held = sum(v.nbytes for v in vars(comp.coupling).values()
               if isinstance(v, np.ndarray))
    assert held <= 4 * 2 ** 20


@pytest.mark.parametrize("cells", [[1], [32], [256], [1, 5], [7, 13],
                                   [32, 32]])
@pytest.mark.parametrize("lead", [(), (3,), (4, 2)])
@pytest.mark.parametrize("adjoint", [False, True])
def test_axis_wise_apply_is_rfftn_bit_for_bit(cells, lead, adjoint):
    """``apply`` transforms one axis at a time and cuts each inverse axis
    to the grid early; the result is the rfftn/irfftn convolution it
    replaced, bit for bit, on one field, a stack and the transpose."""
    grid = build_grid(len(cells), [1.0] * len(cells), cells)
    # a separable kernel would take the Kronecker path on these plates
    kernel = GaussianKernel(0.1, 0.25) if grid.dim == 1 \
        else ScaledTopHat(4, 2, 0.5)
    cp = build_coupling(grid, kernel, QuadraticG(), 1.0)
    f = np.random.default_rng(len(lead)).normal(size=lead + (grid.n_cells,))
    shape, axes = cp._fft_shape, tuple(range(1, grid.dim + 1))
    spec = cp.spectrum.conj() if adjoint else cp.spectrum
    flat = np.reshape(f, (-1,) + grid.cells)
    want = np.fft.irfftn(np.fft.rfftn(flat, shape, axes) * spec, shape, axes)
    want = want[(slice(None),) + tuple(slice(0, n) for n in grid.cells)]
    assert np.array_equal(cp.apply(f, adjoint), want.reshape(f.shape))
