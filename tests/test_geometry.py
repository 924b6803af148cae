"""Grid construction and the conservative diffusion operator."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solveh_banded
from scipy.sparse.linalg import spsolve

from csr_oracle import assemble_matrix, face_lists, face_values, robin_load
import nlpf.stepper as stepper
from nlpf.errors import ConfigError, ModelContractError
from nlpf.geometry import (BoundaryData, assemble_diffusion, build_grid,
                           harmonic_face_conductivity)


def constant_faces(g, k=1.0):
    """Face conductivity k on every interior face, one array per axis."""
    return [np.full(s, k) for s in g.face_shapes]


def test_grid_1d_basic():
    g = build_grid(1, [2.0], [4])
    assert g.n_cells == 4
    assert np.allclose(g.volumes, 0.5)
    assert np.allclose(g.centers[:, 0], [0.25, 0.75, 1.25, 1.75])
    assert g.face_shapes == ((3,),)
    assert g.n_bfaces == 2


def test_grid_2d_counts():
    g = build_grid(2, [1.0, 1.0], [4, 4])
    assert g.n_cells == 16
    assert g.domain_volume == pytest.approx(1.0, abs=1e-15)
    # 3 interior faces per row/column, 4 rows and 4 columns
    assert g.face_shapes == ((3, 4), (4, 3))
    assert g.n_bfaces == 16


def test_grid_2d_face_layout():
    # 3 x 2 cells of size 1 x 1/2; cell id = ix * 2 + iy:
    #   iy=1:  1 3 5
    #   iy=0:  0 2 4
    # x-faces, then y-faces, each on the cell view; boundary sides x-low,
    # x-high, y-low, y-high
    g = build_grid(2, [3.0, 1.0], [3, 2])
    assert g.face_shapes == ((2, 2), (3, 1))
    ids = g.view(np.arange(6))
    assert face_values([ids[lo] for lo, _ in g.face_cells]).tolist() \
        == [0, 1, 2, 3, 0, 2, 4]
    assert face_values([ids[hi] for _, hi in g.face_cells]).tolist() \
        == [2, 3, 4, 5, 1, 3, 5]
    assert [d.tolist() for d in g.face_differences(np.arange(6.0))] \
        == [[[-2.0, -2.0]] * 2, [[-1.0]] * 3]
    # face area / (centre distance cell volume): 0.5 / (1 0.5) across x,
    # 1 / (0.5 0.5) across y
    assert g.face_scale == (1.0, 4.0)
    low, high, _ = face_lists(g)
    assert low.tolist() == [0, 1, 2, 3, 0, 2, 4]
    assert high.tolist() == [2, 3, 4, 5, 1, 3, 5]
    assert g.bface_owner.tolist() == [0, 1, 4, 5, 0, 2, 4, 1, 3, 5]
    assert g.bface_area.tolist() == [0.5] * 4 + [1.0] * 6


def test_grid_rejects_bad_input():
    with pytest.raises(ConfigError):
        build_grid(1, [1.0, 1.0], [4])
    with pytest.raises(ConfigError):
        build_grid(1, [-1.0], [4])
    with pytest.raises(ConfigError):
        build_grid(3, [1.0] * 3, [2] * 3)


def test_divergence_two_cell_oracle():
    # Two cells of width 1/2, unit conductivity: transmissibility is
    # k * area / distance = 1 / (1/2) = 2, so A theta on (0, 1) is
    # (2 * (0 - 1)) / 0.5 = -4 in the first cell and +4 in the second.
    g = build_grid(1, [1.0], [2])
    bnd = BoundaryData(g, 0.0, 1.0)
    op = assemble_diffusion(g, constant_faces(g), bnd, (0.5, 2.0))
    out = op.apply(np.array([0.0, 1.0]))
    assert np.allclose(out, [-4.0, 4.0], atol=1e-14)


def test_harmonic_face_conductivity():
    g = build_grid(1, [1.0], [2])
    k_f = harmonic_face_conductivity(g, np.array([1.0, 3.0]))
    assert k_f[0][0] == pytest.approx(1.5, rel=1e-15)
    bnd = BoundaryData(g, 0.0, 1.0)
    op = assemble_diffusion(g, k_f, bnd, (0.5, 4.0))
    # flux through the single face for a unit jump is 1.5 / h = 3, per
    # unit cell volume 3 / h = 6
    (flux,) = op.face_fluxes(np.array([1.0, 0.0]))
    assert flux[0] == pytest.approx(6.0, rel=1e-14)


def test_robin_load_and_outflow():
    g = build_grid(1, [1.0], [2])
    bnd = BoundaryData(g, 1.0, 2.0)
    op = assemble_diffusion(g, constant_faces(g), bnd, (0.5, 2.0))
    load = op.robin_load(0.0)
    # each end cell sees gamma * area * theta_gamma / volume = 1*1*2/0.5
    assert np.allclose(load, [4.0, 4.0])
    theta = np.array([3.0, 3.0])
    out = bnd.outflow(theta, 0.0)
    # gamma * area * (theta - theta_gamma) summed over both ends
    assert out == pytest.approx(2.0, rel=1e-14)


def test_insulated_divergence_is_exact_zero():
    g = build_grid(1, [1.0], [8])
    bnd = BoundaryData(g, 0.0, 1.0)
    op = assemble_diffusion(g, constant_faces(g), bnd, (0.5, 2.0))
    rng = np.random.default_rng(3)
    theta = 1.0 + rng.random(8)
    total = np.dot(g.volumes, op.apply(theta))
    assert abs(total) <= 1e-15 * np.dot(g.volumes,
                                        abs(assemble_matrix(op)) @ theta)


def test_k_bounds_enforced():
    g = build_grid(1, [1.0], [4])
    bnd = BoundaryData(g, 0.0, 1.0)
    with pytest.raises(ModelContractError) as info:
        assemble_diffusion(g, constant_faces(g, 10.0), bnd, (0.5, 2.0))
    assert info.value.violation == "k-bounds"


def test_boundary_data_validation():
    g = build_grid(1, [1.0], [4])
    with pytest.raises(ConfigError):
        BoundaryData(g, -1.0, 1.0)
    with pytest.raises(ConfigError):
        BoundaryData(g, 1.0, -2.0)


def test_time_dependent_theta_gamma():
    g = build_grid(1, [1.0], [2])
    bnd = BoundaryData(g, 1.0, lambda t: 1.0 + t)
    assert bnd.theta_gamma_at(0.5)[0] == pytest.approx(1.5)
    op = assemble_diffusion(g, constant_faces(g), bnd, (0.5, 2.0))
    assert np.allclose(op.robin_load(1.0), [4.0, 4.0])


@given(st.integers(2, 24), st.integers(0, 2 ** 31 - 1))
def test_flux_form_conserves(cells, seed):
    """Insulated operator: the volume-weighted total of A theta vanishes.

    Each interior flux enters the two adjacent cells with opposite sign,
    so the weighted sum telescopes to zero up to rounding.
    """
    g = build_grid(1, [1.0], [cells])
    bnd = BoundaryData(g, 0.0, 1.0)
    rng = np.random.default_rng(seed)
    k = harmonic_face_conductivity(g, 0.6 + rng.random(cells))
    op = assemble_diffusion(g, k, bnd, (0.5, 2.0))
    theta = 0.5 + 2.0 * rng.random(cells)
    total = float(np.dot(g.volumes, op.apply(theta)))
    assert abs(total) <= 1e-12 * cells


@given(st.integers(2, 16))
def test_constant_field_has_no_flux(cells):
    g = build_grid(1, [1.0], [cells])
    bnd = BoundaryData(g, 0.0, 1.0)
    op = assemble_diffusion(g, constant_faces(g), bnd, (0.5, 2.0))
    (flux,) = op.face_fluxes(np.ones(cells))
    assert np.max(np.abs(flux)) == 0.0


ORACLE_GRIDS = [(1, [1.0], [1]), (1, [1.0], [2]), (1, [1.0], [32]),
                (1, [2.0], [256]),
                (2, [1.0, 2.0], [1, 5]), (2, [2.0, 1.0], [5, 1]),
                (2, [1.0, 1.5], [5, 9]), (2, [1.0, 1.0], [16, 16])]


def assert_close(got, want, scale, rel=1e-13):
    assert np.max(np.abs(got - want), initial=0.0) <= rel * scale


@pytest.mark.parametrize("gamma, theta_gamma",
                         [(0.0, 1.0), (1.5, 1.0), (1.5, lambda t: 1.0 + t)],
                         ids=["insulated", "robin", "robin-timed"])
@pytest.mark.parametrize("dim, lengths, cells", ORACLE_GRIDS,
                         ids=["x".join(map(str, c)) for _, _, c in ORACLE_GRIDS])
def test_operator_matches_csr_oracle(dim, lengths, cells, gamma,
                                     theta_gamma):
    """The sliced operator agrees with the CSR matrix that the oracle
    assembles from its own face lists, with random per-face gamma and cell
    conductivity: face coefficients (harmonic means), ``apply``,
    ``apply_abs``, ``diagonal``, face fluxes, ``robin_load`` and
    ``residual``, on one operator and on each row of a stack, and a stack
    is the row-by-row operators bit for bit.  The 1D band solved by
    ``solveh_banded`` and, on a plate, the stepper's CG solve agree with
    ``spsolve``."""
    g = build_grid(dim, lengths, cells)
    rng = np.random.default_rng(11)
    bnd = BoundaryData(g, gamma * (0.5 + rng.random(g.n_bfaces)), theta_gamma)
    low, high, scale = face_lists(g)
    k_cells = 0.6 + rng.random((3, g.n_cells))
    thetas = 0.5 + 2.0 * rng.random((3, g.n_cells))
    times = np.array([0.0, 0.25, 1.0])
    stack = assemble_diffusion(g, harmonic_face_conductivity(g, k_cells), bnd,
                               (0.5, 2.0))
    stacked = {"apply": stack.apply(thetas),
               "apply_abs": stack.apply_abs(thetas),
               "fluxes": stack.face_fluxes(thetas),
               "load": stack.robin_load(times),
               "residual": stack.residual(thetas, times)}
    for n in range(3):
        k, theta, t = k_cells[n], thetas[n], times[n]
        op = assemble_diffusion(g, harmonic_face_conductivity(g, k), bnd,
                                (0.5, 2.0))
        mat = assemble_matrix(op)
        size = np.max(abs(mat) @ theta)
        harmonic = 2 * k[low] * k[high] / (k[low] + k[high])
        assert_close(face_values(op.coeffs), harmonic * scale,
                     np.max(scale, initial=1.0))
        assert_close(op.apply(theta), mat @ theta, size)
        assert_close(op.apply_abs(theta), abs(mat) @ theta, size)
        assert_close(op.diagonal(), mat.diagonal(), size)
        assert_close(face_values(op.face_fluxes(theta)),
                     face_values(op.coeffs) * (theta[low] - theta[high]),
                     size)
        load = robin_load(g, bnd, t)
        assert_close(op.robin_load(t), load, np.max(load, initial=1.0))
        assert_close(op.residual(theta, t), mat @ theta - load, size)
        assert_close(stack.apply(thetas)[n], assemble_matrix(stack, n) @ theta,
                     size)
        for key, row in (("apply", op.apply(theta)),
                         ("apply_abs", op.apply_abs(theta)),
                         ("load", op.robin_load(t)),
                         ("residual", op.residual(theta, t))):
            assert np.array_equal(stacked[key][n], row), key
        assert all(np.array_equal(a[n], b) for a, b in
                   zip(stacked["fluxes"], op.face_fluxes(theta)))

    shift, dt = 1.0 + rng.random(g.n_cells), 1e-3
    rhs = rng.standard_normal(g.n_cells)
    want = spsolve(sp.csc_matrix(sp.diags(shift) + dt * mat), rhs)
    if dim == 1:
        got = solveh_banded(op.banded(shift, dt), rhs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    else:
        system = stepper.TensorPreconditioner(g, bnd).system(op, dt)
        got = stepper._newton_solve(op, system, shift, dt, rhs, 0.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_operator_holds_face_data_only():
    """A 128 x 128 operator keeps O(M + F) numbers, no M x M object."""
    g = build_grid(2, [1.0, 1.0], [128, 128])
    op = assemble_diffusion(g, constant_faces(g), BoundaryData(g, 1.0, 1.0))
    held = 0
    for value in vars(op).values():
        if isinstance(value, tuple):
            held += sum(v.nbytes for v in value)
        elif isinstance(value, np.ndarray):
            held += value.nbytes
        else:
            assert value is g or value is op.boundary
    assert held == 8 * (g.n_cells + 2 * 127 * 128)


@pytest.mark.parametrize("dim, cells", [(1, [1]), (1, [32]), (2, [5, 3]),
                                        (2, [16, 16])])
def test_robin_coefficient_is_built_once_per_boundary(dim, cells):
    """``BoundaryData.robin`` is the per-cell Robin coefficient that each
    operator used to bincount for itself, bit for bit, and every operator
    on that boundary holds it."""
    g = build_grid(dim, [1.0] * dim, cells)
    gamma = np.random.default_rng(dim).random(g.n_bfaces)
    bnd = BoundaryData(g, gamma, 1.0)
    want = np.bincount(g.bface_owner, bnd.gamma_arr * g.bface_area,
                       g.n_cells) / g.volumes
    assert np.array_equal(bnd.robin, want)
    assert assemble_diffusion(g, constant_faces(g), bnd).robin is bnd.robin


@pytest.mark.parametrize("dim, cells", [(1, [1]), (1, [32]), (2, [5, 3]),
                                        (2, [1, 4])])
def test_robin_load_is_built_once_for_a_constant_exterior(dim, cells,
                                                          monkeypatch):
    """A constant exterior temperature's per-cell Robin load is summed once,
    by ``BoundaryData``, bit for bit the old per-call ``bincount``: every
    ``robin_load`` hands out that array, or a read-only row per time of an
    array of times, and sums nothing.  A callable exterior temperature is
    summed once per call, side by side, into the same cells."""
    g = build_grid(dim, [1.0] * dim, cells)
    rng = np.random.default_rng(len(cells) + sum(cells))
    gamma, theta_gamma = rng.random(g.n_bfaces), 1.0 + rng.random(g.n_bfaces)
    bnd = BoundaryData(g, gamma, theta_gamma)
    op = assemble_diffusion(g, constant_faces(g), bnd)
    assert np.array_equal(bnd.load, robin_load(g, bnd, 0.0))
    sums = []
    real = type(g).side_sum
    monkeypatch.setattr(type(g), "side_sum",
                        lambda self, v: sums.append(v) or real(self, v))
    times = np.array([0.0, 0.5, 2.0])
    assert op.robin_load(0.5) is bnd.load
    stacked = op.robin_load(times)
    assert stacked.shape == (3, g.n_cells) and not stacked.flags.writeable
    assert all(np.array_equal(row, bnd.load) for row in stacked)
    assert sums == []
    timed = BoundaryData(g, gamma, lambda t: theta_gamma * (1.0 + t))
    assert timed.load is None
    sums.clear()
    got = assemble_diffusion(g, constant_faces(g), timed).robin_load(times)
    assert len(sums) == 1
    for row, t in zip(got, times):
        assert np.allclose(row, robin_load(g, timed, t), rtol=1e-15,
                           atol=0.0)


@pytest.mark.parametrize("k_f", [[1.0, np.nan, 3.0], [np.nan, 0.2, 1.0],
                                 [0.5, np.nan, -1.0], [1.0, np.nan, 1.5]])
def test_k_bounds_check_skips_nan_as_comparisons_do(k_f):
    """The bound check is one min and one max that skip NaN, so it raises
    exactly where the elementwise comparisons it replaced raised."""
    g = build_grid(1, [1.0], [4])
    bnd = BoundaryData(g, 0.0, 1.0)
    k_f = np.asarray(k_f)
    k0, k1 = 0.5, 2.0
    tol = 1e-12 * k1
    raised = bool(np.any(k_f < k0 - tol) or np.any(k_f > k1 + tol)
                  or np.any(k_f <= 0))
    try:
        assemble_diffusion(g, [k_f], bnd, (k0, k1))
    except ModelContractError:
        assert raised
    else:
        assert not raised
