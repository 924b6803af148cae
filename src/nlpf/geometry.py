"""Uniform box grids and the two-point flux heat operator.

Cells are axis-aligned boxes of identical size, ordered lexicographically by
integer index (last axis fastest).  The diffusion operator discretizes
``-div(k grad theta)`` with a two-point flux per interior face and a Robin
exchange term ``gamma * (theta - theta_Gamma)`` on boundary faces; all rows
are scaled by cell volume so the operator maps a temperature field to a
rate density.

The operator is held as face data only: one transmissibility per interior
face and one Robin coefficient per cell (built once, by ``BoundaryData``),
O(M) numbers.  It is applied as a flux divergence, and for implicit steps it
hands out ``diag(shift) + dt A`` in the upper band layout of
``scipy.linalg.solveh_banded``, of bandwidth ``Grid.band`` (the largest
neighbour-minus-owner index of a face); equal cell volumes make that matrix
symmetric.  The stepper uses the band in 1D only, where it is tridiagonal,
building it once per step at shift 0 and adding each Newton iterate's
shift.  In 2D it applies the Newton matrix on the ``(nx, ny)`` view of the
cells: ``Grid.faces_by_axis`` and ``Grid.sides_by_axis`` give face and
boundary-face data that view's shape, axis by axis.

Face data of shape ``(T, F)`` make a stack of T operators, one per step of
a trajectory: fluxes, divergence, Robin load and residual then map a
``(T, M)`` stack row by row through one row-offset ``bincount``.  The
Newton parts (``diagonal``, ``apply_abs``, ``banded``) take one operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ConfigError, ModelContractError


@dataclass(frozen=True)
class Grid:
    dim: int
    lengths: tuple[float, ...]
    cells: tuple[int, ...]
    h: tuple[float, ...]
    centers: np.ndarray          # (M, dim)
    volumes: np.ndarray          # (M,)
    iface_owner: np.ndarray      # (F,) cell index on the low side
    iface_neigh: np.ndarray      # (F,) cell index on the high side
    iface_area: np.ndarray       # (F,)
    iface_dist: np.ndarray       # (F,) center-to-center distance
    bface_owner: np.ndarray      # (Fb,)
    bface_area: np.ndarray       # (Fb,)
    band: int                    # largest iface_neigh - iface_owner

    @property
    def n_cells(self) -> int:
        return self.centers.shape[0]

    @property
    def n_ifaces(self) -> int:
        return self.iface_owner.shape[0]

    @property
    def n_bfaces(self) -> int:
        return self.bface_owner.shape[0]

    @property
    def domain_volume(self) -> float:
        return float(np.prod(self.lengths))

    def faces_by_axis(self, per_face: np.ndarray) -> list[np.ndarray]:
        """Interior-face values (F,) as one view per axis, shaped like that
        axis' faces: the cell shape, one shorter along the axis."""
        return _split(per_face, [self.cells[:a] + (self.cells[a] - 1,)
                                 + self.cells[a + 1:]
                                 for a in range(self.dim)])

    def sides_by_axis(self, per_bface: np.ndarray) -> list[np.ndarray]:
        """Boundary-face values (Fb,) as views of the low and the high side
        of each axis in turn, each shaped like the cells without that axis."""
        return _split(per_bface, [self.cells[:a] + self.cells[a + 1:]
                                  for a in range(self.dim) for _ in "lh"])


def _split(values: np.ndarray, shapes) -> list[np.ndarray]:
    ends = np.cumsum([math.prod(s) for s in shapes])[:-1]
    return [v.reshape(s) for v, s in zip(np.split(values, ends), shapes)]


def build_grid(dim: int, lengths: Sequence[float], cells: Sequence[int]) -> Grid:
    """Build a uniform cell-centered grid on the box ``prod [0, L_a]``."""
    if dim not in (1, 2):
        raise ConfigError(f"grid dimension must be 1 or 2, got {dim}")
    lengths = tuple(float(L) for L in lengths)
    cells = tuple(int(c) for c in cells)
    if len(lengths) != dim or len(cells) != dim:
        raise ConfigError("lengths/cells must have one entry per axis")
    if any(L <= 0 for L in lengths):
        raise ConfigError("axis lengths must be positive")
    if any(c < 1 for c in cells):
        raise ConfigError("cell counts must be at least 1")

    h = tuple(L / c for L, c in zip(lengths, cells))
    axes = [((np.arange(c) + 0.5) * hh) for c, hh in zip(cells, h)]
    if dim == 1:
        centers = axes[0][:, None]
    else:
        # lexicographic by (ix, iy): cell id = ix * ny + iy
        gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
        centers = np.column_stack([gx.ravel(), gy.ravel()])
    m = int(np.prod(cells))
    vol = float(np.prod(h))
    volumes = np.full(m, vol)

    ids = np.arange(m).reshape(cells)
    own, nbr, area, dist, bown, barea = ([] for _ in range(6))
    # interior faces axis by axis (x first), boundary sides x-low, x-high,
    # y-low, y-high; owners lexicographic within each group
    for a in range(dim):
        face_area = float(math.prod(h[:a] + h[a + 1:]))
        before = (slice(None),) * a
        own.append(ids[before + (slice(None, -1),)].ravel())
        nbr.append(ids[before + (slice(1, None),)].ravel())
        area.append(np.full(own[-1].size, face_area))
        dist.append(np.full(own[-1].size, h[a]))
        for index in (0, -1):
            side = ids[before + (index,)].ravel()
            bown.append(side)
            barea.append(np.full(side.size, face_area))

    grid = Grid(
        dim=dim,
        lengths=lengths,
        cells=cells,
        h=h,
        centers=centers,
        volumes=volumes,
        iface_owner=np.concatenate(own),
        iface_neigh=np.concatenate(nbr),
        iface_area=np.concatenate(area),
        iface_dist=np.concatenate(dist),
        bface_owner=np.concatenate(bown),
        bface_area=np.concatenate(barea),
        band=int(np.max(np.concatenate(nbr) - np.concatenate(own), initial=0)),
    )
    assert abs(float(np.sum(grid.volumes)) - grid.domain_volume) <= 1e-12 * grid.domain_volume
    return grid


ThetaGammaLike = Union[float, np.ndarray, Callable[[float], Union[float, np.ndarray]]]


@dataclass
class BoundaryData:
    """Robin exchange data: coefficient and exterior temperature per boundary face.

    ``gamma`` is a scalar or an array over boundary faces, all entries >= 0.
    ``theta_gamma`` is a positive scalar, an array over boundary faces, or a
    callable of time returning either.  A constant exterior temperature is
    checked once, here; a callable one each time it is evaluated.
    """

    grid: Grid
    gamma: Union[float, np.ndarray] = 0.0
    theta_gamma: ThetaGammaLike = 1.0

    def __post_init__(self):
        self.gamma_arr = np.broadcast_to(np.asarray(self.gamma, dtype=float),
                                         (self.grid.n_bfaces,)).copy()
        if np.any(self.gamma_arr < 0):
            raise ConfigError("boundary gamma must be nonnegative")
        self.is_insulated = bool(np.all(self.gamma_arr == 0.0))
        g = self.grid      # robin: sum of gamma_b A_b per cell / volume
        self.robin = np.bincount(g.bface_owner, self.gamma_arr * g.bface_area,
                                 g.n_cells) / g.volumes
        if not callable(self.theta_gamma):
            self._theta_gamma_arr = self._exterior(self.theta_gamma)
            self._theta_gamma_arr.flags.writeable = False

    def _exterior(self, tg) -> np.ndarray:
        arr = np.broadcast_to(np.asarray(tg, dtype=float),
                              (self.grid.n_bfaces,)).copy()
        if np.any(arr <= 0):
            raise ConfigError("exterior temperature must be positive")
        return arr

    def theta_gamma_at(self, t) -> np.ndarray:
        """Exterior temperature per boundary face at time t, or at each of an
        array of times (shape t.shape + (n_bfaces,)); read-only when the
        exterior temperature is constant, and at a scalar t then the stored
        array itself."""
        shape = np.shape(t) + (self.grid.n_bfaces,)
        if not callable(self.theta_gamma):
            return self._theta_gamma_arr if len(shape) == 1 \
                else np.broadcast_to(self._theta_gamma_arr, shape)
        return np.reshape([self._exterior(self.theta_gamma(s))
                           for s in np.ravel(t)], shape)

    def outflow(self, theta: np.ndarray, t):
        """Total heat leaving the domain through Robin faces: of theta (M,)
        at time t, or of each row of a stack (..., M) at its time in t."""
        g = self.grid
        q = self.gamma_arr * g.bface_area * (
            theta[..., g.bface_owner] - self.theta_gamma_at(t))
        return np.sum(q, axis=-1)


def harmonic_face_conductivity(grid: Grid, k_cell: np.ndarray) -> np.ndarray:
    """Harmonic mean of the owner/neighbour cell conductivities per interior
    face, of one field (M,) or of each row of a stack (T, M)."""
    k_cell = np.asarray(k_cell, dtype=float)
    a = k_cell.take(grid.iface_owner, axis=-1)
    b = k_cell.take(grid.iface_neigh, axis=-1)
    return 2.0 * a * b / (a + b)


@dataclass
class DiffusionOperator:
    """Volume-scaled two-point flux operator with Robin boundary exchange.

    ``apply(theta)`` returns the cellwise rate ``-div(k grad theta)`` plus the
    homogeneous part of the Robin term; ``robin_load(t)`` is the affine part,
    so the full residual of the stationary operator is
    ``apply(theta) - robin_load(t)``.
    """

    grid: Grid
    boundary: BoundaryData
    trans: np.ndarray            # (F,) or (T, F): k_f * A_f / dist_f
    robin: np.ndarray            # (M,) sum of gamma_b * A_b per cell / volume

    def _cell_sum(self, index: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Sum of ``values`` over the cells named by ``index``: one field
        (K,), or each row of a stack (T, K) into its own row of cells."""
        m = self.grid.n_cells
        if values.ndim == 1:
            return np.bincount(index, values, m)
        rows = values.shape[0]
        index = (index + m * np.arange(rows)[:, None]).ravel()
        return np.bincount(index, values.ravel(), rows * m).reshape(rows, m)

    def _face_sum(self, per_face: np.ndarray) -> np.ndarray:
        """Volume-scaled sum of a face quantity over both adjacent cells."""
        g = self.grid
        return (self._cell_sum(g.iface_owner, per_face)
                + self._cell_sum(g.iface_neigh, per_face)) / g.volumes

    def apply(self, theta: np.ndarray) -> np.ndarray:
        g = self.grid
        flux = self.face_fluxes(theta)
        return (self._cell_sum(g.iface_owner, flux)
                - self._cell_sum(g.iface_neigh, flux)) / g.volumes \
            + self.robin * theta

    def apply_abs(self, theta: np.ndarray) -> np.ndarray:
        """``|A| |theta|``: the size of the terms that cancel in ``apply``."""
        g = self.grid
        a = np.abs(theta)
        return self._face_sum(self.trans * (a[g.iface_owner]
                                            + a[g.iface_neigh])) \
            + self.robin * a

    def diagonal(self) -> np.ndarray:
        return self._face_sum(self.trans) + self.robin

    def banded(self, shift: np.ndarray, dt: float) -> np.ndarray:
        """``diag(shift) + dt A`` in the upper band layout of
        ``scipy.linalg.solveh_banded``: entry (i, j), i <= j, sits at
        ``[u + i - j, j]``, with u the grid's band.
        """
        g = self.grid
        offset, u = g.iface_neigh - g.iface_owner, g.band
        ab = np.zeros((u + 1, g.n_cells))
        ab[u] = shift + dt * self.diagonal()
        ab[u - offset, g.iface_neigh] = -dt * self.trans \
            / g.volumes[g.iface_owner]
        return ab

    def robin_load(self, t) -> np.ndarray:
        """Affine Robin part at t, or per row at times t; 0 if insulated."""
        g = self.grid
        if self.boundary.is_insulated:
            return np.zeros(np.shape(t) + (g.n_cells,))
        coeff = self.boundary.gamma_arr * g.bface_area \
            * self.boundary.theta_gamma_at(t)
        return self._cell_sum(g.bface_owner, coeff) / g.volumes

    def residual(self, theta: np.ndarray, t) -> np.ndarray:
        return self.apply(theta) - self.robin_load(t)

    def face_fluxes(self, theta: np.ndarray) -> np.ndarray:
        """Signed heat flux through each interior face, from owner to neighbour."""
        g = self.grid
        return self.trans * (theta.take(g.iface_owner, axis=-1)
                             - theta.take(g.iface_neigh, axis=-1))


def assemble_diffusion(
    grid: Grid,
    face_conductivity: np.ndarray,
    boundary: BoundaryData,
    k_bounds: tuple[float, float] | None = None,
) -> DiffusionOperator:
    """Build the heat operator from per-face conductivities.

    ``face_conductivity`` is given on interior faces, (F,) or a stack
    (T, F).  When ``k_bounds`` is supplied, any face value outside
    ``[k0, k1]`` is reported as a model contract violation, not clamped.
    """
    k_f = np.asarray(face_conductivity, dtype=float)
    if k_f.ndim not in (1, 2) or k_f.shape[-1] != grid.n_ifaces:
        raise ConfigError(f"face conductivity must have shape ([T,] "
                          f"{grid.n_ifaces}), got {k_f.shape}")
    # fmin/fmax skip NaN as comparisons do; a one-cell grid has no face
    lo = np.fmin.reduce(k_f, axis=None, initial=math.inf)
    hi = np.fmax.reduce(k_f, axis=None, initial=-math.inf)
    if k_bounds is not None:
        k0, k1 = k_bounds
        tol = 1e-12 * max(1.0, abs(k1))
        if lo < k0 - tol or hi > k1 + tol:
            bad = float(k_f.flat[np.argmax(np.abs(k_f - np.clip(k_f, k0, k1)))])
            raise ModelContractError(
                "k-bounds", f"face conductivity {bad} outside [{k0}, {k1}]")
    if lo <= 0:
        raise ModelContractError("k-bounds", "face conductivity must be positive")

    trans = k_f * grid.iface_area / grid.iface_dist
    return DiffusionOperator(grid=grid, boundary=boundary, trans=trans,
                             robin=boundary.robin)
