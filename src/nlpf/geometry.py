"""Uniform box grids and the two-point flux heat operator.

Cells are axis-aligned boxes of identical size, ordered lexicographically by
integer index (last axis fastest), so a field (M,) or a stack (T, M) is the
cell view (..., n_0[, n_1]) without a copy.  The interior faces of axis a
join each cell to the next along that axis: on the cell view they are one
slice against the next (``Grid.face_cells``, laid out once per grid), and a
per-face quantity is one array per axis, shaped like the axis' faces.

The diffusion operator discretizes ``-div(k grad theta)`` with a two-point
flux per interior face and a Robin exchange term ``gamma * (theta -
theta_Gamma)`` on boundary faces; all rows are scaled by cell volume so the
operator maps a temperature field to a rate density.  It is held as face
data only, O(M) numbers: the coefficients k_f A_f / (d_f V), one array per
axis, and the per-cell Robin coefficient that ``BoundaryData`` builds once,
as it builds the Robin load of a constant exterior temperature.  Fluxes,
divergence, ``|A| |theta|`` and the diagonal slice the cell view; a 1D
operator also hands out diag(shift) + dt A as the tridiagonal band of
``scipy.linalg.solveh_banded``, symmetric because the volumes are equal.
Coefficients with a leading axis T make a stack of T operators, one per
step of a trajectory, that maps a (T, M) stack row by row, each row bit for
bit that of its own operator; ``diagonal`` and ``banded`` take one.
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
    bface_owner: np.ndarray      # (Fb,)
    bface_area: np.ndarray       # (Fb,)
    # per axis, the low and the high cells of its faces on the cell view,
    # leading stack axes allowed; per boundary side, its cells there, its
    # faces' slice of the boundary faces and their shape
    face_cells: tuple[tuple[tuple, tuple], ...]
    sides: tuple[tuple[tuple, slice, tuple], ...]
    face_shapes: tuple[tuple[int, ...], ...]   # per axis: cells, one fewer
    face_scale: tuple[float, ...]  # per axis: face area / (distance volume)

    @property
    def n_cells(self) -> int:
        return self.centers.shape[0]

    @property
    def n_bfaces(self) -> int:
        return self.bface_owner.shape[0]

    @property
    def domain_volume(self) -> float:
        return float(np.prod(self.lengths))

    def view(self, values: np.ndarray) -> np.ndarray:
        """Cell values (..., M) on the cell view (..., n_0[, n_1]); in 1D
        the values themselves."""
        if self.dim == 1:
            return values
        return values.reshape(values.shape[:-1] + self.cells)

    def face_differences(self, values: np.ndarray) -> list[np.ndarray]:
        """Low minus high cell value across each interior face, of one field
        (M,) or of each row of a stack (T, M), one array per axis."""
        v = self.view(values)
        return [v[lo] - v[hi] for lo, hi in self.face_cells]

    def sides_by_axis(self, per_bface: np.ndarray) -> list[np.ndarray]:
        """Boundary-face values (..., Fb) as views of the low and the high
        side of each axis in turn, each shaped like the cells without that
        axis."""
        lead = per_bface.shape[:-1]
        return [per_bface[..., faces].reshape(lead + shape)
                for _, faces, shape in self.sides]

    def side_sum(self, per_bface: np.ndarray) -> np.ndarray:
        """Boundary-face values (..., Fb) summed into their cells (..., M),
        side by side in the order of the boundary faces."""
        out = np.zeros(per_bface.shape[:-1] + (self.n_cells,))
        v = self.view(out)
        for (cells, _, _), side in zip(self.sides,
                                       self.sides_by_axis(per_bface)):
            v[cells] += side
        return out


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
    face_cells, sides, face_scale, barea, start = [], [], [], [], 0
    # boundary sides x-low, x-high, y-low, y-high; owners lexicographic
    # within each side
    for a in range(dim):
        face_area = float(math.prod(h[:a] + h[a + 1:]))
        rest, n = (slice(None),) * (dim - 1 - a), m // cells[a]
        face_cells.append(((..., slice(None, -1)) + rest,
                           (..., slice(1, None)) + rest))
        face_scale.append(face_area / h[a] / vol)
        for index in (0, -1):
            sides.append(((..., index) + rest, slice(start, start + n),
                          cells[:a] + cells[a + 1:]))
            barea.append(np.full(n, face_area))
            start += n

    grid = Grid(
        dim=dim,
        lengths=lengths,
        cells=cells,
        h=h,
        centers=centers,
        volumes=volumes,
        bface_owner=np.concatenate([ids[s].ravel() for s, _, _ in sides]),
        bface_area=np.concatenate(barea),
        face_cells=tuple(face_cells),
        sides=tuple(sides),
        face_shapes=tuple(cells[:a] + (cells[a] - 1,) + cells[a + 1:]
                          for a in range(dim)),
        face_scale=tuple(face_scale),
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
    checked once, here, where its per-cell Robin load ``load`` is built; a
    callable one is checked and summed at each evaluation (``load`` None).
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
        self.robin = g.side_sum(self.gamma_arr * g.bface_area) / g.volumes
        self.load = np.zeros(g.n_cells) if self.is_insulated else None
        if not callable(self.theta_gamma):
            self._theta_gamma_arr = self._exterior(self.theta_gamma)
            self._theta_gamma_arr.flags.writeable = False
            self.load = g.side_sum(self.gamma_arr * g.bface_area
                                   * self._theta_gamma_arr) / g.volumes

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


def harmonic_face_conductivity(grid: Grid, k_cell: np.ndarray) -> list:
    """Harmonic mean of the two cell conductivities across each interior
    face, one array per axis, of one field (M,) or of each row of a stack
    (T, M)."""
    k = grid.view(np.asarray(k_cell, dtype=float))
    return [2.0 * k[lo] * k[hi] / (k[lo] + k[hi])
            for lo, hi in grid.face_cells]


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
    coeffs: tuple                # per axis: k_f A_f / (d_f V), [T,] + faces
    robin: np.ndarray            # (M,) sum of gamma_b * A_b per cell / volume

    def _spread(self, out: np.ndarray, per_face, high=np.add) -> np.ndarray:
        """Add each face value into its low cell of ``out``, and ``high``
        (np.add or np.subtract) it into its high cell."""
        v = self.grid.view(out)
        for s, (lo, hi) in zip(per_face, self.grid.face_cells):
            low, up = v[lo], v[hi]
            low += s
            high(up, s, out=up)
        return out

    def apply(self, theta: np.ndarray) -> np.ndarray:
        return self._spread(self.robin * theta, self.face_fluxes(theta),
                            np.subtract)

    def apply_abs(self, theta: np.ndarray) -> np.ndarray:
        """``|A| |theta|``: the size of the terms that cancel in ``apply``."""
        a = np.abs(theta)
        v = self.grid.view(a)
        return self._spread(self.robin * a, [
            w * (v[lo] + v[hi])
            for w, (lo, hi) in zip(self.coeffs, self.grid.face_cells)])

    def diagonal(self) -> np.ndarray:
        return self._spread(self.robin.copy(), self.coeffs)

    def banded(self, shift: np.ndarray, dt: float) -> np.ndarray:
        """``diag(shift) + dt A`` of a 1D operator in the upper band layout
        of ``scipy.linalg.solveh_banded``: entry (i, i + 1) at [0, i + 1],
        entry (i, i) at [-1, i]; a one-cell bar has the diagonal row only.
        """
        n = self.grid.n_cells
        ab = np.zeros((min(n, 2), n))
        ab[-1] = shift + dt * self.diagonal()
        ab[0, 1:] = -dt * self.coeffs[0]
        return ab

    def robin_load(self, t) -> np.ndarray:
        """Affine Robin part at t, or per row at times t: the boundary's
        stored ``load``, or of a callable exterior temperature one side sum
        per call."""
        b, g = self.boundary, self.grid
        if b.load is None:
            return g.side_sum(b.gamma_arr * g.bface_area
                              * b.theta_gamma_at(t)) / g.volumes
        return b.load if np.ndim(t) == 0 \
            else np.broadcast_to(b.load, np.shape(t) + b.load.shape)

    def residual(self, theta: np.ndarray, t) -> np.ndarray:
        return self.apply(theta) - self.robin_load(t)

    def face_fluxes(self, theta: np.ndarray) -> list[np.ndarray]:
        """Heat flux from the low to the high cell of each interior face,
        per unit cell volume, one array per axis."""
        return [w * d for w, d in zip(self.coeffs,
                                      self.grid.face_differences(theta))]


def assemble_diffusion(
    grid: Grid,
    face_conductivity,
    boundary: BoundaryData,
    k_bounds: tuple[float, float] | None = None,
) -> DiffusionOperator:
    """Build the heat operator from per-face conductivities.

    ``face_conductivity`` holds one array per axis, shaped like that axis'
    interior faces, with a leading axis T for a stack, as
    ``harmonic_face_conductivity`` gives them.  When ``k_bounds`` is
    supplied, any face value outside ``[k0, k1]`` is reported as a model
    contract violation, not clamped.
    """
    k_f = [np.asarray(k, dtype=float) for k in face_conductivity]
    if tuple(k.shape[-grid.dim:] for k in k_f) != grid.face_shapes:
        raise ConfigError(f"face conductivity must have shapes ([T,] "
                          f"{grid.face_shapes}), got {[k.shape for k in k_f]}")
    lo, hi = math.inf, -math.inf
    for k in k_f:      # fmin/fmax skip NaN as comparisons do
        lo = np.fmin.reduce(k, axis=None, initial=lo)
        hi = np.fmax.reduce(k, axis=None, initial=hi)
    if k_bounds is not None:
        k0, k1 = k_bounds
        tol = 1e-12 * max(1.0, abs(k1))
        if lo < k0 - tol or hi > k1 + tol:
            flat = np.concatenate([k.ravel() for k in k_f])
            bad = float(flat[np.argmax(np.abs(flat - np.clip(flat, k0, k1)))])
            raise ModelContractError(
                "k-bounds", f"face conductivity {bad} outside [{k0}, {k1}]")
    if lo <= 0:
        raise ModelContractError("k-bounds", "face conductivity must be positive")

    coeffs = tuple(k * s for k, s in zip(k_f, grid.face_scale))
    return DiffusionOperator(grid=grid, boundary=boundary, coeffs=coeffs,
                             robin=boundary.robin)
