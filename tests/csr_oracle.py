"""Assembled sparse matrix of the heat operator, kept as a test reference.

The solver applies the two-point flux operator by slicing the cell view of
its per-axis face data and solves its Newton systems in band form (1D) or
by CG on the grid (2D); this module lists the faces itself, from the cell
counts alone, and assembles the same operator as a CSR matrix entry by
entry, so tests can compare both against ``scipy.sparse`` products and
``spsolve``.
"""

import math

import numpy as np
import scipy.sparse as sp


def face_lists(grid):
    """Low cell, high cell and A_f / (d_f V) of every interior face, axis
    by axis, lexicographic within an axis: the order of the operator's
    per-axis face arrays raveled and joined."""
    ids = np.arange(grid.n_cells).reshape(grid.cells)
    low, high, scale = [], [], []
    for a, n in enumerate(grid.cells):
        low.append(np.take(ids, np.arange(n - 1), axis=a).ravel())
        high.append(np.take(ids, np.arange(1, n), axis=a).ravel())
        area = math.prod(grid.h[:a] + grid.h[a + 1:])
        scale.append(np.full(low[-1].size,
                             area / grid.h[a] / grid.volumes[0]))
    return np.concatenate(low), np.concatenate(high), np.concatenate(scale)


def face_values(per_axis, row=None):
    """Per-axis face arrays of one operator, or row ``row`` of a stack,
    joined in the order of ``face_lists``."""
    return np.concatenate([(v if row is None else v[row]).ravel()
                           for v in per_axis])


def robin_load(grid, boundary, t):
    """Per-cell Robin load sum gamma_b A_b theta_Gamma(t) / V."""
    return np.bincount(grid.bface_owner, boundary.gamma_arr * grid.bface_area
                       * boundary.theta_gamma_at(t), grid.n_cells) \
        / grid.volumes


def assemble_matrix(op, row=None):
    """(M, M) volume-scaled CSR matrix of ``op``, Robin diagonal included;
    of row ``row`` of a stack of operators."""
    grid, boundary = op.grid, op.boundary
    m = grid.n_cells
    w = face_values(op.coeffs, row)
    o, n, _ = face_lists(grid)
    rows = [o, o, n, n, grid.bface_owner]
    cols = [o, n, n, o, grid.bface_owner]
    vals = [w, -w, w, -w,
            boundary.gamma_arr * grid.bface_area
            / grid.volumes[grid.bface_owner]]
    mat = sp.csr_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(m, m))
    mat.sum_duplicates()
    return mat
