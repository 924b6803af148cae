"""Assembled sparse matrix of the heat operator, kept as a test reference.

The solver applies the two-point flux operator from its face data and
solves its Newton systems in band form (1D) or by CG on the grid (2D); this
module assembles the same operator as a CSR matrix entry by entry, so tests
can compare both against ``scipy.sparse`` products and ``spsolve``.
"""

import numpy as np
import scipy.sparse as sp


def assemble_matrix(op):
    """(M, M) volume-scaled CSR matrix of ``op``, Robin diagonal included."""
    grid, trans, boundary = op.grid, op.trans, op.boundary
    m = grid.n_cells
    rows, cols, vals = [], [], []
    inv_v = 1.0 / grid.volumes

    o, n = grid.iface_owner, grid.iface_neigh
    rows.append(o); cols.append(o); vals.append(trans * inv_v[o])
    rows.append(o); cols.append(n); vals.append(-trans * inv_v[o])
    rows.append(n); cols.append(n); vals.append(trans * inv_v[n])
    rows.append(n); cols.append(o); vals.append(-trans * inv_v[n])

    bo = grid.bface_owner
    robin = boundary.gamma_arr * grid.bface_area
    rows.append(bo); cols.append(bo); vals.append(robin * inv_v[bo])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(m, m))
    mat.sum_duplicates()
    return mat
