"""Dense reference evaluation of the nonlocal fields.

The full M x M kernel matrix is formed from every cell-centre pair, mirrored
to exact symmetry, and the b, B and pairing sums are taken pair by pair in
row blocks, with G and G' of the even polynomial pair term evaluated pair
by pair (the solver only ever convolves their expansion).  This is the
textbook quadrature the convolution operator in `nlpf.longrange` must
reproduce; it is quadratic in memory, so it serves only as a test oracle on
small grids.
"""

import numpy as np

BLOCK = 256


def value(G, z):
    """G(z) = sum_k c_k |z|^(2k) of an EvenPolynomialG, per row of z."""
    s = np.sum(np.square(z), axis=-1)
    out = np.zeros_like(s)
    for k, c in enumerate(G.coeffs, start=1):
        out = out + c * s ** k
    return out


def grad(G, z):
    """G'(z) = sum_k 2k c_k |z|^(2k-2) z, per row of z."""
    s = np.sum(np.square(z), axis=-1)
    fac = np.zeros_like(s)
    for k, c in enumerate(G.coeffs, start=1):
        fac = fac + 2.0 * k * c * s ** (k - 1)
    return fac[..., None] * z


def kernel_matrix(grid, kernel):
    """K_ij = kappa(x_i, x_j), with the strict upper triangle mirrored."""
    x = grid.centers
    m = grid.n_cells
    K = np.empty((m, m))
    for s in range(0, m, BLOCK):
        e = min(s + BLOCK, m)
        K[s:e] = kernel(x[s:e, None, :], x[None, :, :])
    iu = np.triu_indices(m, k=1)
    K[(iu[1], iu[0])] = K[iu]
    return K


def b_field(grid, kernel, G, chi):
    """b_i = 2 sum_j w_j K_ij G'(chi_i - chi_j); shape (M, d)."""
    wk = kernel_matrix(grid, kernel) * grid.volumes[None, :]
    out = np.empty_like(chi)
    for s in range(0, chi.shape[0], BLOCK):
        e = min(s + BLOCK, chi.shape[0])
        gp = grad(G, chi[s:e, None, :] - chi[None, :, :])
        out[s:e] = 2.0 * np.einsum("mj,mjd->md", wk[s:e], gp)
    return out


def B_field(grid, kernel, G, chi):
    """B_i = sum_j w_j K_ij G(chi_i - chi_j); shape (M,)."""
    wk = kernel_matrix(grid, kernel) * grid.volumes[None, :]
    out = np.empty(chi.shape[0])
    for s in range(0, chi.shape[0], BLOCK):
        e = min(s + BLOCK, chi.shape[0])
        gv = value(G, chi[s:e, None, :] - chi[None, :, :])
        out[s:e] = np.einsum("mj,mj->m", wk[s:e], gv)
    return out


def pairing(grid, kernel, G, chi, chid):
    """(lhs, rhs) of the pairing identity, both summed over cell pairs.

    lhs = sum_i w_i b_i . chid_i; rhs = sum_ij w_i w_j K_ij
    G'(chi_i - chi_j) . (chid_i - chid_j), the chain-rule derivative of the
    total pair energy.
    """
    w = grid.volumes
    lhs = float(np.sum(w[:, None] * b_field(grid, kernel, G, chi) * chid))
    wk = kernel_matrix(grid, kernel) * w[None, :]
    rhs = 0.0
    for s in range(0, chi.shape[0], BLOCK):
        e = min(s + BLOCK, chi.shape[0])
        gp = grad(G, chi[s:e, None, :] - chi[None, :, :])
        dd = chid[s:e, None, :] - chid[None, :, :]
        rhs += float(np.einsum("mj,mjd,mjd->", wk[s:e] * w[s:e, None], gp, dd))
    return lhs, rhs
