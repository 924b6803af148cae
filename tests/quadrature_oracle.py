"""Adaptive-quadrature reference for the integrated constitutive quantities.

Each function integrates a model's pointwise cv or cv_chi from 0 to theta
cell by cell with scipy's adaptive quadrature:

    e = int cv,   e_chi = int cv_chi,   s = int cv/tau,
    s_chi = int cv_chi/tau.

The models in `nlpf.thermo` give these in closed form; this is the
independent check that the closed forms integrate what cv says.  It loops
in Python, so it serves only as a test oracle on a few points.
"""

import math

import numpy as np
from scipy import integrate

QUAD_TOL = 1e-10


def _broadcast(model, theta, chi):
    """theta (...,), chi (..., d) with matching leading shape, or a single
    chi row shared by all theta entries."""
    th = np.asarray(theta, dtype=float)
    ch = np.asarray(chi, dtype=float)
    if ch.ndim == 1:
        ch = np.broadcast_to(ch, th.shape + (model.d,))
    else:
        shape = np.broadcast_shapes(th.shape, ch.shape[:-1])
        th = np.broadcast_to(th, shape)
        ch = np.broadcast_to(ch, shape + (model.d,))
    return th, ch


def _quad_scalar(integrand, upper):
    if upper == 0.0:
        return 0.0
    val, _ = integrate.quad(integrand, 0.0, upper,
                            epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=200)
    return val


def e(model, theta, chi):
    th, ch = _broadcast(model, theta, chi)
    out = np.empty(th.shape)
    for idx in np.ndindex(th.shape):
        x = ch[idx]
        out[idx] = _quad_scalar(lambda t: float(model.cv(t, x)), th[idx])
    return out


def e_chi(model, theta, chi):
    th, ch = _broadcast(model, theta, chi)
    out = np.empty(th.shape + (model.d,))
    for idx in np.ndindex(th.shape):
        x = ch[idx]
        for c in range(model.d):
            out[idx + (c,)] = _quad_scalar(
                lambda t: float(np.asarray(model.cv_chi(t, x))[..., c]),
                th[idx])
    return out


def s(model, theta, chi):
    # substitution tau = y^2 flattens the integrable endpoint of cv/tau
    th, ch = _broadcast(model, theta, chi)
    out = np.empty(th.shape)
    for idx in np.ndindex(th.shape):
        x = ch[idx]
        out[idx] = _quad_scalar(
            lambda y: 2.0 * float(model.cv(y * y, x)) / y,
            math.sqrt(th[idx]))
    return out


def s_chi(model, theta, chi):
    th, ch = _broadcast(model, theta, chi)
    out = np.empty(th.shape + (model.d,))
    for idx in np.ndindex(th.shape):
        x = ch[idx]
        for c in range(model.d):
            out[idx + (c,)] = _quad_scalar(
                lambda y: 2.0 * float(np.asarray(model.cv_chi(y * y, x))[..., c]) / y,
                math.sqrt(th[idx]))
    return out
