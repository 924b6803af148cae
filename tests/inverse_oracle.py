"""Inverse of the energy map e(., chi): the temperature of a given energy.

No part of the solver needs it; the thermodynamic-consistency tests use it
as an independent oracle for the closed-form energy.
"""

import numpy as np

from nlpf.errors import ConfigError, NumericalError


def inverse_temperature(model, w, chi, tol=1e-10, max_iter=100):
    """Solve e(theta, chi) = w for theta >= 0 by bracketed Newton.

    Vectorized over w; Newton steps that leave the live bracket fall back to
    bisection, so convergence is unconditional for the increasing e.  tol is
    on temperature (e is flat at small theta): an entry stops once |e - w|/cv,
    or its bracket, is within tol max(theta, 1).
    """
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ConfigError("inverse_temperature: target energy must be >= 0")
    chi = np.asarray(chi, dtype=float)
    lo = np.zeros_like(w)
    hi = np.ones_like(w)
    for _ in range(200):
        need = model.e(hi, chi) < w
        if not np.any(need):
            break
        hi = np.where(need, 2.0 * hi, hi)
    else:
        raise NumericalError("inverse_temperature: failed to bracket max "
                             f"target {float(np.max(w)):.3e}")
    th = 0.5 * (lo + hi)
    f = model.e(th, chi) - w
    for _ in range(max_iter):
        lo = np.where(f < 0, th, lo)
        hi = np.where(f > 0, th, hi)
        dcv = model.cv(th, chi)
        scale = tol * np.maximum(th, 1.0)
        done = (np.abs(f) <= scale * dcv) | (hi - lo <= scale)
        if np.all(done):
            break
        step = np.where(dcv > 0, f / np.where(dcv > 0, dcv, 1.0), 0.0)
        cand = th - step
        bad = (cand <= lo) | (cand >= hi) | (dcv <= 0)
        th = np.where(done, th, np.where(bad, 0.5 * (lo + hi), cand))
        f = model.e(th, chi) - w
    else:
        raise NumericalError("inverse_temperature: Newton did not reach "
                             f"tolerance {tol}; worst residual "
                             f"{float(np.max(np.abs(f))):.3e}")
    return np.where(w == 0.0, 0.0, th)
