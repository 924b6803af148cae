"""Oracles for the lower-envelope comparison ODE.

`nlpf.diagnostics.lower_bound_ode` solves
c~(w) w' = -R^2 w^2 / (4 mu_rho(w)) by separation of variables, with
Gauss-Legendre quadrature and Newton.  The oracles here integrate the ODE
forward in time instead.  For alpha = 1 below the cap the ODE has an
explicit solution; otherwise (alpha = 2, or a start above the cap) the
oracles are the classical fourth-order Runge-Kutta with a step of at most a
quarter of the run's step size, and scipy's DOP853.
"""

import math

import numpy as np

from nlpf.thermo import truncated_mobility


def closed_form_envelope(model, w0, R, times, rho):
    """Exact comparison solution when the ODE collapses to linear decay:
    for alpha = 1 the minorant w/(1+w) cancels the linear mobility growth,
    so w(t) = w0 exp(-R^2 t / (4 mu0)) while the cap is idle (w0 <= rho)."""
    assert model.alpha == 1 and w0 <= rho
    return w0 * np.exp(-(R * R) * np.asarray(times, dtype=float)
                       / (4.0 * model.mu0))


def rk4_envelope(model, w0, R, rho, times, dt):
    """w at each of ``times`` (increasing, after 0), from w(0) = w0."""
    h_cap = dt / 4.0

    def f(w):
        return -(R * R) * w * w / (4.0 * truncated_mobility(model, w, rho)
                                   * model.c_tilde(w))

    env = np.empty(len(times))
    w, t = w0, 0.0
    for i, tn in enumerate(times):
        span = tn - t
        m = max(1, int(math.ceil(span / h_cap - 1e-12)))
        h = span / m
        for _ in range(m):
            k1 = f(w)
            k2 = f(w + 0.5 * h * k1)
            k3 = f(w + 0.5 * h * k2)
            k4 = f(w + h * k3)
            w = w + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = tn
        env[i] = w
    return env


def uncut_envelope(model, w0, R, rho, times):
    """w at each of ``times`` by DOP853 at relative tolerance 1e-12, run to
    the last time with no cut-off: about 1e-12 off the exact solution, and
    slow without bound once w^2 turns subnormal."""
    from scipy.integrate import solve_ivp

    def f(t, w):
        return -(R * R) * w * w / (4.0 * truncated_mobility(model, w, rho)
                                   * model.c_tilde(w))

    sol = solve_ivp(f, (0.0, float(times[-1])), [w0], method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-300)
    assert sol.success
    return sol.y[0]
