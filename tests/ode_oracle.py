"""Fixed-step RK4 for the lower-envelope comparison ODE.

`nlpf.diagnostics.lower_bound_ode` integrates
c~(w) w' = -R^2 w^2 / (4 mu_rho(w)) with an adaptive integrator; this is the
classical fourth-order Runge-Kutta with a step of at most a quarter of the
run's step size, kept as an independent oracle for models without a closed
form (alpha = 2).
"""

import math

import numpy as np

from nlpf.thermo import truncated_mobility


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
