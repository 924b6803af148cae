"""Constraint sets and their proximal maps.

The order parameter is held in a closed convex set by the subdifferential
of its indicator: a coordinate box, a centered ball, or the corner simplex
{x >= 0, sum x <= 1}.  The indicator is zero on every admissible state, so
it adds nothing to the energy or the entropy; what is left of it is the
membership test ``contains`` and the proximal map, which for an indicator is
the euclidean projection onto the set, whatever the weight.  The proximal
step of the inclusion that uses these maps is ``stepper.step_chi``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError


# ---------------------------------------------------------------------------
# potentials


class IndicatorBox:
    """Indicator of the coordinate box prod [lo_i, hi_i]."""

    def __init__(self, lo, hi):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise ConfigError("box bounds must satisfy lo < hi per component")
        self.lo, self.hi = lo, hi
        self.d = lo.shape[0]
        self._tol = 1e-12 * max(1.0, float(np.max(np.abs(np.concatenate([lo, hi])))))
        # the membership bounds, computed once: run tests every new state
        self._lo_tol, self._hi_tol = lo - self._tol, hi + self._tol

    def contains(self, x) -> np.ndarray:
        x = np.atleast_2d(x)
        return ((x >= self._lo_tol) & (x <= self._hi_tol)).all(axis=-1)

    def prox(self, z) -> np.ndarray:
        z = np.atleast_2d(z)
        return np.clip(z, self.lo, self.hi)

    def domain_sample(self, n: int) -> np.ndarray:
        return _domain_sample(self, self.lo, self.hi, n, 1.0)


class IndicatorBall:
    """Indicator of the centered euclidean ball of given radius."""

    def __init__(self, d: int, radius: float):
        if radius <= 0:
            raise ConfigError("ball radius must be positive")
        self.d = int(d)
        self.radius = float(radius)
        self._tol = 1e-12 * max(1.0, radius)

    def contains(self, x) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.linalg.norm(x, axis=-1) <= self.radius + self._tol

    def prox(self, z) -> np.ndarray:
        z = np.atleast_2d(z)
        nz = np.linalg.norm(z, axis=-1)
        fac = np.where(nz > self.radius,
                       np.divide(self.radius, nz, out=np.ones_like(nz), where=nz > 0),
                       1.0)
        return z * fac[..., None]

    def domain_sample(self, n: int) -> np.ndarray:
        return _domain_sample(self, -self.radius, self.radius, n,
                              math.pi ** (self.d / 2)
                              / math.gamma(self.d / 2 + 1) / 2 ** self.d)


def _halton(d: int, n: int) -> np.ndarray:
    """Points 1..n of the unscrambled Halton sequence (Halton, Numer. Math.
    2 (1960) 84): coordinate e of point i is the radical inverse of i in
    the e-th prime, its digits mirrored about the radix point."""
    i, pts, base = np.arange(1, n + 1), np.zeros((n, d)), 1
    for col in pts.T:
        base += 1
        while not all(base % p for p in range(2, base)):
            base += 1
        q, f, top = i, 1.0 / base, 1
        while top <= n:  # one pass per digit of n in this base
            q, r = np.divmod(q, base)
            col += r * f
            f, top = f / base, top * base
    return pts


# most Halton points drawn for one domain sample: 12 MB at eleven components
_MAX_DRAWS = 2 ** 17


def _domain_sample(potential, lo, hi, n: int, fraction: float) -> np.ndarray:
    """n points of the potential's domain inside the box [lo, hi]: the
    uniform lattice of n points in 1D, else the first n Halton points of
    the box that the domain contains, in Halton order.  The domain fills
    ``fraction`` of the box, so (2n + 16) / fraction points are drawn, of
    which it holds about 2n + 16.  Models are validated and checked on
    these points."""
    d = potential.d
    if d == 1:
        return np.reshape(np.linspace(lo, hi, n), (n, 1))
    m = math.ceil((2 * n + 16) / fraction)
    if m > _MAX_DRAWS:
        raise ConfigError(f"a domain of {d} components fills too little of "
                          f"its box to sample: {n} points need {m} Halton "
                          f"points, more than {_MAX_DRAWS}")
    pts = lo + (hi - lo) * _halton(d, m)
    return pts[potential.contains(pts)][:n]


class IndicatorSimplex:
    """Indicator of the corner simplex {x >= 0, sum_i x_i <= 1}."""

    def __init__(self, d: int):
        self.d = int(d)
        self._tol = 1e-12

    def contains(self, x) -> np.ndarray:
        x = np.atleast_2d(x)
        return np.all(x >= -self._tol, axis=-1) \
            & (np.sum(x, axis=-1) <= 1.0 + self._tol)

    def prox(self, z) -> np.ndarray:
        z = np.atleast_2d(z)
        p = np.maximum(z, 0.0)
        out = p.copy()
        over = np.sum(p, axis=-1) > 1.0
        if np.any(over):
            out[over] = _project_unit_simplex(z[over])
        return out

    def domain_sample(self, n: int) -> np.ndarray:
        return _domain_sample(self, 0.0, 1.0, n, 1.0 / math.factorial(self.d))


def _project_unit_simplex(z: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto {x >= 0, sum x = 1} (sort method)."""
    u = np.sort(z, axis=-1)[:, ::-1]
    css = np.cumsum(u, axis=-1) - 1.0
    idx = np.arange(1, z.shape[-1] + 1)
    cond = u - css / idx > 0
    k = np.sum(cond, axis=-1)
    tau = css[np.arange(z.shape[0]), k - 1] / k
    return np.maximum(z - tau[:, None], 0.0)
