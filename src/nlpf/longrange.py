"""Long-range interaction fields and their local-limit study.

The pair energy density is B(x) = integral of kappa(x,y) G(chi(x)-chi(y)) dy
and its variational partner b(x) = 2 integral of kappa(x,y) G'(chi(x)-chi(y)) dy,
discretized by midpoint quadrature on the uniform grid.  Every built-in kernel
depends on x - y only, so the quadrature matrix W_ij = w kappa(x_i - x_j) is
Toeplitz (block-Toeplitz in 2D).  It is never formed; `build_coupling`
picks once how to apply it.  A kernel that is a product of per-axis profiles
(Gaussian, constant) makes it T_0 (x) T_1 less its diagonal s_0 = w kappa(0),
with T_a symmetric Toeplitz (Kamm and Nagy, SIAM J. Matrix Anal. Appl. 22
(2000) 155).  Where these factors hold fewer numbers than the stencil below,
on every square plate of 2 x 2 cells or more and on no 1D grid, a field F on
the (n_0, n_1) view maps to T_0 F T_1^T - s_0 F.  Otherwise the generating
stencil on the (2n-1)^N cell offsets is applied by zero-padded FFT
convolution.  Either way storage is O(M).  G is a polynomial in |z|^2, and
expanding |chi_i - chi_j|^2 = |chi_i|^2 + |chi_j|^2 - 2 chi_i . chi_j turns b
and B into bilinear forms, with small coefficient matrices, in the monomials
of chi and their convolutions: one batched convolution per state and one
matrix product per field.  The matrix's symmetry and G's evenness give the
exact pairing identity sum_i w_i b_i . chid_i = d/dt sum_i w_i B_i, which
makes the coupled scheme conserve energy on insulated runs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.linalg

from .errors import ConfigError
from .geometry import Grid


# ---------------------------------------------------------------------------
# pair interaction G


class EvenPolynomialG:
    """G(z) = sum_k c_k |z|^(2k), k >= 1; even and smooth by construction."""

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ConfigError("polynomial coefficients must be a nonempty vector")
        self.coeffs = c  # c[k-1] multiplies |z|^(2k)

    def sup_grad_norm(self, radius: float) -> float:
        s = radius * radius
        return float(sum(2.0 * k * abs(c) * s ** (k - 1) for k, c in
                         enumerate(self.coeffs, start=1)) * radius)


def QuadraticG():
    """G(z) = |z|^2 / 2, the classical Ginzburg-Landau pair term."""
    return EvenPolynomialG([0.5])


# ---------------------------------------------------------------------------
# kernels


class ConstantKernel:
    def __init__(self, value: float):
        if value < 0:
            raise ConfigError("kernel must be nonnegative")
        self.value = float(value)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.full(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]), self.value)

    def sup(self) -> float:
        return self.value

    def profile(self, t: np.ndarray) -> np.ndarray:
        """Per-axis factor: kappa(x, y) = kappa(0) prod_a profile(x_a - y_a)."""
        return np.ones_like(t)


class GaussianKernel:
    """kappa(x,y) = amplitude * exp(-|x-y|^2 / width^2)."""

    def __init__(self, amplitude: float, width: float):
        if amplitude < 0 or width <= 0:
            raise ConfigError("gaussian kernel needs amplitude >= 0, width > 0")
        self.amplitude = float(amplitude)
        self.width = float(width)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        d2 = np.sum(np.square(x - y), axis=-1)
        return self.amplitude * np.exp(-d2 / self.width ** 2)

    def sup(self) -> float:
        return self.amplitude

    def profile(self, t: np.ndarray) -> np.ndarray:
        """Per-axis factor: kappa(x, y) = kappa(0) prod_a profile(x_a - y_a)."""
        return np.exp(-np.square(t) / self.width ** 2)


class ScaledTopHat:
    """kappa_n(x,y) = n^(N+2) * amplitude on |n (x-y)|^2 <= 1, else 0.

    The localizing family behind the local limit; the support boundary is
    included.
    """

    def __init__(self, n: int, dim: int, amplitude: float = 1.0):
        if n < 1:
            raise ConfigError("scaling index must be >= 1")
        self.n = int(n)
        self.dim = int(dim)
        self.amplitude = float(amplitude)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        d2 = np.sum(np.square(x - y), axis=-1)
        inside = (self.n ** 2) * d2 <= 1.0
        return self.amplitude * float(self.n) ** (self.dim + 2) * inside

    def sup(self) -> float:
        return self.amplitude * float(self.n) ** (self.dim + 2)


# ---------------------------------------------------------------------------
# assembled coupling

# points of all columns in apply's work arrays (padded FFT points, or cells)
# per chunk of a stack of fields: a long trajectory goes through in chunks
# that stay in cache.  The pair fields make no temporary larger than a
# chunk's columns: on a 32 x 32 plate, one product of all five outputs'
# stacked (75, 15) matrix makes a 600 KB temporary and ran 1.2x slower
_STACK_POINTS = 1 << 14


def _fft_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, the padded length the FFT of n real
    points runs fastest at: ``scipy.fft.next_fast_len(n, real=True)``,
    without loading ``scipy.fft``."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@functools.cache
def _pair_expansion(degree: int, d: int):
    """Expansion of sum_j W_ij |chi_i - chi_j|^(2m) for m = 0..degree.

    With a = |chi|^2, the binomial and multinomial theorems applied to
    |chi_i - chi_j|^2 = a_i + a_j - 2 chi_i . chi_j give

        sum_j W_ij |chi_i - chi_j|^(2m)
            = sum_(q, alpha) C a_i^p chi_i^alpha (W [a^q chi^alpha])_i

    over q + |alpha| <= m, with p = m - q - |alpha| and
    C = m! / (p! q! alpha!) (-2)^|alpha|; the same sum with an extra factor
    chi_j,e convolves a^q chi^(alpha + e) instead.  Each is a bilinear form
    sum_lk Q_lk u_l (W u_k)_i in the n monomials u = a^q chi^alpha, listed
    by level q + |alpha| <= degree; its left factors have level <= m.
    Returns the monomials (1, chi_0, ..., a first); the plan (columns,
    parents, factors) filling each level above one with earlier columns
    times chi_f or a; S (n, n, degree + 1), the first sum's Q at [..., m];
    V (d, r, n, degree), the second's at [e, ..., m], cut to the r
    monomials of level below degree.
    """
    monos = sorted(((q, a) for q in range(degree + 1)
                    for a in itertools.product(range(degree, -1, -1), repeat=d)
                    if q + sum(a) <= degree), key=lambda u: u[0] + sum(u[1]))
    index = {mono: i for i, mono in enumerate(monos)}
    bounds = np.cumsum(np.bincount([q + sum(a) for q, a in monos]))
    r = bounds[-2]

    def times(i, f):      # column of monomial i times chi_f, or a at f = d
        q, alpha = monos[i]
        return index[(q + (f == d),
                      tuple(k + (e == f) for e, k in enumerate(alpha)))]

    made = {times(i, f): (i, 1 + f)
            for i, f in itertools.product(range(1, r), range(d + 1))}
    plan = tuple((slice(lo, hi), *np.array([made[i] for i in range(lo, hi)]).T)
                 for lo, hi in zip(bounds[1:-1], bounds[2:]))
    S = np.zeros((len(monos), len(monos), degree + 1))
    for m in range(degree + 1):
        for q, alpha in monos[:bounds[m]]:
            p = m - q - sum(alpha)
            fact = map(math.factorial, (p, q) + alpha)
            S[index[(p, alpha)], index[(q, alpha)], m] = (
                (-2) ** sum(alpha) * math.factorial(m) // math.prod(fact))
    V = np.zeros((d, r, len(monos), degree))
    for e in range(d):
        V[e][:, [times(k, e) for k in range(r)]] = S[:r, :r, :-1]
    S.flags.writeable = V.flags.writeable = False    # shared by the cache
    return tuple(monos), plan, S, V


@dataclass
class PairFields:
    """b, B and Kw (chi - shift) of one state, or of a stack of states, all
    from one batched convolution of chi, which the caller keeps.

    The fields depend on chi only through differences, so they are computed
    from chi less its cell mean ``shift``; that keeps the monomials of the
    expansion, and hence its cancellation, at the size of chi's spread.
    """

    shift: np.ndarray   # (..., 1, d)
    b: np.ndarray       # (..., M, d)
    B: np.ndarray       # (..., M)
    kchi: np.ndarray    # (..., M, d) Kw (chi - shift)

    def __getitem__(self, index):
        """The fields of the states ``index`` picks from a stack."""
        return PairFields(*(getattr(self, f.name)[index]
                            for f in fields(PairFields)))

    def __setitem__(self, index, value):
        """Store the fields ``value`` at the states ``index`` of a stack."""
        for f in fields(PairFields):
            getattr(self, f.name)[index] = getattr(value, f.name)


@dataclass
class NonlocalCoupling:
    """Kernel quadrature matrix Kw, applied one of two ways, with pair term G.

    ``stencil`` holds w kappa(x_k - x_0) on the (2n-1)^N cell offsets k,
    zero at k = 0, so (Kw f)_i = sum_(j != i) w kappa(x_i - x_j) f_j is a
    linear convolution of f with it.  Its spectrum at the zero-padded FFT
    size is kept next to it; applying Kw costs one real FFT pair, axis by
    axis.  A separable kernel on a plate gets Toeplitz factors ``t0`` and
    ``t1`` instead, T_0 scaled by w kappa(0), and Kw = T_0 (x) T_1 less its
    diagonal T_0[0, 0] T_1[0, 0].  r = Kw 1 is kept too; storage is O(M).

    ``c_b`` is the a priori bound 2 sup|kappa| sup|G'| |Omega| valid for any
    field with values in the declared range.
    """

    grid: Grid
    w: np.ndarray            # (M,) quadrature weights (cell volumes)
    G: object
    range_radius: float
    c_b: float
    stencil: np.ndarray | None = None    # (2n_1 - 1, ..., 2n_N - 1), even
    t0: np.ndarray | None = None         # (n_0, n_0), symmetric
    t1: np.ndarray | None = None         # (n_1, n_1), symmetric
    spectrum: np.ndarray | None = field(init=False, repr=False, default=None)
    r: np.ndarray = field(init=False, repr=False)   # (M,) Kw 1

    def __post_init__(self):
        cells = self.grid.cells
        self._column_points = self.grid.n_cells
        if self.stencil is not None:
            self._fft_shape = tuple(_fft_size(2 * n - 1) for n in cells)
            # circulant layout: offset k sits at index k mod L on every axis
            padded = np.zeros(self._fft_shape)
            padded[np.ix_(*[np.arange(1 - n, n) % size for n, size in
                            zip(cells, self._fft_shape)])] = self.stencil
            self.spectrum = np.fft.rfftn(padded)
            self._column_points = math.prod(self._fft_shape)
        self.r = self.apply(np.ones(self.grid.n_cells))

    def apply(self, f: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Kw f for every trailing length-M column of ``f``.

        ``adjoint`` applies the transpose, equal to rounding for symmetric
        factors or an even stencil.  FFT axes go one at a time, as in
        rfftn/irfftn, and each inverse one is cut to the grid.
        """
        cells = self.grid.cells
        view = np.reshape(f, (-1,) + cells)
        if self.stencil is None:
            t0, t1 = (self.t0.T, self.t1.T) if adjoint else (self.t0, self.t1)
            out = t0 @ view @ t1.T - self.t0[0, 0] * self.t1[0, 0] * view
            return out.reshape(np.shape(f))
        shape = self._fft_shape
        out = np.fft.rfft(view, shape[-1], axis=-1)
        for a in range(len(cells) - 1, 0, -1):
            out = np.fft.fft(out, shape[a - 1], axis=a)
        out = out * (self.spectrum.conj() if adjoint else self.spectrum)
        for a, n in enumerate(cells[:-1], start=1):
            out = np.fft.ifft(out, shape[a - 1], axis=a)
            out = out[(slice(None),) * a + (slice(n),)]
        out = np.fft.irfft(out, shape[-1], axis=-1)[..., :cells[-1]]
        return out.reshape(np.shape(f))

    def _fields(self, chi: np.ndarray, adjoint: bool = False) -> PairFields:
        """PairFields of one state, or of a stack in chunks written into
        one preallocated stack; ``adjoint`` uses the transposed operator."""
        chi = np.asarray(chi, dtype=float)
        if chi.ndim < 3:
            return self._convolve(chi, adjoint)
        c, d = self.G.coeffs, chi.shape[-1]
        cols = d + 1 if c.size == 1 and not adjoint \
            else len(_pair_expansion(c.size, d)[0])
        n = max(1, _STACK_POINTS // (cols * self._column_points))
        for s in range(0, max(1, len(chi)), n):
            part = self._convolve(chi[s:s + n], adjoint)
            if s == 0:
                out = PairFields(*(np.empty((len(chi),) + v.shape[1:])
                                   for v in vars(part).values()))
            out[s:s + n] = part
        return out

    def _convolve(self, chi: np.ndarray, adjoint: bool) -> PairFields:
        shift = np.add.reduce(chi, axis=-2, keepdims=True) / chi.shape[-2]
        x = chi - shift
        c = self.G.coeffs
        if c.size > 1 or adjoint:
            return self._expanded_fields(shift, x, adjoint)
        # G = c|z|^2: b = 4c (r x - Kw x) and B = c (r a - 2 x.Kw x + Kw a)
        # with a = |x|^2, from one convolution of the columns [x, a]
        a = np.einsum("...i,...i->...", x, x)
        conv = self.apply(np.concatenate(
            [np.swapaxes(x, -1, -2), a[..., None, :]], axis=-2))
        kx = np.swapaxes(conv[..., :-1, :], -1, -2)
        b = 4.0 * c[0] * (self.r[:, None] * x - kx)
        B = c[0] * (self.r * a - 2.0 * np.einsum("...i,...i->...", x, kx)
                    + conv[..., -1, :])
        return PairFields(shift=shift, b=b, B=B, kchi=kx)

    def _expanded_fields(self, shift, x, adjoint):
        """Fields of a polynomial G from `_pair_expansion`, its coefficients
        folded into one matrix per output; ``adjoint`` transposes Kw."""
        x = np.swapaxes(x, -1, -2)                 # (..., d, M)
        c, d = self.G.coeffs, x.shape[-2]
        monos, plan, S, V = _pair_expansion(c.size, d)
        # the monomials, level by level: one batched convolution's columns
        cols = np.empty(x.shape[:-2] + (len(monos), x.shape[-1]))
        cols[..., 0, :] = 1.0
        cols[..., 1:d + 1, :] = x
        cols[..., d + 1, :] = np.add.reduce(x * x, axis=-2)
        for out, parents, factors in plan:
            np.multiply(cols[..., parents, :], cols[..., factors, :],
                        out=cols[..., out, :])
        conv = self.apply(cols, adjoint)

        # B = sum_k c_k S_k and b = sum_k 4k c_k (x S_(k-1) - V_(k-1)), each
        # output sum_lk Q_lk u_l (Kw u_k) over the rows of its folded Q
        kc = 4.0 * np.arange(1, c.size + 1) * c
        B, s, *v = (np.einsum("...li,...li->...i", q @ conv,
                              cols[..., :len(q), :])
                    for q in (S[..., 1:] @ c, S[:V.shape[1], :, :-1] @ kc,
                              *(V @ kc)))
        b = x * s[..., None, :] - np.stack(v, axis=-2)
        kchi = conv[..., 1:d + 1, :].copy()    # a view would keep all of conv
        return PairFields(shift=shift, b=np.swapaxes(b, -1, -2), B=B,
                          kchi=np.swapaxes(kchi, -1, -2))

    def b_field(self, chi: np.ndarray) -> PairFields:
        """PairFields of one field (M, d) or a stack (T, M, d): b_i =
        2 sum_j w_j K_ij G'(chi_i - chi_j) and, from the same convolution,
        B_i = sum_j w_j K_ij G(chi_i - chi_j) and Kw chi."""
        return self._fields(chi)

    def pairing_residual(self, chi, stack: PairFields, dt):
        """(lhs, rhs, residual) of the pairing identity over each step of a
        stack of T + 1 states ``chi`` with fields ``stack``; arrays of T
        values, ``dt`` one per step.

        lhs = sum_i w_i b_i . chid_i with b at the step's first state and
        chid = (chi' - chi)/dt; rhs is the chain-rule derivative of the
        total pair energy, sum_ij w_i W_ij G'(chi_i - chi_j).(chid_i -
        chid_j), associated the other way round: for quadratic G it pairs
        chi with Kw chid (the two states' own convolutions) where lhs pairs
        chid with Kw chi; otherwise the j-sum goes through the transposed
        operator.  They agree when the stencil is even and G is even, so the
        residual is a machine-precision check of the assembled operator.
        """
        r = self.r[:, None]
        dt = np.asarray(dt, dtype=float)[:, None, None]
        wchid = self.w[:, None] * (np.diff(chi, axis=0) / dt)

        def pair(u, v):
            # einsum sums in the operands' stride order: fix one layout
            return np.einsum("...md,...md->...", np.ascontiguousarray(u),
                             np.ascontiguousarray(v))

        lhs = pair(wchid, stack.b[:-1])
        c = self.G.coeffs
        if c.size == 1:
            x, kchi = chi[:-1] - stack.shift[:-1], stack.kchi
            kchid = (np.diff(kchi, axis=0)
                     + r * np.diff(stack.shift, axis=0)) / dt
            rhs = 2.0 * float(c[0]) * (pair(wchid, 2.0 * r * x - kchi[:-1])
                                       - pair(self.w[:, None] * x, kchid))
        else:
            rhs = 0.5 * (lhs + pair(wchid,
                                    self._fields(chi[:-1], adjoint=True).b))
        return lhs, rhs, lhs - rhs


def build_coupling(grid: Grid, kernel, G, range_radius: float) -> NonlocalCoupling:
    """Evaluate a translation-invariant kernel on the cell offsets.

    Offsets along each axis are the centre differences x_k - x_0, k < n,
    mirrored to negative k, so the stencil is even by construction and ties
    on a support boundary fall as they do between actual cell pairs; a
    separable kernel's Toeplitz factors take the same offsets.
    ``range_radius`` bounds |chi(x) - chi(y)| (the potential domain diameter)
    and feeds the bound c_b used by the forcing estimate.
    """
    centers = grid.centers.reshape(grid.cells + (grid.dim,))
    positions = [centers[tuple(slice(None) if b == a else 0
                               for b in range(grid.dim)) + (a,)]
                 for a in range(grid.dim)]
    positions = [x - x[0] for x in positions]
    w = grid.volumes.copy()
    origin = np.zeros(grid.dim)
    c_b = 2.0 * kernel.sup() * G.sup_grad_norm(range_radius) * grid.domain_volume
    if hasattr(kernel, "profile") and sum(n * n for n in grid.cells) \
            < math.prod(2 * n - 1 for n in grid.cells):
        t0, t1 = (scipy.linalg.toeplitz(kernel.profile(pos))
                  for pos in positions)
        t0 *= w[0] * kernel(origin, origin)
        if np.any(t0 < 0) or np.any(t1 < 0):
            raise ConfigError("kernel must be nonnegative")
        return NonlocalCoupling(grid=grid, t0=t0, t1=t1, w=w, G=G,
                                range_radius=range_radius, c_b=c_b)
    offsets = [np.concatenate([-pos[:0:-1], pos]) for pos in positions]
    points = np.stack(np.meshgrid(*offsets, indexing="ij"), axis=-1)
    stencil = w[0] * kernel(points, origin)
    if np.any(stencil < 0):
        raise ConfigError("kernel must be nonnegative")
    # G(0) = G'(0) = 0, so a cell's pair with itself adds nothing; leaving
    # it out spares r chi - Kw chi the cancellation of two equal self terms
    stencil[tuple(n - 1 for n in grid.cells)] = 0.0
    return NonlocalCoupling(grid=grid, stencil=stencil, w=w, G=G,
                            range_radius=range_radius, c_b=c_b)


# ---------------------------------------------------------------------------
# local limit


def local_limit_nu(dim: int) -> float:
    """nu = (1/N) integral over R^N of kappa_tilde(|z|^2) |z|^2 dz for the
    unit top-hat kappa_tilde = 1 on [0, 1]: 2/3 in 1D and pi/4 in 2D."""
    if dim not in (1, 2):
        raise ConfigError("local limit supported for dim 1 and 2")
    return 2.0 / 3.0 if dim == 1 else math.pi / 4.0


@dataclass
class LocalLimitReport:
    sup_error: float
    nu: float
    resolution_warning: bool


def local_limit_error(grid: Grid, n: int, chi_fn,
                      grad_fn) -> LocalLimitReport:
    """Sup over interior cells of |sum_j w_j kappa_n(x_i,x_j)|chi_i-chi_j|^2
    - nu |grad chi(x_i)|^2| for the scaled unit top-hat family.

    The pair sum is 2 B for G = |z|^2 / 2, so it comes from the convolution
    operator.  Interior means distance at least 1/n from the boundary, so
    the kernel support never leaves the domain.  A resolution warning is
    raised when the support radius falls under one cell.
    """
    nu = local_limit_nu(grid.dim)
    x = grid.centers
    chi = np.asarray([chi_fn(p) for p in x], dtype=float)
    if chi.ndim == 1:
        chi = chi[:, None]
    support = 1.0 / n
    res_warn = support < min(grid.h)

    margin_ok = np.ones(grid.n_cells, dtype=bool)
    for a in range(grid.dim):
        margin_ok &= (x[:, a] >= support) & (x[:, a] <= grid.lengths[a] - support)
    idx = np.flatnonzero(margin_ok)

    coupling = build_coupling(grid, ScaledTopHat(n, grid.dim), QuadraticG(), 1.0)
    pair = 2.0 * coupling.b_field(chi).B
    target = nu * np.array([np.sum(np.square(np.asarray(grad_fn(x[i]), float)))
                            for i in idx])
    sup_err = float(np.max(np.abs(pair[idx] - target), initial=0.0))
    return LocalLimitReport(sup_error=sup_err, nu=nu,
                            resolution_warning=res_warn)
