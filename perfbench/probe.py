"""Fixed probe kernels that gauge how fast the machine runs right now.

On a shared machine the speed of one vCPU drifts by 20-40% over tens of
seconds, and no run length averages that out. The benchmark therefore reads
the probe just before and just after every timed phase, and divides the
phase's time by the mean of the two readings. A reading is the probe's time
over its nominal time `NOMINAL_S`.

The probe is frozen code of this directory, so a change to nlpf cannot move
it. Each workload uses the kernel whose instruction mix resembles its own
hot path:

- "sparse": a 64-cell implicit diffusion loop with small numpy operations,
  scipy.sparse assembly and `spsolve`. It is interpreter-bound, like the 1D
  workloads.
- "dense": a blocked pairwise reduction against a 64 MiB matrix, like the
  dense `b_field` of the 2D workloads, and memory-bound like it. The
  benchmark reads `peak_rss_mb` before the first probe runs, so the probe's
  arrays do not count.

`NOMINAL_S` fixes the scale only. On the 2-vCPU Intel Xeon host where
`baseline.json` was taken, in-run readings ranged from about 0.8 to 1.3, so
reported times there are within about 25% of wall times.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import spsolve

NOMINAL_S = {"sparse": 0.017, "dense": 0.055}
REPEATS = 3


def _sparse():
    x = np.linspace(0.0, 1.0, 64)
    theta = 1.0 + 0.2 * np.exp(-(x - 0.5) ** 2 / 0.01)
    for _ in range(40):
        k = 1.0 + 0.1 * theta
        k_face = 2.0 * k[1:] * k[:-1] / (k[1:] + k[:-1])
        main = np.zeros(x.size)
        main[1:] += k_face
        main[:-1] += k_face
        jac = diags([main, -k_face, -k_face], [0, 1, -1]) * 1e-3 \
            + diags(np.ones(x.size))
        theta = spsolve(jac.tocsr(), theta)
        z = np.clip(theta - 0.5, 0.0, 1.0)
        np.einsum("i,i->", z, z)


def _dense():
    m = 4096
    chi = np.linspace(0.0, 1.0, m)[:, None]
    weighted = np.ones((2048, m)) * np.linspace(1.0, 2.0, m)[None, :]
    for s in range(0, weighted.shape[0], 256):
        diff = chi[s:s + 256, None, :] - chi[None, :, :]
        np.einsum("mj,mjd->md", weighted[s:s + 256], diff, optimize=False)


KERNELS = {"sparse": _sparse, "dense": _dense}


class Probe:
    """Reads one kernel's slowdown; keeps every reading of a run."""

    def __init__(self, kind: str):
        self.kind = kind
        self.samples = []

    def measure(self) -> float:
        """Slowdown now: 1.0 at nominal speed, 1.3 when 30% slower."""
        best = min(_timed(KERNELS[self.kind]) for _ in range(REPEATS))
        self.samples.append(best / NOMINAL_S[self.kind])
        return self.samples[-1]


def _timed(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
