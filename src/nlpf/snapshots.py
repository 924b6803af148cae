"""Bit-exact trajectory persistence.

Snapshot layout (little endian throughout): magic ``NLPF1`` (5 bytes),
format version (1 byte), grid dimension N (1 byte), order-parameter
dimension d (1 byte), per-axis cell counts (N x u64), time (f64), then the
temperature field and each order-parameter component in row-major f64.
Readers refuse wrong magic or version rather than guessing.

Scalar records go to CSV with a fixed column order and 17 significant
digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ConfigError
from .stepper import RECORD_COLUMNS, _RECORD_DTYPE

MAGIC = b"NLPF1"
VERSION = 1

SNAP_PATTERN = "snap_{:06d}.nlpf"
RECORDS_NAME = "records.csv"
MANIFEST_NAME = "manifest.cfg"


def format_float(v: float) -> str:
    return "%.17g" % float(v)


def write_snapshot(path, cells, time, theta, chi):
    """Write one state; ``cells`` is the per-axis count tuple."""
    theta = np.ascontiguousarray(theta, dtype="<f8")
    chi = np.ascontiguousarray(np.atleast_2d(chi), dtype="<f8")
    n_cells = int(np.prod(cells))
    if theta.shape != (n_cells,) or chi.shape[0] != n_cells:
        raise ConfigError("snapshot fields do not match the cell counts")
    dim, d = len(cells), chi.shape[1]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<BBB", VERSION, dim, d))
        fh.write(struct.pack(f"<{dim}Q", *[int(c) for c in cells]))
        fh.write(struct.pack("<d", float(time)))
        fh.write(theta.tobytes())
        for j in range(d):
            fh.write(np.ascontiguousarray(chi[:, j]).tobytes())


def read_snapshot(path):
    """Read one state back; returns (cells, time, theta, chi)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 3 or raw[:len(MAGIC)] != MAGIC:
        raise ConfigError(f"{path}: not a recognized snapshot (bad magic)")
    off = len(MAGIC)
    version, dim, d = struct.unpack_from("<BBB", raw, off)
    off += 3
    if version != VERSION:
        raise ConfigError(f"{path}: unsupported snapshot version {version}")
    if dim < 1 or d < 1:
        raise ConfigError(f"{path}: nonsensical header (N={dim}, d={d})")
    need = off + 8 * dim + 8
    if len(raw) < need:
        raise ConfigError(f"{path}: truncated header")
    cells = struct.unpack_from(f"<{dim}Q", raw, off)
    off += 8 * dim
    (time,) = struct.unpack_from("<d", raw, off)
    off += 8
    n_cells = int(np.prod(cells))
    body = 8 * n_cells * (1 + d)
    if len(raw) != off + body:
        raise ConfigError(f"{path}: payload size mismatch (corrupted file)")
    theta = np.frombuffer(raw, dtype="<f8", count=n_cells, offset=off).copy()
    off += 8 * n_cells
    comps = []
    for _ in range(d):
        comps.append(np.frombuffer(raw, dtype="<f8", count=n_cells,
                                   offset=off).copy())
        off += 8 * n_cells
    chi = np.stack(comps, axis=-1)
    return cells, float(time), theta, chi


def write_records_csv(path, records):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for row in records:
            fh.write(",".join(format_float(row[c]) for c in RECORD_COLUMNS)
                     + "\n")


def read_records_csv(path):
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header.split(",") != list(RECORD_COLUMNS):
            raise ConfigError(f"{path}: unexpected record columns")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            tokens = line.split(",")
            if len(tokens) != len(RECORD_COLUMNS):
                raise ConfigError(
                    f"{path}:{lineno}: {len(tokens)} fields, expected "
                    f"{len(RECORD_COLUMNS)}")
            try:
                rows.append(tuple(float(tok) for tok in tokens))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    out = np.zeros(len(rows), dtype=_RECORD_DTYPE)
    for i, row in enumerate(rows):
        out[i] = row
    return out


def write_trajectory(out_dir, traj, cells):
    os.makedirs(out_dir, exist_ok=True)
    for i in range(len(traj.times)):
        write_snapshot(os.path.join(out_dir, SNAP_PATTERN.format(i)), cells,
                       traj.times[i], traj.thetas[i], traj.chis[i])
    write_records_csv(os.path.join(out_dir, RECORDS_NAME), traj.records)


def read_trajectory(out_dir, components):
    """Load a stored trajectory; selections are recomputed, not stored.

    The trajectory must be complete for ``components``: one record row per
    step of the configured horizon, and snapshots numbered from 0 without
    gaps at the configured cadence, each stamped with the time of the record
    row it follows.  Anything else is a ConfigError.

    The selection field of the inclusion is a derived quantity (it is the
    residual of the proximal step), so it is rebuilt from consecutive
    snapshots.
    """
    from .stepper import Trajectory, rhs_ell

    config = components.config
    names = sorted(f for f in os.listdir(out_dir)
                   if f.startswith("snap_") and f.endswith(".nlpf"))
    if not names:
        raise ConfigError(f"{out_dir}: no snapshots found")
    expected = [SNAP_PATTERN.format(i) for i in range(len(names))]
    if names != expected:
        gap = next(e for e, n in zip(expected, names) if e != n)
        raise ConfigError(f"{out_dir}: snapshots are not numbered from 0 "
                          f"without gaps; {gap} is missing")
    times, thetas, chis = [], [], []
    cells0 = None
    for f in names:
        cells, time, theta, chi = read_snapshot(os.path.join(out_dir, f))
        if cells0 is None:
            cells0 = cells
        elif cells != cells0:
            raise ConfigError(f"{out_dir}/{f}: cell counts differ across "
                              "snapshots")
        times.append(time)
        thetas.append(theta)
        chis.append(chi)
    rec_path = os.path.join(out_dir, RECORDS_NAME)
    if not os.path.exists(rec_path):
        raise ConfigError(f"{out_dir}: missing {RECORDS_NAME}")
    records = read_records_csv(rec_path)

    n_steps, cadence = config.n_steps, config.cadence
    if records.size != n_steps:
        raise ConfigError(f"{rec_path}: {records.size} rows, the configured "
                          f"horizon takes {n_steps} steps")
    # snapshot i > 0 is written after step min(i * cadence, n_steps)
    after = np.minimum(np.arange(cadence, n_steps + cadence, cadence),
                       n_steps)
    want = np.concatenate([[0.0], records["t"][after - 1]])
    times = np.asarray(times)
    if times.size != want.size:
        raise ConfigError(f"{out_dir}: {times.size} snapshots, expected "
                          f"{want.size} at cadence {cadence}")
    bad = np.flatnonzero(times != want)
    if bad.size:
        i = int(bad[0])
        raise ConfigError(f"{out_dir}/{names[i]}: time {times[i]!r} does "
                          f"not match the record time {want[i]!r}")

    thetas = np.asarray(thetas)
    chis = np.asarray(chis)
    xis = np.zeros_like(chis)
    base = config.dt
    b_olds = components.coupling.b_field(chis[:-1])
    for n in range(1, len(times)):
        dt = times[n] - times[n - 1]
        # accumulated times carry rounding in the last bits; the live
        # solver always stepped by an exact multiple of the nominal dt
        # (except on a ragged tail, which the guard leaves alone)
        k = max(1, int(round(dt / base)))
        if abs(dt - k * base) <= 1e-9 * base:
            dt = k * base
        alpha, g = rhs_ell(components.model, thetas[n - 1], chis[n - 1],
                           b_olds[n - 1], config.rho)
        xis[n] = g - alpha[:, None] * (chis[n] - chis[n - 1]) / dt
    return Trajectory(times=times, thetas=thetas, chis=chis, xis=xis,
                      records=records, cadence=cadence)
