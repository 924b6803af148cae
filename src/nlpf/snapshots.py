"""Bit-exact trajectory persistence.

A run is stored as one file, ``trajectory.nlpf`` (little endian
throughout): a header of magic ``NLPF1`` (5 bytes), format version (1 byte),
grid dimension N (1 byte), order-parameter dimension d (1 byte) and the
per-axis cell counts (N x u64), then one frame per state, the initial one
and one per step: the time (f64), the temperature field and each
order-parameter component, in row-major f64.
Readers refuse a wrong magic or version, a header or frame 0 that does not
match the manifest, a payload that is not a whole number of frames, a frame
time off its time grid, and a temperature that is not finite and positive.

Scalar records go to CSV with a fixed column order and 17 significant
digits, which round-trips IEEE doubles exactly; the reader checks them
against their replay from the frames by ``stepper.replay_records``.
"""

from __future__ import annotations

import os
import struct
import warnings

import numpy as np

from .errors import ConfigError
from .stepper import RECORD_COLUMNS, Trajectory, replay_records

MAGIC = b"NLPF1"
VERSION = 2

TRAJECTORY_NAME = "trajectory.nlpf"
RECORDS_NAME = "records.csv"
MANIFEST_NAME = "manifest.cfg"
# cells of the frames written at once: no copy of the whole trajectory
_WRITE_CELLS = 1 << 16


def _frame_dtype(n_cells, d):
    return np.dtype([("t", "<f8"), ("theta", "<f8", (n_cells,)),
                     ("chi", "<f8", (d, n_cells))])


def write_records_csv(path, records):
    np.savetxt(path, records[list(RECORD_COLUMNS)], fmt="%.17g",
               delimiter=",", header=",".join(RECORD_COLUMNS), comments="")


def read_records_csv(path):
    """The record columns of a records file; a table without rows is left
    to the caller's row count check."""
    with open(path, "r", newline="") as fh:
        if fh.readline().strip().split(",") != list(RECORD_COLUMNS):
            raise ConfigError(f"{path}: unexpected record columns")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                return np.loadtxt(fh, delimiter=",", ndmin=1, dtype=[
                    (c, "f8") for c in RECORD_COLUMNS])
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


def write_trajectory(out_dir, traj, cells):
    """Write the header, then every state as one frame, about _WRITE_CELLS
    cells at a time, then the records; ``cells`` is the per-axis counts."""
    n_snaps, n_cells, d = traj.chis.shape
    if int(np.prod(cells)) != n_cells \
            or traj.thetas.shape != (n_snaps, n_cells):
        raise ConfigError("trajectory fields do not match the cell counts")
    size = max(1, _WRITE_CELLS // n_cells)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, TRAJECTORY_NAME), "wb") as fh:
        fh.write(MAGIC + struct.pack("<BBB", VERSION, len(cells), d)
                 + struct.pack(f"<{len(cells)}Q", *[int(c) for c in cells]))
        for a in range(0, n_snaps, size):
            frames = np.empty(min(size, n_snaps - a),
                              dtype=_frame_dtype(n_cells, d))
            frames["t"] = traj.times[a:a + size]
            frames["theta"] = traj.thetas[a:a + size]
            frames["chi"] = np.swapaxes(traj.chis[a:a + size], 1, 2)
            fh.write(frames)
    write_records_csv(os.path.join(out_dir, RECORDS_NAME), traj.records)


def read_trajectory(out_dir, components):
    """Load a stored trajectory.

    The trajectory must be complete for ``components``: a header matching
    the grid and model, one record row per step of the configured horizon,
    and the initial frame and one frame per step, stamped, as the rows are,
    bit for bit with the config's time grid; every cell of every frame holds
    a finite, positive temperature and a phase field in the potential's set.
    The trajectory carries the rows ``stepper.replay_records`` gives on the
    frames, one chunk of them convolved at a time, and each stored value
    must match its replay to round-off.  Anything else is a ConfigError.
    """
    times = components.config.times
    grid, d = components.grid, components.model.d
    path = os.path.join(out_dir, TRAJECTORY_NAME)
    if not os.path.exists(path):
        raise ConfigError(f"{out_dir}: missing {TRAJECTORY_NAME}")
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + 3)
        if len(head) < len(MAGIC) + 3 or head[:len(MAGIC)] != MAGIC:
            raise ConfigError(f"{path}: not a recognized trajectory "
                              "(bad magic)")
        version, dim, n_comp = struct.unpack_from("<BBB", head, len(MAGIC))
        if version != VERSION:
            raise ConfigError(f"{path}: unsupported trajectory version "
                              f"{version}")
        raw_cells = fh.read(8 * dim)
        if len(raw_cells) != 8 * dim:
            raise ConfigError(f"{path}: truncated header")
        cells = struct.unpack(f"<{dim}Q", raw_cells)
        if (dim, n_comp, cells) != (grid.dim, d, tuple(grid.cells)):
            raise ConfigError(
                f"{path}: header N={dim}, d={n_comp}, cells={cells} does not "
                f"match the manifest's N={grid.dim}, d={d}, "
                f"cells={tuple(grid.cells)}")
        frame = _frame_dtype(grid.n_cells, d)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload % frame.itemsize:
            raise ConfigError(f"{path}: payload of {payload} bytes is not a "
                              f"whole number of {frame.itemsize}-byte frames "
                              "(truncated or corrupted file)")
        frames = np.fromfile(fh, dtype=frame)
    rec_path = os.path.join(out_dir, RECORDS_NAME)
    if not os.path.exists(rec_path):
        raise ConfigError(f"{out_dir}: missing {RECORDS_NAME}")
    records = read_records_csv(rec_path)

    if records.size != times.size - 1:
        raise ConfigError(f"{rec_path}: {records.size} rows, the configured "
                          f"horizon takes {times.size - 1} steps")
    if frames.size != times.size:
        raise ConfigError(f"{path}: {frames.size} frames, expected "
                          f"{times.size}, one per step and the initial state")
    for what, got, first in ((f"{path}: frame", frames["t"], 0),
                             (f"{rec_path}: column t of step",
                              records["t"], 1)):
        bad = np.flatnonzero(got != times[first:])
        if bad.size:
            i = int(bad[0])
            raise ConfigError(f"{what} {i + first} time {float(got[i])} is "
                              f"off the time grid, which puts it at "
                              f"{float(times[i + first])}")
    thetas = np.ascontiguousarray(frames["theta"])
    chis = np.ascontiguousarray(np.swapaxes(frames["chi"], 1, 2))
    del frames     # free the frame table before the replay
    bad = np.argwhere(~(np.isfinite(thetas) & (thetas > 0)))
    if bad.size:
        i, cell = (int(v) for v in bad[0])
        raise ConfigError(f"{path}: frame {i} at time {float(times[i])!r} "
                          f"has temperature {float(thetas[i, cell])} in cell "
                          f"{cell}, not finite and positive")
    outside = np.argwhere(~components.potential.contains(chis))
    if outside.size:
        i, cell = (int(v) for v in outside[0])
        raise ConfigError(f"{path}: frame {i} at time {float(times[i])!r} "
                          f"has its phase field outside the potential domain "
                          f"in cell {cell}")
    for name, got, want in (("theta", thetas[0], components.theta0),
                            ("chi", chis[0], components.chi0)):
        bad = tuple(np.argwhere(got != want)[:1].ravel())
        if bad:
            raise ConfigError(f"{path}: frame 0 {name} in cell {bad[0]} reads "
                              f"{float(got[bad])!r}, the manifest's initial "
                              f"data give {float(want[bad])!r}")
    replayed = replay_records(components, thetas, chis)
    for name in RECORD_COLUMNS:
        got, want = records[name], replayed[name]
        bad = np.flatnonzero(~(np.abs(got - want)
                               <= 1e-12 * np.maximum(1.0, np.abs(want))))
        if bad.size:
            n = int(bad[0])
            raise ConfigError(
                f"{rec_path}: column {name} of step {n + 1} at t="
                f"{float(times[n + 1])} reads {float(got[n])}, the "
                f"frames give {float(want[n])}")
    return Trajectory(times=times, thetas=thetas, chis=chis,
                      records=replayed)
