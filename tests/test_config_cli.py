"""Config files, the binary trajectory, record tables, and the command
line."""

import importlib.util
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nlpf.snapshots as snapshots
import nlpf.stepper as stepper
from nlpf.cli import main
from nlpf.config import (build_components, load_config, parse_config_text,
                         render_manifest, resolve_config)
from nlpf.convex import IndicatorSimplex
from nlpf.diagnostics import measured_forcing_bound, run_checks
from nlpf.errors import ConfigError
from nlpf.snapshots import (_frame_dtype, read_records_csv, read_trajectory,
                            write_records_csv, write_trajectory)
from nlpf.stepper import _RECORD_DTYPE, RECORD_COLUMNS, replay_records, run


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("solver.dt 0.1\n")          # missing '='
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")           # duplicate key
    parsed = parse_config_text("# comment\n\nsolver.dt = 0.5\n")
    assert parsed == {"solver.dt": "0.5"}


def test_resolve_applies_defaults_and_rejects_unknown():
    resolved = resolve_config({"solver.dt": "0.5"})
    assert resolved["solver.dt"] == 0.5
    assert resolved["grid.dim"] == 1
    assert resolved["thermo.model"] == "two_phase_power"
    with pytest.raises(ConfigError) as info:
        resolve_config({"solver.dtt": "0.5"})
    assert "solver.dtt" in str(info.value)


def test_manifest_round_trip_is_stable():
    resolved = resolve_config({"solver.dt": "0.001",
                               "init.theta.amplitude": "0.2"})
    text = render_manifest(resolved)
    again = render_manifest(resolve_config(parse_config_text(text)))
    assert text == again
    # keys come out sorted, one per line
    keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
    assert keys == sorted(keys)


def header_bytes(dim):
    return 8 + 8 * dim


def frame_bytes(n_cells, d):
    return 8 * (1 + n_cells * (1 + d))


def stored_trajectory(out, cells=12, d=2):
    """A run of two steps of 0.125, with d phases on the simplex, stored in
    ``out``; returns it with its components."""
    comp, _ = build_components(resolve_config({
        "grid.cells": str(cells), "thermo.model": "multi_phase_power",
        "thermo.components": str(d), "potential.kind": "simplex",
        "init.chi.base": "0.2", "init.chi.amplitude": "0.1",
        "solver.dt": "0.125", "solver.horizon": "0.25",
        "solver.rho": "100"}))
    traj = run(comp)
    write_trajectory(out, traj, (cells,))
    return traj, comp


def test_snapshot_round_trip(tmp_path):
    traj, comp = stored_trajectory(tmp_path)
    raw = (tmp_path / "trajectory.nlpf").read_bytes()
    assert raw[:8] == b"NLPF1" + bytes([2, 1, 2])
    assert struct.unpack_from("<Q", raw, 8) == (12,)
    assert len(raw) == header_bytes(1) + 3 * frame_bytes(12, 2)
    back = read_trajectory(tmp_path, comp)
    assert back.times[1] == 0.125
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.thetas, traj.thetas)
    assert np.array_equal(back.chis, traj.chis)


def test_snapshot_rejects_corruption(tmp_path):
    _, comp = stored_trajectory(tmp_path)
    path = tmp_path / "trajectory.nlpf"
    good = path.read_bytes()
    tamperings = {
        "bad magic": b"X" + good[1:],
        "version 1": good[:5] + bytes([1]) + good[6:],
        "d=1": good[:7] + bytes([1]) + good[8:],
        "cells=(13,)": good[:8] + struct.pack("<Q", 13) + good[16:],
        "whole number": good[:-1],
        "2 frames, expected 3": good[:-frame_bytes(12, 2)],
    }
    for message, raw in tamperings.items():
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match=re.escape(message)):
            read_trajectory(tmp_path, comp)
    path.write_bytes(good)
    read_trajectory(tmp_path, comp)


@pytest.mark.parametrize("frames", [1, 2, 5])
def test_trajectory_written_in_chunks(tmp_path, monkeypatch, frames):
    """Frames written a few at a time give the file written in one go."""
    traj, comp = stored_trajectory(tmp_path / "whole")
    monkeypatch.setattr(snapshots, "_WRITE_CELLS", frames * 12)
    write_trajectory(tmp_path / "chunked", traj, (12,))
    for name in ("trajectory.nlpf", "records.csv"):
        assert (tmp_path / "chunked" / name).read_bytes() \
            == (tmp_path / "whole" / name).read_bytes()


def test_read_trajectory_holds_one_copy(tmp_path, monkeypatch):
    """read_trajectory convolves the frames one replay chunk at a time, so
    its peak allocation stays near the frame table it copies the states
    out of; pair fields of every frame would add more than two copies."""
    from conftest import two_phase_components

    comp = two_phase_components(cells=256, horizon=0.2, dt=1e-3)
    write_trajectory(tmp_path, run(comp), comp.grid.cells)
    monkeypatch.setattr(stepper, "_REPLAY_CELLS", 8 * 256)
    tracemalloc.start()
    try:
        traj = read_trajectory(tmp_path, comp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (traj.times, traj.thetas, traj.chis,
                                  traj.records))
    assert peak <= 2.2 * held


def test_records_csv_round_trip(tmp_path):
    rec = np.zeros(3, dtype=_RECORD_DTYPE)
    rec["t"] = [0.1, 0.2, 0.3]
    rec["total_energy"] = [1.0 / 3.0, np.pi, 1e-17]
    path = tmp_path / "records.csv"
    write_records_csv(path, rec)
    back = read_records_csv(path)
    for name in RECORD_COLUMNS:
        assert np.array_equal(back[name], rec[name])


@pytest.mark.parametrize("rows", [0, 1, 7])
def test_records_csv_bytes_are_savetxts(rows, tmp_path):
    """One ``%`` over all rows writes the bytes of ``np.savetxt``'s
    per-row loop: header, ``%.17g``, comma, newline; a table without rows
    is its header alone.  Non-finite values, -0.0, the smallest subnormal
    and the largest double included."""
    rec = np.zeros(rows, dtype=_RECORD_DTYPE)
    values = np.random.default_rng(rows).standard_normal((rows, 8))
    values.flat[:6] = [np.nan, np.inf, -0.0, 5e-324, 1.7976931348623157e308,
                       -np.inf][:values.size]
    for name, column in zip(RECORD_COLUMNS, values.T):
        rec[name] = column
    write_records_csv(tmp_path / "fast.csv", rec)
    np.savetxt(tmp_path / "loop.csv", rec[list(RECORD_COLUMNS)], fmt="%.17g",
               delimiter=",", header=",".join(RECORD_COLUMNS), comments="")
    assert (tmp_path / "fast.csv").read_bytes() \
        == (tmp_path / "loop.csv").read_bytes()


def test_trajectory_round_trip(tmp_path):
    from conftest import two_phase_components

    comp = two_phase_components(cells=8, horizon=0.05, dt=0.01)
    traj = run(comp)
    write_trajectory(tmp_path, traj, comp.grid.cells)
    back = read_trajectory(tmp_path, comp)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.thetas, traj.thetas)
    assert np.array_equal(back.chis, traj.chis)
    assert measured_forcing_bound(comp, back) \
        == measured_forcing_bound(comp, traj)
    assert np.array_equal(back.records["total_entropy"],
                          traj.records["total_entropy"])


def write_cfg(tmp_path, extra=""):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(
        "grid.cells = 16\n"
        "solver.dt = 0.01\n"
        "solver.horizon = 0.05\n"
        "solver.rho = 100.0\n" + extra)
    return cfg


def test_cli_run_verify_cycle(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.cfg", "records.csv", "trajectory.nlpf"]
    assert main(["verify", str(out)]) == 0
    text = capsys.readouterr().out
    assert "check energy: PASS" in text
    assert (out / "verify_report.csv").exists()


def tamper_selection_margin(out):
    """Set step 1's selection_margin in records.csv to -1, which the frames
    contradict."""
    rec = (out / "records.csv").read_text().splitlines()
    col = rec[0].split(",").index("selection_margin")
    fields = rec[1].split(",")
    fields[col] = "-1.0"
    rec[1] = ",".join(fields)
    (out / "records.csv").write_text("\n".join(rec) + "\n")


def test_cli_verify_catches_tampering(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    tamper_selection_margin(out)
    assert main(["verify", str(out)]) == 2
    assert "column selection_margin of step 1 " in capsys.readouterr().err


@pytest.mark.parametrize("refuse, args, message", [
    (tamper_selection_margin, [], "column selection_margin of step 1 "),
    (lambda out: None, ["--checks", "envelope"], "regularized scheme")],
    ids=["tampered-records", "envelope-unregularised"])
def test_cli_refused_verify_leaves_no_report(tmp_path, capsys, refuse, args,
                                             message):
    """A verify that exits 2 removes the report of an earlier verify of the
    same directory, so no all-PASS report outlives a refusal."""
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert (out / "verify_report.csv").exists()
    refuse(out)
    capsys.readouterr()
    assert main(["verify", str(out)] + args) == 2
    assert message in capsys.readouterr().err
    assert not (out / "verify_report.csv").exists()


def _drop_frame(out, index):
    """Cut frame ``index`` out of the 16-cell, d = 1 trajectory of
    write_cfg."""
    path = out / "trajectory.nlpf"
    raw = path.read_bytes()
    start = header_bytes(1) + index * frame_bytes(16, 1)
    path.write_bytes(raw[:start] + raw[start + frame_bytes(16, 1):])


def delete_middle_snapshot(out):
    _drop_frame(out, 2)


def delete_last_snapshot(out):
    _drop_frame(out, 5)


def _edit_records(out, edit):
    path = out / "records.csv"
    path.write_text("".join(edit(path.read_text().splitlines(True))))


def drop_last_record(out):
    _edit_records(out, lambda lines: lines[:-1])


def truncate_record_line(out):
    _edit_records(out, lambda lines: lines[:3] + [lines[3][:20] + "\n"]
                  + lines[4:])


def non_numeric_record(out):
    _edit_records(out, lambda lines: lines[:2]
                  + [lines[2].replace(",", ",x", 1)] + lines[3:])


def header_only_records(out):
    _edit_records(out, lambda lines: lines[:1])


@pytest.mark.parametrize("tamper", [
    delete_middle_snapshot, delete_last_snapshot, drop_last_record,
    truncate_record_line, non_numeric_record, header_only_records])
def test_cli_verify_rejects_broken_trajectory(tmp_path, capsys, tamper):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    tamper(out)
    assert main(["verify", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("checks", ["default", "selection"])
def test_cli_verify_rejects_chi_outside_domain(tmp_path, capsys, checks):
    """A stored phase field outside the box is a broken trajectory, whatever
    checks are asked for; the error names the frame, its time and the cell."""
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "trajectory.nlpf"
    raw = bytearray(path.read_bytes())
    # frame 3 of the 16-cell, d = 1 run: time, 16 temperatures, then chi
    at = header_bytes(1) + 3 * frame_bytes(16, 1) + 8 * (1 + 16 + 5)
    struct.pack_into("<d", raw, at, 1.5)
    path.write_bytes(bytes(raw))
    assert main(["verify", str(out), "--checks", checks]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "frame 3 at time 0.03 " in err
    assert "cell 5" in err


@pytest.mark.parametrize("column", RECORD_COLUMNS)
def test_cli_verify_rejects_each_tampered_column(tmp_path, capsys, column):
    """A stored record 1e-6 away from the replay of its frames is a broken
    trajectory; the error names the column, the step and its time."""
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    records = read_records_csv(out / "records.csv")
    value = records[column][2]
    records[column][2] = value + 1e-6 * max(1.0, abs(value))
    write_records_csv(out / "records.csv", records)
    assert main(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"column {column}" in err
    assert "step 3" in err and "0.03" in err


def test_cli_verify_names_a_mismatched_frame_time(tmp_path, capsys):
    """The message shows both times as plain floats."""
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "trajectory.nlpf"
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, header_bytes(1) + 2 * frame_bytes(16, 1),
                     0.021)
    path.write_bytes(bytes(raw))
    assert main(["verify", str(out)]) == 2
    assert "frame 2 time 0.021 is off the time grid, which puts it at 0.02" \
        in capsys.readouterr().err


def test_cli_verify_refuses_a_shifted_clock(tmp_path, capsys):
    """A frame time moved off the manifest's time grid, with the records'
    t moved to match, is a broken trajectory: the error names the frame and
    both times."""
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "trajectory.nlpf"
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, header_bytes(1) + 2 * frame_bytes(16, 1),
                     0.0202)
    path.write_bytes(bytes(raw))
    records = read_records_csv(out / "records.csv")
    records["t"][1] = 0.0202
    write_records_csv(out / "records.csv", records)
    assert main(["verify", str(out)]) == 2
    assert "frame 2 time 0.0202 is off the time grid, which puts it at " \
        "0.02" in capsys.readouterr().err


@pytest.mark.parametrize("theta", [math.nan, -0.5], ids=["nan", "negative"])
def test_cli_verify_refuses_a_frame_temperature(tmp_path, capsys, theta):
    """A stored temperature that is not finite and positive is a broken
    trajectory, even when records.csv is the replay of the frames: the
    error names the frame, its time and the cell."""
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "trajectory.nlpf"
    raw = bytearray(path.read_bytes())
    # frame 3 of the 16-cell, d = 1 run: time, then theta of cell 5
    struct.pack_into("<d", raw, header_bytes(1) + 3 * frame_bytes(16, 1)
                     + 8 * (1 + 5), theta)
    path.write_bytes(bytes(raw))
    rewrite_records(out)
    assert main(["verify", str(out)]) == 2
    assert f"frame 3 at time 0.03 has temperature {theta} in cell 5, not " \
        "finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["theta", "chi"])
def test_cli_verify_refuses_frames_of_other_initial_data(tmp_path, capsys,
                                                         field):
    """Frame 0 is the manifest's initial data, bit for bit: a run at bump
    amplitude 0.3 whose manifest was edited back to 0.2 replays its own
    records, yet exits 2 naming the field, the first cell and both
    values."""
    cfg = write_cfg(tmp_path, f"init.{field}.kind = bump\n"
                    f"init.{field}.amplitude = 0.3\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = out / "manifest.cfg"
    text, n = re.subn(rf"(?m)^init\.{field}\.amplitude = .*$",
                      f"init.{field}.amplitude = 0.2", manifest.read_text())
    assert n == 1
    manifest.write_text(text)
    ran = getattr(build_components(load_config(str(cfg)))[0], f"{field}0")
    told = getattr(build_components(load_config(str(manifest)))[0],
                   f"{field}0")
    cell = int(np.flatnonzero((ran != told).ravel())[0])
    assert main(["verify", str(out)]) == 2
    assert f"frame 0 {field} in cell {cell} reads {float(ran.flat[cell])!r}, " \
        f"the manifest's initial data give {float(told.flat[cell])!r}" \
        in capsys.readouterr().err


def test_cli_run_exits_3_when_cg_stops_short(tmp_path, capsys, monkeypatch):
    """A 64 x 64 plate solves its Newton systems by CG; a CG that returns
    without reaching its tolerance fails step 1: exit 3 naming the step,
    the time and the iterations, and nothing written."""
    monkeypatch.setattr(stepper, "cg", lambda a, b, **kw: (np.zeros_like(b),
                                                           23))
    cfg = tmp_path / "plate.cfg"
    cfg.write_text("grid.dim = 2\ngrid.lengths = 1.0,1.0\n"
                   "grid.cells = 64,64\nsolver.dt = 1e-3\n"
                   "solver.horizon = 0.002\nsolver.rho = 100\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert "step 1: temperature step at t=0: CG did not converge in 23 " \
        "iterations" in capsys.readouterr().err
    assert not out.exists()


def _workload_components(name):
    """Components of a benchmark workload at seed 0."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return build_components(resolve_config(parse_config_text(
        workloads.config_text(name, 0))))[0]


@pytest.mark.parametrize("name", ["bar1d-default", "bar1d-256-robin-avg",
                                  "plate2d-64", "plate2d-32-poly3"])
def test_run_records_equal_their_replay(tmp_path, name):
    """The rows run writes block by block are bit for bit the rows
    read_trajectory replays from the stored frames."""
    comp = _workload_components(name)
    traj = run(comp)
    write_trajectory(tmp_path / "out", traj, comp.grid.cells)
    back = read_trajectory(tmp_path / "out", comp)
    assert traj.rejections == back.rejections == 0
    for column in traj.records.dtype.names:
        assert np.array_equal(back.records[column], traj.records[column])


def test_cli_run_refuses_cadence(tmp_path, capsys):
    """Every step is a frame: any output.cadence but 1 exits 2 before
    stepping, naming the key, and writes nothing."""
    cfg = write_cfg(tmp_path, "output.cadence = 2\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "output.cadence" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_refuses_max_halvings(tmp_path, capsys):
    """A step is never retried, so solver.max_halvings is no key: a config
    or a manifest that sets it exits 2 naming it, and writes nothing."""
    cfg = write_cfg(tmp_path, "solver.max_halvings = 5\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "solver.max_halvings" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_failed_step_exits_3(tmp_path, capsys):
    """configs/default.cfg with one Newton iteration per step fails its
    first step: exit 3 naming the step and a cell, and nothing written."""
    cfg = tmp_path / "capped.cfg"
    cfg.write_text((CONFIGS / "default.cfg").read_text()
                   + "solver.newton_cap = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert re.search(r"step 1: .* in cell \d+", capsys.readouterr().err)
    assert not out.exists()


def test_cli_newton_cap_judges_its_last_iterate(tmp_path, capsys,
                                                monkeypatch):
    """The iterate of the last solve that solver.newton_cap allows is judged
    by Newton's stop rule: on configs/default.cfg a cap equal to step 1's
    solve count runs every step (exit 0), and one lower exits 3 at step 1."""
    text = (CONFIGS / "default.cfg").read_text()
    first = tmp_path / "first.cfg"
    first.write_text(text.replace("solver.horizon = 1.0",
                                  "solver.horizon = 1e-3"))
    real, solves = stepper.solveh_banded, []

    def counted(*args, **kwargs):
        solves.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(stepper, "solveh_banded", counted)
    run(build_components(load_config(str(first)))[0])
    monkeypatch.undo()
    need = len(solves)
    assert need >= 2
    for cap, code in ((need, 0), (need - 1, 3)):
        cfg = tmp_path / f"cap{cap}.cfg"
        cfg.write_text(text + f"solver.newton_cap = {cap}\n")
        out = tmp_path / f"cap{cap}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
    assert (f"step 1: temperature step exceeded {need - 1} Newton "
            f"iterations") in capsys.readouterr().err


def run_stored_at_cadence_2(tmp_path, extra="", name="out"):
    """A run whose manifest reads output.cadence = 2, as one written while
    output could still be thinned would."""
    out = tmp_path / name
    cfg = write_cfg(tmp_path, extra)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = out / "manifest.cfg"
    text = manifest.read_text()
    assert "output.cadence = 1\n" in text
    manifest.write_text(text.replace("output.cadence = 1\n",
                                     "output.cadence = 2\n"))
    return out


@pytest.mark.parametrize("check", ["selection", "pairing"])
def test_cli_verify_step_checks_need_every_step(tmp_path, capsys, check):
    """The checks that judge every step refuse a run stored at cadence 2:
    exit 2, naming the key, and no verdict."""
    out = run_stored_at_cadence_2(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(out), "--checks", check]) == 2
    captured = capsys.readouterr()
    assert "output.cadence = 2" in captured.err
    assert f"check {check}:" not in captured.out


def test_cli_verify_lower_needs_every_step(tmp_path, capsys):
    """The lower check rebuilds each step's selection, which a run stored
    at cadence 2 does not allow."""
    out = run_stored_at_cadence_2(tmp_path)
    capsys.readouterr()
    assert main(["verify", str(out), "--checks", "lower"]) == 2
    captured = capsys.readouterr()
    assert "output.cadence = 2" in captured.err
    assert "check lower:" not in captured.out


def test_cli_verify_robin_energy_needs_every_step(tmp_path, capsys):
    """A Robin budget charges each step with its own outflow, so a Robin
    run stored at cadence 2 is refused; the same run stored at every step
    passes, and so does an insulated one."""
    for gamma in ("0.0", "1.0"):
        cfg = write_cfg(tmp_path, f"boundary.gamma = {gamma}\n")
        out = tmp_path / f"out{gamma}"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["verify", str(out), "--checks", "energy"]) == 0
    assert capsys.readouterr().out.count("check energy: PASS") == 2
    out = run_stored_at_cadence_2(tmp_path, "boundary.gamma = 1.0\n",
                                  name="coarse")
    capsys.readouterr()
    assert main(["verify", str(out), "--checks", "energy"]) == 2
    captured = capsys.readouterr()
    assert "output.cadence = 2" in captured.err
    assert "check energy:" not in captured.out


@pytest.mark.parametrize("gamma", ["0.0", "1.0"],
                         ids=["insulated", "robin"])
def test_cli_run_prints_the_energy_figure_verify_judges(tmp_path, capsys,
                                                        gamma):
    """run prints the relative drift from E(0) of an insulated run and the
    largest step residual of a Robin run, as `verify` does."""
    cfg = write_cfg(tmp_path, f"boundary.gamma = {gamma}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    ran = re.search(r"energy (.+?) (\S+), min theta",
                    capsys.readouterr().out)
    assert main(["verify", str(out), "--checks", "energy"]) == 0
    verified = re.search(r"check energy: PASS \((.+) (\S+)\)",
                         capsys.readouterr().out)
    assert ran.groups() == verified.groups()
    assert ran.group(1) == ("relative drift" if gamma == "0.0"
                            else "max step residual")


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_robin_average(tmp_path):
    """configs/robin_average.cfg: a Robin bar with the interval-average lag,
    50 steps in windows of 8."""
    out = tmp_path / "out"
    assert main(["run", "--config", str(CONFIGS / "robin_average.cfg"),
                 "--out", str(out)]) == 0
    return out


def test_verify_replays_interval_average_lag(tmp_path, capsys):
    out = run_robin_average(tmp_path)
    main(["verify", str(out)])
    assert "check entropy: PASS" in capsys.readouterr().out
    comp, _ = build_components(load_config(out / "manifest.cfg"))
    traj = read_trajectory(out, comp)
    [outcome] = run_checks(comp, traj, ["entropy"])
    cell_min = float(np.min(traj.records["entropy_residual_min"]))
    assert f"cell residual min {cell_min:.3e}," in outcome.detail


def flip_lag_mode(out):
    manifest = out / "manifest.cfg"
    text = manifest.read_text()
    assert "solver.lag_mode = interval_average" in text
    manifest.write_text(text.replace("solver.lag_mode = interval_average",
                                     "solver.lag_mode = previous_step"))


def perturb_cell(out, frame, cell):
    """Raise theta in one cell of one frame of the 32-cell run_robin_average."""
    path = out / "trajectory.nlpf"
    raw = bytearray(path.read_bytes())
    at = header_bytes(1) + frame * frame_bytes(32, 1) + 8 + cell * 8
    (theta,) = struct.unpack_from("<d", raw, at)
    struct.pack_into("<d", raw, at, theta + 1e-3)
    path.write_bytes(bytes(raw))


def perturb_snapshot_cell(out):
    perturb_cell(out, 10, 7)


def perturb_ragged_window_cell(out):
    """Frame 49 lies in the last window, steps 49 and 50 of 50."""
    perturb_cell(out, 49, 7)


def rewrite_records(out):
    """Replace records.csv in ``out`` by the rows ``replay_records`` gives on
    its frames and manifest, as a run ending in those frames would write."""
    comp, _ = build_components(load_config(out / "manifest.cfg"))
    frames = np.fromfile(out / "trajectory.nlpf", offset=header_bytes(1),
                         dtype=_frame_dtype(comp.grid.n_cells, comp.model.d))
    thetas = np.ascontiguousarray(frames["theta"])
    chis = np.ascontiguousarray(np.swapaxes(frames["chi"], 1, 2))
    write_records_csv(out / "records.csv",
                      replay_records(comp, thetas, chis))


@pytest.mark.parametrize("mutate, check", [
    (flip_lag_mode, "entropy"), (perturb_snapshot_cell, "energy"),
    (perturb_ragged_window_cell, "entropy")])
def test_verify_catches_mutation(tmp_path, capsys, mutate, check):
    """A mutated run contradicts its records (exit 2); with the records
    rewritten from the mutated frames, the check itself FAILs (exit 3)."""
    out = run_robin_average(tmp_path)
    mutate(out)
    assert main(["verify", str(out)]) == 2
    rewrite_records(out)
    assert main(["verify", str(out)]) == 3
    assert f"check {check}: FAIL" in capsys.readouterr().out


def test_cli_regularised_config_passes_entropy(tmp_path, capsys):
    """The cell entropy carries eps ln theta, the entropy of the eps theta
    energy, so a regularised run clears the entropy check."""
    out = tmp_path / "out"
    assert main(["run", "--config", str(CONFIGS / "regularised.cfg"),
                 "--out", str(out)]) == 0
    assert main(["verify", str(out), "--checks",
                 "energy,entropy,envelope"]) == 0
    text = capsys.readouterr().out
    for check in ("energy", "entropy", "envelope"):
        assert f"check {check}: PASS" in text
    records = read_records_csv(out / "records.csv")
    assert np.min(records["entropy_residual_min"]) > 0.0


@pytest.mark.parametrize("overrides", [
    {"potential.hi": "3.0", "init.chi.base": "2.5"},
    {"thermo.model": "multi_phase_power", "thermo.components": "3"},
], ids=["box-beyond-unit", "three-phase-unit-box"])
def test_cli_run_validates_model_on_potential_domain(tmp_path, capsys,
                                                     overrides):
    """cv exceeds its declared bound c_bar where the configured box reaches
    past the [0, 1] / simplex range the presets are declared on."""
    values = parse_config_text((CONFIGS / "default.cfg").read_text())
    values.update(overrides, **{"solver.horizon": "0.05"})
    cfg = tmp_path / "case.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: c1: ")
    assert not out.exists()


@pytest.mark.parametrize("d", [3, 5])
def test_simplex_plate_is_validated_on_25_points(monkeypatch, d):
    """The model validator sees 25 phase values of the simplex at three
    components and at five, where the simplex fills 1/120 of its box."""
    lattices = []
    real = IndicatorSimplex.domain_sample

    def spy(self, n):
        lattices.append(real(self, n))
        return lattices[-1]

    monkeypatch.setattr(IndicatorSimplex, "domain_sample", spy)
    values = parse_config_text((CONFIGS / "simplex_plate.cfg").read_text())
    values.update({"thermo.components": str(d), "grid.cells": "8,8",
                   "init.chi.base": "0.1", "init.chi.amplitude": "0.05"})
    build_components(resolve_config(values))
    assert [lattice.shape for lattice in lattices] == [(25, d)]


def test_cli_ball_potential_end_to_end(tmp_path, capsys):
    """The default bar on the ball of radius 1 with the decoupled model,
    whose one component makes the ball the interval [-1, 1]."""
    values = parse_config_text((CONFIGS / "default.cfg").read_text())
    values.update({"thermo.model": "decoupled_power", "potential.kind": "ball",
                   "potential.radius": "1.0", "solver.horizon": "0.05"})
    cfg = tmp_path / "case.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    text = capsys.readouterr().out
    for check in ("energy", "entropy", "selection", "pairing", "lower"):
        assert f"check {check}: PASS" in text


def test_cli_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("solver.dt = 0\n")
    assert main(["run", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "nope.cfg"
    assert main(["run", "--config", str(missing),
                 "--out", str(tmp_path / "o2")]) == 2
    unknown = tmp_path / "unk.cfg"
    unknown.write_text("solver.dtt = 0.1\n")
    assert main(["run", "--config", str(unknown),
                 "--out", str(tmp_path / "o3")]) == 2


def test_cli_verify_needs_manifest(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["verify", str(empty)]) == 2


def test_cli_calibrate(capsys):
    assert main(["calibrate", "1.0", "1"]) == 0
    text = capsys.readouterr().out
    assert "rho_star" in text


@pytest.mark.parametrize("dim", ["7", "-3", "0"])
def test_cli_calibrate_rejects_unsupported_dim(capsys, dim):
    assert main(["calibrate", "1.0", dim]) == 2
    err = capsys.readouterr()
    assert "rho_star" not in err.out
    assert "dimension" in err.err


@pytest.mark.parametrize("checks", [",", " , ,", ""])
def test_cli_verify_rejects_empty_check_list(tmp_path, capsys, checks):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", str(out), "--checks", checks]) == 2
    assert "names no check" in capsys.readouterr().err
    assert not (out / "verify_report.csv").exists()


def test_cli_study_writes_csv(tmp_path):
    cfg = write_cfg(tmp_path, "study.dt_levels = 2\n")
    out = tmp_path / "study.csv"
    assert main(["study", "dt-refinement", "--config", str(cfg),
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("dt") or "dt" in lines[0].split(",")
    assert len(lines) >= 3


def test_cli_study_unknown_kind(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["study", "nope", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("kind, extra, key", [
    ("inclusion-dependence", "study.inclusion_ns = 0,10\n",
     "study.inclusion_ns"),
    ("inclusion-dependence", "study.inclusion_ns = -2\n",
     "study.inclusion_ns"),
    ("inclusion-dependence", "study.deltas = 0.0\n", "study.deltas"),
    ("inclusion-dependence", "study.deltas = -1e-3\n", "study.deltas"),
    ("inclusion-dependence", "study.deltas = 1e-3,0.0\n", "study.deltas"),
    ("dependence", "thermo.uniqueness_mode = true\nstudy.deltas = 0.0\n",
     "study.deltas"),
    ("dependence", "thermo.uniqueness_mode = true\nstudy.deltas = -1e-3\n",
     "study.deltas"),
], ids=["inclusion-ns-zero", "inclusion-ns-negative", "inclusion-delta-zero",
        "inclusion-delta-negative", "inclusion-delta-one-zero",
        "dependence-delta-zero", "dependence-delta-negative"])
def test_cli_study_rejects_nonpositive_inputs(tmp_path, capsys, kind, extra,
                                              key):
    cfg = write_cfg(tmp_path, extra)
    assert main(["study", kind, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert key in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("mode, window, steps", [
    ("previous_step", 1, 1), ("previous_step", 5, 1),
    ("interval_average", 1, 1), ("interval_average", 5, 5)])
def test_build_components_lag_window(mode, window, steps):
    """previous_step is a lag window of one step, whatever solver.lag_window
    says; the manifest keeps both keys as written."""
    comp, final = build_components(resolve_config({
        "solver.lag_mode": mode, "solver.lag_window": str(window),
        "solver.rho": "100"}))
    assert comp.config.lag_window == steps
    assert (final["solver.lag_mode"], final["solver.lag_window"]) \
        == (mode, window)


@pytest.mark.parametrize("extra, message", [
    ("solver.lag_mode = nope\n", "unknown lag mode 'nope'"),
    ("solver.lag_window = 0\n", "lag window must be >= 1"),
    ("solver.lag_mode = interval_average\nsolver.lag_window = 0\n",
     "lag window must be >= 1")], ids=["mode", "window", "average-window"])
def test_cli_run_rejects_bad_lag(tmp_path, capsys, extra, message):
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_cfg(tmp_path, extra)),
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_build_components_auto_rho():
    resolved = resolve_config({"solver.rho": "auto",
                               "solver.rho_c_star": "1.0"})
    comp, final = build_components(resolved)
    assert final["solver.rho"] == pytest.approx(1.107854e8, rel=1e-3)
    assert comp.config.rho == final["solver.rho"]


_RUN_PATH_SCRIPT = """
import sys
import nlpf, nlpf.cli, nlpf.config, nlpf.diagnostics, nlpf.snapshots, nlpf.stepper
from nlpf.config import build_components, load_config
from nlpf.diagnostics import DEFAULT_CHECKS, run_checks

configs, out = sys.argv[1], sys.argv[2]
for name in ("simplex_plate.cfg", "default.cfg"):
    comp, _ = build_components(load_config(f"{configs}/{name}"))
    traj = nlpf.stepper.run(comp)
    nlpf.snapshots.write_trajectory(out, traj, comp.grid.cells)
outcomes = run_checks(comp, traj, DEFAULT_CHECKS)
assert all(o.passed for o in outcomes), outcomes
print(sorted(m for m in sys.modules
             if m.startswith(("scipy.stats", "scipy.integrate", "scipy.fft",
                              "scipy.special"))))
"""


def _source_env():
    """The environment of a fresh interpreter that imports this nlpf."""
    src = Path(importlib.util.find_spec("nlpf").origin).parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))


def test_run_path_and_default_checks_load_neither_scipy_stats_nor_integrate(
        tmp_path):
    """Building, running and storing a three-phase plate (the Halton
    validation path) and the default bar (``solver.rho = auto``), then every
    default check of ``nlpf verify``, ``lower`` included, import no module
    of ``scipy.stats`` or ``scipy.integrate``, and, with no insulated axis
    past ``_DENSE_AXIS`` cells, none of ``scipy.fft`` or ``scipy.special``.
    A fresh interpreter, since other tests import scipy modules into this
    one."""
    done = subprocess.run([sys.executable, "-c", _RUN_PATH_SCRIPT,
                           str(CONFIGS), str(tmp_path)], env=_source_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]"]


def test_local_limit_study_loads_no_scipy_integrate():
    """``nlpf study local-limit`` takes the top-hat's moment in closed form
    and imports no module of ``scipy.integrate``."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "nlpf",
                           "study", "local-limit", "--config",
                           str(CONFIGS / "default.cfg")], env=_source_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = [line.rsplit("|", 1)[-1].strip()
              for line in done.stderr.splitlines()
              if line.startswith("import time:")]
    assert "nlpf.longrange" in loaded
    assert [m for m in loaded if m.startswith("scipy.integrate")] == []


def test_help_loads_neither_numpy_nor_scipy():
    """The package resolves the solver's names on first use, so
    ``python -m nlpf --help`` imports neither numpy nor any scipy module."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "nlpf",
                           "--help"], env=_source_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = [line.rsplit("|", 1)[-1].strip()
              for line in done.stderr.splitlines()
              if line.startswith("import time:")]
    assert "nlpf.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("numpy", "scipy")] == []
