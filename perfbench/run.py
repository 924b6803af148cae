"""nlpf benchmark: times the `nlpf run` and `nlpf verify` paths of a workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root; the nlpf package is imported from `src/` next
to this directory. One process measures one workload, so the peak resident
set is per workload. BLAS and OpenMP pools are pinned to one thread before
numpy loads.

Each iteration runs the `nlpf run` path in process (load config,
`config.build_components`, `stepper.run`, manifest,
`snapshots.write_trajectory`) and then the `nlpf verify` path (load
manifest, `config.build_components`, `snapshots.read_trajectory`,
`diagnostics.run_checks` on the default checks), and checks the outputs.
Iterations repeat until `--seconds` have passed (at least three). Every
reported time is a median of samples rescaled to nominal machine speed by
`probe.py`.

With `--trace 0` the last line holds the end-to-end metrics. With `--trace 1`
each iteration runs once untraced and once traced, and the last line holds
the per-layer metrics of the traced runs; see `tracing.py`. Every other line
is for people.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIN_ITERATIONS = 3
SETUP_MIN_SAMPLES = 5
SETUP_MIN_SECONDS = 0.5
VERIFY_MIN_SECONDS = 0.5
# |traced phase time - sum of all span self times| allowed per phase
RECONCILE_TOLERANCE_S = 1e-3

E2E_UNITS = {
    "setup_s": "s",
    "step_ms": "ms",
    "run_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MB",
    "step_attempts_per_step": "ratio",
    "verify_pass_ratio": "ratio",
}

# per-layer metric -> (span name, aggregate); "total_s" is the inclusive
# span time, "self_s" excludes traced children.
SPAN_METRICS = {
    "longrange.b_field_s": ("longrange.b_field", "total_s"),
    "longrange.b_field_calls": ("longrange.b_field", "calls"),
    "longrange.B_field_s": ("longrange.B_field", "total_s"),
    "longrange.B_field_calls": ("longrange.B_field", "calls"),
    "longrange.pairing_residual_self_s": ("longrange.pairing_residual",
                                          "self_s"),
    "longrange.pairing_residual_calls": ("longrange.pairing_residual",
                                         "calls"),
    "longrange.build_coupling_s": ("longrange.build_coupling", "total_s"),
    "stepper.run_self_s": ("stepper.run", "self_s"),
    "stepper.rhs_ell_s": ("stepper.rhs_ell", "total_s"),
    "stepper.step_chi_s": ("stepper.step_chi", "total_s"),
    "stepper.step_theta_self_s": ("stepper.step_theta", "self_s"),
    "stepper.step_theta_calls": ("stepper.step_theta", "calls"),
    "stepper.linear_solve_s": (tracing.LINEAR_SOLVE, "total_s"),
    "stepper.linear_solve_calls": (tracing.LINEAR_SOLVE, "calls"),
    "thermo.e_ext_calls": ("thermo.e_ext", "calls"),
    "thermo.cv_ext_calls": ("thermo.cv_ext", "calls"),
    "thermo.e_ext_s": ("thermo.e_ext", "total_s"),
    "thermo.cv_ext_s": ("thermo.cv_ext", "total_s"),
    "geometry.assemble_diffusion_s": ("geometry.assemble_diffusion",
                                      "total_s"),
    "geometry.assemble_diffusion_calls": ("geometry.assemble_diffusion",
                                          "calls"),
    "convex.prox_s": ("convex.prox", "total_s"),
    "convex.prox_calls": ("convex.prox", "calls"),
    "snapshots.write_trajectory_s": ("snapshots.write_trajectory", "total_s"),
    "snapshots.read_trajectory_self_s": ("snapshots.read_trajectory",
                                         "self_s"),
    "diagnostics.calibrate_rho_s": ("diagnostics.calibrate_rho", "total_s"),
    **{f"diagnostics.check.{c}_s": (f"diagnostics.check.{c}", "total_s")
       for c in workloads.CHECKS},
}
# per-layer metrics taken from the phase's outputs, not from spans
RESULT_METRICS = ("longrange.coupling_bytes", "stepper.rejected_substeps",
                  "snapshots.bytes_written", "snapshots.files_written",
                  "diagnostics.checks_failed")
# trace_overhead_s: traced minus untraced phase time; phase_self_s: phase
# time outside every traced function
PHASE_METRICS = ("trace_overhead_s", "phase_self_s")
PHASES = ("run", "verify")


def per_layer_names():
    names = list(SPAN_METRICS) + list(RESULT_METRICS) + list(PHASE_METRICS)
    return [f"{phase}.{name}" for phase in PHASES for name in names]


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    return "count"


def import_nlpf():
    """Import nlpf from this checkout's `src/`, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "nlpf" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no nlpf sources under {src}")
    sys.path.insert(0, str(src))
    import nlpf
    import nlpf.config
    import nlpf.diagnostics
    import nlpf.snapshots
    import nlpf.stepper
    if not Path(nlpf.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"benchmark: nlpf imported from {nlpf.__file__}, "
                         f"not from {src}")
    return nlpf


def array_bytes(obj) -> int:
    """nbytes of the numpy arrays an object holds as attributes."""
    import numpy as np
    return sum(v.nbytes for v in vars(obj).values()
               if isinstance(v, np.ndarray))


def run_path(nlpf, cfg_path, out_dir, tracer):
    """The `nlpf run` path; returns timings and the final state.

    ``tracer`` opens the phase's root span around exactly the timed part.
    """
    config, snapshots, stepper = nlpf.config, nlpf.snapshots, nlpf.stepper
    with tracer:
        t0 = time.perf_counter()
        resolved = config.load_config(cfg_path)
        t1 = time.perf_counter()
        components, final = config.build_components(resolved)
        t2 = time.perf_counter()
        traj = stepper.run(components)
        t3 = time.perf_counter()
        os.makedirs(out_dir)
        with open(os.path.join(out_dir, snapshots.MANIFEST_NAME), "w") as fh:
            fh.write(config.render_manifest(final))
        snapshots.write_trajectory(out_dir, traj, components.grid.cells)
        t4 = time.perf_counter()
    return {"setup_s": t2 - t1, "stepping_s": t3 - t2, "phase_s": t4 - t0,
            "steps": int(traj.records.size), "rejections": traj.rejections,
            "theta": traj.thetas[-1].copy(), "chi": traj.chis[-1].copy(),
            "coupling_bytes": array_bytes(components.coupling)}


def verify_path(nlpf, out_dir, tracer):
    """The `nlpf verify` path with the default checks."""
    config, snapshots, diagnostics = \
        nlpf.config, nlpf.snapshots, nlpf.diagnostics
    manifest = os.path.join(out_dir, snapshots.MANIFEST_NAME)
    with tracer:
        t0 = time.perf_counter()
        resolved = config.load_config(manifest)
        components, _ = config.build_components(resolved)
        traj = snapshots.read_trajectory(out_dir, components)
        outcomes = []
        # one check per call, so that each check gets its own span
        for name in diagnostics.DEFAULT_CHECKS:
            with tracer.span(f"diagnostics.check.{name}"):
                outcomes.extend(
                    diagnostics.run_checks(components, traj, (name,)))
        t1 = time.perf_counter()
    return {"phase_s": t1 - t0, "rejections": traj.rejections,
            "checks": {oc.name: oc.passed for oc in outcomes},
            "theta": traj.thetas[-1].copy(), "chi": traj.chis[-1].copy(),
            "coupling_bytes": array_bytes(components.coupling)}


def directory_size(path):
    files = [p for p in Path(path).iterdir() if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class Bench:
    """One workload at one seed, measured in this process."""

    def __init__(self, nlpf, workload, seed, work_dir):
        self.nlpf = nlpf
        self.workload = workload
        self.spec = workloads.WORKLOADS[workload]
        self.variant = workloads.variant_of(seed)
        self.out_dir = work_dir / "out"
        self.cfg_path = work_dir / f"{workload}.cfg"
        self.cfg_path.write_text(workloads.config_text(workload, seed))
        self.reference = self._load_reference()
        self.untraceable = set()

    def _load_reference(self):
        if not REFERENCE.is_file():
            return None
        data = json.loads(REFERENCE.read_text())
        entry = data["workloads"].get(self.workload)
        if entry is None:
            return None
        variant = entry["variants"].get(str(self.variant))
        return None if variant is None else {"cells": entry["cells"],
                                             **variant}

    def run_phase(self, traced):
        """Run path under a fresh tracer; returns (result, tracer)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        gc.collect()
        tracer = tracing.Tracer("run") if traced else tracing.NullTracer()
        patches, missing = tracing.install(tracer) if traced else ([], [])
        self.untraceable.update(missing)
        try:
            result = run_path(self.nlpf, self.cfg_path, self.out_dir, tracer)
        finally:
            tracing.uninstall(patches)
        result["files_written"], result["bytes_written"] = \
            directory_size(self.out_dir)
        return result, tracer

    def verify_phase(self, traced):
        gc.collect()
        tracer = tracing.Tracer("verify") if traced else tracing.NullTracer()
        patches, missing = tracing.install(tracer) if traced else ([], [])
        self.untraceable.update(missing)
        try:
            result = verify_path(self.nlpf, self.out_dir, tracer)
        finally:
            tracing.uninstall(patches)
        return result, tracer

    def setup_once(self):
        resolved = self.nlpf.config.load_config(self.cfg_path)
        t0 = time.perf_counter()
        self.nlpf.config.build_components(resolved)
        return time.perf_counter() - t0

    def check(self, run, verify):
        """Problems with one iteration's outputs; empty when correct."""
        import numpy as np
        problems = []
        if not (np.array_equal(run["theta"], verify["theta"])
                and np.array_equal(run["chi"], verify["chi"])):
            problems.append("final snapshot read back differs from the run")
        for name in self.spec["must_pass"]:
            if not verify["checks"].get(name, False):
                problems.append(f"verify check '{name}' did not PASS")
        ref = self.reference
        if ref is None:
            problems.append(f"no reference for variant {self.variant}")
            return problems
        tol = self.spec["tolerance"]
        idx = ref["cells"]
        gaps = {
            "theta": max(np.max(np.abs(run["theta"][idx] - ref["theta"])),
                         abs(np.mean(run["theta"]) - ref["theta_mean"])),
            "chi": max(np.max(np.abs(run["chi"][idx] - ref["chi"])),
                       np.max(np.abs(np.mean(run["chi"], axis=0)
                                     - ref["chi_mean"]))),
        }
        for field, gap in gaps.items():
            if not gap <= tol[field]:
                problems.append(f"final {field} is {gap:.3e} from the "
                                f"reference (tolerance {tol[field]:g})")
        return problems


def keep_going(started, iterations, seconds, minimum):
    elapsed = time.perf_counter() - started
    return (iterations == 0 or elapsed < seconds
            or (iterations < minimum and elapsed < 3 * seconds))


def measure_end_to_end(bench, seconds, log):
    from probe import Probe

    # An untimed first iteration warms caches and lazy set-up. It also fixes
    # the peak resident set before the probe allocates anything.
    run, _ = bench.run_phase(traced=False)
    verify, _ = bench.verify_phase(traced=False)
    problems = bench.check(run, verify)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    speed = Probe(bench.spec["probe"])
    speed.measure()

    def bracketed(phase):
        """Run ``phase`` between two probe readings; return its result and
        the mean slowdown of the two readings."""
        before = speed.samples[-1]
        result = phase()
        return result, 0.5 * (before + speed.measure())

    raw = {"setup_s": [], "step_ms": [], "run_s": [], "verify_s": []}
    scaled = {name: [] for name in raw}

    def record(name, value, slowdown):
        raw[name].append(value)
        scaled[name].append(value / slowdown)

    attempts, passes = [], []
    started = time.perf_counter()
    iterations = verified = 0
    while keep_going(started, iterations, seconds, MIN_ITERATIONS):
        run, slowdown = bracketed(lambda: bench.run_phase(traced=False)[0])
        iterations += 1
        record("setup_s", run["setup_s"], slowdown)
        record("step_ms", 1e3 * run["stepping_s"] / run["steps"], slowdown)
        record("run_s", run["phase_s"], slowdown)
        attempts.append((run["steps"] + 2 * run["rejections"]) / run["steps"])
        # a short verify path is repeated so that it gets as many samples
        # per second as the others
        verify_time = 0.0
        while verify_time < VERIFY_MIN_SECONDS:
            verify, slowdown = bracketed(
                lambda: bench.verify_phase(traced=False)[0])
            verified += 1
            verify_time += verify["phase_s"]
            record("verify_s", verify["phase_s"], slowdown)
            problems += bench.check(run, verify)
            checks = verify["checks"]
            passes.append(sum(checks.values()) / len(checks))
        log(f"iteration {iterations}: run {run['phase_s']:.4f} s, verify "
            f"{verify['phase_s']:.4f} s, rejections {run['rejections']}, "
            f"checks " + " ".join(f"{k}={'PASS' if v else 'FAIL'}"
                                  for k, v in checks.items()))

    def more_setups():
        setups = []
        while (len(raw["setup_s"]) + len(setups) < SETUP_MIN_SAMPLES
               or sum(raw["setup_s"]) + sum(setups) < SETUP_MIN_SECONDS):
            setups.append(bench.setup_once())
        return setups

    setups, slowdown = bracketed(more_setups)
    for value in setups:
        record("setup_s", value, slowdown)

    metrics = {name: statistics.median(values)
               for name, values in scaled.items()}
    for name, values in raw.items():
        log(f"{name} wall-clock median {statistics.median(values)!r}")
    log(f"probe {speed.kind}: median slowdown "
        f"{statistics.median(speed.samples)!r} over "
        f"{len(speed.samples)} readings")
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["step_attempts_per_step"] = statistics.median(attempts)
    metrics["verify_pass_ratio"] = statistics.median(passes)
    a = metrics["step_attempts_per_step"]
    log(f"step_reject_ratio = {(a - 1) / (2 * a)!r} (rejections / "
        f"attempts, attempts = steps + 2 * rejections)")
    log(f"verify_fail_ratio = {1 - metrics['verify_pass_ratio']!r}")
    log(f"setup samples {len(raw['setup_s'])}, iterations {iterations}, "
        f"verify samples {len(raw['verify_s'])}")
    return metrics, 2 + iterations + verified, problems


def layer_metrics(phase, result, tracer, untraced_s):
    summary = tracing.summarize(tracer.spans)
    out = {}
    for name, (span, field) in SPAN_METRICS.items():
        out[name] = summary.get(span, {}).get(field, 0)
    out["longrange.coupling_bytes"] = result["coupling_bytes"]
    out["stepper.rejected_substeps"] = result["rejections"]
    out["snapshots.bytes_written"] = result.get("bytes_written", 0)
    out["snapshots.files_written"] = result.get("files_written", 0)
    out["diagnostics.checks_failed"] = sum(
        not ok for ok in result.get("checks", {}).values())
    out["trace_overhead_s"] = result["phase_s"] - untraced_s
    out["phase_self_s"] = summary[phase]["self_s"]
    return {f"{phase}.{k}": v for k, v in out.items()}


def reconcile(phase, result, tracer):
    """Problem text if span self times do not add up to the phase time."""
    total_self = sum(agg["self_s"]
                     for agg in tracing.summarize(tracer.spans).values())
    gap = total_self - result["phase_s"]
    if not abs(gap) <= RECONCILE_TOLERANCE_S:
        return [f"{phase}: span self times sum to {total_self:.6f} s, "
                f"phase took {result['phase_s']:.6f} s"]
    return []


def measure_layers(bench, seconds, log):
    import numpy as np
    samples = {}
    problems = []
    last = None
    started = time.perf_counter()
    iterations = 0
    # per-layer metrics have no bound, so one traced iteration is enough
    while keep_going(started, iterations, seconds, 1):
        plain_run, _ = bench.run_phase(traced=False)
        plain_verify, _ = bench.verify_phase(traced=False)
        run, run_tracer = bench.run_phase(traced=True)
        verify, verify_tracer = bench.verify_phase(traced=True)
        iterations += 1
        problems += bench.check(run, verify)
        for traced, plain in ((run, plain_run), (verify, plain_verify)):
            if not (np.array_equal(traced["theta"], plain["theta"])
                    and np.array_equal(traced["chi"], plain["chi"])):
                problems.append("traced final state differs from untraced")
        if verify["checks"] != plain_verify["checks"]:
            problems.append("traced verify verdicts differ from untraced")
        problems += reconcile("run", run, run_tracer)
        problems += reconcile("verify", verify, verify_tracer)
        values = layer_metrics("run", run, run_tracer, plain_run["phase_s"])
        values.update(layer_metrics("verify", verify, verify_tracer,
                                    plain_verify["phase_s"]))
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
        last = (run_tracer, verify_tracer)
        log(f"iteration {iterations}: traced run {run['phase_s']:.4f} s "
            f"(untraced {plain_run['phase_s']:.4f}), traced verify "
            f"{verify['phase_s']:.4f} s (untraced "
            f"{plain_verify['phase_s']:.4f}), spans "
            f"{len(run_tracer.spans)}/{len(verify_tracer.spans)}")
    if bench.untraceable:
        log("no trace target found for "
            + ", ".join(sorted(bench.untraceable)) + "; their metrics read 0")
    for phase, tracer in zip(PHASES, last):
        path = WORK / f"spans-{bench.workload}-{phase}.csv"
        tracing.write_spans(path, tracer.spans)
        log(f"spans of the last traced {phase} phase written to {path}")
    metrics = {name: statistics.median(samples[name])
               for name in per_layer_names()}
    return metrics, 4 * iterations, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    nlpf = import_nlpf()
    import numpy
    import scipy

    def log(text):
        print(text, flush=True)

    log(f"workload {args.workload} seed {args.seed} (variant "
        f"{workloads.variant_of(args.seed)}) trace {args.trace}; python "
        f"{sys.version.split()[0]}, numpy {numpy.__version__}, scipy "
        f"{scipy.__version__}, nproc {os.cpu_count()}, BLAS/OpenMP threads 1")
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        bench = Bench(nlpf, args.workload, args.seed, work_dir)
        if args.trace:
            metrics, attempted, problems = measure_layers(bench, args.seconds,
                                                          log)
        else:
            metrics, attempted, problems = measure_end_to_end(
                bench, args.seconds, log)
    except Exception:
        traceback.print_exc()
        print("benchmark: the workload failed; no result", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for problem in dict.fromkeys(problems):
        log(f"INCORRECT: {problem}")
    units = E2E_UNITS if not args.trace else \
        {name: unit_of(name) for name in metrics}
    for name, value in metrics.items():
        log(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
