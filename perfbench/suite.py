"""Run every workload, each in a fresh process, and print the results.

    python3 perfbench/suite.py [--seeds 0-9] [--seconds 20] [--layers]
                               [--out perfbench/baseline.json]

For each workload and seed this runs `run.py --trace 0` and prints every
end-to-end metric by name with its unit, its median over the seeds, its
quartiles and its spread (interquartile range over median) against the bound
in BENCHMARK.json. `--layers` adds one traced run per workload at the first
seed. `--out` writes everything, with the interpreter, library versions and
CPU, as JSON; `baseline.json` is such a file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu_model(), "platform": platform.platform()}


def run_once(workload, seed, seconds, trace):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - started
    if not result["correct"]:
        sys.stderr.write("\n".join(line for line in proc.stdout.splitlines()
                                   if line.startswith("INCORRECT")) + "\n")
    return result


def summarize(values):
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def roadmap_check(table):
    """Compare the baseline with the numbers quoted in ROADMAP.md."""
    out = {}
    plate = table.get("plate2d-64", {}).get("step_ms")
    if plate:
        out["plate2d-64 s per step (ROADMAP 0.46-0.52)"] = \
            plate["median"] / 1e3
    bar = table.get("bar1d-default", {}).get("step_ms")
    if bar:
        out["bar1d-default s per 1000-step run (ROADMAP 1.1-1.4)"] = \
            bar["median"]
    robin = table.get("bar1d-256-robin-avg", {}).get("step_attempts_per_step")
    if robin:
        out["bar1d-256-robin-avg rejections in 50 steps (ROADMAP 350)"] = \
            (robin["median"] - 1.0) / 2.0 * 50
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=str(workloads.DEFAULT_SEED),
                        help="comma list of seeds or ranges, e.g. 0-9")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--layers", action="store_true",
                        help="add one traced run per workload")
    parser.add_argument("--out", help="write the results as JSON here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"provenance": provenance(), "seconds": args.seconds,
              "seeds": seeds, "end_to_end": {}, "per_layer": {},
              "correct": True}
    for name in workloads.WORKLOADS:
        runs = [run_once(name, seed, args.seconds, 0) for seed in seeds]
        report["correct"] &= all(r["correct"] for r in runs)
        table = {}
        for metric in runs[0]["metrics"]:
            unit = runs[0]["metrics"][metric]["unit"]
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            table[metric] = {"unit": unit, **stats}
            flag = ""
            if metric in bounds and metric != "setup_s":
                if stats["spread"] > bounds[metric]:
                    flag = "  SPREAD ABOVE BOUND"
                elif stats["spread"] > bounds[metric] / 3:
                    flag = "  spread above a third of the bound"
            print(f"{name:20s} {metric:24s} {stats['median']:.6g} {unit} "
                  f"(q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, spread "
                  f"{stats['spread']:.3f}, bound {bounds.get(metric)})"
                  f"{flag}", flush=True)
        attempts = table["step_attempts_per_step"]["median"]
        print(f"{name:20s} {'step_reject_ratio':24s} "
              f"{(attempts - 1) / (2 * attempts):.6g} ratio")
        print(f"{name:20s} {'verify_fail_ratio':24s} "
              f"{1 - table['verify_pass_ratio']['median']:.6g} ratio",
              flush=True)
        walls = [r["wall_s"] for r in runs]
        print(f"{name:20s} process wall time: median "
              f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s",
              flush=True)
        table["process_wall_s"] = {"unit": "s", **summarize(walls)}
        report["end_to_end"][name] = table
        if args.layers:
            traced = run_once(name, seeds[0], args.seconds, 1)
            report["correct"] &= traced["correct"]
            report["per_layer"][name] = {
                metric: v["value"] for metric, v in traced["metrics"].items()}
            report["per_layer"][name]["process_wall_s"] = traced["wall_s"]
            print(f"{name:20s} traced run: process wall time "
                  f"{traced['wall_s']:.1f} s", flush=True)
    report["roadmap_check"] = roadmap_check(report["end_to_end"])
    for what, value in report["roadmap_check"].items():
        print(f"{what}: {value:.4g}")
    print(f"correct: {report['correct']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
