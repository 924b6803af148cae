"""Command line front end: run | verify | calibrate | study.

Exit codes: 0 success, 2 validation failure (bad config, bad files, broken
model contract), 3 numerical failure (non-convergence, positivity loss, or a
failed verification assertion on valid input).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import ConfigError, ModelContractError, NlpfError, NumericalError


def _build_parser():
    p = argparse.ArgumentParser(
        prog="nlpf",
        description="nonlocal two-field conduction: run, verify, calibrate, "
                    "study")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="integrate a configuration and store the "
                                    "trajectory")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", required=True)

    pv = sub.add_parser("verify", help="re-check invariants of a stored "
                                       "trajectory")
    pv.add_argument("trajectory_dir")
    pv.add_argument("--checks", default="default",
                    help="comma list, or 'default'")

    pc = sub.add_parser("calibrate", help="solve for the self-consistent "
                                          "truncation level")
    pc.add_argument("c_star", type=float)
    pc.add_argument("dim", type=int)

    ps = sub.add_parser("study", help="run a multi-run measurement protocol")
    ps.add_argument("kind")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", help="CSV output path (stdout when omitted)")
    return p


def _cmd_run(args) -> int:
    from .config import build_components, load_config, render_manifest
    from .diagnostics import energy_figure
    from .snapshots import MANIFEST_NAME, write_trajectory
    from .stepper import run

    if not os.path.exists(args.config):
        raise ConfigError(f"config file not found: {args.config}")
    resolved = load_config(args.config)
    components, final = build_components(resolved)
    traj = run(components)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, MANIFEST_NAME), "w") as fh:
        fh.write(render_manifest(final))
    write_trajectory(args.out, traj, components.grid.cells)
    rec = traj.records
    # the number `verify --checks energy` judges
    label, value, _ = energy_figure(components, traj)
    print(f"wrote {len(traj.times)} snapshots, {rec.size} records to "
          f"{args.out}")
    print(f"energy {label} {value:.3e}, min theta "
          f"{rec['min_theta'].min() if rec.size else float('nan'):.6g}")
    return 0


def _cmd_verify(args) -> int:
    from .config import build_components, load_config
    from .diagnostics import DEFAULT_CHECKS, run_checks
    from .snapshots import MANIFEST_NAME, read_trajectory

    # a refused verify must not leave an earlier report standing
    report = os.path.join(args.trajectory_dir, "verify_report.csv")
    if os.path.exists(report):
        os.remove(report)
    manifest = os.path.join(args.trajectory_dir, MANIFEST_NAME)
    if not os.path.exists(manifest):
        raise ConfigError(f"missing manifest: {manifest}")
    resolved = load_config(manifest)
    components, _ = build_components(resolved)
    traj = read_trajectory(args.trajectory_dir, components)

    names = DEFAULT_CHECKS if args.checks == "default" \
        else tuple(tok.strip() for tok in args.checks.split(",") if tok.strip())
    if not names:
        raise ConfigError(f"--checks '{args.checks}' names no check")
    outcomes = run_checks(components, traj, names)

    with open(report, "w") as fh:
        fh.write("check,passed,detail\n")
        for oc in outcomes:
            detail = oc.detail.replace(",", ";")
            fh.write(f"{oc.name},{int(oc.passed)},{detail}\n")
    for oc in outcomes:
        print(f"check {oc.name}: {'PASS' if oc.passed else 'FAIL'} "
              f"({oc.detail})")
    if all(oc.passed for oc in outcomes):
        return 0
    raise NumericalError("one or more verification checks failed")


def _cmd_calibrate(args) -> int:
    from .diagnostics import calibrate_rho, moser_exponent

    res = calibrate_rho(args.c_star, args.dim)
    p = moser_exponent(args.dim)
    rho = res.rho_star
    lhs = args.c_star * (1.0 + math.log(rho)) ** p
    below = rho / 1.01
    lhs_below = args.c_star * (1.0 + math.log(below)) ** p
    print(f"rho_star = {rho:.6e}")
    print(f"at rho_star:      C*(1+log rho)^{p} = {lhs:.6e} <= rho/2 = "
          f"{rho / 2:.6e}")
    print(f"at rho_star/1.01: C*(1+log rho)^{p} = {lhs_below:.6e} > rho/2 = "
          f"{below / 2:.6e}")
    return 0


def _cmd_study(args) -> int:
    from .config import load_config
    from .studies import run_study, study_csv

    if not os.path.exists(args.config):
        raise ConfigError(f"config file not found: {args.config}")
    resolved = load_config(args.config)
    rows = run_study(args.kind, resolved)
    text = study_csv(rows)
    if args.out:
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "calibrate": _cmd_calibrate,
    "study": _cmd_study,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ModelContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except NlpfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
