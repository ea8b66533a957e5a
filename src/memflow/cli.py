"""Command-line interface: run, verify, oracle, converge.

Exit codes: 0 success, 1 configuration or verification failure, 2 solver
produced non-finite values, 3 monitored bound violated with
fatal-on-violation set.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import spectral
from .agegrid import HistoryTooLongError
from .config import ConfigError, parse_config
from .convergence import LevelFailedError, coupled_self_convergence
from .diagnostics import theorem_bound_report
from .simulation import run
from .verification import run_verification


def _progress(step, n_steps, rec):
    if step % max(1, n_steps // 20) == 0 or step == n_steps:
        print(
            f"  step {step}/{n_steps}  t={rec.t:.4g}  |tau|={rec.stress_sup:.4g}  "
            f"min det G={rec.min_detG:.6g}  y={rec.y_value:.4g}",
            flush=True,
        )


def cmd_run(args) -> int:
    cfg = parse_config(args.config)
    result = run(cfg, restart_from=args.restart, progress=_progress if args.verbose else None)
    print(f"run: {result.message} (exit {result.exit_code})")
    history = result.history
    ages = history.age_grid
    print(f"history: N_s={history.n_slices}  s_max={ages.s_max:.6g}  tail_error={ages.tail_error:.4e}  "
          f"rows stepped in last step={history.live - 1 if history.generation else 0}")
    print(f"flow: substeps={result.substeps}")
    if result.records:
        rec = result.records[-1]
        print(f"final t={rec.t:.6g}  |tau|_inf={rec.stress_sup:.6g}  min det G={rec.min_detG:.6g}  y={rec.y_value:.6g}")
        if len(result.records) >= 10:
            measure = result.measure
            rep = theorem_bound_report(
                result.records, cfg.mu_min, getattr(measure, "s_inf", None), cfg.det_tol
            )
            print(
                f"bounds: stress violations={rep.stress_violations}  det ok={rep.det_ok}  "
                f"y monotone={rep.y_monotone}  lnln(e+y) slope={rep.loglog_slope if rep.loglog_slope is None else round(rep.loglog_slope, 4)}"
            )
    if result.oracle_gap is not None:
        print(f"oracle gap (relative L2, t final): {result.oracle_gap:.4e}")
    return result.exit_code


def cmd_verify(args) -> int:
    result = run_verification()
    print(result.table())
    print("verify:", "PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def cmd_oracle(args) -> int:
    if not 0.0 < args.tol < math.inf:
        raise ConfigError(f"--tol must be a positive finite number, got {args.tol}")
    cfg = parse_config(args.config)
    if cfg.model_name != "oldroyd-b":
        print("oracle: config must use model.name = oldroyd-b", file=sys.stderr)
        return 1
    cfg.oracle = True
    result = run(cfg, progress=_progress if args.verbose else None)
    if not result.ok:
        print(f"oracle: run failed: {result.message}")
        return result.exit_code
    print(f"oracle gap (relative L2 between integral and differential stress): {result.oracle_gap:.4e}")
    if not result.oracle_gap <= args.tol:  # a NaN gap fails too
        print(f"oracle: gap not within tolerance {args.tol:.1e}")
        return 1
    return 0


def cmd_converge(args) -> int:
    cfg = parse_config(args.config)
    try:
        report = coupled_self_convergence(cfg, n_levels=args.levels)
    except LevelFailedError as exc:
        print(f"converge: {exc} (exit {exc.exit_code})")
        return exc.exit_code
    print(report.table())
    print("det drift per level:", ", ".join(f"{d:.3e}" for d in report.extras["det_drift"]))
    print("y final per level:  ", ", ".join(f"{y:.6g}" for y in report.extras["y_final"]))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("level,dt,n_s,u_gap,tau_gap\n")
            gaps_u = report.errors["u_gap"] + [float("nan")]
            gaps_t = report.errors["tau_gap"] + [float("nan")]
            for i, lev in enumerate(report.levels):
                fh.write(f"{i},{lev['dt']},{lev['n_s']},{gaps_u[i]},{gaps_t[i]}\n")
        print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memflow",
        description="Pseudo-spectral 2D viscoelastic flow with fading-memory integral stress",
    )
    parser.add_argument("--threads", type=int, default=None,
                        help="FFT worker count (or MEMFLOW_THREADS); checked, but no transform uses it yet")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a simulation from a config file")
    p.add_argument("config")
    p.add_argument("--restart", default=None, help="checkpoint directory to resume from")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="certify the model catalog and tensor algebra")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="integral vs differential constitutive comparison")
    p.add_argument("config")
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("converge", help="coupled self-convergence study")
    p.add_argument("config")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--out", default=None, help="write the level table as CSV")
    p.set_defaults(func=cmd_converge)

    args = parser.parse_args(argv)
    try:
        if args.threads is not None:
            spectral.set_workers(args.threads, "--threads")
        else:  # read MEMFLOW_THREADS now, so a bad value is a config error
            spectral.get_workers()
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, HistoryTooLongError) as exc:  # the tail tolerance does not fit the memory cap
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
