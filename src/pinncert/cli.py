"""Command-line experiment driver.

Subcommands: train, certify, surrogate, compare, schedule.  Exit codes:
0 success, 2 configuration/validation problem, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import certify as cert
from . import presets, surrogate
from .config import (ExperimentConfig, certify_config, load_config, preset_config, save_config,
                     surrogate_run)
from .network import load_network, save_network
from .ode import ConfigurationError, NumericError, require_int, sample_collocation
from .table import point_columns, read_table, write_table
from .train import export_loss_history


def _resolve_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        if args.desk_scale is False:
            raise ConfigurationError("--full-scale cannot be combined with --config: "
                                     "the config file sets the scale")
        cfg = load_config(args.config)
    else:
        cfg = preset_config(args.preset or "decay1d",
                            desk_scale=getattr(args, "desk_scale", True))
    if getattr(args, "preset", None):
        cfg.preset = args.preset
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    cfg.validate()
    return cfg


def _out_dir(cfg) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out / "config.ini")
    return out


def cmd_train(args):
    cfg = _resolve_config(args)
    out = _out_dir(cfg)
    net, problem, history = presets.train_preset(cfg)
    save_network(net, out / "network.json")
    export_loss_history(history, out / "loss.csv")
    if history:
        total, ld, lp = history[-1]
        print(f"final losses: total={total:.6g} data={ld:.6g} phys={lp:.6g}")
    else:
        print("zero epochs requested; network saved at initialization")
    print(f"artifacts written to {out}")
    return 0


def _trajectories(cfg, problem, args):
    """The certified trajectories: interval starts (None off a schedule), x0
    rows (B, d), u rows (B, m), and the local query times they share."""
    if args.schedule:
        if cfg.preset != "pendulum":
            raise ConfigurationError("control schedules apply to the pendulum preset only")
        local = np.linspace(0.0, presets.SCHEDULE_T_TOTAL / presets.SCHEDULE_INTERVALS,
                            args.times_per_interval)
        rows = presets.load_schedule(args.schedule)[:args.intervals]
        return ([t_start for t_start, _, _ in rows], np.array([x0 for _, x0, _ in rows]),
                np.array([[u] for _, _, u in rows]), local)
    if not all(lo == hi for lo, hi in problem.box.x0):
        raise ConfigurationError(f"{problem.name} has no single initial value to certify "
                                 "on the query grid; pass a control schedule with --schedule")
    return ([None], np.array([[lo for lo, _ in problem.box.x0]]),
            np.zeros((1, problem.control_dim)), np.linspace(0.0, problem.t_final, cfg.query_points))


def cmd_certify(args):
    if not 1 <= args.intervals <= presets.SCHEDULE_INTERVALS:
        raise ConfigurationError(f"--intervals must be in 1..{presets.SCHEDULE_INTERVALS}, "
                                 f"got {args.intervals}")
    require_int("--times-per-interval", args.times_per_interval, 1)
    cfg = _resolve_config(args)
    out = _out_dir(cfg)
    problem = presets.build_problem(cfg)
    starts, x0s, us, times = _trajectories(cfg, problem, args)
    net = load_network(args.network or Path(cfg.out_dir) / "network.json")
    certifier = cert.Certifier(net, problem, certify_config(cfg))
    T = len(times)
    certs = certifier.certify(np.tile(times, len(x0s)), np.repeat(x0s, T, axis=0),
                              np.repeat(us, T, axis=0))
    for c, t_start in zip(certs, (s for s in starts for _ in times)):
        if t_start is not None:
            c.t = t_start + c.t            # report global time
            c.constants_used["interval_t_start"] = t_start
    # the trajectories share their local times, so one batched reference serves all
    actual = (cert.actual_error(net, problem, x0s, us, times).ravel()
              if args.with_reference else None)
    path = out / "certificates.csv"
    cert.export_certificates(certs, path, actual)
    if actual is not None:
        violations = sum(1 for c, a in zip(certs, actual) if c.total < a - 1e-12)
        print(f"rigor violations: {violations} of {len(certs)}")
    print(f"certificates written to {path}")
    return 0


def cmd_surrogate(args):
    cfg = _resolve_config(args)
    out = _out_dir(cfg)
    problem = presets.build_problem(cfg)
    net = load_network(args.network or Path(cfg.out_dir) / "network.json")
    certifier = cert.Certifier(net, problem, certify_config(cfg))
    if args.data:
        dataset = surrogate.load_surrogate_dataset(args.data, problem.dim, problem.control_dim)
    else:
        dataset = surrogate.generate_surrogate_data(
            net, problem, cfg.surr_count, cfg.seed + 23, certifier=certifier)
        surrogate.export_surrogate_dataset(dataset, out / "surrogate_data.csv")
    err_net = surrogate.train_error_net(dataset, cfg.surr_hidden, surrogate_run(cfg),
                                        under_weight=cfg.surr_under_weight)
    save_network(err_net, out / "errornet.json")

    # held-out comparison; a problem with one initial value (its x0 box is a
    # point) holds out on the certify query grid, so `compare` can pair the rows
    on_grid = all(lo == hi for lo, hi in problem.box.x0)
    count = cfg.query_points if on_grid else cfg.surr_holdout
    held = sample_collocation(problem, count, cfg.seed + 31)
    if on_grid:
        held.t = np.linspace(0.0, problem.t_final, count)
    e_cert = np.array([c.total for c in certifier.certify(held.t, held.x0, held.u)])
    e_nn = surrogate.evaluate_error_net(err_net, held.t, held.x0, held.u)
    write_table(out / "surrogate_comparison.csv",
                [*point_columns(problem.dim, problem.control_dim), "e_certified", "e_nn"],
                np.column_stack([held.t, held.x0, held.u, e_cert, e_nn]))
    frac = float(np.mean(e_nn >= e_cert))
    print(f"held-out overestimation fraction: {frac:.3f}")
    print(f"surrogate artifacts written to {out}")
    return 0


def cmd_compare(args):
    idx, data = read_table(args.certificates, ("t", "total"))
    totals = data[:, idx["total"]]
    print(f"certificates: {len(totals)} rows, max total {totals.max():.6g}")
    if "actual_error" in idx:
        actual = data[:, idx["actual_error"]]
        violations = int(np.sum(totals < actual - 1e-12))
        mask = actual > 0
        factors = totals[mask] / actual[mask]
        print(f"rigor violations: {violations}")
        if mask.any():
            print(f"overestimation factor: max {factors.max():.6g} mean {factors.mean():.6g}")
        if violations:
            print("FAIL: certificate fell below the reference error")
            return 1
    if args.surrogate:
        sidx, sdata = read_table(args.surrogate, ("t", "e_certified", "e_nn"))
        st, ct = sdata[:, sidx["t"]], data[:, idx["t"]]
        if len(st) != len(ct) or not np.allclose(st, ct):
            raise ConfigurationError("certificate and surrogate query grids are misaligned")
        frac = float(np.mean(sdata[:, sidx["e_nn"]] >= sdata[:, sidx["e_certified"]]))
        print(f"surrogate overestimation fraction: {frac:.3f}")
    return 0


def cmd_schedule(args):
    rows = presets.make_pendulum_schedule()
    presets.export_schedule(rows, args.out_file)
    print(f"schedule with {len(rows)} control intervals written to {args.out_file}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="pinncert")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config")
        p.add_argument("--preset", choices=["decay1d", "pendulum"])
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--desk-scale", dest="desk_scale", action="store_true", default=True)
        p.add_argument("--full-scale", dest="desk_scale", action="store_false")

    p = sub.add_parser("train", help="train a PINN preset")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("certify", help="emit certificates on a query grid or schedule")
    common(p)
    p.add_argument("--network")
    p.add_argument("--with-reference", action="store_true")
    p.add_argument("--schedule", help="pendulum control schedule CSV")
    p.add_argument("--intervals", type=int, default=presets.SCHEDULE_INTERVALS)
    p.add_argument("--times-per-interval", type=int, default=20)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("surrogate", help="train and evaluate the error indicator")
    common(p)
    p.add_argument("--network")
    p.add_argument("--data", help="reuse a saved surrogate dataset CSV")
    p.set_defaults(func=cmd_surrogate)

    p = sub.add_parser("compare", help="summarize certificates vs reference/surrogate")
    p.add_argument("certificates")
    p.add_argument("surrogate", nargs="?")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("schedule", help="write the default pendulum control schedule")
    p.add_argument("out_file")
    p.set_defaults(func=cmd_schedule)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
