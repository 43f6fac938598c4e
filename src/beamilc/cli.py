"""Command-line entry point: simulate | estimate | ocp | ilc | plot.

Every subcommand reads one JSON run configuration, writes CSV/JSON
artifacts into the output directory and exits with 0 on success, 2 when a
solver fell back to a previous iterate, and 1 on hard errors.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import scipy

from . import __version__
from .config import ConfigError, RunConfig, load_json
from .dynamics import PARAM_NAMES, PARAM_UNITS, BeamParams
from .estimation import learn_iteration
from .ilc import run_ilc
from .kinematics import forward_kinematics, orientation_error
from .ocp import resample_disturbance, solve_ptp_ocp
from .plant import run_experiment
from .svgplot import Panel, render
from .trajectory import Trajectory

EXIT_OK = 0
EXIT_HARD = 1
EXIT_FALLBACK = 2


def _json_dump(obj, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(cfg, chain):
    return {
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "chain": chain.name,
        "versions": {"beamilc": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }


def _out_dir(args, cfg, default):
    out = args.out or cfg.raw.get("out_dir") or default
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(args):
    cfg = _load_config(args)
    chain = cfg.chain()
    u = Trajectory.from_csv(args.input)
    est = cfg.estimation_config()
    n = cfg.ilc_config().n_meas if args.samples is None else args.samples
    res = run_experiment(cfg.plant_config(), chain, cfg.task(chain).q0, u,
                         n, est.dt, cfg.prior_params())
    out = _out_dir(args, cfg, "beamilc_sim")
    res.y.to_csv(os.path.join(out, "y_meas.csv"))
    res.joints.to_csv(os.path.join(out, "joints.csv"))
    if args.dump_states:
        labels = tuple(f"s{i}" for i in range(res.truth_states.shape[1]))
        Trajectory(est.dt, res.truth_states, labels).to_csv(
            os.path.join(out, "truth_states.csv"))
    _json_dump(_manifest(cfg, chain), os.path.join(out, "manifest.json"))
    return EXIT_OK


def cmd_estimate(args):
    cfg = _load_config(args)
    chain = cfg.chain()
    y = Trajectory.from_csv(args.y)
    u = Trajectory.from_csv(args.u)
    p0 = cfg.prior_params()
    est_cfg = cfg.estimation_config(p0)
    d_prev = Trajectory.from_csv(args.d_prev) if args.d_prev else None
    model = learn_iteration(chain, y, u, p0, d_prev, cfg.task(chain).q0, est_cfg,
                            include_disturbance=not cfg.ilc_config().ablation_no_disturbance,
                            opts=cfg.raw.get("solver"))
    out = _out_dir(args, cfg, "beamilc_estimate")
    doc = model.as_dict()
    doc["param_units"] = dict(zip(PARAM_NAMES, PARAM_UNITS))
    doc["disturbance_csv"] = "d.csv"
    _json_dump(doc, os.path.join(out, "model.json"))
    model.disturbance.to_csv(os.path.join(out, "d.csv"))
    _json_dump(_manifest(cfg, chain), os.path.join(out, "manifest.json"))
    fell_back = (model.statuses.get("parameters_fell_back", False)
                 or model.statuses.get("disturbance_fell_back", False))
    return EXIT_FALLBACK if fell_back else EXIT_OK


def _model_params(path):
    """The parameters in a model JSON's ``"params"`` object."""
    doc = load_json(path)
    try:
        return BeamParams(**doc["params"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: \"params\" must be an object of {', '.join(PARAM_NAMES)}: "
                         f"{exc}") from None


def cmd_ocp(args):
    cfg = _load_config(args)
    chain = cfg.chain()
    task = cfg.task(chain)
    params = cfg.prior_params()
    if args.model:
        params = _model_params(args.model)
    d = None
    if args.d:
        d = resample_disturbance(Trajectory.from_csv(args.d), task.dt, task.n_pred)
    u_prev = None
    if args.u_prev:
        prev = Trajectory.from_csv(args.u_prev)
        if abs(prev.dt - task.dt) > 1e-12:
            raise ValueError(f"u_prev is sampled every {prev.dt:g} s, not every {task.dt:g} s")
        if prev.n_channels != chain.n_joints:
            raise ValueError(f"u_prev has {prev.n_channels} columns, not {chain.n_joints} "
                             "joint inputs")
        u_prev = prev.data
    plan = solve_ptp_ocp(chain, task, params, d, u_prev, cfg.ocp_weights(),
                         opts=cfg.raw.get("solver"))
    out = _out_dir(args, cfg, "beamilc_ocp")
    _write_plan(plan, chain, task, out)
    _json_dump(_manifest(cfg, chain), os.path.join(out, "manifest.json"))
    return EXIT_FALLBACK if plan.fell_back else EXIT_OK


def _write_plan(plan, chain, task, out):
    n = chain.n_joints
    n_p = task.n_pred
    cols = [plan.u.data,
            plan.states[:n_p, :n],
            plan.states[:n_p, n + 1:2 * n + 1],
            plan.states[:n_p, n:n + 1],
            plan.states[:n_p, 2 * n + 1:2 * n + 2],
            plan.tau_hat[:, None], plan.tau[:, None]]
    labels = (tuple(f"u{i+1}" for i in range(n))
              + tuple(f"q{i+1}" for i in range(n))
              + tuple(f"dq{i+1}" for i in range(n))
              + ("theta", "dtheta", "tau_hat_pred", "tau_pred"))
    Trajectory(task.dt, np.hstack(cols), labels).to_csv(
        os.path.join(out, "planned_motion.csv"))
    pose = forward_kinematics(chain, plan.states[task.n_ctrl, :n])
    summary = {
        "status": plan.solution.status,
        **plan.solution.qp_effort,
        "fell_back": plan.fell_back,
        "objective": plan.objective,
        "iterations": plan.solution.iterations,
        "constraint_violation": plan.solution.constraint_violation,
        "theta_goal": plan.theta_goal,
        "tau_goal": plan.tau_goal,
        "terminal_position_error": float(np.linalg.norm(pose.position - task.goal_position)),
        "terminal_orientation_error": float(np.linalg.norm(
            orientation_error(pose.rotation, task.goal_rotation))),
        "limit_violations": plan.limit_violations(chain, task),
    }
    _json_dump(summary, os.path.join(out, "plan_summary.json"))


def cmd_ilc(args):
    cfg = _load_config(args)
    chain = cfg.chain()
    task = cfg.task(chain)
    p0 = cfg.prior_params()
    records = run_ilc(chain, task, p0, cfg.estimation_config(p0), cfg.ocp_weights(),
                      cfg.plant_config(), cfg.ilc_config(), solver_opts=cfg.raw.get("solver"))
    out = _out_dir(args, cfg, "beamilc_run")
    _json_dump(_manifest(cfg, chain), os.path.join(out, "manifest.json"))
    _json_dump(cfg.raw, os.path.join(out, "config.json"))
    summary = {"iterations": []}
    for rec in records:
        it_dir = os.path.join(out, f"iter_{rec.iteration:03d}")
        os.makedirs(it_dir, exist_ok=True)
        rec.u.to_csv(os.path.join(it_dir, "u.csv"))
        rec.y_meas.to_csv(os.path.join(it_dir, "y_meas.csv"))
        rec.y_pred.to_csv(os.path.join(it_dir, "y_pred.csv"))
        rec.disturbance.to_csv(os.path.join(it_dir, "d.csv"))
        _json_dump({"params": rec.params.as_dict(),
                    "param_units": dict(zip(PARAM_NAMES, PARAM_UNITS)),
                    "disturbance_csv": "d.csv",
                    "statuses": rec.statuses}, os.path.join(it_dir, "model.json"))
        summary["iterations"].append({
            "iteration": rec.iteration,
            "metric": rec.metric,
            "prediction_error": rec.prediction_error,
            "rmse_before": rec.rmse_before,
            "rmse_params_only": rec.rmse_params_only,
            "rmse_after": rec.rmse_after,
            "flagged": rec.flagged,
            "statuses": rec.statuses,
        })
    _json_dump(summary, os.path.join(out, "summary.json"))
    return EXIT_FALLBACK if any(r.flagged for r in records) else EXIT_OK


def cmd_plot(args):
    run = args.run
    summary_path = os.path.join(run, "summary.json")
    if not os.path.exists(summary_path):
        raise FileNotFoundError(f"no summary.json in {run}")
    with open(summary_path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    iters = [it["iteration"] for it in summary["iterations"]]
    if not iters:
        raise ValueError("run directory holds no iterations")
    out = args.out or run
    os.makedirs(out, exist_ok=True)

    p1 = Panel(title="Output prediction error", xlabel="iteration",
               ylabel="|y_meas - y_pred|", logy=True)
    p1.line(iters, [it["prediction_error"] for it in summary["iterations"]])
    p2 = Panel(title="Residual vibration metric", xlabel="iteration",
               ylabel="V (N*m)", logy=True)
    p2.line(iters, [it["metric"] for it in summary["iterations"]])
    render([p1, p2], os.path.join(out, "learning_curves.svg"))

    first = Trajectory.from_csv(os.path.join(run, f"iter_{iters[0]:03d}", "y_meas.csv"))
    last = Trajectory.from_csv(os.path.join(run, f"iter_{iters[-1]:03d}", "y_meas.csv"))
    p3 = Panel(title="Measured filtered torque", xlabel="t (s)", ylabel="tau_hat (N*m)")
    p3.line(first.times, first.data[:, 0], label=f"iteration {iters[0]}")
    p3.line(last.times, last.data[:, 0], label=f"iteration {iters[-1]}")
    render([p3], os.path.join(out, "torque_traces.svg"))
    return EXIT_OK


def _load_config(args):
    if args.config:
        cfg = RunConfig.load(args.config)
    else:
        cfg = RunConfig.default()
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="run configuration JSON file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="output directory")

    parser = argparse.ArgumentParser(
        prog="beamilc",
        description="Learning control for vibration-free flexible beam handling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="run one experiment on the truth plant")
    p.add_argument("--input", required=True, help="joint acceleration CSV")
    p.add_argument("--samples", type=int, help="measurement samples")
    p.add_argument("--dump-states", action="store_true",
                   help="also write the truth state trace")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("estimate", parents=[common],
                       help="fit parameters and disturbance to a record")
    p.add_argument("--y", required=True, help="measured output CSV")
    p.add_argument("--u", required=True, help="applied input CSV (estimation grid)")
    p.add_argument("--d-prev", help="previous disturbance CSV")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("ocp", parents=[common],
                       help="plan the point-to-point motion")
    p.add_argument("--model", help="learned model JSON (default: analytic prior)")
    p.add_argument("--d", help="disturbance CSV (estimation grid)")
    p.add_argument("--u-prev", help="previous input CSV for warm start")
    p.set_defaults(fn=cmd_ocp)

    p = sub.add_parser("ilc", parents=[common], help="run the full learning loop")
    p.set_defaults(fn=cmd_ilc)

    p = sub.add_parser("plot", parents=[common], help="render run figures as SVG")
    p.add_argument("--run", required=True, help="ilc run directory")
    p.set_defaults(fn=cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HARD


if __name__ == "__main__":
    sys.exit(main())
