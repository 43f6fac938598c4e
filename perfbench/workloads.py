"""The benchmark workloads: inputs from the seed, one timed call, an output check.

Each workload is a closed loop: one caller, one call at a time. It is
built from the benchmark seed and a scratch directory of its own. ``setup``
is the part a user pays before the first call (imports, config, chain,
task, prior) and is what the ``setup_s`` probes time. ``prepare`` makes the
benchmark's own inputs from the seed and is never timed. ``run`` is the
timed call into the program; ``check`` validates its outputs against the
acceptance tolerances and returns the quality figures.
"""
from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

# Acceptance criterion 3: reference start and Cartesian displacement of the
# 7-DOF task.
REFERENCE_Q0_7DOF = np.array([-np.pi / 2, -np.pi / 6, 0.0, -2 * np.pi / 3, 0.0,
                              np.pi / 2, np.pi / 4])
REFERENCE_DISPLACEMENT = [0.20, 0.0, -0.20]


@dataclass
class Outcome:
    """Result of one output check."""

    ok: bool
    detail: str
    quality: dict                    # {name: (value, unit)}, deterministic per seed


class IlcPlanar3:
    """``beamilc ilc`` on the built-in default config, cut to ``ITERATIONS`` passes.

    Three passes is the shortest loop that reaches the replan ending in
    line-search-failure (pass 3); the full ten take about 150 s, more than
    one run may. The plant noise is the default config's (seed 1234)
    whatever the benchmark seed: which replans end in line-search-failure
    changes from one noise stream to the next, and with it the loop time by
    up to 2x, so a seeded stream would measure the seed rather than the
    program.
    """

    name = "ilc_planar3"
    ITERATIONS = 3

    def __init__(self, seed, workdir):
        self.workdir = workdir

    def setup(self):
        from beamilc import cli  # noqa: F401  (the command's import cost)
        from beamilc.config import RunConfig

        self.cfg = RunConfig.default()
        self.chain = self.cfg.chain()
        self.task = self.cfg.task(self.chain)
        self.prior = self.cfg.prior_params()

    def prepare(self):
        doc = json.loads(json.dumps(self.cfg.raw))
        doc["ilc"]["i_max"] = self.ITERATIONS
        os.makedirs(self.workdir, exist_ok=True)
        self.config_path = os.path.join(self.workdir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.out = os.path.join(self.workdir, "run")

    def run(self, tracer):
        from beamilc import cli

        shutil.rmtree(self.out, ignore_errors=True)
        with tracer.span("cli.main"):
            return cli.main(["ilc", "--config", self.config_path, "--out", self.out])

    def check(self, rc, tracer):
        from beamilc.cli import EXIT_FALLBACK, EXIT_OK

        if rc not in (EXIT_OK, EXIT_FALLBACK):
            return Outcome(False, f"exit code {rc}", {})
        with open(os.path.join(self.out, "summary.json"), encoding="utf-8") as fh:
            its = json.load(fh)["iterations"]
        shutil.rmtree(self.out, ignore_errors=True)
        v = [it["metric"] for it in its]
        # every solve the loop made, in call order, as its artifacts report it
        reported = [its[0]["statuses"]["ocp_entry"]["status"]] if its else []
        for it in its:
            st = it["statuses"]
            reported += [st["parameters"], st["disturbance"], st["ocp_next"]["status"]]
        seen = [status for status, _ in tracer.statuses()]
        problems = []
        if len(its) != self.ITERATIONS:
            problems.append(f"{len(its)} records, expected {self.ITERATIONS}")
        if not all(math.isfinite(x) for x in v):
            problems.append("non-finite V")
        elif not v[-1] <= v[0] / 10.0:
            problems.append(f"V_last={v[-1]:.4g} > V1/10={v[0] / 10.0:.4g}")
        if reported != seen:
            problems.append(f"summary statuses {reported} differ from solver returns {seen}")
        quality = {}
        if v and all(math.isfinite(x) for x in v) and v[-1] > 0:
            quality = {"v1": (v[0], "N*m"), "v_last": (v[-1], "N*m"),
                       "v_ratio": (v[0] / v[-1], "ratio"),
                       "pred_err_last": (its[-1]["prediction_error"], "N*m")}
        detail = (f"{len(its)} records, V1={v[0]:.4g}, V_last={v[-1]:.4g}"
                  if v else "no records")
        return Outcome(not problems, "; ".join(problems) or detail, quality)


class Plan7dof:
    """One cold-start OCP solve of the criterion-3 reference task.

    The task is the same for every seed. Offsetting the start by 0.01 to
    0.05 rad per joint makes the first QP report "infeasible" on about
    half of the starts, so the plan falls back after one SQP iteration
    instead of converging in 14: a seeded start would time that defect,
    not the solve.
    """

    name = "plan_7dof"

    def __init__(self, seed, workdir):
        pass

    def setup(self):
        from beamilc import ocp
        from beamilc.config import RunConfig
        from beamilc.kinematics import builtin_chain

        self.chain = builtin_chain("seven_dof")
        self.prior = RunConfig.default().prior_params()
        self.task = ocp.TaskDefinition.from_displacement(
            self.chain, REFERENCE_Q0_7DOF, REFERENCE_DISPLACEMENT,
            n_ctrl=48, n_pred=144, dt=1e-2)

    def prepare(self):
        pass

    def run(self, tracer):
        from beamilc import ocp

        return ocp.solve_ptp_ocp(self.chain, self.task, self.prior)

    def check(self, plan, tracer):
        from beamilc.kinematics import forward_kinematics, orientation_error

        task, n = self.task, self.chain.n_joints
        pose = forward_kinematics(self.chain, plan.states[task.n_ctrl, :n])
        pos_err = float(np.linalg.norm(pose.position - task.goal_position))
        ori_err = float(np.linalg.norm(orientation_error(pose.rotation, task.goal_rotation)))
        dq_end = float(np.max(np.abs(plan.states[task.n_ctrl, n + 1:2 * n + 1])))
        worst = max(plan.limit_violations(self.chain, task).values())
        ok = (not plan.fell_back and abs(task.n_ctrl * task.dt - 0.48) < 1e-12
              and pos_err < 1e-6 and ori_err < 1e-6 and dq_end < 1e-8 and worst <= 1e-9)
        detail = (f"fell_back={plan.fell_back}, pos_err={pos_err:.2e}, ori_err={ori_err:.2e}, "
                  f"dq_end={dq_end:.2e}, worst limit={worst:.2e}")
        return Outcome(ok, detail, {"plan_objective": (plan.objective, "1")})


class LearnPlanar3:
    """One learning step (parameter fit, then disturbance fit) from the prior.

    The record is built as the loop builds its iteration 1: the
    prior-model plan run on the truth plant, with the benchmark seed as the
    config seed. Seed 1234 gives the record of ``ilc_planar3``.
    """

    name = "learn_planar3"

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        from beamilc import estimation  # noqa: F401
        from beamilc.config import RunConfig

        self.cfg = RunConfig.default().with_seed(self.seed)
        self.chain = self.cfg.chain()
        self.task = self.cfg.task(self.chain)
        self.prior = self.cfg.prior_params()
        self.est_cfg = self.cfg.estimation_config(self.prior)

    def prepare(self):
        from beamilc.ocp import resample_disturbance, solve_ptp_ocp
        from beamilc.plant import run_experiment
        from beamilc.trajectory import Trajectory

        est, task = self.est_cfg, self.task
        n_est, dt = est.horizon, est.dt
        self.d0 = Trajectory(dt, np.zeros((n_est, 1)), ("d",))
        plan = solve_ptp_ocp(self.chain, task, self.prior,
                             resample_disturbance(self.d0, task.dt, task.n_pred), None,
                             self.cfg.ocp_weights())
        plant_cfg = self.cfg.plant_config()
        exp = run_experiment(plant_cfg, self.chain, task.q0, plan.u,
                             self.cfg.ilc_config().n_meas, dt, self.prior,
                             seed=plant_cfg.seed + 7919 * 1)
        self.u = Trajectory(dt, plan.u.sample_hold(np.arange(n_est) * dt), plan.u.labels)
        self.y = Trajectory(dt, exp.y.data[:n_est], exp.y.labels)

    def run(self, tracer):
        from beamilc import estimation

        return estimation.learn_iteration(self.chain, self.y, self.u, self.prior, self.d0,
                                          self.task.q0, self.est_cfg)

    def check(self, model, tracer):
        p = model.params.as_array()
        in_box = bool(np.all(np.isfinite(p)) and np.all(p >= self.est_cfg.p_lb)
                      and np.all(p <= self.est_cfg.p_ub))
        order = model.rmse_after < model.rmse_params_only < model.rmse_before
        detail = (f"params in box={in_box}, rmse {model.rmse_before:.4g} -> "
                  f"{model.rmse_params_only:.4g} -> {model.rmse_after:.4g}")
        return Outcome(in_box and order, detail,
                       {"rmse_before": (model.rmse_before, "N*m"),
                        "rmse_params": (model.rmse_params_only, "N*m"),
                        "rmse_after": (model.rmse_after, "N*m")})


WORKLOADS = {w.name: w for w in (IlcPlanar3, Plan7dof, LearnPlanar3)}
