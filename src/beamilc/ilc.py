"""Outer learning loop: plan, execute on the plant, learn, replan.

Each iteration applies the current feedforward plan to the truth plant,
fits the lumped parameters and the equivalent disturbance to the measured
record, and replans. Records carry everything needed for the convergence
figures: measurement, prediction, prediction-error norm and the residual
vibration metric.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .dynamics import fast_rollout  # noqa: F401  (perfbench's _layer_table wraps this name)
from .estimation import learn_iteration
from .ocp import resample_disturbance, solve_ptp_ocp
from .plant import run_experiment
from .trajectory import Trajectory

log = logging.getLogger("beamilc.ilc")


@dataclass(frozen=True)
class IlcConfig:
    """Loop settings: iteration count, measurement horizon, metric window."""

    i_max: int = 10
    metric_window: float = 5.0   # seconds of post-motion data entering V
    n_meas: int = 920            # measurement samples per experiment
    ablation_no_disturbance: bool = False

    def __post_init__(self):
        for nm, v in (("i_max", self.i_max), ("n_meas", self.n_meas)):
            if type(v) is not int or v < 1:  # bool is not int here
                raise ValueError(f"{nm} must be a positive int, not {v!r}")
        if self.metric_window <= 0:
            raise ValueError("metric window must be positive")


@dataclass
class IlcRecord:
    """Everything produced by one ILC iteration."""

    iteration: int
    u: Trajectory
    y_meas: Trajectory
    params: object
    disturbance: Trajectory
    y_pred: Trajectory
    prediction_error: float        # ||y_meas - y_pred|| over the estimation horizon
    metric: float                  # residual vibration metric V
    rmse_before: float
    rmse_params_only: float
    rmse_after: float
    statuses: dict = field(default_factory=dict)
    flagged: bool = False


def vibration_metric(y, motion_end, window_samples):
    """Normalized mean absolute deviation of the trace after the motion.

    ``V = (1/N_r) * sum_{k=N..N+N_r} |y_k - mean|`` with the mean taken over
    the same window; constant traces give exactly zero.
    """
    arr = y.data[:, 0] if isinstance(y, Trajectory) else np.asarray(y, dtype=float)
    if motion_end < 0 or window_samples < 1:
        raise ValueError("invalid metric window")
    if motion_end + window_samples >= arr.shape[0]:
        raise ValueError("trace shorter than the metric window")
    seg = arr[motion_end:motion_end + window_samples + 1]
    if np.max(seg) == np.min(seg):
        return 0.0
    return float(np.sum(np.abs(seg - np.mean(seg))) / window_samples)


def metric_window_samples(task, est_cfg, ilc_cfg):
    """Motion end and metric window of a record, in samples of the estimation grid.

    Raises ``ValueError`` unless each record holds the estimation horizon and
    a window of at least one sample after the motion.
    """
    if ilc_cfg.n_meas < est_cfg.horizon:
        raise ValueError(f"n_meas {ilc_cfg.n_meas} is shorter than the estimation "
                         f"horizon {est_cfg.horizon}")
    motion_end = int(round(task.n_ctrl * task.dt / est_cfg.dt))
    n_window = int(np.floor(ilc_cfg.metric_window / est_cfg.dt))
    if n_window < 1:
        raise ValueError(f"metric_window {ilc_cfg.metric_window:g} s is shorter than one "
                         f"sample of {est_cfg.dt:g} s")
    if motion_end + n_window + 1 > ilc_cfg.n_meas:
        raise ValueError(f"n_meas {ilc_cfg.n_meas} is too short for the motion and the "
                         f"metric window ({motion_end} + {n_window} + 1 samples)")
    return motion_end, n_window


def _ocp_status(plan):
    """A plan's status, fallback flag, SQP iterations and QP effort counts, for the artifacts."""
    return {"status": plan.solution.status, "iterations": plan.solution.iterations,
            **plan.solution.qp_effort, "fell_back": plan.fell_back}


def run_ilc(chain, task, p0, est_cfg, ocp_weights, plant_cfg, ilc_cfg, solver_opts=None):
    """Execute the full learning loop and return one record per iteration.

    The loop starts from the prior ``p0`` and the zero disturbance, and the
    plant's nominal model is ``p0``. A record's prediction is the model from
    before its experiment rolled out on the record's input: the learning
    step's output of its prior model, which its ``rmse_before`` reads. The
    plant draws an independent noise stream per iteration, derived
    deterministically from its seed.
    """
    n_est = est_cfg.horizon
    dt_est = est_cfg.dt
    motion_end, n_window = metric_window_samples(task, est_cfg, ilc_cfg)

    p_cur, d_cur = p0, None
    plan = solve_ptp_ocp(chain, task, p0, None, None, ocp_weights, opts=solver_opts)
    u_cur = plan.u
    ocp_status = _ocp_status(plan)

    records = []
    for i in range(1, ilc_cfg.i_max + 1):
        exp = run_experiment(plant_cfg, chain, task.q0, u_cur, ilc_cfg.n_meas,
                             dt_est, p0, seed=plant_cfg.seed + 7919 * i)
        y_meas = exp.y
        u_est = Trajectory(dt_est, u_cur.sample_hold(np.arange(n_est) * dt_est),
                           u_cur.labels)
        y_fit = Trajectory(dt_est, y_meas.data[:n_est], y_meas.labels)

        model = learn_iteration(chain, y_fit, u_est, p_cur, d_cur, task.q0, est_cfg,
                                include_disturbance=not ilc_cfg.ablation_no_disturbance,
                                opts=solver_opts)

        v_i = vibration_metric(y_meas, motion_end, n_window)
        pred_err = float(np.linalg.norm(y_meas.data[:n_est, 0] - model.y_before))

        d_ocp = resample_disturbance(model.disturbance, task.dt, task.n_pred)
        plan_next = solve_ptp_ocp(chain, task, model.params, d_ocp, u_cur.data,
                                  ocp_weights, opts=solver_opts)
        statuses = dict(model.statuses)
        statuses["ocp_entry"] = dict(ocp_status)
        statuses["ocp_next"] = _ocp_status(plan_next)
        flagged = (plan_next.fell_back or model.statuses.get("parameters_fell_back", False)
                   or model.statuses.get("disturbance_fell_back", False))
        records.append(IlcRecord(
            iteration=i, u=u_cur, y_meas=y_meas, params=model.params,
            disturbance=model.disturbance,
            y_pred=Trajectory(dt_est, model.y_before[:, None], ("tau_hat",)),
            prediction_error=pred_err, metric=v_i,
            rmse_before=model.rmse_before, rmse_params_only=model.rmse_params_only,
            rmse_after=model.rmse_after, statuses=statuses, flagged=flagged))
        log.info("ilc iter=%d V=%.5g pred_err=%.5g rmse=(%.4g,%.4g,%.4g)",
                 i, v_i, pred_err, model.rmse_before, model.rmse_params_only,
                 model.rmse_after)

        u_cur = plan_next.u
        p_cur = model.params
        d_cur = model.disturbance
        ocp_status = _ocp_status(plan_next)
    return records
