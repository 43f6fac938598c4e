"""Learning step of the ILC: parameter and equivalent-disturbance estimation.

Both problems are multiple-shooting nonlinear least squares over one
experiment's input/output record. The parameter step fits the lumped model
with the disturbance ignored; the disturbance step then freezes the
parameters and absorbs what is left of the output error into a per-sample
torque disturbance.

The joint input is data, so the arm's motion is known in closed form: the
frame terms of every RK4 stage are computed once per record, and both
problems carry only the beam-and-sensing substate ``(theta, dtheta,
tau_hat, tau_e)`` per node, stepped by :func:`substate_rk4_step`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import ad, nlp
from .dynamics import (BeamParams, _substate_rk4, arm_stage_states,
                       equilibrium_for_rotation, equilibrium_residual, fast_rollout,
                       plane_frame_coeffs, rest_state, substate_rk4_step)
from .kinematics import forward_kinematics
from .trajectory import Trajectory

DEFAULT_PARAM_BOX = {
    "lb": np.array([1e-2, 0.0, 1e-3, 1e-2, 1.0, 1e-2, -5.0]),
    "ub": np.array([1e3, 10.0, 50.0, 5.0, 1e3, 1e2, 5.0]),
}


@dataclass(frozen=True)
class EstimationConfig:
    """Weights, parameter box and grid of the two estimation problems."""

    v1: np.ndarray               # Tikhonov diag, per parameter (applied N times)
    v2: np.ndarray               # iteration-change diag, per parameter
    w1: float = 1e-4             # disturbance magnitude weight
    w2: float = 1e-3             # disturbance iteration-change weight
    w3: float = 1e-2             # disturbance smoothness weight
    p_lb: np.ndarray = field(default_factory=lambda: DEFAULT_PARAM_BOX["lb"].copy())
    p_ub: np.ndarray = field(default_factory=lambda: DEFAULT_PARAM_BOX["ub"].copy())
    horizon: int = 240
    dt: float = 6e-3

    def __post_init__(self):
        for nm in ("v1", "v2", "p_lb", "p_ub"):
            object.__setattr__(self, nm, np.asarray(getattr(self, nm), dtype=float))
        if np.any(self.v1 < 0) or np.any(self.v2 < 0) or min(self.w1, self.w2, self.w3) < 0:
            raise ValueError("regularizer weights must be nonnegative")
        if np.any(self.p_lb >= self.p_ub):
            raise ValueError("empty parameter box")

    @staticmethod
    def default(p0, horizon=240, dt=6e-3):
        """Scale-invariant defaults anchored at the prior parameters."""
        v1, v2 = prior_scaled_weights(p0)
        return EstimationConfig(v1=v1, v2=v2, horizon=horizon, dt=dt)


def prior_scaled_weights(p0, v1_scale=1e-6, v2_scale=1e-2):
    """Tikhonov and iteration-change diagonals relative to the prior magnitudes."""
    scale = np.maximum(np.abs(p0.as_array()), 0.05)
    return v1_scale / scale**2, v2_scale / scale**2


@dataclass
class EstimationResult:
    params: BeamParams
    theta0: float
    tau_hat0: float
    tau_e0: float
    solution: nlp.NlpSolution
    fell_back: bool
    hessian_condition: float = np.nan   # cond(dy/dp) at the returned parameters


@dataclass
class DisturbanceResult:
    d: Trajectory
    solution: nlp.NlpSolution
    fell_back: bool


@dataclass
class LearnedModel:
    """Per-iteration bundle produced by the learning step."""

    params: BeamParams
    theta0: float
    tau_hat0: float
    tau_e0: float
    disturbance: Trajectory
    rmse_before: float
    rmse_params_only: float
    rmse_after: float
    statuses: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "params": self.params.as_dict(),
            "theta0": self.theta0,
            "tau_hat0": self.tau_hat0,
            "tau_e0": self.tau_e0,
            "rmse_before": self.rmse_before,
            "rmse_params_only": self.rmse_params_only,
            "rmse_after": self.rmse_after,
            "statuses": dict(self.statuses),
        }


def _check_grids(y, u, cfg):
    if not isinstance(y, Trajectory) or not isinstance(u, Trajectory):
        raise TypeError("y and u must be Trajectory instances")
    if abs(y.dt - u.dt) > 1e-12 or abs(y.dt - cfg.dt) > 1e-12:
        raise ValueError("y, u and the estimation config must share one grid")
    if len(y) < cfg.horizon or len(u) < cfg.horizon:
        raise ValueError("records shorter than the estimation horizon")


def _rest_substate(rb0, p, d0=0.0):
    """Rest ``(theta, dtheta, tau_hat, tau_e)`` in the frame orientation ``rb0``.

    The filter has settled on the biased torque; the bias decay starts now.
    """
    th = equilibrium_for_rotation(rb0, p)
    return th, 0.0, -p.k * th + d0 + p.tau_e0, p.tau_e0


def _model_init_state(chain, q0, p, d0=0.0):
    th, _, tau_hat, tau_e = _rest_substate(forward_kinematics(chain, q0).rotation, p, d0)
    x0 = rest_state(chain, q0, p, theta=th)
    x0[-2] = tau_hat
    x0[-1] = tau_e
    return x0, th


def _output_fit_group(problem, y_data):
    """Rows (tau_hat_k - y_k) for k = 0..N-1 over the substate block."""
    rows = np.arange(y_data.shape[0])
    a = sp.csr_matrix((np.ones(rows.size), (rows, problem.x_index(rows, 2))),
                      shape=(rows.size, problem.n))
    return nlp.LinearGroup(a, y_data)


def _record_coeffs(chain, q0, u_data, dt):
    """Frame terms at the RK4 stages of a record whose arm starts at rest at ``q0``."""
    _, _, q_s, dq_s, u_s = arm_stage_states(q0, u_data, dt)
    return plane_frame_coeffs(chain, q_s, dq_s, u_s)


def _shooting_dynamics(coeffs, dt, params=None):
    """Substate dynamics ``dyn(y, u, p, d)`` of the shooting gaps, batched over nodes.

    ``params``, if given, stands in for the decision parameters ``p``.
    """
    nodes_last = {name: np.moveaxis(v, 0, -1) for name, v in coeffs.items()}

    def dyn(y, _u, p, d):
        y = tuple(ad.comp(y, i) for i in range(4))
        y_next = substate_rk4_step(y, p if params is None else params, nodes_last,
                                   0.0 if d is None else ad.comp(d, 0), dt)
        return ad.stack_last(y_next)

    return dyn


def fit_rmse(chain, q0, p, u_data, y_data, dt, d=None, theta0=None, tau_hat0=None, tau_e0=None):
    """Output RMSE of the nominal model rollout against a measured record."""
    x0, _ = _model_init_state(chain, q0, p, d0=float(d[0]) if d is not None else 0.0)
    if theta0 is not None:
        n = chain.n_joints
        x0[n] = theta0
        x0[-2] = tau_hat0
        x0[-1] = tau_e0
    _, ys = fast_rollout(chain, x0, u_data, p, d, dt)
    return float(np.sqrt(np.mean((ys - y_data) ** 2)))


def estimate_parameters(chain, y, u, p_prev, q0, cfg, opts=None):
    """Fit the lumped model parameters to one experiment (disturbance ignored).

    Solves the shooting NLS over the substate trajectory and the decision
    parameters, with the initial pendulum angle tied to the parameters
    through the equilibrium equality and the initial filter/bias states
    free. Falls back to ``p_prev`` when the solver fails.
    """
    _check_grids(y, u, cfg)
    horizon = cfg.horizon
    y_data = y.data[:horizon, 0]
    u_data = u.data[:horizon, :chain.n_joints]
    q0 = np.asarray(q0, dtype=float)
    rb0 = forward_kinematics(chain, q0).rotation
    dt = cfg.dt
    coeffs = _record_coeffs(chain, q0, u_data, dt)

    problem = nlp.transcribe_shooting(_shooting_dynamics(coeffs, dt), 4, horizon, n_p=7,
                                      param_lb=cfg.p_lb, param_ub=cfg.p_ub)
    # state bounds: pendulum angle stays inside (-pi, pi)
    xblk = problem.block("x")
    xblk.lb[0::4] = -np.pi + 1e-3
    xblk.ub[0::4] = np.pi - 1e-3

    # initial node: at rest; theta/tau_hat/tau_e free
    problem.pin_state(0, [1], [0.0])

    # data fit + regularizers exactly as summed over the horizon
    problem.residual_groups.append(_output_fit_group(problem, y_data))
    p_off = problem.block("p").offset
    scale1 = np.sqrt(horizon * cfg.v1)
    scale2 = np.sqrt(horizon * cfg.v2)
    eye_p = sp.csr_matrix((np.ones(7), (np.arange(7), p_off + np.arange(7))),
                          shape=(7, problem.n))
    problem.residual_groups.append(nlp.LinearGroup(sp.diags(scale1) @ eye_p, np.zeros(7)))
    problem.residual_groups.append(
        nlp.LinearGroup(sp.diags(scale2) @ eye_p, scale2 * p_prev.as_array()))

    # tie the tau_e entry of the initial state to the tau_e0 parameter
    tie = sp.csr_matrix(
        (np.array([1.0, -1.0]), (np.zeros(2, dtype=int),
                                 np.array([problem.x_index(0, 3), p_off + 6]))),
        shape=(1, problem.n))
    problem.eq_groups.append(nlp.LinearGroup(tie, np.zeros(1)))

    # equilibrium equality f_eq(theta_0, p) = 0
    th_idx = problem.x_index(0, 0)

    def eq_eval(z):
        return np.atleast_1d(ad.value(
            equilibrium_residual(rb0, z[th_idx], z[p_off:p_off + 7])))

    def eq_jac(z):
        th_d = ad.Dual(np.asarray(z[th_idx]), np.eye(8)[0])
        p_d = ad.seed(z[p_off:p_off + 7], 8, 1)
        r = equilibrium_residual(ad.constant(rb0, 8), th_d, p_d)
        jac = sp.csr_matrix((r.dot, (np.zeros(8, dtype=int),
                                     np.concatenate([[th_idx], p_off + np.arange(7)]))),
                            shape=(1, problem.n))
        return np.atleast_1d(r.val), jac

    problem.eq_groups.append(nlp.CallableGroup(1, eq_eval, eq_jac))

    # feasible initial guess: rollout at the previous parameters
    y0 = _rest_substate(rb0, p_prev)
    problem.set_state_guess(_substate_rk4(y0, p_prev, coeffs, np.zeros(horizon), dt))
    problem.set_initial_guess("p", p_prev.as_array())

    sol = nlp.solve(problem, opts or nlp.SolverOptions(max_iter=80))
    if not sol.converged and sol.status != "max-iter":
        return EstimationResult(p_prev, y0[0], y0[2], y0[3], sol, True,
                                _param_condition(rb0, p_prev, coeffs, dt))
    p_arr = np.clip(sol.variables["p"], cfg.p_lb, cfg.p_ub)
    params = BeamParams.from_array(p_arr)
    theta0, _, tau_hat0, tau_e0 = sol.variables["x"][:4]
    return EstimationResult(params, float(theta0), float(tau_hat0), float(tau_e0), sol, False,
                            _param_condition(rb0, params, coeffs, dt))


def _param_condition(rb0, p, coeffs, dt):
    """Condition number of the output sensitivity dy/dp at ``p``.

    One forward-mode rollout of the model from its rest state in the frame
    orientation ``rb0``, with the 7 parameters as seeds. The rest pendulum
    angle moves with the parameters through the equilibrium, by the
    implicit-function theorem.
    """
    p_arr = p.as_array()
    th, _, tau_hat, tau_e = _rest_substate(rb0, p)
    r = equilibrium_residual(ad.constant(rb0, 8), ad.Dual(np.asarray(th), np.eye(8)[0]),
                             ad.seed(p_arr, 8, 1))
    dth = -r.dot[1:] / r.dot[0]
    e_k, e_taue = np.eye(7)[0], np.eye(7)[6]
    # (theta, dtheta, tau_hat = -k theta + tau_e0, tau_e = tau_e0) at rest
    y0 = (ad.Dual(th, dth), ad.constant(0.0, 7),
          ad.Dual(tau_hat, -p_arr[0] * dth - th * e_k + e_taue), ad.Dual(tau_e, e_taue))
    ys = _substate_rk4(y0, ad.seed(p_arr, 7, 0), coeffs, np.zeros(coeffs["g2"].shape[0]), dt)
    dy_dp = np.array([y[2].dot for y in ys[:-1]])
    return float(np.linalg.cond(dy_dp)) if np.all(np.isfinite(dy_dp)) else np.nan


def estimate_disturbance(chain, y, u, params, theta0, tau_hat0, tau_e0, d_prev, q0,
                         cfg, opts=None):
    """Estimate the equivalent output disturbance with the parameters fixed.

    One scalar disturbance sample per grid step; the objective trades the
    output fit against magnitude, iteration-change and smoothness penalties.
    Falls back to ``d_prev`` when the solver fails.
    """
    _check_grids(y, u, cfg)
    horizon = cfg.horizon
    y_data = y.data[:horizon, 0]
    u_data = u.data[:horizon, :chain.n_joints]
    d_prev_data = np.zeros(horizon) if d_prev is None else np.asarray(d_prev.data[:horizon, 0])
    dt = cfg.dt
    coeffs = _record_coeffs(chain, np.asarray(q0, dtype=float), u_data, dt)

    problem = nlp.transcribe_shooting(_shooting_dynamics(coeffs, dt, params), 4, horizon,
                                      n_d=1)
    y0 = (theta0, 0.0, tau_hat0, tau_e0)
    problem.pin_state(0, range(4), y0)

    problem.residual_groups.append(_output_fit_group(problem, y_data))
    d_off = problem.block("d").offset
    rows = np.arange(horizon)
    eye_d = sp.csr_matrix((np.ones(horizon), (rows, d_off + rows)),
                          shape=(horizon, problem.n))
    if cfg.w1 > 0:
        problem.residual_groups.append(
            nlp.LinearGroup(np.sqrt(cfg.w1) * eye_d, np.zeros(horizon)))
    if cfg.w2 > 0:
        problem.residual_groups.append(
            nlp.LinearGroup(np.sqrt(cfg.w2) * eye_d, np.sqrt(cfg.w2) * d_prev_data))
    if cfg.w3 > 0 and horizon > 1:
        rr = np.repeat(np.arange(horizon - 1), 2)
        cc = d_off + np.ravel(np.column_stack([rows[:-1], rows[:-1] + 1]))
        vv = np.tile([-1.0, 1.0], horizon - 1) * np.sqrt(cfg.w3)
        diff = sp.csr_matrix((vv, (rr, cc)), shape=(horizon - 1, problem.n))
        problem.residual_groups.append(nlp.LinearGroup(diff, np.zeros(horizon - 1)))

    problem.set_state_guess(_substate_rk4(y0, params, coeffs, d_prev_data, dt))
    problem.set_initial_guess("d", d_prev_data)

    sol = nlp.solve(problem, opts or nlp.SolverOptions(max_iter=60))
    if not sol.converged and sol.status != "max-iter":
        d_traj = Trajectory(dt, d_prev_data[:, None], ("d",))
        return DisturbanceResult(d_traj, sol, True)
    d_traj = Trajectory(dt, sol.variables["d"][:, None], ("d",))
    return DisturbanceResult(d_traj, sol, False)


def learn_iteration(chain, y, u, p_prev, d_prev, q0, cfg, include_disturbance=True,
                    opts=None):
    """Run both estimation problems and collect fit diagnostics."""
    n = chain.n_joints
    horizon = cfg.horizon
    y_data = y.data[:horizon, 0]
    u_data = u.data[:horizon, :n]
    d_prev_data = None if d_prev is None else d_prev.data[:horizon, 0]
    rmse_before = fit_rmse(chain, q0, p_prev, u_data, y_data, cfg.dt, d_prev_data)

    est = estimate_parameters(chain, y, u, p_prev, q0, cfg, opts=opts)
    rmse_params = fit_rmse(chain, q0, est.params, u_data, y_data, cfg.dt, None,
                           est.theta0, est.tau_hat0, est.tau_e0)
    statuses = {"parameters": est.solution.status,
                "parameters_fell_back": est.fell_back}

    if include_disturbance:
        dist = estimate_disturbance(chain, y, u, est.params, est.theta0,
                                    est.tau_hat0, est.tau_e0, d_prev, q0, cfg,
                                    opts=opts)
        statuses["disturbance"] = dist.solution.status
        statuses["disturbance_fell_back"] = dist.fell_back
        d_traj = dist.d
    else:
        d_traj = Trajectory(cfg.dt, np.zeros((horizon, 1)), ("d",))
        statuses["disturbance"] = "skipped"
        statuses["disturbance_fell_back"] = False

    rmse_after = fit_rmse(chain, q0, est.params, u_data, y_data, cfg.dt,
                          d_traj.data[:, 0], est.theta0, est.tau_hat0, est.tau_e0)
    return LearnedModel(est.params, est.theta0, est.tau_hat0, est.tau_e0, d_traj,
                        rmse_before, rmse_params, rmse_after, statuses)
