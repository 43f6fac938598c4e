"""Learning step of the ILC: parameter and equivalent-disturbance estimation.

An experiment's joint input is data, so the arm's motion is known in closed
form: a learning step builds the frame terms of every RK4 stage once, in its
:class:`Record`. Both fits, the step's RMSEs and the loop's prediction carry
only the beam-and-sensing substate ``(theta, dtheta, tau_hat, tau_e)``. The
parameter step fits the lumped model to the record with the disturbance
ignored, as multiple-shooting nonlinear least squares over that substate.

The disturbance step then freezes the parameters and absorbs what is left
of the output error into a per-sample torque disturbance. The pendulum
never sees the disturbance and the sensing filter is linear, so the output
is affine in it: the fitted model's rollout without it (the one
``rmse_params_only`` reads) plus the filter's lifted impulse response times
the samples. That step is linear least squares over the samples alone.

The parameter fit reports the condition number of the output sensitivity
dy/dp at its parameters. The gap Jacobian of one batched dual call is block
bidiagonal, so ``dx/dp = -J_x^-1 J_p`` is a forward recurrence over its
blocks (:func:`_output_sensitivity`), with no rollout on duals.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import toeplitz

from . import ad, nlp
from .dynamics import (NO_ROTATION, BeamParams, IntegrationBlowupError, _params_tuple,
                       _substate_rk4, arm_stage_states, equilibrium_for_rotation,
                       pendulum_accel, plane_frame_coeffs, substate_rk4_step)
from .dynamics import fast_rollout  # noqa: F401  (perfbench's _layer_table wraps this name)
from .kinematics import GRAVITY, forward_kinematics
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
        if type(self.horizon) is not int or self.horizon < 1:  # bool is not int here
            raise ValueError(f"horizon must be a positive int, not {self.horizon!r}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")

    @staticmethod
    def default(p0, **kw):
        """Scale-invariant defaults anchored at the prior parameters."""
        v1, v2 = prior_scaled_weights(p0)
        return EstimationConfig(v1=v1, v2=v2, **kw)


def prior_scaled_weights(p0, v1_scale=1e-6, v2_scale=1e-2):
    """Tikhonov and iteration-change diagonals relative to the prior magnitudes."""
    if v1_scale < 0 or v2_scale < 0:
        raise ValueError("weight scales must be nonnegative")
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
    sensitivity_condition: float = np.nan   # cond(dy/dp) at the returned parameters


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


def _on_grid(name, traj, cfg):
    """The first ``cfg.horizon`` rows of ``traj``, which must lie on the estimation grid."""
    if not isinstance(traj, Trajectory):
        raise TypeError(f"{name} must be a Trajectory")
    if abs(traj.dt - cfg.dt) > 1e-12:
        raise ValueError(f"{name} is sampled every {traj.dt:g} s, not every {cfg.dt:g} s")
    if len(traj) < cfg.horizon:
        raise ValueError(f"{name} has {len(traj)} samples, fewer than the horizon {cfg.horizon}")
    return traj.data[:cfg.horizon]


@dataclass(frozen=True, eq=False)
class Record:
    """Measured outputs, resting frame {b} orientation and RK4-stage frame terms."""

    y: np.ndarray
    rb0: np.ndarray
    coeffs: dict
    dt: float

    @staticmethod
    def from_experiment(chain, y, u, q0, cfg):
        """Check ``y`` and ``u`` against the grid of ``cfg``; build the frame terms once."""
        y_data = _on_grid("y", y, cfg)[:, 0]
        u_data = _on_grid("u", u, cfg)[:, :chain.n_joints]
        q0 = np.asarray(q0, dtype=float)
        return Record(y_data, forward_kinematics(chain, q0).rotation,
                      _record_coeffs(chain, q0, u_data, cfg.dt), cfg.dt)


def _rest_substate(rb0, p, d0=0.0):
    """Rest ``(theta, dtheta, tau_hat, tau_e)`` in the frame orientation ``rb0``.

    The filter has settled on the biased torque; the bias decay starts now.
    """
    th = equilibrium_for_rotation(rb0, p)
    return th, 0.0, -p.k * th + d0 + p.tau_e0, p.tau_e0


def _rest_residual(rb0, theta, p):
    """The pendulum equation at rest in the frame orientation ``rb0``; zero at equilibrium."""
    k, c, m, l, _, _ = _params_tuple(p)
    g2 = ad.matvec(ad.mtranspose(rb0), GRAVITY)[:2]
    return pendulum_accel(theta, 0.0, k, c, m, l, g2, NO_ROTATION, NO_ROTATION)


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


def _shooting_dynamics(coeffs, dt):
    """Substate dynamics ``dyn(y, u, p)`` of the shooting gaps, batched over nodes."""
    nodes_last = {name: np.moveaxis(v, 0, -1) for name, v in coeffs.items()}

    def dyn(y, _u, p):
        y = tuple(ad.comp(y, i) for i in range(4))
        return ad.stack_last(substate_rk4_step(y, p, nodes_last, 0.0, dt))

    return dyn


def disturbance_response(a, dt, horizon):
    """Lifted map ``G`` from held disturbance samples to the sampled outputs.

    The filter ``tau_hat' = -a tau_hat + a (tau + d + tau_e)`` is linear and
    nothing else sees d, so one RK4 step carries ``d_j`` into ``tau_hat``
    with weight ``beta`` and each later step scales it by ``phi``, the RK4
    amplification of ``-a dt``. Output k precedes step k, so
    ``G[k, j] = beta * phi**(k - 1 - j)`` for ``j < k``.
    """
    ah = a * dt
    phi = 1.0 - ah + ah**2 / 2 - ah**3 / 6 + ah**4 / 24
    beta = ah * (1.0 - ah / 2 + ah**2 / 6 - ah**3 / 24)
    col = np.concatenate([[0.0], beta * phi ** np.arange(horizon - 1)])
    return toeplitz(col, np.zeros(horizon))


def _model_output(rb0, coeffs, dt, p, d, y0=None):
    """Output ``tau_hat`` (N,) of the substate rollout with ``d`` held; k precedes step k.

    It starts from ``y0``, or at rest in ``rb0`` with the filter settled on ``d[0]``.
    """
    if y0 is None:
        y0 = _rest_substate(rb0, p, float(d[0]))
    ys = np.array(_substate_rk4(y0, p, coeffs, d, dt))
    if not np.all(np.isfinite(ys)):
        raise IntegrationBlowupError("non-finite state in the model rollout")
    return ys[:-1, 2]


def estimate_parameters(rec, p_prev, cfg, opts=None):
    """Fit the lumped model parameters to the :class:`Record` ``rec`` (disturbance ignored).

    Solves the shooting NLS over the substate trajectory and the decision
    parameters, with the initial pendulum angle tied to the parameters
    through the equilibrium equality and the initial filter/bias states
    free. Falls back to ``p_prev`` when the solver fails.
    """
    horizon = cfg.horizon
    rb0, coeffs, dt = rec.rb0, rec.coeffs, rec.dt

    problem = nlp.ShootingProblem(_shooting_dynamics(coeffs, dt), 4, horizon, n_p=7,
                                  param_lb=cfg.p_lb, param_ub=cfg.p_ub)
    # state bounds: pendulum angle stays inside (-pi, pi)
    xblk = problem.block("x")
    xblk.lb[0::4] = -np.pi + 1e-3
    xblk.ub[0::4] = np.pi - 1e-3

    # initial node: at rest; theta/tau_hat/tau_e free
    problem.pin_state(0, [1], [0.0])

    # data fit + regularizers exactly as summed over the horizon
    problem.residual_groups.append(_output_fit_group(problem, rec.y))
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
        return _rest_residual(rb0, z[th_idx:th_idx + 1], z[p_off:p_off + 7])

    def eq_jac(z):
        th_d = ad.Dual(np.asarray(z[th_idx]), np.eye(8)[0])
        p_d = ad.seed(z[p_off:p_off + 7], 8, 1)
        r = _rest_residual(rb0, th_d, p_d)
        jac = sp.csr_matrix((r.dot, (np.zeros(8, dtype=int),
                                     np.concatenate([[th_idx], p_off + np.arange(7)]))),
                            shape=(1, problem.n))
        return np.atleast_1d(r.val), jac

    problem.eq_groups.append(nlp.CallableGroup(1, eq_eval, eq_jac))

    # feasible initial guess: rollout at the previous parameters
    y0 = _rest_substate(rb0, p_prev)
    problem.set_state_guess(_substate_rk4(y0, p_prev, coeffs, np.zeros(horizon), dt))
    problem.set_initial_guess("p", p_prev.as_array())

    sol = nlp.solve(problem, nlp.SolverOptions(**{"max_iter": 80, **(opts or {})}))
    fell_back = not sol.converged and sol.status != "max-iter"
    if fell_back:
        params, (theta0, _, tau_hat0, tau_e0) = p_prev, y0
    else:
        params = BeamParams.from_array(np.clip(sol.variables["p"], cfg.p_lb, cfg.p_ub))
        theta0, _, tau_hat0, tau_e0 = (float(v) for v in sol.variables["x"][:4])
    return EstimationResult(params, theta0, tau_hat0, tau_e0, sol, fell_back,
                            _param_condition(rb0, params, coeffs, dt))


def _output_sensitivity(rb0, p, coeffs, dt):
    """Sensitivity dy/dp (N, 7) of the model output to the parameters at ``p``.

    The model starts from its rest substate in the frame orientation
    ``rb0``, whose angle moves with the parameters through the equilibrium
    (implicit-function theorem): that gives ``S_0 = dy_0/dp``. One float
    rollout gives the nodes, one batched dual call of the shooting dynamics
    gives every node's ``A_k = dF/dy`` and ``B_k = dF/dp``, and
    ``S_{k+1} = A_k S_k + B_k`` is forward substitution on the gap
    Jacobian. Output k is the ``tau_hat`` row of ``S_k``.
    """
    p_arr = p.as_array()
    y0 = _rest_substate(rb0, p)
    th = y0[0]
    r = _rest_residual(rb0, ad.Dual(np.asarray(th), np.eye(8)[0]), ad.seed(p_arr, 8, 1))
    dth = -r.dot[1:] / r.dot[0]
    e_k, e_taue = np.eye(7)[0], np.eye(7)[6]
    # (theta, dtheta, tau_hat = -k theta + tau_e0, tau_e = tau_e0) at rest
    s_k = np.stack([dth, np.zeros(7), -p_arr[0] * dth - th * e_k + e_taue, e_taue])
    n_nodes = coeffs["g2"].shape[0]
    ys = np.array(_substate_rk4(y0, p, coeffs, np.zeros(n_nodes), dt))[:-1]
    jac = _shooting_dynamics(coeffs, dt)(ad.seed(ys, 11, 0), None, ad.seed(p_arr, 11, 4)).dot
    dy_dp = np.empty((n_nodes, 7))
    for k in range(n_nodes):
        dy_dp[k] = s_k[2]
        s_k = jac[k, :, :4] @ s_k + jac[k, :, 4:]
    return dy_dp


def _param_condition(rb0, p, coeffs, dt):
    """Condition number of the output sensitivity dy/dp at ``p``; NaN if not finite."""
    dy_dp = _output_sensitivity(rb0, p, coeffs, dt)
    return float(np.linalg.cond(dy_dp)) if np.all(np.isfinite(dy_dp)) else np.nan


def _disturbance_samples(d_prev, cfg):
    """The previous disturbance's samples on the estimation horizon; zeros for ``None``."""
    return np.zeros(cfg.horizon) if d_prev is None else _on_grid("d_prev", d_prev, cfg)[:, 0]


def estimate_disturbance(rec, params, y_free, d_prev, cfg, opts=None):
    """Estimate the equivalent output disturbance on ``rec`` with the parameters fixed.

    One scalar disturbance sample per grid step, the only decision
    variables: the model output is ``y_free``, the rollout from the fitted
    initial substate without disturbance, plus :func:`disturbance_response`
    times the samples. The objective trades the output fit against
    magnitude, iteration-change and smoothness penalties. Falls back to
    ``d_prev`` when the solver fails.
    """
    horizon = cfg.horizon
    d_prev_data = _disturbance_samples(d_prev, cfg)

    problem = nlp.NlpProblem()
    problem.add_block("d", horizon, x0=d_prev_data)
    problem.residual_groups.append(
        nlp.LinearGroup(disturbance_response(params.a, rec.dt, horizon), rec.y - y_free))
    eye = sp.identity(horizon, format="csr")
    if cfg.w1 > 0:
        problem.residual_groups.append(nlp.LinearGroup(np.sqrt(cfg.w1) * eye, np.zeros(horizon)))
    if cfg.w2 > 0:
        problem.residual_groups.append(
            nlp.LinearGroup(np.sqrt(cfg.w2) * eye, np.sqrt(cfg.w2) * d_prev_data))
    if cfg.w3 > 0 and horizon > 1:
        diff = sp.diags([-1.0, 1.0], [0, 1], shape=(horizon - 1, horizon))
        problem.residual_groups.append(
            nlp.LinearGroup(np.sqrt(cfg.w3) * diff, np.zeros(horizon - 1)))

    sol = nlp.solve(problem, nlp.SolverOptions(**{"max_iter": 60, **(opts or {})}))
    fell_back = not sol.converged and sol.status != "max-iter"
    d = d_prev_data if fell_back else sol.variables["d"]
    return DisturbanceResult(Trajectory(rec.dt, d[:, None], ("d",)), sol, fell_back)


def _effort(sol):
    """A fit's SQP iterations and QP effort counts, for the artifacts."""
    return {"iterations": sol.iterations, **sol.qp_effort}


def learn_iteration(chain, y, u, p_prev, d_prev, q0, cfg, include_disturbance=True,
                    opts=None):
    """Run both estimation problems on one :class:`Record` and collect fit diagnostics.

    ``opts`` maps ``nlp.SolverOptions`` fields to overrides of each fit's
    defaults.
    """
    rec = Record.from_experiment(chain, y, u, q0, cfg)
    d_prev_data = _disturbance_samples(d_prev, cfg)

    def rmse(ys):
        return float(np.sqrt(np.mean((ys - rec.y) ** 2)))

    rmse_before = rmse(_model_output(rec.rb0, rec.coeffs, rec.dt, p_prev, d_prev_data))

    est = estimate_parameters(rec, p_prev, cfg, opts=opts)
    y0 = (est.theta0, 0.0, est.tau_hat0, est.tau_e0)
    y_free = _model_output(rec.rb0, rec.coeffs, rec.dt, est.params, np.zeros(cfg.horizon), y0)
    rmse_params = rmse(y_free)
    cond = est.sensitivity_condition
    statuses = {"parameters": est.solution.status,
                "parameters_fell_back": est.fell_back,
                "parameters_effort": _effort(est.solution),
                "parameters_condition": float(cond) if np.isfinite(cond) else None}

    if include_disturbance:
        dist = estimate_disturbance(rec, est.params, y_free, d_prev, cfg, opts=opts)
        statuses["disturbance"] = dist.solution.status
        statuses["disturbance_fell_back"] = dist.fell_back
        statuses["disturbance_effort"] = _effort(dist.solution)
        d_traj = dist.d
    else:
        d_traj = Trajectory(cfg.dt, np.zeros((cfg.horizon, 1)), ("d",))
        statuses["disturbance"] = "skipped"
        statuses["disturbance_fell_back"] = False
        statuses["disturbance_effort"] = dict.fromkeys(("iterations",) + nlp.QP_EFFORT, 0)

    rmse_after = rmse(_model_output(rec.rb0, rec.coeffs, rec.dt, est.params,
                                    d_traj.data[:, 0], y0))
    return LearnedModel(est.params, est.theta0, est.tau_hat0, est.tau_e0, d_traj,
                        rmse_before, rmse_params, rmse_after, statuses)
