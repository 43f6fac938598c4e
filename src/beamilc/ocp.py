"""Point-to-point vibration-suppression optimal control.

A multiple-shooting transcription over the prediction horizon: controls
act on the first part (pinned to zero at the first node and everywhere
past the control horizon), the end-effector must reach the goal pose at
rest at the end of the control horizon, and the remaining prediction
window carries exponentially weighted l1 penalties pushing the pendulum
angle, its rate and the predicted reaction torque onto their equilibrium
values as early as possible.

The nodes up to the end of the control horizon carry the full state.
Past it the arm rests at ``q(n_ctrl)``, whose frame the terminal pose
fixes to the goal orientation, so the tail nodes carry only the
beam-and-sensing substate ``(theta, dtheta, tau_hat, tau_e)``, tied to
the substate of ``x`` at its first node. The tail's frame terms are data:
the goal frame's in-plane gravity ``(R_goal^T g)[:2]`` and no rotation.

Both gap groups step the model as the rollout and the fits do: one
:func:`~beamilc.dynamics.substate_rk4_step` of the substate over the frame
terms of four RK4 stages. On the control horizon those terms come from the
arm's closed-form stages (it is a double integrator), in one chain pass
over the four stages stacked on a leading axis; for the Jacobian that pass
runs on the seed directions of the node's ``q``, ``dq`` and ``u`` only,
the ones the frame terms depend on. In the tail the frame rests.

A cold solve starts from a rest-to-rest move in joint space: the goal
configuration from a damped Gauss-Newton on the terminal pose error, and
the inputs that take the double integrator there at rest at node
``n_ctrl`` at least cost under the arm's own quadratic terms. The SQP then
starts near the answer, and its linearizations stay consistent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import ad, nlp
from .dynamics import (NO_ROTATION, arm_rk4_stages, equilibrium_for_rotation, fast_rollout,
                       plane_frame_coeffs, reaction_torque, rest_substate, state_dim,
                       substate_rk4_step)
from .kinematics import (GRAVITY, _check_rotation, forward_kinematics, frame_state,
                         orientation_error)
from .trajectory import Trajectory

IK_ITERS = 30          # Gauss-Newton steps of the cold start's goal configuration
IK_DAMPING = 1e-6      # their Levenberg damping: steps stay bounded near singular poses


@dataclass(frozen=True)
class TaskDefinition:
    """Rest-to-rest task: start configuration, goal pose, horizons."""

    q0: np.ndarray
    goal_position: np.ndarray
    goal_rotation: np.ndarray
    n_ctrl: int = 48
    n_pred: int = 144
    dt: float = 1e-2

    def __post_init__(self):
        object.__setattr__(self, "q0", np.asarray(self.q0, dtype=float))
        object.__setattr__(self, "goal_position", np.asarray(self.goal_position, dtype=float))
        object.__setattr__(self, "goal_rotation", _check_rotation(self.goal_rotation,
                                                                  what="goal_rotation"))
        if self.goal_position.shape != (3,):
            raise ValueError(f"goal_position must be a 3-vector, not shape "
                             f"{self.goal_position.shape}")
        for nm, v in (("n_ctrl", self.n_ctrl), ("n_pred", self.n_pred)):
            if type(v) is not int:  # bool is not int here
                raise ValueError(f"{nm} must be an int, not {v!r}")
        if not (2 <= self.n_ctrl < self.n_pred):  # the control block spans nodes 0..n_ctrl-2
            raise ValueError("need 2 <= n_ctrl < n_pred")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @staticmethod
    def from_goal_joints(chain, q0, q_goal, **kw):
        pose = forward_kinematics(chain, np.asarray(q_goal, dtype=float))
        return TaskDefinition(q0, pose.position, pose.rotation, **kw)

    @staticmethod
    def from_displacement(chain, q0, displacement, **kw):
        pose = forward_kinematics(chain, np.asarray(q0, dtype=float))
        return TaskDefinition(q0, pose.position + np.asarray(displacement, dtype=float),
                              pose.rotation, **kw)


@dataclass(frozen=True)
class OcpWeights:
    """Objective weights: control-horizon quadratics and prediction-horizon l1."""

    q_state: np.ndarray | None = None   # diag over the state; default: 1 on q entries
    r1: float = 1e-2                    # input magnitude
    r2: float = 1e-1                    # input rate (jerk proxy)
    rho1: float = 10.0                  # pendulum angle deviation, l1
    rho2: float = 1.0                   # pendulum rate, l1
    rho3: float = 10.0                  # reaction torque deviation, l1
    gamma: float = 1.05                 # exponential weight, > 1

    def __post_init__(self):
        if self.q_state is not None:
            object.__setattr__(self, "q_state", np.asarray(self.q_state, dtype=float))
        if self.gamma <= 1.0:
            raise ValueError("gamma must be above 1")
        for nm in ("r1", "r2", "rho1", "rho2", "rho3"):
            if getattr(self, nm) < 0:
                raise ValueError(f"{nm} must be nonnegative")

    def state_diag(self, n_dof):
        n_x = state_dim(n_dof)
        if self.q_state is None:
            w = np.zeros(n_x)
            w[:n_dof] = 1.0
            return w
        if self.q_state.shape != (n_x,):
            raise ValueError("q_state must have the state dimension")
        return self.q_state


@dataclass
class PlannedMotion:
    """Feedforward plan plus its model prediction."""

    u: Trajectory                 # n_pred rows; zero from node n_ctrl-1 on
    states: np.ndarray            # (n_pred+1, n_x) predicted trace; arm at rest past n_ctrl
    tau: np.ndarray               # (n_pred,) predicted reaction torque
    tau_hat: np.ndarray           # (n_pred,) predicted filtered output
    theta_goal: float
    tau_goal: float
    objective: float
    solution: nlp.NlpSolution
    fell_back: bool = False

    def limit_violations(self, chain, task):
        """Worst violation of each limit class along the plan (<= 0 is ok)."""
        n = chain.n_joints
        q = self.states[:, :n]
        dq = self.states[:, n + 1:2 * n + 1]
        u = self.u.data
        du = np.diff(u, axis=0, prepend=np.zeros((1, n)))
        return {
            "q": float(np.max(np.maximum(q - chain.q_max, chain.q_min - q))),
            "dq": float(np.max(np.abs(dq) - chain.dq_max)),
            "u": float(np.max(np.abs(u) - chain.ddq_max)),
            "jerk": float(np.max(np.abs(du) / task.dt - chain.jerk_max)),
        }


def resample_disturbance(d, dt_new, n_new):
    """Linear interpolation of a disturbance record onto a new uniform grid.

    Past the source horizon the value is held at the tail mean (the mean of
    the trailing tenth of the samples, at least one).
    """
    if not isinstance(d, Trajectory) or len(d) < 1:
        raise ValueError("d must be a non-empty Trajectory")
    if d.n_channels != 1:
        raise ValueError(f"d has {d.n_channels} columns, not 1")
    src = d.data[:, 0]
    n_tail = max(1, len(src) // 10)
    tail = float(np.mean(src[-n_tail:]))
    t_new = np.arange(n_new) * dt_new
    t_src = d.times
    out = np.interp(t_new, t_src, src, left=src[0], right=tail)
    return Trajectory(dt_new, out[:, None], ("d",))


def _pose_error(chain, goal_pos, goal_rot):
    """The end-effector's position and orientation error from a goal pose, as a function of q.

    The function takes plain arrays and duals alike, and returns six entries.
    """
    def error(q):
        res = frame_state(chain, q)
        return ad.concat_last([res["p"] - goal_pos, orientation_error(res["R"], goal_rot)])

    return error


def _terminal_pose_group(problem, chain, node, goal_pos, goal_rot, n, n_x):
    """Six equality rows: end-effector position and orientation at ``node``."""
    return nlp.dual_group(6, problem.block("x").offset + node * n_x + np.arange(n),
                          _pose_error(chain, goal_pos, goal_rot))


def _goal_configuration(chain, task):
    """Damped Gauss-Newton on the terminal pose error from ``task.q0``, inside the joint box.

    An unreachable pose leaves the last of ``IK_ITERS`` iterates.
    """
    n = chain.n_joints
    pose_error = _pose_error(chain, task.goal_position, task.goal_rotation)
    q = task.q0.copy()
    for _ in range(IK_ITERS):
        err = pose_error(ad.seed(q, n, 0))
        jac = err.dot
        step = np.linalg.solve(jac.T @ jac + IK_DAMPING * np.eye(n), -jac.T @ err.val)
        q = np.clip(q + step, chain.q_min, chain.q_max)
        if np.max(np.abs(step)) < 1e-15:    # at rounding level
            break
    return q


def _rest_to_rest_input(chain, task, weights, q_goal):
    """Inputs of nodes 0..n_ctrl-2 that bring the arm to rest at ``q_goal`` at node ``n_ctrl``.

    Per joint, they minimize the OCP's arm-only quadratics (``q_state`` on
    q, ``r1``, ``r2`` with the last step onto the zero tail) subject to the
    double integrator's q and dq at node ``n_ctrl``, node 0's input pinned
    to zero: one equality-constrained least squares, solved by ``lstsq`` so
    that zero weights give the minimum-norm input.
    """
    n, n_c, dt = chain.n_joints, task.n_ctrl, task.dt
    n_un = n_c - 1
    u = np.zeros((n_un, n))
    if n_un < 2:      # node 0's input, pinned, is the only one
        return u
    # q(k) - q0 of the double integrator under inputs 1..n_ctrl-2, k = 0..n_ctrl;
    # at node n_ctrl, dq is dt times their sum
    k = np.arange(n_c + 1)[:, None]
    i = np.arange(1, n_un)[None, :]
    reach_q = np.where(i < k, dt * dt * (k - i - 0.5), 0.0)
    ends = np.vstack([reach_q[-1], np.full(n_un - 1, dt)])
    steps = (np.eye(n_un, k=1) - np.eye(n_un))[:, 1:]
    w_q = weights.state_diag(n)[:n]
    for j in range(n):
        hess = (w_q[j] * reach_q.T @ reach_q + weights.r1 * np.eye(n_un - 1)
                + weights.r2 * steps.T @ steps)
        kkt = np.block([[hess, ends.T], [ends, np.zeros((2, 2))]])
        rhs = np.r_[np.zeros(n_un - 1), q_goal[j] - task.q0[j], 0.0]
        u[1:, j] = np.linalg.lstsq(kkt, rhs)[0][:n_un - 1]
    return u


def solve_ptp_ocp(chain, task, params, d=None, u_prev=None, weights=None, opts=None):
    """Plan the feedforward joint accelerations for one task execution.

    ``d`` is the learned disturbance as a Trajectory already resampled to
    the OCP grid, at least n_pred samples long (None for zero). ``u_prev``,
    an array of inputs on the OCP grid, warm starts the solve with its rows
    1..n_ctrl-2; those rows, zero elsewhere, are the fallback on solver
    failure. Without it the solve starts cold from a rest-to-rest move to
    the goal configuration, and falls back to the zero input, the arm
    resting at ``task.q0``: a failed cold plan never executes its guess.
    ``opts`` maps ``nlp.SolverOptions`` fields to overrides of this solve's
    defaults.

    Variable blocks: ``"x"`` holds the full state at nodes 0..n_ctrl,
    ``"u"`` the inputs of nodes 0..n_ctrl-2 (node 0's pinned to zero), and
    ``"y"`` the substate ``(theta, dtheta, tau_hat, tau_e)`` of the tail
    nodes n_ctrl..n_pred, four entries each.
    """
    weights = weights or OcpWeights()
    n = chain.n_joints
    n_x = state_dim(n)
    n_c, n_p, dt = task.n_ctrl, task.n_pred, task.dt

    d_arr = np.zeros(n_p)
    if d is not None:
        if abs(d.dt - dt) > 1e-12:
            raise ValueError("disturbance must be resampled to the OCP grid")
        if len(d) < n_p:
            raise ValueError("disturbance shorter than the prediction horizon")
        if d.n_channels != 1:
            raise ValueError(f"d has {d.n_channels} columns, not 1")
        d_arr = d.data[:n_p, 0].copy()

    rest = rest_substate(forward_kinematics(chain, task.q0).rotation, params, d_arr[0])
    theta_f = equilibrium_for_rotation(task.goal_rotation, params)
    tau_f = -params.k * theta_f + float(np.mean(d_arr[n_c:]))

    sub = np.array([n, 2 * n + 1, 2 * n + 2, 2 * n + 3])   # substate entries of x
    # the seed directions of q, dq and u: the only ones the frame terms depend on
    arm = np.r_[0:n, n + 1:2 * n + 1, n_x:n_x + n]

    def on_arm(v):
        return ad.Dual(v.val, v.dot[..., arm]) if ad.is_dual(v) else v

    def dyn(x, u, _p):
        q_s, dq_s = arm_rk4_stages(ad.sub(x, slice(0, n)), ad.sub(x, slice(n + 1, 2 * n + 1)),
                                   u, dt)
        # one chain pass over the four stages, stacked on a leading axis
        frame = plane_frame_coeffs(chain, on_arm(q_s), on_arm(dq_s), on_arm(u))
        frame = {nm: ad.moveaxis(frame[nm], 1, -1) for nm in ("g2", "m_rot")}
        if ad.is_dual(x):
            for nm, v in frame.items():
                dot = np.zeros(v.dot.shape[:-1] + (x.nseeds,))
                dot[..., arm] = v.dot
                frame[nm] = ad.Dual(v.val, dot)
        y = substate_rk4_step(tuple(ad.comp(x, i) for i in sub), params, frame, d_arr[:n_c], dt)
        return ad.concat_last([q_s[3], ad.stack_last(y[:1]), dq_s[3], ad.stack_last(y[1:])])

    tail_frame = {"g2": [(task.goal_rotation.T @ GRAVITY)[:2]] * 4, "m_rot": [NO_ROTATION] * 4}

    def tail_dyn(y, _u, _p):
        y = tuple(ad.comp(y, i) for i in range(4))
        return ad.stack_last(substate_rk4_step(y, params, tail_frame, d_arr[n_c:], dt))

    state_lb = np.full(n_x, -np.inf)
    state_ub = np.full(n_x, np.inf)
    state_lb[:n] = chain.q_min
    state_ub[:n] = chain.q_max
    state_lb[n] = -np.pi / 2
    state_ub[n] = np.pi / 2
    state_lb[n + 1:2 * n + 1] = -chain.dq_max
    state_ub[n + 1:2 * n + 1] = chain.dq_max
    x0 = np.concatenate([task.q0, rest[:1], np.zeros(n), rest[1:]])
    x_lb, x_ub = np.tile(state_lb, n_c + 1), np.tile(state_ub, n_c + 1)
    x_lb[:n_x] = x_ub[:n_x] = x0                      # node 0 pinned to the start
    # controls exist on nodes 0..n_ctrl-2; the first is pinned to zero and
    # node n_ctrl-1 has no variable (input identically zero)
    n_un = n_c - 1
    u_lb, u_ub = np.tile(-chain.ddq_max, n_un), np.tile(chain.ddq_max, n_un)
    u_lb[:n] = u_ub[:n] = 0.0
    n_tail = n_p - n_c + 1
    tail_ub = np.r_[np.pi / 2, np.full(3, np.inf)]   # theta bounds only

    problem = nlp.NlpProblem()
    x_off = problem.add_block("x", (n_c + 1) * n_x, x_lb, x_ub).offset
    u_off = problem.add_block("u", n_un * n, u_lb, u_ub).offset
    y_off = problem.add_block("y", n_tail * 4, np.tile(-tail_ub, n_tail),
                              np.tile(tail_ub, n_tail)).offset
    # the gaps of the control horizon and of the tail, the junction, and the
    # terminal rest: pose at the goal, joint velocities zero at node n_ctrl
    problem.eq_groups += [
        nlp.ShootingGapGroup(problem, dyn, n_x, n_c, n_u=n,
                             control_map=np.append(np.arange(n_un), -1)),
        nlp.ShootingGapGroup(problem, tail_dyn, 4, n_tail - 1, block="y"),
        nlp.LinearGroup(problem.select(y_off + np.arange(4))
                        - problem.select(x_off + n_c * n_x + sub), np.zeros(4)),
        _terminal_pose_group(problem, chain, n_c, task.goal_position, task.goal_rotation, n, n_x),
        nlp.LinearGroup(problem.select(x_off + n_c * n_x + n + 1 + np.arange(n)), np.zeros(n))]

    # control-horizon quadratics
    q_diag = weights.state_diag(n)
    act = np.flatnonzero(q_diag > 0)
    if act.size:
        w = np.tile(np.sqrt(q_diag[act]), n_c + 1)
        cols = x_off + (np.arange(n_c + 1)[:, None] * n_x + act).ravel()
        problem.residual_groups.append(
            nlp.LinearGroup(sp.diags(w) @ problem.select(cols), w * np.tile(x0[act], n_c + 1)))

    # input steps u(k+1) - u(k), the last one onto the zero tail
    u_sel = problem.select(u_off + np.arange(n_un * n))
    steps = sp.kron(sp.eye(n_un, k=1) - sp.eye(n_un), sp.eye(n)) @ u_sel
    if weights.r1 > 0:
        problem.residual_groups.append(nlp.LinearGroup(np.sqrt(weights.r1) * u_sel,
                                                       np.zeros(n_un * n)))
    if weights.r2 > 0:
        problem.residual_groups.append(nlp.LinearGroup(np.sqrt(weights.r2) * steps,
                                                       np.zeros(n_un * n)))
    # jerk limits on every step, as (k, j, +) and (k, j, -) rows
    problem.ineq_groups.append(nlp.LinearGroup(sp.kron(steps, [[1.0], [-1.0]]),
                                               np.repeat(np.tile(chain.jerk_max * dt, n_un), 2)))

    # prediction-horizon l1 terms with exponentially increasing weights
    ks = np.arange(n_c, n_p)
    gam = weights.gamma ** ks
    th_cols = y_off + (ks - n_c) * 4
    a1 = problem.select(th_cols)
    a2 = problem.select(th_cols + 1)
    if weights.rho1 > 0:
        problem.l1_terms.append(nlp.L1Term(a1, np.full(ks.size, theta_f), weights.rho1 * gam))
    if weights.rho2 > 0:
        problem.l1_terms.append(nlp.L1Term(a2, np.zeros(ks.size), weights.rho2 * gam))
    if weights.rho3 > 0:
        problem.l1_terms.append(nlp.L1Term(-params.k * a1 - params.c * a2, tau_f - d_arr[ks],
                                           weights.rho3 * gam))

    # warm start: the previous plan's free inputs; cold start: a rest-to-rest
    # move to the goal configuration. States come from a rollout
    u_fallback = np.zeros((n_p, n))
    if u_prev is not None:
        rows = np.asarray(u_prev, dtype=float)[1:n_c - 1]
        u_fallback[1:1 + len(rows)] = rows
        u_guess = u_fallback
    else:
        u_guess = np.zeros((n_p, n))
        u_guess[:n_un] = _rest_to_rest_input(chain, task, weights, _goal_configuration(chain, task))
    xs_guess, _ = fast_rollout(chain, x0, u_guess, params, d_arr, dt)
    problem.set_initial_guess("x", xs_guess[:n_c + 1])
    problem.set_initial_guess("y", xs_guess[n_c:, sub])
    problem.set_initial_guess("u", u_guess[:n_un].ravel())

    sol = nlp.solve(problem, nlp.SolverOptions(**{"max_iter": 150, **(opts or {})}))

    # a feasible plan is executable even when optimality stalled; only an
    # infeasible iterate forces the fallback to the previous input, or to rest
    fell_back = sol.constraint_violation > 1e-6
    if fell_back:
        u_full = u_fallback
        xs, _ = fast_rollout(chain, x0, u_full, params, d_arr, dt)
    else:
        u_full = np.zeros((n_p, n))
        u_var = sol.variables["u"].reshape(n_un, n)
        u_full[:n_un] = u_var
        xs = np.zeros((n_p + 1, n_x))
        xs[:n_c + 1] = sol.variables["x"].reshape(n_c + 1, n_x)
        xs[n_c + 1:, :n] = xs[n_c, :n]
        xs[n_c + 1:, sub] = sol.variables["y"].reshape(n_tail, 4)[1:]

    tau = reaction_torque(xs[:n_p, n], xs[:n_p, 2 * n + 1], params, d_arr)
    u_traj = Trajectory(dt, u_full, tuple(f"u{i+1}" for i in range(n)))
    return PlannedMotion(u_traj, xs, tau, xs[:n_p, -2].copy(), theta_f, tau_f,
                         sol.objective, sol, fell_back)
