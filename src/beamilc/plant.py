"""Truth-plant simulator standing in for the physical robot+beam experiment.

Simulates a deliberately richer system than the nominal model: either the
single pendulum with perturbed parameters or a two-segment (double)
pendulum whose second mode plays the role of unmodeled residual dynamics.
The sensed output runs through the true first-order filter with an
exponentially decaying estimator bias, gets Gaussian noise added per
measurement sample, and is decimated to the estimation grid.

The arm tracks its reference exactly (ideal joint tracking), so the frame
{b} motion along the whole experiment is precomputed in one batched pass
and only the beam + sensing substate is integrated in the loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (BeamParams, IntegrationBlowupError, _substate_rk4, arm_stage_states,
                       equilibrium_for_rotation, plane_frame_coeffs, reaction_torque)
from .kinematics import forward_kinematics
from .trajectory import Trajectory

TRUTH_KINDS = ("perturbed_single", "two_segment")


@dataclass(frozen=True)
class TwoSegmentParams:
    """Double-pendulum-with-springs surrogate for the flexible beam."""

    m1: float
    l1: float
    k1: float
    c1: float
    m2: float
    l2: float
    k2: float
    c2: float

    def __post_init__(self):
        for nm in ("m1", "l1", "k1", "m2", "l2", "k2"):
            if getattr(self, nm) <= 0:
                raise ValueError(f"{nm} must be positive")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("dampers must be nonnegative")

    def mass_matrix_small_angle(self):
        """Analytic 2-dof mass matrix at theta = 0 (used as a test oracle)."""
        m11 = self.m1 * self.l1**2 + self.m2 * (self.l1 + self.l2) ** 2
        m12 = self.m2 * (self.l2**2 + self.l1 * self.l2)
        m22 = self.m2 * self.l2**2
        return np.array([[m11, m12], [m12, m22]])


@dataclass(frozen=True)
class PlantConfig:
    """Configuration of the truth plant and its sensing path."""

    truth_kind: str = "two_segment"
    param_factors: tuple = (1.0, 1.0, 1.0, 1.0)          # (k, c, m, l) scaling
    two_segment: TwoSegmentParams | None = None
    a_true: float = 60.0
    b_true: float = 2.4
    tau_e0_true: float = 0.05
    noise_std: float = 0.005
    rate: float = 1000.0
    seed: int = 1234

    def __post_init__(self):
        if self.truth_kind not in TRUTH_KINDS:
            raise ValueError(f"truth_kind must be one of {TRUTH_KINDS}")
        if self.a_true <= 0 or self.b_true <= 0 or self.rate <= 0:
            raise ValueError("rates must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")


@dataclass(frozen=True)
class ExperimentResult:
    """Measurement returned by one experiment on the truth plant."""

    y: Trajectory            # measured filtered torque on the estimation grid
    truth_states: np.ndarray  # decimated truth beam/sensing trace (diagnostics)
    joints: Trajectory       # achieved joint positions/velocities, decimated


def two_segment_ode(theta, dtheta, params, g2, m_dw, m_ww, m_w):
    """Double-pendulum dynamics on the moving frame, from plane projections.

    ``theta``/``dtheta`` are (theta1, theta2) with theta2 the relative angle
    of the second segment. Assembled numerically from the virtual-work form:
    mass matrix from the angle Jacobians of both masses, bias from the
    frame motion, springs and dampers on both joints.
    """
    th1, th2 = theta
    dth1, dth2 = dtheta
    th12 = th1 + th2
    dth12 = dth1 + dth2
    p = params

    def rot(th):
        return np.array([math.cos(th), math.sin(th)])

    def rotp(th):
        return np.array([-math.sin(th), math.cos(th)])

    r1, rp1 = rot(th1), rotp(th1)
    r12, rp12 = rot(th12), rotp(th12)

    # angle Jacobians of the two mass positions (in-plane, frame {b})
    a11 = p.l1 * rp1               # d p1 / d th1
    a21 = p.l1 * rp1 + p.l2 * rp12  # d p2 / d th1
    a22 = p.l2 * rp12              # d p2 / d th2

    # bias accelerations (theta_ddot removed), in-plane components of
    # R^T p_ddot_i with the frame terms supplied through the projections
    def seg_bias(r, rp, dth):
        return (m_dw @ r) + (m_ww @ r) + 2.0 * dth * (m_w @ rp) - dth * dth * r

    b1 = p.l1 * seg_bias(r1, rp1, dth1)
    b2 = b1 + p.l2 * seg_bias(r12, rp12, dth12)
    # g2 already holds R^T (g - p_ddot_b); bias enters as (p_ddot_i - g)
    rhs1 = -(p.m1 * (a11 @ (b1 - g2)) + p.m2 * (a21 @ (b2 - g2))) - p.k1 * th1 - p.c1 * dth1
    rhs2 = -(p.m2 * (a22 @ (b2 - g2))) - p.k2 * th2 - p.c2 * dth2

    m11 = p.m1 * (a11 @ a11) + p.m2 * (a21 @ a21)
    m12 = p.m2 * (a21 @ a22)
    m22 = p.m2 * (a22 @ a22)
    det = m11 * m22 - m12 * m12
    dd1 = (m22 * rhs1 - m12 * rhs2) / det
    dd2 = (m11 * rhs2 - m12 * rhs1) / det
    return dd1, dd2


def _true_single_params(cfg, nominal):
    f = cfg.param_factors
    return BeamParams(k=nominal.k * f[0], c=nominal.c * f[1], m=nominal.m * f[2],
                      l=nominal.l * f[3], a=cfg.a_true, b=cfg.b_true,
                      tau_e0=cfg.tau_e0_true)


def truth_equilibrium(cfg, chain, q0, nominal):
    """Rest angles of the configured truth model at configuration q0."""
    rb = forward_kinematics(chain, q0).rotation
    if cfg.truth_kind == "perturbed_single":
        pt = _true_single_params(cfg, nominal)
        return (equilibrium_for_rotation(rb, pt),)
    ts = cfg.two_segment
    g2 = (rb.T @ np.array([0.0, 0.0, -9.81]))[:2]
    th = np.zeros(2)
    zmat = np.zeros((2, 2))
    for _ in range(100):
        dd1, dd2 = two_segment_ode(th, (0.0, 0.0), ts, g2, zmat, zmat, zmat)
        res = np.array([dd1, dd2])
        if np.max(np.abs(res)) < 1e-12:
            break
        jac = np.zeros((2, 2))
        eps = 1e-7
        for j in range(2):
            tp = th.copy()
            tp[j] += eps
            d1p, d2p = two_segment_ode(tp, (0.0, 0.0), ts, g2, zmat, zmat, zmat)
            jac[:, j] = (np.array([d1p, d2p]) - res) / eps
        th = th - np.linalg.solve(jac, res)
    return tuple(th)


def _two_segment_trace(cfg, th_eq, coeffs, n_steps, h):
    """RK4 trace of the two-segment beam and the sensing path, settled filter."""
    ts = cfg.two_segment
    a_t, b_t = cfg.a_true, cfg.b_true
    g2_all, mdw_all = coeffs["g2"], coeffs["m_dw"]
    mww_all, mw_all = coeffs["m_ww"], coeffs["m_w"]

    def torque(y):
        return -ts.c1 * y[2] - ts.k1 * y[0]

    def deriv(s, kk, y):
        dd1, dd2 = two_segment_ode((y[0], y[1]), (y[2], y[3]), ts,
                                   g2_all[kk, s], mdw_all[kk, s],
                                   mww_all[kk, s], mw_all[kk, s])
        tau = torque(y)
        return np.array([y[2], y[3], dd1, dd2, -a_t * y[4] + a_t * (tau + y[5]), -b_t * y[5]])

    # settled filter tracking the biased signal, bias decay starts at t=0
    state = np.array([th_eq[0], th_eq[1], 0.0, 0.0, 0.0, 0.0])
    state[-1] = cfg.tau_e0_true
    state[-2] = torque(state) + cfg.tau_e0_true
    trace = np.zeros((n_steps, state.shape[0]))
    trace[0] = state
    for kk in range(n_steps - 1):
        y = trace[kk]
        f1 = deriv(0, kk, y)
        f2 = deriv(1, kk, y + 0.5 * h * f1)
        f3 = deriv(2, kk, y + 0.5 * h * f2)
        f4 = deriv(3, kk, y + h * f3)
        trace[kk + 1] = y + (h / 6.0) * (f1 + 2 * f2 + 2 * f3 + f4)
    return trace


def run_experiment(cfg, chain, q0, u, n_samples, dt_est, nominal_params, seed=None):
    """Apply ``u`` to the truth plant and measure the filtered torque.

    ``u`` is a Trajectory of joint accelerations on its own (control) grid,
    zero-order-held onto the plant grid and zero-padded past its horizon.
    Returns ``n_samples`` measurements at ``dt_est`` spacing; deterministic
    for a fixed seed (``cfg.seed`` unless overridden, so repeated
    experiments can draw independent noise streams).
    """
    if not isinstance(u, Trajectory):
        raise TypeError("u must be a Trajectory")
    h = 1.0 / cfg.rate
    ratio = dt_est / h
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError("dt_est must be an integer multiple of the plant step")
    ratio = int(round(ratio))
    n_steps = (n_samples - 1) * ratio + 1
    t_grid = np.arange(n_steps) * h
    u_hold = u.sample_hold(t_grid)  # (n_steps, n_dof), zero past the horizon

    q0 = np.asarray(q0, dtype=float)
    n = chain.n_joints
    arm0 = np.concatenate([q0, np.zeros(n)])
    q, dq, q_s, dq_s, u_s = arm_stage_states(arm0, u_hold, h)
    coeffs = plane_frame_coeffs(chain, q_s, dq_s, u_s)

    th_eq = truth_equilibrium(cfg, chain, q0, nominal_params)
    if cfg.truth_kind == "perturbed_single":
        # the nominal model's substate integrator, run at the true parameters;
        # the filter starts settled on the biased torque
        pt = _true_single_params(cfg, nominal_params)
        tau_e0 = cfg.tau_e0_true
        y0 = (th_eq[0], 0.0, reaction_torque(th_eq[0], 0.0, pt) + tau_e0, tau_e0)
        trace = np.array(_substate_rk4(y0, pt, coeffs, np.zeros(n_steps - 1), h))
    else:
        trace = _two_segment_trace(cfg, th_eq, coeffs, n_steps, h)
    if not np.all(np.isfinite(trace)):
        raise IntegrationBlowupError("truth plant integration blew up")

    meas_idx = np.arange(n_samples) * ratio
    y_clean = trace[meas_idx, -2]
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    noise = rng.standard_normal(n_samples) * cfg.noise_std if cfg.noise_std > 0 else 0.0
    y_meas = y_clean + noise

    joints = np.hstack([q[meas_idx], dq[meas_idx]])
    labels = tuple(f"q{i+1}" for i in range(n)) + tuple(f"dq{i+1}" for i in range(n))
    return ExperimentResult(
        y=Trajectory(dt_est, y_meas[:, None], ("tau_hat",)),
        truth_states=trace[meas_idx],
        joints=Trajectory(dt_est, joints, labels),
    )
