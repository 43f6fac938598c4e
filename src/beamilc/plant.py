"""Truth-plant simulator standing in for the physical robot+beam experiment.

Simulates a deliberately richer system than the nominal model: either the
single pendulum with perturbed parameters or a two-segment (double)
pendulum whose second mode plays the role of unmodeled residual dynamics.
The sensed output runs through the true first-order filter with an
exponentially decaying estimator bias, gets Gaussian noise added per
measurement sample, and is decimated to the estimation grid.

The arm tracks its reference exactly (ideal joint tracking), so the frame
{b} motion along the whole experiment is precomputed in one batched pass
and only the beam + sensing substate is integrated in the loop. Once the
arm has settled, its stage inputs repeat bit for bit from step to step, so
the pass runs only over the record's distinct head, up to the first step
from which every step's stage inputs equal the last step's; later steps
read that step's frame terms. The two-segment equation
(:func:`two_segment_ode`, the only one) and its RK4 loop run on plain
Python floats, with explicit 2x2 products and the 2x2 solve: thousands of
steps on 2-vectors cost far less that way than as numpy calls. The frame's
rotation enters both segments through the summed block ``m_rot`` and the
velocity block ``m_w`` of :func:`~beamilc.dynamics.plane_frame_coeffs`.
The shared step's terms become floats once; each head step reads its own
with one ``.tolist()`` per coefficient array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (BeamParams, IntegrationBlowupError, _substate_rk4, arm_stage_states,
                       equilibrium_for_rotation, plane_frame_coeffs, rest_substate)
from .kinematics import GRAVITY, forward_kinematics
from .trajectory import Trajectory

TRUTH_KINDS = ("perturbed_single", "two_segment")


@dataclass(frozen=True)
class TwoSegmentParams:
    """Double-pendulum-with-springs surrogate for the flexible beam."""

    m1: float = 0.12
    l1: float = 0.4
    k1: float = 7.835
    c1: float = 0.010
    m2: float = 0.03
    l2: float = 0.2
    k2: float = 2.0856
    c2: float = 0.004

    def __post_init__(self):
        for nm in ("m1", "l1", "k1", "m2", "l2", "k2"):
            if getattr(self, nm) <= 0:
                raise ValueError(f"{nm} must be positive")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("dampers must be nonnegative")


@dataclass(frozen=True)
class PlantConfig:
    """Configuration of the truth plant and its sensing path."""

    truth_kind: str = "two_segment"
    param_factors: tuple = (1.0, 1.0, 1.0, 1.0)          # (k, c, m, l) scaling
    two_segment: TwoSegmentParams = TwoSegmentParams()
    a_true: float = 60.0
    b_true: float = 2.4
    tau_e0_true: float = 0.05
    noise_std: float = 0.005
    rate: float = 1000.0
    seed: int = 1234

    def __post_init__(self):
        object.__setattr__(self, "param_factors", tuple(self.param_factors))
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


def _segment_bias(r00, r01, r10, r11, w00, w01, w10, w11, c, s, dth):
    """Bias acceleration of a unit segment along r = (c, s), r' = (-s, c), with
    theta_ddot removed: M_rot r + 2 dth M_w r' - dth^2 r."""
    two_d, d2 = 2.0 * dth, dth * dth
    return (r00 * c + r01 * s + two_d * (w00 * -s + w01 * c) - d2 * c,
            r10 * c + r11 * s + two_d * (w10 * -s + w11 * c) - d2 * s)


def two_segment_ode(th1, th2, dth1, dth2, params, g2, m_rot, m_w):
    """Double-pendulum dynamics on the moving frame, from plane projections.

    ``th2`` is the relative angle of the second segment. Assembled from the
    virtual-work form: mass matrix from the angle Jacobians of both masses,
    bias from the frame motion, springs and dampers on both joints. Plain
    floats throughout: ``g2`` is a pair and the frame blocks nested pairs
    ``((m00, m01), (m10, m11))``, one stage of :func:`plane_frame_coeffs`
    after ``.tolist()``. Returns ``(theta1_ddot, theta2_ddot)``.
    """
    m1, l1, k1, c1 = params.m1, params.l1, params.k1, params.c1
    m2, l2, k2, c2 = params.m2, params.l2, params.k2, params.c2
    (r00, r01), (r10, r11) = m_rot
    (w00, w01), (w10, w11) = m_w
    g0, g1 = g2

    sn1, cs1 = math.sin(th1), math.cos(th1)
    sn12, cs12 = math.sin(th1 + th2), math.cos(th1 + th2)
    # angle Jacobians of the two mass positions (in-plane, frame {b}):
    # a11 = d p1 / d th1, a21 = d p2 / d th1, a22 = d p2 / d th2
    a11x, a11y = l1 * -sn1, l1 * cs1
    a22x, a22y = l2 * -sn12, l2 * cs12
    a21x, a21y = a11x + a22x, a11y + a22y

    # g2 already holds R^T (g - p_ddot_b); bias enters as (p_ddot_i - g)
    bx, by = _segment_bias(r00, r01, r10, r11, w00, w01, w10, w11, cs1, sn1, dth1)
    b1x, b1y = l1 * bx, l1 * by
    bx, by = _segment_bias(r00, r01, r10, r11, w00, w01, w10, w11, cs12, sn12, dth1 + dth2)
    b2x, b2y = b1x + l2 * bx, b1y + l2 * by
    e1x, e1y, e2x, e2y = b1x - g0, b1y - g1, b2x - g0, b2y - g1
    rhs1 = (-(m1 * (a11x * e1x + a11y * e1y) + m2 * (a21x * e2x + a21y * e2y))
            - k1 * th1 - c1 * dth1)
    rhs2 = -(m2 * (a22x * e2x + a22y * e2y)) - k2 * th2 - c2 * dth2

    m11 = m1 * (a11x * a11x + a11y * a11y) + m2 * (a21x * a21x + a21y * a21y)
    m12 = m2 * (a21x * a22x + a21y * a22y)
    m22 = m2 * (a22x * a22x + a22y * a22y)
    det = m11 * m22 - m12 * m12
    return (m22 * rhs1 - m12 * rhs2) / det, (m11 * rhs2 - m12 * rhs1) / det


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
    g2 = (rb.T @ GRAVITY)[:2].tolist()
    zmat = ((0.0, 0.0), (0.0, 0.0))

    def accel(th):
        return np.array(two_segment_ode(th[0], th[1], 0.0, 0.0, ts, g2, zmat, zmat))

    th = np.zeros(2)
    for _ in range(100):
        res = accel(th)
        if np.max(np.abs(res)) < 1e-12:
            break
        jac = np.zeros((2, 2))
        eps = 1e-7
        for j in range(2):
            tp = th.copy()
            tp[j] += eps
            jac[:, j] = (accel(tp) - res) / eps
        th = th - np.linalg.solve(jac, res)
    return tuple(th)


def _two_segment_trace(cfg, th_eq, coeffs, n_steps, h):
    """RK4 trace of the two-segment beam and the sensing path, settled filter.

    ``coeffs`` holds the frame terms of the record's distinct head
    (:func:`_distinct_head`): every step from its last row on reads that
    row, made into floats once. Each earlier step reads its four stages
    with one ``.tolist()`` per coefficient array, so the record is never
    copied whole.
    """
    ts = cfg.two_segment
    a_t, b_t, spring, damper = cfg.a_true, cfg.b_true, ts.k1, ts.c1
    frame = [coeffs[nm] for nm in ("g2", "m_rot", "m_w")]
    last = len(frame[0]) - 1
    shared = list(zip(*(c[last].tolist() for c in frame)))

    def deriv(th1, th2, dth1, dth2, tau_hat, tau_e, stage):
        dd1, dd2 = two_segment_ode(th1, th2, dth1, dth2, ts, *stage)
        return (dth1, dth2, dd1, dd2,
                -a_t * tau_hat + a_t * (-damper * dth1 - spring * th1 + tau_e), -b_t * tau_e)

    # settled filter tracking the biased rest torque, bias decay starts at t=0
    th1, th2 = float(th_eq[0]), float(th_eq[1])
    tau_e0 = cfg.tau_e0_true
    y = (th1, th2, 0.0, 0.0, -spring * th1 + tau_e0, tau_e0)
    rows = [y]
    hh, h6 = 0.5 * h, h / 6.0
    try:
        for kk in range(n_steps - 1):
            s1, s2, s3, s4 = shared if kk >= last else zip(*(c[kk].tolist() for c in frame))
            y0, y1, y2, y3, y4, y5 = y
            a0, a1, a2, a3, a4, a5 = deriv(y0, y1, y2, y3, y4, y5, s1)
            b0, b1, b2, b3, b4, b5 = deriv(y0 + hh * a0, y1 + hh * a1, y2 + hh * a2,
                                           y3 + hh * a3, y4 + hh * a4, y5 + hh * a5, s2)
            c0, c1, c2, c3, c4, c5 = deriv(y0 + hh * b0, y1 + hh * b1, y2 + hh * b2,
                                           y3 + hh * b3, y4 + hh * b4, y5 + hh * b5, s3)
            d0, d1, d2, d3, d4, d5 = deriv(y0 + h * c0, y1 + h * c1, y2 + h * c2,
                                           y3 + h * c3, y4 + h * c4, y5 + h * c5, s4)
            y = (y0 + h6 * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
                 y1 + h6 * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                 y2 + h6 * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
                 y3 + h6 * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
                 y4 + h6 * (a4 + 2.0 * b4 + 2.0 * c4 + d4),
                 y5 + h6 * (a5 + 2.0 * b5 + 2.0 * c5 + d5))
            rows.append(y)
    except ValueError as exc:  # math.sin of an infinite angle
        raise IntegrationBlowupError("truth plant integration blew up") from exc
    return np.array(rows)


def _distinct_head(q_s, dq_s, u_s):
    """Length of the head of a record's steps past which every step repeats the
    last step's stage inputs, bit for bit (``-0.0`` and ``0.0`` differ).

    From the head's last row on, every step's frame terms are that row's.
    """
    bits = np.concatenate([q_s, dq_s, u_s], axis=-1).reshape(len(q_s), -1).view(np.uint64)
    moving = np.flatnonzero(np.any(bits != bits[-1], axis=1))
    return int(moving[-1]) + 2 if moving.size else 1


def steps_per_sample(cfg, dt_est):
    """Plant steps per measurement sample; ``dt_est`` must be a whole number of them."""
    ratio = dt_est / (1.0 / cfg.rate)
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise ValueError(f"dt {dt_est:g} is not a whole multiple of the plant step "
                         f"{1.0 / cfg.rate:g}")
    return int(round(ratio))


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
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, not {n_samples}")
    h = 1.0 / cfg.rate
    ratio = steps_per_sample(cfg, dt_est)
    n_steps = (n_samples - 1) * ratio + 1
    t_grid = np.arange(n_steps) * h
    u_hold = u.sample_hold(t_grid)  # (n_steps, n_dof), zero past the horizon

    q0 = np.asarray(q0, dtype=float)
    n = chain.n_joints
    arm0 = np.concatenate([q0, np.zeros(n)])
    q, dq, q_s, dq_s, u_s = arm_stage_states(arm0, u_hold, h)
    n_head = _distinct_head(q_s, dq_s, u_s)
    coeffs = plane_frame_coeffs(chain, q_s[:n_head], dq_s[:n_head], u_s[:n_head])

    if cfg.truth_kind == "perturbed_single":
        # the nominal model's substate integrator, run at the true parameters
        # from their rest substate
        pt = _true_single_params(cfg, nominal_params)
        y0 = rest_substate(forward_kinematics(chain, q0).rotation, pt)
        rows = np.minimum(np.arange(n_steps - 1), n_head - 1)
        trace = np.array(_substate_rk4(y0, pt, {nm: v[rows] for nm, v in coeffs.items()},
                                       np.zeros(n_steps - 1), h))
    else:
        trace = _two_segment_trace(cfg, truth_equilibrium(cfg, chain, q0, nominal_params),
                                   coeffs, n_steps, h)
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
