"""Lumped pendulum-on-end-effector model and torque sensing.

The combined state is ``x = [q, theta, dq, dtheta, tau_hat, tau_e]`` with
``n_x = 2*(n_dof+1) + 2``. The arm is a double integrator (ideal joint
tracking), the beam is a single pendulum on a passive spring-damper joint
swinging about the Z axis of frame {b}, and the measured output is a
first-order-filtered reaction torque with an exponentially decaying
estimator error.

The arm's RK4 stages follow in closed form from its input
(:func:`arm_rk4_stages`), so only the beam-and-sensing substate
``(theta, dtheta, tau_hat, tau_e)`` is integrated, by
:func:`substate_rk4_step` over the frame terms of the four stages from
:func:`plane_frame_coeffs`. The frame's rotation enters the pendulum
through one 2x2 block, ``m_rot``, the sum of the angular-acceleration and
angular-velocity blocks, which each evaluation projects once.
:func:`pendulum_accel` is the one pendulum equation: the rollout, both
fits, the OCP (on duals of its decision variables), the single-pendulum
plant and the equilibrium solve all use it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ad
from .kinematics import GRAVITY, frame_state

PARAM_NAMES = ("k", "c", "m", "l", "a", "b", "tau_e0")
PARAM_UNITS = ("N*m/rad", "N*m*s/rad", "kg", "m", "1/s", "1/s", "N*m")


# the m_rot block of plane_frame_coeffs for a frame that does not rotate
NO_ROTATION = np.zeros((2, 2))


class IntegrationBlowupError(RuntimeError):
    """Raised when an integration step produces non-finite state."""


class EquilibriumError(RuntimeError):
    """Raised when no pendulum equilibrium is bracketed in (-pi, pi)."""


@dataclass(frozen=True)
class BeamParams:
    """Parameters of the setup model: spring, damper, lumped mass and sensing."""

    k: float
    c: float
    m: float
    l: float
    a: float
    b: float
    tau_e0: float = 0.0

    def __post_init__(self):
        if self.k <= 0 or self.m <= 0 or self.l <= 0 or self.a <= 0 or self.b <= 0:
            raise ValueError("k, m, l, a, b must be positive")
        if self.c < 0:
            raise ValueError("c must be nonnegative")

    def as_array(self):
        return np.array([self.k, self.c, self.m, self.l, self.a, self.b, self.tau_e0])

    @staticmethod
    def from_array(arr):
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (7,):
            raise ValueError("parameter vector must have 7 entries")
        return BeamParams(*arr.tolist())

    def as_dict(self):
        return {n: float(getattr(self, n)) for n in PARAM_NAMES}


@dataclass(frozen=True)
class BeamGeometry:
    """Physical beam constants used for the analytic parameter prior."""

    length: float
    width: float
    thickness: float
    density: float
    bending_stiffness: float

    def __post_init__(self):
        for name in ("length", "width", "thickness", "density", "bending_stiffness"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def mass(self):
        return self.density * self.length * self.width * self.thickness

    @property
    def first_mode_frequency(self):
        """First cantilever natural frequency, rad/s (Euler-Bernoulli)."""
        rho_a = self.mass / self.length
        return 1.8751 ** 2 * math.sqrt(self.bending_stiffness / (rho_a * self.length ** 4))


def state_dim(n_dof):
    return 2 * (n_dof + 1) + 2


def _params_tuple(p):
    """Split a parameter carrier into (k, c, m, l, a, b) scalars or duals."""
    if isinstance(p, BeamParams):
        return p.k, p.c, p.m, p.l, p.a, p.b
    return tuple(ad.comp(p, i) for i in range(6))


def reaction_torque(theta, dtheta, p, d=0.0):
    """Reaction torque about Z_b: spring/damper plus the learned disturbance."""
    k, c = (p.k, p.c) if isinstance(p, BeamParams) else (ad.comp(p, 0), ad.comp(p, 1))
    return -c * dtheta - k * theta + d


def measurement_dynamics(tau_hat, tau, tau_e, p):
    """First-order filter of the biased torque plus the bias decay."""
    a = p.a if isinstance(p, BeamParams) else ad.comp(p, 4)
    b = p.b if isinstance(p, BeamParams) else ad.comp(p, 5)
    return -a * tau_hat + a * (tau + tau_e), -b * tau_e


def arm_rk4_stages(q, dq, u, h):
    """The four RK4 stage values ``(q_s, dq_s)`` of one arm step, in closed form.

    The arm is a double integrator with ``u`` held over the step, so RK4's
    stages are known without integrating, and the fourth stage is the end
    of the step. The stages are stacked on a new leading axis of length 4.
    Plain ``+`` and ``*`` only: arrays batched over nodes and
    :mod:`beamilc.ad` duals both run through it.
    """
    lead = (4,) + (1,) * max(np.ndim(ad.value(v)) for v in (q, dq, u))
    a = (np.array([0.0, 0.5, 0.5, 1.0]) * h).reshape(lead)    # dq's weight, u's in dq
    b = (np.array([0.0, 0.0, 0.25, 0.5]) * h * h).reshape(lead)   # u's weight in q
    return q + a * dq + b * u, dq + a * u


def arm_stage_states(q0, u_seq, dt):
    """Closed-form arm trajectory and RK4 stage configurations of a record.

    Returns ``(q, dq)`` at every step start and at the end, shapes (N+1, n),
    and the :func:`arm_rk4_stages` of every step as stage arrays
    ``(q_s, dq_s, u_s)`` of shape (N, 4, n). Each of ``dq`` and ``q`` is one
    running sum that adds in the step's order, ``dq + dt u`` and
    ``(q + dt dq) + dt^2/2 u``: ``q`` sums the interleaved increments and
    keeps every other row.
    """
    u_seq = np.atleast_2d(np.asarray(u_seq, dtype=float))
    n_steps, n = u_seq.shape
    q0 = np.asarray(q0, dtype=float)
    dq0 = q0[n:] if q0.shape[0] == 2 * n else np.zeros(n)
    dq = np.add.accumulate(np.vstack([dq0, dt * u_seq]))
    incr = np.empty((2 * n_steps + 1, n))
    incr[0] = q0[:n]
    incr[1::2] = dt * dq[:-1]
    incr[2::2] = 0.5 * dt * dt * u_seq
    q = np.add.accumulate(incr)[::2]
    q_s, dq_s = arm_rk4_stages(q[:-1], dq[:-1], u_seq, dt)
    u_s = np.repeat(u_seq[:, None, :], 4, axis=1)
    return q, dq, np.moveaxis(q_s, 0, 1).copy(), np.moveaxis(dq_s, 0, 1).copy(), u_s


def plane_frame_coeffs(chain, q, dq, ddq):
    """Swing-plane projections of the frame {b} motion, batched and dual-transparent.

    Returns trailing dims: ``g2`` (.., 2) the in-plane part of
    R^T (g - p_ddot); ``m_rot``, ``m_w`` (.., 2, 2) the in-plane blocks of
    R^T S(w_dot) R + R^T S(w) S(w) R and of R^T S(w) R. Everything a
    pendulum (or chain of pendulums) on frame {b} needs: both equations use
    the first two blocks only through their sum. With ``v_b = R^T v``,
    ``R^T S(v) R = S(v_b)`` and ``S(w)^2 = w w^T - |w|^2 I``, so ``m_rot``'s
    symmetric part is the in-plane ``S(w_b)^2`` and its antisymmetric part
    ``S(w_dot_b)``.
    """
    fr = frame_state(chain, q, dq, ddq)
    rt = ad.mtranspose(fr["R"])
    g2 = ad.sub(ad.matvec(rt, GRAVITY - fr["a"]), slice(0, 2))
    wx, wy, wz = (ad.comp(ad.matvec(rt, fr["w"]), i) for i in range(3))
    dwz = ad.comp(ad.matvec(rt, fr["dw"]), 2)
    zero = 0.0 * wz

    def mat(a, b, c, d):    # [[a, b], [c, d]]
        return ad.stack_last([ad.stack_last([a, c]), ad.stack_last([b, d])])

    wxy = wx * wy
    return {"g2": g2,
            "m_rot": mat(-(wy * wy + wz * wz), wxy - dwz, wxy + dwz, -(wx * wx + wz * wz)),
            "m_w": mat(zero, -wz, wz, zero)}


def pendulum_accel(theta, dtheta, k, c, m, l, g2, m_rot):
    """Angular acceleration of the pendulum on frame {b}: the model's equation.

    Spring and damper, the in-plane gravity-minus-frame-acceleration
    ``g2`` and the rotation block ``m_rot`` of :func:`plane_frame_coeffs`,
    component axes first. At rest (``dtheta = 0``, ``m_rot =``
    :data:`NO_ROTATION`, ``g2 = (R^T g)[:2]``) it is zero at the
    equilibrium angle. Floats, arrays and duals run through it.
    """
    # scalar loops keep libm's sine, whose last bits numpy's need not match
    if isinstance(theta, float):
        st, ct = math.sin(theta), math.cos(theta)
    else:
        st, ct = ad.sin(theta), ad.cos(theta)
    # r = (ct, st), r' = (-st, ct); r'^T M r expanded on the 2x2 block
    proj = (-st * ct * m_rot[0, 0] - st * st * m_rot[0, 1]
            + ct * ct * m_rot[1, 0] + ct * st * m_rot[1, 1])
    term_g = (-st * g2[0] + ct * g2[1]) / l
    return -(k * theta + c * dtheta) / (m * l * l) + term_g - proj


def substate_rk4_step(y, p, coeffs, d, h):
    """Classical RK4 step of the beam-and-sensing substate, ``d`` held.

    ``y`` is ``(theta, dtheta, tau_hat, tau_e)``, ``p`` a parameter carrier
    and ``coeffs`` the :func:`plane_frame_coeffs` of the step's four stages,
    indexed ``[stage, component..., node...]``. Floats, arrays batched over
    the node axes and :mod:`beamilc.ad` duals all run through it.
    """
    k, c, m, l, _, _ = _params_tuple(p)
    g2, m_rot = coeffs["g2"], coeffs["m_rot"]

    def f(s, y):
        theta, dtheta, tau_hat, tau_e = y
        ddtheta = pendulum_accel(theta, dtheta, k, c, m, l, g2[s], m_rot[s])
        dtau_hat, dtau_e = measurement_dynamics(
            tau_hat, reaction_torque(theta, dtheta, p, d), tau_e, p)
        return (dtheta, ddtheta, dtau_hat, dtau_e)

    k1 = f(0, y)
    k2 = f(1, tuple(y[i] + 0.5 * h * k1[i] for i in range(4)))
    k3 = f(2, tuple(y[i] + 0.5 * h * k2[i] for i in range(4)))
    k4 = f(3, tuple(y[i] + h * k3[i] for i in range(4)))
    return tuple(y[i] + (h / 6.0) * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]) for i in range(4))


def _substate_rk4(y0, p, coeffs, d_seq, h):
    """Substates at every step start and at the end, one :func:`substate_rk4_step` a step.

    ``coeffs`` is laid out as :func:`plane_frame_coeffs` returns it.
    """
    out = [y0]
    for kk in range(len(d_seq)):
        y0 = substate_rk4_step(y0, p, {nm: v[kk] for nm, v in coeffs.items()},
                               float(d_seq[kk]), h)
        out.append(y0)
    return out


def fast_rollout(chain, x0, u_seq, p, d_seq=None, dt=None):
    """Integrate N RK4 steps; returns states (N+1, nx) and outputs (N,).

    ``u_seq`` is (N, n_dof); ``d_seq`` is (N,) or None for zero. The output
    sample k is taken at state k (before the step), matching the estimation
    horizon convention. The frame terms at the closed-form RK4 stage arm
    configurations come in one batched pass; only the pendulum and sensing
    substate is integrated, in a scalar loop.
    """
    n = chain.n_joints
    u_seq = np.atleast_2d(np.asarray(u_seq, dtype=float))
    n_steps = u_seq.shape[0]
    d_seq = np.zeros(n_steps) if d_seq is None else np.asarray(d_seq, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    arm0 = np.concatenate([x0[:n], x0[n + 1:2 * n + 1]])
    q, dq, q_s, dq_s, u_s = arm_stage_states(arm0, u_seq, dt)
    coeffs = plane_frame_coeffs(chain, q_s, dq_s, u_s)
    y0 = (float(x0[n]), float(x0[2 * n + 1]), float(x0[2 * n + 2]), float(x0[2 * n + 3]))
    out = np.array(_substate_rk4(y0, p, coeffs, d_seq, dt))
    if not np.all(np.isfinite(out)):
        raise IntegrationBlowupError("non-finite state in fast rollout")
    xs = np.hstack([q, out[:, :1], dq, out[:, 1:]])
    return xs, xs[:n_steps, -2].copy()


def equilibrium_for_rotation(rb, p, tol=1e-12):
    """Pendulum equilibrium angle for a fixed frame orientation.

    Scans the potential energy over (-pi, pi), takes the global minimum and
    polishes it with safeguarded Newton (bisection fallback) on the
    stationary-arm dynamics until the residual is below ``tol``.
    """
    rb = np.asarray(rb, dtype=float)
    g_b = rb.T @ GRAVITY
    k, m, l = p.k, p.m, p.l

    def f(th):
        return pendulum_accel(th, 0.0, k, p.c, m, l, g_b, NO_ROTATION)

    def fprime(th):
        return -k / (m * l * l) + (-math.cos(th) * g_b[0] - math.sin(th) * g_b[1]) / l

    # potential energy scan picks the physical (stable) equilibrium
    grid = np.linspace(-math.pi + 1e-9, math.pi - 1e-9, 4001)
    pot = 0.5 * k * grid**2 - m * l * (g_b[0] * np.cos(grid) + g_b[1] * np.sin(grid))
    i0 = int(np.argmin(pot))
    lo = grid[max(i0 - 1, 0)]
    hi = grid[min(i0 + 1, len(grid) - 1)]
    if i0 in (0, len(grid) - 1) or f(lo) * f(hi) > 0:
        raise EquilibriumError("no pendulum equilibrium bracketed in (-pi, pi)")
    th = grid[i0]
    flo, fhi = f(lo), f(hi)
    for _ in range(200):
        res = f(th)
        if abs(res) < tol:
            return float(th)
        dth = -res / fprime(th)
        cand = th + dth
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)  # bisection fallback
        if f(cand) * flo <= 0:
            hi, fhi = cand, f(cand)
        else:
            lo, flo = cand, f(cand)
        th = cand
    raise EquilibriumError("equilibrium refinement did not converge")


def rest_substate(rb0, p, d0=0.0):
    """Rest ``(theta, dtheta, tau_hat, tau_e)`` in the frame orientation ``rb0``.

    The filter has settled on the biased torque under the disturbance
    ``d0``; the bias decay starts now.
    """
    th = equilibrium_for_rotation(rb0, p)
    return th, 0.0, -p.k * th + d0 + p.tau_e0, p.tau_e0


def analytic_init_params(geom, zeta=0.01, a=50.0, b=2.0, tau_e0=0.0):
    """Analytic parameter prior from the beam material properties.

    A first-mode-matched lumped model: rod length two thirds of the beam,
    tip mass from static-moment equivalence (3/8 of the beam mass), spring
    chosen so the pendulum frequency equals the first cantilever mode, and
    damper from the configured damping ratio.
    """
    omega1 = geom.first_mode_frequency
    l = 2.0 * geom.length / 3.0
    m = 3.0 * geom.mass / 8.0
    k = m * l * l * omega1 ** 2
    c = 2.0 * zeta * m * l * l * omega1
    return BeamParams(k=k, c=c, m=m, l=l, a=a, b=b, tau_e0=tau_e0)
