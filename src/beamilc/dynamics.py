"""Lumped pendulum-on-end-effector model, torque sensing, and the setup ODE.

The combined state is ``x = [q, theta, dq, dtheta, tau_hat, tau_e]`` with
``n_x = 2*(n_dof+1) + 2``. The arm is a double integrator (ideal joint
tracking), the beam is a single pendulum on a passive spring-damper joint
swinging about the Z axis of frame {b}, and the measured output is a
first-order-filtered reaction torque with an exponentially decaying
estimator error.

When the joint input is known, so is the arm's motion
(:func:`arm_stage_states`), and only the beam-and-sensing substate
``(theta, dtheta, tau_hat, tau_e)`` is integrated, by
:func:`substate_rk4_step` over frame terms from :func:`plane_frame_coeffs`.
The OCP, whose input is a decision variable, steps the full state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ad
from .kinematics import GRAVITY, forward_kinematics, frame_state

PARAM_NAMES = ("k", "c", "m", "l", "a", "b", "tau_e0")
PARAM_UNITS = ("N*m/rad", "N*m*s/rad", "kg", "m", "1/s", "1/s", "N*m")


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


@dataclass(frozen=True)
class SetupState:
    """Structured view of the combined arm+pendulum+sensing state."""

    q: np.ndarray
    theta: float
    dq: np.ndarray
    dtheta: float
    tau_hat: float
    tau_e: float

    def as_array(self):
        return np.concatenate([
            np.asarray(self.q, dtype=float), [self.theta],
            np.asarray(self.dq, dtype=float), [self.dtheta, self.tau_hat, self.tau_e],
        ])

    @staticmethod
    def from_array(x, n_dof):
        x = np.asarray(x, dtype=float)
        if x.shape != (2 * (n_dof + 1) + 2,):
            raise ValueError("state dimension mismatch")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite state entries")
        return SetupState(x[:n_dof].copy(), float(x[n_dof]), x[n_dof + 1:2 * n_dof + 1].copy(),
                          float(x[2 * n_dof + 1]), float(x[2 * n_dof + 2]), float(x[2 * n_dof + 3]))


def state_dim(n_dof):
    return 2 * (n_dof + 1) + 2


def rest_state(chain, q0, params, d0=0.0, theta=None):
    """Rest fixed point at configuration ``q0`` (settled filter, zero error)."""
    q0 = np.asarray(q0, dtype=float)
    th = pendulum_equilibrium(chain, q0, params) if theta is None else theta
    tau = -params.k * th + d0
    return SetupState(q0, th, np.zeros_like(q0), 0.0, tau, 0.0).as_array()


def _params_tuple(p):
    """Split a parameter carrier into (k, c, m, l, a, b) scalars or duals."""
    if isinstance(p, BeamParams):
        return p.k, p.c, p.m, p.l, p.a, p.b
    return tuple(ad.comp(p, i) for i in range(6))


def pendulum_accel(chain, q, dq, ddq, theta, dtheta, p, frame=None):
    """Pendulum angular acceleration (the dynamics of the lumped beam).

    Evaluates the Lagrangian pendulum dynamics on the moving frame {b}:
    spring/damper restoring, gravity-minus-frame-acceleration projection
    and the angular velocity/acceleration coupling terms. Batched/dual
    transparent. ``frame`` may pass a precomputed frame_state result.
    """
    k, c, m, l, _, _ = _params_tuple(p)
    if frame is None:
        frame = frame_state(chain, q, dq, ddq)
    rb, acc, w, dw = frame["R"], frame["a"], frame["w"], frame["dw"]
    st, ct = ad.sin(theta), ad.cos(theta)
    zero = 0.0 * st
    r_vec = ad.stack_last([ct, st, zero])
    rp_vec = ad.stack_last([-st, ct, zero])
    rr = ad.matvec(rb, r_vec)      # world direction of the rod
    rrp = ad.matvec(rb, rp_vec)    # world direction of the swing tangent
    grav = GRAVITY - acc if not ad.is_dual(acc) else ad.constant(GRAVITY, acc.nseeds) - acc
    term_g = ad.inner(rrp, grav) / l
    term_dw = ad.inner(rrp, ad.cross(dw, rr))
    term_ww = ad.inner(ad.cross(w, rrp), ad.cross(w, rr))
    return -(k * theta + c * dtheta) / (m * l * l) + term_g - term_dw + term_ww


def reaction_torque(theta, dtheta, p, d=0.0):
    """Reaction torque about Z_b: spring/damper plus the learned disturbance."""
    k, c = (p.k, p.c) if isinstance(p, BeamParams) else (ad.comp(p, 0), ad.comp(p, 1))
    return -c * dtheta - k * theta + d


def measurement_dynamics(tau_hat, tau, tau_e, p):
    """First-order filter of the biased torque plus the bias decay."""
    a = p.a if isinstance(p, BeamParams) else ad.comp(p, 4)
    b = p.b if isinstance(p, BeamParams) else ad.comp(p, 5)
    return -a * tau_hat + a * (tau + tau_e), -b * tau_e


def setup_ode(chain, x, u, p, d=0.0):
    """Stacked state derivative of the combined setup model.

    ``x`` is batched over leading axes; ``u`` is the joint acceleration
    command and ``d`` the output disturbance (both held by the caller).
    """
    n = chain.n_joints
    nx = state_dim(n)
    if ad.value(x).shape[-1] != nx:
        raise ValueError(f"state must have {nx} entries")
    if ad.value(u).shape[-1] != n:
        raise ValueError(f"control must have {n} entries")
    q = ad.sub(x, slice(0, n))
    theta = ad.comp(x, n)
    dq = ad.sub(x, slice(n + 1, 2 * n + 1))
    dtheta = ad.comp(x, 2 * n + 1)
    tau_hat = ad.comp(x, 2 * n + 2)
    tau_e = ad.comp(x, 2 * n + 3)
    b = p.b if isinstance(p, BeamParams) else ad.comp(p, 5)

    ddtheta = pendulum_accel(chain, q, dq, u, theta, dtheta, p)
    tau = reaction_torque(theta, dtheta, p, d)
    dtau_hat, _ = measurement_dynamics(tau_hat, tau, tau_e, p)
    parts = [dq, ad.stack_last([dtheta]), u, ad.stack_last([ddtheta]),
             ad.stack_last([dtau_hat]), ad.stack_last([-b * tau_e])]
    return ad.concat_last(parts)


def rk4_step(chain, x, u, p, d, dt, check=True):
    """Classical RK4 step of the setup ODE with u and d zero-order-held."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    k1 = setup_ode(chain, x, u, p, d)
    k2 = setup_ode(chain, x + (0.5 * dt) * k1, u, p, d)
    k3 = setup_ode(chain, x + (0.5 * dt) * k2, u, p, d)
    k4 = setup_ode(chain, x + dt * k3, u, p, d)
    x_next = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if check and not np.all(np.isfinite(ad.value(x_next))):
        raise IntegrationBlowupError("non-finite state after RK4 step")
    return x_next


def rollout(chain, x0, u_seq, p, d_seq=None, dt=None):
    """Integrate N steps; returns states (N+1, nx) and outputs (N,).

    ``u_seq`` is (N, n_dof); ``d_seq`` is (N,) or None for zero. The output
    sample k is taken at state k (before the step), matching the estimation
    horizon convention.
    """
    u_seq = np.atleast_2d(np.asarray(u_seq, dtype=float))
    n_steps = u_seq.shape[0]
    if d_seq is None:
        d_seq = np.zeros(n_steps)
    d_seq = np.asarray(d_seq, dtype=float)
    xs = np.zeros((n_steps + 1, len(x0)))
    xs[0] = x0
    for k in range(n_steps):
        xs[k + 1] = rk4_step(chain, xs[k], u_seq[k], p, float(d_seq[k]), dt)
    ys = xs[:n_steps, -2].copy()
    return xs, ys


def arm_stage_states(q0, u_seq, dt):
    """Closed-form arm trajectory and RK4 stage configurations.

    The arm substate is a double integrator with zero-order-held input, so
    RK4 reproduces it exactly and the four internal stage values of every
    step are known in closed form. Returns ``(q, dq)`` at every step start
    and at the end, shapes (N+1, n), and stage arrays ``(q_s, dq_s, u_s)``
    of shape (N, 4, n) matching the canonical :func:`rk4_step` stage
    arithmetic bit for bit.
    """
    u_seq = np.atleast_2d(np.asarray(u_seq, dtype=float))
    n_steps, n = u_seq.shape
    q0 = np.asarray(q0, dtype=float)
    dq = np.zeros((n_steps + 1, n))
    q = np.zeros((n_steps + 1, n))
    q[0] = q0[:n]
    dq[0] = q0[n:] if q0.shape[0] == 2 * n else 0.0
    for k in range(n_steps):
        dq[k + 1] = dq[k] + dt * u_seq[k]
        q[k + 1] = q[k] + dt * dq[k] + 0.5 * dt * dt * u_seq[k]
    qk, dqk = q[:-1], dq[:-1]
    h = dt
    q_s = np.stack([
        qk,
        qk + 0.5 * h * dqk,
        qk + 0.5 * h * dqk + 0.25 * h * h * u_seq,
        qk + h * dqk + 0.5 * h * h * u_seq,
    ], axis=1)
    dq_s = np.stack([
        dqk,
        dqk + 0.5 * h * u_seq,
        dqk + 0.5 * h * u_seq,
        dqk + h * u_seq,
    ], axis=1)
    u_s = np.repeat(u_seq[:, None, :], 4, axis=1)
    return q, dq, q_s, dq_s, u_s


def plane_frame_coeffs(chain, q, dq, ddq):
    """Swing-plane projections of the frame {b} motion, batched.

    Returns arrays with trailing dims: ``g2`` (.., 2) the in-plane part of
    R^T (g - p_ddot); ``m_dw``, ``m_ww``, ``m_w`` (.., 2, 2) the in-plane
    blocks of R^T S(w_dot) R, R^T S(w) S(w) R and R^T S(w) R. Everything a
    pendulum (or chain of pendulums) on frame {b} needs.
    """
    fr = frame_state(chain, q, dq, ddq)
    rb, acc, w, dw = fr["R"], fr["a"], fr["w"], fr["dw"]

    def skew(v):
        z = np.zeros_like(v[..., 0])
        return np.stack([
            np.stack([z, -v[..., 2], v[..., 1]], axis=-1),
            np.stack([v[..., 2], z, -v[..., 0]], axis=-1),
            np.stack([-v[..., 1], v[..., 0], z], axis=-1),
        ], axis=-2)

    rt = np.swapaxes(rb, -2, -1)
    g2 = np.einsum("...ij,...j->...i", rt, GRAVITY - acc)[..., :2]
    sw = skew(w)
    sdw = skew(dw)
    m_dw = np.einsum("...ij,...jk,...kl->...il", rt, sdw, rb)[..., :2, :2]
    m_ww = np.einsum("...ij,...jk,...km,...ml->...il", rt, sw, sw, rb)[..., :2, :2]
    m_w = np.einsum("...ij,...jk,...kl->...il", rt, sw, rb)[..., :2, :2]
    return {"g2": g2, "m_dw": m_dw, "m_ww": m_ww, "m_w": m_w}


def _pend_accel_from_coeffs(theta, dtheta, k, c, m, l, g2, m_dw, m_ww):
    # scalar loops keep libm's sine, whose last bits numpy's need not match
    if isinstance(theta, float):
        st, ct = math.sin(theta), math.cos(theta)
    else:
        st, ct = ad.sin(theta), ad.cos(theta)
    # r = (ct, st), r' = (-st, ct); r'^T M r expanded on the 2x2 blocks
    def proj(mm):
        return (-st * ct * mm[0, 0] - st * st * mm[0, 1]
                + ct * ct * mm[1, 0] + ct * st * mm[1, 1])
    term_g = (-st * g2[0] + ct * g2[1]) / l
    return -(k * theta + c * dtheta) / (m * l * l) + term_g - proj(m_dw) - proj(m_ww)


def substate_rk4_step(y, p, coeffs, d, h):
    """Classical RK4 step of the beam-and-sensing substate, ``d`` held.

    ``y`` is ``(theta, dtheta, tau_hat, tau_e)``, ``p`` a parameter carrier
    and ``coeffs`` the :func:`plane_frame_coeffs` of the step's four stages,
    indexed ``[stage, component..., node...]``. Floats, arrays batched over
    the node axes and :mod:`beamilc.ad` duals all run through it.
    """
    k, c, m, l, _, _ = _params_tuple(p)
    g2, m_dw, m_ww = coeffs["g2"], coeffs["m_dw"], coeffs["m_ww"]

    def f(s, y):
        theta, dtheta, tau_hat, tau_e = y
        ddtheta = _pend_accel_from_coeffs(theta, dtheta, k, c, m, l, g2[s], m_dw[s], m_ww[s])
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
    """Rollout numerically identical to :func:`rollout`, much faster.

    Precomputes the frame projections at the closed-form RK4 stage arm
    configurations in one batched pass, then integrates only the pendulum
    and sensing substate in a scalar loop.
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


def equilibrium_residual(rb, theta, p):
    """Stationary-arm pendulum acceleration as a function of theta only."""
    k, _, m, l, _, _ = _params_tuple(p)
    st, ct = ad.sin(theta), ad.cos(theta)
    g_b = ad.matvec(ad.mtranspose(rb), GRAVITY if not ad.is_dual(rb) else ad.constant(GRAVITY, rb.nseeds))
    gx, gy = ad.comp(g_b, 0), ad.comp(g_b, 1)
    return -(k * theta) / (m * l * l) + (-st * gx + ct * gy) / l


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
        return -(k * th) / (m * l * l) + (-math.sin(th) * g_b[0] + math.cos(th) * g_b[1]) / l

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


def pendulum_equilibrium(chain, q, p, tol=1e-12):
    """Equilibrium pendulum angle for the arm held at configuration ``q``."""
    pose = forward_kinematics(chain, np.asarray(q, dtype=float))
    return equilibrium_for_rotation(pose.rotation, p, tol=tol)


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
