"""Reference forms of the models that the tests check the program against.

The pendulum equation in world-frame vector form and the classical RK4
step of the full state ``x = [q, theta, dq, dtheta, tau_hat, tau_e]``,
written independently of the swing-plane frame terms and the closed-form
arm stages the program steps with; batched and dual-transparent. The
two-segment truth plant on 2-vectors and 2x2 blocks, and the parameter
fit's output sensitivity by a rollout on duals. The model's full initial
state at rest, for the full-state ``fast_rollout`` that the substate output
path is checked against.
"""
import math

import numpy as np

from beamilc import ad
from beamilc.dynamics import (_params_tuple, _substate_rk4, measurement_dynamics,
                              reaction_torque, rest_state, state_dim)
from beamilc.estimation import _rest_residual, _rest_substate
from beamilc.kinematics import GRAVITY, forward_kinematics, frame_state


def vector_pendulum_accel(chain, q, dq, ddq, theta, dtheta, p):
    """Lagrangian pendulum dynamics on the moving frame {b}, in world vectors."""
    k, c, m, l, _, _ = _params_tuple(p)
    frame = frame_state(chain, q, dq, ddq)
    rb, acc, w, dw = frame["R"], frame["a"], frame["w"], frame["dw"]
    st, ct = ad.sin(theta), ad.cos(theta)
    zero = 0.0 * st
    rr = ad.matvec(rb, ad.stack_last([ct, st, zero]))      # world direction of the rod
    rrp = ad.matvec(rb, ad.stack_last([-st, ct, zero]))    # world direction of the swing tangent
    grav = GRAVITY - acc if not ad.is_dual(acc) else ad.constant(GRAVITY, acc.nseeds) - acc
    term_g = ad.inner(rrp, grav) / l
    term_dw = ad.inner(rrp, ad.cross(dw, rr))
    term_ww = ad.inner(ad.cross(w, rrp), ad.cross(w, rr))
    return -(k * theta + c * dtheta) / (m * l * l) + term_g - term_dw + term_ww


def setup_ode(chain, x, u, p, d=0.0):
    """Stacked state derivative of the combined setup model, ``u`` and ``d`` held."""
    n = chain.n_joints
    q = ad.sub(x, slice(0, n))
    theta = ad.comp(x, n)
    dq = ad.sub(x, slice(n + 1, 2 * n + 1))
    dtheta = ad.comp(x, 2 * n + 1)
    tau_hat = ad.comp(x, 2 * n + 2)
    tau_e = ad.comp(x, 2 * n + 3)
    ddtheta = vector_pendulum_accel(chain, q, dq, u, theta, dtheta, p)
    dtau_hat, dtau_e = measurement_dynamics(tau_hat, reaction_torque(theta, dtheta, p, d),
                                            tau_e, p)
    return ad.concat_last([dq, ad.stack_last([dtheta]), u, ad.stack_last([ddtheta]),
                           ad.stack_last([dtau_hat]), ad.stack_last([dtau_e])])


def rk4_step(chain, x, u, p, d, dt):
    """Classical RK4 step of the full setup ODE."""
    k1 = setup_ode(chain, x, u, p, d)
    k2 = setup_ode(chain, x + (0.5 * dt) * k1, u, p, d)
    k3 = setup_ode(chain, x + (0.5 * dt) * k2, u, p, d)
    k4 = setup_ode(chain, x + dt * k3, u, p, d)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rollout(chain, x0, u_seq, p, d_seq, dt):
    """States (N+1, nx) and outputs (N,) of N full-state steps; output k precedes step k."""
    n_steps = len(u_seq)
    xs = np.zeros((n_steps + 1, state_dim(chain.n_joints)))
    xs[0] = x0
    for k in range(n_steps):
        xs[k + 1] = rk4_step(chain, xs[k], u_seq[k], p, float(d_seq[k]), dt)
    return xs, xs[:n_steps, -2].copy()


def _model_init_state(chain, q0, p, d0=0.0):
    """Full state at rest at ``q0`` with the filter settled on ``d0``, and the rest angle."""
    th, _, tau_hat, tau_e = _rest_substate(forward_kinematics(chain, q0).rotation, p, d0)
    x0 = rest_state(chain, q0, p, theta=th)
    x0[-2] = tau_hat
    x0[-1] = tau_e
    return x0, th


def array_two_segment_ode(theta, dtheta, params, g2, m_dw, m_ww, m_w):
    """Double-pendulum dynamics on the moving frame, on 2-vectors and 2x2 blocks."""
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

    def seg_bias(r, rp, dth):
        return (m_dw @ r) + (m_ww @ r) + 2.0 * dth * (m_w @ rp) - dth * dth * r

    b1 = p.l1 * seg_bias(r1, rp1, dth1)
    b2 = b1 + p.l2 * seg_bias(r12, rp12, dth12)
    rhs1 = -(p.m1 * (a11 @ (b1 - g2)) + p.m2 * (a21 @ (b2 - g2))) - p.k1 * th1 - p.c1 * dth1
    rhs2 = -(p.m2 * (a22 @ (b2 - g2))) - p.k2 * th2 - p.c2 * dth2

    m11 = p.m1 * (a11 @ a11) + p.m2 * (a21 @ a21)
    m12 = p.m2 * (a21 @ a22)
    m22 = p.m2 * (a22 @ a22)
    det = m11 * m22 - m12 * m12
    dd1 = (m22 * rhs1 - m12 * rhs2) / det
    dd2 = (m11 * rhs2 - m12 * rhs1) / det
    return dd1, dd2


def two_segment_equilibrium(ts, g2):
    """Rest angles of the two-segment beam under the in-plane gravity ``g2``, by Newton."""
    th = np.zeros(2)
    zmat = np.zeros((2, 2))
    for _ in range(100):
        res = np.array(array_two_segment_ode(th, (0.0, 0.0), ts, g2, zmat, zmat, zmat))
        if np.max(np.abs(res)) < 1e-12:
            break
        jac = np.zeros((2, 2))
        eps = 1e-7
        for j in range(2):
            tp = th.copy()
            tp[j] += eps
            jac[:, j] = (np.array(array_two_segment_ode(tp, (0.0, 0.0), ts, g2,
                                                        zmat, zmat, zmat)) - res) / eps
        th = th - np.linalg.solve(jac, res)
    return th


def two_segment_trace(cfg, th_eq, coeffs, n_steps, h):
    """RK4 trace ``(theta1, theta2, dtheta1, dtheta2, tau_hat, tau_e)`` of the truth plant."""
    ts = cfg.two_segment
    a_t, b_t = cfg.a_true, cfg.b_true
    g2_all, mdw_all = coeffs["g2"], coeffs["m_dw"]
    mww_all, mw_all = coeffs["m_ww"], coeffs["m_w"]

    def torque(y):
        return -ts.c1 * y[2] - ts.k1 * y[0]

    def deriv(s, kk, y):
        dd1, dd2 = array_two_segment_ode((y[0], y[1]), (y[2], y[3]), ts,
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


def dual_output_sensitivity(rb0, p, coeffs, dt):
    """Output sensitivity dy/dp (N, 7) by one forward-mode rollout on 7-seed duals.

    The rest pendulum angle moves with the parameters through the
    equilibrium, by the implicit-function theorem.
    """
    p_arr = p.as_array()
    th, _, tau_hat, tau_e = _rest_substate(rb0, p)
    r = _rest_residual(rb0, ad.Dual(np.asarray(th), np.eye(8)[0]), ad.seed(p_arr, 8, 1))
    dth = -r.dot[1:] / r.dot[0]
    e_k, e_taue = np.eye(7)[0], np.eye(7)[6]
    # (theta, dtheta, tau_hat = -k theta + tau_e0, tau_e = tau_e0) at rest
    y0 = (ad.Dual(th, dth), ad.constant(0.0, 7),
          ad.Dual(tau_hat, -p_arr[0] * dth - th * e_k + e_taue), ad.Dual(tau_e, e_taue))
    ys = _substate_rk4(y0, ad.seed(p_arr, 7, 0), coeffs, np.zeros(coeffs["g2"].shape[0]), dt)
    return np.array([y[2].dot for y in ys[:-1]])
