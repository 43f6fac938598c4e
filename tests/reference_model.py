"""Reference form of the setup model that the tests check the program against.

The pendulum equation in world-frame vector form and the classical RK4
step of the full state ``x = [q, theta, dq, dtheta, tau_hat, tau_e]``,
written independently of the swing-plane frame terms and the closed-form
arm stages the program steps with. Batched and dual-transparent.
"""
import numpy as np

from beamilc import ad
from beamilc.dynamics import _params_tuple, measurement_dynamics, reaction_torque, state_dim
from beamilc.kinematics import GRAVITY, frame_state


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
