import numpy as np
import pytest

from beamilc import ad
from beamilc.dynamics import (BeamGeometry, BeamParams, EquilibriumError, SetupState,
                              analytic_init_params, arm_stage_states, fast_rollout,
                              pendulum_accel, pendulum_equilibrium, plane_frame_coeffs,
                              reaction_torque, measurement_dynamics, rest_state, rk4_step,
                              rollout, setup_ode, state_dim, substate_rk4_step)
from beamilc.kinematics import GRAVITY, KinematicChain, forward_kinematics
from beamilc.trajectory import Trajectory


def vertical_plane_chain():
    """One joint about world y; Z_b horizontal so gravity loads the pendulum."""
    ones = np.ones(1)
    rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])  # Ry(pi/2)
    return KinematicChain(np.zeros((1, 3)), np.eye(3)[None],
                          np.array([[0.0, 1.0, 0.0]]),
                          np.array([0.0, 0.0, 0.4]), rot,
                          -3 * ones, 3 * ones, 2.5 * ones, 15 * ones, 4000 * ones)


def mass_position(chain, q, theta, length):
    pose = forward_kinematics(chain, q)
    rod = pose.rotation @ np.array([np.cos(theta), np.sin(theta), 0.0])
    return pose.position + length * rod


# ---------------------------------------------------------------------------
# pendulum dynamics


def test_pendulum_accel_gravity_decoupled(chain2):
    p = BeamParams(k=1.0, c=0.0, m=1.0, l=1.0, a=50.0, b=2.0)
    acc = pendulum_accel(chain2, np.zeros(2), np.zeros(2), np.zeros(2), 0.1, 0.0, p)
    assert acc == pytest.approx(-0.1, abs=1e-14)


def test_pendulum_accel_zero_at_equilibrium(free_params):
    ch = vertical_plane_chain()
    q = np.array([0.3])
    th_eq = pendulum_equilibrium(ch, q, free_params)
    acc = pendulum_accel(ch, q, np.zeros(1), np.zeros(1), th_eq, 0.0, free_params)
    assert abs(acc) < 1e-11


def lagrange_oracle(chain, q, dq, ddq, theta, dtheta, p):
    """Pendulum acceleration from finite differences of the energies.

    Builds the mass position purely through forward kinematics along the
    quadratic joint path, then applies the Euler-Lagrange equation with all
    partial derivatives taken numerically.
    """
    def p_m(t, th):
        qt = q + dq * t + 0.5 * ddq * t * t
        return mass_position(chain, qt, th, p.l)

    h = 1e-5

    def v_m(t, th, dth):
        d_dt = (p_m(t + h, th) - p_m(t - h, th)) / (2 * h)
        d_dth = (p_m(t, th + h) - p_m(t, th - h)) / (2 * h)
        return d_dt + d_dth * dth

    def kinetic(t, th, dth):
        v = v_m(t, th, dth)
        return 0.5 * p.m * float(v @ v)

    def potential(t, th):
        return -p.m * float(GRAVITY @ p_m(t, th)) + 0.5 * p.k * th**2

    g = 1e-4
    dt_dth_dot2 = (kinetic(0, theta, dtheta + g) - 2 * kinetic(0, theta, dtheta)
                   + kinetic(0, theta, dtheta - g)) / g**2
    dt_dth = (kinetic(0, theta + g, dtheta) - kinetic(0, theta - g, dtheta)) / (2 * g)
    mixed_th = ((kinetic(0, theta + g, dtheta + g) - kinetic(0, theta + g, dtheta - g)
                 - kinetic(0, theta - g, dtheta + g) + kinetic(0, theta - g, dtheta - g))
                / (4 * g * g))
    mixed_t = ((kinetic(g, theta, dtheta + g) - kinetic(g, theta, dtheta - g)
                - kinetic(-g, theta, dtheta + g) + kinetic(-g, theta, dtheta - g))
               / (4 * g * g))
    du_dth = (potential(0, theta + g) - potential(0, theta - g)) / (2 * g)
    return (dt_dth - mixed_th * dtheta - mixed_t - du_dth - p.c * dtheta) / dt_dth_dot2


def test_pendulum_accel_matches_lagrange_oracle(chain3, free_params):
    rng = np.random.default_rng(21)
    for _ in range(3):
        q = rng.uniform(-1, 1, 3)
        dq = rng.uniform(-1, 1, 3)
        ddq = rng.uniform(-2, 2, 3)
        th = rng.uniform(-0.4, 0.4)
        dth = rng.uniform(-1, 1)
        acc = pendulum_accel(chain3, q, dq, ddq, th, dth, free_params)
        ref = lagrange_oracle(chain3, q, dq, ddq, th, dth, free_params)
        assert abs(acc - ref) / max(abs(ref), 1.0) < 1e-6


def test_pendulum_accel_matches_lagrange_oracle_vertical(free_params):
    ch = vertical_plane_chain()
    rng = np.random.default_rng(22)
    q = rng.uniform(-1, 1, 1)
    dq = rng.uniform(-1, 1, 1)
    ddq = rng.uniform(-2, 2, 1)
    th, dth = 0.3, -0.5
    acc = pendulum_accel(ch, q, dq, ddq, th, dth, free_params)
    ref = lagrange_oracle(ch, q, dq, ddq, th, dth, free_params)
    assert abs(acc - ref) / max(abs(ref), 1.0) < 1e-6


# ---------------------------------------------------------------------------
# torque and measurement models


def test_reaction_torque_values():
    p = BeamParams(k=2.0, c=0.5, m=1.0, l=1.0, a=50.0, b=2.0)
    assert reaction_torque(0.0, 0.0, p, 0.0) == 0.0
    assert reaction_torque(0.1, -0.2, p, 0.0) == pytest.approx(-0.1, abs=1e-15)
    assert reaction_torque(0.1, -0.2, p, 0.3) == pytest.approx(0.2, abs=1e-15)


def test_measurement_step_response(chain2, free_params):
    # constant tau, zero bias: tau_hat(1/a) = tau (1 - e^-1)
    p = free_params
    tau = 0.7
    n = 200
    dt = 1.0 / (p.a * n)
    tau_hat = 0.0
    for _ in range(n):
        # integrate the filter channel alone with RK4
        def f(x):
            return -p.a * x + p.a * tau
        k1 = f(tau_hat)
        k2 = f(tau_hat + 0.5 * dt * k1)
        k3 = f(tau_hat + 0.5 * dt * k2)
        k4 = f(tau_hat + dt * k3)
        tau_hat += dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert tau_hat == pytest.approx(tau * (1 - np.exp(-1)), rel=1e-6)
    dh, _ = measurement_dynamics(0.0, tau, 0.0, p)
    assert dh == pytest.approx(p.a * tau, abs=1e-12)


def test_bias_decay_closed_form(chain2):
    p = BeamParams(k=1.0, c=0.0, m=1.0, l=1.0, a=50.0, b=2.0, tau_e0=0.4)
    x0 = rest_state(chain2, np.zeros(2), p)
    x0[-1] = p.tau_e0
    dt = 1e-3
    xs, _ = rollout(chain2, x0, np.zeros((1000, 2)), p, None, dt)
    t = np.arange(1001) * dt
    np.testing.assert_allclose(xs[:, -1], p.tau_e0 * np.exp(-p.b * t), rtol=1e-8)


def test_fast_filter_tracks_input(chain2):
    # a >> pendulum rate (slow tau): the filter follows tau + tau_e closely
    p = BeamParams(k=1.0, c=0.01, m=1.0, l=1.0, a=1000.0, b=2.0)
    x0 = rest_state(chain2, np.zeros(2), p)
    x0[2] = 0.3  # kick the pendulum
    x0[-2] = reaction_torque(0.3, 0.0, p)
    dt = 1e-4
    xs, _ = fast_rollout(chain2, x0, np.zeros((50000, 2)), p, None, dt)
    tau = -p.c * xs[:, 5] - p.k * xs[:, 2]
    err = np.abs(xs[:, -2] - tau)[100:]
    assert np.max(err) / np.max(np.abs(tau)) < 0.01


# ---------------------------------------------------------------------------
# setup ODE and integration


def test_setup_ode_rest_fixed_point(chain3, free_params):
    q0 = np.array([0.5, -0.9, 0.6])
    x0 = rest_state(chain3, q0, free_params)
    dx = setup_ode(chain3, x0, np.zeros(3), free_params, 0.0)
    np.testing.assert_allclose(dx, 0.0, atol=1e-12)


def test_setup_ode_double_integrator_channel(chain3, free_params):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(state_dim(3))
    u = rng.standard_normal(3)
    dx = setup_ode(chain3, x, u, free_params, 0.0)
    np.testing.assert_allclose(dx[4:7], u, atol=1e-14)       # qdd = u exactly
    np.testing.assert_allclose(dx[:3], x[4:7], atol=1e-14)   # integrator chain


def test_setup_ode_affine_in_u_and_d(chain3, free_params):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(state_dim(3))
    u1, u2 = rng.standard_normal((2, 3))
    d1, d2 = rng.standard_normal(2)
    for a in (0.3, 0.8):
        lhs = setup_ode(chain3, x, a * u1 + (1 - a) * u2, free_params, a * d1 + (1 - a) * d2)
        rhs = (a * setup_ode(chain3, x, u1, free_params, d1)
               + (1 - a) * setup_ode(chain3, x, u2, free_params, d2))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_rk4_scalar_linear_channel(chain2):
    # the bias channel integrates xdot = -x when b = 1
    p = BeamParams(k=1.0, c=0.0, m=1.0, l=1.0, a=50.0, b=1.0, tau_e0=1.0)
    x0 = rest_state(chain2, np.zeros(2), p)
    x0[-1] = 1.0
    x1 = rk4_step(chain2, x0, np.zeros(2), p, 0.0, 0.1)
    assert x1[-1] == pytest.approx(0.9048375, abs=1e-9)
    assert abs(x1[-1] - np.exp(-0.1)) < 1e-7


def test_rk4_convergence_order(chain2):
    # damped pendulum free oscillation; halving dt cuts the error ~16x
    p = BeamParams(k=4.0, c=0.02, m=0.1, l=0.4, a=50.0, b=2.0)
    x0 = rest_state(chain2, np.zeros(2), p)
    x0[2] = 0.3
    horizon = 1.0

    def final_state(dt):
        n = int(round(horizon / dt))
        xs, _ = fast_rollout(chain2, x0, np.zeros((n, 2)), p, None, dt)
        return xs[-1]

    ref = final_state(2.5e-5)
    errs = [np.linalg.norm(final_state(dt) - ref) for dt in (4e-3, 2e-3, 1e-3)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rk4_blowup_detection(chain2):
    p = BeamParams(k=1.0, c=0.0, m=1.0, l=1.0, a=50.0, b=2.0)
    x0 = rest_state(chain2, np.zeros(2), p)
    x0[3] = np.inf
    from beamilc.dynamics import IntegrationBlowupError
    with pytest.raises(IntegrationBlowupError):
        rk4_step(chain2, x0, np.zeros(2), p, 0.0, 0.01)


def test_rest_rollout_constant_output_reference_grid(chain3, free_params):
    # reference estimation grid: dt = 6e-3, N = 240, system at rest
    q0 = np.array([0.5, -0.9, 0.6])
    x0 = rest_state(chain3, q0, free_params)
    _, ys = rollout(chain3, x0, np.zeros((240, 3)), free_params, None, 6e-3)
    np.testing.assert_allclose(ys, ys[0], atol=1e-12)


def test_fast_rollout_matches_canonical(chain3, free_params):
    rng = np.random.default_rng(8)
    q0 = np.array([0.5, -0.9, 0.6])
    x0 = rest_state(chain3, q0, free_params)
    x0[3] += 0.1
    u = 2.0 * np.sin(np.linspace(0, 8, 120 * 3)).reshape(120, 3)
    d = 0.05 * rng.standard_normal(120)
    xs_a, ys_a = rollout(chain3, x0, u, free_params, d, 6e-3)
    xs_b, ys_b = fast_rollout(chain3, x0, u, free_params, d, 6e-3)
    np.testing.assert_allclose(xs_a, xs_b, atol=1e-12)
    np.testing.assert_allclose(ys_a, ys_b, atol=1e-12)


def test_substate_step_matches_full_state_step(chain7, free_params):
    # batched over nodes, the substate step is the substate part of the
    # full-state step, in value and in the derivatives with respect to the
    # substate, the parameters and the disturbance; the spatial arm loads
    # every frame term
    rng = np.random.default_rng(9)
    n, nodes, h = 7, 6, 6e-3
    u = 2.0 * rng.standard_normal((nodes, n))
    arm0 = np.concatenate([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)])
    q, dq, q_s, dq_s, u_s = arm_stage_states(arm0, u, h)
    coeffs = {name: np.moveaxis(v, 0, -1)
              for name, v in plane_frame_coeffs(chain7, q_s, dq_s, u_s).items()}
    sub = rng.standard_normal((nodes, 4)) * [0.3, 1.0, 0.1, 0.05]
    m = 4 + 7 + nodes                       # seeds: substate, parameters, d
    p = ad.seed(free_params.as_array(), m, 4)
    d = ad.Dual(0.05 * rng.standard_normal(nodes), np.eye(m)[11:])
    y = ad.seed(sub, m, 0)
    y_next = ad.stack_last(substate_rk4_step(tuple(ad.comp(y, i) for i in range(4)),
                                             p, coeffs, d, h))

    idx = [n, 2 * n + 1, 2 * n + 2, 2 * n + 3]
    x = np.zeros((nodes, state_dim(n)))
    x[:, :n], x[:, n + 1:2 * n + 1], x[:, idx] = q[:-1], dq[:-1], sub
    x_dot = np.zeros(x.shape + (m,))
    x_dot[:, idx, :4] = np.eye(4)
    x_next = rk4_step(chain7, ad.Dual(x, x_dot), ad.constant(u, m), p, d, h, check=False)
    np.testing.assert_allclose(y_next.val, x_next.val[:, idx], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(y_next.dot, x_next.dot[:, idx], rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# energy behavior


def pendulum_energy(chain, x, p, n):
    q = x[:n]
    theta = x[n]
    dq = x[n + 1:2 * n + 1]
    dtheta = x[2 * n + 1]
    h = 1e-6

    def pm(qv, th):
        return mass_position(chain, qv, th, p.l)

    v = np.zeros(3)
    for i in range(n):
        dqv = np.zeros(n)
        dqv[i] = h
        v += (pm(q + dqv, theta) - pm(q - dqv, theta)) / (2 * h) * dq[i]
    v += (pm(q, theta + h) - pm(q, theta - h)) / (2 * h) * dtheta
    kinetic = 0.5 * p.m * float(v @ v)
    potential = -p.m * float(GRAVITY @ pm(q, theta)) + 0.5 * p.k * theta**2
    return kinetic + potential


def test_energy_conservation_undamped():
    ch = vertical_plane_chain()
    p = BeamParams(k=4.0, c=0.0, m=0.1, l=0.4, a=50.0, b=2.0)
    th_eq = pendulum_equilibrium(ch, [0.2], p)
    x0 = rest_state(ch, [0.2], p, theta=th_eq)
    x0[1] = th_eq + 0.3
    dt = 1e-3
    xs, _ = fast_rollout(ch, x0, np.zeros((10000, 1)), p, None, dt)
    e0 = pendulum_energy(ch, xs[0], p, 1)
    e_ref = pendulum_energy(ch, rest_state(ch, [0.2], p, theta=th_eq), p, 1)
    drift = [abs(pendulum_energy(ch, xs[k], p, 1) - e0) for k in range(0, 10001, 1000)]
    assert max(drift) / abs(e0 - e_ref) < 1e-3


def test_energy_decay_damped():
    ch = vertical_plane_chain()
    p = BeamParams(k=4.0, c=0.02, m=0.1, l=0.4, a=50.0, b=2.0)
    th_eq = pendulum_equilibrium(ch, [0.2], p)
    x0 = rest_state(ch, [0.2], p, theta=th_eq)
    x0[1] = th_eq + 0.3
    xs, _ = fast_rollout(ch, x0, np.zeros((5000, 1)), p, None, 1e-3)
    energies = [pendulum_energy(ch, xs[k], p, 1) for k in range(0, 5001, 250)]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-10)


# ---------------------------------------------------------------------------
# equilibrium solving


def test_equilibrium_gravity_decoupled(chain3, free_params):
    assert pendulum_equilibrium(chain3, [0.1, 0.2, 0.3], free_params) == pytest.approx(0.0, abs=1e-12)


def test_equilibrium_stiff_spring_limit():
    ch = vertical_plane_chain()
    p = BeamParams(k=1e6, c=0.0, m=1.0, l=0.4, a=50.0, b=2.0)
    assert abs(pendulum_equilibrium(ch, [0.3], p)) < 1e-5


def test_equilibrium_matches_potential_grid():
    ch = vertical_plane_chain()
    p = BeamParams(k=1.0, c=0.0, m=1.0, l=0.4, a=50.0, b=2.0)
    q = np.array([0.25])
    th_eq = pendulum_equilibrium(ch, q, p)
    grid = np.linspace(-np.pi + 1e-6, np.pi - 1e-6, 1_000_000)
    rb = forward_kinematics(ch, q).rotation
    g_b = rb.T @ GRAVITY

    def pot(th):
        return 0.5 * p.k * th**2 - p.m * p.l * (g_b[0] * np.cos(th) + g_b[1] * np.sin(th))

    i0 = int(np.argmin(pot(grid)))
    # parabolic refinement of the grid minimizer (uniform spacing)
    h = grid[1] - grid[0]
    fa, fb, fc = pot(grid[i0 - 1]), pot(grid[i0]), pot(grid[i0 + 1])
    th_grid = grid[i0] + 0.5 * h * (fa - fc) / (fa - 2 * fb + fc)
    assert abs(th_eq - th_grid) < 1e-6
    # residual invariant
    from beamilc.dynamics import equilibrium_residual
    assert abs(equilibrium_residual(rb, th_eq, p)) < 1e-12


def rod_up_chain():
    """Frame whose rod rest direction X_b points straight up."""
    ones = np.ones(1)
    rot = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
    return KinematicChain(np.zeros((1, 3)), np.eye(3)[None],
                          np.array([[0.0, 0.0, 1.0]]),
                          np.array([0.0, 0.0, 0.4]), rot,
                          -3 * ones, 3 * ones, 2.5 * ones, 15 * ones, 4000 * ones)


def test_equilibrium_missing():
    # rod pointing up with a spring too weak to hold it: the potential
    # minimum sits at the boundary theta = pi, so no interior equilibrium
    ch = rod_up_chain()
    p = BeamParams(k=1e-4, c=0.0, m=5.0, l=0.4, a=50.0, b=2.0)
    with pytest.raises(EquilibriumError):
        pendulum_equilibrium(ch, [0.0], p)


# ---------------------------------------------------------------------------
# analytic initialization


def test_analytic_beam_mass(reference_beam):
    assert reference_beam.mass == pytest.approx(6300.0 * 0.6 * 0.06 * 0.001, rel=1e-12)
    assert reference_beam.mass == pytest.approx(0.2268, abs=1e-6)


def test_analytic_first_mode(reference_beam):
    # Euler-Bernoulli cantilever first mode, computed independently
    rho_a = reference_beam.mass / reference_beam.length
    omega_ref = 1.8751**2 * np.sqrt(reference_beam.bending_stiffness / (rho_a * 0.6**4))
    assert reference_beam.first_mode_frequency == pytest.approx(omega_ref, rel=1e-12)
    assert abs(reference_beam.first_mode_frequency - 17.9) < 0.1


def test_analytic_params_scaling(reference_beam):
    p1 = analytic_init_params(reference_beam)
    stiffer = BeamGeometry(reference_beam.length, reference_beam.width, reference_beam.thickness,
                           reference_beam.density, 4.0 * reference_beam.bending_stiffness)
    p2 = analytic_init_params(stiffer)
    assert p2.m == pytest.approx(p1.m, rel=1e-12)
    assert p2.l == pytest.approx(p1.l, rel=1e-12)
    assert p2.k == pytest.approx(4.0 * p1.k, rel=1e-12)
    assert stiffer.first_mode_frequency == pytest.approx(2 * reference_beam.first_mode_frequency, rel=1e-12)


def test_analytic_pendulum_frequency_matches_beam(reference_beam, nominal_params):
    p = nominal_params
    omega_pend = np.sqrt(p.k / (p.m * p.l**2))
    assert omega_pend == pytest.approx(reference_beam.first_mode_frequency, rel=1e-12)


# ---------------------------------------------------------------------------
# types


def test_beam_params_validation():
    with pytest.raises(ValueError):
        BeamParams(k=-1.0, c=0.0, m=1.0, l=1.0, a=50.0, b=2.0)
    with pytest.raises(ValueError):
        BeamParams(k=1.0, c=-0.1, m=1.0, l=1.0, a=50.0, b=2.0)
    arr = BeamParams(1, 0.1, 1, 1, 50, 2, 0.3).as_array()
    assert BeamParams.from_array(arr).tau_e0 == 0.3


def test_setup_state_round_trip():
    s = SetupState(np.array([0.1, 0.2]), 0.3, np.array([0.4, 0.5]), 0.6, 0.7, 0.8)
    arr = s.as_array()
    assert arr.shape == (state_dim(2),)
    s2 = SetupState.from_array(arr, 2)
    assert s2.theta == 0.3 and s2.tau_e == 0.8


def test_trajectory_validation_and_csv(tmp_path):
    with pytest.raises(ValueError):
        Trajectory(-0.1, np.zeros((3, 1)), ("a",))
    with pytest.raises(ValueError):
        Trajectory(0.1, np.zeros((3, 2)), ("a",))
    tr = Trajectory(0.006, np.array([[1.0, 2.0], [3.0, 4.5678912345]]), ("x", "y"))
    path = tmp_path / "t.csv"
    tr.to_csv(path)
    back = Trajectory.from_csv(path)
    assert back.labels == ("x", "y")
    np.testing.assert_allclose(back.data, tr.data, rtol=1e-9)
