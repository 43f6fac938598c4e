from dataclasses import replace

import numpy as np
import pytest

from beamilc import plant
from beamilc.config import RunConfig
from beamilc.dynamics import BeamParams, arm_stage_states, fast_rollout, plane_frame_coeffs
from beamilc.kinematics import GRAVITY, forward_kinematics
from beamilc.ocp import solve_ptp_ocp
from beamilc.plant import (TRUTH_KINDS, PlantConfig, TwoSegmentParams, run_experiment,
                           steps_per_sample, truth_equilibrium, two_segment_ode)
from beamilc.trajectory import Trajectory
from conftest import REFERENCE_Q0_7DOF, assert_same_bits
from reference_model import (frame_blocks, rest_state, two_segment_equilibrium,
                             two_segment_mass_matrix, two_segment_trace)
from test_dynamics import vertical_plane_chain


def make_u(chain, fn, n, dt=0.01):
    t = np.arange(n) * dt
    data = np.stack([fn(t, j) for j in range(chain.n_joints)], axis=1)
    return Trajectory(dt, data, tuple(f"u{j+1}" for j in range(chain.n_joints)))


# ---------------------------------------------------------------------------
# experiments


def test_rest_experiment_constant_output(free_params):
    ch = vertical_plane_chain()
    cfg = PlantConfig(truth_kind="perturbed_single", param_factors=(1.3, 1.0, 0.9, 1.0),
                      a_true=60.0, b_true=2.4, tau_e0_true=0.0, noise_std=0.0)
    u = make_u(ch, lambda t, j: 0.0 * t, 50)
    res = run_experiment(cfg, ch, [0.3], u, 300, 0.006, free_params)
    y = res.y.data[:, 0]
    np.testing.assert_allclose(y, y[0], atol=1e-10)
    # constant equals -k_true * theta_eq of the perturbed truth
    th_eq = truth_equilibrium(cfg, ch, [0.3], free_params)[0]
    assert y[0] == pytest.approx(-free_params.k * 1.3 * th_eq, rel=1e-9)


def test_bias_decay_visible(chain3, free_params):
    cfg = PlantConfig(truth_kind="perturbed_single", param_factors=(1, 1, 1, 1),
                      a_true=free_params.a, b_true=2.0, tau_e0_true=1.0, noise_std=0.0)
    u = make_u(chain3, lambda t, j: 0.0 * t, 10)
    res = run_experiment(cfg, chain3, [0.5, -0.9, 0.6], u, 500, 0.006, free_params)
    y = res.y.data[:, 0]
    # the planar rest torque is zero, so the trace is the filtered bias decay;
    # after the fast filter transient it is log-linear at rate b_true
    t = res.y.times
    seg = slice(50, 300)
    rate = np.polyfit(t[seg], np.log(np.abs(y[seg])), 1)[0]
    assert rate == pytest.approx(-2.0, rel=0.02)


def test_two_segment_residual_spectrum(chain3, free_params, mismatch_two_segment):
    # aggressive motion leaves both modes visible in the residual spectrum
    cfg = PlantConfig(two_segment=mismatch_two_segment, a_true=60.0, b_true=2.4,
                      tau_e0_true=0.0, noise_std=0.0)
    t_mot = 0.3

    def bang(t, j):
        return 8.0 * ((t < t_mot / 2) * 1.0 - ((t >= t_mot / 2) & (t < t_mot)) * 1.0)

    u = make_u(chain3, bang, 30)
    res = run_experiment(cfg, chain3, [0.5, -0.9, 0.6], u, 1000, 0.002, free_params)
    y = res.y.data[:, 0]
    resid = y[200:] - np.mean(y[200:])
    freqs = np.fft.rfftfreq(resid.size, 0.002) * 2 * np.pi
    spec = np.abs(np.fft.rfft(resid))
    # the two linearized modes of the truth model
    m_mat = two_segment_mass_matrix(mismatch_two_segment)
    k_mat = np.diag([mismatch_two_segment.k1, mismatch_two_segment.k2])
    w_modes = np.sort(np.sqrt(np.linalg.eigvals(np.linalg.solve(m_mat, k_mat)).real))
    floor = np.median(spec)
    for w in w_modes:
        band = (freqs > 0.85 * w) & (freqs < 1.15 * w)
        assert spec[band].max() > 10 * floor


# ---------------------------------------------------------------------------
# two-segment dynamics oracles


def test_two_segment_stiff_coupling_limit(chain3, free_params):
    # k2 -> inf locks the segments into one rigid rod; the response matches
    # the percussion-equivalent single pendulum (same inertia and lever)
    m1, l1, m2, l2 = 0.05, 0.2, 0.05, 0.2
    stiff = TwoSegmentParams(m1=m1, l1=l1, k1=2.0, c1=0.0,
                             m2=m2, l2=l2, k2=1e6, c2=0.0)
    # the locked fast mode sits near 5e4 rad/s: integrate well above it
    cfg = PlantConfig(two_segment=stiff, a_true=200.0, b_true=2.0,
                      tau_e0_true=0.0, noise_std=0.0, rate=200_000.0)
    u = make_u(chain3, lambda t, j: 4.0 * np.sin(2 * np.pi * 1.7 * t + j), 60)
    n = 1001
    res = run_experiment(cfg, chain3, [0.5, -0.9, 0.6], u, n, 0.001, free_params)
    inertia = m1 * l1**2 + m2 * (l1 + l2) ** 2
    lever = m1 * l1 + m2 * (l1 + l2)
    single = BeamParams(k=2.0, c=1e-12, m=lever**2 / inertia, l=inertia / lever,
                        a=200.0, b=2.0)
    x0 = rest_state(chain3, [0.5, -0.9, 0.6], single)
    u_hold = u.sample_hold(np.arange(n - 1) * 0.001)
    _, ys = fast_rollout(chain3, x0, u_hold, single, None, 0.001)
    scale = np.max(np.abs(ys))
    assert np.max(np.abs(res.y.data[:n - 1, 0] - ys)) / scale < 1e-3


def test_two_segment_energy_conservation(mismatch_two_segment):
    ts = TwoSegmentParams(m1=mismatch_two_segment.m1, l1=mismatch_two_segment.l1,
                          k1=mismatch_two_segment.k1, c1=0.0,
                          m2=mismatch_two_segment.m2, l2=mismatch_two_segment.l2,
                          k2=mismatch_two_segment.k2, c2=0.0)
    g2 = (0.0, 0.0)
    zm = ((0.0, 0.0), (0.0, 0.0))
    state = np.array([0.25, -0.15, 0.0, 0.0])

    def energy(s):
        th1, th2, dth1, dth2 = s
        th12 = th1 + th2
        r1 = np.array([np.cos(th1), np.sin(th1)])
        r12 = np.array([np.cos(th12), np.sin(th12)])
        rp1 = np.array([-np.sin(th1), np.cos(th1)])
        rp12 = np.array([-np.sin(th12), np.cos(th12)])
        v1 = ts.l1 * rp1 * dth1
        v2 = v1 + ts.l2 * rp12 * (dth1 + dth2)
        kin = 0.5 * ts.m1 * v1 @ v1 + 0.5 * ts.m2 * v2 @ v2
        return kin + 0.5 * ts.k1 * th1**2 + 0.5 * ts.k2 * th2**2

    h = 1e-4
    e0 = energy(state)
    for _ in range(100_000):  # 10 s
        def f(s):
            dd1, dd2 = two_segment_ode(*s, ts, g2, zm, zm)
            return np.array([s[2], s[3], dd1, dd2])
        k1 = f(state)
        k2 = f(state + 0.5 * h * k1)
        k3 = f(state + 0.5 * h * k2)
        k4 = f(state + h * k3)
        state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(energy(state) - e0) / e0 < 1e-3


def test_two_segment_linearized_modes(mismatch_two_segment):
    ts = mismatch_two_segment
    g2 = (0.0, 0.0)
    zm = ((0.0, 0.0), (0.0, 0.0))
    eps = 1e-6
    k_lin = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        up = np.array(two_segment_ode(e[0], e[1], 0.0, 0.0, ts, g2, zm, zm))
        dn = np.array(two_segment_ode(-e[0], -e[1], 0.0, 0.0, ts, g2, zm, zm))
        k_lin[:, j] = (up - dn) / (2 * eps)
    num_modes = np.sort(np.sqrt(np.linalg.eigvals(-k_lin).real))
    m_mat = two_segment_mass_matrix(ts)
    ana_modes = np.sort(np.sqrt(np.linalg.eigvals(
        np.linalg.solve(m_mat, np.diag([ts.k1, ts.k2]))).real))
    np.testing.assert_allclose(num_modes, ana_modes, rtol=0.01)
    # default mismatch plant: second mode near three times the first
    assert ana_modes[1] / ana_modes[0] == pytest.approx(3.4, abs=0.5)


def reference_truth(cfg, chain, q0, u, n_samples, dt_est):
    """``run_experiment``'s decimated two-segment trace, by the reference model,
    and the program's frame terms of the plant steps' RK4 stages."""
    q0 = np.asarray(q0, dtype=float)
    h = 1.0 / cfg.rate
    ratio = int(round(dt_est / h))
    n_steps = (n_samples - 1) * ratio + 1
    u_hold = u.sample_hold(np.arange(n_steps) * h)
    _, _, q_s, dq_s, u_s = arm_stage_states(np.concatenate([q0, 0.0 * q0]), u_hold, h)
    rb = forward_kinematics(chain, q0).rotation
    th_eq = two_segment_equilibrium(cfg.two_segment, (rb.T @ GRAVITY)[:2])
    ref = two_segment_trace(cfg, th_eq, frame_blocks(chain, q_s, dq_s, u_s), n_steps, h)
    return ref[::ratio], plane_frame_coeffs(chain, q_s, dq_s, u_s)


def assert_matches_reference(got, ref):
    # each state's max-norm error within 1e-12 of its max-norm; the float
    # code rounds each product where the reference's BLAS dots fuse them
    err = np.max(np.abs(got - ref), axis=0)
    assert np.all(err <= 1e-12 * np.max(np.abs(ref), axis=0)), err


@pytest.fixture(scope="module")
def default_plan_experiment():
    """``run_experiment``'s arguments for the default config's entry plan."""
    cfg = RunConfig.default()
    chain = cfg.chain()
    task = cfg.task(chain)
    p0 = cfg.prior_params()
    plan = solve_ptp_ocp(chain, task, p0, None, None, cfg.ocp_weights())
    return (cfg.plant_config(), chain, task.q0, plan.u, cfg.ilc_config().n_meas,
            cfg.estimation_config(p0).dt, p0)


def test_two_segment_truth_matches_reference_default_plan(default_plan_experiment):
    cfg, chain, q0, u, n_meas, dt, p0 = default_plan_experiment
    res = run_experiment(cfg, chain, q0, u, n_meas, dt, p0)
    ref, _ = reference_truth(cfg, chain, q0, u, n_meas, dt)
    assert_matches_reference(res.truth_states, ref)


def test_two_segment_truth_matches_reference_spatial(chain7, free_params,
                                                     mismatch_two_segment):
    # the wrist is tilted so that gravity loads the swing plane at rest
    q0 = REFERENCE_Q0_7DOF - np.pi / 4 * np.eye(7)[5]
    cfg = PlantConfig(two_segment=mismatch_two_segment)
    u = make_u(chain7, lambda t, j: 1.5 * np.sin(4 * t + j), 60)
    res = run_experiment(cfg, chain7, q0, u, 250, 0.006, free_params)
    ref, coeffs = reference_truth(cfg, chain7, q0, u, 250, 0.006)
    # the spatial arm loads the blocks a planar chain leaves at zero: the
    # symmetric part of m_rot off its diagonal is 2 wx wy
    assert np.max(np.abs(coeffs["m_rot"][..., 0, 1] + coeffs["m_rot"][..., 1, 0])) > 2e-2
    assert np.max(np.abs(coeffs["m_w"])) > 1e-1
    assert np.min(np.abs(ref[0, :2])) > 1e-2
    assert_matches_reference(res.truth_states, ref)


# ---------------------------------------------------------------------------
# frame terms shared past the record's distinct head


@pytest.mark.parametrize("kind", TRUTH_KINDS)
@pytest.mark.parametrize("case", ["coasting", "rest", "default_plan"])
def test_shared_frame_terms_match_every_steps_own(case, kind, monkeypatch, chain3, free_params,
                                                  mismatch_two_segment, default_plan_experiment):
    # the arm still coasts at the end (no step shares), rests throughout
    # (every step shares step 0's terms) or settles after the default plan
    # (the tail shares): each run equals, bit for bit, one whose frame terms
    # are made for every step
    if case == "default_plan":
        cfg, chain, q0, u, n_samples, dt, p = default_plan_experiment
    else:
        cfg, chain, q0, p = PlantConfig(two_segment=mismatch_two_segment), chain3, \
            np.array([0.5, -0.9, 0.6]), free_params
        accel = 1.0 if case == "coasting" else 0.0
        u, n_samples, dt = make_u(chain, lambda t, j: accel * (t < 0.3), 60), 200, 0.006
    cfg = replace(cfg, truth_kind=kind, param_factors=(1.3, 1.0, 0.9, 1.0))
    h = 1.0 / cfg.rate
    n_steps = (n_samples - 1) * steps_per_sample(cfg, dt) + 1
    u_hold = u.sample_hold(np.arange(n_steps) * h)
    _, _, q_s, dq_s, u_s = arm_stage_states(np.concatenate([q0, 0.0 * q0]), u_hold, h)
    n_head = plant._distinct_head(q_s, dq_s, u_s)
    expected = {"coasting": n_head == n_steps, "rest": n_head == 1,
                "default_plan": 1 < n_head < n_steps // 5}
    assert expected[case], (n_head, n_steps)

    got = run_experiment(cfg, chain, q0, u, n_samples, dt, p)
    monkeypatch.setattr(plant, "_distinct_head", lambda q_s, dq_s, u_s: len(q_s))
    ref = run_experiment(cfg, chain, q0, u, n_samples, dt, p)
    assert_same_bits(got.truth_states, ref.truth_states)
    assert_same_bits(got.y.data, ref.y.data)
    assert_same_bits(got.joints.data, ref.joints.data)


@pytest.mark.parametrize("which", range(3))
def test_signed_zero_stage_inputs_are_not_shared(which):
    # -0.0 == 0.0, yet the two can round differently downstream: a step whose
    # stage inputs differ from the last step's only in a zero's sign keeps
    # its own frame terms
    stages = np.zeros((3, 10, 4, 3))
    assert plant._distinct_head(*stages) == 1
    stages[which, 6, 2, 1] = -0.0
    assert plant._distinct_head(*stages) == 8


# ---------------------------------------------------------------------------
# determinism and grids


def test_experiment_determinism(chain3, free_params, mismatch_two_segment):
    cfg = PlantConfig(two_segment=mismatch_two_segment)
    u = make_u(chain3, lambda t, j: 2.0 * np.sin(6 * t + j), 80)
    r1 = run_experiment(cfg, chain3, [0.5, -0.9, 0.6], u, 400, 0.006, free_params)
    r2 = run_experiment(cfg, chain3, [0.5, -0.9, 0.6], u, 400, 0.006, free_params)
    assert np.array_equal(r1.y.data, r2.y.data)
    r3 = run_experiment(cfg, chain3, [0.5, -0.9, 0.6], u, 400, 0.006, free_params, seed=9)
    assert not np.array_equal(r1.y.data, r3.y.data)


def test_noise_stream_independent_of_horizon(chain3, free_params, mismatch_two_segment):
    cfg = PlantConfig(two_segment=mismatch_two_segment)
    u = make_u(chain3, lambda t, j: np.sin(3 * t), 50)
    short = run_experiment(cfg, chain3, [0.5, -0.9, 0.6], u, 200, 0.006, free_params)
    long = run_experiment(cfg, chain3, [0.5, -0.9, 0.6], u, 400, 0.006, free_params)
    np.testing.assert_array_equal(short.y.data[:200], long.y.data[:200])


def test_nominal_truth_matches_model_rollout(chain3, free_params):
    # no mismatch, matched grids: the plant runs the model's substate
    # integrator, so it reproduces the nominal rollout exactly
    cfg = PlantConfig(truth_kind="perturbed_single", param_factors=(1, 1, 1, 1),
                      a_true=free_params.a, b_true=free_params.b,
                      tau_e0_true=0.0, noise_std=0.0, rate=1000.0)
    u = make_u(chain3, lambda t, j: 1.5 * np.sin(5 * t + j), 100)
    n = 1001
    res = run_experiment(cfg, chain3, [0.5, -0.9, 0.6], u, n, 0.001, free_params)
    x0 = rest_state(chain3, [0.5, -0.9, 0.6], free_params)
    u_hold = u.sample_hold(np.arange(n - 1) * 0.001)
    _, ys = fast_rollout(chain3, x0, u_hold, free_params, None, 0.001)
    np.testing.assert_array_equal(res.y.data[:n - 1, 0], ys)


def test_grid_incompatibility_rejected(chain3, free_params, mismatch_two_segment):
    cfg = PlantConfig(two_segment=mismatch_two_segment)
    u = make_u(chain3, lambda t, j: 0 * t, 10)
    with pytest.raises(ValueError):
        run_experiment(cfg, chain3, [0.5, -0.9, 0.6], u, 100, 0.0007, free_params)
    with pytest.raises(TypeError):
        run_experiment(cfg, chain3, [0.5, -0.9, 0.6], u.data, 100, 0.006, free_params)


def test_plant_config_validation(mismatch_two_segment):
    with pytest.raises(ValueError):
        PlantConfig(truth_kind="exact")
    with pytest.raises(ValueError):
        PlantConfig(noise_std=-0.1)
    with pytest.raises(ValueError):
        TwoSegmentParams(m1=-1, l1=0.4, k1=1, c1=0, m2=0.1, l2=0.1, k2=1, c2=0)
