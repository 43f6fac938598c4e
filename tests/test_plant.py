import numpy as np
import pytest

from beamilc.dynamics import BeamParams, fast_rollout, rest_state
from beamilc.plant import (PlantConfig, TwoSegmentParams, run_experiment,
                           truth_equilibrium, two_segment_ode)
from beamilc.trajectory import Trajectory
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
    m_mat = mismatch_two_segment.mass_matrix_small_angle()
    k_mat = np.diag([mismatch_two_segment.k1, mismatch_two_segment.k2])
    w_modes = np.sort(np.sqrt(np.linalg.eigvals(np.linalg.solve(m_mat, k_mat)).real))
    floor = np.median(spec)
    for w in w_modes:
        band = (freqs > 0.85 * w) & (freqs < 1.15 * w)
        assert spec[band].max() > 10 * floor


# ---------------------------------------------------------------------------
# two-segment dynamics oracles


@pytest.mark.slow
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
    g2 = np.zeros(2)
    zm = np.zeros((2, 2))
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
            dd1, dd2 = two_segment_ode(s[:2], s[2:], ts, g2, zm, zm, zm)
            return np.array([s[2], s[3], dd1, dd2])
        k1 = f(state)
        k2 = f(state + 0.5 * h * k1)
        k3 = f(state + 0.5 * h * k2)
        k4 = f(state + h * k3)
        state = state + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(energy(state) - e0) / e0 < 1e-3


def test_two_segment_linearized_modes(mismatch_two_segment):
    ts = mismatch_two_segment
    g2 = np.zeros(2)
    zm = np.zeros((2, 2))
    eps = 1e-6
    k_lin = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        up = np.array(two_segment_ode(e, np.zeros(2), ts, g2, zm, zm, zm))
        dn = np.array(two_segment_ode(-e, np.zeros(2), ts, g2, zm, zm, zm))
        k_lin[:, j] = (up - dn) / (2 * eps)
    num_modes = np.sort(np.sqrt(np.linalg.eigvals(-k_lin).real))
    m_mat = ts.mass_matrix_small_angle()
    ana_modes = np.sort(np.sqrt(np.linalg.eigvals(
        np.linalg.solve(m_mat, np.diag([ts.k1, ts.k2]))).real))
    np.testing.assert_allclose(num_modes, ana_modes, rtol=0.01)
    # default mismatch plant: second mode near three times the first
    assert ana_modes[1] / ana_modes[0] == pytest.approx(3.4, abs=0.5)


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
