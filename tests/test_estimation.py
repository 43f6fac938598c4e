import numpy as np
import pytest

from beamilc.dynamics import BeamParams, fast_rollout
from beamilc.estimation import (EstimationConfig, disturbance_response, estimate_disturbance,
                                estimate_parameters, fit_rmse, learn_iteration,
                                _model_init_state, _output_sensitivity, _record_coeffs)
from beamilc.kinematics import forward_kinematics
from beamilc.trajectory import Trajectory
from conftest import REFERENCE_Q0_7DOF
from reference_model import dual_output_sensitivity

Q0 = np.array([0.5, -0.9, 0.6])
N, DT = 240, 0.006


def rich_input(n=N, dt=DT, n_dof=3):
    t = np.arange(n) * dt
    cols = [3.0 * np.sin(2 * np.pi * 1.3 * t) * np.exp(-t),
            2.5 * np.sin(2 * np.pi * 2.1 * t + 1.0) * np.exp(-t),
            2.0 * np.sin(2 * np.pi * 0.9 * t + 0.4) * np.exp(-t)]
    return Trajectory(dt, np.stack(cols[:n_dof], axis=1),
                      tuple(f"u{j+1}" for j in range(n_dof)))


def synth_record(chain, p_true, u=None, d=None):
    u = u or rich_input()
    x0, _ = _model_init_state(chain, Q0, p_true,
                              d0=float(d[0]) if d is not None else 0.0)
    _, ys = fast_rollout(chain, x0, u.data, p_true, d, DT)
    return Trajectory(DT, ys[:, None], ("tau_hat",)), u


def zero_reg_config():
    return EstimationConfig(v1=np.zeros(7), v2=np.zeros(7), horizon=N, dt=DT)


# ---------------------------------------------------------------------------
# parameter estimation


def test_parameter_recovery_from_nominal_data(chain3):
    p_true = BeamParams(k=5.2, c=0.006, m=0.10, l=0.38, a=55.0, b=2.2, tau_e0=0.03)
    y, u = synth_record(chain3, p_true)
    p_prev = BeamParams(k=4.35, c=0.0049, m=0.085, l=0.4, a=50.0, b=2.0, tau_e0=0.0)
    est = estimate_parameters(chain3, y, u, p_prev, Q0, zero_reg_config())
    assert est.solution.converged
    assert est.solution.variables["x"].size == (N + 1) * 4
    got, want = est.params.as_array(), p_true.as_array()
    for idx in (0, 1, 3, 4):  # k, c, l, a
        assert abs(got[idx] - want[idx]) / abs(want[idx]) < 1e-4
    ml2_got = est.params.m * est.params.l**2
    ml2_want = p_true.m * p_true.l**2
    assert abs(ml2_got - ml2_want) / ml2_want < 1e-4


def test_iteration_regularizer_dominance(chain3):
    p_true = BeamParams(k=5.2, c=0.006, m=0.10, l=0.38, a=55.0, b=2.2)
    y, u = synth_record(chain3, p_true)
    p_prev = BeamParams(k=4.35, c=0.0049, m=0.085, l=0.4, a=50.0, b=2.0)
    cfg = EstimationConfig(v1=np.zeros(7), v2=np.full(7, 1e9), horizon=N, dt=DT)
    est = estimate_parameters(chain3, y, u, p_prev, Q0, cfg)
    np.testing.assert_allclose(est.params.as_array(), p_prev.as_array(),
                               rtol=1e-6, atol=1e-9)


def test_unexcited_experiment_degeneracy(chain3, free_params):
    # rest data: parameters stay in the box and conditioning is reported poor
    u = Trajectory(DT, np.zeros((N, 3)), ("u1", "u2", "u3"))
    y, _ = synth_record(chain3, free_params, u=u)
    cfg = zero_reg_config()
    est = estimate_parameters(chain3, y, u, free_params, Q0, cfg)
    assert np.all(est.params.as_array() >= cfg.p_lb - 1e-12)
    assert np.all(est.params.as_array() <= cfg.p_ub + 1e-12)
    assert est.hessian_condition > 1e8

    # contrast: a rich input with a decaying bias excites every parameter
    p_true = BeamParams(k=5.2, c=0.006, m=0.10, l=0.38, a=55.0, b=2.2, tau_e0=0.03)
    y, u = synth_record(chain3, p_true)
    est = estimate_parameters(chain3, y, u, p_true, Q0, cfg)
    assert est.hessian_condition < 1e6


@pytest.mark.parametrize("record", ["rich", "rest", "spatial"])
def test_output_sensitivity_matches_dual_rollout(chain3, chain7, free_params, record):
    # dy/dp by forward substitution on the gap Jacobian equals the rollout
    # on parameter duals, with and without a bias to excite b; the planar
    # arm rests at theta = 0, the spatial one, its wrist tilted so that
    # gravity loads the swing plane, off it
    tilted = REFERENCE_Q0_7DOF - np.pi / 4 * np.eye(7)[5]
    chain, q0 = (chain7, tilted) if record == "spatial" else (chain3, Q0)
    t = np.arange(N)[:, None] * DT
    u = {"rich": rich_input().data, "rest": np.zeros((N, 3)),
         "spatial": np.sin(4.0 * t + np.arange(7)) * np.exp(-t)}[record]
    coeffs = _record_coeffs(chain, q0, u, DT)
    rb0 = forward_kinematics(chain, q0).rotation
    biased = BeamParams(k=5.2, c=0.006, m=0.10, l=0.38, a=55.0, b=2.2, tau_e0=0.03)
    for p in (free_params, biased):
        got = _output_sensitivity(rb0, p, coeffs, DT)
        ref = dual_output_sensitivity(rb0, p, coeffs, DT)
        assert got.shape == ref.shape == (N, 7)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_grid_mismatch_rejected(chain3, free_params):
    y, u = synth_record(chain3, free_params)
    bad = Trajectory(0.01, u.data, u.labels)
    with pytest.raises(ValueError):
        estimate_parameters(chain3, y, bad, free_params, Q0, zero_reg_config())


# ---------------------------------------------------------------------------
# disturbance estimation


def test_disturbance_near_zero_without_mismatch(chain3, free_params):
    y, u = synth_record(chain3, free_params)
    x0, th0 = _model_init_state(chain3, Q0, free_params)
    cfg = EstimationConfig(v1=np.zeros(7), v2=np.zeros(7), w1=1e-4, w2=0.0,
                           w3=0.0, horizon=N, dt=DT)
    res = estimate_disturbance(chain3, y, u, free_params, th0, x0[-2], x0[-1],
                               None, Q0, cfg)
    assert res.solution.converged
    assert np.max(np.abs(res.d.data)) < 1e-6


def test_known_disturbance_recovery(chain3, free_params):
    t = np.arange(N) * DT
    d_true = 0.1 * np.sin(2 * np.pi * 1.0 * t)
    y, u = synth_record(chain3, free_params, d=d_true)
    x0, th0 = _model_init_state(chain3, Q0, free_params, d0=d_true[0])
    cfg = EstimationConfig(v1=np.zeros(7), v2=np.zeros(7), w1=1e-6, w2=0.0,
                           w3=0.0, horizon=N, dt=DT)
    res = estimate_disturbance(chain3, y, u, free_params, th0, x0[-2], x0[-1],
                               None, Q0, cfg)
    assert set(res.solution.variables) == {"d"}
    rmse = float(np.sqrt(np.mean((res.d.data[:, 0] - d_true) ** 2)))
    assert rmse < 0.05 * 0.1


def test_disturbance_response_matches_rollout(chain3, free_params):
    # the output is affine in d: the d = 0 rollout plus the lifted response
    u = rich_input()
    x0, _ = _model_init_state(chain3, Q0, free_params)
    d = np.random.default_rng(3).standard_normal(N) * 0.1
    _, y_free = fast_rollout(chain3, x0, u.data, free_params, None, DT)
    _, y_d = fast_rollout(chain3, x0, u.data, free_params, d, DT)
    got = y_free + disturbance_response(free_params.a, DT, N) @ d
    assert np.max(np.abs(got - y_d)) <= 1e-12 * np.max(np.abs(y_d))


def test_smoothness_dominance(chain3, free_params):
    t = np.arange(N) * DT
    d_true = 0.1 * np.sin(2 * np.pi * 1.0 * t)
    y, u = synth_record(chain3, free_params, d=d_true)
    x0, th0 = _model_init_state(chain3, Q0, free_params, d0=d_true[0])
    cfg = EstimationConfig(v1=np.zeros(7), v2=np.zeros(7), w1=1e-6, w2=0.0,
                           w3=1e9, horizon=N, dt=DT)
    res = estimate_disturbance(chain3, y, u, free_params, th0, x0[-2], x0[-1],
                               None, Q0, cfg)
    d = res.d.data[:, 0]
    assert np.max(np.abs(d - np.mean(d))) < 1e-6


def test_disturbance_objective_strictly_convex_in_d(chain3, free_params):
    # with the states eliminated through the rollout the objective is a
    # strictly convex quadratic in d whenever w1 > 0
    y, u = synth_record(chain3, free_params)
    x0, _ = _model_init_state(chain3, Q0, free_params)
    w1 = 1e-3
    y_data = y.data[:, 0]

    def objective(d):
        _, ys = fast_rollout(chain3, x0, u.data, free_params, d, DT)
        return float(np.sum((y_data - ys) ** 2) + w1 * np.sum(d**2))

    rng = np.random.default_rng(12)
    for _ in range(3):
        d1 = rng.standard_normal(N) * 0.1
        d2 = rng.standard_normal(N) * 0.1
        mid = objective(0.5 * (d1 + d2))
        chord = 0.5 * objective(d1) + 0.5 * objective(d2)
        gap = 0.25 * w1 * float(np.sum((d1 - d2) ** 2) / 2) * 2
        assert mid <= chord - 0.5 * gap + 1e-12


# ---------------------------------------------------------------------------
# combined learning step


def test_fit_never_worsens(chain3, mismatch_two_segment, free_params):
    # data from a mismatched source, zero anchors: each step may only help
    from beamilc.plant import PlantConfig, run_experiment
    cfg_plant = PlantConfig(two_segment=mismatch_two_segment, noise_std=0.0,
                            tau_e0_true=0.0, a_true=60.0, b_true=2.4)
    u = rich_input()
    res = run_experiment(cfg_plant, chain3, Q0, u, N, DT, free_params)
    cfg = EstimationConfig(v1=np.zeros(7), v2=np.zeros(7), horizon=N, dt=DT)
    model = learn_iteration(chain3, res.y, u, free_params, None, Q0, cfg)
    assert model.rmse_params_only <= model.rmse_before * (1 + 1e-6) + 1e-12
    assert model.rmse_after <= model.rmse_params_only * (1 + 1e-6) + 1e-12


def test_learned_model_serializable(chain3, free_params):
    y, u = synth_record(chain3, free_params)
    cfg = EstimationConfig.default(free_params, horizon=N, dt=DT)
    model = learn_iteration(chain3, y, u, free_params, None, Q0, cfg)
    doc = model.as_dict()
    assert set(doc["params"]) == {"k", "c", "m", "l", "a", "b", "tau_e0"}
    # data came from the prior model itself, so the fit stays excellent
    assert doc["rmse_after"] < 1e-4
    assert doc["statuses"]["parameters"] == "converged"
    for fit in ("parameters", "disturbance"):
        effort = doc["statuses"][f"{fit}_effort"]
        assert set(effort) == {"iterations", "qp_calls", "qp_as_at_budget", "qp_ipm_calls"}
        assert effort["iterations"] >= 1 and effort["qp_calls"] >= 1
    assert doc["statuses"]["parameters_condition"] > 1.0


def test_fit_rmse_zero_for_exact_model(chain3, free_params):
    y, u = synth_record(chain3, free_params)
    rmse = fit_rmse(chain3, Q0, free_params, u.data, y.data[:, 0], DT)
    assert rmse < 1e-12


def test_estimation_config_validation():
    # the horizon is a positive int and the grid step positive
    for bad in ({"horizon": 2.5}, {"horizon": 0}, {"horizon": True}, {"dt": 0.0},
                {"dt": -0.006}):
        with pytest.raises(ValueError):
            EstimationConfig(v1=np.zeros(7), v2=np.zeros(7), **bad)
