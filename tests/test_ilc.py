import numpy as np
import pytest

from beamilc.config import RunConfig
from beamilc.dynamics import BeamParams, fast_rollout
from beamilc.estimation import EstimationConfig
from beamilc.ilc import (IlcConfig, _rollout_prediction, metric_window_samples, run_ilc,
                         vibration_metric)
from beamilc.ocp import OcpWeights, TaskDefinition
from beamilc.plant import PlantConfig
from beamilc.trajectory import Trajectory
from conftest import REFERENCE_Q0_7DOF
from reference_model import _model_init_state

Q0 = np.array([0.5, -0.9, 0.6])


def small_setup(chain3, nominal_params, plant_cfg, i_max=2):
    task = TaskDefinition.from_goal_joints(chain3, Q0, [0.8, -1.05, 0.5],
                                           n_ctrl=40, n_pred=100, dt=0.01)
    est_cfg = EstimationConfig.default(nominal_params, horizon=150, dt=6e-3)
    ilc_cfg = IlcConfig(i_max=i_max, metric_window=1.5, n_meas=450)
    return task, est_cfg, OcpWeights(), plant_cfg, ilc_cfg


# ---------------------------------------------------------------------------
# prediction


@pytest.mark.parametrize("record, n_d", [("planar", None), ("planar", 150), ("planar", 97),
                                         ("spatial", 97)])
def test_rollout_prediction_matches_full_state_rollout(chain3, chain7, record, n_d):
    # the loop's prediction equals the full-state reference rollout to the
    # last bit; a disturbance shorter than the horizon is extended by the
    # mean of its last tenth
    horizon, dt = 150, 6e-3
    tilted = REFERENCE_Q0_7DOF - np.pi / 4 * np.eye(7)[5]
    chain, q0 = (chain7, tilted) if record == "spatial" else (chain3, Q0)
    t = np.arange(60)[:, None] * 0.01
    u = Trajectory(0.01, np.sin(4.0 * t + np.arange(chain.n_joints)) * np.exp(-t),
                   tuple(f"u{j + 1}" for j in range(chain.n_joints)))
    p = BeamParams(k=5.2, c=0.006, m=0.10, l=0.38, a=55.0, b=2.2, tau_e0=0.03)
    d_ref = np.zeros(horizon)
    d = None
    if n_d is not None:
        d = Trajectory(dt, 0.1 * np.sin(0.05 * np.arange(n_d))[:, None] + 0.02, ("d",))
        d_ref[:n_d] = d.data[:, 0]
        d_ref[n_d:] = np.mean(d.data[n_d - n_d // 10:, 0])
    x0, _ = _model_init_state(chain, q0, p, d0=d_ref[0])
    _, ref = fast_rollout(chain, x0, u.sample_hold(np.arange(horizon) * dt), p, d_ref, dt)
    got = _rollout_prediction(chain, q0, p, d, u, horizon, dt)
    assert got.dt == dt and got.labels == ("tau_hat",)
    np.testing.assert_array_equal(got.data[:, 0], ref)


# ---------------------------------------------------------------------------
# vibration metric


def test_metric_constant_is_zero():
    y = Trajectory(0.006, np.full((1000, 1), 1.234), ("tau_hat",))
    assert vibration_metric(y, 10, 900) == 0.0


def test_metric_sinusoid_mean_absolute():
    # >= 10 periods of a pure sinusoid: V approaches 2A/pi
    amp = 0.7
    dt = 0.006
    n_r = 2000  # 12 s window, 12 periods at 1 Hz
    t = np.arange(n_r + 50) * dt
    y = amp * np.sin(2 * np.pi * 1.0 * t)
    v = vibration_metric(y, 10, n_r)
    assert v == pytest.approx(2 * amp / np.pi, rel=0.01)


def test_metric_window_samples_default():
    # the default loop's motion ends at sample 80 and its 5 s window spans
    # 833 samples; 80 + 833 + 1 fit in the 920 measured
    cfg = RunConfig.default()
    est = cfg.estimation_config(cfg.prior_params())
    assert metric_window_samples(cfg.task(), est, cfg.ilc_config()) == (80, 833)


def test_metric_window_validation():
    y = Trajectory(0.006, np.zeros((100, 1)), ("tau_hat",))
    with pytest.raises(ValueError):
        vibration_metric(y, 50, 60)
    with pytest.raises(ValueError):
        vibration_metric(y, -1, 10)


def test_metric_offset_invariant():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(1200)
    v1 = vibration_metric(y, 100, 1000)
    v2 = vibration_metric(y + 5.0, 100, 1000)
    assert v1 == pytest.approx(v2, rel=1e-12)


# ---------------------------------------------------------------------------
# loop behavior


@pytest.fixture(scope="module")
def tiny_run(chain3, nominal_params, mismatch_two_segment):
    plant = PlantConfig(two_segment=mismatch_two_segment, seed=77)
    args = small_setup(chain3, nominal_params, plant, i_max=2)
    recs = run_ilc(chain3, args[0], nominal_params, args[1], args[2], args[3], args[4])
    return recs, args


def test_loop_produces_one_record_per_iteration(tiny_run):
    recs, _ = tiny_run
    assert [r.iteration for r in recs] == [1, 2]
    for r in recs:
        assert len(r.u) == 100
        assert len(r.disturbance) == 150
        assert r.metric > 0


def test_loop_learning_improves_prediction(tiny_run):
    recs, _ = tiny_run
    assert recs[1].prediction_error < recs[0].prediction_error
    for r in recs:
        assert r.rmse_after <= r.rmse_params_only * (1 + 1e-3) + 1e-9


def test_loop_deterministic(chain3, nominal_params, mismatch_two_segment, tiny_run):
    recs1, args = tiny_run
    recs2 = run_ilc(chain3, args[0], nominal_params, args[1], args[2], args[3], args[4])
    for a, b in zip(recs1, recs2):
        np.testing.assert_array_equal(a.y_meas.data, b.y_meas.data)
        np.testing.assert_array_equal(a.u.data, b.u.data)
        np.testing.assert_array_equal(a.disturbance.data, b.disturbance.data)
        assert a.metric == b.metric and a.prediction_error == b.prediction_error


def test_no_mismatch_plant_nothing_to_learn(chain3, nominal_params):
    # truth = nominal model, no noise or bias: the first experiment already
    # matches the prediction and the metric sits at the solver floor
    plant = PlantConfig(truth_kind="perturbed_single", param_factors=(1, 1, 1, 1),
                        a_true=nominal_params.a, b_true=nominal_params.b,
                        tau_e0_true=0.0, noise_std=0.0, seed=5)
    task, est_cfg, weights, _, ilc_cfg = small_setup(chain3, nominal_params, plant, i_max=1)
    recs = run_ilc(chain3, task, nominal_params, est_cfg, weights, plant, ilc_cfg)
    # residual floor set by the control-grid vs plant-grid difference
    assert recs[0].metric < 2e-3
    assert recs[0].rmse_before < 2e-2


def test_ablation_disables_disturbance(chain3, nominal_params, mismatch_two_segment):
    plant = PlantConfig(two_segment=mismatch_two_segment, seed=77)
    task, est_cfg, weights, _, _ = small_setup(chain3, nominal_params, plant)
    ilc_cfg = IlcConfig(i_max=1, metric_window=1.5, n_meas=450,
                        ablation_no_disturbance=True)
    recs = run_ilc(chain3, task, nominal_params, est_cfg, weights, plant, ilc_cfg)
    np.testing.assert_array_equal(recs[0].disturbance.data, 0.0)
    assert recs[0].statuses["disturbance"] == "skipped"


def test_config_validation():
    for bad in ({"i_max": 0}, {"i_max": 2.5}, {"i_max": True}, {"n_meas": 0},
                {"n_meas": 450.5}, {"n_meas": True}):
        with pytest.raises(ValueError):
            IlcConfig(**bad)
    with pytest.raises(ValueError):
        IlcConfig(metric_window=-1.0)
