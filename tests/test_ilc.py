import numpy as np
import pytest

from beamilc.config import RunConfig
from beamilc.dynamics import fast_rollout
from beamilc.estimation import EstimationConfig, prior_scaled_weights
from beamilc.ilc import IlcConfig, metric_window_samples, run_ilc, vibration_metric
from beamilc.ocp import OcpWeights, TaskDefinition
from beamilc.plant import PlantConfig
from beamilc.trajectory import Trajectory
from conftest import assert_same_bits
from reference_model import _model_init_state

Q0 = np.array([0.5, -0.9, 0.6])


def small_setup(chain3, nominal_params, plant_cfg, i_max=2):
    task = TaskDefinition.from_goal_joints(chain3, Q0, [0.8, -1.05, 0.5],
                                           n_ctrl=40, n_pred=100, dt=0.01)
    v1, v2 = prior_scaled_weights(nominal_params)
    est_cfg = EstimationConfig(v1=v1, v2=v2, horizon=150, dt=6e-3)
    ilc_cfg = IlcConfig(i_max=i_max, metric_window=1.5, n_meas=450)
    return task, est_cfg, OcpWeights(), plant_cfg, ilc_cfg


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


def test_prediction_uses_the_model_from_before_its_experiment(chain3, nominal_params, tiny_run):
    # each record's prediction is the full-state reference rollout, to the
    # last bit, of the model its experiment ran on: the prior with zero
    # disturbance, then the parameters and disturbance learned from record 1
    recs, (task, est_cfg, *_) = tiny_run
    n, dt = est_cfg.horizon, est_cfg.dt
    models = [(nominal_params, np.zeros(n)), (recs[0].params, recs[0].disturbance.data[:, 0])]
    for rec, (p, d) in zip(recs, models, strict=True):
        x0, _ = _model_init_state(chain3, task.q0, p, d0=d[0])
        _, ref = fast_rollout(chain3, x0, rec.u.sample_hold(np.arange(n) * dt), p, d, dt)
        assert rec.y_pred.dt == dt and rec.y_pred.labels == ("tau_hat",)
        assert_same_bits(rec.y_pred.data[:, 0], ref)


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
