import numpy as np
import pytest
import scipy.sparse as sp

from beamilc import nlp
from beamilc.dynamics import BeamParams, IntegrationBlowupError, fast_rollout
from beamilc.estimation import (DEFAULT_PARAM_BOX, EstimationConfig, Record,
                                disturbance_response, estimate_disturbance,
                                estimate_parameters, learn_iteration, prior_scaled_weights,
                                _model_output, _output_sensitivity, _record_coeffs)
from beamilc.kinematics import forward_kinematics
from beamilc.ocp import resample_disturbance
from beamilc.trajectory import Trajectory
from conftest import REFERENCE_Q0_7DOF
from derivative_check import check_derivatives
from reference_model import _model_init_state, dual_output_sensitivity

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


def fit_parameters(chain, y, u, p_prev, cfg):
    return estimate_parameters(Record.from_experiment(chain, y, u, Q0, cfg), p_prev, cfg)


def fit_disturbance(chain, y, u, p, x0, cfg):
    """The disturbance fit from the full initial state ``x0``, as the learning step makes it."""
    rec = Record.from_experiment(chain, y, u, Q0, cfg)
    n = chain.n_joints
    y_free = _model_output(rec.rb0, rec.coeffs, DT, p, np.zeros(N), (x0[n], 0.0, x0[-2], x0[-1]))
    return estimate_disturbance(rec, p, y_free, None, cfg)


# ---------------------------------------------------------------------------
# parameter estimation


def test_parameter_recovery_from_nominal_data(chain3):
    p_true = BeamParams(k=5.2, c=0.006, m=0.10, l=0.38, a=55.0, b=2.2, tau_e0=0.03)
    y, u = synth_record(chain3, p_true)
    p_prev = BeamParams(k=4.35, c=0.0049, m=0.085, l=0.4, a=50.0, b=2.0, tau_e0=0.0)
    est = fit_parameters(chain3, y, u, p_prev, zero_reg_config())
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
    est = fit_parameters(chain3, y, u, p_prev, cfg)
    np.testing.assert_allclose(est.params.as_array(), p_prev.as_array(),
                               rtol=1e-6, atol=1e-9)


def test_unexcited_experiment_degeneracy(chain3, free_params):
    # rest data: parameters stay in the box and conditioning is reported poor
    u = Trajectory(DT, np.zeros((N, 3)), ("u1", "u2", "u3"))
    y, _ = synth_record(chain3, free_params, u=u)
    cfg = zero_reg_config()
    est = fit_parameters(chain3, y, u, free_params, cfg)
    assert np.all(est.params.as_array() >= cfg.p_lb - 1e-12)
    assert np.all(est.params.as_array() <= cfg.p_ub + 1e-12)
    assert est.sensitivity_condition > 1e8

    # contrast: a rich input with a decaying bias excites every parameter
    p_true = BeamParams(k=5.2, c=0.006, m=0.10, l=0.38, a=55.0, b=2.2, tau_e0=0.03)
    y, u = synth_record(chain3, p_true)
    est = fit_parameters(chain3, y, u, p_true, cfg)
    assert est.sensitivity_condition < 1e6


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


@pytest.mark.parametrize("record", ["planar", "spatial"])
def test_model_output_matches_full_state_rollout(chain3, chain7, record):
    # the substate output path equals the full-state reference rollout to
    # the last bit, from rest settled on d[0] and from a fitted substate,
    # on the planar arm and on the tilted spatial one
    tilted = REFERENCE_Q0_7DOF - np.pi / 4 * np.eye(7)[5]
    chain, q0 = (chain7, tilted) if record == "spatial" else (chain3, Q0)
    t = np.arange(N)[:, None] * DT
    u = rich_input().data if record == "planar" else np.sin(4.0 * t + np.arange(7)) * np.exp(-t)
    d = 0.1 * np.sin(2 * np.pi * t[:, 0]) + 0.02
    p = BeamParams(k=5.2, c=0.006, m=0.10, l=0.38, a=55.0, b=2.2, tau_e0=0.03)
    rb0 = forward_kinematics(chain, q0).rotation
    coeffs = _record_coeffs(chain, q0, u, DT)
    x0, _ = _model_init_state(chain, q0, p, d0=d[0])
    _, ref = fast_rollout(chain, x0, u, p, d, DT)
    np.testing.assert_array_equal(_model_output(rb0, coeffs, DT, p, d), ref)

    n = chain.n_joints
    x0[n], x0[-2], x0[-1] = 0.05, -0.2, 0.01
    _, ref = fast_rollout(chain, x0, u, p, d, DT)
    np.testing.assert_array_equal(
        _model_output(rb0, coeffs, DT, p, d, (0.05, 0.0, -0.2, 0.01)), ref)

    d[N // 2] = np.nan
    with pytest.raises(IntegrationBlowupError):
        _model_output(rb0, coeffs, DT, p, d)


class _Captured(Exception):
    pass


def _fit_problem(chain7, free_params, monkeypatch):
    """The parameter fit's NLP on a 30-sample 7-DOF record, captured unsolved.

    The wrist is tilted so that gravity loads the swing plane and the
    equilibrium row depends on theta_0, k, m and l.
    """
    def capture(problem, opts=None):
        raise _Captured(problem)

    q0 = REFERENCE_Q0_7DOF - np.pi / 4 * np.eye(7)[5]
    n = 30
    t = np.arange(n)[:, None] * DT
    u = Trajectory(DT, np.sin(4.0 * t + np.arange(7)) * np.exp(-t),
                   tuple(f"u{j+1}" for j in range(7)))
    cfg = EstimationConfig(v1=np.zeros(7), v2=np.zeros(7), horizon=n, dt=DT)
    rec = Record.from_experiment(chain7, Trajectory(DT, np.zeros((n, 1)), ("y",)), u, q0, cfg)
    monkeypatch.setattr(nlp, "solve", capture)
    with pytest.raises(_Captured) as exc:
        estimate_parameters(rec, free_params, cfg)
    return exc.value.args[0]


def test_parameter_fit_equality_jacobians(chain7, free_params, monkeypatch):
    # every equality group of the parameter fit (the gaps, the tau_e tie and
    # the equilibrium row) against central differences, over every column,
    # away from the solution
    problem = _fit_problem(chain7, free_params, monkeypatch)
    assert len(problem.eq_groups) == 3

    rng = np.random.default_rng(11)
    z0 = problem.initial_guess() + 0.01 * rng.standard_normal(problem.n)
    p_cols = problem.block("p").offset + np.arange(7)
    z0[p_cols] = free_params.as_array() * (1.0 + 0.05 * rng.standard_normal(7))
    rest_jac = problem.eq_groups[-1].eval_with_jac(z0)[1]
    assert rest_jac.shape == (1, problem.n)
    assert np.all(rest_jac[0, [problem.block("x").offset, *p_cols[[0, 2, 3]]]].toarray() != 0)

    report = check_derivatives(
        lambda z: np.concatenate([g.eval(z) for g in problem.eq_groups]),
        lambda z: sp.vstack([g.eval_with_jac(z)[1] for g in problem.eq_groups]),
        z0)
    assert report.ok(1e-6), report


def test_parameter_fit_layout(chain7, free_params, monkeypatch):
    # blocks x (31 substate nodes) and p, in that order; the only fixed
    # variable is dtheta at node 0, at zero; the gaps come first
    problem = _fit_problem(chain7, free_params, monkeypatch)
    assert [(b.name, b.offset, b.dim) for b in problem.blocks] == [("x", 0, 124), ("p", 124, 7)]
    lb, ub = problem.bounds()
    np.testing.assert_array_equal(np.flatnonzero(lb == ub), [1])
    assert lb[1] == 0.0 and problem.initial_guess()[1] == 0.0
    np.testing.assert_array_equal(lb[:124:4], -np.pi + 1e-3)   # theta inside (-pi, pi)
    np.testing.assert_array_equal(ub[:124:4], np.pi - 1e-3)
    np.testing.assert_array_equal(lb[124:], DEFAULT_PARAM_BOX["lb"])
    np.testing.assert_array_equal(ub[124:], DEFAULT_PARAM_BOX["ub"])
    assert [type(g) for g in problem.eq_groups] == [nlp.ShootingGapGroup, nlp.LinearGroup,
                                                    nlp.CallableGroup]
    assert problem.eq_groups[0].dim == 30 * 4


def test_grid_mismatch_rejected(chain3, free_params):
    # an input off the estimation grid, shorter than the horizon or with the
    # wrong number of columns is an error that names it
    y, u = synth_record(chain3, free_params)
    d = Trajectory(DT, np.zeros((N, 1)), ("d",))

    def columns(traj, n):
        return Trajectory(traj.dt, np.tile(traj.data[:, :1], (1, n)),
                          tuple(f"c{j}" for j in range(n)))

    for name, y_in, u_in, d_in, why in [
            ("u", y, Trajectory(0.01, u.data, u.labels), None, "is sampled every 0.01 s"),
            ("y", columns(y, 2), u, None, "has 2 columns, not 1"),
            ("u", y, columns(u, 5), None, "has 5 columns, not 3"),
            ("u", y, columns(u, 2), None, "has 2 columns, not 3"),
            ("d_prev", y, u, columns(d, 2), "has 2 columns, not 1"),
            ("d_prev", y, u, Trajectory(DT, d.data[:N - 1], ("d",)), "has 239 samples")]:
        with pytest.raises(ValueError, match=f"^{name} {why}"):
            learn_iteration(chain3, y_in, u_in, free_params, d_in, Q0, zero_reg_config())
    with pytest.raises(ValueError, match="^d has 2 columns, not 1$"):
        resample_disturbance(columns(d, 2), 0.01, 144)


# ---------------------------------------------------------------------------
# disturbance estimation


def test_disturbance_near_zero_without_mismatch(chain3, free_params):
    y, u = synth_record(chain3, free_params)
    x0, _ = _model_init_state(chain3, Q0, free_params)
    cfg = EstimationConfig(v1=np.zeros(7), v2=np.zeros(7), w1=1e-4, w2=0.0,
                           w3=0.0, horizon=N, dt=DT)
    res = fit_disturbance(chain3, y, u, free_params, x0, cfg)
    assert res.solution.converged
    assert np.max(np.abs(res.d.data)) < 1e-6


def test_known_disturbance_recovery(chain3, free_params):
    t = np.arange(N) * DT
    d_true = 0.1 * np.sin(2 * np.pi * 1.0 * t)
    y, u = synth_record(chain3, free_params, d=d_true)
    x0, _ = _model_init_state(chain3, Q0, free_params, d0=d_true[0])
    cfg = EstimationConfig(v1=np.zeros(7), v2=np.zeros(7), w1=1e-6, w2=0.0,
                           w3=0.0, horizon=N, dt=DT)
    res = fit_disturbance(chain3, y, u, free_params, x0, cfg)
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
    x0, _ = _model_init_state(chain3, Q0, free_params, d0=d_true[0])
    cfg = EstimationConfig(v1=np.zeros(7), v2=np.zeros(7), w1=1e-6, w2=0.0,
                           w3=1e9, horizon=N, dt=DT)
    res = fit_disturbance(chain3, y, u, free_params, x0, cfg)
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
    v1, v2 = prior_scaled_weights(free_params)
    cfg = EstimationConfig(v1=v1, v2=v2, horizon=N, dt=DT)
    model = learn_iteration(chain3, y, u, free_params, None, Q0, cfg)
    doc = model.as_dict()
    assert set(doc["params"]) == {"k", "c", "m", "l", "a", "b", "tau_e0"}
    # data came from the prior model itself, so the fit stays excellent
    assert doc["rmse_after"] < 1e-4
    assert doc["statuses"]["parameters"] == "converged"
    for fit in ("parameters", "disturbance"):
        effort = doc["statuses"][f"{fit}_effort"]
        assert set(effort) == {"iterations", "qp_calls", "qp_as_at_budget", "qp_ipm_calls",
                               "qp_elastic_calls"}
        assert effort["iterations"] >= 1 and effort["qp_calls"] >= 1
    assert doc["statuses"]["parameters_condition"] > 1.0


def test_fit_rmse_zero_for_exact_model(chain3, free_params):
    y, u = synth_record(chain3, free_params)
    rec = Record.from_experiment(chain3, y, u, Q0, zero_reg_config())
    ys = _model_output(rec.rb0, rec.coeffs, DT, free_params, np.zeros(N))
    rmse = float(np.sqrt(np.mean((ys - rec.y) ** 2)))
    assert rmse < 1e-12


def test_estimation_config_validation():
    # the horizon is a positive int and the grid step positive
    for bad in ({"horizon": 2.5}, {"horizon": 0}, {"horizon": True}, {"dt": 0.0},
                {"dt": -0.006}):
        with pytest.raises(ValueError):
            EstimationConfig(v1=np.zeros(7), v2=np.zeros(7), **bad)
