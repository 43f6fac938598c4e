"""Acceptance suite: every criterion exercised at its stated tolerance.

Each test prints one machine-greppable verdict line. The learning-loop
criteria run the default configuration (two-segment truth with detuned
first mode, 20% sensing-parameter error, noise 0.005 N*m, fixed seed).
"""
import hashlib
import json
import os
import time

import numpy as np
import pytest

from beamilc import ad
from beamilc.cli import main
from beamilc.config import RunConfig
from beamilc.dynamics import BeamParams, fast_rollout, state_dim
from beamilc.estimation import (EstimationConfig, Record, _model_output,
                                estimate_disturbance, estimate_parameters)
from beamilc.ilc import run_ilc, vibration_metric
from beamilc.kinematics import forward_kinematics, orientation_error
from beamilc.nlp import NlpProblem
from beamilc.ocp import TaskDefinition, _terminal_pose_group, solve_ptp_ocp
from beamilc.trajectory import Trajectory
from conftest import REFERENCE_Q0_7DOF
from derivative_check import check_derivatives
from reference_model import _model_init_state, pendulum_equilibrium, rest_state
from test_dynamics import accel_on_chain, vertical_plane_chain
from test_ocp import _ocp_problem


def verdict(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def default_ilc_run():
    cfg = RunConfig.default()
    chain = cfg.chain()
    task = cfg.task(chain)
    p0 = cfg.prior_params()
    t0 = time.monotonic()
    records = run_ilc(chain, task, p0, cfg.estimation_config(p0), cfg.ocp_weights(),
                      cfg.plant_config(), cfg.ilc_config())
    elapsed = time.monotonic() - t0
    return records, elapsed, cfg


@pytest.fixture(scope="session")
def ablation_ilc_run():
    doc = json.loads(json.dumps(RunConfig.default().raw))
    doc["ilc"]["ablation_no_disturbance"] = True
    cfg = RunConfig.from_dict(doc)
    chain = cfg.chain()
    task = cfg.task(chain)
    p0 = cfg.prior_params()
    records = run_ilc(chain, task, p0, cfg.estimation_config(p0), cfg.ocp_weights(),
                      cfg.plant_config(), cfg.ilc_config())
    return records, cfg


@pytest.mark.slow
def test_criterion_1_ilc_convergence(default_ilc_run):
    records, elapsed, _ = default_ilc_run
    v1 = records[0].metric
    v_final = records[-1].metric
    ok = (v_final <= v1 / 10.0) and (elapsed < 300.0)
    verdict(1, "ilc-convergence",
            ok, f"V1={v1:.4g}, V10={v_final:.4g}, ratio={v1 / v_final:.1f}, "
                f"runtime={elapsed:.0f}s (< 300s)")


@pytest.mark.slow
def test_criterion_2_ilc_beats_ablation(default_ilc_run, ablation_ilc_run):
    full, _, _ = default_ilc_run
    part, _ = ablation_ilc_run
    e_full = full[-1].prediction_error
    e_part = part[-1].prediction_error
    e_first = full[0].prediction_error
    ok = (e_full < e_part) and (e_full < e_first) and (e_part < e_first)
    verdict(2, "ilc-vs-ilc-p",
            ok, f"final ILC={e_full:.4g} < final ILC-P={e_part:.4g}, "
                f"iteration-1={e_first:.4g}")


def test_criterion_3_reference_task(chain7, nominal_params):
    task = TaskDefinition.from_displacement(chain7, REFERENCE_Q0_7DOF,
                                            [0.20, 0.0, -0.20],
                                            n_ctrl=48, n_pred=144, dt=1e-2)
    plan = solve_ptp_ocp(chain7, task, nominal_params)
    q_end = plan.states[task.n_ctrl, :7]
    pose = forward_kinematics(chain7, q_end)
    pos_err = float(np.linalg.norm(pose.position - task.goal_position))
    ori_err = float(np.linalg.norm(orientation_error(pose.rotation, task.goal_rotation)))
    dq_end = float(np.max(np.abs(plan.states[task.n_ctrl, 8:15])))
    lims = plan.limit_violations(chain7, task)
    ok = (not plan.fell_back and task.n_ctrl * task.dt == pytest.approx(0.48)
          and pos_err < 1e-6 and ori_err < 1e-6 and dq_end < 1e-8
          and all(v <= 1e-9 for v in lims.values()))
    verdict(3, "reference-task-feasibility",
            ok, f"motion 0.48s, pos_err={pos_err:.2e} m, ori_err={ori_err:.2e} rad, "
                f"dq_end={dq_end:.2e} rad/s, worst limit margin={max(lims.values()):.2e}")


def test_criterion_4_recovery_oracles(chain3):
    q0 = np.array([0.5, -0.9, 0.6])
    n, dt = 240, 0.006
    p_true = BeamParams(k=5.2, c=0.006, m=0.10, l=0.38, a=55.0, b=2.2, tau_e0=0.03)
    t = np.arange(n) * dt
    u = Trajectory(dt, np.stack([
        3.0 * np.sin(2 * np.pi * 1.3 * t) * np.exp(-t),
        2.5 * np.sin(2 * np.pi * 2.1 * t + 1.0) * np.exp(-t),
        2.0 * np.sin(2 * np.pi * 0.9 * t + 0.4) * np.exp(-t)], axis=1),
        ("u1", "u2", "u3"))
    x0, _ = _model_init_state(chain3, q0, p_true)
    _, ys = fast_rollout(chain3, x0, u.data, p_true, None, dt)
    y = Trajectory(dt, ys[:, None], ("tau_hat",))
    cfg = EstimationConfig(v1=np.zeros(7), v2=np.zeros(7), horizon=n, dt=dt)
    p_prev = BeamParams(k=4.35, c=0.0049, m=0.085, l=0.4, a=50.0, b=2.0)
    est = estimate_parameters(Record.from_experiment(chain3, y, u, q0, cfg), p_prev, cfg)
    rel = {
        "k": abs(est.params.k - p_true.k) / p_true.k,
        "c": abs(est.params.c - p_true.c) / p_true.c,
        "ml2": abs(est.params.m * est.params.l**2 - p_true.m * p_true.l**2)
               / (p_true.m * p_true.l**2),
        "a": abs(est.params.a - p_true.a) / p_true.a,
    }
    param_ok = max(rel.values()) < 1e-3

    d_true = 0.1 * np.sin(2 * np.pi * 1.0 * t)
    x0d, th0 = _model_init_state(chain3, q0, p_true, d0=d_true[0])
    _, ysd = fast_rollout(chain3, x0d, u.data, p_true, d_true, dt)
    yd = Trajectory(dt, ysd[:, None], ("tau_hat",))
    cfg_d = EstimationConfig(v1=np.zeros(7), v2=np.zeros(7), w1=1e-6, w2=0.0,
                             w3=0.0, horizon=n, dt=dt)
    rec = Record.from_experiment(chain3, yd, u, q0, cfg_d)
    y_free = _model_output(rec.rb0, rec.coeffs, dt, p_true, np.zeros(n),
                           (th0, 0.0, x0d[-2], x0d[-1]))
    dist = estimate_disturbance(rec, p_true, y_free, None, cfg_d)
    d_rmse = float(np.sqrt(np.mean((dist.d.data[:, 0] - d_true) ** 2)))
    dist_ok = d_rmse < 0.05 * 0.1
    verdict(4, "recovery-oracles", param_ok and dist_ok,
            f"param rel err={max(rel.values()):.2e} (<1e-3), "
            f"d RMSE={d_rmse:.2e} (<5% of 0.1)")


def test_criterion_5_numerical_hygiene(chain2, chain3, free_params, monkeypatch):
    # RK4 observed order on the damped pendulum
    p = BeamParams(k=4.0, c=0.02, m=0.1, l=0.4, a=50.0, b=2.0)
    x0 = rest_state(chain2, np.zeros(2), p)
    x0[2] = 0.3

    def final_state(dt):
        xs, _ = fast_rollout(chain2, x0, np.zeros((int(round(1.0 / dt)), 2)),
                             p, None, dt)
        return xs[-1]

    ref = final_state(2.5e-5)
    errs = [np.linalg.norm(final_state(dt) - ref) for dt in (4e-3, 2e-3, 1e-3)]
    order = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))

    # optimizer derivatives against central finite differences
    n_x = state_dim(3)
    rng = np.random.default_rng(15)
    worst = 0.0

    # the gaps of the planner's control horizon, which the SQP differentiates
    task = TaskDefinition.from_goal_joints(chain3, [0.5, -0.9, 0.6], [0.8, -1.05, 0.5],
                                           n_ctrl=4, n_pred=6, dt=6e-3)
    gaps = _ocp_problem(chain3, task, free_params, monkeypatch).eq_groups[0]
    z = rng.standard_normal(gaps.problem.n) * 0.4
    worst = max(worst, check_derivatives(gaps.eval, lambda v: gaps.eval_with_jac(v)[1],
                                         z, eps=1e-6).max_rel_error)

    # the pendulum equation against its parameters
    q, dq, ddq = rng.standard_normal((3, 3))

    def pend_fn(p_arr):
        return np.atleast_1d(accel_on_chain(chain3, q, dq, ddq, 0.2, -0.3, p_arr))

    def pend_jac(p_arr):
        pd = ad.seed(p_arr, 7, 0)
        return np.atleast_2d(accel_on_chain(chain3, q, dq, ddq, 0.2, -0.3, pd).dot)

    worst = max(worst, check_derivatives(pend_fn, pend_jac,
                                         free_params.as_array(), eps=1e-6).max_rel_error)

    # terminal-pose constraint group of the planner
    prob = NlpProblem()
    prob.add_block("x", 3 * n_x)
    group = _terminal_pose_group(prob, chain3, 1, np.array([0.5, 0.4, 0.0]),
                                 np.eye(3), 3, n_x)
    zz = np.zeros(prob.n)
    zz[n_x:n_x + 3] = rng.uniform(-1, 1, 3)
    worst = max(worst, check_derivatives(
        group.eval, lambda v: group.eval_with_jac(v)[1], zz, eps=1e-6).max_rel_error)

    # energy conservation over 10 s at 1 kHz on a stationary arm
    from test_dynamics import pendulum_energy
    ch = vertical_plane_chain()
    pc = BeamParams(k=4.0, c=0.0, m=0.1, l=0.4, a=50.0, b=2.0)
    th_eq = pendulum_equilibrium(ch, [0.2], pc)
    x0c = rest_state(ch, [0.2], pc, theta=th_eq)
    x0c[1] = th_eq + 0.3
    xs, _ = fast_rollout(ch, x0c, np.zeros((10000, 1)), pc, None, 1e-3)
    e0 = pendulum_energy(ch, xs[0], pc, 1)
    e_rest = pendulum_energy(ch, rest_state(ch, [0.2], pc, theta=th_eq), pc, 1)
    drift = max(abs(pendulum_energy(ch, xs[k], pc, 1) - e0)
                for k in range(0, 10001, 500)) / abs(e0 - e_rest)

    ok = order >= 3.9 and worst < 1e-5 and drift < 1e-3
    verdict(5, "numerical-hygiene",
            ok, f"RK4 order={order:.2f} (>=3.9), worst FD err={worst:.2e} (<1e-5), "
                f"energy drift={drift:.2e} (<0.1%)")


def test_criterion_6_metric_correctness():
    amp, dt = 0.37, 0.006
    n_r = 2000
    t = np.arange(n_r + 40) * dt
    v_sin = vibration_metric(amp * np.sin(2 * np.pi * 1.0 * t), 20, n_r)
    v_const = vibration_metric(np.full(3000, 2.5), 100, 833)
    sin_ok = abs(v_sin - 2 * amp / np.pi) / (2 * amp / np.pi) < 0.01
    const_ok = v_const == 0.0
    verdict(6, "metric-correctness", sin_ok and const_ok,
            f"sinusoid V={v_sin:.5f} vs 2A/pi={2 * amp / np.pi:.5f}, constant V={v_const}")


def test_criterion_7_determinism(tmp_path):
    doc = json.loads(json.dumps(RunConfig.default().raw))
    doc["ilc"] = {"i_max": 2, "metric_window": 1.5, "n_meas": 450,
                  "ablation_no_disturbance": False}
    doc["estimation"]["horizon"] = 150
    doc["task"]["goal_joints"] = [0.8, -1.05, 0.5]
    doc["task"]["n_ctrl"] = 40
    doc["task"]["n_pred"] = 100
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)

    def run_and_hash(out):
        rc = main(["ilc", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        digest = hashlib.sha256()
        for base, _, files in sorted(os.walk(out)):
            for fn in sorted(files):
                with open(os.path.join(base, fn), "rb") as fh:
                    digest.update(fn.encode())
                    digest.update(fh.read())
        return digest.hexdigest()

    h1 = run_and_hash(tmp_path / "r1")
    h2 = run_and_hash(tmp_path / "r2")
    verdict(7, "determinism", h1 == h2, f"sha256 {h1[:16]} == {h2[:16]}")


def test_criterion_8_analytic_initialization(reference_beam):
    mass_ref = 6300.0 * 0.6 * 0.06 * 0.001          # rho L w t
    rho_a = mass_ref / 0.6
    omega_ref = 1.8751**2 * np.sqrt(1.267 / (rho_a * 0.6**4))
    mass_ok = abs(reference_beam.mass - 0.2268) < 1e-6 and \
        reference_beam.mass == pytest.approx(mass_ref, rel=1e-12)
    omega = reference_beam.first_mode_frequency
    omega_ok = abs(omega - 17.9) <= 0.1 and omega == pytest.approx(omega_ref, rel=1e-12)
    verdict(8, "analytic-initialization", mass_ok and omega_ok,
            f"mass={reference_beam.mass:.6f} kg (0.2268), omega1={omega:.3f} rad/s (17.9+-0.1)")


# ---------------------------------------------------------------------------
# loop-level invariants on the acceptance run


@pytest.mark.slow
def test_loop_disturbance_step_improves_fit(default_ilc_run):
    records, _, _ = default_ilc_run
    for rec in records:
        assert rec.rmse_after <= rec.rmse_params_only * (1 + 1e-3) + 1e-9


@pytest.mark.slow
def test_loop_prediction_metric_consistency(default_ilc_run):
    # at convergence the model's own prediction carries the same residual
    # vibration as the measurement, up to the noise floor
    records, _, cfg = default_ilc_run
    rec = records[-1]
    dt = cfg.estimation_config().dt
    motion_end = int(round(cfg.task(cfg.chain()).n_ctrl * cfg.task(cfg.chain()).dt / dt))
    window = len(rec.y_pred) - motion_end - 2
    v_meas = vibration_metric(rec.y_meas, motion_end, window)
    v_pred = vibration_metric(rec.y_pred, motion_end, window)
    noise_floor = cfg.plant_config().noise_std * np.sqrt(2 / np.pi)
    assert abs(v_meas - v_pred) < 3 * noise_floor


@pytest.mark.slow
def test_loop_every_ocp_solve_converges(default_ilc_run):
    records, _, _ = default_ilc_run
    for rec in records:
        for key in ("ocp_entry", "ocp_next"):
            assert rec.statuses[key]["status"] == "converged", (rec.iteration, key)


@pytest.mark.slow
def test_loop_records_not_flagged(default_ilc_run):
    records, _, _ = default_ilc_run
    assert not any(r.flagged for r in records)
