import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import REFERENCE_Q0_7DOF
from derivative_check import check_derivatives
from test_dynamics import vertical_plane_chain

from beamilc import nlp, qp
from beamilc.dynamics import BeamParams, equilibrium_for_rotation, fast_rollout, state_dim
from beamilc.kinematics import (GRAVITY, KinematicChain, forward_kinematics,
                                orientation_error)
from beamilc.ocp import OcpWeights, TaskDefinition, resample_disturbance, solve_ptp_ocp
from beamilc.trajectory import Trajectory

Q0 = np.array([0.5, -0.9, 0.6])
Q_GOAL = np.array([0.9, -1.1, 0.5])


@pytest.fixture(scope="module")
def plan3(chain3, nominal_params):
    task = TaskDefinition.from_goal_joints(chain3, Q0, Q_GOAL,
                                           n_ctrl=48, n_pred=144, dt=0.01)
    plan = solve_ptp_ocp(chain3, task, nominal_params)
    return task, plan


class _Captured(Exception):
    pass


def _ocp_problem(chain, task, params, monkeypatch):
    """The NLP that solve_ptp_ocp hands to the solver, captured unsolved."""
    def capture(problem, opts=None):
        raise _Captured(problem)

    with monkeypatch.context() as m, pytest.raises(_Captured) as exc:
        m.setattr(nlp, "solve", capture)
        solve_ptp_ocp(chain, task, params)
    return exc.value.args[0]


# ---------------------------------------------------------------------------
# basic behavior


def test_zero_displacement_gives_zero_input(chain3, nominal_params):
    task = TaskDefinition.from_goal_joints(chain3, Q0, Q0, n_ctrl=20,
                                           n_pred=50, dt=0.01)
    plan = solve_ptp_ocp(chain3, task, nominal_params)
    assert plan.solution.converged
    np.testing.assert_allclose(plan.u.data, 0.0, atol=1e-9)


def test_ptp_terminal_constraints(chain3, plan3):
    task, plan = plan3
    assert plan.solution.converged and not plan.fell_back
    q_end = plan.states[task.n_ctrl, :3]
    pose = forward_kinematics(chain3, q_end)
    assert np.linalg.norm(pose.position - task.goal_position) < 1e-6
    assert np.linalg.norm(orientation_error(pose.rotation, task.goal_rotation)) < 1e-6
    assert np.max(np.abs(plan.states[task.n_ctrl, 4:7])) < 1e-8


def test_ptp_plan_structure(chain3, plan3):
    task, plan = plan3
    np.testing.assert_allclose(plan.u.data[0], 0.0, atol=1e-12)
    np.testing.assert_allclose(plan.u.data[task.n_ctrl - 1:], 0.0, atol=1e-15)
    viol = plan.limit_violations(chain3, task)
    assert all(v <= 1e-9 for v in viol.values())


def test_ptp_suppresses_model_vibration(chain3, plan3):
    task, plan = plan3
    theta = plan.states[task.n_ctrl:, 3]
    dtheta = plan.states[task.n_ctrl:, 7]
    assert np.max(np.abs(theta - plan.theta_goal)) < 1e-9
    assert np.max(np.abs(dtheta)) < 1e-9


def test_rest_to_rest_energy_single_joint():
    # single revolute arm with an undamped pendulum: the planned motion
    # leaves essentially no pendulum energy behind
    ones = np.ones(1)
    ch = KinematicChain(np.zeros((1, 3)), np.eye(3)[None],
                        np.array([[0.0, 0.0, 1.0]]),
                        np.array([0.8, 0.0, 0.0]), np.eye(3),
                        -3 * ones, 3 * ones, 2.5 * ones, 15 * ones, 4000 * ones)
    p = BeamParams(k=4.0, c=0.0, m=0.1, l=0.4, a=50.0, b=2.0)
    task = TaskDefinition.from_goal_joints(ch, [0.0], [0.5], n_ctrl=48,
                                           n_pred=120, dt=0.01)
    plan = solve_ptp_ocp(ch, task, p)
    assert plan.solution.converged
    xs, _ = fast_rollout(ch, plan.states[0], plan.u.data, p, None, 0.01)
    energy = 0.5 * p.m * p.l**2 * xs[:, 3] ** 2 + 0.5 * p.k * xs[:, 1] ** 2
    peak = np.max(energy)
    residual = np.max(energy[task.n_ctrl:])
    assert residual / peak < 1e-6


def test_gamma_accelerates_settling(chain3, nominal_params):
    task = TaskDefinition.from_goal_joints(chain3, Q0, Q_GOAL,
                                           n_ctrl=48, n_pred=144, dt=0.01)
    thr = 1e-4

    def settle_index(gamma):
        w = OcpWeights(gamma=gamma)
        plan = solve_ptp_ocp(chain3, task, nominal_params, weights=w)
        dev = np.abs(plan.tau[task.n_ctrl:] - plan.tau_goal)
        below = np.flatnonzero(dev < thr)
        return below[0] if below.size else len(dev)

    assert settle_index(1.2) <= settle_index(1.02)


def test_prediction_cost_off_gives_plain_ptp(chain3, nominal_params):
    task = TaskDefinition.from_goal_joints(chain3, Q0, Q_GOAL,
                                           n_ctrl=40, n_pred=60, dt=0.01)
    w = OcpWeights(rho1=0.0, rho2=0.0, rho3=0.0)
    plan = solve_ptp_ocp(chain3, task, nominal_params, weights=w)
    assert plan.solution.converged
    q_end = plan.states[task.n_ctrl, :3]
    pose = forward_kinematics(chain3, q_end)
    assert np.linalg.norm(pose.position - task.goal_position) < 1e-6


def test_infeasible_task_falls_back(chain3, nominal_params):
    # displacement beyond the velocity limits within the horizon
    task = TaskDefinition.from_goal_joints(chain3, Q0, Q0 + np.array([0.9, -0.4, -0.3]),
                                           n_ctrl=48, n_pred=100, dt=0.01)
    u_prev = np.zeros((100, 3))
    plan = solve_ptp_ocp(chain3, task, nominal_params, u_prev=u_prev,
                         opts={"max_iter": 25})
    assert plan.fell_back
    np.testing.assert_array_equal(plan.u.data, np.zeros((100, 3)))


def test_cold_infeasible_task_falls_back_to_rest(chain3, nominal_params):
    # a cold plan that fails executes the zero input, not its initial guess
    task = TaskDefinition.from_goal_joints(chain3, Q0, Q0 + np.array([0.9, -0.4, -0.3]),
                                           n_ctrl=48, n_pred=100, dt=0.01)
    plan = solve_ptp_ocp(chain3, task, nominal_params, opts={"max_iter": 25})
    assert plan.fell_back
    np.testing.assert_array_equal(plan.u.data, np.zeros((100, 3)))
    np.testing.assert_array_equal(plan.states[:, :3], np.tile(Q0, (101, 1)))


@pytest.mark.parametrize("dt, n, match", [(0.006, 100, "OCP grid"), (0.01, 99, "shorter"),
                                          (0.01, (100, 2), "2 columns")])
def test_disturbance_off_the_ocp_grid_rejected(chain3, nominal_params, dt, n, match):
    # n is the sample count of a one-column record, or the shape of a wider one
    task = TaskDefinition.from_goal_joints(chain3, Q0, Q_GOAL, n_ctrl=40, n_pred=100, dt=0.01)
    data = np.zeros(n if isinstance(n, tuple) else (n, 1))
    d = Trajectory(dt, data, tuple(f"d{i}" for i in range(data.shape[1])))
    with pytest.raises(ValueError, match=match):
        solve_ptp_ocp(chain3, task, nominal_params, d)


def test_plan_starts_from_the_models_rest_state(chain3, nominal_params):
    # the plan's predicted output is the model's own under the planned input,
    # from rest with the filter settled on the disturbed and biased torque
    params = dataclasses.replace(nominal_params, tau_e0=0.05)
    task = TaskDefinition.from_goal_joints(chain3, Q0, Q_GOAL, n_ctrl=48, n_pred=144, dt=0.01)
    d = Trajectory(0.01, np.full((144, 1), 0.02), ("d",))
    plan = solve_ptp_ocp(chain3, task, params, d)
    assert plan.solution.converged
    th = equilibrium_for_rotation(forward_kinematics(chain3, Q0).rotation, params)
    x0 = np.concatenate([Q0, [th], np.zeros(4), [-params.k * th + 0.02 + 0.05, 0.05]])
    _, ys = fast_rollout(chain3, x0, plan.u.data, params, d.data[:, 0], task.dt)
    np.testing.assert_allclose(plan.tau_hat, ys, rtol=0, atol=1e-6)


def _vertical_plane_task():
    """A task on the one-joint vertical-plane arm: its goal frame's in-plane
    gravity is about (8.6, 0) m/s^2, where planar3's, in the horizontal
    plane, is zero."""
    chain = vertical_plane_chain()
    task = TaskDefinition.from_goal_joints(chain, [0.2], [0.5], n_ctrl=48, n_pred=144, dt=0.01)
    assert np.linalg.norm((task.goal_rotation.T @ GRAVITY)[:2]) > 8.0
    return chain, task


def test_tail_transcription_is_exact(chain3, nominal_params, monkeypatch):
    # the tail carries only the substate, yet the plan's full-state trace is
    # what the model does under the planned input; each plan is solved to
    # gaps below the bound checked here
    planar = chain3, TaskDefinition.from_goal_joints(chain3, Q0, Q_GOAL, n_ctrl=48, n_pred=144,
                                                     dt=0.01)
    for chain, task in (planar, _vertical_plane_task()):
        n = chain.n_joints
        plan = solve_ptp_ocp(chain, task, nominal_params, opts={"tol_feas": 1e-12})
        xs, ys = fast_rollout(chain, plan.states[0], plan.u.data, nominal_params, None, task.dt)
        assert plan.states.shape == (task.n_pred + 1, state_dim(n))
        np.testing.assert_allclose(plan.states, xs, rtol=0, atol=1e-9)
        np.testing.assert_allclose(plan.tau_hat, ys, rtol=0, atol=1e-9)

        # no q or dq entries past node n_ctrl: four tail entries a node
        problem = _ocp_problem(chain, task, nominal_params, monkeypatch)
        n_c, n_p = task.n_ctrl, task.n_pred
        assert {b.name: b.dim for b in problem.blocks} == {
            "x": (n_c + 1) * state_dim(n), "u": (n_c - 1) * n, "y": (n_p - n_c + 1) * 4}


def test_tail_transcription_holds_on_the_rollout(chain3, nominal_params, plan3, monkeypatch):
    # wherever the SQP stopped, the rollout of the plan's own input is a
    # point at which the transcription's gaps and junction vanish exactly
    vertical, task_v = _vertical_plane_task()
    cases = [(chain3, *plan3), (vertical, task_v, solve_ptp_ocp(vertical, task_v, nominal_params))]
    for chain, task, plan in cases:
        n, n_c = chain.n_joints, task.n_ctrl
        xs, _ = fast_rollout(chain, plan.states[0], plan.u.data, nominal_params, None, task.dt)
        sub = np.array([n, 2 * n + 1, 2 * n + 2, 2 * n + 3])
        problem = _ocp_problem(chain, task, nominal_params, monkeypatch)
        z = np.concatenate([xs[:n_c + 1].ravel(), plan.u.data[:n_c - 1].ravel(),
                            xs[n_c:, sub].ravel()])
        assert z.size == problem.n
        # the two gap groups and the junction (order as in test_ocp_layout)
        gaps = np.concatenate([group.eval(z) for group in problem.eq_groups[:3]])
        assert gaps.size == n_c * state_dim(n) + (task.n_pred - n_c) * 4 + 4
        assert np.max(np.abs(gaps)) <= 1e-14


def test_ocp_layout(chain3, nominal_params, monkeypatch):
    # the fixed variables are node 0's state, at the start, and node 0's
    # input, at zero; the equality groups are the control-horizon gaps, the
    # tail gaps, the junction, the terminal pose and the terminal rest
    task = TaskDefinition.from_goal_joints(chain3, Q0, Q_GOAL, n_ctrl=20, n_pred=50, dt=0.01)
    problem = _ocp_problem(chain3, task, nominal_params, monkeypatch)
    n, n_x = 3, state_dim(3)
    assert [b.name for b in problem.blocks] == ["x", "u", "y"]
    lb, ub = problem.bounds()
    x_off, u_off = problem.block("x").offset, problem.block("u").offset
    np.testing.assert_array_equal(np.flatnonzero(lb == ub),
                                  np.r_[x_off + np.arange(n_x), u_off + np.arange(n)])
    theta_0 = equilibrium_for_rotation(forward_kinematics(chain3, Q0).rotation, nominal_params)
    x0 = np.r_[Q0, theta_0, np.zeros(n + 1), -nominal_params.k * theta_0, 0.0]
    np.testing.assert_array_equal(lb[x_off:x_off + n_x], x0)
    np.testing.assert_array_equal(problem.initial_guess()[x_off:x_off + n_x], x0)
    np.testing.assert_array_equal(lb[u_off:u_off + n], 0.0)
    assert not np.any(np.signbit(np.r_[lb[u_off:u_off + n], ub[u_off:u_off + n]]))
    assert [type(g) for g in problem.eq_groups] == [
        nlp.ShootingGapGroup, nlp.ShootingGapGroup, nlp.LinearGroup, nlp.CallableGroup,
        nlp.LinearGroup]
    assert [g.dim for g in problem.eq_groups] == [20 * n_x, 30 * 4, 4, 6, n]


@pytest.mark.parametrize("arm", ["planar3", "seven_dof"])
def test_cold_guess_rests_at_the_goal(arm, chain3, chain7, nominal_params, monkeypatch):
    # a cold start's guess reaches the goal pose at rest at node n_ctrl,
    # inside the joint box and the input box
    if arm == "planar3":
        chain = chain3
        task = TaskDefinition.from_goal_joints(chain, Q0, Q_GOAL, n_ctrl=48, n_pred=144, dt=0.01)
    else:
        chain = chain7
        task = TaskDefinition.from_displacement(chain, REFERENCE_Q0_7DOF, [0.20, 0.0, -0.20],
                                                n_ctrl=48, n_pred=144, dt=0.01)
    problem = _ocp_problem(chain, task, nominal_params, monkeypatch)
    n = chain.n_joints
    guess = problem.unpack(problem.initial_guess())
    x_end = guess["x"].reshape(-1, state_dim(n))[task.n_ctrl]
    pose = forward_kinematics(chain, x_end[:n])
    assert np.max(np.abs(pose.position - task.goal_position)) < 1e-10
    assert np.max(np.abs(orientation_error(pose.rotation, task.goal_rotation))) < 1e-10
    assert np.all(chain.q_min <= x_end[:n]) and np.all(x_end[:n] <= chain.q_max)
    assert np.max(np.abs(x_end[n + 1:2 * n + 1])) < 1e-12
    assert np.all(np.abs(guess["u"].reshape(-1, n)) < chain.ddq_max)


@pytest.mark.parametrize("arm", ["planar3", "seven_dof"])
def test_junction_and_tail_jacobians(arm, chain3, chain7, nominal_params, monkeypatch):
    # away from rest: dq(n_ctrl) != 0 and q(n_ctrl) off the goal
    if arm == "planar3":
        chain = chain3
        task = TaskDefinition.from_goal_joints(chain, Q0, Q_GOAL, n_ctrl=48, n_pred=144, dt=0.01)
    else:
        chain = chain7
        task = TaskDefinition.from_displacement(chain, REFERENCE_Q0_7DOF, [0.20, 0.0, -0.20],
                                                n_ctrl=48, n_pred=144, dt=0.01)
    problem = _ocp_problem(chain, task, nominal_params, monkeypatch)
    n, n_x, n_c = chain.n_joints, state_dim(chain.n_joints), task.n_ctrl
    rng = np.random.default_rng(5)
    z0 = problem.initial_guess() + 0.05 * rng.standard_normal(problem.n)
    x_node = problem.block("x").offset + n_c * n_x
    y_off = problem.block("y").offset
    cols = np.concatenate([x_node + np.arange(n_x),            # q, theta, dq, ... at n_ctrl
                           y_off + np.arange(12),              # tail nodes 0..2
                           y_off + problem.block("y").dim - 4 + np.arange(4)])  # last node
    assert np.max(np.abs(z0[x_node + n + 1:x_node + 2 * n + 1])) > 1e-3

    def full(zs):
        z = z0.copy()
        z[cols] = zs
        return z

    def fn(zs):
        return np.concatenate([g.eval(full(zs)) for g in problem.eq_groups])

    def jac(zs):
        return sp.vstack([g.eval_with_jac(full(zs))[1] for g in problem.eq_groups]).tocsc()[:, cols]

    report = check_derivatives(fn, jac, z0[cols])
    assert report.ok(1e-6), report


def test_control_gap_jacobian_seven_dof(chain7, nominal_params, monkeypatch):
    # the control horizon's gaps away from rest, over the q, dq, u and
    # substate columns of a few nodes: the derivatives the optimizer uses
    task = TaskDefinition.from_displacement(chain7, REFERENCE_Q0_7DOF, [0.20, 0.0, -0.20],
                                            n_ctrl=48, n_pred=144, dt=0.01)
    problem = _ocp_problem(chain7, task, nominal_params, monkeypatch)
    gaps = problem.eq_groups[0]
    n, n_x = 7, state_dim(7)
    x_off = problem.block("x").offset
    rng = np.random.default_rng(6)
    z0 = problem.initial_guess() + 0.05 * rng.standard_normal(problem.n)
    # node 46 is the last with an input variable; node 47's input is pinned
    # to zero, so it has x columns only
    nodes = np.array([1, 20, 40, 46])
    cols = np.concatenate([x_off + k * n_x + np.arange(n_x) for k in (*nodes, 47)]
                          + [problem.block("u").offset + k * n + np.arange(n) for k in nodes])
    assert problem.block("u").dim == 47 * n
    assert np.min(np.abs(z0[x_off + 20 * n_x + n + 1:x_off + 20 * n_x + 2 * n + 1])) > 0

    def full(zs):
        z = z0.copy()
        z[cols] = zs
        return z

    report = check_derivatives(lambda zs: gaps.eval(full(zs)),
                               lambda zs: gaps.eval_with_jac(full(zs))[1].tocsc()[:, cols],
                               z0[cols])
    assert report.ok(1e-6), report


def test_equality_jacobian_pattern_is_fixed(chain7, nominal_params, monkeypatch):
    # the 7-DOF plan's equality Jacobian stores the same entries, explicit
    # zeros included, wherever it is evaluated: its pattern, and with it the
    # KKT's, comes from index maps made once
    task = TaskDefinition.from_displacement(chain7, REFERENCE_Q0_7DOF, [0.20, 0.0, -0.20],
                                            n_ctrl=48, n_pred=144, dt=0.01)
    problem = _ocp_problem(chain7, task, nominal_params, monkeypatch)
    z0 = problem.initial_guess()
    z1 = z0 + 0.05 * np.random.default_rng(7).standard_normal(problem.n)
    j0, j1 = (sp.vstack([g.eval_with_jac(z)[1] for g in problem.eq_groups], format="csr")
              for z in (z0, z1))
    assert j0.nnz == j1.nnz == 24315
    np.testing.assert_array_equal(j0.indptr, j1.indptr)
    np.testing.assert_array_equal(j0.indices, j1.indices)


@pytest.mark.parametrize("seed", range(12))
def test_seeded_cold_starts_seven_dof(seed, chain7, nominal_params):
    # the criterion-3 task from a start offset by up to 0.05 rad per joint:
    # from the rest-to-rest guess every QP's linearization is consistent,
    # and the solve converges in a few SQP iterations
    q0 = REFERENCE_Q0_7DOF + np.random.default_rng(seed).uniform(-0.05, 0.05, 7)
    task = TaskDefinition.from_displacement(chain7, q0, [0.20, 0.0, -0.20],
                                            n_ctrl=48, n_pred=144, dt=0.01)
    plan = solve_ptp_ocp(chain7, task, nominal_params)
    assert plan.solution.converged
    assert not plan.fell_back
    assert plan.solution.qp_effort["qp_elastic_calls"] == 0
    assert plan.solution.iterations <= 8
    pose = forward_kinematics(chain7, plan.states[task.n_ctrl, :7])
    assert np.linalg.norm(pose.position - task.goal_position) < 1e-6
    assert np.linalg.norm(orientation_error(pose.rotation, task.goal_rotation)) < 1e-6
    assert np.max(np.abs(plan.states[task.n_ctrl, 8:15])) < 1e-8
    assert max(plan.limit_violations(chain7, task).values()) <= 1e-9


def test_interior_point_kkt_refill_matches_assembly(chain7, nominal_params, monkeypatch):
    # the interior point's reduced KKT of a 7-DOF QP, refilled through its
    # index map, stores the entries a block assembly stores, explicit zeros
    # included, with the same values; stored in SuperLU's column order after
    # the first factorization, it keeps those entries, and its refined
    # solve solves the unregularized system
    task = TaskDefinition.from_displacement(chain7, REFERENCE_Q0_7DOF, [0.20, 0.0, -0.20],
                                            n_ctrl=48, n_pred=144, dt=0.01)
    problem = _ocp_problem(chain7, task, nominal_params, monkeypatch)

    def capture(*args, **kwargs):
        raise _Captured(args)

    # the plan has l1 terms, so its first QP goes to the interior point
    monkeypatch.setattr(nlp, "solve_qp_ipm", capture)
    with pytest.raises(_Captured) as exc:
        nlp.solve(problem)
    _, p_mat, _, a_eq, _, g_ineq, _ = qp._scaled(*exc.value.args[0])
    n, me = p_mat.shape[0], a_eq.shape[0]
    rng = np.random.default_rng(3)
    kkt = qp._Kkt(p_mat, a_eq, g_ineq)
    for it in range(2):
        w = np.exp(rng.uniform(-5, 5, g_ineq.shape[0]))
        p_aug = p_mat + g_ineq.T @ g_ineq.multiply(w[:, None])
        ref = sp.bmat([[p_aug, a_eq.T], [a_eq, -qp.REG * sp.identity(me)]], format="csc")
        kkt.factor(w)
        if it:
            # the second factorization works on the reordered pattern
            ref = ref[:, np.argsort(kkt.perm)]
        assert ref.nnz == kkt.mat.nnz == 54997
        np.testing.assert_array_equal(kkt.mat.indptr, ref.indptr)
        np.testing.assert_array_equal(kkt.mat.indices, ref.indices)
        np.testing.assert_allclose(kkt.mat.data, ref.data, rtol=1e-15, atol=0)
        unreg = sp.bmat([[p_aug, a_eq.T], [a_eq, None]], format="csr")
        rhs = unreg @ rng.standard_normal(n + me)
        assert np.max(np.abs(unreg @ kkt.solve(rhs) - rhs)) < 1e-14 * np.max(np.abs(rhs))
    assert kkt.perm is not None


def test_interior_point_kkt_kept_across_one_solves_calls(chain3, nominal_params, monkeypatch):
    # the QPs of one SQP solve share one reduced KKT: its index map and the
    # column order of its first factorization carry over to the next call,
    # whose refill stores, bit for bit, what a fresh assembly of that QP
    # stores in that order
    task = TaskDefinition.from_goal_joints(chain3, Q0, Q_GOAL, n_ctrl=48, n_pred=144, dt=0.01)
    calls = []
    solve_qp_ipm = nlp.solve_qp_ipm

    def recording(*args, workspace):
        calls.append((args, workspace.reduced))
        return solve_qp_ipm(*args, workspace=workspace)

    monkeypatch.setattr(nlp, "solve_qp_ipm", recording)
    plan = solve_ptp_ocp(chain3, task, nominal_params)
    assert plan.solution.converged and len(calls) >= 3
    kept = calls[1][1]
    assert kept is not None and kept.perm is not None
    assert all(held is kept for _, held in calls[2:])
    _, p_mat, _, a_eq, _, g_ineq, _ = qp._scaled(*calls[1][0])
    fresh = qp._Kkt(p_mat, a_eq, g_ineq)
    kept.refill(p_mat, a_eq, g_ineq)
    w = np.exp(np.random.default_rng(5).uniform(-5, 5, g_ineq.shape[0]))
    kept.factor(w)
    fresh.factor(w)
    ref = fresh.mat[:, np.argsort(kept.perm)]
    np.testing.assert_array_equal(kept.mat.indptr, ref.indptr)
    np.testing.assert_array_equal(kept.mat.indices, ref.indices)
    np.testing.assert_array_equal(kept.mat.data.view(np.int64), ref.data.view(np.int64))


def test_warm_start_converges_fast(chain3, nominal_params, plan3):
    task, plan = plan3
    warm = solve_ptp_ocp(chain3, task, nominal_params, u_prev=plan.u.data)
    assert warm.solution.converged
    assert warm.solution.iterations <= 3


def test_qp_budget_keeps_the_answer(chain3, nominal_params, monkeypatch):
    # a plan without l1 terms from the zero input, so the active set runs
    # first: its first QP, whose linearization is inconsistent, does not
    # settle at the budget or at 60 iterations, and the interior point takes
    # that QP, its elastic re-solve and every later one
    task = TaskDefinition.from_goal_joints(chain3, Q0, [0.5, -0.4, 1.1],
                                           n_ctrl=48, n_pred=60, dt=0.01)
    no_l1 = OcpWeights(rho1=0.0, rho2=0.0, rho3=0.0)
    u_zero = np.zeros((60, 3))
    calls = []
    solve_qp = nlp.solve_qp

    def recording_solve_qp(*args, **kwargs):
        sol = solve_qp(*args, **kwargs)
        calls.append((sol.status, sol.iterations))
        return sol

    with monkeypatch.context() as m:
        m.setattr(nlp, "solve_qp", recording_solve_qp)
        plan = solve_ptp_ocp(chain3, task, nominal_params, u_prev=u_zero, weights=no_l1)
    budget = nlp.QP_MAX_ITER
    assert plan.solution.converged
    assert all(it <= budget for status, it in calls if status == "converged")
    assert calls[-1] == ("max-iter", budget)
    assert sum(status == "max-iter" for status, _ in calls) == 1
    effort = plan.solution.qp_effort
    assert effort["qp_as_at_budget"] == 1
    assert effort["qp_ipm_calls"] >= 1
    assert effort["qp_calls"] == len(calls) + effort["qp_ipm_calls"]

    with monkeypatch.context() as m:
        m.setattr(nlp, "QP_MAX_ITER", 60)
        ref = solve_ptp_ocp(chain3, task, nominal_params, u_prev=u_zero, weights=no_l1)
    assert ref.solution.iterations == plan.solution.iterations
    for name, value in ref.solution.variables.items():
        np.testing.assert_array_equal(plan.solution.variables[name], value)


# ---------------------------------------------------------------------------
# weight validation


def test_weights_validation():
    with pytest.raises(ValueError):
        OcpWeights(gamma=1.0)
    with pytest.raises(ValueError):
        OcpWeights(rho1=-1.0)


def test_task_validation(chain3):
    with pytest.raises(ValueError):
        TaskDefinition(Q0, np.zeros(3), np.eye(3), n_ctrl=50, n_pred=50)
    with pytest.raises(ValueError):
        TaskDefinition(Q0, np.zeros(3), np.eye(3), dt=-0.01)
    # the first control node is pinned to zero and node n_ctrl-1 has none
    for n_ctrl in (0, 1):
        with pytest.raises(ValueError):
            TaskDefinition(Q0, np.zeros(3), np.eye(3), n_ctrl=n_ctrl, n_pred=50)
    # the horizons are node counts: ints, not floats or bools
    for bad in ({"n_ctrl": 48.5}, {"n_pred": 144.5}, {"n_ctrl": True}):
        with pytest.raises(ValueError):
            TaskDefinition(Q0, np.zeros(3), np.eye(3), **bad)
    # the goal is a position in space and a rotation
    with pytest.raises(ValueError, match="goal_position"):
        TaskDefinition(Q0, np.zeros(2), np.eye(3))
    with pytest.raises(ValueError, match="goal_rotation"):
        TaskDefinition(Q0, np.zeros(3), 2.0 * np.eye(3))


# ---------------------------------------------------------------------------
# disturbance resampling


def test_resample_constant():
    d = Trajectory(0.006, np.full((240, 1), 0.37), ("d",))
    out = resample_disturbance(d, 0.01, 144)
    np.testing.assert_allclose(out.data, 0.37, atol=1e-14)


def test_resample_sinusoid_accuracy():
    t = np.arange(334) * 0.006  # two seconds of a 1 Hz sinusoid
    d = Trajectory(0.006, np.sin(2 * np.pi * t)[:, None], ("d",))
    out = resample_disturbance(d, 0.01, 195)
    t_new = np.arange(195) * 0.01
    ref = np.sin(2 * np.pi * t_new)
    assert np.max(np.abs(out.data[:, 0] - ref)) < 0.002


def test_resample_reference_grids_no_extrapolation():
    # 240 samples at 6 ms span 1.434 s; 144 nodes at 10 ms end at 1.43 s
    d = Trajectory(0.006, np.linspace(0, 1, 240)[:, None], ("d",))
    out = resample_disturbance(d, 0.01, 144)
    assert len(out) == 144
    assert (144 - 1) * 0.01 <= (240 - 1) * 0.006
    ref = np.interp(np.arange(144) * 0.01, d.times, d.data[:, 0])
    np.testing.assert_allclose(out.data[:, 0], ref, atol=1e-14)


def test_resample_tail_hold():
    d = Trajectory(0.01, np.linspace(0.0, 1.0, 50)[:, None], ("d",))
    out = resample_disturbance(d, 0.01, 80)
    tail_mean = float(np.mean(d.data[-5:, 0]))
    np.testing.assert_allclose(out.data[55:, 0], tail_mean, atol=1e-12)


def test_resample_empty_rejected():
    with pytest.raises(ValueError):
        resample_disturbance(np.zeros(5), 0.01, 10)


def test_equilibrium_torque_consistency(chain3, nominal_params):
    # the planner's terminal torque target equals the reaction torque at the
    # goal equilibrium with the mean disturbance over the prediction window
    from beamilc.dynamics import reaction_torque

    task = TaskDefinition.from_goal_joints(chain3, Q0, Q_GOAL,
                                           n_ctrl=30, n_pred=80, dt=0.01)
    rng = np.random.default_rng(13)
    d = Trajectory(0.006, (0.02 * rng.standard_normal(140)).reshape(-1, 1), ("d",))
    d_ocp = resample_disturbance(d, 0.01, 80)
    plan = solve_ptp_ocp(chain3, task, nominal_params, d_ocp,
                         opts={"max_iter": 1})
    d_mean = float(np.mean(d_ocp.data[30:, 0]))
    ref = reaction_torque(plan.theta_goal, 0.0, nominal_params, d_mean)
    assert plan.tau_goal == pytest.approx(ref, abs=1e-12)
