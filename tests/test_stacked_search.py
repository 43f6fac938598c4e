"""Stacked group evaluation and the line search that evaluates its trials in chunks.

A group's ``eval`` takes one point (n,) or a stack of points (K, n), and
each row of a stack's values must be its point's single evaluation, bit for
bit: the line search evaluates a chunk of trial steps as one stack, and its
iterates must be those of a search that evaluates one trial at a time.
"""
import numpy as np
import pytest

from conftest import REFERENCE_Q0_7DOF, assert_same_bits

from beamilc import nlp
from beamilc.config import RunConfig
from beamilc.estimation import Record, estimate_disturbance, estimate_parameters
from beamilc.ocp import TaskDefinition, solve_ptp_ocp
from beamilc.plant import run_experiment
from beamilc.trajectory import Trajectory


class _Captured(Exception):
    pass


def captured_problem(build, monkeypatch):
    """The NLP that ``build()`` hands to the solver, captured unsolved."""
    def capture(problem, opts=None):
        raise _Captured(problem)

    with monkeypatch.context() as m, pytest.raises(_Captured) as exc:
        m.setattr(nlp, "solve", capture)
        build()
    return exc.value.args[0]


@pytest.fixture(scope="module")
def pass1():
    """The default loop's first record, prior and estimation config, as ``run_ilc`` makes them."""
    cfg = RunConfig.default()
    chain = cfg.chain()
    task, prior = cfg.task(chain), cfg.prior_params()
    est = cfg.estimation_config(prior)
    plan = solve_ptp_ocp(chain, task, prior, None, None, cfg.ocp_weights())
    plant = cfg.plant_config()
    exp = run_experiment(plant, chain, task.q0, plan.u, cfg.ilc_config().n_meas, est.dt, prior,
                         seed=plant.seed + 7919)
    n = est.horizon
    u = Trajectory(est.dt, plan.u.sample_hold(np.arange(n) * est.dt), plan.u.labels)
    y = Trajectory(est.dt, exp.y.data[:n], exp.y.labels)
    return Record.from_experiment(chain, y, u, task.q0, est), prior, est


def criterion3_task(chain7):
    return TaskDefinition.from_displacement(chain7, REFERENCE_Q0_7DOF, [0.20, 0.0, -0.20],
                                            n_ctrl=48, n_pred=144, dt=0.01)


def single_point_merit(problem, z, mu_merit):
    """The l1 merit at one point, reduced as a search of one trial per call reduces it."""
    r, c, g = (np.concatenate([np.zeros(0)] + [group.eval(z) for group in groups])
               for groups in (problem.residual_groups, problem.eq_groups, problem.ineq_groups))
    f = 0.5 * float(r @ r) + sum(term.value(z) for term in problem.l1_terms)
    return f + mu_merit * (float(np.sum(np.abs(c))) + float(np.sum(np.maximum(g, 0.0))))


def assert_rows_are_single_evaluations(problem, points):
    """Every group's, l1 term's and merit's stacked values against the points' single ones."""
    groups = problem.residual_groups + problem.eq_groups + problem.ineq_groups
    assert groups
    for group in groups:
        stacked = group.eval(points)
        assert stacked.shape == (len(points), group.dim)
        for row, z in zip(stacked, points):
            assert_same_bits(row, group.eval(z))
    for term in problem.l1_terms:
        assert_same_bits(term.value(points), [term.value(z) for z in points])
    assert_same_bits(nlp._merit(problem, points, 3.0),
                     [single_point_merit(problem, z, 3.0) for z in points])


def perturbed(problem, scale, seed):
    """Five points around the problem's initial guess, inside its bounds."""
    rng = np.random.default_rng(seed)
    lb, ub = problem.bounds()
    z0 = problem.initial_guess()
    return np.clip(z0 + scale * rng.standard_normal((5, z0.size)) * (1.0 + np.abs(z0)), lb, ub)


def test_fit_groups_evaluate_stacks_row_by_row(pass1, monkeypatch):
    # the parameter fit's gaps, tau_e tie and equilibrium row, its three
    # residual groups, and the disturbance fit's groups
    rec, prior, est = pass1
    fit = captured_problem(lambda: estimate_parameters(rec, prior, est), monkeypatch)
    assert [type(g) for g in fit.eq_groups] == [nlp.ShootingGapGroup, nlp.LinearGroup,
                                                nlp.CallableGroup]
    assert len(fit.residual_groups) == 3
    assert_rows_are_single_evaluations(fit, perturbed(fit, 1e-2, 1))
    dist = captured_problem(
        lambda: estimate_disturbance(rec, prior, np.zeros(est.horizon), None, est), monkeypatch)
    assert len(dist.residual_groups) == 4
    assert_rows_are_single_evaluations(dist, perturbed(dist, 1e-2, 2))


@pytest.mark.parametrize("arm", ["planar3", "seven_dof"])
def test_ocp_groups_evaluate_stacks_row_by_row(arm, chain7, nominal_params, monkeypatch):
    # the arm gaps, tail gaps, junction, terminal pose and joint velocities,
    # the residual and jerk groups and the l1 terms
    cfg = RunConfig.default()
    if arm == "planar3":
        chain = cfg.chain()
        task = cfg.task(chain)
    else:
        chain, task = chain7, criterion3_task(chain7)
    problem = captured_problem(lambda: solve_ptp_ocp(chain, task, nominal_params), monkeypatch)
    assert [type(g) for g in problem.eq_groups] == [
        nlp.ShootingGapGroup, nlp.ShootingGapGroup, nlp.LinearGroup, nlp.CallableGroup,
        nlp.LinearGroup]
    assert problem.residual_groups and problem.ineq_groups and problem.l1_terms
    assert_rows_are_single_evaluations(problem, perturbed(problem, 1e-2, 3))


def test_trial_chunks_double_from_the_last_search():
    chunks = list(nlp._trial_chunks(3, 27))
    assert [(c.start, c.stop) for c in chunks] == [(0, 3), (3, 9), (9, 21), (21, 45)]
    assert [(c.start, c.stop) for c in nlp._trial_chunks(1, 4)] == [(0, 1), (1, 3), (3, 7)]


def traced(solve_fn, monkeypatch, one_trial_per_call):
    """``solve_fn()``, the points its gap groups were linearized at, and its gap evaluations.

    With ``one_trial_per_call`` every chunk of the line search holds one
    trial: the search that evaluates one step length at a time.
    """
    iterates, evals = [], [0]
    at_point, linearized = nlp.ShootingGapGroup.eval, nlp.ShootingGapGroup.eval_with_jac

    def counting(self, z):
        evals[0] += 1
        return at_point(self, z)

    def recording(self, z):
        iterates.append(z.copy())
        return linearized(self, z)

    with monkeypatch.context() as m:
        m.setattr(nlp.ShootingGapGroup, "eval", counting)
        m.setattr(nlp.ShootingGapGroup, "eval_with_jac", recording)
        if one_trial_per_call:
            m.setattr(nlp, "_trial_chunks", lambda first, n: (slice(i, i + 1) for i in range(n)))
        result = solve_fn()
    return result, iterates, evals[0]


def assert_same_solve(got, ref):
    sol, iterates, _ = got
    ref_sol, ref_iterates, _ = ref
    assert (sol.status, sol.iterations, sol.diagnostics) == (
        ref_sol.status, ref_sol.iterations, ref_sol.diagnostics)
    assert_same_bits(sol.merit_history, ref_sol.merit_history)
    assert len(iterates) == len(ref_iterates)
    for z, z_ref in zip(iterates, ref_iterates):
        assert_same_bits(z, z_ref)
    for name, v in sol.variables.items():
        assert_same_bits(v, ref_sol.variables[name])
    assert_same_bits([sol.objective, sol.stationarity, sol.constraint_violation],
                     [ref_sol.objective, ref_sol.stationarity, ref_sol.constraint_violation])


def test_pass1_fit_matches_one_trial_per_call(pass1, monkeypatch):
    # the loop's pass-1 parameter fit backtracks 7 or 8 steps in most of its
    # iterations: chunks make its iterates in far fewer gap evaluations
    rec, prior, est = pass1
    runs = [traced(lambda: estimate_parameters(rec, prior, est), monkeypatch, one)
            for one in (False, True)]
    (got, ref) = [(r.solution, iterates, evals) for r, iterates, evals in runs]
    assert_same_solve(got, ref)
    assert_same_bits(runs[0][0].params.as_array(), runs[1][0].params.as_array())
    assert got[2] < ref[2] / 4


def test_seven_dof_plan_matches_one_trial_per_call(chain7, nominal_params, monkeypatch):
    task = criterion3_task(chain7)
    runs = [traced(lambda: solve_ptp_ocp(chain7, task, nominal_params), monkeypatch, one)
            for one in (False, True)]
    (got, ref) = [(plan.solution, iterates, evals) for plan, iterates, evals in runs]
    assert got[0].converged
    assert_same_solve(got, ref)
    assert_same_bits(runs[0][0].u.data, runs[1][0].u.data)
    assert got[2] <= ref[2]
