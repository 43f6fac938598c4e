import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from beamilc import ad, qp
from beamilc.dynamics import pendulum_accel, setup_ode, state_dim
from beamilc.nlp import (L1Term, LinearGroup, NlpProblem, SolverOptions,
                         check_derivatives, solve, transcribe_shooting)
from beamilc.qp import solve_qp, solve_qp_ipm


# ---------------------------------------------------------------------------
# QP layer


def random_strictly_convex_qp(rng, n=12, me=3, mi=8):
    a = rng.standard_normal((n, n))
    p_mat = a.T @ a + 0.5 * np.eye(n)
    q = rng.standard_normal(n)
    a_eq = rng.standard_normal((me, n))
    x_feas = rng.standard_normal(n)
    b_eq = a_eq @ x_feas
    g = rng.standard_normal((mi, n))
    h = g @ x_feas + rng.uniform(0.1, 1.0, mi)
    return p_mat, q, a_eq, b_eq, g, h


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_qp_kkt_and_gap(seed):
    rng = np.random.default_rng(seed)
    p_mat, q, a_eq, b_eq, g, h = random_strictly_convex_qp(rng)
    sol = solve_qp(sp.csc_matrix(p_mat), q, sp.csr_matrix(a_eq), b_eq,
                   sp.csr_matrix(g), h)
    assert sol.status == "converged"
    assert sol.duality_gap < 1e-8
    assert sol.primal_infeasibility < 1e-8
    kkt = p_mat @ sol.x + q + a_eq.T @ sol.eq_duals + g.T @ sol.ineq_duals
    assert np.max(np.abs(kkt)) < 1e-7
    assert np.all(sol.ineq_duals >= -1e-10)


def test_qp_matches_ipm():
    rng = np.random.default_rng(7)
    p_mat, q, a_eq, b_eq, g, h = random_strictly_convex_qp(rng)
    s1 = solve_qp(sp.csc_matrix(p_mat), q, sp.csr_matrix(a_eq), b_eq,
                  sp.csr_matrix(g), h)
    s2 = solve_qp_ipm(sp.csc_matrix(p_mat), q, sp.csr_matrix(a_eq), b_eq,
                      sp.csr_matrix(g), h)
    assert s2.status == "converged"
    np.testing.assert_allclose(s1.x, s2.x, atol=1e-6)


def test_qp_warm_start_reuses_active_set():
    rng = np.random.default_rng(9)
    p_mat, q, a_eq, b_eq, g, h = random_strictly_convex_qp(rng)
    s1 = solve_qp(sp.csc_matrix(p_mat), q, sp.csr_matrix(a_eq), b_eq,
                  sp.csr_matrix(g), h)
    s2 = solve_qp(sp.csc_matrix(p_mat), q, sp.csr_matrix(a_eq), b_eq,
                  sp.csr_matrix(g), h, working_set=s1.working_set)
    assert s2.iterations <= 2
    np.testing.assert_allclose(s1.x, s2.x, atol=1e-10)


def test_qp_slack_pair_complementarity():
    # min |x - 3| encoded as x - t+ + t- = 3, t >= 0, cost t+ + t-
    p_mat = sp.diags([1e-10, 1e-10, 1e-10]).tocsc()
    q = np.array([0.0, 1.0, 1.0])
    a_eq = sp.csr_matrix(np.array([[1.0, -1.0, 1.0]]))
    b_eq = np.array([3.0])
    g = sp.csr_matrix(np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]))
    h = np.array([0.0, 0.0, 2.0])  # x <= 2
    sol = solve_qp(p_mat, q, a_eq, b_eq, g, h)
    assert sol.status == "converged"
    assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
    assert min(sol.x[1], sol.x[2]) <= 1e-8  # at most one slack of the pair nonzero


def estimation_shaped_qp(n_nodes=60, n_x=4, n_p=3, seed=0):
    """Gauss-Newton QP of a shooting fit: gap equalities, dense parameter columns."""
    rng = np.random.default_rng(seed)
    n_s = (n_nodes + 1) * n_x
    n = n_s + n_p
    a_dyn = np.eye(n_x) + 0.05 * rng.standard_normal((n_x, n_x))
    rows = []
    for k in range(n_nodes):
        blk = np.zeros((n_x, n))
        blk[:, k * n_x:(k + 1) * n_x] = a_dyn
        blk[:, (k + 1) * n_x:(k + 2) * n_x] = -np.eye(n_x)
        blk[:, n_s:] = rng.standard_normal((n_x, n_p))
        rows.append(blk)
    pin = np.zeros((n_x, n))
    pin[:, :n_x] = np.eye(n_x)
    a_eq = sp.csr_matrix(np.vstack(rows + [pin]))
    b_eq = rng.standard_normal(a_eq.shape[0]) * 1e-3
    # one observed state per node plus a weak prior on the parameters
    obs = sp.csr_matrix((np.ones(n_nodes + 1), (np.arange(n_nodes + 1),
                                                np.arange(n_nodes + 1) * n_x)), shape=(n_nodes + 1, n))
    prior = sp.csr_matrix((np.full(n_p, 1e-3), (np.arange(n_p), n_s + np.arange(n_p))),
                          shape=(n_p, n))
    jac = sp.vstack([obs, prior], format="csr")
    p_mat = (jac.T @ jac + 1e-6 * sp.identity(n)).tocsc()
    q = -(jac.T @ np.concatenate([rng.standard_normal(n_nodes + 1), np.zeros(n_p)]))
    return p_mat, q, a_eq, b_eq


@pytest.fixture
def lu_pivots(monkeypatch):
    """Records the diagonal pivot threshold of every factorization in solve_qp."""
    seen = []

    def recording_splu(a, **kwargs):
        seen.append(kwargs.get("diag_pivot_thresh"))
        return splu(a, **kwargs)

    monkeypatch.setattr(qp, "splu", recording_splu)
    return seen


def partial_pivoting_reference(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(qp, "_static_pivot_solve", lambda *a: None)
        return solve_qp(*args, **kwargs)


def test_qp_estimation_kkt_takes_diagonal_pivots(lu_pivots, monkeypatch):
    args = estimation_shaped_qp()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_qp(*args)
    assert sol.status == "converged"
    assert lu_pivots == [0.0]
    ref = partial_pivoting_reference(monkeypatch, *args)
    for got, want in ((sol.x, ref.x), (sol.eq_duals, ref.eq_duals)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("duplicate", [False, True])
def test_qp_diagonal_pivot_breakdown_falls_back(duplicate, lu_pivots, monkeypatch):
    # the tiny-Hessian slack pair of test_qp_slack_pair_complementarity,
    # optionally with its active bound x <= 2 stated twice
    g_rows = [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]
    h = [0.0, 0.0, 2.0]
    kwargs = {}
    if duplicate:
        g_rows.append(g_rows[-1])
        h.append(h[-1])
        kwargs["working_set"] = np.array([False, True, True, True])
    args = (sp.diags([1e-10, 1e-10, 1e-10]).tocsc(), np.array([0.0, 1.0, 1.0]),
            sp.csr_matrix(np.array([[1.0, -1.0, 1.0]])), np.array([3.0]),
            sp.csr_matrix(np.array(g_rows)), np.array(h))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = solve_qp(*args, **kwargs)
    # diagonal pivots until one is rejected, then partial pivoting for the call
    n_diag = lu_pivots.count(0.0)
    assert n_diag >= 1
    assert len(lu_pivots) > n_diag
    assert lu_pivots == [0.0] * n_diag + [None] * (len(lu_pivots) - n_diag)
    ref = partial_pivoting_reference(monkeypatch, *args, **kwargs)
    assert sol.status == ref.status == "converged"
    assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
    np.testing.assert_array_equal(sol.x, ref.x)
    np.testing.assert_array_equal(sol.eq_duals, ref.eq_duals)
    np.testing.assert_array_equal(sol.ineq_duals, ref.ineq_duals)


# ---------------------------------------------------------------------------
# SQP on small problems


def test_unconstrained_quadratic_one_iteration():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    prob = NlpProblem()
    prob.add_block("z", 4)
    prob.residual_groups.append(LinearGroup(a, b))
    sol = solve(prob, SolverOptions(max_iter=1))
    z_star = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.max(np.abs(sol.variables["z"] - z_star)) < 1e-5


def test_l1_with_active_bound():
    prob = NlpProblem()
    prob.add_block("v", 1, ub=2.0, x0=np.array([0.0]))
    prob.l1_terms.append(L1Term(sp.csr_matrix(np.array([[1.0]])),
                                np.array([3.0]), np.array([1.0])))
    sol = solve(prob)
    assert sol.converged
    assert sol.variables["v"][0] == pytest.approx(2.0, abs=1e-9)


class RosenbrockGroup:
    dim = 2

    def eval(self, z):
        return np.array([1.0 - z[0], 10.0 * (z[1] - z[0] ** 2)])

    def eval_with_jac(self, z):
        jac = sp.csr_matrix(np.array([[-1.0, 0.0], [-20.0 * z[0], 10.0]]))
        return self.eval(z), jac


def rosenbrock_grid_oracle():
    """Three-stage dense grid refinement on the box."""
    lo = np.array([-0.5, -0.5])
    hi = np.array([1.5, 1.5])
    best = None
    for _ in range(3):
        xs = np.linspace(lo[0], hi[0], 201)
        ys = np.linspace(lo[1], hi[1], 201)
        xx, yy = np.meshgrid(xs, ys)
        f = (1 - xx) ** 2 + 100 * (yy - xx**2) ** 2
        i, j = np.unravel_index(np.argmin(f), f.shape)
        best = np.array([xx[i, j], yy[i, j]])
        span = (hi - lo) / 50
        lo = np.maximum(best - span, [-0.5, -0.5])
        hi = np.minimum(best + span, [1.5, 1.5])
    return best


def test_rosenbrock_with_box():
    prob = NlpProblem()
    prob.add_block("z", 2, lb=-0.5, ub=1.5, x0=np.array([-0.3, 1.2]))
    prob.residual_groups.append(RosenbrockGroup())
    sol = solve(prob, SolverOptions(tol_opt=1e-9))
    ref = rosenbrock_grid_oracle()
    assert sol.converged
    assert np.max(np.abs(sol.variables["z"] - ref)) < 1e-6


def test_lqr_matches_riccati():
    a_c, b_c = 0.9, 0.2
    qw, rw, qf = 1.0, 0.1, 5.0
    n_steps = 20

    def dyn(x, u, p, d):
        return a_c * x + b_c * u

    prob = transcribe_shooting(dyn, 1, n_steps, n_u=1)
    prob.pin_state(0, [0], [1.5])
    rows = []
    for k in range(n_steps):
        r = np.zeros(prob.n)
        r[prob.x_index(k)] = np.sqrt(qw)
        rows.append(r)
    r = np.zeros(prob.n)
    r[prob.x_index(n_steps)] = np.sqrt(qf)
    rows.append(r)
    for k in range(n_steps):
        r = np.zeros(prob.n)
        r[prob.u_index(k)] = np.sqrt(rw)
        rows.append(r)
    prob.residual_groups.append(LinearGroup(np.array(rows), np.zeros(len(rows))))
    sol = solve(prob)
    assert sol.converged

    p_r = qf
    gains = []
    for _ in range(n_steps):
        gain = a_c * b_c * p_r / (rw + b_c**2 * p_r)
        p_r = qw + a_c**2 * p_r - a_c * b_c * p_r * gain
        gains.append(gain)
    gains = gains[::-1]
    x = 1.5
    us, xs = [], [x]
    for k in range(n_steps):
        u = -gains[k] * x
        us.append(u)
        x = a_c * x + b_c * u
        xs.append(x)
    np.testing.assert_allclose(sol.variables["u"], us, atol=1e-6)
    np.testing.assert_allclose(sol.variables["x"], xs, atol=1e-6)


# ---------------------------------------------------------------------------
# transcription structure


def double_integrator(dt=0.1):
    def dyn(x, u, p, d):
        pos = ad.comp(x, 0)
        vel = ad.comp(x, 1)
        uu = ad.comp(u, 0)
        return ad.stack_last([pos + dt * vel + 0.5 * dt * dt * uu, vel + dt * uu])
    return dyn


def test_transcription_structure_counts():
    prob = transcribe_shooting(double_integrator(), 2, 1, n_u=1)
    assert prob.n_state_nodes == 2
    assert prob.n_control_nodes == 1
    assert prob.gap_group.dim == 2
    assert len(prob.eq_groups) == 1


def test_transcription_feasible_rollout_zero_gap():
    dt = 0.1
    prob = transcribe_shooting(double_integrator(dt), 2, 5, n_u=1)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(5)
    xs = np.zeros((6, 2))
    xs[0] = [0.3, -0.2]
    for k in range(5):
        xs[k + 1, 0] = xs[k, 0] + dt * xs[k, 1] + 0.5 * dt * dt * u[k]
        xs[k + 1, 1] = xs[k, 1] + dt * u[k]
    prob.set_state_guess(xs)
    prob.set_initial_guess("u", u)
    gaps = prob.gap_group.eval(prob.initial_guess())
    np.testing.assert_allclose(gaps, 0.0, atol=1e-14)


def test_transcription_bounds_mapped():
    prob = transcribe_shooting(double_integrator(), 2, 3, n_u=1,
                               state_lb=[-1.0, -2.0], state_ub=[1.0, 2.0],
                               control_lb=-5.0, control_ub=5.0)
    lb, ub = prob.bounds()
    x_blk = prob.block("x")
    assert lb[x_blk.offset] == -1.0 and ub[x_blk.offset + 1] == 2.0
    u_blk = prob.block("u")
    assert lb[u_blk.offset] == -5.0 and ub[u_blk.offset] == 5.0


def test_initial_guess_clipped_to_bounds():
    prob = NlpProblem()
    prob.add_block("z", 2, lb=0.0, ub=1.0, x0=np.array([-5.0, 5.0]))
    np.testing.assert_allclose(prob.initial_guess(), [0.0, 1.0])


# ---------------------------------------------------------------------------
# derivative checking (optimizer derivatives vs finite differences)


def test_check_derivatives_linear_map():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 6))

    report = check_derivatives(lambda z: a @ z, lambda z: a,
                               rng.standard_normal(6), eps=1e-4)
    assert report.max_rel_error < 1e-10


def test_check_derivatives_setup_ode(chain3, free_params):
    rng = np.random.default_rng(6)
    n_x = state_dim(3)
    x = rng.standard_normal(n_x) * 0.5
    u = rng.standard_normal(3)

    def fn(z):
        return setup_ode(chain3, z[:n_x], z[n_x:], free_params, 0.0)

    def jac(z):
        m = n_x + 3
        xd = ad.seed(z[:n_x], m, 0)
        ud = ad.seed(z[n_x:], m, n_x)
        return setup_ode(chain3, xd, ud, free_params, 0.0).dot

    report = check_derivatives(fn, jac, np.concatenate([x, u]), eps=1e-6)
    assert report.max_rel_error < 1e-5


def test_check_derivatives_pendulum_wrt_params(chain3, free_params):
    rng = np.random.default_rng(7)
    q = rng.uniform(-1, 1, 3)
    dq = rng.uniform(-1, 1, 3)
    ddq = rng.uniform(-1, 1, 3)
    th, dth = 0.2, -0.3

    def fn(p_arr):
        return np.atleast_1d(pendulum_accel(chain3, q, dq, ddq, th, dth, p_arr))

    def jac(p_arr):
        pd = ad.seed(p_arr, 7, 0)
        return np.atleast_2d(pendulum_accel(chain3, q, dq, ddq, th, dth, pd).dot)

    report = check_derivatives(fn, jac, free_params.as_array(), eps=1e-6)
    assert report.max_rel_error < 1e-5


def test_gap_group_jacobian_matches_fd(chain2, free_params):
    from beamilc.dynamics import rk4_step

    n_x = state_dim(2)

    def dyn(x, u, p, d):
        return rk4_step(chain2, x, u, p, 0.0, 0.01, check=False)

    prob = transcribe_shooting(dyn, n_x, 3, n_u=2, n_p=7)
    rng = np.random.default_rng(8)
    z = rng.standard_normal(prob.n) * 0.3
    p_off = prob.block("p").offset
    z[p_off:p_off + 7] = free_params.as_array()

    report = check_derivatives(prob.gap_group.eval,
                               lambda zz: prob.gap_group.eval_with_jac(zz)[1],
                               z, eps=1e-6)
    assert report.max_rel_error < 1e-5

    # the estimation substate dynamics, with parameters and a per-node
    # disturbance as decision variables
    from beamilc.estimation import _record_coeffs, _shooting_dynamics

    coeffs = _record_coeffs(chain2, np.array([0.3, -0.4]), rng.standard_normal((3, 2)), 0.01)
    sub = transcribe_shooting(_shooting_dynamics(coeffs, 0.01), 4, 3, n_p=7, n_d=1)
    z = rng.standard_normal(sub.n) * 0.3
    p_off = sub.block("p").offset
    z[p_off:p_off + 7] = free_params.as_array()

    report = check_derivatives(sub.gap_group.eval,
                               lambda zz: sub.gap_group.eval_with_jac(zz)[1],
                               z, eps=1e-6)
    assert report.max_rel_error < 1e-5


# ---------------------------------------------------------------------------
# solver invariants


def test_merit_nonincreasing():
    prob = NlpProblem()
    prob.add_block("z", 2, x0=np.array([-1.2, 1.0]))
    prob.residual_groups.append(RosenbrockGroup())
    sol = solve(prob)
    hist = sol.merit_history
    assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))


def test_converged_tolerances_reported():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    prob = NlpProblem()
    prob.add_block("z", 3)
    prob.residual_groups.append(LinearGroup(a, b))
    prob.eq_groups.append(LinearGroup(np.array([[1.0, 1.0, 1.0]]), np.array([1.0])))
    opts = SolverOptions()
    sol = solve(prob, opts)
    assert sol.converged
    assert sol.constraint_violation < opts.tol_feas
    assert sol.stationarity < opts.tol_opt
    assert sol.qp_gap_max < 1e-8


def test_solver_deterministic():
    def build():
        prob = NlpProblem()
        prob.add_block("z", 2, lb=-0.5, ub=1.5, x0=np.array([-0.3, 1.2]))
        prob.residual_groups.append(RosenbrockGroup())
        return prob

    s1 = solve(build())
    s2 = solve(build())
    assert s1.iterations == s2.iterations
    np.testing.assert_array_equal(s1.variables["z"], s2.variables["z"])
    np.testing.assert_array_equal(np.asarray(s1.merit_history),
                                  np.asarray(s2.merit_history))


def test_solution_status_values():
    # stalled problem reports line-search-failure or max-iter, never converged
    prob = NlpProblem()
    prob.add_block("z", 1, x0=np.array([2.0]))
    prob.eq_groups.append(LinearGroup(np.array([[1.0]]), np.array([1.0])))
    prob.eq_groups.append(LinearGroup(np.array([[1.0]]), np.array([-1.0])))
    sol = solve(prob, SolverOptions(max_iter=10))
    assert not sol.converged
    assert sol.status in ("max-iter", "line-search-failure")
