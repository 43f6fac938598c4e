import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from beamilc import ad, qp
from beamilc.dynamics import state_dim
from beamilc import nlp
from beamilc.nlp import (CallableGroup, L1Term, LinearGroup, NlpProblem, ShootingGapGroup,
                         SolverOptions, _linearized, _Stacked, dual_group, solve)
from beamilc.qp import pattern_of, same_pattern
from beamilc.qp import solve_qp, solve_qp_ipm
from derivative_check import check_derivatives


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


@pytest.mark.parametrize("with_eq", [True, False], ids=["equality-only", "unconstrained"])
def test_qp_ipm_without_inequality_rows(with_eq):
    # with no inequality rows there is no barrier: the interior point solves
    # the cost-scaled QP by the active set and returns its answer, duals
    # unscaled; |q| in the hundreds makes the cost scale exceed 1
    rng = np.random.default_rng(11)
    p_mat, q, a_eq, b_eq, _, _ = random_strictly_convex_qp(rng, mi=0)
    q = 300.0 * q
    assert np.max(np.abs(q)) / 10.0 > 1.0
    if not with_eq:
        a_eq, b_eq = np.zeros((0, q.size)), np.zeros(0)
    args = (sp.csc_matrix(p_mat), q, sp.csr_matrix(a_eq), b_eq)
    ref = solve_qp(*args)
    sol = solve_qp_ipm(*args)
    assert sol.status == ref.status == "converged"
    assert sol.ineq_duals.size == 0
    kkt = p_mat @ sol.x + q + a_eq.T @ sol.eq_duals
    assert np.max(np.abs(kkt)) < 1e-12 * np.max(np.abs(q))
    assert np.max(np.abs(a_eq @ sol.x - b_eq), initial=0.0) < 1e-12
    np.testing.assert_allclose(sol.x, ref.x, rtol=0, atol=1e-12 * np.max(np.abs(ref.x)))
    np.testing.assert_allclose(sol.eq_duals, ref.eq_duals, rtol=0,
                               atol=1e-12 * np.max(np.abs(ref.eq_duals), initial=1.0))


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


def ocp_tail_shaped_qp(n_nodes=40, n_ctrl=20, dt=0.05, omega=3.0, damping=0.1):
    """QP shaped like the OCP's vibration tail.

    A damped oscillator chain, driven for ``n_ctrl`` steps and autonomous
    after, with an l1 pair on the position of every later node, weighted
    ``10 * 1.05**k``, and a 1e-10 Hessian on the slacks. Once the chain is
    at rest both slacks of each later pair sit at zero, and the gaps then
    imply the next ones: the active constraint gradients are dependent.
    """
    n_s = 2 * (n_nodes + 1)
    n = n_s + n_ctrl + 2 * n_nodes
    step = np.array([[1.0, dt], [-dt * omega ** 2, 1.0 - dt * damping]])
    a_eq = np.zeros((2 + 2 * n_nodes + n_nodes, n))
    a_eq[:2, :2] = np.eye(2)
    for k in range(n_nodes):
        rows = slice(2 + 2 * k, 4 + 2 * k)
        a_eq[rows, 2 * k:2 * k + 2] = step
        a_eq[rows, 2 * k + 2:2 * k + 4] = -np.eye(2)
        if k < n_ctrl:
            a_eq[3 + 2 * k, n_s + k] = dt
    link = np.arange(n_nodes)
    a_eq[2 + 2 * n_nodes + link, 2 * (link + 1)] = 1.0
    a_eq[2 + 2 * n_nodes + link, n_s + n_ctrl + link] = -1.0
    a_eq[2 + 2 * n_nodes + link, n_s + n_ctrl + n_nodes + link] = 1.0
    b_eq = np.zeros(a_eq.shape[0])
    b_eq[0] = 1.0
    w = 10.0 * 1.05 ** np.arange(1, n_nodes + 1)
    q = np.concatenate([np.zeros(n_s + n_ctrl), w, w])
    p_mat = np.diag(np.concatenate([np.full(n_s, 1e-6), np.ones(n_ctrl),
                                    np.full(2 * n_nodes, 1e-10)]))
    g = np.zeros((2 * n_nodes, n))
    g[:, n_s + n_ctrl:] = -np.eye(2 * n_nodes)
    return p_mat, q, a_eq, b_eq, g, np.zeros(2 * n_nodes)


def test_qp_degenerate_slack_pairs_ipm_converges():
    p_mat, q, a_eq, b_eq, g, h = ocp_tail_shaped_qp()
    args = (sp.csc_matrix(p_mat), q, sp.csr_matrix(a_eq), b_eq, sp.csr_matrix(g), h)
    assert solve_qp(*args, max_iter=200).status == "max-iter"  # the active set cycles
    sol = solve_qp_ipm(*args)
    assert sol.status == "converged"
    # the stopping test at 1e-11, on the cost-scaled data the interior point works with
    cost_scale = max(1.0, np.max(np.abs(q)) / 10.0)
    tol = 1e-11 * (1.0 + max(np.max(np.abs(q)) / cost_scale, np.max(np.abs(h)),
                             np.max(np.abs(b_eq))))
    dual = p_mat @ sol.x + q + a_eq.T @ sol.eq_duals + g.T @ sol.ineq_duals
    assert np.max(np.abs(dual)) / cost_scale < tol
    assert np.max(np.abs(a_eq @ sol.x - b_eq)) < tol
    assert np.max(g @ sol.x - h) < tol
    assert np.all(sol.ineq_duals > 0)
    assert sol.duality_gap / cost_scale / h.size < tol
    t_plus, t_minus = np.split(sol.x[-h.size:], 2)
    assert np.any(np.maximum(t_plus, t_minus) < 1e-8)  # pairs with both slacks at zero


def test_qp_ipm_reports_infeasible():
    # without a clip the barrier weights overflow as the slacks underflow;
    # the solve must stop on its last finite iterate and say why
    box = (sp.identity(2, format="csc"), np.ones(2), None, None,
           sp.csr_matrix(np.array([[1.0, 0.0], [-1.0, 0.0]])), np.array([-1.0, -1.0]))
    eq_vs_bounds = (1e-6 * sp.identity(2, format="csc"), np.array([1.0, 0.0]),
                    sp.csr_matrix(np.ones((1, 2))), np.array([5.0]),
                    sp.identity(2, format="csr"), np.ones(2))
    for args in (box, eq_vs_bounds):
        sol = solve_qp_ipm(*args)
        assert sol.status == "infeasible"
        assert np.all(np.isfinite(sol.x)) and np.all(np.isfinite(sol.ineq_duals))


def test_qp_reports_inconsistent_equalities():
    # x = 0 and x = 1: the regularized KKT settles on x = 1/2, which no
    # solver may call converged, with or without a bound x <= 2
    eqs = (sp.identity(1, format="csc"), np.zeros(1), sp.csr_matrix(np.ones((2, 1))),
           np.array([0.0, 1.0]))
    sol = solve_qp(*eqs)
    assert sol.status == "infeasible"
    assert sol.iterations == 1
    assert sol.primal_infeasibility == pytest.approx(0.5)
    for solver in (solve_qp, solve_qp_ipm):
        sol = solver(*eqs, sp.csr_matrix(np.ones((1, 1))), np.array([2.0]))
        assert sol.status == "infeasible"
        assert sol.primal_infeasibility == pytest.approx(0.5, abs=1e-5)


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


def elastic_problem():
    """z0^2 = 1 from z = 0, with 0.5 (z0 - 1)^2 ... a residual and an l1 term on z1."""
    def circle(z):
        # at a point (2,) or at each row of a stack (K, 2)
        return z[..., :1] ** 2 - 1.0

    prob = NlpProblem()
    prob.add_block("z", 2)
    prob.residual_groups.append(LinearGroup(np.array([[1.0, 0.0]]), np.array([0.5])))
    prob.l1_terms.append(L1Term(sp.csr_matrix(np.array([[0.0, 1.0]])),
                                np.array([2.0]), np.array([1.0])))
    prob.eq_groups.append(CallableGroup(
        1, circle, lambda z: (circle(z), sp.csr_matrix(np.array([[2.0 * z[0], 0.0]])))))
    return prob


def test_elastic_mode_on_inconsistent_linearization(monkeypatch):
    # z0^2 = 1 has a zero gradient at the start z0 = 0, so the first QP's
    # linearized row 0 * dz0 = 1 is inconsistent; the solve goes on in
    # elastic form, with that row in an l1 slack pair, and reaches z = (1, 2).
    # The problem has an l1 term, so each QP is answered by the interior
    # point or by one converged active-set iteration on the working set of
    # the last converged QP; the first elastic QP, wider than that set, goes
    # to the interior point
    calls = []

    def recording(name):
        solver = getattr(nlp, name)

        def record(*args, **kwargs):
            sol = solver(*args, **kwargs)
            calls.append((name, kwargs.get("working_set"), kwargs.get("max_iter"), sol,
                          args[4].shape[0]))
            return sol
        return record

    for name in ("solve_qp", "solve_qp_ipm"):
        monkeypatch.setattr(nlp, name, recording(name))
    sol = solve(elastic_problem())
    assert sol.converged
    np.testing.assert_allclose(sol.variables["z"], [1.0, 2.0], rtol=0, atol=1e-9)
    effort = sol.qp_effort
    assert effort["qp_elastic_calls"] >= 1
    ipm_calls = [c for c in calls if c[0] == "solve_qp_ipm"]
    checked = [c for c in calls if c[0] == "solve_qp" and c[3].status == "converged"]
    assert effort["qp_ipm_calls"] == len(ipm_calls)
    assert effort["qp_calls"] == len(ipm_calls) + len(checked) > effort["qp_elastic_calls"]
    last_set = None
    for name, working_set, max_iter, qp_sol, _ in calls:
        if name == "solve_qp":
            assert max_iter == 1
            np.testing.assert_array_equal(working_set, last_set)
        if qp_sol.status == "converged":
            last_set = qp_sol.working_set
    first_elastic = next(c for c in calls if c[4] > calls[0][4])
    assert first_elastic[0] == "solve_qp_ipm"
    assert "worst_equality_rows" not in sol.diagnostics


class RosenbrockGroup:
    dim = 2

    def eval(self, z):
        # at a point (2,) or at each row of a stack (K, 2)
        return np.stack([1.0 - z[..., 0], 10.0 * (z[..., 1] - z[..., 0] ** 2)], axis=-1)

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

    def dyn(x, u, p):
        return a_c * x + b_c * u

    x_lb = np.full(n_steps + 1, -np.inf)
    x_ub = np.full(n_steps + 1, np.inf)
    x_lb[0] = x_ub[0] = 1.5
    prob = shooting_problem(dyn, 1, n_steps, 1, x_lb, x_ub)
    x_off, u_off = prob.block("x").offset, prob.block("u").offset
    rows = []
    for k in range(n_steps):
        r = np.zeros(prob.n)
        r[x_off + k] = np.sqrt(qw)
        rows.append(r)
    r = np.zeros(prob.n)
    r[x_off + n_steps] = np.sqrt(qf)
    rows.append(r)
    for k in range(n_steps):
        r = np.zeros(prob.n)
        r[u_off + k] = np.sqrt(rw)
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


def shooting_problem(dyn, n_x, horizon, n_u, x_lb=None, x_ub=None, u_lb=None, u_ub=None):
    """Blocks ``x`` (nodes 0..horizon) and ``u`` (nodes 0..horizon-1), and their gaps."""
    prob = NlpProblem()
    prob.add_block("x", (horizon + 1) * n_x, x_lb, x_ub)
    prob.add_block("u", horizon * n_u, u_lb, u_ub)
    prob.eq_groups.append(ShootingGapGroup(prob, dyn, n_x, horizon, n_u, np.arange(horizon)))
    return prob


def double_integrator(dt=0.1):
    def dyn(x, u, p):
        pos = ad.comp(x, 0)
        vel = ad.comp(x, 1)
        uu = ad.comp(u, 0)
        return ad.stack_last([pos + dt * vel + 0.5 * dt * dt * uu, vel + dt * uu])
    return dyn


def test_transcription_structure_counts():
    prob = shooting_problem(double_integrator(), 2, 1, 1)
    gaps = prob.eq_groups[0]
    assert gaps.dim == 2
    assert len(prob.eq_groups) == 1
    # each gap row reads x_0 and u_0 through the dynamics, and -1 at x_1
    jac = gaps.eval_with_jac(prob.initial_guess())[1].toarray()
    assert jac.shape == (2, prob.n)
    np.testing.assert_array_equal(jac[:, 2:4], -np.eye(2))
    np.testing.assert_allclose(jac[:, 4], [0.005, 0.1], rtol=1e-15)


def test_transcription_feasible_rollout_zero_gap():
    dt = 0.1
    prob = shooting_problem(double_integrator(dt), 2, 5, 1)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(5)
    xs = np.zeros((6, 2))
    xs[0] = [0.3, -0.2]
    for k in range(5):
        xs[k + 1, 0] = xs[k, 0] + dt * xs[k, 1] + 0.5 * dt * dt * u[k]
        xs[k + 1, 1] = xs[k, 1] + dt * u[k]
    prob.set_initial_guess("x", xs)
    prob.set_initial_guess("u", u)
    gaps = prob.eq_groups[0].eval(prob.initial_guess())
    np.testing.assert_allclose(gaps, 0.0, atol=1e-14)


def test_transcription_bounds_mapped():
    prob = shooting_problem(double_integrator(), 2, 3, 1,
                            np.tile([-1.0, -2.0], 4), np.tile([1.0, 2.0], 4), -5.0, 5.0)
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
# sparse structure made once per group and per solve, refilled after


def assert_same_matrix(got, want):
    """The same stored entries, explicit zeros included, and bit for bit the same values."""
    assert got.format == want.format and got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data.view(np.int64), want.data.view(np.int64))


def gap_jacobian_assembly(gaps, z):
    """The gap group's Jacobian assembled afresh from COO triplets."""
    nx, nu, m = gaps.n_x, gaps.n_u, gaps._cols.shape[1]
    x, u, p, _ = gaps._gather(z)
    dot = gaps.dynamics(ad.seed(x, m, 0), ad.seed(u, m, nx), ad.seed(p, m, nx + nu)).dot
    rows = np.broadcast_to(np.arange(gaps.dim).reshape(gaps.horizon, nx, 1), dot.shape)
    cols = np.broadcast_to(gaps._cols[:, None, :], dot.shape)
    keep = cols >= 0
    return sp.coo_matrix(
        (np.concatenate([dot[keep], np.full(gaps.dim, -1.0)]),
         (np.concatenate([rows[keep], np.arange(gaps.dim)]),
          np.concatenate([cols[keep], gaps._cols[:, :nx].ravel() + nx]))),
        shape=(gaps.dim, gaps.problem.n)).tocsr()


def test_gap_jacobian_refill_matches_assembly():
    # inputs on nodes 0, 2 and 3 only (node 1's pinned: no column), and
    # dynamics whose rows miss some seeds: the stored zeros stay stored
    def dyn(x, u, p):
        pos, vel, uu = ad.comp(x, 0), ad.comp(x, 1), ad.comp(u, 0)
        return ad.stack_last([pos + 0.1 * ad.sin(vel) + 0.0 * uu, vel + 0.1 * uu * ad.cos(pos)])

    prob = NlpProblem()
    prob.add_block("x", 5 * 2)
    prob.add_block("u", 3)
    gaps = ShootingGapGroup(prob, dyn, 2, 4, 1, np.array([0, -1, 1, 2]))
    rng = np.random.default_rng(12)
    jacs = []
    for _ in range(2):
        z = rng.standard_normal(prob.n)
        jac = gaps.eval_with_jac(z)[1]
        assert_same_matrix(jac, gap_jacobian_assembly(gaps, z))
        jacs.append(jac)
    # each of the 8 rows reads 3 seeds and stores a -1, but node 1 has no input column
    assert jacs[0].nnz == 8 * (3 + 1) - 2
    assert np.any(jacs[0].data == 0.0)


def test_dual_group_refill_matches_assembly():
    cols = np.array([5, 1, 3])

    def fn(v):
        return ad.stack_last([ad.comp(v, 0) * ad.comp(v, 1), 0.0 * ad.comp(v, 2),
                              ad.sin(ad.comp(v, 2))])

    grp = dual_group(3, cols, fn)
    rng = np.random.default_rng(13)
    for _ in range(2):
        z = rng.standard_normal(7)
        dot = fn(ad.seed(z[cols], 3, 0)).dot
        want = sp.csr_matrix((dot.ravel(), (np.repeat(np.arange(3), 3), np.tile(cols, 3))),
                             shape=(3, 7))
        assert_same_matrix(grp.eval_with_jac(z)[1], want)
    with pytest.raises(ValueError):
        dual_group(1, [2, 2], fn)


def test_stacked_jacobian_refill_matches_assembly():
    # a linear group, a group whose pattern depends on the point (its
    # Jacobian comes from a dense matrix, zeros dropped) and a gap group
    def circle(z):
        # at a point (3,) or at each row of a stack (K, 3)
        return z[..., :1] ** 2 - 1.0

    prob = NlpProblem()
    prob.add_block("z", 3)
    groups = [LinearGroup(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]), np.ones(2)),
              CallableGroup(1, circle, lambda z: (
                  circle(z), sp.csr_matrix(np.array([[2.0 * z[0], 0.0, z[1]]]))))]
    stack = _Stacked()
    points = np.array([[0.5, 1.0, 0.0], [0.7, -1.0, 0.0], [0.0, 2.0, 0.0], [0.3, 1.0, 0.0]])
    prev, held = None, []
    for z in points:
        _, jac = _linearized(groups, stack, z)
        assert_same_matrix(jac, sp.vstack([g.eval_with_jac(z)[1] for g in groups], format="csr"))
        if prev is not None:
            # the stack keeps its index arrays while each group keeps its pattern
            held.append(same_pattern(jac, pattern_of(prev)))
            assert np.shares_memory(jac.indices, prev.indices) == held[-1]
        prev = jac
    assert held == [True, False, False]               # z0 = 0 drops an entry, and back
    assert _linearized([], _Stacked(), np.zeros(3))[1].shape == (0, 3)


def recorded_stacks(monkeypatch):
    """Checks every stack of the solves it is active for against a fresh assembly of its
    parts, and records the stacked shape and whether the stack kept its index arrays."""
    seen = []
    call = nlp._Stacked.__call__

    def checking_call(self, parts):
        prev = self.mat
        got = call(self, parts)
        assert_same_matrix(got, sp.vstack(parts, format="csr"))
        seen.append((got.shape, prev is not None and np.shares_memory(got.indices, prev.indices)))
        return got

    monkeypatch.setattr(nlp._Stacked, "__call__", checking_call)
    return seen


def test_qp_rows_refill_matches_assembly(chain3, nominal_params, monkeypatch):
    from beamilc.ocp import TaskDefinition, solve_ptp_ocp

    seen = recorded_stacks(monkeypatch)

    def qp_rows(sol):
        # the QP's rows are wider than the decision vector by the l1 slacks;
        # the groups' Jacobians are not
        n = sum(v.size for v in sol.variables.values())
        return [(shape, kept) for shape, kept in seen if shape[1] > n]

    # plain rows: a planar plan with bounds, inequalities and l1 terms, over
    # several SQP iterations; after the first, each only refills its values
    task = TaskDefinition.from_goal_joints(chain3, [0.5, -0.9, 0.6], [0.9, -1.1, 0.5],
                                           n_ctrl=48, n_pred=144, dt=0.01)
    sol = solve_ptp_ocp(chain3, task, nominal_params).solution
    assert sol.iterations >= 3 and sol.qp_effort["qp_elastic_calls"] == 0
    rows = qp_rows(sol)
    assert len({shape for shape, _ in rows}) == 2 and len(rows) == 2 * sol.iterations
    assert [kept for _, kept in rows] == [False, False] + [True] * (len(rows) - 2)
    # elastic rows, wider by a slack pair per linearized equality, over the
    # iterations after the first QP turned out infeasible
    seen.clear()
    sol = solve(elastic_problem())
    assert sol.converged and sol.qp_effort["qp_elastic_calls"] >= 3
    rows = qp_rows(sol)
    widths = sorted({shape[1] for shape, _ in rows})
    assert widths == [4, 6]                           # z and l1 slacks; and an elastic pair
    assert sum(shape[1] == 6 for shape, _ in rows) >= 2 * 3


def active_kkt_assembly(p_mat, a_eq, g_ineq, act):
    """The active set's KKT assembled afresh from its blocks."""
    me, g_act = a_eq.shape[0], g_ineq[act]
    ma = g_act.shape[0]
    return sp.bmat([
        [p_mat, a_eq.T if me else None, g_act.T if ma else None],
        [a_eq if me else None, -qp.REG * sp.identity(me) if me else None, None],
        [g_act if ma else None, None, -qp.REG * sp.identity(ma) if ma else None],
    ], format="csc")


def test_active_set_kkt_refill_matches_assembly(monkeypatch):
    # two QPs of one pattern through one workspace: the first changes its
    # working set from iteration to iteration, the second starts from the
    # first's and refills the map kept for it
    seen = []
    active_kkt = qp.KktWorkspace.active_kkt

    def checking(self, p_mat, a_eq, g_ineq, active):
        got = active_kkt(self, p_mat, a_eq, g_ineq, active)
        assert_same_matrix(got, active_kkt_assembly(p_mat, a_eq, g_ineq, active))
        seen.append((active.tobytes(), self.active[1]))
        return got

    monkeypatch.setattr(qp.KktWorkspace, "active_kkt", checking)
    rng = np.random.default_rng(14)
    p_mat, q, a_eq, b_eq, g, h = random_strictly_convex_qp(rng, mi=12)
    g[:, 0] = 0.0                                     # explicit zeros in G's pattern
    data = [sp.csc_matrix(p_mat), q, sp.csr_matrix(a_eq), b_eq, sp.csr_matrix(g), h]
    data[4].data[::5] = 0.0
    workspace = qp.KktWorkspace()
    first = solve_qp(*data, workspace=workspace)
    assert first.status == "converged"
    assert len({key for key, _ in seen}) >= 3         # the working set changed
    last = seen[-1]
    assert last[0] == first.working_set.tobytes()
    data[0] = sp.csc_matrix(2.0 * p_mat)
    data[2] = sp.csr_matrix((rng.standard_normal(data[2].nnz), data[2].indices, data[2].indptr),
                            shape=data[2].shape)
    del seen[:]
    second = solve_qp(*data, working_set=first.working_set, workspace=workspace)
    assert second.status == "converged"
    assert seen[0][1] is last[1]                      # the kept map, refilled
    fresh = solve_qp(*data, working_set=first.working_set)
    np.testing.assert_array_equal(second.x, fresh.x)


def test_kkt_row_sums_are_the_product_with_ones():
    # the diagonal-pivot solve's backward-error scale reads |K|'s row sums
    # from the stored values; they are |K| @ 1's, bit for bit, so no accept
    # or reject decision of that solve moves
    rng = np.random.default_rng(15)
    p_mat, _, a_eq, _, g, _ = random_strictly_convex_qp(rng, mi=10)
    g = sp.csr_matrix(g)
    g.data[::4] = 0.0                                 # explicit zeros
    for act in (np.zeros(10, dtype=bool), rng.uniform(size=10) < 0.5):
        kkt = active_kkt_assembly(sp.csc_matrix(p_mat), sp.csr_matrix(a_eq), g, act)
        want = np.asarray(abs(kkt).sum(axis=1)).ravel()
        np.testing.assert_array_equal(qp._row_abs_sums(kkt).view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# derivative checking (optimizer derivatives vs finite differences)


def test_check_derivatives_linear_map():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 6))

    report = check_derivatives(lambda z: a @ z, lambda z: a,
                               rng.standard_normal(6), eps=1e-4)
    assert report.max_rel_error < 1e-10


def test_check_derivatives_setup_ode(chain3, free_params):
    # the model's right-hand side, frame terms and pendulum equation, on duals
    # of the arm's q, dq and acceleration and of the pendulum's angle and rate
    from test_dynamics import accel_on_chain

    rng = np.random.default_rng(6)
    point = np.concatenate([rng.standard_normal(9) * 0.5, [0.2, -0.3]])

    def accel(z):
        return accel_on_chain(chain3, z[:3], z[3:6], z[6:9], z[9], z[10], free_params)

    report = check_derivatives(lambda z: np.atleast_1d(accel(z)),
                               lambda z: np.atleast_2d(accel(ad.seed(z, 11, 0)).dot),
                               point, eps=1e-6)
    assert report.max_rel_error < 1e-5


def test_check_derivatives_pendulum_wrt_params(chain3, free_params):
    from test_dynamics import accel_on_chain

    rng = np.random.default_rng(7)
    q = rng.uniform(-1, 1, 3)
    dq = rng.uniform(-1, 1, 3)
    ddq = rng.uniform(-1, 1, 3)
    th, dth = 0.2, -0.3

    def fn(p_arr):
        return np.atleast_1d(accel_on_chain(chain3, q, dq, ddq, th, dth, p_arr))

    def jac(p_arr):
        pd = ad.seed(p_arr, 7, 0)
        return np.atleast_2d(accel_on_chain(chain3, q, dq, ddq, th, dth, pd).dot)

    report = check_derivatives(fn, jac, free_params.as_array(), eps=1e-6)
    assert report.max_rel_error < 1e-5


def test_gap_group_jacobian_matches_fd(chain2, free_params):
    # the parameter fit's gaps: substate and parameter columns
    from beamilc.estimation import _record_coeffs, _shooting_dynamics

    rng = np.random.default_rng(8)
    coeffs = _record_coeffs(chain2, rng.uniform(-1, 1, 2), rng.standard_normal((3, 2)), 0.01)
    prob = NlpProblem()
    prob.add_block("x", 4 * 4)
    p_off = prob.add_block("p", 7).offset
    gaps = ShootingGapGroup(prob, _shooting_dynamics(coeffs, 0.01), 4, 3, n_p=7)
    z = rng.standard_normal(prob.n) * 0.3
    z[p_off:p_off + 7] = free_params.as_array()

    report = check_derivatives(gaps.eval, lambda zz: gaps.eval_with_jac(zz)[1], z, eps=1e-6)
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
