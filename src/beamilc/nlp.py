"""Shared optimization infrastructure.

Direct multiple-shooting transcription, Gauss-Newton SQP with an exact-l1
merit line search and Levenberg damping, slack-exact handling of linear
l1 cost terms, and finite-difference derivative verification. The QP
subproblems go through :mod:`beamilc.qp`.

Objective convention: ``0.5 * sum(r_i(z)^2) + sum(w_j |a_j' z - b_j|)``
over the stacked residual groups and l1 terms.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import ad
from .qp import solve_qp, solve_qp_ipm

log = logging.getLogger("beamilc.nlp")


# ---------------------------------------------------------------------------
# problem container


@dataclass
class VarBlock:
    name: str
    dim: int
    lb: np.ndarray
    ub: np.ndarray
    x0: np.ndarray
    offset: int = 0


class LinearGroup:
    """Affine function ``A z - b`` usable as residual or constraint group."""

    def __init__(self, a_mat, b):
        self.a = sp.csr_matrix(a_mat)
        self.b = np.asarray(b, dtype=float)
        self.dim = self.a.shape[0]

    def eval(self, z):
        return self.a @ z - self.b

    def eval_with_jac(self, z):
        return self.a @ z - self.b, self.a


class CallableGroup:
    """Group from callables ``fn(z) -> r`` and ``fn_jac(z) -> (r, J_csr)``."""

    def __init__(self, dim, fn, fn_jac):
        self.dim = dim
        self._fn = fn
        self._fn_jac = fn_jac

    def eval(self, z):
        return self._fn(z)

    def eval_with_jac(self, z):
        return self._fn_jac(z)


@dataclass
class L1Term:
    """Exact-penalty term ``sum_j w_j |a_j' z - b_j|`` (linear signed deviations)."""

    a: sp.csr_matrix
    b: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.a = sp.csr_matrix(self.a)
        self.b = np.asarray(self.b, dtype=float)
        self.w = np.asarray(self.w, dtype=float)

    @property
    def dim(self):
        return self.a.shape[0]

    def value(self, z):
        return float(self.w @ np.abs(self.a @ z - self.b))


class NlpProblem:
    """Block-structured NLP: least-squares residuals, l1 terms, constraints."""

    def __init__(self):
        self.blocks: list[VarBlock] = []
        self._by_name = {}
        self.residual_groups = []
        self.l1_terms: list[L1Term] = []
        self.eq_groups = []
        self.ineq_groups = []

    def add_block(self, name, dim, lb=None, ub=None, x0=None):
        if name in self._by_name:
            raise ValueError(f"duplicate block '{name}'")
        lb = np.full(dim, -np.inf) if lb is None else np.broadcast_to(np.asarray(lb, float), (dim,)).copy()
        ub = np.full(dim, np.inf) if ub is None else np.broadcast_to(np.asarray(ub, float), (dim,)).copy()
        if np.any(lb > ub):
            raise ValueError(f"block '{name}': lower bound above upper bound")
        x0 = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float).ravel().copy()
        if x0.shape != (dim,):
            raise ValueError(f"block '{name}': initial guess dimension mismatch")
        blk = VarBlock(name, dim, lb, ub, np.clip(x0, lb, ub), offset=self.n)
        self.blocks.append(blk)
        self._by_name[name] = blk
        return blk

    def block(self, name):
        return self._by_name[name]

    @property
    def n(self):
        return sum(b.dim for b in self.blocks)

    def initial_guess(self):
        return np.concatenate([b.x0 for b in self.blocks]) if self.blocks else np.zeros(0)

    def set_initial_guess(self, name, x0):
        blk = self._by_name[name]
        x0 = np.asarray(x0, dtype=float).ravel()
        if x0.shape != (blk.dim,):
            raise ValueError("initial guess dimension mismatch")
        blk.x0 = np.clip(x0, blk.lb, blk.ub)

    def bounds(self):
        lb = np.concatenate([b.lb for b in self.blocks])
        ub = np.concatenate([b.ub for b in self.blocks])
        return lb, ub

    def unpack(self, z):
        return {b.name: z[b.offset:b.offset + b.dim].copy() for b in self.blocks}


# ---------------------------------------------------------------------------
# solution and options


@dataclass
class NlpSolution:
    variables: dict
    objective: float
    constraint_violation: float
    stationarity: float
    iterations: int
    status: str                      # converged | max-iter | line-search-failure
    qp_gap_max: float = 0.0
    merit_history: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self):
        return self.status == "converged"


@dataclass
class SolverOptions:
    max_iter: int = 120
    tol_feas: float = 1e-8
    tol_opt: float = 1e-6
    levenberg_init: float = 1e-6
    armijo: float = 1e-4
    alpha_min: float = 1e-8
    lam_max: float = 1e8
    qp_max_iter: int = 60
    slack_reg: float = 1e-10


# ---------------------------------------------------------------------------
# evaluation helpers


def _eval_groups(groups, z, with_jac):
    vals = []
    jacs = []
    for g in groups:
        if with_jac:
            r, j = g.eval_with_jac(z)
            jacs.append(sp.csr_matrix(j))
        else:
            r = g.eval(z)
        vals.append(np.asarray(r, dtype=float).ravel())
    if not vals:
        return np.zeros(0), sp.csr_matrix((0, z.shape[0])) if with_jac else None
    v = np.concatenate(vals)
    if with_jac:
        return v, sp.vstack(jacs, format="csr")
    return v, None


def _l1_value(problem, z):
    return sum(t.value(z) for t in problem.l1_terms)


def _merit(problem, z, mu_merit):
    r, _ = _eval_groups(problem.residual_groups, z, False)
    c, _ = _eval_groups(problem.eq_groups, z, False)
    g, _ = _eval_groups(problem.ineq_groups, z, False)
    f = 0.5 * float(r @ r) + _l1_value(problem, z)
    viol = float(np.sum(np.abs(c))) + float(np.sum(np.maximum(g, 0.0)))
    return f + mu_merit * viol, f, viol


def solve(problem, opts=None):
    """Gauss-Newton SQP with slack-exact l1 terms and an l1 merit line search."""
    opts = opts or SolverOptions()
    n = problem.n
    lb, ub = problem.bounds()
    z = np.clip(problem.initial_guess(), lb, ub)

    fixed = lb == ub
    free_fin_ub = np.flatnonzero(~fixed & np.isfinite(ub))
    free_fin_lb = np.flatnonzero(~fixed & np.isfinite(lb))
    fixed_idx = np.flatnonzero(fixed)

    l1_a = sp.vstack([t.a for t in problem.l1_terms], format="csr") if problem.l1_terms else sp.csr_matrix((0, n))
    l1_b = np.concatenate([t.b for t in problem.l1_terms]) if problem.l1_terms else np.zeros(0)
    l1_w = np.concatenate([t.w for t in problem.l1_terms]) if problem.l1_terms else np.zeros(0)
    # slack pair encoding: e_j = t+_j - t-_j, t >= 0, cost w (t+ + t-)
    n_l1 = l1_a.shape[0]
    n_sl = 2 * n_l1

    lam = opts.levenberg_init
    mu_merit = 1.0
    working_set = None
    prev_duals = None
    qp_gap_max = 0.0
    merit_hist = []
    status = "max-iter"
    stationarity = np.inf
    viol_inf = np.inf
    n_iter = 0
    diagnostics = {}

    for n_iter in range(1, opts.max_iter + 1):
        r, jr = _eval_groups(problem.residual_groups, z, True)
        c, jc = _eval_groups(problem.eq_groups, z, True)
        g, jg = _eval_groups(problem.ineq_groups, z, True)
        e0 = l1_a @ z - l1_b
        f_val = 0.5 * float(r @ r) + float(l1_w @ np.abs(e0))
        viol_inf = 0.0
        if c.size:
            viol_inf = max(viol_inf, float(np.max(np.abs(c))))
        if g.size:
            viol_inf = max(viol_inf, float(max(np.max(g), 0.0)))

        grad = jr.T @ r

        # constraint matrices of the QP; only the Hessian depends on lambda
        eq_rows = [sp.hstack([jc, sp.csr_matrix((jc.shape[0], n_sl))], format="csr")] if c.size else []
        eq_rhs = [-c] if c.size else []
        if fixed_idx.size:
            a_fix = sp.csr_matrix(
                (np.ones(fixed_idx.size), (np.arange(fixed_idx.size), fixed_idx)),
                shape=(fixed_idx.size, n + n_sl))
            eq_rows.append(a_fix)
            eq_rhs.append(lb[fixed_idx] - z[fixed_idx])
        if n_l1:
            link = sp.hstack([l1_a, -sp.identity(n_l1, format="csr"),
                              sp.identity(n_l1, format="csr")], format="csr")
            eq_rows.append(link)
            eq_rhs.append(-e0)
        a_eq = sp.vstack(eq_rows, format="csr") if eq_rows else None
        b_eq = np.concatenate(eq_rhs) if eq_rhs else None

        ineq_rows = []
        ineq_rhs = []
        if g.size:
            ineq_rows.append(sp.hstack([jg, sp.csr_matrix((jg.shape[0], n_sl))], format="csr"))
            ineq_rhs.append(-g)
        if free_fin_ub.size:
            rows = sp.csr_matrix((np.ones(free_fin_ub.size),
                                  (np.arange(free_fin_ub.size), free_fin_ub)),
                                 shape=(free_fin_ub.size, n + n_sl))
            ineq_rows.append(rows)
            ineq_rhs.append(ub[free_fin_ub] - z[free_fin_ub])
        if free_fin_lb.size:
            rows = sp.csr_matrix((-np.ones(free_fin_lb.size),
                                  (np.arange(free_fin_lb.size), free_fin_lb)),
                                 shape=(free_fin_lb.size, n + n_sl))
            ineq_rows.append(rows)
            ineq_rhs.append(z[free_fin_lb] - lb[free_fin_lb])
        if n_sl:
            rows = sp.csr_matrix((-np.ones(n_sl), (np.arange(n_sl), n + np.arange(n_sl))),
                                 shape=(n_sl, n + n_sl))
            ineq_rows.append(rows)
            ineq_rhs.append(np.zeros(n_sl))
        g_qp = sp.vstack(ineq_rows, format="csr") if ineq_rows else None
        h_qp = np.concatenate(ineq_rhs) if ineq_rhs else None

        def nlp_stationarity(eq_duals, ineq_duals):
            vec = grad.copy()
            if a_eq is not None and eq_duals.size:
                vec += (a_eq.T @ eq_duals)[:n]
            if g_qp is not None and ineq_duals.size:
                vec += (g_qp.T @ ineq_duals)[:n]
            return float(np.max(np.abs(vec))) if n else 0.0

        # lagged KKT check: last iteration's multipliers at the new point
        if prev_duals is not None and viol_inf < opts.tol_feas:
            stationarity = nlp_stationarity(*prev_duals)
            if stationarity < opts.tol_opt:
                status = "converged"
                log.info("iter=%d obj=%.6e feas=%.3e stat=%.3e (lagged-dual exit)",
                         n_iter, f_val, viol_inf, stationarity)
                break

        accepted = False
        step = np.zeros(n)
        jtj = (jr.T @ jr).tocsc()
        for bump in range(6):
            # quadratic model: H on the decision part, tiny diagonal on slacks
            h_mat = jtj + lam * sp.identity(n, format="csc")
            if n_sl:
                p_qp = sp.block_diag([h_mat, opts.slack_reg * sp.identity(n_sl)], format="csc")
            else:
                p_qp = h_mat
            q_qp = np.concatenate([grad, l1_w, l1_w]) if n_sl else grad

            if working_set is None and g_qp is not None:
                working_set = np.zeros(g_qp.shape[0], dtype=bool)
                if n_sl:
                    # pin the slack of the inactive side of each pair
                    base = g_qp.shape[0] - n_sl
                    working_set[base + np.flatnonzero(e0 <= 0)] = True
                    working_set[base + n_l1 + np.flatnonzero(e0 >= 0)] = True

            qp = solve_qp(p_qp, q_qp, a_eq, b_eq, g_qp, h_qp,
                          working_set=working_set, max_iter=opts.qp_max_iter)
            if qp.status != "converged":
                # LP-like subproblems can defeat the active-set method;
                # the interior-point path settles them, then a warm
                # active-set pass polishes to machine precision
                qp_ip = solve_qp_ipm(p_qp, q_qp, a_eq, b_eq, g_qp, h_qp)
                if qp_ip.status == "converged":
                    qp_pol = solve_qp(p_qp, q_qp, a_eq, b_eq, g_qp, h_qp,
                                      working_set=qp_ip.working_set,
                                      max_iter=opts.qp_max_iter)
                    qp = qp_pol if qp_pol.status == "converged" else qp_ip
                elif qp_ip.status == "infeasible":
                    qp = qp_ip
            if qp.status == "converged":
                working_set = qp.working_set
                qp_gap_max = max(qp_gap_max, qp.duality_gap)
            elif qp.status == "infeasible":
                # report the worst linearized equalities for diagnosis
                resid = np.abs(a_eq @ qp.x - b_eq) if a_eq is not None else np.zeros(0)
                worst = np.argsort(resid)[-5:][::-1] if resid.size else []
                diag = {"qp_infeasible": True,
                        "worst_equality_rows": [(int(i), float(resid[i])) for i in worst]}
                log.warning("QP reported infeasible; worst rows %s", diag["worst_equality_rows"])
                status = "line-search-failure"
                accepted = False
                diagnostics = diag
                break
            else:
                lam = min(lam * 10.0, opts.lam_max)
                working_set = None
                if viol_inf < opts.tol_feas and bump >= 1:
                    break  # feasible already; stop burning time on stalled QPs
                continue

            step = qp.x[:n]
            t_pair = qp.x[n:n + n_l1] + qp.x[n + n_l1:] if n_l1 else np.zeros(0)
            prev_duals = (qp.eq_duals.copy(), qp.ineq_duals.copy())
            stationarity = nlp_stationarity(qp.eq_duals, qp.ineq_duals)

            if viol_inf < opts.tol_feas and stationarity < opts.tol_opt:
                status = "converged"
                accepted = True
                break

            l1_new = float(l1_w @ t_pair) if n_sl else 0.0
            l1_old = float(l1_w @ np.abs(e0))
            dual_scale = 0.0
            if qp.eq_duals.size:
                dual_scale = max(dual_scale, float(np.max(np.abs(qp.eq_duals))))
            if qp.ineq_duals.size:
                dual_scale = max(dual_scale, float(np.max(qp.ineq_duals)))
            mu_merit = max(mu_merit, 1.5 * dual_scale, 1.0)

            viol1 = (float(np.sum(np.abs(c))) if c.size else 0.0) + \
                    (float(np.sum(np.maximum(g, 0.0))) if g.size else 0.0)
            model_decrease = -(float(grad @ step) + 0.5 * float(step @ (h_mat @ step))
                               + l1_new - l1_old)
            pred = model_decrease + mu_merit * viol1
            if pred <= 1e-14 * (1.0 + abs(f_val)):
                lam = min(lam * 10.0, opts.lam_max)
                continue

            phi0 = f_val + mu_merit * viol1
            alpha = 1.0
            while alpha >= opts.alpha_min:
                z_trial = np.clip(z + alpha * step, lb, ub)
                phi_t, _, _ = _merit(problem, z_trial, mu_merit)
                if phi_t <= phi0 - opts.armijo * alpha * pred:
                    rho = (phi0 - phi_t) / (alpha * pred)
                    if alpha == 1.0 and rho > 0.75:
                        lam = max(lam / 3.0, 1e-12)
                    elif rho < 0.25:
                        lam = min(lam * 4.0, opts.lam_max)
                    z = z_trial
                    accepted = True
                    merit_hist.append(phi_t)
                    break
                alpha *= 0.5
            if accepted:
                break
            lam = min(lam * 10.0, opts.lam_max)

        log.info("iter=%d obj=%.6e feas=%.3e stat=%.3e lam=%.1e step=%.3e",
                 n_iter, f_val, viol_inf, stationarity,
                 lam, float(np.max(np.abs(step))) if accepted and status != "converged" else 0.0)

        if status == "converged":
            break
        if not accepted:
            status = "line-search-failure"
            break

    r, _ = _eval_groups(problem.residual_groups, z, False)
    obj = 0.5 * float(r @ r) + _l1_value(problem, z)
    return NlpSolution(
        variables=problem.unpack(z),
        objective=obj,
        constraint_violation=viol_inf,
        stationarity=stationarity,
        iterations=n_iter,
        status=status,
        qp_gap_max=qp_gap_max,
        merit_history=merit_hist,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# multiple-shooting transcription


class ShootingGapGroup:
    """Gap-closing equality constraints ``F(x_k, u_k, p, d_k) - x_{k+1} = 0``.

    The dynamics callable must be batched over nodes and transparent to
    :mod:`beamilc.ad` duals. Controls may exist only on a subset of nodes
    (``control_map[k] < 0`` means the node input is pinned to zero).
    """

    def __init__(self, problem, dynamics, n_x, horizon, n_u=0, control_map=None,
                 n_p=0, n_d=0):
        self.problem = problem
        self.dynamics = dynamics
        self.n_x = n_x
        self.horizon = horizon
        self.n_u = n_u
        self.n_p = n_p
        self.n_d = n_d
        self.control_map = (np.asarray(control_map, dtype=int)
                            if control_map is not None else np.full(horizon, -1))
        self.dim = horizon * n_x
        self._x_off = problem.block("x").offset
        self._u_off = problem.block("u").offset if n_u else 0
        self._p_off = problem.block("p").offset if n_p else 0
        self._d_off = problem.block("d").offset if n_d else 0
        self._cols_cache = None

    def _gather(self, z):
        nx, nu, npar, nd, nn = self.n_x, self.n_u, self.n_p, self.n_d, self.horizon
        xs = z[self._x_off:self._x_off + (nn + 1) * nx].reshape(nn + 1, nx)
        u = np.zeros((nn, nu)) if nu else None
        if nu:
            n_cn = int(self.control_map.max() + 1)
            uvar = z[self._u_off:self._u_off + nu * n_cn].reshape(n_cn, nu)
            mask = self.control_map >= 0
            u[mask] = uvar[self.control_map[mask]]
        p = z[self._p_off:self._p_off + npar] if npar else None
        d = z[self._d_off:self._d_off + nd * nn].reshape(nn, nd) if nd else None
        return xs, u, p, d

    def eval(self, z):
        xs, u, p, d = self._gather(z)
        f_next = self.dynamics(xs[:-1], u, p, d)
        return (ad.value(f_next) - xs[1:]).ravel()

    def eval_with_jac(self, z):
        nx, nu, npar, nd, nn = self.n_x, self.n_u, self.n_p, self.n_d, self.horizon
        xs, u, p, d = self._gather(z)
        m = nx + nu + npar + nd
        x_dual = ad.seed(xs[:-1], m, 0)
        u_dual = ad.seed(u, m, nx) if nu else None
        p_dual = ad.seed(np.asarray(p), m, nx + nu) if npar else None
        d_dual = ad.seed(d, m, nx + nu + npar) if nd else None
        f_next = self.dynamics(x_dual, u_dual, p_dual, d_dual)
        res = (f_next.val - xs[1:]).ravel()
        dot = f_next.dot  # (nn, nx, m)

        rows_blk = (np.arange(nn)[:, None] * nx + np.arange(nx)[None, :])  # (nn, nx)
        data = []
        rows = []
        cols = []

        # d/dx_k
        r = np.repeat(rows_blk[:, :, None], nx, axis=2)
        c = self._x_off + (np.arange(nn)[:, None, None] * nx + np.arange(nx)[None, None, :])
        c = np.broadcast_to(c, (nn, nx, nx))
        data.append(dot[:, :, :nx].ravel())
        rows.append(r.ravel())
        cols.append(c.ravel())

        # -I at x_{k+1}
        rows.append(rows_blk.ravel())
        cols.append((self._x_off + (np.arange(nn)[:, None] + 1) * nx
                     + np.arange(nx)[None, :]).ravel())
        data.append(np.full(nn * nx, -1.0))

        if nu:
            mask = self.control_map >= 0
            kk = np.flatnonzero(mask)
            r = np.repeat(rows_blk[kk][:, :, None], nu, axis=2)
            c = self._u_off + (self.control_map[kk][:, None, None] * nu
                               + np.arange(nu)[None, None, :])
            c = np.broadcast_to(c, (kk.size, nx, nu))
            data.append(dot[kk][:, :, nx:nx + nu].ravel())
            rows.append(r.ravel())
            cols.append(c.ravel())

        if npar:
            r = np.repeat(rows_blk[:, :, None], npar, axis=2)
            c = np.broadcast_to(self._p_off + np.arange(npar)[None, None, :], (nn, nx, npar))
            data.append(dot[:, :, nx + nu:nx + nu + npar].ravel())
            rows.append(r.ravel())
            cols.append(c.ravel())

        if nd:
            r = np.repeat(rows_blk[:, :, None], nd, axis=2)
            c = self._d_off + (np.arange(nn)[:, None, None] * nd + np.arange(nd)[None, None, :])
            c = np.broadcast_to(c, (nn, nx, nd))
            data.append(dot[:, :, nx + nu + npar:].ravel())
            rows.append(r.ravel())
            cols.append(c.ravel())

        jac = sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dim, self.problem.n)).tocsr()
        return res, jac


class ShootingProblem(NlpProblem):
    """NLP with the multiple-shooting layout: per-node states, gap equalities."""

    def __init__(self, dynamics, n_x, horizon, *, n_u=0, control_map=None,
                 n_p=0, n_d=0, state_lb=None, state_ub=None,
                 control_lb=None, control_ub=None, param_lb=None, param_ub=None):
        super().__init__()
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.n_x = n_x
        self.n_u = n_u
        self.n_p = n_p
        self.n_d = n_d
        self.horizon = horizon
        if control_map is None and n_u:
            control_map = np.arange(horizon)
        self.control_map = np.asarray(control_map, dtype=int) if n_u else np.full(horizon, -1)
        n_ctrl_nodes = int(self.control_map.max() + 1) if n_u and self.control_map.max() >= 0 else 0
        self.n_control_nodes = n_ctrl_nodes

        def tile(bound, none_val, count, dim):
            if bound is None:
                return np.full(count * dim, none_val)
            bound = np.asarray(bound, dtype=float)
            if bound.shape == (dim,):
                return np.tile(bound, count)
            return bound.ravel()

        self.add_block("x", (horizon + 1) * n_x,
                       tile(state_lb, -np.inf, horizon + 1, n_x),
                       tile(state_ub, np.inf, horizon + 1, n_x))
        if n_u and n_ctrl_nodes:
            self.add_block("u", n_ctrl_nodes * n_u,
                           tile(control_lb, -np.inf, n_ctrl_nodes, n_u),
                           tile(control_ub, np.inf, n_ctrl_nodes, n_u))
        if n_p:
            self.add_block("p", n_p, param_lb, param_ub)
        if n_d:
            self.add_block("d", horizon * n_d)
        self.gap_group = ShootingGapGroup(self, dynamics, n_x, horizon, n_u,
                                          self.control_map, n_p, n_d)
        self.eq_groups.append(self.gap_group)

    @property
    def n_state_nodes(self):
        return self.horizon + 1

    def x_index(self, node, entry=0):
        return self.block("x").offset + node * self.n_x + entry

    def u_index(self, ctrl_node, entry=0):
        return self.block("u").offset + ctrl_node * self.n_u + entry

    def set_state_guess(self, xs):
        self.set_initial_guess("x", np.asarray(xs, dtype=float).ravel())

    def pin_state(self, node, entries, values):
        blk = self.block("x")
        for e, v in zip(entries, np.atleast_1d(values)):
            i = node * self.n_x + e
            blk.lb[i] = blk.ub[i] = v
            blk.x0[i] = v


def transcribe_shooting(dynamics, n_x, horizon, **kwargs):
    """Build a multiple-shooting NLP skeleton (states, controls, gaps, bounds)."""
    return ShootingProblem(dynamics, n_x, horizon, **kwargs)


# ---------------------------------------------------------------------------
# derivative checking


@dataclass
class DerivativeReport:
    max_abs_error: float
    max_rel_error: float
    worst_entry: tuple

    def ok(self, tol):
        return self.max_rel_error < tol


def check_derivatives(fn, jac_fn, point, eps=1e-6):
    """Central finite differences against a supplied Jacobian.

    ``fn(z) -> array``, ``jac_fn(z) -> (m, n) array-like``. Returns the worst
    entrywise error; the relative error is measured against the larger of
    the FD estimate magnitude and 1.
    """
    z = np.asarray(point, dtype=float)
    jac = jac_fn(z)
    if sp.issparse(jac):
        jac = jac.toarray()
    jac = np.asarray(jac, dtype=float)
    n = z.shape[0]
    worst = (0, 0)
    max_abs = 0.0
    max_rel = 0.0
    for i in range(n):
        dz = np.zeros(n)
        dz[i] = eps
        fd = (np.asarray(fn(z + dz), dtype=float) - np.asarray(fn(z - dz), dtype=float)) / (2 * eps)
        err = np.abs(jac[:, i] - fd)
        rel = err / np.maximum(np.abs(fd), 1.0)
        j = int(np.argmax(rel))
        if rel[j] > max_rel:
            max_rel = float(rel[j])
            max_abs = float(err[j])
            worst = (j, i)
    return DerivativeReport(max_abs, max_rel, worst)
