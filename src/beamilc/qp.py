"""Convex QP solver: primal-dual active set on a regularized sparse KKT.

Solves ``min 1/2 x'Px + q'x  s.t.  Ax = b, Gx <= h`` for strictly convex P.
Each iteration treats the working set as equalities, factorizes the
quasi-definite KKT system with a sparse LU and updates the set from primal
violations and dual signs simultaneously. Iterative refinement removes the
effect of the dual regularization, and a cycle guard falls back to
single-exchange updates. Warm starting with a previous working set makes
repeated solves (SQP, learning iterations) cheap.

The KKT factorization uses static pivoting with iterative refinement
(Li & Demmel, ACM TOMS 29(2), 2003). It first factors with diagonal
pivots in SuperLU's default COLAMD column order; on the estimation KKT
this keeps the fill about 15 times smaller than partial pivoting does.
The solution is refined against the unregularized system until the
residual stops halving, at most ``REFINE_MAX`` times. It is kept only if
it is finite and its normwise backward error is at most ``BACKWARD_TOL``.
Otherwise the system is factored again with partial pivoting and refined
``refine_steps`` times, and the rest of that ``solve_qp`` call uses partial
pivoting: diagonal pivots break down on the OCP's active-set KKT, and one
wasted factorization per call is cheaper than one per iteration.
``solve_qp_ipm`` always uses partial pivoting.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

REFINE_MAX = 10        # refinement steps after a diagonal-pivot factorization
BACKWARD_TOL = 1e-14   # normwise backward error a diagonal-pivot solve must reach


@dataclass
class QpSolution:
    x: np.ndarray
    eq_duals: np.ndarray
    ineq_duals: np.ndarray
    objective: float
    duality_gap: float
    primal_infeasibility: float
    status: str                  # converged | max-iter | factorization-failed
    iterations: int
    working_set: np.ndarray      # boolean mask over inequality rows


def _static_pivot_solve(kkt, rhs, residual):
    """Solve with diagonal pivots, refining until the residual stops halving.

    Returns None when the factorization breaks down or the refined solution
    is not finite or not backward stable to ``BACKWARD_TOL``.
    """
    try:
        lu = splu(kkt, diag_pivot_thresh=0.0)
    except RuntimeError:
        return None
    # a broken-down factorization blows up; the checks below reject it
    with np.errstate(over="ignore", invalid="ignore"):
        sol = lu.solve(rhs)
        if not np.all(np.isfinite(sol)):
            return None
        r = residual(sol)
        r_norm = np.max(np.abs(r), initial=0.0)
        for _ in range(REFINE_MAX):
            trial = sol + lu.solve(r)
            r_trial = residual(trial)
            t_norm = np.max(np.abs(r_trial), initial=0.0)
            if not t_norm < r_norm:
                break
            halved = t_norm <= 0.5 * r_norm
            sol, r, r_norm = trial, r_trial, t_norm
            if not halved:
                break
        k_norm = np.max(np.asarray(abs(kkt).sum(axis=1)), initial=0.0)
        scale = k_norm * np.max(np.abs(sol), initial=0.0) + np.max(np.abs(rhs), initial=0.0)
    return sol if r_norm <= BACKWARD_TOL * scale else None


def solve_qp(p_mat, q, a_eq=None, b_eq=None, g_ineq=None, h_ineq=None, *,
             working_set=None, max_iter=200, tol_primal=1e-10, tol_dual=1e-10,
             reg=1e-11, refine_steps=2):
    """Primal-dual active-set solve; see module docstring.

    ``working_set`` warm-starts the active inequality mask. The returned
    duality gap is ``|mu'(Gx-h)| + |nu'(Ax-b)|`` (zero at an exact solution).
    """
    n = q.shape[0]
    # uniform objective scaling; solution invariant, duals unscaled on return
    cost_scale = max(1.0, float(np.max(np.abs(q))) / 10.0) if q.size else 1.0
    q = q / cost_scale
    p_mat = sp.csc_matrix(p_mat) / cost_scale
    if a_eq is None:
        a_eq = sp.csr_matrix((0, n))
        b_eq = np.zeros(0)
    else:
        a_eq = sp.csr_matrix(a_eq)
        b_eq = np.asarray(b_eq, dtype=float)
    if g_ineq is None:
        g_ineq = sp.csr_matrix((0, n))
        h_ineq = np.zeros(0)
    else:
        g_ineq = sp.csr_matrix(g_ineq)
        h_ineq = np.asarray(h_ineq, dtype=float)
    me, mi = a_eq.shape[0], g_ineq.shape[0]

    active = np.zeros(mi, dtype=bool)
    if working_set is not None and working_set.shape == (mi,):
        active = working_set.copy()

    seen = set()
    cautious = False
    x = np.zeros(n)
    nu = np.zeros(me)
    mu = np.zeros(mi)

    diag_pivots = True

    def kkt_solve(act):
        nonlocal diag_pivots
        g_act = g_ineq[act]
        ma = g_act.shape[0]
        kkt = sp.bmat([
            [p_mat, a_eq.T if me else None, g_act.T if ma else None],
            [a_eq if me else None, -reg * sp.identity(me) if me else None, None],
            [g_act if ma else None, None, -reg * sp.identity(ma) if ma else None],
        ], format="csc")
        rhs = np.concatenate([-q, b_eq, h_ineq[act]])

        def residual(sol):
            # of the unregularized system, so refinement removes the -reg blocks
            xx = sol[:n]
            vv = sol[n:n + me]
            ww = sol[n + me:]
            r1 = -q - (p_mat @ xx + (a_eq.T @ vv if me else 0) + (g_act.T @ ww if ma else 0))
            r2 = b_eq - (a_eq @ xx if me else np.zeros(0))
            r3 = h_ineq[act] - (g_act @ xx if ma else np.zeros(0))
            return np.concatenate([r1, r2, r3])

        if diag_pivots:
            sol = _static_pivot_solve(kkt, rhs, residual)
            if sol is not None:
                return sol
            diag_pivots = False
        try:
            lu = splu(kkt)
        except RuntimeError:
            return None
        sol = lu.solve(rhs)
        for _ in range(refine_steps):
            sol = sol + lu.solve(residual(sol))
        if not np.all(np.isfinite(sol)):
            return None
        return sol

    status = "max-iter"
    it = 0
    for it in range(1, max_iter + 1):
        sol = kkt_solve(active)
        if sol is None:
            return QpSolution(x, nu, mu, np.inf, np.inf, np.inf,
                              "factorization-failed", it, active)
        x = sol[:n]
        nu = sol[n:n + me]
        mu = np.zeros(mi)
        mu[active] = sol[n + me:]

        slack = g_ineq @ x - h_ineq if mi else np.zeros(0)
        violated = (~active) & (slack > tol_primal)
        negative = active & (mu < -tol_dual)
        if not violated.any() and not negative.any():
            status = "converged"
            break

        key = active.tobytes()
        if key in seen and not cautious:
            cautious = True
        seen.add(key)

        if cautious:
            # single exchange: worst violation first, else worst dual
            if violated.any():
                j = np.flatnonzero(violated)[np.argmax(slack[violated])]
                active[j] = True
            else:
                j = np.flatnonzero(negative)[np.argmin(mu[negative])]
                active[j] = False
        else:
            active = (active & ~negative) | violated

    mu = np.maximum(mu, 0.0) * cost_scale
    nu = nu * cost_scale
    obj = cost_scale * (0.5 * float(x @ (p_mat @ x)) + float(q @ x))
    slack = g_ineq @ x - h_ineq if mi else np.zeros(0)
    p_inf = 0.0
    if me:
        p_inf = max(p_inf, float(np.max(np.abs(a_eq @ x - b_eq))))
    if mi:
        p_inf = max(p_inf, float(max(np.max(slack), 0.0)))
    gap = abs(float(mu @ slack)) if mi else 0.0
    if me:
        gap += abs(float(nu @ (a_eq @ x - b_eq)))
    return QpSolution(x, nu, mu, obj, gap, p_inf, status, it, active)


def solve_qp_ipm(p_mat, q, a_eq=None, b_eq=None, g_ineq=None, h_ineq=None, *,
                 max_iter=150, tol=1e-9, reg=1e-11):
    """Primal-dual interior-point QP solve (Mehrotra predictor-corrector).

    Robust on LP-like instances where the active-set method cannot settle
    (near-singular Hessian with heavy linear terms). Eliminates the
    inequality block, so the factorized system stays at ``n + m_eq``.
    """
    n = q.shape[0]
    cost_scale = max(1.0, float(np.max(np.abs(q))) / 10.0) if q.size else 1.0
    q = q / cost_scale
    p_mat = sp.csc_matrix(p_mat) / cost_scale
    if a_eq is None:
        a_eq = sp.csr_matrix((0, n))
        b_eq = np.zeros(0)
    else:
        a_eq = sp.csr_matrix(a_eq)
        b_eq = np.asarray(b_eq, dtype=float)
    if g_ineq is None:
        g_ineq = sp.csr_matrix((0, n))
        h_ineq = np.zeros(0)
    else:
        g_ineq = sp.csr_matrix(g_ineq)
        h_ineq = np.asarray(h_ineq, dtype=float)
    me, mi = a_eq.shape[0], g_ineq.shape[0]
    if mi == 0:
        return solve_qp(p_mat * cost_scale, q * cost_scale,
                        a_eq if me else None, b_eq if me else None)

    x = np.zeros(n)
    nu = np.zeros(me)
    s = np.maximum(h_ineq - g_ineq @ x, 1.0)
    mu = np.full(mi, max(0.1, min(10.0, float(np.mean(np.abs(q))) if q.size else 1.0)))
    scale = 1.0 + max(float(np.max(np.abs(q))), float(np.max(np.abs(h_ineq))) if mi else 0.0,
                      float(np.max(np.abs(b_eq))) if me else 0.0)

    status = "max-iter"
    it = 0
    for it in range(1, max_iter + 1):
        r_d = p_mat @ x + q + (a_eq.T @ nu if me else 0) + g_ineq.T @ mu
        r_p = (a_eq @ x - b_eq) if me else np.zeros(0)
        r_g = g_ineq @ x + s - h_ineq
        gap = float(s @ mu) / mi

        if (max(np.max(np.abs(r_d)), np.max(np.abs(r_g)),
                np.max(np.abs(r_p)) if me else 0.0) < tol * scale and gap < tol * scale):
            status = "converged"
            break

        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(mu))
                and np.all(np.isfinite(x))):
            status = "max-iter"
            break
        w = np.clip(mu / np.maximum(s, 1e-300), 1e-12, 1e14)
        gw = g_ineq.multiply(w[:, None]) if mi else None
        p_aug = (p_mat + g_ineq.T @ gw).tocsc() if mi else p_mat
        kkt = sp.bmat([
            [p_aug, a_eq.T if me else None],
            [a_eq if me else None, -reg * sp.identity(me) if me else None],
        ], format="csc") if me else p_aug.tocsc()
        try:
            lu = splu(kkt)
        except RuntimeError:
            return QpSolution(x, nu, mu, np.inf, np.inf, np.inf,
                              "factorization-failed", it, np.zeros(mi, dtype=bool))

        def solve_dir(sig_mu, ds_prod):
            # rhs folded from the eliminated (s, mu) blocks
            rc = -(s * mu) + sig_mu - ds_prod
            rhs_x = -r_d - g_ineq.T @ (rc / s + w * r_g)
            rhs = np.concatenate([rhs_x, -r_p]) if me else rhs_x
            sol = lu.solve(rhs)
            dx = sol[:n]
            dnu = sol[n:] if me else np.zeros(0)
            ds = -(r_g + g_ineq @ dx)
            dmu = (rc - mu * ds) / s
            return dx, dnu, ds, dmu

        # predictor
        dx, dnu, ds, dmu = solve_dir(0.0, 0.0)

        def step_len(v, dv):
            neg = dv < 0
            if not neg.any():
                return 1.0
            return min(1.0, float(np.min(-v[neg] / dv[neg])))

        alpha_aff = min(step_len(s, ds), step_len(mu, dmu))
        gap_aff = float((s + alpha_aff * ds) @ (mu + alpha_aff * dmu)) / mi
        sigma = min(max((gap_aff / gap) ** 3, 1e-8), 1.0) if gap > 0 else 0.1

        # corrector, separate primal and dual step lengths
        dx, dnu, ds, dmu = solve_dir(sigma * gap, ds * dmu)
        alpha_p = min(0.995 * step_len(s, ds), 1.0)
        alpha_d = min(0.995 * step_len(mu, dmu), 1.0)
        x += alpha_p * dx
        s += alpha_p * ds
        nu += alpha_d * dnu
        mu += alpha_d * dmu

    mu = mu * cost_scale
    nu = nu * cost_scale
    obj = cost_scale * (0.5 * float(x @ (p_mat @ x)) + float(q @ x))
    slack = g_ineq @ x - h_ineq
    p_inf = float(max(np.max(slack), 0.0))
    if me:
        p_inf = max(p_inf, float(np.max(np.abs(a_eq @ x - b_eq))))
    gap_total = abs(float(mu @ slack))
    if me:
        gap_total += abs(float(nu @ (a_eq @ x - b_eq)))
    active = slack > -1e-8 * (1.0 + np.abs(h_ineq))
    if status != "converged" and p_inf > 1e-7 and gap_total > 1e6:
        # stalled primal residual with exploding duals: no feasible point
        status = "infeasible"
    return QpSolution(x, nu, mu, obj, gap_total, p_inf, status, it, active)
