"""Convex QP solver: primal-dual active set on a regularized sparse KKT.

Solves ``min 1/2 x'Px + q'x  s.t.  Ax = b, Gx <= h`` for strictly convex P.
Each iteration treats the working set as equalities, factorizes the
quasi-definite KKT system with a sparse LU and updates the set from primal
violations and dual signs simultaneously (Hintermüller, Ito & Kunisch,
SIAM J. Optim. 13(3), 2002). Iterative refinement removes the effect of the
dual regularization. On inconsistent equalities the regularized KKT settles
on a least-squares point; a settled working set whose equality residual is
past ``TOL_EQ`` ends the call ``infeasible``. On degenerate QPs the method
has no convergence guarantee and may cycle; ``max_iter`` ends such a call
with status ``max-iter``, and the caller hands the QP to ``solve_qp_ipm``.
Warm starting with a previous working set makes repeated solves (SQP,
learning iterations) cheap.

``solve_qp_ipm`` starts from one affine-scaling step away from a fixed
point (Nocedal & Wright, Numerical Optimization, 2nd ed., §16.6): x and
the equality multipliers take it in full, and each slack and inequality
multiplier becomes ``max(1, |v + dv|)``. That costs one factorization and
saves several iterations.

The KKT factorization uses static pivoting with iterative refinement
(Li & Demmel, ACM TOMS 29(2), 2003). It first factors with diagonal
pivots in SuperLU's default COLAMD column order; on the estimation KKT
this keeps the fill about 15 times smaller than partial pivoting does.
The solution is refined against the unregularized system until the
residual stops halving, at most ``REFINE_MAX`` times. It is kept only if
it is finite and its normwise backward error is at most ``BACKWARD_TOL``.
Otherwise the system is factored again with partial pivoting and refined
``REFINE_STEPS`` times, and the rest of that ``solve_qp`` call uses partial
pivoting: diagonal pivots break down on the active-set KKT of an OCP
without l1 terms (one with them goes to ``solve_qp_ipm``), and one wasted
factorization per call is cheaper than one per iteration.
``solve_qp_ipm`` always uses partial pivoting, refined ``REFINE_STEPS``
times against the unregularized reduced KKT.

No KKT is assembled block by block per solve. Both solvers' KKTs have one
form and one structure (:class:`_Kkt`): ``[[P + G' W G, B'], [B, -REG I]]``
with B = [A; Gw] and no G for the active set's working set w, and B = A
and the barrier weights W for the interior point. A :class:`KktWorkspace`,
one per SQP solve, keeps each KKT's pattern and index map while the QPs
keep the patterns of P, A and G: the active set's KKT of its last working
set, stored in the natural order and refilled through its map, and the
interior point's reduced KKT, whose values each barrier weight refills
through its map, stored in the column order (COLAMD) that its first
factorization picked; every later factorization, in this QP and the
solve's later ones, reuses that order. A QP solved without a workspace
makes a fresh one.
"""
from __future__ import annotations

import ctypes
import platform
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

REFINE_MAX = 10        # refinement steps after a diagonal-pivot factorization
BACKWARD_TOL = 1e-14   # normwise backward error a diagonal-pivot solve must reach
REFINE_STEPS = 2       # refinement steps after a partial-pivoting factorization
TOL_PRIMAL = 1e-10     # inequality violation that adds a row to the working set
TOL_DUAL = 1e-10       # negative multiplier that drops a row from the working set
TOL_EQ = 1e-8          # equality residual, relative to 1 + max|b|, of a settled working set
REG = 1e-11            # dual regularization of the KKT systems
IPM_MAX_ITER = 150     # interior-point iteration budget
IPM_TOL = 1e-11        # interior-point residual and gap tolerance, relative to the data

# SuperLU sizes its L and U workspace from a fill estimate: tens of MB, of
# which one factorization touches a few. glibc raises its mmap threshold to
# the size of each mapped block it frees, so later workspaces come from the
# heap, and the pages they touch land wherever earlier allocations left room:
# the 7-DOF plan's peak resident memory ranged from 75 to 90 MB from one
# process to the next. Fixed thresholds give each block of 2 MiB or more a
# mapping of its own, returned when freed, and keep at most 8 MiB free at the
# top of the heap (mallopt's M_TRIM_THRESHOLD is -1, M_MMAP_THRESHOLD -3).
if platform.libc_ver()[0] == "glibc":
    for _param, _nbytes in ((-1, 8 << 20), (-3, 2 << 20)):
        ctypes.CDLL(None).mallopt(_param, _nbytes)


@dataclass
class QpSolution:
    x: np.ndarray
    eq_duals: np.ndarray
    ineq_duals: np.ndarray
    duality_gap: float
    primal_infeasibility: float
    status: str                  # converged | max-iter | factorization-failed | infeasible
    iterations: int
    working_set: np.ndarray      # boolean mask over inequality rows


def pattern_of(mat):
    """The positions a compressed sparse matrix stores entries at: its shape and index arrays."""
    return mat.shape, mat.indptr, mat.indices


def same_pattern(mat, pattern):
    """Whether ``mat`` stores its entries at the positions of ``pattern`` (:func:`pattern_of`)."""
    shape, indptr, indices = pattern
    return mat.shape == shape and all(
        x is y or np.array_equal(x, y) for x, y in ((mat.indptr, indptr), (mat.indices, indices)))


class KktWorkspace:
    """The KKT structures of one SQP solve's QPs, kept while the QPs keep their patterns.

    Both solvers' KKTs are :class:`_Kkt`. The active set keeps the one of
    its last working set, the interior point its reduced KKT with the column
    order of that KKT's first factorization. Both are dropped when a QP's
    P, A or G stores its entries elsewhere than the last QP's. A QP solved
    without a workspace makes a fresh one.
    """

    def __init__(self):
        self.patterns = None         # those of the last QP's P, A and G
        self.active = None           # (working set, its _Kkt)
        self.reduced = None          # the interior point's _Kkt

    def keep(self, p_mat, a_eq, g_ineq):
        """Take the next QP's matrices, dropping the structures their patterns no longer fit."""
        mats = (p_mat, a_eq, g_ineq)
        if self.patterns is None or not all(map(same_pattern, mats, self.patterns)):
            self.active = self.reduced = None
        self.patterns = [pattern_of(m) for m in mats]

    def active_kkt(self, p_mat, a_eq, g_ineq, active):
        """The active-set KKT of working set ``active``, filled from P, A and G."""
        key, no_g = active.tobytes(), g_ineq[:0]
        b_mat = sp.vstack([a_eq, g_ineq[active]], format="csr")
        if self.active is None or self.active[0] != key:
            self.active = (key, _Kkt(p_mat, b_mat, no_g))
        else:
            self.active[1].refill(p_mat, b_mat, no_g)
        return self.active[1].matrix(np.zeros(0))

    def reduced_kkt(self, p_mat, a_eq, g_ineq):
        """The interior point's reduced KKT, refilled from P, A and G."""
        if self.reduced is None:
            self.reduced = _Kkt(p_mat, a_eq, g_ineq)
        else:
            self.reduced.refill(p_mat, a_eq, g_ineq)
        return self.reduced


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


def _scaled(p_mat, q, a_eq, b_eq, g_ineq, h_ineq):
    """Cost-scaled data (solution invariant, duals unscaled on return), absent blocks empty."""
    n = q.shape[0]
    cost_scale = max(1.0, float(np.max(np.abs(q))) / 10.0) if q.size else 1.0
    a_eq, b_eq = ((sp.csr_matrix((0, n)), np.zeros(0)) if a_eq is None
                  else (sp.csr_matrix(a_eq), np.asarray(b_eq, dtype=float)))
    g_ineq, h_ineq = ((sp.csr_matrix((0, n)), np.zeros(0)) if g_ineq is None
                      else (sp.csr_matrix(g_ineq), np.asarray(h_ineq, dtype=float)))
    p_mat = sp.csc_matrix(p_mat) / cost_scale
    return cost_scale, p_mat, q / cost_scale, a_eq, b_eq, g_ineq, h_ineq


def _solution(scaled, x, nu, mu, status, it, active):
    """The solution at ``x`` with the duals unscaled, and its primal
    infeasibility and duality gap ``|mu'(Gx-h)| + |nu'(Ax-b)|``."""
    cost_scale, _, _, a_eq, b_eq, g_ineq, h_ineq = scaled
    nu, mu = nu * cost_scale, mu * cost_scale
    r_eq = a_eq @ x - b_eq
    slack = g_ineq @ x - h_ineq
    p_inf = max(float(np.max(np.abs(r_eq), initial=0.0)), float(np.max(slack, initial=0.0)))
    gap = abs(float(mu @ slack)) + abs(float(nu @ r_eq))
    return QpSolution(x, nu, mu, gap, p_inf, status, it, active)


def solve_qp(p_mat, q, a_eq=None, b_eq=None, g_ineq=None, h_ineq=None, *,
             working_set=None, max_iter=200, workspace=None):
    """Primal-dual active-set solve; see module docstring.

    ``working_set`` warm-starts the active inequality mask. The returned
    duality gap is ``|mu'(Gx-h)| + |nu'(Ax-b)|`` (zero at an exact solution).
    ``workspace``, a :class:`KktWorkspace`, carries the KKT map of the last
    working set from one call to the next.
    """
    n = q.shape[0]
    scaled = _scaled(p_mat, q, a_eq, b_eq, g_ineq, h_ineq)
    _, p_mat, q, a_eq, b_eq, g_ineq, h_ineq = scaled
    me, mi = a_eq.shape[0], g_ineq.shape[0]
    workspace = workspace or KktWorkspace()
    workspace.keep(p_mat, a_eq, g_ineq)

    active = np.zeros(mi, dtype=bool)
    if working_set is not None and working_set.shape == (mi,):
        active = working_set.copy()

    x = np.zeros(n)
    nu = np.zeros(me)
    mu = np.zeros(mi)

    diag_pivots = True

    a_t = a_eq.T

    def kkt_solve(act):
        nonlocal diag_pivots
        g_act = g_ineq[act]
        g_t, ma = g_act.T, g_act.shape[0]
        kkt = workspace.active_kkt(p_mat, a_eq, g_ineq, act)
        rhs = np.concatenate([-q, b_eq, h_ineq[act]])

        def residual(sol):
            # of the unregularized system, so refinement removes the -REG blocks
            xx = sol[:n]
            vv = sol[n:n + me]
            ww = sol[n + me:]
            r1 = -q - (p_mat @ xx + (a_t @ vv if me else 0) + (g_t @ ww if ma else 0))
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
        for _ in range(REFINE_STEPS):
            sol = sol + lu.solve(residual(sol))
        if not np.all(np.isfinite(sol)):
            return None
        return sol

    status = "max-iter"
    it = 0
    for it in range(1, max_iter + 1):
        sol = kkt_solve(active)
        if sol is None:
            return QpSolution(x, nu, mu, np.inf, np.inf,
                              "factorization-failed", it, active)
        x = sol[:n]
        nu = sol[n:n + me]
        mu = np.zeros(mi)
        mu[active] = sol[n + me:]

        slack = g_ineq @ x - h_ineq if mi else np.zeros(0)
        violated = (~active) & (slack > TOL_PRIMAL)
        negative = active & (mu < -TOL_DUAL)
        if not violated.any() and not negative.any():
            # the regularized KKT solves inconsistent equalities in a least-squares
            # sense; a residual left past the tolerance means there is no feasible point
            r_eq = float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0))
            feasible = r_eq <= TOL_EQ * (1.0 + float(np.max(np.abs(b_eq), initial=0.0)))
            status = "converged" if feasible else "infeasible"
            break

        active = (active & ~negative) | violated

    return _solution(scaled, x, nu, np.maximum(mu, 0.0), status, it, active)


class _Kkt:
    """The KKT ``[[P + G' W G, B'], [B, -REG I]]`` for every W.

    The interior point's reduced KKT has B = A, the QP's G and its barrier
    weights W. The active set's KKT of working set w,
    ``[[P, A', Gw'], [A, -REG I, 0], [Gw, 0, -REG I]]``, has B = [A; Gw]
    and no G. The pattern is the structural union of P, the pairs of stored
    entries of each row of G, B', B and the -REG diagonal, explicit zeros
    included. It is assembled once, with index maps from the entries of P
    and B, and from the products ``G_ij W_i G_ik``, to the stored entries:
    new values of P, B and G refill the part without W (:meth:`refill`),
    and each W adds the products with one ``bincount`` (:meth:`matrix`).
    The interior point's first factorization (:meth:`factor`) keeps
    SuperLU's COLAMD column order; the pattern is then stored in that order,
    and later factorizations, of this QP and of later ones, take it as it
    is. Between QPs it holds only its pattern and maps (:meth:`release`).
    The active set factors :meth:`matrix` itself, in the natural order.
    """

    def __init__(self, p_mat, b_mat, g_ineq):
        n, mb = p_mat.shape[0], b_mat.shape[0]
        self.n = n
        # the pairs (a, b) of stored entries of each row of G, as offsets into its data:
        # entry a pairs with every entry of its row, from the row's first on
        counts = np.diff(g_ineq.indptr)
        reps = np.repeat(counts, counts)
        starts = np.cumsum(reps) - reps
        self.pair_a = np.repeat(np.arange(g_ineq.nnz, dtype=np.int32), reps)
        self.pair_b = (np.repeat(np.repeat(g_ineq.indptr[:-1], counts) - starts, reps)
                       + np.arange(self.pair_a.size)).astype(np.int32)
        self.pair_row = np.repeat(np.repeat(np.arange(counts.size, dtype=np.int32), counts), reps)
        # every entry's position: P's, B's, B''s, the diagonal's, then the pairs'
        p, b = p_mat.tocoo(), b_mat.tocoo()
        diag = n + np.arange(mb)
        rows = np.concatenate([p.row, n + b.row, b.col, diag, g_ineq.indices[self.pair_a]])
        cols = np.concatenate([p.col, b.col, n + b.row, diag, g_ineq.indices[self.pair_b]])
        keys, slots = np.unique(cols.astype(np.int64) * (n + mb) + rows, return_inverse=True)
        n_base = rows.size - self.pair_a.size
        slots = slots.astype(np.int32)
        self.base_slots, self.slots = slots[:n_base], slots[n_base:]
        self.dim = n + mb
        ptr = np.searchsorted(keys, np.arange(self.dim + 1) * self.dim)
        pattern = sp.csc_matrix((np.zeros(keys.size), keys % self.dim, ptr),
                                shape=(self.dim, self.dim))
        self.pattern = pattern.indices, pattern.indptr
        self.perm = None     # the column order of the stored pattern, None while natural
        self.mat = self.lu = None
        self.refill(p_mat, b_mat, g_ineq)

    def refill(self, p_mat, b_mat, g_ineq):
        """Take new values of P, B and G, in the patterns the map was made for."""
        self.g = g_ineq
        self.base = np.bincount(
            self.base_slots, np.concatenate([p_mat.data, b_mat.data, b_mat.data,
                                             np.full(b_mat.shape[0], -REG)]),
            minlength=self.pattern[0].size)

    def matrix(self, w):
        """The KKT with barrier weights ``w``, in the stored column order."""
        gd = self.g.data
        products = gd[self.pair_a] * (gd[self.pair_b] * w[self.pair_row])
        return sp.csc_matrix(
            (self.base + np.bincount(self.slots, products, minlength=self.base.size),
             *self.pattern), shape=(self.dim, self.dim))

    def _take_order(self):
        """Once factored in the natural order, store column j at position ``perm_c[j]``
        of that factorization, moving the maps along."""
        if self.lu is None or self.perm is not None:
            return
        perm_c = self.lu.perm_c
        mat = sp.csc_matrix((np.arange(self.pattern[0].size, dtype=float), *self.pattern),
                            shape=(self.dim, self.dim))[:, np.argsort(perm_c)]
        order = mat.data.astype(np.int32)        # each stored entry's place before
        moved = np.empty_like(order)
        moved[order] = np.arange(order.size, dtype=np.int32)
        self.base_slots, self.slots = moved[self.base_slots], moved[self.slots]
        self.base = self.base[order]
        self.pattern, self.perm = (mat.indices, mat.indptr), perm_c

    def release(self):
        """Free what the next QP refills: the KKT, its values and its factors, whose order
        is kept."""
        self._take_order()
        self.mat = self.lu = self.base = self.g = None

    def factor(self, w):
        """Refill with the barrier weights ``w`` and factor (partial pivoting)."""
        self._take_order()
        self.mat = self.matrix(w)
        self.lu = None       # freed before the next one is made
        self.lu = splu(self.mat) if self.perm is None else splu(self.mat, permc_spec="NATURAL")

    def solve(self, rhs):
        """Solve, refined ``REFINE_STEPS`` times against the unregularized KKT."""
        def unpermuted(v):
            return v if self.perm is None else v[self.perm]

        sol = self.lu.solve(rhs)
        for _ in range(REFINE_STEPS):
            r = rhs - self.mat @ sol
            r[self.n:] -= REG * unpermuted(sol)[self.n:]
            sol = sol + self.lu.solve(r)
        return unpermuted(sol)


@np.errstate(all="ignore")  # overflow on an infeasible QP is caught as non-finite values
def solve_qp_ipm(p_mat, q, a_eq=None, b_eq=None, g_ineq=None, h_ineq=None, *, workspace=None):
    """Primal-dual interior-point QP solve (Mehrotra predictor-corrector).

    Robust where the active-set method cannot settle: degenerate QPs such
    as l1 slack pairs with both slacks at zero. Eliminates the inequality
    block, so the factorized system stays at ``n + m_eq``; its barrier
    weights ``mu / s`` are not clipped, and each Newton solve is refined.
    The reduced KKT keeps one pattern and column order for the whole call,
    and for later calls through the same ``workspace`` (:class:`_Kkt`);
    the call's first factorization serves the affine-scaling start (module
    docstring). Stops when the dual, equality and inequality
    residuals (max-norm) and the mean complementarity ``s'mu / m_ineq`` are
    all below ``IPM_TOL`` times ``1 + max(|q|, |h|, |b|)`` of the
    cost-scaled data. On an infeasible QP it stops at its last finite
    iterate and says so.
    """
    n = q.shape[0]
    scaled = _scaled(p_mat, q, a_eq, b_eq, g_ineq, h_ineq)
    cost_scale, p_mat, q, a_eq, b_eq, g_ineq, h_ineq = scaled
    me, mi = a_eq.shape[0], g_ineq.shape[0]
    if mi == 0:
        return solve_qp(p_mat * cost_scale, q * cost_scale, a_eq, b_eq, workspace=workspace)
    workspace = workspace or KktWorkspace()
    workspace.keep(p_mat, a_eq, g_ineq)

    x = np.zeros(n)
    nu = np.zeros(me)
    s = np.maximum(h_ineq - g_ineq @ x, 1.0)
    mu = np.full(mi, max(0.1, min(10.0, float(np.mean(np.abs(q))) if q.size else 1.0)))
    scale = 1.0 + max(float(np.max(np.abs(q))), float(np.max(np.abs(h_ineq))),
                      float(np.max(np.abs(b_eq), initial=0.0)))
    kkt = workspace.reduced_kkt(p_mat, a_eq, g_ineq)

    status = "max-iter"
    it = 0
    # iteration 0 moves the start: one affine-scaling step from the point above
    for it in range(IPM_MAX_ITER + 1):
        r_d = p_mat @ x + q + a_eq.T @ nu + g_ineq.T @ mu
        r_p = a_eq @ x - b_eq
        r_g = g_ineq @ x + s - h_ineq
        gap = float(s @ mu) / mi

        if (it and max(np.max(np.abs(r_d)), np.max(np.abs(r_g)),
                       np.max(np.abs(r_p), initial=0.0)) < IPM_TOL * scale
                and gap < IPM_TOL * scale):
            status = "converged"
            break

        w = mu / s
        if not np.all(np.isfinite(w)):
            break  # s underflowed: the unclipped weights overflow on an infeasible QP
        try:
            kkt.factor(w)
        except RuntimeError:
            return QpSolution(x, nu, mu, np.inf, np.inf,
                              "factorization-failed", it, np.zeros(mi, dtype=bool))

        def solve_dir(sig_mu, ds_prod):
            # rhs folded from the eliminated (s, mu) blocks
            rc = -(s * mu) + sig_mu - ds_prod
            sol = kkt.solve(np.concatenate([-r_d - g_ineq.T @ (rc / s + w * r_g), -r_p]))
            dx, dnu = sol[:n], sol[n:]
            ds = -(r_g + g_ineq @ dx)
            dmu = (rc - mu * ds) / s
            return dx, dnu, ds, dmu

        # predictor
        dx, dnu, ds, dmu = solve_dir(0.0, 0.0)
        if it == 0:
            # full step in x and nu; s and mu keep their new magnitudes, at least 1
            if all(np.all(np.isfinite(v)) for v in (dx, dnu, ds, dmu)):
                x, nu = x + dx, nu + dnu
                s, mu = np.maximum(np.abs(s + ds), 1.0), np.maximum(np.abs(mu + dmu), 1.0)
            continue

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
        if not all(np.all(np.isfinite(v)) for v in (dx, dnu, ds, dmu)):
            break  # keep the last finite iterate
        alpha_p = min(0.995 * step_len(s, ds), 1.0)
        alpha_d = min(0.995 * step_len(mu, dmu), 1.0)
        x += alpha_p * dx
        s += alpha_p * ds
        nu += alpha_d * dnu
        mu += alpha_d * dmu

    kkt.release()            # the workspace keeps the KKT's maps for the next QP
    sol = _solution(scaled, x, nu, mu, status, it,
                    g_ineq @ x - h_ineq > -1e-8 * (1.0 + np.abs(h_ineq)))
    if status != "converged" and sol.primal_infeasibility > 1e-7 and sol.duality_gap > 1e6:
        # stalled primal residual with exploding duals: no feasible point
        sol.status = "infeasible"
    return sol
