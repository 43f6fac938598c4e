"""Shared optimization infrastructure.

Block-structured NLPs, the multiple-shooting gap group, and a Gauss-Newton
SQP with an exact-l1 merit line search, Levenberg damping and slack-exact
handling of linear l1 cost terms. The QP subproblems go through
:mod:`beamilc.qp`. A problem without l1 terms sends them to the active set
until one ends at its budget, then to the interior point. On a problem with
l1 terms, whose degenerate slack pairs can make the active set cycle, the
interior point solves each QP, unless one active-set iteration on the
working set of the solve's last converged QP, from either solver, converges
first: that is the QP's exact KKT point (solution polishing; Stellato et
al., Math. Prog. Comp. 12, 2020, §5.2). The check runs when that set has
the QP's number of inequality rows, so not on a solve's first QP or on its
first elastic one. An infeasible QP is re-solved in elastic form, with an
l1 slack pair of weight ``mu_merit`` on each linearized equality
(Fletcher's Sl1QP, 1985; SNOPT's elastic mode), and the rest of that solve
stays elastic; the predicted decrease then counts only the linearized
violation the step removes. A caller lays out its own blocks with :meth:`NlpProblem.add_block`, pins
variables through ``lb == ub`` in their bound arrays, and appends its own
groups, gap groups included.

Objective convention: ``0.5 * sum(r_i(z)^2) + sum(w_j |a_j' z - b_j|)``
over the stacked residual groups and l1 terms.

A group's ``eval`` takes one point (n,) or a stack of points (K, n) and
returns (dim,) or (K, dim); :meth:`L1Term.value` returns a float or one
value per row. Each row is its point's single evaluation, bit for bit. The
line search tries the step lengths 1, 1/2, 1/4, ... down to ``ALPHA_MIN``
in chunks (:func:`_trial_chunks`): the first holds as many trials as the
solve's last passing search took (1 until one passes), each later one
twice as many as the one before. A chunk's trial points are evaluated as
one stack, each row's merit reduced as a single point's is, and the first
trial in step order that passes Armijo is the step: the iterates, merit
history, Levenberg updates and statuses are those of a search that
evaluates one trial at a time, from fewer calls of the gap dynamics.

Every sparse pattern comes from an index map made once; later calls only
refill values. A shooting gap group maps each node's seed directions
``(x_k, u_k, p)`` to their columns in its constructor, and fixes there its
Jacobian's CSR pattern and the order in which each stored entry is
gathered from the dual's derivative. :func:`dual_group` seeds a fixed
column list, stores every entry of its dense block and fixes its pattern
the same way. :func:`solve` builds the stacked group Jacobians, and the
QP's constraint matrices from the linearized constraints over the constant
rows (pinned variables and l1 links; finite bounds and slack signs), by one
kind of stack of CSR parts: its pattern is made at the first iteration,
and later iterations only concatenate the parts' values. A stack is made
again when one of its parts changes its pattern: once when elastic mode
widens the QP's rows, and when a group's Jacobian changes its pattern.
One :class:`beamilc.qp.KktWorkspace` per solve carries the QPs' KKT maps
from one QP to the next. The explicit zeros of the dual Jacobians are
kept: they fix the KKT pattern, and with it the LU's fill and pivots.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import ad
from .qp import KktWorkspace, pattern_of, same_pattern, solve_qp, solve_qp_ipm

log = logging.getLogger("beamilc.nlp")

# deterministic QP effort counts in every NlpSolution.diagnostics
QP_EFFORT = ("qp_calls", "qp_as_at_budget", "qp_ipm_calls", "qp_elastic_calls",
             "qp_factorizations")

ARMIJO = 1e-4          # sufficient-decrease fraction of the line search
ALPHA_MIN = 1e-8       # smallest step length tried
LAM_MAX = 1e8          # ceiling of the Levenberg damping
QP_MAX_ITER = 15       # active-set budget; past it the interior point takes the rest of a solve
SLACK_REG = 1e-10      # Hessian diagonal on the l1 slack pairs


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


def _affine(a, b, z):
    """``a z - b`` at one point ``z`` (n,), or at each row of a stack (K, n) as C-ordered rows."""
    return np.ascontiguousarray((a @ z.T).T) - b


class LinearGroup:
    """Affine function ``A z - b`` usable as residual or constraint group."""

    def __init__(self, a_mat, b):
        self.a = sp.csr_matrix(a_mat)
        self.b = np.asarray(b, dtype=float)
        self.dim = self.a.shape[0]

    def eval(self, z):
        return _affine(self.a, self.b, z)

    def eval_with_jac(self, z):
        return self.a @ z - self.b, self.a


class CallableGroup:
    """Group from callables ``fn(z) -> r`` and ``fn_jac(z) -> (r, J_csr)``.

    ``fn`` takes a point (n,) or a stack of points (K, n) and returns
    (dim,) or (K, dim), as every group's ``eval`` does.
    """

    def __init__(self, dim, fn, fn_jac):
        self.dim = dim
        self._fn = fn
        self._fn_jac = fn_jac

    def eval(self, z):
        return self._fn(z)

    def eval_with_jac(self, z):
        return self._fn_jac(z)


def dual_group(dim, cols, fn):
    """Group ``fn(z[cols])`` whose Jacobian comes from seeding ``z[cols]``.

    ``fn`` maps a plain array to ``dim`` values and a dual to their dual,
    and a plain stack (K, len(cols)) to one row of values per point; every
    one of the ``dim x len(cols)`` entries is stored. The CSR pattern
    is fixed here: each row stores the distinct ``cols`` in ascending
    order, and a call gathers the dual's dot into it.
    """
    cols = np.asarray(cols)
    if np.unique(cols).size != cols.size:
        raise ValueError("dual_group columns must be distinct")
    order = np.argsort(cols)
    slots = (np.arange(dim)[:, None] * cols.size + order).ravel()
    pattern = sp.csr_matrix((np.zeros(slots.size), np.tile(cols[order], dim),
                             np.arange(dim + 1) * cols.size), shape=(dim, cols.max(initial=0) + 1))

    def fn_jac(z):
        r = fn(ad.seed(z[cols], cols.size, 0))
        jac = sp.csr_matrix((r.dot.ravel()[slots], pattern.indices, pattern.indptr),
                            shape=(dim, z.size))
        return np.ravel(r.val), jac

    return CallableGroup(dim, lambda z: np.reshape(fn(z[..., cols]), z.shape[:-1] + (dim,)),
                         fn_jac)


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
        """The term at one point ``z`` (n,), or an array of its value at each row of (K, n)."""
        dev = np.abs(_affine(self.a, self.b, z))
        if dev.ndim == 1:
            return float(self.w @ dev)
        return np.array([float(self.w @ row) for row in dev])


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

    def select(self, cols):
        """Rows picking the variables at ``cols``, over the blocks added so far."""
        cols = np.asarray(cols)
        return sp.csr_matrix((np.ones(cols.size), (np.arange(cols.size), cols)),
                             shape=(cols.size, self.n))


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
    # the QP_EFFORT counts: qp_calls (QPs answered, by either solver),
    # qp_as_at_budget (active-set solves that ended at max-iter, at most 1),
    # qp_ipm_calls, qp_elastic_calls (QPs solved in elastic form) and
    # qp_factorizations (KKT factorizations of every QP solve, checks that
    # fell through included); plus the worst equality rows when an elastic
    # QP was infeasible
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def qp_effort(self):
        return {key: self.diagnostics[key] for key in QP_EFFORT}


@dataclass
class SolverOptions:
    max_iter: int = 120
    tol_feas: float = 1e-8
    tol_opt: float = 1e-6
    levenberg_init: float = 1e-6

    def __post_init__(self):
        if type(self.max_iter) is not int or self.max_iter < 1:  # bool is not int here
            raise ValueError(f"max_iter must be a positive int, not {self.max_iter!r}")
        for nm in ("tol_feas", "tol_opt", "levenberg_init"):
            if getattr(self, nm) <= 0:
                raise ValueError(f"{nm} must be positive")


# ---------------------------------------------------------------------------
# evaluation helpers


def _eval_groups(groups, z):
    """The stacked values of ``groups`` at one point ``z`` (n,), or per row of a stack (K, n)."""
    lead = z.shape[:-1]
    return np.concatenate([np.zeros(lead + (0,))]
                          + [np.asarray(g.eval(z), dtype=float).reshape(lead + (-1,))
                             for g in groups], axis=-1)


def _linearized(groups, stack, z):
    """The stacked values of ``groups`` at ``z``, and their Jacobians stacked by ``stack``."""
    if not groups:
        return np.zeros(0), sp.csr_matrix((0, z.size))
    vals, jacs = zip(*(g.eval_with_jac(z) for g in groups))
    return (np.concatenate([np.asarray(v, dtype=float).ravel() for v in vals]),
            stack([sp.csr_matrix(j) for j in jacs]))


class _Stacked:
    """One CSR matrix stacked from parts, for one solve.

    The stack's pattern is made by the first call and kept while each part
    keeps its pattern, so a later call only concatenates the parts' data.
    """

    def __init__(self):
        self.parts = None            # the patterns of the parts at the last call
        self.mat = None

    def __call__(self, parts):
        if self.parts is None or not all(map(same_pattern, parts, self.parts)):
            self.mat = sp.vstack(parts, format="csr")
        else:
            self.mat = sp.csr_matrix((np.concatenate([p.data for p in parts]), self.mat.indices,
                                      self.mat.indptr), shape=self.mat.shape)
        self.parts = [pattern_of(p) for p in parts]
        return self.mat


def _l1_value(problem, z):
    return sum(t.value(z) for t in problem.l1_terms)


def _merit(problem, zs, mu_merit):
    """The l1 merit at each row of the stack ``zs`` (K, n), each row reduced as one point is."""
    r, c, g = (_eval_groups(groups, zs)
               for groups in (problem.residual_groups, problem.eq_groups, problem.ineq_groups))
    l1 = np.broadcast_to(_l1_value(problem, zs), zs.shape[:1])
    return [float(0.5 * float(rk @ rk) + l1k
                  + mu_merit * (float(np.sum(np.abs(ck))) + float(np.sum(np.maximum(gk, 0.0)))))
            for rk, ck, gk, l1k in zip(r, c, g, l1)]


def _trial_chunks(first, n_trials):
    """The slices of a line search's trial steps that it evaluates together, in order.

    The first chunk holds ``first`` trials and each later one twice as many
    as the one before, up to ``n_trials`` in all.
    """
    start, size = 0, first
    while start < n_trials:
        yield slice(start, start + size)
        start, size = start + size, 2 * size


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
    m_eq = sum(grp.dim for grp in problem.eq_groups)   # linearized equality rows

    def picks(cols, sign, width=n + n_sl):
        """QP rows picking ``sign`` times the QP variables (decision, then slack) at ``cols``."""
        return sp.csr_matrix((np.full(cols.size, sign), (np.arange(cols.size), cols)),
                             shape=(cols.size, width))

    def widened(jac, width=n + n_sl):
        """``[jac | 0]``: the rows of ``jac`` over the decision and slack variables."""
        return sp.csr_matrix((jac.data, jac.indices, jac.indptr), shape=(jac.shape[0], width))

    # the QP's rows that no iteration changes, stacked under each iteration's
    # linearized constraints: pinned variables and l1 links; finite bounds and slack signs
    a_fixed = sp.vstack([picks(fixed_idx, 1.0),
                         sp.hstack([l1_a, -sp.identity(n_l1), sp.identity(n_l1)])], format="csr")
    g_fixed = sp.vstack([picks(free_fin_ub, 1.0), picks(free_fin_lb, -1.0),
                         picks(n + np.arange(n_sl), -1.0)], format="csr")

    # the QP's constraint matrices, stacked from the linearized constraints over
    # the constant rows; elastic ones give each linearized equality a pair
    # v+ - v-, v >= 0, whose columns follow the l1 slacks', and its sign rows
    a_stack, g_stack = _Stacked(), _Stacked()
    const_rows = {}     # per elastic flag: the constant parts of A and G at the QP's width

    def qp_rows(elastic):
        """The QP's constraints ``(A, b, G, h)`` at the current iterate."""
        n_v = 2 * m_eq if elastic else 0
        width = n + n_sl + n_v
        if elastic not in const_rows:
            const_rows[elastic] = (widened(a_fixed, width), widened(g_fixed, width),
                                   picks(n + n_sl + np.arange(n_v), -1.0, width))
        a_const, *g_const = const_rows[elastic]
        lin = widened(jc)
        if elastic:
            pairs = sp.identity(m_eq, format="csr")
            lin = sp.hstack([jc, sp.csr_matrix((m_eq, n_sl)), -pairs, pairs], format="csr")
        return (a_stack([lin, a_const]),
                np.concatenate([-c, lb[fixed_idx] - z[fixed_idx], -e0]),
                g_stack([widened(jg, width), *g_const]),
                np.concatenate([-g, ub[free_fin_ub] - z[free_fin_ub],
                                z[free_fin_lb] - lb[free_fin_lb], np.zeros(n_sl + n_v)]))

    lam = opts.levenberg_init
    mu_merit = 1.0
    working_set = None
    # degenerate l1 slack pairs (both at zero) can make the active set cycle,
    # so a problem with l1 terms sends every QP to the interior point
    ipm_only = bool(problem.l1_terms)
    # once a QP is infeasible, this and every later QP of the solve is elastic
    elastic = False
    prev_duals = None
    qp_gap_max = 0.0
    merit_hist = []
    status = "max-iter"
    stationarity = np.inf
    viol_inf = np.inf
    n_iter = 0
    diagnostics = dict.fromkeys(QP_EFFORT, 0)

    stacks = [(groups, _Stacked()) for groups in (problem.residual_groups, problem.eq_groups,
                                                  problem.ineq_groups)]
    workspace = KktWorkspace()
    eye_n = sp.identity(n, format="csc")
    # J'J, kept while the stacked residual Jacobian keeps its pattern and values
    jtj = jr_seen = None
    # the step lengths tried, 1, 1/2, 1/4, ... down to ALPHA_MIN; a line search
    # evaluates them in chunks, the first as long as the solve's last search
    # that passed
    alphas = 0.5 ** np.arange(int(np.log2(1.0 / ALPHA_MIN)) + 1)
    n_tried = 1

    for n_iter in range(1, opts.max_iter + 1):
        (r, jr), (c, jc), (g, jg) = (_linearized(groups, stack, z) for groups, stack in stacks)
        e0 = l1_a @ z - l1_b
        f_val = 0.5 * float(r @ r) + float(l1_w @ np.abs(e0))
        viol_inf = 0.0
        if c.size:
            viol_inf = max(viol_inf, float(np.max(np.abs(c))))
        if g.size:
            viol_inf = max(viol_inf, float(max(np.max(g), 0.0)))

        grad = jr.T @ r

        # constraint matrices of the QP; only the Hessian depends on lambda
        a_eq, b_eq, g_qp, h_qp = qp_rows(elastic)

        def nlp_stationarity(eq_duals, ineq_duals):
            vec = grad + (a_eq.T @ eq_duals)[:n] + (g_qp.T @ ineq_duals)[:n]
            return float(np.max(np.abs(vec), initial=0.0))

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
        if jr_seen is None or not (same_pattern(jr, jr_seen[0])
                                   and np.array_equal(jr.data, jr_seen[1])):
            jtj = (jr.T @ jr).tocsc()
            jr_seen = (pattern_of(jr), jr.data)

        def solve_subproblem(h_mat):
            """The QP with Hessian ``h_mat`` on the decision part, by the solve's routing."""
            nonlocal working_set, ipm_only
            n_qp = g_qp.shape[1]
            # a tiny diagonal on the slacks; the elastic pairs cost mu_merit each
            p_qp = (sp.block_diag([h_mat, SLACK_REG * sp.identity(n_qp - n)], format="csc")
                    if n_qp > n else h_mat)
            q_qp = np.concatenate([grad, l1_w, l1_w, np.full(n_qp - n - n_sl, mu_merit)])
            diagnostics["qp_elastic_calls"] += elastic
            if not (ipm_only or elastic):
                # the active set may cycle; once it ends at its budget, the
                # interior point takes this QP and every later one of the
                # solve, and its step and multipliers are used as they are
                qp = solve_qp(p_qp, q_qp, a_eq, b_eq, g_qp, h_qp,
                              working_set=working_set, max_iter=QP_MAX_ITER, workspace=workspace)
                diagnostics["qp_calls"] += 1
                diagnostics["qp_factorizations"] += qp.factorizations
                ipm_only = qp.status == "max-iter"
                diagnostics["qp_as_at_budget"] += ipm_only
                if qp.status == "converged":
                    working_set = qp.working_set
                if qp.status not in ("max-iter", "factorization-failed"):
                    return qp
            elif problem.l1_terms and working_set is not None and working_set.size == g_qp.shape[0]:
                # one active-set iteration on the last converged QP's working
                # set: converged, it is this QP's KKT point and keeps that set;
                # else the interior point solves the QP
                qp = solve_qp(p_qp, q_qp, a_eq, b_eq, g_qp, h_qp,
                              working_set=working_set, max_iter=1, workspace=workspace)
                diagnostics["qp_factorizations"] += qp.factorizations
                if qp.status == "converged":
                    diagnostics["qp_calls"] += 1
                    return qp
            diagnostics["qp_calls"] += 1
            diagnostics["qp_ipm_calls"] += 1
            qp = solve_qp_ipm(p_qp, q_qp, a_eq, b_eq, g_qp, h_qp, workspace=workspace)
            diagnostics["qp_factorizations"] += qp.factorizations
            if problem.l1_terms and qp.status == "converged":
                working_set = qp.working_set
            return qp

        for bump in range(6):
            # quadratic model: H on the decision part
            h_mat = jtj + lam * eye_n
            qp = solve_subproblem(h_mat)
            if qp.status == "infeasible" and not elastic:
                # an inconsistent linearization: re-solve with each linearized
                # equality in an l1 slack pair of weight mu_merit (Sl1QP)
                elastic = True
                a_eq, b_eq, g_qp, h_qp = qp_rows(elastic)
                qp = solve_subproblem(h_mat)
            if qp.status == "converged":
                qp_gap_max = max(qp_gap_max, qp.duality_gap)
            elif qp.status == "infeasible":
                # report the worst linearized equalities for diagnosis
                resid = np.abs(a_eq @ qp.x - b_eq)
                worst = np.argsort(resid)[-5:][::-1]
                diag = {"qp_infeasible": True,
                        "worst_equality_rows": [(int(i), float(resid[i])) for i in worst]}
                log.warning("QP reported infeasible; worst rows %s", diag["worst_equality_rows"])
                status = "line-search-failure"
                accepted = False
                diagnostics.update(diag)
                break
            else:
                lam = min(lam * 10.0, LAM_MAX)
                working_set = None
                if viol_inf < opts.tol_feas and bump >= 1:
                    break  # feasible already; stop burning time on stalled QPs
                continue

            step = qp.x[:n]
            t_pair = qp.x[n:n + n_l1] + qp.x[n + n_l1:n + n_sl]
            prev_duals = (qp.eq_duals.copy(), qp.ineq_duals.copy())
            stationarity = nlp_stationarity(qp.eq_duals, qp.ineq_duals)

            if viol_inf < opts.tol_feas and stationarity < opts.tol_opt:
                status = "converged"
                accepted = True
                break

            l1_new = float(l1_w @ t_pair)
            l1_old = float(l1_w @ np.abs(e0))
            # the sign rows of the elastic pairs come last; their duals are
            # mu_merit -+ the row's dual and say nothing about the merit weight
            dual_scale = max(float(np.max(np.abs(qp.eq_duals), initial=0.0)),
                             float(np.max(qp.ineq_duals[:g_fixed.shape[0] + g.size], initial=0.0)))
            mu_merit = max(mu_merit, 1.5 * dual_scale, 1.0)

            viol1 = float(np.sum(np.abs(c))) + float(np.sum(np.maximum(g, 0.0)))
            model_decrease = -(float(grad @ step) + 0.5 * float(step @ (h_mat @ step))
                               + l1_new - l1_old)
            # the linearized violation an elastic step leaves
            viol_left = float(np.sum(qp.x[n + n_sl:]))
            pred = model_decrease + mu_merit * (viol1 - viol_left)
            if pred <= 1e-14 * (1.0 + abs(f_val)):
                lam = min(lam * 10.0, LAM_MAX)
                continue

            # each chunk's trial points are evaluated as one stack; the first
            # that passes Armijo, in step order, is the step
            phi0 = f_val + mu_merit * viol1
            for chunk in _trial_chunks(n_tried, alphas.size):
                steps = alphas[chunk]
                trials = np.clip(z + steps[:, None] * step, lb, ub)
                phis = _merit(problem, trials, mu_merit)
                passed = [i for i, (alpha, phi_t) in enumerate(zip(steps, phis))
                          if phi_t <= phi0 - ARMIJO * alpha * pred]
                if passed:
                    i = passed[0]
                    alpha, phi_t = steps[i], phis[i]
                    rho = (phi0 - phi_t) / (alpha * pred)
                    if alpha == 1.0 and rho > 0.75:
                        lam = max(lam / 3.0, 1e-12)
                    elif rho < 0.25:
                        lam = min(lam * 4.0, LAM_MAX)
                    z = trials[i].copy()
                    n_tried = chunk.start + i + 1
                    accepted = True
                    merit_hist.append(phi_t)
                    break
            if accepted:
                break
            lam = min(lam * 10.0, LAM_MAX)

        log.info("iter=%d obj=%.6e feas=%.3e stat=%.3e lam=%.1e step=%.3e",
                 n_iter, f_val, viol_inf, stationarity,
                 lam, float(np.max(np.abs(step))) if accepted and status != "converged" else 0.0)

        if status == "converged":
            break
        if not accepted:
            status = "line-search-failure"
            break

    r = _eval_groups(problem.residual_groups, z)
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
# multiple-shooting gaps


class ShootingGapGroup:
    """Gap-closing equality constraints ``F(x_k, u_k, p) - x_{k+1} = 0``.

    The dynamics callable must be batched over nodes and transparent to
    :mod:`beamilc.ad` duals; an absent input or parameter block comes as a
    zero-width array. :meth:`eval` at a stack of points calls it once, with
    a leading stack axis before the node axis (``p`` then has a node axis of
    length one). The states are the ``horizon + 1`` nodes of the
    variable block named ``block``. Controls may exist only on a subset of
    nodes (``control_map[k] < 0`` means the node input is pinned to zero).

    One column map, built here, states the group's sparse structure: entry
    ``[k, j]`` is the variable behind seed direction ``j`` at node ``k``,
    ordered ``(x_k, u_k, p)``, and -1 where ``u_k`` is pinned.
    """

    def __init__(self, problem, dynamics, n_x, horizon, n_u=0, control_map=None, n_p=0,
                 block="x"):
        self.problem = problem
        self.dynamics = dynamics
        self.n_x = n_x
        self.horizon = horizon
        self.n_u = n_u
        self.dim = horizon * n_x
        node = np.full(horizon, -1) if control_map is None else np.asarray(control_map, dtype=int)
        node = node[:, None]
        u_cols = (problem.block("u").offset if n_u else 0) + node * n_u + np.arange(n_u)
        p_cols = (problem.block("p").offset if n_p else 0) + np.arange(n_p)
        self._cols = np.hstack([
            problem.block(block).offset + np.arange(self.dim).reshape(horizon, n_x),
            np.where(node >= 0, u_cols, -1), np.tile(p_cols, (horizon, 1))])
        # the Jacobian's CSR pattern: row (k, i) holds the dual's dot over node
        # k's map, and -1 at x_{k+1, i}; each stored entry, in column order,
        # is gathered from the dot, flattened, with that -1 appended
        m = self._cols.shape[1]
        cols = np.broadcast_to(self._cols[:, None, :], (horizon, n_x, m)).ravel()
        keep = np.flatnonzero(cols >= 0)
        rows = np.concatenate([keep // m, np.arange(self.dim)])
        cols = np.concatenate([cols[keep], self._cols[:, :n_x].ravel() + n_x])
        order = np.lexsort((cols, rows))
        self._slots = np.append(keep, np.full(self.dim, self.dim * m))[order].astype(np.int32)
        ptr = np.searchsorted(rows[order], np.arange(self.dim + 1))
        pattern = sp.csr_matrix((np.zeros(order.size), cols[order], ptr),
                                shape=(self.dim, cols.max() + 1))
        self._indices, self._indptr = pattern.indices, pattern.indptr

    def _gather(self, z):
        """The dynamics' ``(x_k, u_k, p)`` read through the column map, and ``x_{k+1}``.

        At a stack of points (K, n) each gains a leading stack axis, and ``p``
        a node axis of length one, so that it broadcasts over the nodes.
        """
        nx, nu = self.n_x, self.n_u
        v = np.where(self._cols >= 0, z[..., self._cols], 0.0)
        p = v[..., 0, nx + nu:]
        return (v[..., :nx], v[..., nx:nx + nu], p if z.ndim == 1 else p[:, None],
                z[..., self._cols[:, :nx] + nx])

    def eval(self, z):
        x, u, p, x_next = self._gather(z)
        return (ad.value(self.dynamics(x, u, p)) - x_next).reshape(z.shape[:-1] + (self.dim,))

    def eval_with_jac(self, z):
        nx, nu = self.n_x, self.n_u
        m = self._cols.shape[1]
        x, u, p, x_next = self._gather(z)
        f_next = self.dynamics(ad.seed(x, m, 0), ad.seed(u, m, nx), ad.seed(p, m, nx + nu))
        jac = sp.csr_matrix((np.append(f_next.dot, -1.0)[self._slots], self._indices,
                             self._indptr), shape=(self.dim, self.problem.n))
        return (f_next.val - x_next).ravel(), jac
