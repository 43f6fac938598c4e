"""Spans and counters recorded around calls into beamilc's layers.

The tracer rebinds module and class attributes of ``beamilc`` to timing
wrappers and restores the originals on exit; nothing inside the package
changes. A wrapper records one span (name, start, end, parent) and, from
the call's own arguments or return value, the counts of its layer. It does
no work the program does not already do: fill is read from
``SuperLU.nnz``, never by materializing the factors.

``ad`` and ``kinematics`` are not wrapped: a wrapper per dual-number
operation would cost more than the operation. Their time shows inside
``nlp.deriv`` and ``nlp.merit``.

With ``full=False`` only ``nlp.solve`` is wrapped (a few dozen calls per
run), which is enough to read every solver status and SQP iteration count
with tracing off. ``span_cost_s`` calibrates what one wrapper adds to a
call; a run's span count times that cost estimates its tracing overhead.
"""
from __future__ import annotations

import inspect
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                      # index into Tracer.spans, -1 for a root
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _status_attrs(solution):
    return {"status": solution.status, "sqp_iters": int(solution.iterations)}


def _plant_attrs(args, kwargs, _result):
    from beamilc.plant import run_experiment

    bound = inspect.signature(run_experiment).bind(*args, **kwargs).arguments
    # (n_samples - 1) sample intervals of dt_est * rate RK4 steps each
    ratio = round(bound["dt_est"] * bound["cfg"].rate)
    return {"rk4_steps": (int(bound["n_samples"]) - 1) * ratio}


def _lu_attrs(args, kwargs, result):
    kkt = args[0] if args else kwargs["A"]
    return {"fill_nnz": int(result.nnz), "kkt_dim": int(kkt.shape[0])}


def _layer_table():
    """(span name, [(owner, attribute)], attrs(args, kwargs, result) or None)."""
    from beamilc import cli, dynamics, estimation, ilc, nlp, ocp, plant, qp

    return [
        ("ilc.run", [(cli, "run_ilc")], lambda a, k, r: {"records": len(r)}),
        ("ocp", [(ilc, "solve_ptp_ocp"), (ocp, "solve_ptp_ocp")],
         lambda a, k, r: _status_attrs(r.solution)),
        ("plant", [(ilc, "run_experiment"), (plant, "run_experiment")], _plant_attrs),
        ("estimation.learn", [(ilc, "learn_iteration"), (estimation, "learn_iteration")],
         None),
        ("estimation.params", [(estimation, "estimate_parameters")],
         lambda a, k, r: _status_attrs(r.solution)),
        ("estimation.disturbance", [(estimation, "estimate_disturbance")],
         lambda a, k, r: _status_attrs(r.solution)),
        ("dynamics.rollout", [(ilc, "fast_rollout"), (estimation, "fast_rollout"),
                              (ocp, "fast_rollout"), (dynamics, "fast_rollout")], None),
        ("nlp.solve", [(nlp, "solve")], lambda a, k, r: _status_attrs(r)),
        ("nlp.deriv", [(nlp.ShootingGapGroup, "eval_with_jac"),
                       (nlp.CallableGroup, "eval_with_jac")], None),
        ("nlp.merit", [(nlp.ShootingGapGroup, "eval")], None),
        ("qp.as", [(nlp, "solve_qp"), (qp, "solve_qp")],
         lambda a, k, r: {"status": r.status, "iters": int(r.iterations)}),
        ("qp.ipm", [(nlp, "solve_qp_ipm"), (qp, "solve_qp_ipm")], None),
        ("qp.lu", [(qp, "splu")], _lu_attrs),
    ]


class Tracer:
    """Context manager that installs the wrappers and restores them on exit."""

    def __init__(self, full=True):
        self.full = full
        self.spans = []
        self._stack = []
        self._saved = []             # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def __enter__(self):
        table = _layer_table()
        if not self.full:
            table = [row for row in table if row[0] == "nlp.solve"]
        for name, targets, attrs in table:
            wrappers = {}            # one wrapper per function, however many names bind it
            for owner, attr in targets:
                original = getattr(owner, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, attrs)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, name, fn, attrs):
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name):
        """Record a span, child of the innermost open one, around the block."""
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    # -- reading ------------------------------------------------------------

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def statuses(self):
        """(status, SQP iterations) of every nlp.solve call, in call order."""
        return [(s.attrs["status"], s.attrs["sqp_iters"]) for s in self.named("nlp.solve")]

    def layer_metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        self_t = self.self_times()
        busy = defaultdict(float)
        self_by = defaultdict(float)
        calls = defaultdict(int)
        for s, st in zip(self.spans, self_t):
            busy[s.name] += s.duration
            self_by[s.name] += st
            calls[s.name] += 1

        def attr_sum(name, key):
            return sum(s.attrs.get(key, 0) for s in self.named(name))

        def unconverged(name):
            return sum(1 for s in self.named(name) if s.attrs.get("status") != "converged")

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for layer in ("ocp", "estimation.params", "estimation.disturbance"):
            m[f"{layer}.calls"] = (calls[layer], "count")
            m[f"{layer}.busy_s"] = (busy[layer], "s")
            m[f"{layer}.sqp_iters"] = (attr_sum(layer, "sqp_iters"), "count")
            m[f"{layer}.unconverged"] = (unconverged(layer), "count")
        m["nlp.deriv.calls"] = (calls["nlp.deriv"], "count")
        m["nlp.deriv.busy_s"] = (busy["nlp.deriv"], "s")
        m["nlp.merit.evals"] = (calls["nlp.merit"], "count")
        m["nlp.merit.busy_s"] = (busy["nlp.merit"], "s")
        n_lu = calls["qp.lu"]
        m["qp.lu.calls"] = (n_lu, "count")
        m["qp.lu.busy_s"] = (busy["qp.lu"], "s")
        m["qp.lu.fill_nnz"] = (ratio(attr_sum("qp.lu", "fill_nnz"), n_lu), "count")
        m["qp.lu.kkt_dim"] = (ratio(attr_sum("qp.lu", "kkt_dim"), n_lu), "count")
        m["qp.as.calls"] = (calls["qp.as"], "count")
        m["qp.as.self_s"] = (self_by["qp.as"], "s")
        m["qp.as.iters"] = (attr_sum("qp.as", "iters"), "count")
        m["qp.as.unconverged"] = (unconverged("qp.as"), "count")
        m["qp.ipm.calls"] = (calls["qp.ipm"], "count")
        m["qp.ipm.self_s"] = (self_by["qp.ipm"], "s")
        n_qp = calls["qp.as"] + calls["qp.ipm"]
        m["qp.lu_per_qp"] = (ratio(n_lu, n_qp), "count")
        sqp = attr_sum("nlp.solve", "sqp_iters")
        m["nlp.solve.self_s"] = (self_by["nlp.solve"], "s")
        m["nlp.sqp_iters"] = (sqp, "count")
        m["nlp.qp_per_iter"] = (ratio(n_qp, sqp), "count")
        m["nlp.merit_per_iter"] = (ratio(calls["nlp.merit"], sqp), "count")
        steps = attr_sum("plant", "rk4_steps")
        m["plant.calls"] = (calls["plant"], "count")
        m["plant.busy_s"] = (busy["plant"], "s")
        m["plant.rk4_steps"] = (steps, "count")
        m["plant.steps_per_s"] = (ratio(steps, busy["plant"]), "1/s")
        m["dynamics.rollout.calls"] = (calls["dynamics.rollout"], "count")
        m["dynamics.rollout.busy_s"] = (busy["dynamics.rollout"], "s")
        m["ilc.iter_s"] = (ratio(busy["ilc.run"], attr_sum("ilc.run", "records")), "s")
        m["cli.write_s"] = (busy["cli.main"] - busy["ilc.run"], "s")
        return m


def span_cost_s(calls=2000, batches=7):
    """Median time a wrapper adds to one call: a wrapped no-op minus a bare one."""
    def noop():
        return None

    wrapped = Tracer()._wrap("calibration", noop, lambda a, k, r: {})
    costs = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
