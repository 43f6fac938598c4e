"""Self-test of the benchmark harness on a small config (planar2, one loop pass).

Run from the repository root:

    python3 perfbench/selftest.py

It runs ``beamilc ilc`` under the full tracer and checks that the wrappers
restore the original functions, that every span's parent exists and
encloses it, that the self-times under each span sum to no more than its
duration, that every layer the loop exercises recorded spans, and that
every metric name is well formed. Exits 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
# room for perf_counter rounding when comparing sums of span durations
EPS_S = 1e-6

# sections replaced in the default config
SMALL_SECTIONS = {
    "chain": "planar2",
    "task": {"q0": [0.5, -0.9], "goal_joints": [0.7, -1.1],
             "n_ctrl": 20, "n_pred": 60, "dt": 0.01},
    "estimation": {"horizon": 100, "dt": 0.006},
    "ilc": {"i_max": 1, "metric_window": 1.0, "n_meas": 240},
}
LAYERS_IN_LOOP = ("cli.main", "ilc.run", "ocp", "plant", "estimation.learn",
                  "estimation.params", "estimation.disturbance", "dynamics.rollout",
                  "nlp.solve", "nlp.deriv", "nlp.merit", "qp.as", "qp.lu")


def check_spans(spans, self_times):
    problems = []
    below = [0.0] * len(spans)      # self time summed over each span's descendants
    for i in range(len(spans) - 1, -1, -1):
        s = spans[i]
        if s.parent == -1:
            continue
        if not 0 <= s.parent < i:
            problems.append(f"span {i} ({s.name}) has no parent {s.parent}")
            continue
        p = spans[s.parent]
        if s.start < p.start or s.end > p.end:
            problems.append(f"span {i} ({s.name}) lies outside its parent ({p.name})")
        below[s.parent] += below[i] + self_times[i]
    for i, s in enumerate(spans):
        if self_times[i] < -EPS_S:
            problems.append(f"span {i} ({s.name}) has negative self time")
        if below[i] > s.duration + EPS_S:
            problems.append(f"children of span {i} ({s.name}) sum past its duration")
    return problems


def main():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracer import Tracer, _layer_table

    from beamilc import cli
    from beamilc.config import DEFAULT_CONFIG

    originals = [(owner, attr, getattr(owner, attr))
                 for _, targets, _ in _layer_table() for owner, attr in targets]
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps({**DEFAULT_CONFIG, **SMALL_SECTIONS}), encoding="utf-8")
        tracer = Tracer(full=True)
        with tracer:
            with tracer.span("cli.main"):
                rc = cli.main(["ilc", "--config", str(cfg_path), "--out", str(work / "run")])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    if rc not in (cli.EXIT_OK, cli.EXIT_FALLBACK):
        problems.append(f"beamilc ilc exited with {rc}")
    for owner, attr, fn in originals:
        if getattr(owner, attr) is not fn:
            problems.append(f"{owner.__name__}.{attr} was not restored")
    problems += check_spans(tracer.spans, tracer.self_times())
    recorded = {s.name for s in tracer.spans}
    problems += [f"no span for layer {name}" for name in LAYERS_IN_LOOP
                 if name not in recorded]

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = list(tracer.layer_metrics()) + [m["name"] for m in
                                            bench["end_to_end"] + bench["per_layer"]]
    problems += [f"bad metric name {n!r}" for n in names if not NAME.fullmatch(n)]
    missing = set(tracer.layer_metrics()) - {m["name"] for m in bench["per_layer"]}
    problems += [f"per-layer metric {n} missing from BENCHMARK.json" for n in sorted(missing)]

    for p in problems:
        print("FAIL", p)
    print(f"selftest: {len(tracer.spans)} spans, {len(names)} metric names, "
          f"{'ok' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
