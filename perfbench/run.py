"""Benchmark of the plan -> execute -> learn loop.

Run from the repository root:

    python3 perfbench/run.py --workload ilc_planar3 --seed 1234 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``ilc_planar3`` (the ``beamilc ilc``
command, 3 of its 10 loop passes), ``plan_7dof`` (the criterion-3
reference plan) and ``learn_planar3`` (one learning step from the prior).
The seed sets the plant noise of ``learn_planar3``; seed 1234 is the
default config's.

One run sets up, makes its inputs from the seed, then repeats the timed
call while another call still fits in ``--seconds`` (at least one call).
With ``--trace 1`` each repeat is a pair, one untraced and one traced
call, in alternating order. Every call's outputs are checked. The report
lines name every metric with its unit, the machine and the source; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from spans recorded around calls into each layer, see
``tracer.py``) with ``--trace 1``. ``setup_s`` is the median over fresh
interpreters that set up and stop before the first call, half of them
started before the timed calls and half after, so that the samples span
the run rather than one moment of the host's load. A traced run
reports the tracing overhead twice: ``trace.overhead_s``, the median
traced minus the median untraced wall time of its own pairs, and
``trace.wrapper_s``, the spans of a traced call times the calibrated
cost of one wrapper.

Counts and quality figures of a seed are stored under ``.perfbench/`` in
the checkout, keyed by a hash of ``src/``. A later run of the same seed
on the same source must reproduce them exactly, or it fails.

``python3 perfbench/selftest.py`` checks the tracer on a small config.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import Tracer, span_cost_s
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STORE = ROOT / ".perfbench"
SETUP_PROBES = 6                 # half before the timed calls, half after
MAX_MEASURE_S = 150.0            # keeps a run inside its 180 s limit
# counts a traced call must reproduce exactly on the same seed and source
TRACED_COUNTS = ("nlp.sqp_iters", "nlp.merit.evals", "nlp.deriv.calls", "qp.as.calls",
                 "qp.as.iters", "qp.ipm.calls", "qp.lu.calls")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def workdir():
    return STORE / "work" / str(os.getpid())


# -- machine and source record ---------------------------------------------------


def source_hash():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def blas_record():
    import ctypes

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        cdll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(cdll, sym):
                info["threads"] = int(getattr(cdll, sym)())
                break
    if "threads" not in info:
        info["threads"] = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get(
            "OMP_NUM_THREADS") or "library default"
    return info


def machine_record(args, src_hash):
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "commit": git_commit(),
        "source_sha256": src_hash,
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
    }


# -- measurement -------------------------------------------------------------------


def probe_setup_s(args):
    """Process start to ready-for-the-first-call, in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {rc}")
    return elapsed


def call_once(workload, traced):
    """One timed call and its check; returns a record of the call."""
    tracer = Tracer(full=traced)
    rec = {"traced": traced, "ok": False, "detail": "", "quality": {}, "layers": {}}
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with tracer:
            result = workload.run(tracer)
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = time.process_time() - c0
        outcome = workload.check(result, tracer)
        rec.update(ok=outcome.ok, detail=outcome.detail, quality=outcome.quality)
    except Exception:  # a failed call is counted, not fatal to the run
        rec.setdefault("wall_s", time.perf_counter() - t0)
        rec.setdefault("cpu_s", time.process_time() - c0)
        rec["detail"] = traceback.format_exc().strip().splitlines()[-1]
        traceback.print_exc(file=sys.stderr)
    rec["statuses"] = tracer.statuses()
    if traced:
        rec["layers"] = tracer.layer_metrics()
        rec["spans"] = len(tracer.spans)
    return rec


def fingerprint(rec):
    """What a call must reproduce on the same seed and source."""
    fp = {"statuses": [list(s) for s in rec["statuses"]],
          "quality": {k: repr(v) for k, (v, _) in sorted(rec["quality"].items())}}
    if rec["traced"]:
        fp["counts"] = {k: rec["layers"][k][0] for k in TRACED_COUNTS}
    return fp


class Store:
    """Per (source, workload) record: each seed's fingerprint."""

    def __init__(self, args, src_hash):
        self.path = STORE / src_hash[:16] / f"{args.workload}.json"
        self.seed = str(args.seed)
        self.doc = {"fingerprints": {}}
        if self.path.is_file():
            with open(self.path, encoding="utf-8") as fh:
                self.doc = json.load(fh)

    def check(self, rec):
        """Fail ``rec`` if it differs from what this seed produced before."""
        fp = fingerprint(rec)
        stored = self.doc["fingerprints"].setdefault(self.seed, {})
        bad = [k for k in fp if k in stored and stored[k] != fp[k]]
        if bad:
            rec["ok"] = False
            rec["detail"] += f"; not reproducible on this seed: {', '.join(bad)} differ"
        else:
            stored.update(fp)

    def save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh, indent=1)
        os.replace(tmp, self.path)


def main(argv=None):
    t_process = time.perf_counter()
    if not (SRC / "beamilc" / "__init__.py").is_file():
        print(f"perfbench: no beamilc package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed, str(workdir()))

    if args.setup_probe:
        workload.setup()
        print("ready", flush=True)
        return 0

    src_hash = source_hash()
    machine = machine_record(args, src_hash)
    setup_samples = [probe_setup_s(args) for _ in range(SETUP_PROBES // 2)]
    workload.setup()
    workload.prepare()
    store = Store(args, src_hash)

    traced = bool(args.trace)
    # a traced run pairs each traced call with an untraced one, the order
    # alternating from pair to pair (and with the seed, from run to run)
    if traced:
        modes = [True, False] if args.seed % 2 else [False, True]
    else:
        modes = [False]
    span_cost = span_cost_s() if traced else 0.0
    calls = []
    t_start = time.perf_counter()
    while True:
        batch = [call_once(workload, mode) for mode in modes]
        calls += batch
        modes.reverse()
        now = time.perf_counter()
        last = sum(r["wall_s"] for r in batch)
        if now + last > t_start + args.seconds or now + last > t_process + MAX_MEASURE_S:
            break

    setup_samples += [probe_setup_s(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    # determinism guard: every call against earlier runs of this seed and each other
    failed = 0
    for rec in calls:
        if rec["ok"]:
            store.check(rec)
        failed += not rec["ok"]
    shutil.rmtree(workdir(), ignore_errors=True)
    store.save()

    measured = [r for r in calls if r["traced"] == traced]
    wall = statistics.median(r["wall_s"] for r in calls if not r["traced"])
    solves = [s for r in calls for s in r["statuses"]]
    unconverged = sum(1 for status, _ in solves if status != "converged")
    e2e = {
        "wall_s": (wall, "s"),
        "converged_frac": (1.0 - unconverged / len(solves) if solves else 0.0, "ratio"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    layers = {}
    if traced:
        for name in measured[-1]["layers"]:
            layers[name] = (statistics.median(r["layers"][name][0] for r in measured),
                            measured[-1]["layers"][name][1])
        traced_wall = statistics.median(r["wall_s"] for r in measured)
        layers["trace.wall_s"] = (traced_wall, "s")
        layers["trace.overhead_s"] = (traced_wall - wall, "s")
        layers["trace.wrapper_s"] = (statistics.median(r["spans"] for r in measured)
                                     * span_cost, "s")
    report = dict(e2e)
    report["fail_frac"] = (failed / len(calls), "ratio")
    report["unconverged_frac"] = (unconverged / len(solves) if solves else 0.0, "ratio")
    report.update(measured[-1]["quality"])

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} calls={len(calls)}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)}")
    for i, rec in enumerate(calls, 1):
        mode = "traced" if rec["traced"] else "untraced"
        print(f"call {i} ({mode}): {rec['wall_s']:.3f} s wall, {rec['cpu_s']:.3f} s cpu, "
              f"{'ok' if rec['ok'] else 'FAILED'}: {rec['detail']}")
    print(f"solves: {len(solves)}, unconverged: {unconverged} "
          f"({', '.join(f'{st}/{it}' for st, it in solves)})")
    for name, (value, unit) in {**report, **layers}.items():
        print(f"metric {name} = {value:.6g} {unit}")

    shown = layers if traced else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
