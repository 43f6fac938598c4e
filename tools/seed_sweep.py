"""The ``beamilc ilc`` loop's quality over noise seeds, for one checkout.

Run from anywhere, with the checkout a full copy of the repository:

    python3 tools/seed_sweep.py --checkout DIR [--config FILE] --out SWEEP.json
    python3 tools/seed_sweep.py --compare A.json B.json

The first form runs ``beamilc ilc`` from ``DIR/src`` once per seed of
``SEEDS`` (the default config's 1234, then 1 to 6), each in a fresh
interpreter and a scratch output directory, on the given config or the
built-in default. It writes per seed the metric V of every pass, V1/V10
(the first pass's V over the last one's), the loop's exit code, every
solve's status and the fitted parameters of every pass. A 10-pass loop
takes a few seconds a seed.

The second form reads two such files and prints, seed by seed, every
figure that differs, or ``identical`` when the two sweeps are bit-equal
(JSON keeps every float's shortest round-trip form, so equal text is
equal bits).
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1234, 1, 2, 3, 4, 5, 6)


def pass_statuses(statuses):
    """The status of each solve of one pass, from its ``statuses`` in ``summary.json``."""
    out = {name: statuses[name]["status"] for name in ("ocp_entry", "ocp_next")
           if name in statuses}
    out.update({name: statuses[name] for name in ("parameters", "disturbance")})
    return out


def record(summary, params, exit_code):
    """One seed's record from its run's ``summary.json`` and each pass's fitted parameters."""
    its = summary["iterations"]
    v = [it["metric"] for it in its]
    return {"exit_code": exit_code,
            "v": v,
            "v1_v10": v[0] / v[-1],
            "flagged": [it["flagged"] for it in its],
            "statuses": [pass_statuses(it["statuses"]) for it in its],
            "params": params}


def run_seed(checkout, seed, config=None):
    """The :func:`record` of one ``beamilc ilc`` run of ``checkout`` on ``seed``."""
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "beamilc.cli", "ilc", "--seed", str(seed), "--out", out,
               *(["--config", str(config)] if config else [])]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if done.returncode not in (0, 2):
            raise RuntimeError(f"seed {seed}: exit code {done.returncode}\n{done.stderr}")
        summary = json.loads((Path(out) / "summary.json").read_text())
        params = [json.loads((Path(out) / f"iter_{it['iteration']:03d}" / "model.json")
                             .read_text())["params"] for it in summary["iterations"]]
    return record(summary, params, done.returncode)


def _leaves(x, y, path=""):
    """``(path, x, y)`` for each leaf of two records where they differ."""
    if isinstance(x, dict) and isinstance(y, dict):
        for key in sorted(set(x) | set(y)):
            yield from _leaves(x.get(key), y.get(key), f"{path}.{key}" if path else key)
    elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
        for i, (u, w) in enumerate(zip(x, y), start=1):
            yield from _leaves(u, w, f"{path}[{i}]")
    elif not (type(x) is type(y) and (x == y or x != x and y != y)):   # NaN equals NaN here
        yield path, x, y


def differences(a, b):
    """One line for each figure that differs between the records ``a`` and ``b``."""
    out = []
    for path, x, y in _leaves(a, b):
        if isinstance(x, float) and isinstance(y, float) and x:
            out.append(f"{path}: {x!r} -> {y!r} ({(y - x) / abs(x):+.3g} relative)")
        else:
            out.append(f"{path}: {x!r} -> {y!r}")
    return out


def compare(a, b):
    """Per seed of either sweep, the lines of its differences; ``["identical"]`` when none."""
    out = []
    for seed in sorted(set(a["seeds"]) | set(b["seeds"]), key=int):
        x, y = a["seeds"].get(seed), b["seeds"].get(seed)
        if x is None or y is None:
            out.append(f"seed {seed}: only in {'the second' if x is None else 'the first'} sweep")
            continue
        out += [f"seed {seed}: {line}" for line in differences(x, y)]
    return out or ["identical"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, help="repository copy whose src/ runs")
    ap.add_argument("--config", type=Path, help="run configuration JSON (default: built-in)")
    ap.add_argument("--out", type=Path, help="sweep JSON to write")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="two sweep JSON files to compare")
    args = ap.parse_args(argv)
    if not args.compare and not (args.checkout and args.out):
        ap.error("give --checkout and --out, or --compare A B")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        print("\n".join(compare(a, b)))
        return
    seeds = {}
    for seed in SEEDS:
        seeds[str(seed)] = run_seed(args.checkout, seed, args.config)
        print(f"seed {seed}: V1/V10 {seeds[str(seed)]['v1_v10']!r}", flush=True)
    doc = {"checkout": str(args.checkout.resolve()),
           "config": str(args.config) if args.config else None, "seeds": seeds}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
