"""Paired benchmark runs of two checkouts, in alternating order.

Run from anywhere, with each checkout a full copy of the repository:

    python3 tools/paired_bench.py --parent PARENT_DIR --change CHANGE_DIR \
        --workload plan_7dof=15001-15010 --workload ilc_planar3=15101-15110 \
        --traced ilc_planar3=1234 --what "what the change does" --out BENCH_15.json

Each seed is one pair: ``perfbench/run.py --trace 0`` runs on the parent
and on the change one after the other, the parent first in even pairs and
the change first in odd ones. Workloads run in the order given, seeds in
order within each. The traced runs (``--seconds 1 --trace 1``) follow, one
at a time, parent before change. The output keeps every run's last report
line, and per workload the median and quartiles of each end-to-end metric
on both sides, in how many pairs the change's ``wall_s`` was lower, the
verdict of the paired rule on ``wall_s`` (:func:`paired_rule`), and for
each end-to-end metric that the change checkout's ``BENCHMARK.json``
declares, whether the change is no worse by that metric's bound
(:func:`no_worse`). For each traced workload and seed it also lists every
per-layer ``count`` metric whose value differs between the two sides
(:func:`count_changes`), the deterministic evidence where a verdict reads
``unresolved``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MACHINE_KEYS = ("nproc", "cpu", "python", "numpy", "scipy", "blas")


def seed_range(spec):
    """``name=first-last`` (or ``name=seed``) as ``(name, [seeds])``."""
    name, _, seeds = spec.partition("=")
    first, _, last = seeds.partition("-")
    return name, list(range(int(first), int(last or first) + 1))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", action="append", type=seed_range, required=True,
                    help="NAME=FIRST-LAST, one pair per seed (repeatable)")
    ap.add_argument("--traced", action="append", type=seed_range, default=[],
                    help="NAME=FIRST-LAST, one traced run per side and seed (repeatable)")
    ap.add_argument("--what", default="")
    ap.add_argument("--out", required=True, type=Path)
    return ap.parse_args(argv)


def run(checkout, workload, seed, trace):
    """The report of one ``perfbench/run.py`` process: its machine line and last line.

    Untraced runs take ``run.py``'s own run length; traced ones run for 1 s.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           *(["--seconds", "1"] if trace else []), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    machine = next(json.loads(ln[len("machine "):]) for ln in lines if ln.startswith("machine "))
    return machine, json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def paired_rule(parent, change):
    """Whether ``change`` is faster than ``parent`` by the paired rule, with the figures.

    ``parent`` and ``change`` hold one ``wall_s`` per pair, in pair order.
    The rule holds when the change is faster in at least 9 of every 10
    pairs (a tie counts for neither side) and its median is below the
    parent's by more than the parent's interquartile range.
    """
    wins = sum(c < p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    par, chg = spread(parent), spread(change)
    gap, iqr = par["median"] - chg["median"], par["q3"] - par["q1"]
    return {"holds": 10 * wins >= 9 * len(parent) and gap > iqr, "wins": wins, "ties": ties,
            "pairs": len(parent), "median_gap": gap, "parent_iqr": iqr}


def end_to_end(path):
    """``{name: (better, bound)}`` of each end-to-end metric that a ``BENCHMARK.json`` declares."""
    return {m["name"]: (m["better"], m["bound"])
            for m in json.loads(Path(path).read_text())["end_to_end"]}


def no_worse(parent, change, better, bound):
    """Whether ``change`` is worse than ``parent`` on one end-to-end metric, with the figures.

    ``parent`` and ``change`` hold the metric's runs, ``better`` is
    ``"lower"`` or ``"higher"`` and ``bound`` the relative worsening the
    benchmark allows. The verdict is ``unresolved`` when the parent's
    interquartile range exceeds ``bound`` times its median and not every
    change run beats every parent run: the runs spread too widely to tell.
    Otherwise it is ``worse`` when the change's median is worse than the
    parent's by more than ``bound`` times the parent's median, and ``not
    worse`` if not.
    """
    sign = {"lower": 1.0, "higher": -1.0}[better]
    par, chg = spread(parent), spread(change)
    allowed, iqr = bound * abs(par["median"]), par["q3"] - par["q1"]
    worsening = sign * (chg["median"] - par["median"])
    beats_all = max(sign * c for c in change) < min(sign * p for p in parent)
    if iqr > allowed and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "worse" if worsening > allowed else "not worse"
    return {"verdict": verdict, "better": better, "bound": bound, "median_worsening": worsening,
            "allowed": allowed, "parent_iqr": iqr, "change_beats_all": beats_all}


def summary(runs, metrics):
    """Per workload, each metric's spread on both sides and its :func:`no_worse` verdict.

    ``metrics`` maps each end-to-end metric to its ``(better, bound)``, as
    :func:`end_to_end` reads them.
    """
    out = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name]
        side = {s: [r["line"] for r in mine if r["side"] == s] for s in ("parent", "change")}
        entry = {}
        for metric, (better, bound) in metrics.items():
            values = {s: [ln["metrics"][metric]["value"] for ln in lines]
                      for s, lines in side.items()}
            entry[metric] = {s: spread(v) for s, v in values.items()}
            entry[metric]["no_worse"] = no_worse(values["parent"], values["change"], better, bound)
        walls = {(r["pair"], r["side"]): r["line"]["metrics"]["wall_s"]["value"] for r in mine}
        pairs = sorted({p for p, _ in walls})
        entry["wall_s"]["change_faster_pairs"] = sum(
            walls[p, "change"] < walls[p, "parent"] for p in pairs)
        entry["wall_s"]["pairs"] = len(pairs)
        entry["wall_s"]["paired_rule"] = paired_rule([walls[p, "parent"] for p in pairs],
                                                     [walls[p, "change"] for p in pairs])
        entry["all_correct"] = all(r["line"]["correct"] for r in mine)
        out[name] = entry
    return out


def count_changes(traced):
    """Per traced workload and seed, each ``count`` metric whose value differs between the sides.

    ``traced`` holds the traced runs as :func:`main` records them. Each
    entry names its workload and seed, and maps each differing metric to its
    parent and change values (None on a side that does not report it); an
    empty ``differs`` means that every count repeated.
    """
    out = []
    for workload, seed in dict.fromkeys((r["workload"], r["seed"]) for r in traced):
        side = {r["side"]: r["line"]["metrics"] for r in traced
                if (r["workload"], r["seed"]) == (workload, seed)}
        names = sorted({name for metrics in side.values() for name, m in metrics.items()
                        if m["unit"] == "count"})
        values = {name: {s: side.get(s, {}).get(name, {}).get("value")
                         for s in ("parent", "change")} for name in names}
        out.append({"workload": workload, "seed": seed,
                    "differs": {name: v for name, v in values.items()
                                if v["parent"] != v["change"]}})
    return out


def main(argv=None):
    args = parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = end_to_end(sides["change"] / "BENCHMARK.json")
    runs, traced, machine = [], [], {}
    for workload, seeds in args.workload:
        for pair, seed in enumerate(seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                info, line = run(sides[side], workload, seed, 0)
                machine = {k: info[k] for k in MACHINE_KEYS}
                runs.append({"workload": workload, "seed": seed, "side": side, "pair": pair,
                             "first": side == order[0], "source_sha256": info["source_sha256"],
                             "line": line})
                print(workload, seed, side, line["metrics"]["wall_s"]["value"], flush=True)
    for workload, seeds in args.traced:
        for seed in seeds:
            for side in ("parent", "change"):
                _, line = run(sides[side], workload, seed, 1)
                traced.append({"workload": workload, "seed": seed, "side": side, "line": line})
    parent_commit = subprocess.run(["git", "-C", str(sides["parent"]), "rev-parse", "HEAD"],
                                   capture_output=True, text=True).stdout.strip() or None
    doc = {
        "what": args.what,
        "parent_commit": parent_commit,
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "traced_command": "python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 1",
        "machine": machine,
        "protocol": "each pair runs the parent and the change one after the other, the parent "
                    "first in even pairs (0, 2, ...) and the change first in odd pairs; the two "
                    "sides are separate checkouts; the pairs ran in the order "
                    + ", ".join(w for w, _ in args.workload) + " and seed order within each; "
                    "the traced runs ran one at a time after them, parent before change",
        "seeds": {**{w: s for w, s in args.workload}, "traced": {w: s for w, s in args.traced}},
        "summary": summary(runs, metrics),
        "count_changes": count_changes(traced),
        "runs": runs,
        "traced": traced,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, entry in doc["summary"].items():
        rule = entry["wall_s"]["paired_rule"]
        print(f"{name}: paired rule {'holds' if rule['holds'] else 'does not hold'}: faster in "
              f"{rule['wins']} of {rule['pairs']} pairs ({rule['ties']} ties), median gap "
              f"{rule['median_gap']:.4g} s against the parent's IQR {rule['parent_iqr']:.4g} s")
        for metric in metrics:
            v = entry[metric]["no_worse"]
            print(f"{name}: {metric} {v['verdict']}: median worse by {v['median_worsening']:.4g} "
                  f"against {v['allowed']:.4g} allowed ({v['better']} is better, bound "
                  f"{v['bound']:g}); the parent's IQR {v['parent_iqr']:.4g}")
    for entry in doc["count_changes"]:
        where = f"{entry['workload']} seed {entry['seed']} traced"
        if not entry["differs"]:
            print(f"{where}: every count repeats")
        for name, v in entry["differs"].items():
            print(f"{where}: {name} {v['parent']} on the parent, {v['change']} on the change")


if __name__ == "__main__":
    main()
