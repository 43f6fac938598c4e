import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from paired_bench import count_changes, end_to_end, no_worse, paired_rule, summary  # noqa: E402

METRICS = end_to_end(ROOT / "BENCHMARK.json")
PARENT = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]   # median 2.45, IQR 0.45
WIDE = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]     # median 5.5, IQR 4.5


def runs(parent, change, workload="w"):
    """Synthetic report lines of paired runs: the same figure for every end-to-end metric."""
    out = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, wall in (("parent", p), ("change", c)):
            line = {"correct": True, "metrics": {m: {"value": wall} for m in METRICS}}
            out.append({"workload": workload, "side": side, "pair": pair, "line": line})
    return out


def test_paired_rule_holds_on_a_clear_gain():
    change = [p - 0.5 for p in PARENT]
    rule = summary(runs(PARENT, change), METRICS)["w"]["wall_s"]["paired_rule"]
    assert rule == {"holds": True, "wins": 10, "ties": 0, "pairs": 10,
                    "median_gap": pytest.approx(0.5), "parent_iqr": pytest.approx(0.45)}


def test_paired_rule_counts_a_tie_for_neither_side():
    # faster in 8 pairs, tied in one, slower in one: 9 pairs are not slower,
    # but only 8 are wins, short of 9 in 10
    change = [p - 0.6 for p in PARENT]
    change[3] = PARENT[3]
    change[7] = PARENT[7] + 0.1
    rule = paired_rule(PARENT, change)
    assert (rule["wins"], rule["ties"]) == (8, 1)
    assert rule["median_gap"] > rule["parent_iqr"]
    assert not rule["holds"]
    change[7] = PARENT[7] - 0.6        # the slower pair turns into a win
    assert paired_rule(PARENT, change)["holds"]


def test_paired_rule_needs_a_median_gap_past_the_parents_iqr():
    # faster in every pair, by less than the parent's interquartile range
    rule = paired_rule(PARENT, [p - 0.4 for p in PARENT])
    assert rule["wins"] == 10
    assert rule["median_gap"] == pytest.approx(0.4) and rule["parent_iqr"] == pytest.approx(0.45)
    assert not rule["holds"]
    assert paired_rule(PARENT, [p - 0.46 for p in PARENT])["holds"]


@pytest.mark.parametrize("metric, parent, change, verdict", [
    ("wall_s", PARENT, [p + 0.3 for p in PARENT], "not worse"),     # +12%, bound 25%
    ("wall_s", PARENT, [p + 0.7 for p in PARENT], "worse"),         # +29%
    ("wall_s", WIDE, WIDE, "unresolved"),                           # IQR 82% of the median
    ("wall_s", WIDE, [0.5] * 10, "not worse"),                      # beats every parent run
    ("converged_frac", [0.9] * 10, [0.85] * 10, "not worse"),       # -5.6%, bound 10%
    ("converged_frac", [0.9] * 10, [0.8] * 10, "worse"),            # -11%
    ("converged_frac", [0.9] * 10, [1.0] * 10, "not worse"),
    ("converged_frac", [0.5, 1.0] * 5, [0.9] * 10, "unresolved"),   # IQR 67% of the median
    ("converged_frac", [0.5, 0.9] * 5, [1.0] * 10, "not worse"),    # beats every parent run
])
def test_no_worse_verdict_by_the_benchmarks_bound(metric, parent, change, verdict):
    # higher is better for converged_frac, lower for wall_s; the summary
    # carries the verdict of every end-to-end metric
    assert no_worse(parent, change, *METRICS[metric])["verdict"] == verdict
    entry = summary(runs(parent, change), METRICS)["w"]
    assert all("no_worse" in entry[m] for m in METRICS)
    assert entry[metric]["no_worse"]["verdict"] == verdict


def test_count_changes_lists_each_differing_count():
    # per traced workload and seed: the counts that differ, with both
    # sides' values; seconds are not counts, and a seed whose counts all
    # repeat lists none
    def traced(workload, seed, side, **counts):
        metrics = {name: {"value": v, "unit": "count"} for name, v in counts.items()}
        metrics["qp.lu.busy_s"] = {"value": {"parent": 1.0, "change": 2.0}[side], "unit": "s"}
        return {"workload": workload, "seed": seed, "side": side, "line": {"metrics": metrics}}

    runs = [traced("a", 1, "parent", **{"qp.lu.calls": 37, "nlp.sqp_iters": 6}),
            traced("a", 1, "change", **{"qp.lu.calls": 36, "nlp.sqp_iters": 6}),
            traced("a", 2, "parent", **{"qp.lu.calls": 37}),
            traced("a", 2, "change", **{"qp.lu.calls": 37}),
            traced("b", 1, "parent", **{"qp.as.calls": 4}),
            traced("b", 1, "change", **{"qp.as.calls": 4, "qp.ipm.calls": 2})]
    assert count_changes(runs) == [
        {"workload": "a", "seed": 1, "differs": {"qp.lu.calls": {"parent": 37, "change": 36}}},
        {"workload": "a", "seed": 2, "differs": {}},
        {"workload": "b", "seed": 1,
         "differs": {"qp.ipm.calls": {"parent": None, "change": 2}}}]
