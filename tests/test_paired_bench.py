import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from paired_bench import METRICS, paired_rule, summary  # noqa: E402

PARENT = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]   # median 2.45, IQR 0.45


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
    rule = summary(runs(PARENT, change))["w"]["wall_s"]["paired_rule"]
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
