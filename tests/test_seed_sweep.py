import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
from seed_sweep import SEEDS, compare, differences, pass_statuses, record  # noqa: E402


def synthetic_summary(v, parameters="max-iter"):
    """A ``summary.json`` of one pass per entry of ``v``, as ``beamilc ilc`` writes it."""
    its = []
    for i, metric in enumerate(v, start=1):
        statuses = {"parameters": parameters if i == 1 else "converged",
                    "parameters_effort": {"iterations": 80}, "disturbance": "converged",
                    "ocp_next": {"status": "converged", "iterations": 3}}
        if i == 1:
            statuses["ocp_entry"] = {"status": "converged", "iterations": 3}
        its.append({"iteration": i, "metric": metric, "flagged": False, "statuses": statuses})
    return {"iterations": its}


def sweep(**records):
    return {"checkout": "x", "config": None, "seeds": records}


V = [0.2, 0.05, 0.02, 0.01]
PARAMS = [{"k": 6.0 + i, "c": 0.001} for i in range(4)]


def test_record_reads_v_statuses_and_parameters():
    rec = record(synthetic_summary(V), PARAMS, 0)
    assert rec["v"] == V and rec["v1_v10"] == 0.2 / 0.01
    assert rec["statuses"][0] == {"ocp_entry": "converged", "ocp_next": "converged",
                                  "parameters": "max-iter", "disturbance": "converged"}
    assert rec["statuses"][1] == {"ocp_next": "converged", "parameters": "converged",
                                  "disturbance": "converged"}
    assert rec["params"] == PARAMS and rec["flagged"] == [False] * 4 and rec["exit_code"] == 0
    # the efforts are not statuses
    assert pass_statuses(synthetic_summary(V)["iterations"][0]["statuses"]).keys() == {
        "ocp_entry", "ocp_next", "parameters", "disturbance"}


def test_compare_identical_sweeps():
    a = sweep(**{str(s): record(synthetic_summary(V), PARAMS, 0) for s in SEEDS})
    b = sweep(**{str(s): record(synthetic_summary(list(V)), [dict(p) for p in PARAMS], 0)
                 for s in SEEDS})
    assert compare(a, b) == ["identical"]
    assert SEEDS == (1234, 1, 2, 3, 4, 5, 6)


def test_compare_names_each_difference_down_to_the_last_bit():
    base = record(synthetic_summary(V), PARAMS, 0)
    v_moved = list(V)
    v_moved[3] = math.nextafter(V[3], 1.0)                # the last bit of V4
    params = [dict(p) for p in PARAMS]
    params[1]["k"] = 7.5
    moved = record(synthetic_summary(v_moved, parameters="converged"), params, 2)
    lines = compare(sweep(**{"1": base, "2": base}), sweep(**{"1": base, "2": moved}))
    assert "seed 2: exit_code: 0 -> 2" in lines
    assert any(line.startswith("seed 2: v[4]: ") for line in lines)
    assert any(line.startswith("seed 2: v1_v10: ") and "relative" in line for line in lines)
    assert "seed 2: params[2].k: 7.0 -> 7.5 (+0.0714 relative)" in lines
    assert "seed 2: statuses[1].parameters: 'max-iter' -> 'converged'" in lines
    assert not any(line.startswith("seed 1") for line in lines)


def test_compare_reports_a_missing_seed():
    rec = record(synthetic_summary(V), PARAMS, 0)
    assert compare(sweep(**{"1": rec}), sweep(**{"1": rec, "2": rec})) == [
        "seed 2: only in the second sweep"]
    assert differences({"v": [1.0]}, {"v": [1.0, 2.0]}) == ["v: [1.0] -> [1.0, 2.0]"]
