import dataclasses
import hashlib
import json
import os
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from beamilc.cli import main
from beamilc import nlp
from beamilc.config import DEFAULT_CONFIG, ConfigError, RunConfig
from beamilc.nlp import SolverOptions
from beamilc.trajectory import Trajectory

TINY = {
    "seed": 42,
    "chain": "planar3",
    "beam": {"length": 0.6, "width": 0.06, "thickness": 0.001,
             "density": 6300.0, "bending_stiffness": 1.267},
    "task": {"q0": [0.5, -0.9, 0.6], "goal_joints": [0.8, -1.05, 0.5],
             "n_ctrl": 40, "n_pred": 100, "dt": 0.01},
    "estimation": {"horizon": 150, "dt": 0.006},
    "plant": {"truth_kind": "two_segment",
              "two_segment": {"m1": 0.12, "l1": 0.4, "k1": 7.835, "c1": 0.010,
                              "m2": 0.03, "l2": 0.2, "k2": 2.0856, "c2": 0.004},
              "a_true": 60.0, "b_true": 2.4, "tau_e0_true": 0.05,
              "noise_std": 0.005, "rate": 1000.0},
    "ilc": {"i_max": 2, "metric_window": 1.5, "n_meas": 450,
            "ablation_no_disturbance": False},
}


def write_cfg(tmp_path, doc=None, name="cfg.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(doc or TINY, fh)
    return str(path)


def hash_tree(root):
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(root)):
        for fn in sorted(files):
            with open(os.path.join(base, fn), "rb") as fh:
                digest.update(fn.encode())
                digest.update(fh.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_unknown_keys():
    doc = json.loads(json.dumps(TINY))
    doc["unknown_section"] = {}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)
    doc = json.loads(json.dumps(TINY))
    doc["ocp"] = {"rho_unknown": 1.0}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)
    # every section, an explicit prior, and the two keys that are not knobs:
    # the plant seed is the top-level seed, and the QP budget is not exposed
    cases = [(sec, "unknown_key") for sec in ("beam", "sensing", "task", "estimation", "ocp",
                                             "plant", "ilc", "solver", "prior")]
    cases += [("plant", "seed"), ("solver", "qp_max_iter")]
    for section, key in cases:
        doc = json.loads(json.dumps(DEFAULT_CONFIG))
        doc["prior"] = {"k": 4.35, "c": 0.0049, "m": 0.085, "l": 0.4, "a": 50.0, "b": 2.0}
        doc.setdefault(section, {})[key] = 1
        with pytest.raises(ConfigError, match=section):
            RunConfig.from_dict(doc)
    doc = json.loads(json.dumps(TINY))
    doc["plant"]["two_segment"]["m3"] = 0.1
    with pytest.raises(ConfigError, match="plant"):
        RunConfig.from_dict(doc)
    doc = json.loads(json.dumps(TINY))
    doc["solver"] = None
    with pytest.raises(ConfigError, match="solver"):
        RunConfig.from_dict(doc)


def test_config_rejects_physical_nonsense():
    doc = json.loads(json.dumps(TINY))
    doc["ocp"] = {"gamma": 0.9}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)
    doc = json.loads(json.dumps(TINY))
    doc["beam"]["density"] = -1.0
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)
    doc = json.loads(json.dumps(TINY))
    doc["plant"]["two_segment"]["m1"] = -0.1
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)
    doc = json.loads(json.dumps(TINY))
    doc["solver"] = {"levenberg_init": 0.0}
    with pytest.raises(ConfigError, match="solver"):
        RunConfig.from_dict(doc)
    # the SQP budget is a positive int: no string, zero, negative, float or bool
    for bad in ("a", 0, -3, 2.5, True, False):
        doc["solver"] = {"max_iter": bad}
        with pytest.raises(ConfigError, match="solver"):
            RunConfig.from_dict(doc)
    with pytest.raises(ValueError):
        SolverOptions(tol_opt=0.0)


@pytest.mark.parametrize("section, key, bad", [
    ("task", "n_ctrl", 48.5), ("task", "n_pred", 144.5), ("task", "n_pred", True),
    ("estimation", "horizon", 2.5), ("estimation", "horizon", 0),
    ("estimation", "horizon", True), ("estimation", "dt", 0.0), ("estimation", "dt", -0.006),
    ("ilc", "i_max", 2.5), ("ilc", "i_max", True), ("ilc", "n_meas", 0),
    ("ilc", "n_meas", 450.5), ("ilc", "n_meas", True)])
def test_config_rejects_bad_counts_and_grid(tmp_path, capsys, section, key, bad):
    # counts are positive ints (no float, no bool) and the estimation grid is
    # positive; each fails validation, before any solve, with exit code 1
    doc = json.loads(json.dumps(TINY))
    doc[section][key] = bad
    with pytest.raises(ConfigError, match=section):
        RunConfig.from_dict(doc)
    rc = main(["ilc", "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert section in capsys.readouterr().err


@pytest.mark.parametrize("section, key, bad", [
    ("estimation", "dt", 0.0065),     # not a whole number of 1 kHz plant steps
    ("ilc", "n_meas", 149),           # shorter than the estimation horizon of 150
    ("ilc", "metric_window", 2.5),    # 67 motion + 416 window samples exceed n_meas 450
    ("ilc", "metric_window", 0.005)])  # shorter than one estimation sample
def test_config_rejects_inconsistent_grids(tmp_path, capsys, section, key, bad):
    # grids that span sections fail validation, before any solve, naming the section
    doc = json.loads(json.dumps(TINY))
    doc[section][key] = bad
    with pytest.raises(ConfigError, match=f"^{section}: "):
        RunConfig.from_dict(doc)
    rc = main(["ilc", "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {section}: ")
    assert not (tmp_path / "run").exists()


def test_config_defaults_parse():
    cfg = RunConfig.default()
    assert cfg.chain().n_joints == 3
    assert cfg.prior_params().k > 0
    assert cfg.hash() == RunConfig.default().hash()


def test_config_solver_section():
    doc = json.loads(json.dumps(TINY))
    doc["solver"] = {"max_iter": 50, "tol_feas": 1e-9, "tol_opt": 1e-7,
                     "levenberg_init": 1e-5}
    cfg = RunConfig.from_dict(doc)
    opts = cfg.solver_options()
    assert opts.max_iter == 50 and opts.tol_opt == 1e-7
    doc["solver"]["tol_feas"] = -1.0
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)
    doc["solver"] = {"unknown_opt": 1}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)


def test_partial_solver_section_keeps_each_budget(tmp_path, monkeypatch):
    # the section overrides only what it names: each solve keeps its own
    # SQP budget (OCP 150, parameter fit 80, disturbance fit 60)
    doc = json.loads(json.dumps(TINY))
    doc["ilc"]["i_max"] = 1
    doc["solver"] = {"tol_opt": 1e-7}
    seen = []
    solve = nlp.solve

    def recording_solve(problem, opts=None):
        seen.append(opts)
        return solve(problem, dataclasses.replace(opts, max_iter=2))

    monkeypatch.setattr(nlp, "solve", recording_solve)
    main(["ilc", "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "run")])
    assert [o.max_iter for o in seen] == [150, 80, 60, 150]
    assert all(o == SolverOptions(max_iter=o.max_iter, tol_opt=1e-7) for o in seen)


def readme_config():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
              encoding="utf-8") as fh:
        block = re.search(r"A minimal configuration:\s*```json\n(.*?)```", fh.read(), re.S)
    return json.loads(block.group(1))


def assert_same_config(a, b):
    assert type(a) is type(b)
    for f in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))


def test_readme_minimal_config_matches_defaults(tmp_path):
    # the default document restates the code defaults: leaving a section
    # out of the README's minimal config changes nothing
    minimal = RunConfig.from_dict(readme_config())
    default = RunConfig.default()
    for accessor in ("prior_params", "task", "estimation_config", "ocp_weights",
                     "plant_config", "ilc_config"):
        assert_same_config(getattr(minimal, accessor)(), getattr(default, accessor)())
    t = np.arange(40) * 0.01
    u_path = tmp_path / "u.csv"
    Trajectory(0.01, np.stack([np.sin(3 * t + j) for j in range(3)], axis=1),
               ("u1", "u2", "u3")).to_csv(u_path)
    outputs = []
    for name, doc in (("readme", readme_config()), ("default", DEFAULT_CONFIG)):
        out = tmp_path / name
        rc = main(["simulate", "--config", write_cfg(tmp_path, doc, f"{name}.json"),
                   "--input", str(u_path), "--out", str(out), "--samples", "200"])
        assert rc == 0
        outputs.append((out / "y_meas.csv").read_bytes())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_input_constant_output(tmp_path):
    doc = json.loads(json.dumps(TINY))
    doc["plant"]["noise_std"] = 0.0
    doc["plant"]["tau_e0_true"] = 0.0
    cfg = write_cfg(tmp_path, doc)
    u = Trajectory(0.01, np.zeros((50, 3)), ("u1", "u2", "u3"))
    u_path = tmp_path / "u.csv"
    u.to_csv(u_path)
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", cfg, "--input", str(u_path),
               "--out", str(out), "--samples", "200"])
    assert rc == 0
    y = Trajectory.from_csv(out / "y_meas.csv")
    np.testing.assert_allclose(y.data[:, 0], y.data[0, 0], atol=1e-9)


def test_simulate_missing_chain_file(tmp_path, capsys):
    doc = json.loads(json.dumps(TINY))
    doc["chain"] = {"file": "/nonexistent/chain.json"}
    cfg = write_cfg(tmp_path, doc)
    u_path = tmp_path / "u.csv"
    Trajectory(0.01, np.zeros((5, 3)), ("u1", "u2", "u3")).to_csv(u_path)
    rc = main(["simulate", "--config", cfg, "--input", str(u_path),
               "--out", str(tmp_path / "x")])
    assert rc == 1
    assert "/nonexistent/chain.json" in capsys.readouterr().err


def test_simulate_round_trip_precision(tmp_path):
    cfg = write_cfg(tmp_path)
    t = np.arange(60) * 0.01
    u = Trajectory(0.01, np.stack([np.sin(3 * t + j) for j in range(3)], axis=1),
                   ("u1", "u2", "u3"))
    u_path = tmp_path / "u.csv"
    u.to_csv(u_path)
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", cfg, "--input", str(u_path),
               "--out", str(out), "--samples", "300"])
    assert rc == 0
    y1 = Trajectory.from_csv(out / "y_meas.csv")
    # re-emit and re-ingest: values stable at 9 significant digits
    y1.to_csv(tmp_path / "y2.csv")
    y2 = Trajectory.from_csv(tmp_path / "y2.csv")
    np.testing.assert_array_equal(y1.data, y2.data)
    scale = np.maximum(np.abs(y1.data), 1e-12)
    assert np.max(np.abs(y1.data - y2.data) / scale) < 1e-8


# ---------------------------------------------------------------------------
# estimate / ocp


def test_estimate_recovers_parameters_from_csv(tmp_path, chain3, free_params):
    from beamilc.dynamics import fast_rollout
    from reference_model import _model_init_state

    doc = json.loads(json.dumps(TINY))
    doc["estimation"] = {"horizon": 240, "dt": 0.006, "v1_scale": 0.0, "v2_scale": 0.0}
    doc["prior"] = {"k": 4.35, "c": 0.0049, "m": 0.085, "l": 0.4, "a": 50.0,
                    "b": 2.0, "tau_e0": 0.0}
    cfg = write_cfg(tmp_path, doc)
    t = np.arange(240) * 0.006
    u = Trajectory(0.006, np.stack([
        3.0 * np.sin(2 * np.pi * 1.3 * t) * np.exp(-t),
        2.5 * np.sin(2 * np.pi * 2.1 * t + 1.0) * np.exp(-t),
        2.0 * np.sin(2 * np.pi * 0.9 * t + 0.4) * np.exp(-t)], axis=1),
        ("u1", "u2", "u3"))
    x0, _ = _model_init_state(chain3, np.array(TINY["task"]["q0"]), free_params)
    _, ys = fast_rollout(chain3, x0, u.data, free_params, None, 0.006)
    y = Trajectory(0.006, ys[:, None], ("tau_hat",))
    u.to_csv(tmp_path / "u.csv")
    y.to_csv(tmp_path / "y.csv")
    out = tmp_path / "est"
    rc = main(["estimate", "--config", cfg, "--y", str(tmp_path / "y.csv"),
               "--u", str(tmp_path / "u.csv"), "--out", str(out)])
    assert rc == 0
    with open(out / "model.json") as fh:
        model = json.load(fh)
    assert model["params"]["k"] == pytest.approx(free_params.k, rel=1e-3)
    assert model["params"]["a"] == pytest.approx(free_params.a, rel=1e-3)
    assert os.path.exists(out / "d.csv")


@pytest.mark.parametrize("dt, n", [(0.01, 150), (0.006, 100)])
def test_estimate_rejects_d_prev_off_the_grid(tmp_path, capsys, dt, n):
    # a previous disturbance on another grid, or shorter than the estimation
    # horizon of 150 samples, is a hard error that names it
    Trajectory(0.006, np.zeros((150, 3)), ("u1", "u2", "u3")).to_csv(tmp_path / "u.csv")
    Trajectory(0.006, np.zeros((150, 1)), ("tau_hat",)).to_csv(tmp_path / "y.csv")
    Trajectory(dt, np.zeros((n, 1)), ("d",)).to_csv(tmp_path / "d.csv")
    rc = main(["estimate", "--config", write_cfg(tmp_path), "--y", str(tmp_path / "y.csv"),
               "--u", str(tmp_path / "u.csv"), "--d-prev", str(tmp_path / "d.csv"),
               "--out", str(tmp_path / "est")])
    assert rc == 1
    assert "d_prev" in capsys.readouterr().err


def test_ocp_zero_displacement_zero_u(tmp_path):
    doc = json.loads(json.dumps(TINY))
    doc["task"]["goal_joints"] = doc["task"]["q0"]
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "ocp"
    rc = main(["ocp", "--config", cfg, "--out", str(out)])
    assert rc == 0
    plan = Trajectory.from_csv(out / "planned_motion.csv")
    for lbl in ("u1", "u2", "u3"):
        np.testing.assert_allclose(plan.column(lbl), 0.0, atol=1e-9)
    with open(out / "plan_summary.json") as fh:
        summary = json.load(fh)
    assert summary["status"] == "converged"
    assert summary["terminal_position_error"] < 1e-6


def test_ocp_rejects_single_control_node(tmp_path, capsys):
    doc = json.loads(json.dumps(TINY))
    doc["task"]["n_ctrl"] = 1
    with pytest.raises(ConfigError, match="task"):
        RunConfig.from_dict(doc)
    rc = main(["ocp", "--config", write_cfg(tmp_path, doc), "--out", str(tmp_path / "ocp")])
    assert rc == 1
    assert "task" in capsys.readouterr().err


def test_ocp_infeasible_task_exit_code(tmp_path):
    doc = json.loads(json.dumps(TINY))
    doc["task"]["q0"] = [0.5, -0.9, 0.6]
    doc["task"]["goal_joints"] = [1.4, -1.3, 0.3]  # beyond velocity limits
    cfg = write_cfg(tmp_path, doc)
    rc = main(["ocp", "--config", cfg, "--out", str(tmp_path / "ocp")])
    assert rc == 2


# ---------------------------------------------------------------------------
# ilc + plot


@pytest.fixture(scope="module")
def ilc_run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ilcrun")
    cfg = write_cfg(tmp)
    out = tmp / "run"
    rc = main(["ilc", "--config", cfg, "--out", str(out)])
    assert rc == 0
    return out


def test_ilc_run_artifacts(ilc_run_dir):
    names = sorted(os.listdir(ilc_run_dir))
    assert "manifest.json" in names and "summary.json" in names
    assert "iter_001" in names and "iter_002" in names
    with open(ilc_run_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["seed"] == 42
    assert "config_hash" in manifest
    with open(ilc_run_dir / "summary.json") as fh:
        summary = json.load(fh)
    assert len(summary["iterations"]) == 2
    for fn in ("u.csv", "y_meas.csv", "y_pred.csv", "d.csv", "model.json"):
        assert os.path.exists(ilc_run_dir / "iter_001" / fn)


def test_ilc_summary_reports_fit_effort(ilc_run_dir):
    # next to the bare status strings, each record carries both fits' SQP
    # iterations and QP effort, and the conditioning of the parameter fit
    with open(ilc_run_dir / "summary.json") as fh:
        its = json.load(fh)["iterations"]
    for it in its:
        st = it["statuses"]
        assert st["parameters"] in ("converged", "max-iter")
        assert st["disturbance"] == "converged"
        for fit in ("parameters", "disturbance"):
            effort = st[f"{fit}_effort"]
            assert set(effort) == {"iterations", *nlp.QP_EFFORT}
            assert all(type(v) is int for v in effort.values())
            assert effort["iterations"] >= 1
            assert effort["qp_calls"] >= effort["qp_ipm_calls"] >= 0
        cond = st["parameters_condition"]
        assert cond is None or cond >= 1.0


def test_plot_outputs_parse(ilc_run_dir, tmp_path):
    out = tmp_path / "figs"
    rc = main(["plot", "--run", str(ilc_run_dir), "--out", str(out)])
    assert rc == 0
    for name in ("learning_curves.svg", "torque_traces.svg"):
        path = out / name
        assert os.path.getsize(path) > 500
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")


def test_plot_single_iteration(tmp_path):
    doc = json.loads(json.dumps(TINY))
    doc["ilc"]["i_max"] = 1
    cfg = write_cfg(tmp_path, doc)
    out = tmp_path / "run1"
    assert main(["ilc", "--config", cfg, "--out", str(out)]) == 0
    figs = tmp_path / "figs"
    assert main(["plot", "--run", str(out), "--out", str(figs)]) == 0
    assert os.path.getsize(figs / "learning_curves.svg") > 500


def test_plot_deterministic(ilc_run_dir, tmp_path):
    out1, out2 = tmp_path / "f1", tmp_path / "f2"
    assert main(["plot", "--run", str(ilc_run_dir), "--out", str(out1)]) == 0
    assert main(["plot", "--run", str(ilc_run_dir), "--out", str(out2)]) == 0
    assert hash_tree(out1) == hash_tree(out2)


def test_plot_missing_records(tmp_path):
    assert main(["plot", "--run", str(tmp_path / "nope")]) == 1


def test_seed_override_changes_outputs(tmp_path, ilc_run_dir):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "other_seed"
    assert main(["ilc", "--config", cfg, "--seed", "43", "--out", str(out)]) == 0
    y1 = Trajectory.from_csv(ilc_run_dir / "iter_001" / "y_meas.csv")
    y2 = Trajectory.from_csv(out / "iter_001" / "y_meas.csv")
    assert not np.array_equal(y1.data, y2.data)
