"""Run configuration: strict JSON parsing into the typed module configs.

Every section is validated eagerly (unknown keys rejected, physical
nonsense rejected) so a bad file fails before any computation starts.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .dynamics import BeamGeometry, BeamParams, analytic_init_params
from .estimation import DEFAULT_PARAM_BOX, EstimationConfig, prior_scaled_weights
from .ilc import IlcConfig
from .kinematics import builtin_chain, load_chain
from .nlp import SolverOptions
from .ocp import OcpWeights, TaskDefinition
from .plant import PlantConfig, TwoSegmentParams


class ConfigError(ValueError):
    pass


def _require_keys(section, d, allowed, required=()):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{section}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{section}: missing keys {sorted(missing)}")


DEFAULT_CONFIG = {
    "seed": 1234,
    "chain": "planar3",
    "beam": {"length": 0.6, "width": 0.06, "thickness": 0.001,
             "density": 6300.0, "bending_stiffness": 1.267},
    "prior": "analytic",
    "sensing": {"zeta": 0.01, "a": 50.0, "b": 2.0, "tau_e0": 0.0},
    "task": {"q0": [0.5, -0.9, 0.6], "goal_joints": [1.05, -1.25, 0.4],
             "n_ctrl": 48, "n_pred": 144, "dt": 0.01},
    "estimation": {"horizon": 240, "dt": 0.006, "v1_scale": 1e-6, "v2_scale": 1e-2,
                   "w1": 1e-4, "w2": 1e-3, "w3": 1e-2},
    "ocp": {"r1": 1e-2, "r2": 1e-1, "r0": 0.0, "rho1": 10.0, "rho2": 1.0,
            "rho3": 10.0, "gamma": 1.05},
    "plant": {"truth_kind": "two_segment",
              "two_segment": {"m1": 0.12, "l1": 0.4, "k1": 7.835, "c1": 0.010,
                              "m2": 0.03, "l2": 0.2, "k2": 2.0856, "c2": 0.004},
              "a_true": 60.0, "b_true": 2.4, "tau_e0_true": 0.05,
              "noise_std": 0.005, "rate": 1000.0},
    "ilc": {"i_max": 10, "metric_window": 5.0, "n_meas": 920,
            "ablation_no_disturbance": False},
}


@dataclass
class RunConfig:
    """Parsed, validated run configuration."""

    raw: dict = field(repr=False, default_factory=dict)

    @staticmethod
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        return RunConfig.from_dict(doc)

    @staticmethod
    def from_dict(doc):
        cfg = RunConfig(raw=json.loads(json.dumps(doc)))
        cfg.validate()
        return cfg

    @staticmethod
    def default():
        return RunConfig.from_dict(DEFAULT_CONFIG)

    # -- validation -------------------------------------------------------

    def validate(self):
        d = self.raw
        _require_keys("config", d, ["seed", "out_dir", "chain", "beam", "prior",
                                    "sensing", "task", "estimation", "ocp",
                                    "plant", "ilc", "solver"],
                      required=["chain", "task"])
        if "solver" in d:
            _require_keys("solver", d["solver"],
                          ["max_iter", "tol_feas", "tol_opt", "levenberg_init"])
            for k in ("tol_feas", "tol_opt", "levenberg_init"):
                if d["solver"].get(k, 1.0) <= 0:
                    raise ConfigError(f"solver.{k} must be positive")
        if "beam" in d:
            _require_keys("beam", d["beam"],
                          ["length", "width", "thickness", "density", "bending_stiffness"],
                          required=["length", "width", "thickness", "density", "bending_stiffness"])
            for k, v in d["beam"].items():
                if not isinstance(v, (int, float)) or v <= 0:
                    raise ConfigError(f"beam.{k} must be a positive number")
        if "sensing" in d:
            _require_keys("sensing", d["sensing"], ["zeta", "a", "b", "tau_e0"])
        prior = d.get("prior", "analytic")
        if prior != "analytic":
            _require_keys("prior", prior, list("kcml") + ["a", "b", "tau_e0"],
                          required=["k", "c", "m", "l", "a", "b"])
            for k in ("k", "m", "l", "a", "b"):
                if prior[k] <= 0:
                    raise ConfigError(f"prior.{k} must be positive")
            if prior["c"] < 0:
                raise ConfigError("prior.c must be nonnegative")
        _require_keys("task", d["task"],
                      ["q0", "goal_joints", "goal_position", "goal_rpy",
                       "displacement", "n_ctrl", "n_pred", "dt"],
                      required=["q0"])
        t = d["task"]
        if not any(k in t for k in ("goal_joints", "goal_position", "displacement")):
            raise ConfigError("task: need one of goal_joints, goal_position, displacement")
        if t.get("n_ctrl", 48) >= t.get("n_pred", 144):
            raise ConfigError("task: n_ctrl must be below n_pred")
        if "estimation" in d:
            _require_keys("estimation", d["estimation"],
                          ["horizon", "dt", "v1_scale", "v2_scale", "v1", "v2",
                           "w1", "w2", "w3", "p_lb", "p_ub"])
            for k in ("w1", "w2", "w3", "v1_scale", "v2_scale"):
                if k in d["estimation"] and d["estimation"][k] < 0:
                    raise ConfigError(f"estimation.{k} must be nonnegative")
        if "ocp" in d:
            _require_keys("ocp", d["ocp"],
                          ["q_state", "r0", "r1", "r2", "rho1", "rho2", "rho3", "gamma"])
            if d["ocp"].get("gamma", 1.05) <= 1.0:
                raise ConfigError("ocp.gamma must be above 1")
            for k in ("r0", "r1", "r2", "rho1", "rho2", "rho3"):
                if d["ocp"].get(k, 0.0) < 0:
                    raise ConfigError(f"ocp.{k} must be nonnegative")
        if "plant" in d:
            _require_keys("plant", d["plant"],
                          ["truth_kind", "param_factors", "two_segment", "a_true",
                           "b_true", "tau_e0_true", "noise_std", "rate"])
            p = d["plant"]
            if p.get("truth_kind", "two_segment") not in ("perturbed_single", "two_segment"):
                raise ConfigError("plant.truth_kind must be perturbed_single or two_segment")
            if "two_segment" in p:
                _require_keys("plant.two_segment", p["two_segment"],
                              ["m1", "l1", "k1", "c1", "m2", "l2", "k2", "c2"],
                              required=["m1", "l1", "k1", "c1", "m2", "l2", "k2", "c2"])
                for k, v in p["two_segment"].items():
                    if k.startswith(("m", "l", "k")) and v <= 0:
                        raise ConfigError(f"plant.two_segment.{k} must be positive")
            for k in ("noise_std",):
                if p.get(k, 0.0) < 0:
                    raise ConfigError(f"plant.{k} must be nonnegative")
        if "ilc" in d:
            _require_keys("ilc", d["ilc"],
                          ["i_max", "metric_window", "n_meas", "ablation_no_disturbance"])
            if d["ilc"].get("i_max", 1) < 1:
                raise ConfigError("ilc.i_max must be at least 1")

    # -- accessors --------------------------------------------------------

    @property
    def seed(self):
        return int(self.raw.get("seed", 0))

    def with_seed(self, seed):
        doc = json.loads(json.dumps(self.raw))
        doc["seed"] = int(seed)
        return RunConfig.from_dict(doc)

    def chain(self):
        spec = self.raw["chain"]
        if isinstance(spec, str):
            return builtin_chain(spec)
        if isinstance(spec, dict) and "file" in spec:
            return load_chain(spec["file"])
        raise ConfigError("chain must be a builtin name or {'file': path}")

    def beam_geometry(self):
        b = self.raw["beam"]
        return BeamGeometry(b["length"], b["width"], b["thickness"],
                            b["density"], b["bending_stiffness"])

    def prior_params(self):
        sens = self.raw.get("sensing", {})
        if self.raw.get("prior", "analytic") == "analytic":
            return analytic_init_params(self.beam_geometry(),
                                        zeta=sens.get("zeta", 0.01),
                                        a=sens.get("a", 50.0),
                                        b=sens.get("b", 2.0),
                                        tau_e0=sens.get("tau_e0", 0.0))
        p = self.raw["prior"]
        return BeamParams(p["k"], p["c"], p["m"], p["l"], p["a"], p["b"],
                          p.get("tau_e0", 0.0))

    def task(self, chain=None):
        chain = chain or self.chain()
        t = self.raw["task"]
        q0 = np.asarray(t["q0"], dtype=float)
        kw = {"n_ctrl": t.get("n_ctrl", 48), "n_pred": t.get("n_pred", 144),
              "dt": t.get("dt", 0.01)}
        if "goal_joints" in t:
            return TaskDefinition.from_goal_joints(chain, q0, t["goal_joints"], **kw)
        if "displacement" in t:
            return TaskDefinition.from_displacement(chain, q0, t["displacement"], **kw)
        from .kinematics import _rpy_matrix, forward_kinematics
        rot = (_rpy_matrix(t["goal_rpy"]) if "goal_rpy" in t
               else forward_kinematics(chain, q0).rotation)
        return TaskDefinition(q0, t["goal_position"], rot, **kw)

    def estimation_config(self, p0=None):
        e = self.raw.get("estimation", {})
        scales = {k: e[k] for k in ("v1_scale", "v2_scale") if k in e}
        v1, v2 = prior_scaled_weights(p0 or self.prior_params(), **scales)
        return EstimationConfig(
            v1=e.get("v1", v1), v2=e.get("v2", v2),
            w1=e.get("w1", 1e-4), w2=e.get("w2", 1e-3), w3=e.get("w3", 1e-2),
            p_lb=np.asarray(e.get("p_lb", DEFAULT_PARAM_BOX["lb"]), dtype=float),
            p_ub=np.asarray(e.get("p_ub", DEFAULT_PARAM_BOX["ub"]), dtype=float),
            horizon=e.get("horizon", 240), dt=e.get("dt", 6e-3))

    def ocp_weights(self):
        o = self.raw.get("ocp", {})
        return OcpWeights(
            q_state=np.asarray(o["q_state"], dtype=float) if "q_state" in o else None,
            r1=o.get("r1", 1e-2), r2=o.get("r2", 1e-1), r0=o.get("r0", 0.0),
            rho1=o.get("rho1", 10.0), rho2=o.get("rho2", 1.0),
            rho3=o.get("rho3", 10.0), gamma=o.get("gamma", 1.05))

    def plant_config(self):
        p = self.raw.get("plant", {})
        ts = None
        if "two_segment" in p:
            ts = TwoSegmentParams(**p["two_segment"])
        return PlantConfig(
            truth_kind=p.get("truth_kind", "two_segment"),
            param_factors=tuple(p.get("param_factors", (1.0, 1.0, 1.0, 1.0))),
            two_segment=ts,
            a_true=p.get("a_true", 60.0), b_true=p.get("b_true", 2.4),
            tau_e0_true=p.get("tau_e0_true", 0.05),
            noise_std=p.get("noise_std", 0.005),
            rate=p.get("rate", 1000.0), seed=self.seed)

    def ilc_config(self):
        i = self.raw.get("ilc", {})
        return IlcConfig(i_max=i.get("i_max", 10),
                         metric_window=i.get("metric_window", 5.0),
                         n_meas=i.get("n_meas", 920),
                         ablation_no_disturbance=i.get("ablation_no_disturbance", False))

    def solver_options(self, **overrides):
        s = dict(self.raw.get("solver", {}))
        s.update(overrides)
        return SolverOptions(max_iter=s.get("max_iter", 120),
                             tol_feas=s.get("tol_feas", 1e-8),
                             tol_opt=s.get("tol_opt", 1e-6),
                             levenberg_init=s.get("levenberg_init", 1e-6))

    def canonical_json(self):
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()
