"""Run configuration: strict JSON parsing into the typed module configs.

Each section is passed straight to one constructor, whose fields or keyword
arguments are the only home of that section's keys, defaults and range
checks: ``beam`` builds ``BeamGeometry``, ``sensing`` fills the keywords of
``analytic_init_params``, an explicit ``prior`` builds ``BeamParams``,
``task`` a ``TaskDefinition``, ``estimation`` an ``EstimationConfig`` (its
``v1_scale``/``v2_scale`` go to ``prior_scaled_weights``), ``ocp``
``OcpWeights``, ``plant`` ``PlantConfig`` (``two_segment``:
``TwoSegmentParams``), ``ilc`` ``IlcConfig``, and ``solver`` names up to all
four ``SolverOptions`` fields, which override each solve's own defaults.
``validate`` builds every section once and checks the grids that span
sections, so a bad file fails with a ``ConfigError`` naming the section
before any computation starts.
"""
from __future__ import annotations

import hashlib
import inspect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import BeamGeometry, BeamParams, analytic_init_params
from .estimation import EstimationConfig, prior_scaled_weights
from .ilc import IlcConfig, metric_window_samples
from .kinematics import _rpy_matrix, builtin_chain, forward_kinematics, load_chain
from .nlp import SolverOptions
from .ocp import OcpWeights, TaskDefinition
from .plant import PlantConfig, TwoSegmentParams, steps_per_sample

SECTIONS = ("seed", "out_dir", "chain", "beam", "prior", "sensing", "task",
            "estimation", "ocp", "plant", "ilc", "solver")


class ConfigError(ValueError):
    pass


def _finite_number(text):
    """A JSON number, which must not overflow to an infinity (``1e999``)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _no_constant(name):
    raise ValueError(f"non-finite number {name}")


def load_json(path):
    """The JSON document in ``path``.

    A malformed file or a non-finite number (``NaN``, ``Infinity``,
    ``-Infinity``, or one that overflows) raises a ``ConfigError`` naming
    the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=_finite_number, parse_constant=_no_constant)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None


def _reject_unknown_keys(section, d, allowed):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{section}: unknown keys {sorted(unknown)}")


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
    "ocp": {"r1": 1e-2, "r2": 1e-1, "rho1": 10.0, "rho2": 1.0,
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
        return RunConfig.from_dict(load_json(path))

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
        _reject_unknown_keys("config", d, SECTIONS)
        built = {}

        def check(name, build):
            try:
                return build()
            except KeyError as exc:
                raise ConfigError(f"{name}: missing key {exc}") from exc
            except (TypeError, ValueError, IndexError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc

        for name, build in (
                ("seed", lambda: self.seed),
                ("solver", self.solver_options), ("chain", self.chain),
                ("task", lambda: self.task(built["chain"])),
                ("beam", lambda: "beam" in d and self.beam_geometry()),
                # checked even when an explicit prior leaves the section unused
                ("sensing", lambda: inspect.signature(analytic_init_params).bind(
                    None, **d.get("sensing", {}))),
                ("prior", self.prior_params),
                ("estimation", lambda: self.estimation_config(built["prior"])),
                ("ocp", self.ocp_weights), ("plant", self.plant_config),
                ("ilc", self.ilc_config)):
            built[name] = check(name, build)
        # grids that span sections: the plant samples the estimation grid, and
        # each record holds the estimation horizon and the metric window
        check("estimation", lambda: steps_per_sample(built["plant"], built["estimation"].dt))
        check("ilc", lambda: metric_window_samples(built["task"], built["estimation"],
                                                   built["ilc"]))

    # -- accessors --------------------------------------------------------

    @property
    def seed(self):
        """The plant's noise seed; without a ``"seed"`` key, ``PlantConfig``'s default."""
        seed = self.raw.get("seed", PlantConfig.seed)
        if type(seed) is not int or seed < 0:  # bool is not int here
            raise ValueError(f"must be a non-negative int, not {seed!r}")
        return seed

    def with_seed(self, seed):
        doc = json.loads(json.dumps(self.raw))
        doc["seed"] = seed
        return RunConfig.from_dict(doc)

    def chain(self):
        spec = self.raw["chain"]
        if isinstance(spec, str):
            return builtin_chain(spec)
        if isinstance(spec, dict) and "file" in spec:
            return load_chain(spec["file"])
        raise ConfigError("chain must be a builtin name or {'file': path}")

    def beam_geometry(self):
        return BeamGeometry(**self.raw["beam"])

    def prior_params(self):
        prior = self.raw.get("prior", "analytic")
        if prior == "analytic":
            return analytic_init_params(self.beam_geometry(), **self.raw.get("sensing", {}))
        return BeamParams(**prior)

    def task(self, chain=None):
        chain = chain or self.chain()
        t = dict(self.raw["task"])
        q0 = np.asarray(t.pop("q0"), dtype=float)
        if q0.shape != (chain.n_joints,):
            raise ValueError(f"q0 must have {chain.n_joints} joint angles, not shape {q0.shape}")
        if "goal_joints" in t:
            return TaskDefinition.from_goal_joints(chain, q0, t.pop("goal_joints"), **t)
        if "displacement" in t:
            return TaskDefinition.from_displacement(chain, q0, t.pop("displacement"), **t)
        rot = (_rpy_matrix(t.pop("goal_rpy")) if "goal_rpy" in t
               else forward_kinematics(chain, q0).rotation)
        return TaskDefinition(q0, t.pop("goal_position"), rot, **t)

    def estimation_config(self, p0=None):
        e = dict(self.raw.get("estimation", {}))
        scales = {k: e.pop(k) for k in ("v1_scale", "v2_scale") if k in e}
        v1, v2 = prior_scaled_weights(p0 or self.prior_params(), **scales)
        return EstimationConfig(**{"v1": v1, "v2": v2, **e})

    def ocp_weights(self):
        return OcpWeights(**self.raw.get("ocp", {}))

    def plant_config(self):
        p = dict(self.raw.get("plant", {}))
        if "two_segment" in p:
            p["two_segment"] = TwoSegmentParams(**p["two_segment"])
        return PlantConfig(**p, seed=self.seed)

    def ilc_config(self):
        return IlcConfig(**self.raw.get("ilc", {}))

    def solver_options(self, **overrides):
        return SolverOptions(**{**self.raw.get("solver", {}), **overrides})

    def canonical_json(self):
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()
