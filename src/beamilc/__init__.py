"""Learning-control toolkit for vibration-free flexible beam handling.

A serial arm carries a flexible beam approximated as a spring-damper
pendulum on the end-effector frame. The package simulates a richer truth
plant, learns the lumped parameters plus an equivalent output disturbance
from repeated executions, and plans point-to-point joint trajectories that
leave no residual vibration.
"""

__version__ = "0.1.0"

from .config import RunConfig
from .dynamics import BeamGeometry, BeamParams, analytic_init_params
from .estimation import EstimationConfig, LearnedModel
from .ilc import IlcConfig, IlcRecord, run_ilc, vibration_metric
from .kinematics import (FramePose, KinematicChain, builtin_chain, forward_kinematics,
                         orientation_error)
from .ocp import OcpWeights, PlannedMotion, TaskDefinition, solve_ptp_ocp
from .plant import ExperimentResult, PlantConfig, TwoSegmentParams, run_experiment
from .trajectory import Trajectory

__all__ = [
    "BeamGeometry", "BeamParams", "EstimationConfig", "ExperimentResult",
    "FramePose", "IlcConfig", "IlcRecord", "KinematicChain", "LearnedModel",
    "OcpWeights", "PlannedMotion", "PlantConfig", "RunConfig", "TaskDefinition",
    "Trajectory", "TwoSegmentParams", "analytic_init_params", "builtin_chain",
    "forward_kinematics", "orientation_error", "run_experiment", "run_ilc",
    "solve_ptp_ocp", "vibration_metric",
]
