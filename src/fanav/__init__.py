"""Failure-aware offline reinforcement learning for mapless 2-D navigation.

The package covers the full experimental loop: a deterministic LiDAR
navigation simulator, a scripted demonstrator that yields both successful
and collision-terminated episodes, a partitioned offline dataset with
stratified sampling, numpy-backed network training (behavior cloning and
three IQL variants, including the failure-aware asymmetric one), and a
suite-based evaluation harness with SR/CR/TR reporting.
"""

from .data import (
    EncoderProfile,
    OfflineDataset,
    SamplerConfig,
    build_dataset,
    encode_state,
    load_dataset,
    save_dataset,
)
from .errors import FanavError
from .evaluation import (
    EvalResult,
    NetworkPolicy,
    Task,
    TaskSuite,
    compare,
    evaluate_suite,
    export_trajectories,
    load_suite,
    make_suite,
    rollout,
    save_suite,
)
from .expert import ExpertConfig, Trajectory, collect, collect_to_ratio, plan_path
from .sim import (
    Action,
    EpisodeConfig,
    EpisodeEngine,
    NavState,
    Pose,
    RobotSpec,
    World,
    load_world,
    save_world,
)
from .trainers import METHODS, TrainerConfig, TrainReport, train
from .worldgen import generate_world

__version__ = "0.1.0"

__all__ = [
    "Action",
    "EncoderProfile",
    "EpisodeConfig",
    "EpisodeEngine",
    "EvalResult",
    "ExpertConfig",
    "FanavError",
    "METHODS",
    "NavState",
    "NetworkPolicy",
    "OfflineDataset",
    "Pose",
    "RobotSpec",
    "SamplerConfig",
    "Task",
    "TaskSuite",
    "TrainReport",
    "TrainerConfig",
    "Trajectory",
    "World",
    "build_dataset",
    "collect",
    "collect_to_ratio",
    "compare",
    "encode_state",
    "evaluate_suite",
    "export_trajectories",
    "generate_world",
    "load_dataset",
    "load_suite",
    "load_world",
    "make_suite",
    "plan_path",
    "rollout",
    "save_dataset",
    "save_suite",
    "save_world",
    "train",
    "__version__",
]
