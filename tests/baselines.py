"""Sanity-baseline policies the tests evaluate next to trained ones: the
scripted demonstrator, which should reach every goal of a suite, and a
policy that stands still, which should time out on every task."""
from __future__ import annotations

import numpy as np

from fanav.errors import FanavError, ProtocolError
from fanav.evaluation import Task
from fanav.expert import ExpertConfig, expert_action, plan_path
from fanav.sim import Action, Pose, RobotSpec, World


class ExpertPilot:
    """The scripted demonstrator wrapped as an evaluation policy."""

    def __init__(self, cfg: ExpertConfig | None = None, name: str = "expert"):
        self.cfg = cfg or ExpertConfig()
        self.name = name
        self._path = None
        self._spec = None

    def reset(self, world: World, spec: RobotSpec, task: Task) -> None:
        self._spec = spec
        # fall back to tighter margins when the preferred one cannot plan
        margins = sorted({self.cfg.plan_inflation, 0.05, 0.02}, reverse=True)
        last_exc = None
        for margin in margins:
            try:
                self._path = plan_path(world, (task.sx, task.sy), task.goal,
                                       spec.radius, margin)
                return
            except FanavError as exc:
                last_exc = exc
        raise last_exc

    def act(self, state: np.ndarray, pose: Pose) -> Action:
        if self._path is None:
            raise ProtocolError("ExpertPilot.act before reset")
        return expert_action(pose, self._path, self._spec, self.cfg)


class ZeroPolicy:
    """Stands still; times out every task. Useful as a metrics baseline."""

    name = "zero"

    def reset(self, world: World, spec: RobotSpec, task: Task) -> None:
        pass

    def act(self, state: np.ndarray, pose: Pose) -> Action:
        return Action(0.0, 0.0)
