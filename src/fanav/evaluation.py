"""Policy evaluation: fixed task suites, SR/CR/TR metrics, trajectory export.

A suite is a persisted list of start/goal tasks for one world and one
robot radius, so every method is scored on identical tasks. Each trial
re-runs the suite with a small collision-checked start-pose jitter; rates
are averaged over trials (mean and population standard deviation).
Success, collision and timeout counts partition the task set, so the three
rates sum to 100 percent, up to the rounding of each.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, DataFormatError, NoPathError, ProtocolError,
                     ShapeError)
from .configfile import Settings, setting
from .data import EncoderProfile, encode_state
from .expert import plan_path
from .nets import GaussianPolicyHead, Mlp, load_checkpoint
from .sim import (
    COLLISION,
    SUCCESS,
    TIMEOUT,
    Action,
    EpisodeConfig,
    Pose,
    RobotSpec,
    World,
    read_directives,
    sample_task,
    simulate,
)

OUTCOMES = (SUCCESS, COLLISION, TIMEOUT)


class EvalConfig(Settings, section="eval"):
    """``[eval]``: tasks per suite, jittered runs per task, the start-pose
    jitter (m, rad) and the least start-to-goal distance of a task (m)."""

    n_tasks: int = setting(50, ">= 1")
    n_trials: int = setting(3, ">= 1")
    jitter_pos: float = setting(0.1, ">= 0")
    jitter_heading: float = setting(0.1, ">= 0")
    min_separation: float = setting(3.0, ">= 0")


@dataclass(frozen=True)
class Task:
    sx: float
    sy: float
    sheading: float
    gx: float
    gy: float

    @property
    def start(self) -> Pose:
        return Pose(self.sx, self.sy, self.sheading)

    @property
    def goal(self) -> tuple[float, float]:
        return (self.gx, self.gy)


@dataclass
class TaskSuite:
    """Tasks sampled in the world ``world_name`` with clearance for a robot
    of ``radius``; a file holds both in its first two lines."""

    world_name: str
    radius: float
    tasks: list[Task]
    episode: EpisodeConfig

    def __len__(self) -> int:
        return len(self.tasks)

    def canonical_text(self) -> str:
        lines = [f"task {t.sx:.6f} {t.sy:.6f} {t.sheading:.6f} "
                 f"{t.gx:.6f} {t.gy:.6f}" for t in self.tasks]
        return "\n".join(lines) + "\n"

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.world_name.encode())
        h.update(self.canonical_text().encode())
        return h.hexdigest()


def make_suite(world: World, spec: RobotSpec, episode: EpisodeConfig,
               n_tasks: int, seed: int,
               min_separation: float = EvalConfig.min_separation
               ) -> TaskSuite:
    """Sample collision-free, planner-feasible start/goal tasks."""
    EvalConfig(n_tasks=n_tasks, min_separation=min_separation)  # bound checks
    rng = np.random.default_rng([seed, 0x5717e])
    tasks: list[Task] = []
    clearance = spec.radius + 0.1  # free space at start and goal
    attempts = 0
    while len(tasks) < n_tasks:
        attempts += 1
        if attempts > 200 * n_tasks:
            raise ConfigError("could not sample enough feasible tasks")
        start, goal = sample_task(world, rng, clearance, min_separation)
        try:
            plan_path(world, (start.x, start.y), goal, spec.radius)
        except NoPathError:
            continue
        tasks.append(Task(start.x, start.y, start.heading, goal[0], goal[1]))
    return TaskSuite(world.name, spec.radius, tasks, episode)


def save_suite(suite: TaskSuite, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"world {suite.world_name}\nradius {suite.radius!r}\n"
                 + suite.canonical_text())


def load_suite(path: str, episode: EpisodeConfig) -> TaskSuite:
    """Read a suite: a ``world <name>`` line, a ``radius <r>`` line, then
    one ``task sx sy sh gx gy`` line per task."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    heads, tasks = [], []
    for lineno, kind, args in read_directives(text, path, ConfigError,
                                              words=("world",)):
        if len(heads) < 2:
            want = ("world", "radius")[len(heads)]
            if kind != want or len(args) != 1:
                raise ConfigError(
                    f"{path}:{lineno}: expected '{want} ...': a suite "
                    "starts with its world and radius lines; re-create it")
            heads.append(args[0])
        elif kind != "task" or len(args) != 5:
            raise ConfigError(f"{path}:{lineno}: expected "
                              "'task sx sy sh gx gy'")
        else:
            tasks.append(Task(*args))
    if not tasks:
        raise ConfigError(f"{path}: empty suite")
    return TaskSuite(*heads, tasks, episode)


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

class NetworkPolicy:
    """Deterministic policy: squashed mean action of a trained head."""

    def __init__(self, head: GaussianPolicyHead, profile: EncoderProfile,
                 name: str = "policy"):
        if head.obs_dim != profile.dim:
            raise ShapeError(
                f"checkpoint expects {head.obs_dim}-dim features but the "
                f"encoder produces {profile.dim} (beam count mismatch?)")
        self.head = head
        self.profile = profile
        self.name = name

    @classmethod
    def from_checkpoint(cls, path: str) -> "NetworkPolicy":
        nets, meta = load_checkpoint(path)
        mean_net, log_std = nets.get("policy_mean"), nets.get("policy_log_std")
        if not (isinstance(mean_net, Mlp) and isinstance(log_std, np.ndarray)):
            raise DataFormatError(f"{path} is not a policy checkpoint: it "
                                  "has no policy_mean net or policy_log_std")
        try:
            profile = EncoderProfile.from_dict(meta["profile"])
            head = GaussianPolicyHead(mean_net, profile.action_scale,
                                      log_std=log_std)
            name = meta["config"]["method"]
            if not isinstance(name, str):
                raise TypeError(f"method {name!r} is not a name")
            return cls(head, profile, name=name)
        except ShapeError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
        except (ConfigError, KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: incomplete or malformed "
                                  f"checkpoint metadata ({exc!r})") from exc

    def reset(self, world: World, spec: RobotSpec, task: Task) -> None:
        pass

    def act(self, state: np.ndarray, pose: Pose) -> Action:
        feats = encode_state(state, self.profile)
        v, w = self.head.mean_action(feats[None, :])[0]
        return Action(float(v), float(w))


# ---------------------------------------------------------------------------
# rollout and suite evaluation
# ---------------------------------------------------------------------------

def rollout(policy, world: World, spec: RobotSpec, episode: EpisodeConfig,
            task: Task) -> tuple[str, np.ndarray]:
    """Run one episode; returns (outcome, trajectory).

    ``policy.reset(world, spec, task)`` is called once, then
    :func:`fanav.sim.simulate` calls ``policy.act(state, pose)`` per step,
    ``state`` being the row of :func:`fanav.sim.observe`. The trajectory
    has one row per pose it returns: (t, x, y, heading, v, w), (v, w) being
    the clamped command its observation ends with, starting at rest.
    """
    policy.reset(world, spec, task)
    outcome, obs, poses = simulate(world, spec, episode, task.start,
                                   task.goal, policy.act)
    steps = np.arange(len(poses), dtype=np.float64)
    return outcome, np.column_stack((steps, poses, obs[:, -2:]))


def _jittered_start(world: World, spec: RobotSpec, task: Task, trial: int,
                    task_idx: int, seed: int,
                    jitter: tuple[float, float]) -> Pose:
    # at zero jitter every draw is the stored start
    rng = np.random.default_rng([seed, trial, task_idx])
    for _ in range(50):
        x = task.sx + rng.uniform(-jitter[0], jitter[0])
        y = task.sy + rng.uniform(-jitter[0], jitter[0])
        h = task.sheading + rng.uniform(-jitter[1], jitter[1])
        if world.contains(x, y) and world.clearance(x, y) >= spec.radius + 0.01:
            return Pose(x, y, h)
    return task.start


@dataclass
class EvalResult:
    """Suite metrics for one policy on one world.

    The outcome matrix is the record: the counts, the per-trial rates and
    their summaries are computed from it on each access.
    """

    world_name: str
    suite_digest: str
    method: str
    outcomes: list[list[str]]            # [trial][task]
    trajectories: list[np.ndarray] = field(default_factory=list, repr=False)

    @property
    def n_tasks(self) -> int:
        return len(self.outcomes[0])

    @property
    def n_trials(self) -> int:
        return len(self.outcomes)

    def _rates(self, label: str) -> list[float]:
        return [100.0 * row.count(label) / len(row) for row in self.outcomes]

    @property
    def sr_trials(self) -> list[float]:
        return self._rates(SUCCESS)

    @property
    def cr_trials(self) -> list[float]:
        return self._rates(COLLISION)

    @property
    def tr_trials(self) -> list[float]:
        return self._rates(TIMEOUT)

    @property
    def sr(self) -> float:
        return float(np.mean(self.sr_trials))

    @property
    def cr(self) -> float:
        return float(np.mean(self.cr_trials))

    @property
    def tr(self) -> float:
        return float(np.mean(self.tr_trials))

    # population standard deviations over trials
    @property
    def sr_std(self) -> float:
        return float(np.std(self.sr_trials))

    @property
    def cr_std(self) -> float:
        return float(np.std(self.cr_trials))

    @property
    def tr_std(self) -> float:
        return float(np.std(self.tr_trials))

    def to_dict(self) -> dict:
        return {"world": self.world_name, "suite_digest": self.suite_digest,
                "method": self.method, "n_tasks": self.n_tasks,
                "n_trials": self.n_trials, "outcomes": self.outcomes,
                "sr_trials": self.sr_trials, "cr_trials": self.cr_trials,
                "tr_trials": self.tr_trials,
                "sr": self.sr, "cr": self.cr, "tr": self.tr,
                "sr_std": self.sr_std, "cr_std": self.cr_std,
                "tr_std": self.tr_std}

    @classmethod
    def from_dict(cls, d: dict) -> "EvalResult":
        return cls(d["world"], d["suite_digest"], d["method"], d["outcomes"])


def save_eval_result(result: EvalResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_eval_result(path: str) -> EvalResult:
    """Read a ``result.json``; a file that is not JSON, lacks a field, holds
    a world, suite digest or method that is not a string, an empty, ragged
    or unknown outcome, or stores a count or rate other than its outcomes
    give is a :class:`DataFormatError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        res = EvalResult.from_dict(d)
        if not all(isinstance(name, str) for name in
                   (res.world_name, res.suite_digest, res.method)):
            raise TypeError("world, suite_digest and method must be strings")
        rows = res.outcomes
        if not rows or any(not row or len(row) != len(rows[0])
                           for row in rows):
            raise ValueError("outcome rows are empty or of unequal lengths")
        unknown = {o for row in rows for o in row} - set(OUTCOMES)
        if unknown:
            raise ValueError(f"outcomes {sorted(unknown)} are not in "
                             f"{OUTCOMES}")
        if res.to_dict() != d:
            raise ValueError("stored fields differ from what its outcomes "
                             "give")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DataFormatError(f"{path}: malformed evaluation result "
                              f"({exc!r})") from exc
    return res


def evaluate_suite(policy, world: World, spec: RobotSpec, suite: TaskSuite,
                   n_trials: int = EvalConfig.n_trials, seed: int = 0,
                   jitter: tuple[float, float] = (EvalConfig.jitter_pos,
                                                  EvalConfig.jitter_heading),
                   method: str | None = None) -> EvalResult:
    """Score a policy on every task of a suite across jittered trials.

    The first trial's trajectories are kept for :func:`export_trajectories`.
    """
    EvalConfig(n_trials=n_trials, jitter_pos=jitter[0],
               jitter_heading=jitter[1])  # bound checks
    if not suite.tasks:
        raise ConfigError("empty task suite")
    if suite.world_name != world.name:
        raise ProtocolError(
            f"suite was built for world '{suite.world_name}', got '{world.name}'")
    if suite.radius != spec.radius:
        raise ProtocolError(f"suite was built for robot radius "
                            f"{suite.radius!r}, got {spec.radius!r}")
    outcomes: list[list[str]] = []
    trajectories: list[np.ndarray] = []
    for trial in range(n_trials):
        row = []
        for idx, task in enumerate(suite.tasks):
            start = _jittered_start(world, spec, task, trial, idx, seed, jitter)
            jt = Task(start.x, start.y, start.heading, task.gx, task.gy)
            outcome, traj = rollout(policy, world, spec, suite.episode, jt)
            row.append(outcome)
            if trial == 0:
                trajectories.append(traj)
        outcomes.append(row)
    return EvalResult(world.name, suite.digest,
                      method or getattr(policy, "name", "policy"),
                      outcomes, trajectories)


# ---------------------------------------------------------------------------
# trajectory export (CSV per task + one SVG overlay per suite)
# ---------------------------------------------------------------------------

_MARKER_STYLE = {
    "start": ("circle", "#3b6fd4"),
    "goal": ("circle", "#e8c02c"),
    SUCCESS: ("circle", "#e87fb4"),
    COLLISION: ("cross", "#d62718"),
    TIMEOUT: ("triangle", "#d62718"),
}


def export_trajectories(result: EvalResult, suite: TaskSuite, world: World,
                        out_dir: str) -> list[str]:
    """Write one CSV per task plus an SVG overlay; returns written paths."""
    if not result.trajectories:
        raise ConfigError("result carries no trajectories to export")
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for i, traj in enumerate(result.trajectories):
        path = os.path.join(out_dir, f"task_{i:03d}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("t", "x", "y", "heading", "v", "omega"))
            for row in traj:
                w.writerow((int(row[0]),) + tuple(f"{v:.6f}" for v in row[1:]))
        written.append(path)
    svg_path = os.path.join(out_dir, "overlay.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(render_overlay_svg(result, suite, world))
    written.append(svg_path)
    return written


def _svg_marker(kind: str, color: str, x: float, y: float, r: float) -> str:
    if kind == "circle":
        return (f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" '
                f'fill="{color}" />')
    if kind == "cross":
        return (f'<path d="M {x - r:.2f} {y - r:.2f} L {x + r:.2f} {y + r:.2f} '
                f'M {x - r:.2f} {y + r:.2f} L {x + r:.2f} {y - r:.2f}" '
                f'stroke="{color}" stroke-width="{r / 2:.2f}" />')
    # triangle
    return (f'<path d="M {x:.2f} {y - r:.2f} L {x + r:.2f} {y + r:.2f} '
            f'L {x - r:.2f} {y + r:.2f} Z" fill="{color}" />')


def render_overlay_svg(result: EvalResult, suite: TaskSuite,
                       world: World) -> str:
    """World, trajectories and outcome markers as deterministic SVG text."""
    from .geometry import Circle, Rect

    scale = 60.0  # pixels per metre
    W = world.width * scale
    H = world.height * scale

    def sx(x):
        return x * scale

    def sy(y):
        return H - y * scale  # flip so +y points up

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W:.0f}" '
           f'height="{H:.0f}" viewBox="0 0 {W:.0f} {H:.0f}">',
           f'<rect x="0" y="0" width="{W:.0f}" height="{H:.0f}" '
           'fill="#ffffff" stroke="#222222" stroke-width="3" />']
    for ob in world.obstacles:
        if isinstance(ob, Rect):
            out.append(f'<rect x="{sx(ob.x):.2f}" y="{sy(ob.y2):.2f}" '
                       f'width="{ob.w * scale:.2f}" '
                       f'height="{ob.h * scale:.2f}" fill="#9a9a9a" />')
        elif isinstance(ob, Circle):
            out.append(f'<circle cx="{sx(ob.cx):.2f}" cy="{sy(ob.cy):.2f}" '
                       f'r="{ob.r * scale:.2f}" fill="#9a9a9a" />')
    marker_r = 0.1 * scale
    trial0 = result.outcomes[0]
    for task, traj, outcome in zip(suite.tasks, result.trajectories, trial0):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in traj[:, 1:3])
        out.append(f'<polyline points="{pts}" fill="none" stroke="#5a7fb0" '
                   'stroke-width="2" opacity="0.8" />')
        kind, color = _MARKER_STYLE["start"]
        out.append(_svg_marker(kind, color, sx(traj[0, 1]), sy(traj[0, 2]),
                               marker_r))
        kind, color = _MARKER_STYLE["goal"]
        out.append(_svg_marker(kind, color, sx(task.gx), sy(task.gy), marker_r))
        kind, color = _MARKER_STYLE[outcome]
        out.append(_svg_marker(kind, color, sx(traj[-1, 1]), sy(traj[-1, 2]),
                               marker_r * 1.2))
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# cross-method comparison
# ---------------------------------------------------------------------------

_FIGURES = ("sr", "sr_std", "cr", "cr_std", "tr", "tr_std")


def compare(results: dict[str, list[EvalResult]]
            ) -> tuple[list[dict], str, str]:
    """Aggregate per-method results over worlds into a comparison table.

    ``results`` maps method name to its per-world results. All methods must
    cover the same worlds, each once, with identical suites. Returns (rows,
    csv text, aligned text table); the overall row per method is the
    arithmetic mean across worlds.
    """
    if not results:
        raise ConfigError("no results to compare")
    ref = next(iter(results.values()))
    world_order = [r.world_name for r in ref]
    if len(set(world_order)) != len(world_order):
        raise ProtocolError(f"a world appears twice in {world_order}")
    digests = [r.suite_digest for r in ref]
    table: dict[str, list[dict]] = {}  # method -> its worlds' rows, overall
    for m, rs in results.items():
        if not rs:
            raise ConfigError(f"method '{m}' has no results to compare")
        if [r.world_name for r in rs] != world_order:
            raise ProtocolError(f"method '{m}' covers different worlds")
        for r, digest in zip(rs, digests):
            if r.suite_digest != digest:
                raise ProtocolError(
                    f"method '{m}' world '{r.world_name}' used a different "
                    "task suite")
        per_world = [{"method": m, "world": r.world_name,
                      **{k: getattr(r, k) for k in _FIGURES}} for r in rs]
        table[m] = per_world + [{
            "method": m, "world": "overall",
            **{k: float(np.mean([row[k] for row in per_world]))
               for k in _FIGURES}}]
    rows = [row for m_rows in table.values() for row in m_rows]

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(("method", "world", "sr_mean", "sr_std", "cr_mean", "cr_std",
                "tr_mean", "tr_std"))
    for r in rows:
        w.writerow((r["method"], r["world"],
                    *(f"{r[k]:.2f}" for k in _FIGURES)))
    csv_text = buf.getvalue()

    lines = [f"{'method':<10}" + "".join(
        f"{w_ + ' ' + met:>18}" for met in ("SR", "CR", "TR")
        for w_ in world_order + ["overall"])]
    for m, m_rows in table.items():
        cells = [f"{r[key]:>11.2f} ±{r[key + '_std']:>4.2f}"
                 for key in ("sr", "cr", "tr") for r in m_rows]
        lines.append(f"{m:<10}" + "".join(f"{c:>18}" for c in cells))
    text = "\n".join(lines) + "\n"
    return rows, csv_text, text
