"""Deterministic 2-D navigation world: kinematics, LiDAR, termination.

The robot is a differential-drive disk moving in a walled rectangular room
with static obstacles. Each control step clamps the commanded velocities,
integrates the exact unicycle model, then evaluates termination in a fixed
order: goal reached, collision, timeout. :func:`simulate`, the one step
loop, runs an episode of the demonstrator or a policy to its terminal step.
Everything here is noise-free and deterministic, so identical inputs produce
bit-identical trajectories. Rewards are the dataset's (:mod:`fanav.data`).
A world file is TOML, one ``[world]`` section (:func:`parse_world`).
"""
from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass, fields
from functools import cached_property

import numpy as np

from .configfile import (Settings, format_config, parse_config, setting,
                         typed_numbers, typed_section)
from .errors import (ConfigError, InvalidPoseError, NumericError,
                     WorldFormatError)
from .geometry import (
    Circle,
    Rect,
    Shape,
    point_shape_distance,
    ray_box_exit,
    ray_circles,
    ray_rects,
    segment_shape_distance,
    wrap_angle,
)

# Slack of the broad phase (World.near), relative to the world's largest
# coordinate: a power of two near 1e-9, far above the few ulps of rounding
# in an axis gap or an exact distance test, so a skipped obstacle can never
# be one the exact test would have found within reach.
NEAR_MARGIN = 2.0 ** -30

# terminal outcome labels
NONE = "none"
SUCCESS = "success"
COLLISION = "collision"
TIMEOUT = "timeout"


@dataclass(frozen=True)
class World:
    """Rectangular room [0, width] x [0, height] with static obstacles."""

    width: float
    height: float
    obstacles: tuple[Shape, ...] = ()
    name: str = "world"

    def __post_init__(self):
        if self.name in ("", ".", "..") or not all(
                c.isprintable() and c not in " /\\" for c in self.name):
            raise ConfigError(f"world name {self.name!r} names files: it must "
                              "be printable, without whitespace, / or \\, and "
                              "not empty, . or ..")
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise ConfigError("world bounds must be finite")
        if not (self.width > 0 and self.height > 0):
            raise ConfigError("world bounds must be strictly positive")
        for i, ob in enumerate(self.obstacles):
            if not all(map(math.isfinite, astuple(ob))):
                raise ConfigError(f"obstacle {i} has a non-finite value")
            if min(astuple(ob)[2:]) <= 0:
                raise ConfigError(f"obstacle {i} has a size not above 0")
            if not self._intersects_bounds(ob):
                raise ConfigError(f"obstacle {i} lies entirely outside bounds")

    def _intersects_bounds(self, ob: Shape) -> bool:
        if isinstance(ob, Circle):
            return (-ob.r < ob.cx < self.width + ob.r
                    and -ob.r < ob.cy < self.height + ob.r)
        return ob.x < self.width and ob.x2 > 0 and ob.y < self.height and ob.y2 > 0

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    @cached_property
    def _circle_params(self) -> np.ndarray:
        return np.array([(c.cx, c.cy, c.r) for c in self.obstacles
                         if isinstance(c, Circle)], np.float64).reshape(-1, 3)

    @cached_property
    def _rect_params(self) -> np.ndarray:
        return np.array([(r.x, r.y, r.x2, r.y2) for r in self.obstacles
                         if isinstance(r, Rect)], np.float64).reshape(-1, 4)

    @cached_property
    def _boxes(self) -> tuple[tuple[Shape, float, float, float, float], ...]:
        """Each obstacle with its bounding box (x1, y1, x2, y2), widened on
        every side by NEAR_MARGIN times the largest coordinate (at least 1)."""
        boxes = [(ob.cx - ob.r, ob.cy - ob.r, ob.cx + ob.r, ob.cy + ob.r)
                 if isinstance(ob, Circle) else (ob.x, ob.y, ob.x2, ob.y2)
                 for ob in self.obstacles]
        m = NEAR_MARGIN * max([1.0, self.width, self.height]
                              + [abs(v) for box in boxes for v in box])
        return tuple((ob, x1 - m, y1 - m, x2 + m, y2 + m)
                     for ob, (x1, y1, x2, y2) in zip(self.obstacles, boxes))

    @cached_property
    def _grids(self) -> dict[float, np.ndarray]:
        """Planning grids by inflation; see
        :func:`fanav.expert.occupancy_grid`."""
        return {}

    def near(self, x1: float, y1: float, x2: float, y2: float,
             reach: float) -> list[Shape]:
        """The obstacles, in order, whose bounding box comes within ``reach``
        of the box [x1, x2] x [y1, y2] on both axes.

        This is the collision broad phase. Every obstacle left out is farther
        than ``reach`` from each point of the query box by more than any
        rounding (see NEAR_MARGIN), so an exact test run on these alone
        decides as if it ran on all of them.
        """
        lx, ly, hx, hy = x1 - reach, y1 - reach, x2 + reach, y2 + reach
        return [ob for ob, bx1, by1, bx2, by2 in self._boxes
                if not (bx1 > hx or by1 > hy or lx > bx2 or ly > by2)]

    def contains(self, x: float, y: float) -> bool:
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height

    def clearance(self, x: float, y: float) -> float:
        """Distance from a point to the nearest obstacle or wall.

        Negative when the point is outside the bounds. Only obstacles within
        the wall distance (:meth:`near`) can lower it, so only those are
        measured.
        """
        d = min(x, y, self.width - x, self.height - y)
        for ob in self.near(x, y, x, y, d):
            d = min(d, point_shape_distance(ob, x, y))
        return d

    def pose_fault(self, x: float, y: float, radius: float) -> str | None:
        """Why a robot of ``radius`` cannot stand at (x, y): it is outside
        the room or nearer than ``radius`` to an obstacle or wall. None if
        it can: this is the rule for an episode's start and a path's ends."""
        if not self.contains(x, y):
            return "is outside the room"
        if self.clearance(x, y) < radius:
            return "is within a robot radius of an obstacle or wall"
        return None


class RobotSpec(Settings, section="robot"):
    """Physical robot and sensor parameters."""

    radius: float = setting(0.2, "> 0")
    v_max: float = setting(0.5, "> 0")
    omega_max: float = setting(math.pi / 2, "> 0")
    lidar_fov_deg: float = setting(270.0, "> 0", "<= 360")
    lidar_beams: int = setting(108, ">= 1")
    lidar_range: float = setting(30.0, "> 0")
    control_dt: float = setting(0.2, "> 0")

    def beam_bearings(self) -> np.ndarray:
        """Beam bearing offsets relative to the robot heading."""
        n = self.lidar_beams
        if n == 1:
            return np.zeros(1)
        fov = math.radians(self.lidar_fov_deg)
        return -fov / 2.0 + np.arange(n) * (fov / (n - 1))


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    heading: float

    def __post_init__(self):
        object.__setattr__(self, "heading", wrap_angle(self.heading))


@dataclass(frozen=True)
class Action:
    v_cmd: float
    omega_cmd: float


class EpisodeConfig(Settings, section="episode"):
    """Horizon and goal threshold of an episode, and the reward constants
    (``r_success``, ``r_collision``, ``c1``) that only :mod:`fanav.data`
    reads."""

    t_max: int = setting(200, ">= 1")
    r_success: float = setting(20.0, "> 0")
    r_collision: float = setting(-20.0, "< 0")
    c1: float = setting(2.0, "> 0")
    goal_radius: float = setting(0.3, "> 0")


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def relative_goal(pose: Pose, goal: tuple[float, float]) -> tuple[float, float]:
    """Goal position in the robot frame, as (distance, bearing)."""
    dx = goal[0] - pose.x
    dy = goal[1] - pose.y
    return math.hypot(dx, dy), wrap_angle(math.atan2(dy, dx) - pose.heading)


def raycast(world: World, origin: Pose, spec: RobotSpec) -> np.ndarray:
    """Cast all LiDAR beams from ``origin`` and return ranges in meters.

    Beam i points at ``heading - fov/2 + i * fov/(n-1)``. Each range is the
    distance to the nearest obstacle or wall, clipped to the sensor maximum.
    """
    if not world.contains(origin.x, origin.y):
        raise InvalidPoseError(
            f"raycast origin ({origin.x:.3f}, {origin.y:.3f}) outside bounds")
    angles = origin.heading + spec.beam_bearings()
    dirx = np.cos(angles)
    diry = np.sin(angles)
    t = ray_box_exit(origin.x, origin.y, dirx, diry, world.width, world.height)
    t = np.minimum(t, ray_circles(origin.x, origin.y, dirx, diry,
                                  world._circle_params))
    t = np.minimum(t, ray_rects(origin.x, origin.y, dirx, diry,
                                world._rect_params))
    return np.minimum(t, spec.lidar_range)


def step_kinematics(pose: Pose, action: Action, dt: float) -> Pose:
    """Integrate the exact unicycle model for one interval of length ``dt``."""
    v, w, h = action.v_cmd, action.omega_cmd, pose.heading
    if not all(math.isfinite(q) for q in (v, w, pose.x, pose.y, h)):
        raise NumericError("non-finite kinematics input")
    if abs(w) < 1e-6:
        return Pose(pose.x + v * math.cos(h) * dt,
                    pose.y + v * math.sin(h) * dt, h)
    return Pose(pose.x + (v / w) * (math.sin(h + w * dt) - math.sin(h)),
                pose.y - (v / w) * (math.cos(h + w * dt) - math.cos(h)),
                wrap_angle(h + w * dt))


def _collides(world: World, spec: RobotSpec, old: Pose, new: Pose) -> bool:
    """Swept-disk collision between two consecutive poses.

    The motion between poses is approximated by the chord; at 5 Hz with
    v_max = 0.5 m/s the chord error is far below the robot radius. The
    bounding-box prefilter :meth:`World.near` leaves only the obstacles
    within one radius of the chord's box for the exact test.
    """
    r = spec.radius
    if not (r <= new.x <= world.width - r and r <= new.y <= world.height - r):
        return True
    ax, ay, bx, by = old.x, old.y, new.x, new.y
    for ob in world.near(min(ax, bx), min(ay, by), max(ax, bx), max(ay, by), r):
        if segment_shape_distance(ob, ax, ay, bx, by) <= r:
            return True
    return False


def observe(world: World, spec: RobotSpec, pose: Pose,
            goal: tuple[float, float], v: float = 0.0,
            w: float = 0.0) -> np.ndarray:
    """The observation at ``pose``, one float64 row in feature layout: the
    LiDAR ranges, then the goal's distance and bearing, then ``v`` and
    ``w``."""
    d, phi = relative_goal(pose, goal)
    return np.concatenate((raycast(world, pose, spec), (d, phi, v, w)))


def step_env(world: World, spec: RobotSpec, cfg: EpisodeConfig, pose: Pose,
             goal: tuple[float, float], action: Action,
             t: int) -> tuple[np.ndarray, str, Pose]:
    """Advance one control step at the command clamped to the robot's limits.

    Returns the next observation, the terminal label (NONE, SUCCESS,
    COLLISION or TIMEOUT) and the post-step pose. ``t`` is the zero-based
    index of the step being taken; the episode times out when step
    t_max - 1 ends without another terminal.
    """
    a = Action(min(spec.v_max, max(-spec.v_max, action.v_cmd)),
               min(spec.omega_max, max(-spec.omega_max, action.omega_cmd)))
    new_pose = step_kinematics(pose, a, spec.control_dt)

    if relative_goal(new_pose, goal)[0] <= cfg.goal_radius:
        terminal = SUCCESS
    elif _collides(world, spec, pose, new_pose):
        terminal = COLLISION
    elif t + 1 >= cfg.t_max:
        terminal = TIMEOUT
    else:
        terminal = NONE

    # Observation from wherever the robot ended up. If it left the room the
    # scan is taken at the clipped position so the record stays well formed.
    obs_pose = new_pose
    if not world.contains(new_pose.x, new_pose.y):
        obs_pose = Pose(min(world.width, max(0.0, new_pose.x)),
                        min(world.height, max(0.0, new_pose.y)),
                        new_pose.heading)
    state = observe(world, spec, obs_pose, goal, a.v_cmd, a.omega_cmd)
    return state, terminal, new_pose


def simulate(world: World, spec: RobotSpec, cfg: EpisodeConfig, start: Pose,
             goal: tuple[float, float], act
             ) -> tuple[str, np.ndarray, np.ndarray]:
    """Run one episode from ``start``, each command ``act(state, pose)``.

    Returns the terminal label, the T+1 observations, each after the first
    ending with the clamped command, and the T+1 (x, y, heading) poses. A
    start outside the room or within one radius of an obstacle or wall is
    an :class:`InvalidPoseError`, raised before ``act`` is called.
    """
    if fault := world.pose_fault(start.x, start.y, spec.radius):
        raise InvalidPoseError(f"start pose {fault}")
    goal = (float(goal[0]), float(goal[1]))
    pose, terminal = start, NONE
    obs = [observe(world, spec, start, goal)]
    poses = [(start.x, start.y, start.heading)]
    while terminal == NONE:
        state, terminal, pose = step_env(world, spec, cfg, pose, goal,
                                         act(obs[-1], pose), len(poses) - 1)
        obs.append(state)
        poses.append((pose.x, pose.y, pose.heading))
    return terminal, np.stack(obs), np.array(poses, np.float64)


# ---------------------------------------------------------------------------
# free-pose sampling shared by collection, suite generation and world checks
# ---------------------------------------------------------------------------

def sample_free_point(world: World, rng: np.random.Generator,
                      clearance: float, max_tries: int = 10_000
                      ) -> tuple[float, float]:
    for _ in range(max_tries):
        x = rng.uniform(0.0, world.width)
        y = rng.uniform(0.0, world.height)
        if world.clearance(x, y) >= clearance:
            return x, y
    raise ConfigError(
        f"no free point with clearance {clearance:.2f} m after {max_tries} samples")


def sample_task(world: World, rng: np.random.Generator, clearance: float,
                min_separation: float) -> tuple[Pose, tuple[float, float]]:
    """Draw a collision-free (start pose, goal point) pair."""
    for _ in range(10_000):
        sx, sy = sample_free_point(world, rng, clearance)
        gx, gy = sample_free_point(world, rng, clearance)
        if math.hypot(gx - sx, gy - sy) >= min_separation:
            heading = rng.uniform(-math.pi, math.pi)
            return Pose(sx, sy, heading), (gx, gy)
    raise ConfigError(
        f"no start/goal pair {min_separation:.1f} m apart after 10000 samples")


# ---------------------------------------------------------------------------
# world files: TOML, one [world] section
# ---------------------------------------------------------------------------

def load_world(path: str) -> World:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_world(fh.read(), source=path)


def _shape(entry, where: str) -> Shape:
    """An obstacle from the world file entry :func:`format_world` writes."""
    kind = entry[0] if isinstance(entry, list) and entry else None
    if (cls := {"rect": Rect, "circle": Circle}.get(str(kind))) is None:
        raise ConfigError(f'{where} must be ["rect", x, y, w, h] or ["circle",'
                          f' cx, cy, r], got {entry!r}')
    return cls(*typed_numbers(entry[1:], len(fields(cls)), where))


def parse_world(text: str, source: str = "<string>") -> World:
    """The world of the TOML ``text`` :func:`format_world` writes, named by
    ``source``'s stem if it has no ``name``; refusals name the entry."""
    tree = parse_config(text, source, "; a world file is TOML, as README "
                        "shows", WorldFormatError)
    try:
        if set(tree) != {"world"}:
            raise ConfigError(f"sections {sorted(tree)}, not one [world]")
        tree["world"].setdefault("name", "world" if source == "<string>" else
                                 os.path.splitext(os.path.basename(source))[0])
        d = typed_section(tree, "world", name="", width=0.0, height=0.0,
                          obstacles=[])
        return World(d["width"], d["height"],
                     tuple(_shape(ob, f"world.obstacles[{i}]")
                           for i, ob in enumerate(d["obstacles"])), d["name"])
    except ConfigError as exc:
        raise WorldFormatError(f"{source}: {exc}") from None


def format_world(world: World) -> str:
    return format_config({"world": {
        "name": world.name, "width": float(world.width),
        "height": float(world.height),
        "obstacles": [["rect" if isinstance(ob, Rect) else "circle",
                       *map(float, astuple(ob))] for ob in world.obstacles]}})


def save_world(world: World, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_world(world))
