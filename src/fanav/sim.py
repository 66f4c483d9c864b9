"""Deterministic 2-D navigation world: kinematics, LiDAR, termination.

The robot is a differential-drive disk moving in a walled rectangular room
with static obstacles. Each control step clamps the commanded velocities,
integrates the exact unicycle model, then evaluates termination in a fixed
order: goal reached, collision, timeout. Everything here is noise-free and
deterministic, so identical inputs produce bit-identical trajectories.
Rewards are the dataset's (:mod:`fanav.data`).
"""
from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigError, InvalidPoseError, NumericError, ProtocolError,
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
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise ConfigError("world bounds must be finite")
        if not (self.width > 0 and self.height > 0):
            raise ConfigError("world bounds must be strictly positive")
        for i, ob in enumerate(self.obstacles):
            if not all(map(math.isfinite, astuple(ob))):
                raise ConfigError(f"obstacle {i} has a non-finite value")
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
    def _grids(self) -> dict[tuple[float, float], np.ndarray]:
        """Planning grids by ``(inflate, res)``; see
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


@dataclass(frozen=True)
class RobotSpec:
    """Physical robot and sensor parameters."""

    radius: float = 0.2
    v_max: float = 0.5
    omega_max: float = math.pi / 2
    lidar_fov_deg: float = 270.0
    lidar_beams: int = 108
    lidar_range: float = 30.0
    control_dt: float = 0.2

    def __post_init__(self):
        if self.radius <= 0 or self.v_max <= 0 or self.omega_max <= 0:
            raise ConfigError("radius, v_max and omega_max must be positive")
        if not (0.0 < self.lidar_fov_deg <= 360.0):
            raise ConfigError("lidar_fov_deg must be in (0, 360]")
        if self.lidar_beams < 1:
            raise ConfigError("lidar_beams must be >= 1")
        if self.lidar_range <= 0 or self.control_dt <= 0:
            raise ConfigError("lidar_range and control_dt must be positive")

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


@dataclass
class NavState:
    """Observation: LiDAR scan, relative goal polar coordinates, velocities."""

    scan: np.ndarray
    goal_dist: float
    goal_bearing: float
    lin_vel: float
    ang_vel: float


@dataclass(frozen=True)
class EpisodeConfig:
    """Horizon and goal threshold of an episode, and the reward constants
    (``r_success``, ``r_collision``, ``c1``) that only :mod:`fanav.data`
    reads."""

    t_max: int = 200
    r_success: float = 20.0
    r_collision: float = -20.0
    c1: float = 2.0
    goal_radius: float = 0.3

    def __post_init__(self):
        if self.t_max < 1:
            raise ConfigError("t_max must be >= 1")
        if self.r_success <= 0 or self.r_collision >= 0:
            raise ConfigError("expected r_success > 0 and r_collision < 0")
        if self.c1 <= 0 or self.goal_radius <= 0:
            raise ConfigError("c1 and goal_radius must be positive")


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
    if dt <= 0:
        raise ConfigError("dt must be positive")
    v, w, h = action.v_cmd, action.omega_cmd, pose.heading
    if not all(math.isfinite(q) for q in (v, w, pose.x, pose.y, h)):
        raise NumericError("non-finite kinematics input")
    if abs(w) < 1e-6:
        return Pose(pose.x + v * math.cos(h) * dt,
                    pose.y + v * math.sin(h) * dt, h)
    return Pose(pose.x + (v / w) * (math.sin(h + w * dt) - math.sin(h)),
                pose.y - (v / w) * (math.cos(h + w * dt) - math.cos(h)),
                wrap_angle(h + w * dt))


def clamp_action(action: Action, spec: RobotSpec) -> Action:
    return Action(min(spec.v_max, max(-spec.v_max, action.v_cmd)),
                  min(spec.omega_max, max(-spec.omega_max, action.omega_cmd)))


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
            goal: tuple[float, float], v: float = 0.0, w: float = 0.0) -> NavState:
    d, phi = relative_goal(pose, goal)
    return NavState(raycast(world, pose, spec), d, phi, v, w)


def step_env(world: World, spec: RobotSpec, cfg: EpisodeConfig, pose: Pose,
             goal: tuple[float, float], action: Action,
             t: int) -> tuple[NavState, str, Pose]:
    """Advance one control step.

    Returns the next observation, the terminal label (NONE, SUCCESS,
    COLLISION or TIMEOUT) and the post-step pose. ``t`` is the zero-based
    index of the step being taken; the episode times out when step
    t_max - 1 ends without another terminal.
    """
    if t >= cfg.t_max:
        raise ProtocolError(f"step index {t} beyond horizon {cfg.t_max}")
    a = clamp_action(action, spec)
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


class EpisodeEngine:
    """Single-owner mutable episode state over an immutable world.

    Parallel simulation is done by creating one engine per episode; the
    world, spec and config objects are shared read-only.
    """

    def __init__(self, world: World, spec: RobotSpec, cfg: EpisodeConfig):
        self.world = world
        self.spec = spec
        self.cfg = cfg
        self.pose: Pose | None = None
        self.goal: tuple[float, float] | None = None
        self.t = 0
        self.terminal = NONE

    def reset(self, start: Pose, goal: tuple[float, float]) -> NavState:
        if not self.world.contains(start.x, start.y):
            raise InvalidPoseError("start pose outside world bounds")
        if self.world.clearance(start.x, start.y) < self.spec.radius:
            raise InvalidPoseError("start pose collides with an obstacle")
        self.pose = start
        self.goal = (float(goal[0]), float(goal[1]))
        self.t = 0
        self.terminal = NONE
        return observe(self.world, self.spec, start, self.goal)

    @property
    def done(self) -> bool:
        return self.terminal != NONE

    def step(self, action: Action) -> NavState:
        """Take one step; returns the next observation. How the step ended
        is left in :attr:`terminal`."""
        if self.pose is None:
            raise ProtocolError("step() before reset()")
        if self.done:
            raise ProtocolError(f"step() after terminal '{self.terminal}'")
        state, self.terminal, self.pose = step_env(
            self.world, self.spec, self.cfg, self.pose, self.goal, action,
            self.t)
        self.t += 1
        return state


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
                min_separation: float, max_tries: int = 10_000
                ) -> tuple[Pose, tuple[float, float]]:
    """Draw a collision-free (start pose, goal point) pair."""
    for _ in range(max_tries):
        sx, sy = sample_free_point(world, rng, clearance, max_tries)
        gx, gy = sample_free_point(world, rng, clearance, max_tries)
        if math.hypot(gx - sx, gy - sy) >= min_separation:
            heading = rng.uniform(-math.pi, math.pi)
            return Pose(sx, sy, heading), (gx, gy)
    raise ConfigError(
        f"no start/goal pair {min_separation:.1f} m apart after {max_tries} samples")


# ---------------------------------------------------------------------------
# world file format: `bounds W H`, `rect X Y W H`, `circle CX CY R`, `name ID`
# ---------------------------------------------------------------------------

def load_world(path: str) -> World:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_world(text, source=path)


def parse_world(text: str, source: str = "<string>") -> World:
    bounds: tuple[float, float] | None = None
    obstacles: list[Shape] = []
    name: str | None = None

    def fail(lineno: int, msg: str):
        raise WorldFormatError(f"{source}:{lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
        if kind == "name":
            if len(args) != 1:
                fail(lineno, "name takes exactly one identifier")
            name = args[0]
            continue
        try:
            vals = [float(v) for v in args]
        except ValueError:
            fail(lineno, f"non-numeric value in '{line}'")
        if not all(map(math.isfinite, vals)):
            fail(lineno, f"non-finite value in '{line}'")
        if kind == "bounds":
            if len(vals) != 2:
                fail(lineno, "bounds takes width and height")
            if bounds is not None:
                fail(lineno, "duplicate bounds line")
            bounds = (vals[0], vals[1])
        elif kind == "rect":
            if len(vals) != 4:
                fail(lineno, "rect takes x y w h")
            if vals[2] <= 0 or vals[3] <= 0:
                fail(lineno, "rect size must be positive")
            obstacles.append(Rect(*vals))
        elif kind == "circle":
            if len(vals) != 3:
                fail(lineno, "circle takes cx cy r")
            if vals[2] <= 0:
                fail(lineno, "circle radius must be positive")
            obstacles.append(Circle(*vals))
        else:
            fail(lineno, f"unknown directive '{kind}'")
    if bounds is None:
        raise WorldFormatError(f"{source}: missing bounds line")
    if name is None:
        stem = os.path.splitext(os.path.basename(source))[0]
        name = stem if stem and source != "<string>" else "world"
    try:
        return World(bounds[0], bounds[1], tuple(obstacles), name)
    except ConfigError as exc:
        raise WorldFormatError(f"{source}: {exc}") from exc


def format_world(world: World) -> str:
    lines = [f"name {world.name}", f"bounds {world.width:.6g} {world.height:.6g}"]
    for ob in world.obstacles:
        if isinstance(ob, Rect):
            lines.append(f"rect {ob.x:.6g} {ob.y:.6g} {ob.w:.6g} {ob.h:.6g}")
        else:
            lines.append(f"circle {ob.cx:.6g} {ob.cy:.6g} {ob.r:.6g}")
    return "\n".join(lines) + "\n"


def save_world(world: World, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_world(world))
