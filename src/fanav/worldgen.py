"""Procedural room generation with a connectivity guarantee.

Obstacles (rectangles and circles) are sampled until their combined area
reaches the requested density. A layout is accepted only when the planner
can connect 20 random free-point pairs, so generated rooms never contain
unreachable pockets at the robot's inflation radius.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, GenerationError, NoPathError
from .expert import grid_shape, plan_path
from .geometry import Circle, Rect, Shape
from .sim import RobotSpec, World, sample_free_point

PROBE_PAIRS = 20
WALL_MARGIN = 0.3  # least gap between an obstacle and a wall (m)
MAX_RADIUS = 0.55  # largest circle radius (m)
# the least room side at which a circle of every radius fits between the
# wall margins, to the millimetre the layouts are rounded to
MIN_SIDE = round(2 * (WALL_MARGIN + MAX_RADIUS), 3)


def _sample_layout(width: float, height: float, density: float,
                   rng: np.random.Generator) -> tuple[Shape, ...]:
    target_area = density * width * height
    shapes: list[Shape] = []
    area = 0.0
    margin = WALL_MARGIN
    while area < target_area:
        if rng.uniform() < 0.55:
            w = rng.uniform(0.4, 1.4)
            h = rng.uniform(0.4, 1.4)
            x = rng.uniform(margin, max(margin + 1e-6, width - w - margin))
            y = rng.uniform(margin, max(margin + 1e-6, height - h - margin))
            shapes.append(Rect(round(x, 3), round(y, 3), round(w, 3),
                               round(h, 3)))
            area += w * h
        else:
            r = rng.uniform(0.2, MAX_RADIUS)
            cx = rng.uniform(margin + r, width - r - margin)
            cy = rng.uniform(margin + r, height - r - margin)
            shapes.append(Circle(round(cx, 3), round(cy, 3), round(r, 3)))
            area += np.pi * r * r
    return tuple(shapes)


def _connected(world: World, robot_radius: float,
               rng: np.random.Generator) -> bool:
    clearance = robot_radius + 0.15
    try:
        for _ in range(PROBE_PAIRS):
            ax, ay = sample_free_point(world, rng, clearance, max_tries=2000)
            bx, by = sample_free_point(world, rng, clearance, max_tries=2000)
            plan_path(world, (ax, ay), (bx, by), robot_radius)
    except (NoPathError, ConfigError):
        return False
    return True


def generate_world(width: float, height: float, density: float, seed: int,
                   name: str = "generated",
                   robot_radius: float = RobotSpec.radius,
                   max_attempts: int = 100) -> World:
    """Generate a connected cluttered room at the requested obstacle density.

    Identical arguments always produce the identical world; layouts failing
    the reachability probe are discarded and resampled. Obstacles need each
    side to be at least ``MIN_SIDE``. Any room, an empty one too, must be
    one the planner can plan in (:func:`fanav.expert.grid_shape`).
    """
    if not (0.0 <= density <= 1.0):
        raise ConfigError("density must lie in [0, 1]")
    if density > 0.0 and min(width, height) < MIN_SIDE:
        raise ConfigError(
            f"a {width:g} x {height:g} m room is too small for obstacles: at "
            f"density > 0 each side must be at least {MIN_SIDE:g} m")
    room = World(width, height, (), name)  # refuses a non-finite side
    grid_shape(room)  # refuses a room too large to plan in
    if density == 0.0:
        return room
    for attempt in range(max_attempts):
        rng = np.random.default_rng([seed, attempt])
        shapes = _sample_layout(width, height, density, rng)
        world = World(width, height, shapes, name)
        if _connected(world, robot_radius, rng):
            return world
    raise GenerationError(
        f"no connected layout at density {density:.2f} after "
        f"{max_attempts} attempts")
