"""Planar geometry primitives: shapes, distances, and ray casting.

All coordinates are meters in a world frame whose origin is the lower-left
corner of the room. Obstacles are axis-aligned rectangles and circles.
Ray casting is vectorized over beam directions. The distance tests here
take one shape each; the bounding-box broad phase that picks the shapes
worth testing is :meth:`fanav.sim.World.near`.

A segment meets a rectangle when its parameter range survives clipping to
the rectangle's x and y slabs (Liang and Barsky's line clipping). When the
two are apart, both are convex, so their nearest pair of points has a
vertex of one of them: an endpoint of the segment, whose distance to the
rectangle is a point distance, or a corner of the rectangle, whose distance
to the segment is a point-to-segment distance. The least of those six is
the distance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Normalize an angle to the half-open interval (-pi, pi]."""
    return a - TWO_PI * math.ceil((a - math.pi) / TWO_PI)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle given by its min corner and size."""

    x: float
    y: float
    w: float
    h: float

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    r: float


Shape = Rect | Circle


# ---------------------------------------------------------------------------
# point / segment distances
# ---------------------------------------------------------------------------

def point_shape_distance(shape: Shape, px: float, py: float) -> float:
    """Distance from a point to a shape; 0 if the point is inside."""
    if isinstance(shape, Circle):
        return max(0.0, math.hypot(px - shape.cx, py - shape.cy) - shape.r)
    dx = max(shape.x - px, 0.0, px - shape.x2)
    dy = max(shape.y - py, 0.0, py - shape.y2)
    return math.hypot(dx, dy)


def point_segment_distance(px: float, py: float,
                           ax: float, ay: float, bx: float, by: float) -> float:
    """Distance from point (px, py) to segment a-b."""
    vx, vy = bx - ax, by - ay
    L2 = vx * vx + vy * vy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * vx + (py - ay) * vy) / L2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))


def segment_shape_distance(shape: Shape, ax: float, ay: float,
                           bx: float, by: float) -> float:
    """Distance from segment a-b to a shape; 0 on contact or overlap."""
    if isinstance(shape, Circle):
        return max(0.0, point_segment_distance(shape.cx, shape.cy,
                                               ax, ay, bx, by) - shape.r)
    x1, y1, x2, y2 = shape.x, shape.y, shape.x2, shape.y2
    # clip the segment's parameter range [0, 1] to the x and y slabs
    lo, hi = 0.0, 1.0
    for a, d, s1, s2 in ((ax, bx - ax, x1, x2), (ay, by - ay, y1, y2)):
        if d == 0.0:
            if not s1 <= a <= s2:  # parallel to the slab and outside it
                lo = math.inf
                break
        else:
            t1, t2 = (s1 - a) / d, (s2 - a) / d
            lo, hi = max(lo, min(t1, t2)), min(hi, max(t1, t2))
    if lo <= hi:
        return 0.0
    return min(point_shape_distance(shape, ax, ay),
               point_shape_distance(shape, bx, by),
               point_segment_distance(x1, y1, ax, ay, bx, by),
               point_segment_distance(x2, y1, ax, ay, bx, by),
               point_segment_distance(x2, y2, ax, ay, bx, by),
               point_segment_distance(x1, y2, ax, ay, bx, by))


# ---------------------------------------------------------------------------
# ray casting (vectorized over beam directions)
# ---------------------------------------------------------------------------

_EPS = 1e-12


def ray_box_exit(ox: float, oy: float, dirx: np.ndarray, diry: np.ndarray,
                 w: float, h: float) -> np.ndarray:
    """Distance along each ray until it leaves [0, w] x [0, h].

    The origin must be inside the box; the exit distance is finite for
    every direction.
    """
    with np.errstate(divide="ignore"):
        tx = np.where(dirx > _EPS, (w - ox) / dirx,
                      np.where(dirx < -_EPS, (0.0 - ox) / dirx, np.inf))
        ty = np.where(diry > _EPS, (h - oy) / diry,
                      np.where(diry < -_EPS, (0.0 - oy) / diry, np.inf))
    return np.minimum(tx, ty)


def ray_circles(ox: float, oy: float, dirx: np.ndarray, diry: np.ndarray,
                params: np.ndarray) -> np.ndarray:
    """Min hit distance per ray over many circles; ``params`` is (n, 3) of
    (cx, cy, r): bit for bit, the least of each circle's own first hit."""
    if params.shape[0] == 0:
        return np.full_like(dirx, np.inf)
    fx = ox - params[:, 0:1]                      # (n, 1)
    fy = oy - params[:, 1:2]
    c = fx * fx + fy * fy - params[:, 2:3] ** 2   # (n, 1)
    if (c <= 0.0).any():  # origin inside or on a circle: immediate hits
        return np.zeros_like(dirx)
    b = fx * dirx + fy * diry                     # (n, beams)
    with np.errstate(invalid="ignore"):
        t1 = -b - np.sqrt(b * b - c)  # NaN where a ray misses its circle
    return np.where(t1 >= 0.0, t1, np.inf).min(axis=0)  # NaN >= 0 is False


def ray_rects(ox: float, oy: float, dirx: np.ndarray, diry: np.ndarray,
              params: np.ndarray) -> np.ndarray:
    """Min hit distance per ray over many rectangles; ``params`` is (n, 4)
    of (x1, y1, x2, y2): bit for bit, the least of each rectangle's own
    first hit.

    One broadcast over (bound, axis, rectangle, beam) gives every slab
    crossing; a beam parallel to an axis is in that slab throughout or
    never."""
    if params.shape[0] == 0:
        return np.full_like(dirx, np.inf)
    d = np.array((dirx, diry))[:, None, :]        # (axis, 1, beam)
    rel = (params.T - np.array((ox, oy, ox, oy))[:, None]).reshape(2, 2, -1, 1)
    with np.errstate(all="ignore"):
        t = rel * (1.0 / d)                       # (bound, axis, rect, beam)
    tmin = np.minimum(t[0], t[1])
    tmax = np.maximum(t[0], t[1])
    par = np.abs(d) <= _EPS
    if par.any():
        inside = (rel[0] <= 0.0) & (rel[1] >= 0.0)
        tmin = np.where(par, np.where(inside, -np.inf, np.inf), tmin)
        tmax = np.where(par, np.where(inside, np.inf, -np.inf), tmax)
    tnear = np.maximum(tmin[0], tmin[1])
    tfar = np.minimum(tmax[0], tmax[1])
    t = np.where(tnear >= 0.0, tnear, 0.0)  # origin inside -> immediate hit
    # a hit where the slabs overlap ahead of the origin: t <= tfar holds
    # exactly when tnear <= tfar and tfar >= 0
    return np.where(t <= tfar, t, np.inf).min(axis=0)
