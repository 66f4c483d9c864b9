"""Planar geometry primitives: shapes, distances, and ray casting.

All coordinates are meters in a world frame whose origin is the lower-left
corner of the room. Obstacles are axis-aligned rectangles and circles.
Ray casting is vectorized over beam directions. The distance tests here
take one shape each; the bounding-box broad phase that picks the shapes
worth testing is :meth:`fanav.sim.World.near`.
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


def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def segments_intersect(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    """Whether segments a-b and c-d intersect (including touching)."""
    d1 = _orient(cx, cy, dx, dy, ax, ay)
    d2 = _orient(cx, cy, dx, dy, bx, by)
    d3 = _orient(ax, ay, bx, by, cx, cy)
    d4 = _orient(ax, ay, bx, by, dx, dy)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_seg(px, py, qx, qy, rx, ry):
        return (min(px, qx) <= rx <= max(px, qx)
                and min(py, qy) <= ry <= max(py, qy))

    if d1 == 0 and on_seg(cx, cy, dx, dy, ax, ay):
        return True
    if d2 == 0 and on_seg(cx, cy, dx, dy, bx, by):
        return True
    if d3 == 0 and on_seg(ax, ay, bx, by, cx, cy):
        return True
    if d4 == 0 and on_seg(ax, ay, bx, by, dx, dy):
        return True
    return False


def segment_segment_distance(ax, ay, bx, by, cx, cy, dx, dy) -> float:
    if segments_intersect(ax, ay, bx, by, cx, cy, dx, dy):
        return 0.0
    return min(
        point_segment_distance(ax, ay, cx, cy, dx, dy),
        point_segment_distance(bx, by, cx, cy, dx, dy),
        point_segment_distance(cx, cy, ax, ay, bx, by),
        point_segment_distance(dx, dy, ax, ay, bx, by),
    )


def _point_in_rect(rect: Rect, px: float, py: float) -> bool:
    return rect.x <= px <= rect.x2 and rect.y <= py <= rect.y2


def segment_shape_distance(shape: Shape, ax: float, ay: float,
                           bx: float, by: float) -> float:
    """Distance from segment a-b to a shape; 0 on contact or overlap."""
    if isinstance(shape, Circle):
        return max(0.0, point_segment_distance(shape.cx, shape.cy,
                                               ax, ay, bx, by) - shape.r)
    if _point_in_rect(shape, ax, ay) or _point_in_rect(shape, bx, by):
        return 0.0
    x1, y1, x2, y2 = shape.x, shape.y, shape.x2, shape.y2
    edges = (
        (x1, y1, x2, y1),
        (x2, y1, x2, y2),
        (x2, y2, x1, y2),
        (x1, y2, x1, y1),
    )
    return min(segment_segment_distance(ax, ay, bx, by, *e) for e in edges)


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


def ray_circle(ox: float, oy: float, dirx: np.ndarray, diry: np.ndarray,
               circle: Circle) -> np.ndarray:
    """First hit distance of each ray against a circle; inf when missed."""
    fx = ox - circle.cx
    fy = oy - circle.cy
    b = fx * dirx + fy * diry
    c = fx * fx + fy * fy - circle.r * circle.r
    if c <= 0.0:  # origin inside or on the circle: immediate hit
        return np.zeros_like(dirx)
    disc = b * b - c
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t1 = -b - sq
    t = np.where(t1 >= 0.0, t1, np.inf)
    return np.where(hit, t, np.inf)


def ray_rect(ox: float, oy: float, dirx: np.ndarray, diry: np.ndarray,
             rect: Rect) -> np.ndarray:
    """First hit distance of each ray against a rectangle; inf when missed."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_x = np.where(np.abs(dirx) > _EPS, 1.0 / dirx, np.inf)
        inv_y = np.where(np.abs(diry) > _EPS, 1.0 / diry, np.inf)
        t1 = (rect.x - ox) * inv_x
        t2 = (rect.x2 - ox) * inv_x
        t3 = (rect.y - oy) * inv_y
        t4 = (rect.y2 - oy) * inv_y
    # degenerate axis: ray parallel to slab, inside iff coordinate in range
    par_x = np.abs(dirx) <= _EPS
    par_y = np.abs(diry) <= _EPS
    in_x = (rect.x <= ox) & (ox <= rect.x2)
    in_y = (rect.y <= oy) & (oy <= rect.y2)
    tmin_x = np.where(par_x, np.where(in_x, -np.inf, np.inf), np.minimum(t1, t2))
    tmax_x = np.where(par_x, np.where(in_x, np.inf, -np.inf), np.maximum(t1, t2))
    tmin_y = np.where(par_y, np.where(in_y, -np.inf, np.inf), np.minimum(t3, t4))
    tmax_y = np.where(par_y, np.where(in_y, np.inf, -np.inf), np.maximum(t3, t4))
    tnear = np.maximum(tmin_x, tmin_y)
    tfar = np.minimum(tmax_x, tmax_y)
    hit = (tnear <= tfar) & (tfar >= 0.0)
    t = np.where(tnear >= 0.0, tnear, 0.0)  # origin inside -> immediate hit
    return np.where(hit, t, np.inf)


def ray_circles(ox: float, oy: float, dirx: np.ndarray, diry: np.ndarray,
                params: np.ndarray) -> np.ndarray:
    """Min hit distance per ray over many circles; ``params`` is (n, 3) of
    (cx, cy, r). Equivalent to reducing :func:`ray_circle` over the set."""
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
    of (x1, y1, x2, y2). Equivalent to reducing :func:`ray_rect`.

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
