"""Reference implementations the tests compare the package against: the
one-shape ray casts that the vectorized kernels reduce, the edge-pair
segment-to-rectangle distance that the slab clip replaced, the bisection
expectile that expectile training converges to, and a policy head's log
density, which the finite-difference gradient checks differentiate."""
from __future__ import annotations

import numpy as np

from fanav.geometry import _EPS, Circle, Rect, point_segment_distance
from fanav.losses import expectile_weights
from fanav.nets import GaussianPolicyHead


# ---------------------------------------------------------------------------
# ray casting, one shape at a time
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# segment to rectangle, edge by edge
# ---------------------------------------------------------------------------

def _orient(ax, ay, bx, by, cx, cy) -> float:
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _segments_intersect(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
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

    return ((d1 == 0 and on_seg(cx, cy, dx, dy, ax, ay))
            or (d2 == 0 and on_seg(cx, cy, dx, dy, bx, by))
            or (d3 == 0 and on_seg(ax, ay, bx, by, cx, cy))
            or (d4 == 0 and on_seg(ax, ay, bx, by, dx, dy)))


def _segment_segment_distance(ax, ay, bx, by, cx, cy, dx, dy) -> float:
    if _segments_intersect(ax, ay, bx, by, cx, cy, dx, dy):
        return 0.0
    return min(
        point_segment_distance(ax, ay, cx, cy, dx, dy),
        point_segment_distance(bx, by, cx, cy, dx, dy),
        point_segment_distance(cx, cy, ax, ay, bx, by),
        point_segment_distance(dx, dy, ax, ay, bx, by),
    )


def segment_rect_distance_by_edges(rect: Rect, ax: float, ay: float,
                                   bx: float, by: float) -> float:
    """Distance from segment a-b to ``rect``: 0 if an end is inside, else
    the least distance to one of its four edges, with an orientation test
    for each crossing."""
    if any(rect.x <= px <= rect.x2 and rect.y <= py <= rect.y2
           for px, py in ((ax, ay), (bx, by))):
        return 0.0
    x1, y1, x2, y2 = rect.x, rect.y, rect.x2, rect.y2
    edges = ((x1, y1, x2, y1), (x2, y1, x2, y2),
             (x2, y2, x1, y2), (x1, y2, x1, y1))
    return min(_segment_segment_distance(ax, ay, bx, by, *e) for e in edges)


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

def scalar_expectile(samples: np.ndarray, tau: float,
                     tol: float = 1e-12) -> float:
    """The tau-expectile of a sample set, found by bisection.

    Solves sum(|tau - 1{q < e}| * (q - e)) = 0, which is the first-order
    condition of the expectile loss in a single scalar parameter.
    """
    q = np.asarray(samples, np.float64)
    lo, hi = float(q.min()), float(q.max())

    def f(e):
        u = q - e
        return float(np.sum(expectile_weights(u, tau) * u))

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def log_prob(head: GaussianPolicyHead, feats: np.ndarray,
             actions: np.ndarray) -> np.ndarray:
    """Log density of raw actions under ``head``, including the tanh change
    of variables: the per-row terms whose weighted mean
    ``GaussianPolicyHead.nll_and_grads`` differentiates."""
    return head._log_prob_parts(feats, actions)[0]

