import math
from pathlib import Path

import numpy as np
import pytest

from fanav.cli import (BUNDLED_WORLDS, resolve_config, resolve_world,
                       robot_spec_from)
from fanav.geometry import (
    _EPS,
    Circle,
    Rect,
    point_segment_distance,
    point_shape_distance,
    ray_box_exit,
    ray_circle,
    ray_circles,
    ray_rect,
    ray_rects,
    segment_shape_distance,
    segments_intersect,
    wrap_angle,
)

DESK = str(Path(__file__).resolve().parents[1] / "desk.toml")


@pytest.mark.parametrize("a,expected", [
    (0.0, 0.0),
    (math.pi, math.pi),
    (-math.pi, math.pi),
    (3 * math.pi / 2, -math.pi / 2),
    (-3 * math.pi / 2, math.pi / 2),
    (7 * math.pi, math.pi),
])
def test_wrap_angle(a, expected):
    assert wrap_angle(a) == pytest.approx(expected, abs=1e-12)


def test_wrap_angle_range_random():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-50, 50, 2000)
    wrapped = np.array([wrap_angle(x) for x in xs])
    assert np.all(wrapped > -math.pi - 1e-12)
    assert np.all(wrapped <= math.pi + 1e-12)
    # wrapping preserves the angle modulo 2*pi
    assert np.allclose(np.cos(wrapped), np.cos(xs), atol=1e-9)
    assert np.allclose(np.sin(wrapped), np.sin(xs), atol=1e-9)


def test_point_distances():
    r = Rect(1, 1, 2, 1)
    assert point_shape_distance(r, 2, 1.5) == 0.0  # inside
    assert point_shape_distance(r, 0, 1.5) == pytest.approx(1.0)
    assert point_shape_distance(r, 4, 3) == pytest.approx(math.hypot(1, 1))
    c = Circle(0, 0, 1)
    assert point_shape_distance(c, 0.5, 0) == 0.0
    assert point_shape_distance(c, 3, 0) == pytest.approx(2.0)


def test_point_segment_distance():
    assert point_segment_distance(0, 1, -1, 0, 1, 0) == pytest.approx(1.0)
    assert point_segment_distance(5, 0, -1, 0, 1, 0) == pytest.approx(4.0)
    assert point_segment_distance(0, 0, 0, 0, 0, 0) == 0.0


def test_segments_intersect():
    assert segments_intersect(0, 0, 2, 2, 0, 2, 2, 0)
    assert not segments_intersect(0, 0, 1, 0, 0, 1, 1, 1)
    # collinear touching
    assert segments_intersect(0, 0, 1, 0, 1, 0, 2, 0)


def test_segment_shape_distance():
    r = Rect(2, -1, 2, 2)
    assert segment_shape_distance(r, 0, 0, 1, 0) == pytest.approx(1.0)
    assert segment_shape_distance(r, 0, 0, 3, 0) == 0.0  # ends inside
    assert segment_shape_distance(r, 0, 5, 10, 5) == pytest.approx(4.0)
    c = Circle(0, 2, 1)
    assert segment_shape_distance(c, -5, 0, 5, 0) == pytest.approx(1.0)
    assert segment_shape_distance(c, -5, 1.5, 5, 1.5) == 0.0


def test_ray_box_exit():
    d = ray_box_exit(2.0, 2.0, np.array([1.0, 0.0, -1.0]),
                     np.array([0.0, 1.0, 0.0]), 4.0, 4.0)
    assert d == pytest.approx([2.0, 2.0, 2.0])
    # diagonal
    s = math.sqrt(0.5)
    d = ray_box_exit(1.0, 1.0, np.array([s]), np.array([s]), 4.0, 4.0)
    assert d[0] == pytest.approx(3.0 * math.sqrt(2.0))


def test_ray_circle():
    t = ray_circle(0.0, 0.0, np.array([1.0, -1.0, 0.0]),
                   np.array([0.0, 0.0, 1.0]), Circle(3, 0, 0.5))
    assert t[0] == pytest.approx(2.5)
    assert np.isinf(t[1])
    assert np.isinf(t[2])
    # origin inside the circle: immediate hit, matching the rect convention
    t = ray_circle(3.2, 0.0, np.array([1.0]), np.array([0.0]), Circle(3, 0, 0.5))
    assert t[0] == pytest.approx(0.0)


def test_ray_rect():
    r = Rect(2, -1, 1, 2)
    t = ray_rect(0.0, 0.0, np.array([1.0, -1.0, 0.0]),
                 np.array([0.0, 0.0, 1.0]), r)
    assert t[0] == pytest.approx(2.0)
    assert np.isinf(t[1])
    assert np.isinf(t[2])
    # parallel ray sliding along the slab but outside it
    t = ray_rect(0.0, 5.0, np.array([1.0]), np.array([0.0]), r)
    assert np.isinf(t[0])
    # origin inside
    t = ray_rect(2.5, 0.0, np.array([1.0]), np.array([0.0]), r)
    assert t[0] == pytest.approx(0.0)


def test_ray_rect_matches_dense_sampling():
    rng = np.random.default_rng(1)
    rect = Rect(1.0, 2.0, 1.5, 0.8)
    for _ in range(50):
        ox, oy = rng.uniform(-1, 5, 2)
        ang = rng.uniform(-math.pi, math.pi)
        t = ray_rect(ox, oy, np.array([math.cos(ang)]), np.array([math.sin(ang)]),
                     rect)[0]
        # brute-force march along the ray
        ts = np.linspace(0, 10, 200_001)
        xs = ox + ts * math.cos(ang)
        ys = oy + ts * math.sin(ang)
        inside = ((rect.x <= xs) & (xs <= rect.x2)
                  & (rect.y <= ys) & (ys <= rect.y2))
        if inside.any():
            assert t == pytest.approx(ts[inside.argmax()], abs=1e-4)
        else:
            assert t > 10 or np.isinf(t)


# ---------------------------------------------------------------------------
# the vectorized kernels against the one-shape oracles, bit for bit
# ---------------------------------------------------------------------------

def assert_kernels_equal_oracles(world, ox, oy, dirx, diry):
    for kernel, oracle, params, kind in (
            (ray_circles, ray_circle, world._circle_params, Circle),
            (ray_rects, ray_rect, world._rect_params, Rect)):
        hits = [oracle(ox, oy, dirx, diry, ob) for ob in world.obstacles
                if isinstance(ob, kind)]
        want = (np.min(hits, axis=0) if hits
                else np.full_like(dirx, np.inf))
        got = kernel(ox, oy, dirx, diry, params)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
            (kernel.__name__, ox, oy)


@pytest.mark.parametrize("name", BUNDLED_WORLDS)
def test_ray_kernels_equal_the_oracles_bitwise(name):
    world = resolve_world(name)
    bearings = robot_spec_from(resolve_config(DESK, [])).beam_bearings()
    rng = np.random.default_rng(7)
    poses = [(x, y, h) for x, y, h in zip(
        rng.uniform(0, world.width, 1000), rng.uniform(0, world.height, 1000),
        rng.uniform(-math.pi, math.pi, 1000))]
    # at 135 degrees the desk robot's first and last beams lie on the axes
    corners = [(x, y) for ob in world.obstacles if isinstance(ob, Rect)
               for x in (ob.x, ob.x2) for y in (ob.y, ob.y2)]
    centers = [(ob.cx, ob.cy) for ob in world.obstacles
               if isinstance(ob, Circle)]
    poses += [(x, y, math.radians(135)) for x, y in corners + centers]
    for ox, oy, heading in poses:
        angles = heading + bearings
        assert_kernels_equal_oracles(world, ox, oy, np.cos(angles),
                                     np.sin(angles))
    on_axis = math.radians(135) + bearings
    assert np.abs(np.sin(on_axis[0])) <= _EPS
    assert np.abs(np.cos(on_axis[-1])) <= _EPS
    if centers:  # inside a circle every ray hits at once
        assert not ray_circles(*centers[0], np.cos(on_axis), np.sin(on_axis),
                               world._circle_params).any()
