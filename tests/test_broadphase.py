"""The collision broad phase (:meth:`World.near`) changes no result.

The swept-disk collision, the planner's line-of-sight test and the point
clearance must equal a brute-force loop over every obstacle, on random
chords and on chords built at the edge of each reach; and collection and
evaluation run the same with the prefilter as with one that keeps every
obstacle.
"""
import math

import numpy as np
import pytest

from fanav import expert, sim
from fanav.cli import resolve_world
from fanav.data import EncoderProfile, build_dataset
from fanav.evaluation import evaluate_suite, make_suite
from fanav.expert import ExpertConfig, _segment_clear, collect_to_ratio
from fanav.geometry import (Circle, Rect, point_shape_distance,
                            segment_shape_distance)
from fanav.sim import NEAR_MARGIN, EpisodeConfig, Pose, RobotSpec, World

from baselines import ExpertPilot

SPEC = RobotSpec()
INFLATE = SPEC.radius + ExpertConfig().plan_inflation  # plan_path's
REACHES = (SPEC.radius, INFLATE, 0.9 * INFLATE)
EDGE_RECT = Rect(2.0, 2.0, 1.5, 0.75)
EDGE_CIRCLE = Circle(6.0, 6.0, 0.5)
MIXED = World(10, 10, (EDGE_RECT, EDGE_CIRCLE, Rect(7.0, 1.0, 0.5, 3.0),
                       Circle(3.0, 7.0, 1.0), Rect(4.2, 4.4, 0.3, 0.3),
                       Circle(8.5, 8.0, 0.25), Circle(-0.2, 5.0, 0.6)),
              name="mixed")
WORLDS = [resolve_world(n) for n in ("cluttered", "dense", "sparse")] + [MIXED]


# ---------------------------------------------------------------------------
# brute-force references: every obstacle, in order
# ---------------------------------------------------------------------------

def brute_collides(world, r, bx, by, dists):
    if not (r <= bx <= world.width - r and r <= by <= world.height - r):
        return True
    return any(d <= r for d in dists)


def brute_clear(world, inflate, ax, ay, bx, by, dists):
    if not (inflate <= min(ax, bx) and max(ax, bx) <= world.width - inflate
            and inflate <= min(ay, by)
            and max(ay, by) <= world.height - inflate):
        return False
    return all(d > inflate for d in dists)


def brute_clearance(world, x, y):
    d = min(x, y, world.width - x, world.height - y)
    for ob in world.obstacles:
        d = min(d, point_shape_distance(ob, x, y))
    return d


def check_chord(world, ax, ay, bx, by):
    """Assert every prefiltered test equals its brute-force reference."""
    dists = [segment_shape_distance(ob, ax, ay, bx, by)
             for ob in world.obstacles]
    r = SPEC.radius
    assert sim._collides(world, SPEC, Pose(ax, ay, 0.0), Pose(bx, by, 0.0)) \
        == brute_collides(world, r, bx, by, dists), (ax, ay, bx, by)
    for inflate in (INFLATE, 0.9 * INFLATE):
        assert _segment_clear(world, ax, ay, bx, by, inflate) \
            == brute_clear(world, inflate, ax, ay, bx, by, dists), \
            (ax, ay, bx, by, inflate)
    for x, y in ((ax, ay), (bx, by)):
        assert repr(world.clearance(x, y)) == repr(brute_clearance(world, x, y))


@pytest.mark.parametrize("world", WORLDS, ids=lambda w: w.name)
def test_prefiltered_tests_equal_brute_force_on_random_chords(world):
    """5,000 chords per world, 20,000 in all: mostly step-length chords,
    some as long as the room, some points; endpoints reach half a meter
    past the walls."""
    rng = np.random.default_rng(sum(map(ord, world.name)))
    n = 5000
    ax = rng.uniform(-0.5, world.width + 0.5, n)
    ay = rng.uniform(-0.5, world.height + 0.5, n)
    length = np.where(rng.uniform(size=n) < 0.75,
                      rng.uniform(0.0, 0.3, n),
                      rng.uniform(0.0, world.diagonal, n))
    length[rng.uniform(size=n) < 0.02] = 0.0
    angle = rng.uniform(-math.pi, math.pi, n)
    bx = ax + length * np.cos(angle)
    by = ay + length * np.sin(angle)
    for chord in zip(ax.tolist(), ay.tolist(), bx.tolist(), by.tolist()):
        check_chord(world, *chord)


def ulp_neighbours(x):
    """x and the floats one and two ulps either side of it."""
    below, above = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
    return [math.nextafter(below, -math.inf), below, x, above,
            math.nextafter(above, math.inf)]


@pytest.mark.parametrize("reach", REACHES)
def test_prefiltered_tests_equal_brute_force_at_the_edge_of_reach(reach):
    """Vertical chords at exactly ``reach`` from a rect's right edge and
    from a circle, and 1 and 2 ulps inside and outside; the exact distance
    of each is its x offset, so the set straddles the reach."""
    edges = ((EDGE_RECT.x2, EDGE_RECT.y + 0.1, EDGE_RECT.y2 - 0.1),
             (EDGE_CIRCLE.cx + EDGE_CIRCLE.r, EDGE_CIRCLE.cy - 0.1,
              EDGE_CIRCLE.cy + 0.1))
    for ob, (edge, y1, y2) in zip((EDGE_RECT, EDGE_CIRCLE), edges):
        xs = ulp_neighbours(edge + reach)
        dists = [segment_shape_distance(ob, x, y1, x, y2) for x in xs]
        assert min(dists) < reach < max(dists)
        for x in xs:
            check_chord(MIXED, x, y1, x, y2)
            check_chord(MIXED, x, y2, x, y1)


def test_clearance_equals_brute_force_where_wall_and_obstacle_tie():
    """A point as far from the left wall as from a rect's left edge: the
    wall distance is the prefilter's reach and the rect sits right on it."""
    y = EDGE_RECT.y + EDGE_RECT.h / 2
    for x in ulp_neighbours(EDGE_RECT.x / 2):
        assert repr(MIXED.clearance(x, y)) == repr(brute_clearance(MIXED, x, y))


def test_near_keeps_a_box_exactly_at_reach_plus_margin():
    """In a world no larger than 1 m the margin is NEAR_MARGIN itself, a
    power of two, so these query points sit exactly at the skip boundary on
    each side of the box; moved one ulp of 1.0 farther, they are skipped."""
    rect = Rect(0.5, 0.25, 0.25, 0.5)
    world = World(1.0, 1.0, (rect,))
    reach = 0.125
    lim = reach + NEAR_MARGIN
    for qx, qy, away in ((rect.x - lim, 0.5, (-1, 0)),
                         (rect.x2 + lim, 0.5, (1, 0)),
                         (0.6, rect.y - lim, (0, -1)),
                         (0.6, rect.y2 + lim, (0, 1))):
        assert world.near(qx, qy, qx, qy, reach) == [rect], (qx, qy)
        fx, fy = qx + away[0] * math.ulp(1.0), qy + away[1] * math.ulp(1.0)
        assert world.near(fx, fy, fx, fy, reach) == [], (fx, fy)


# ---------------------------------------------------------------------------
# end to end: the prefilter changes no trajectory, dataset or outcome
# ---------------------------------------------------------------------------

def collect_and_evaluate():
    """Collection on cluttered and expert evaluation on dense, as values."""
    spec = RobotSpec(lidar_beams=24, lidar_range=6.0)
    episode = EpisodeConfig()
    cluttered, dense = resolve_world("cluttered"), resolve_world("dense")
    trajs = collect_to_ratio(cluttered, spec, episode, ExpertConfig(),
                             min_transitions=600, target_col_ratio=0.1,
                             seed=3, ratio_tol=0.03)
    ds = build_dataset(trajs, EncoderProfile.from_world_spec(cluttered, spec),
                       episode)
    suite = make_suite(dense, spec, episode, 6, seed=3)
    result = evaluate_suite(ExpertPilot(), dense, spec, suite, n_trials=2,
                            seed=3)
    return ([(t.traj_id, t.outcome, t.start, t.goal, t.actions,
              [(s.scan.tobytes(), s.goal_dist, s.goal_bearing, s.lin_vel,
                s.ang_vel) for s in t.states]) for t in trajs],
            [getattr(block, c).tobytes() for block in (ds.exp, ds.col)
             for c in vars(block)],
            suite.tasks, result.outcomes,
            [t.tobytes() for t in result.trajectories])


def test_collection_and_evaluation_match_without_the_prefilter(monkeypatch):
    tests = []
    for module in (sim, expert):
        def counted(*args, _exact=module.segment_shape_distance):
            tests.append(None)
            return _exact(*args)
        monkeypatch.setattr(module, "segment_shape_distance", counted)

    runs = []
    for near in (World.near, lambda self, *box: list(self.obstacles)):
        monkeypatch.setattr(World, "near", near)
        tests.clear()
        runs.append((collect_and_evaluate(), len(tests)))
    (prefiltered, n_prefiltered), (every, n_every) = runs
    assert n_prefiltered < n_every / 10  # the prefilter really skips
    for a, b in zip(prefiltered, every):
        assert a == b
