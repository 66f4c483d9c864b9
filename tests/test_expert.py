import heapq
import math
import os
import pickle
from dataclasses import replace

import numpy as np
import pytest

from fanav import expert
from fanav.cli import BUNDLED_WORLDS, resolve_world
from fanav.data import EncoderProfile, build_dataset, save_dataset
from fanav.errors import ConfigError, NoPathError, NumericError
from fanav.geometry import Circle, Rect
from fanav.sim import (
    COLLISION,
    SUCCESS,
    Action,
    EpisodeConfig,
    Pose,
    RobotSpec,
    World,
)
from fanav.expert import (
    CLEAN,
    PERTURBED,
    ExpertConfig,
    collect,
    collect_to_ratio,
    expert_action,
    occupancy_grid,
    plan_path,
    run_episode,
)

SPEC = RobotSpec(lidar_beams=24)
EPISODE = EpisodeConfig()


def test_expert_config_validation():
    with pytest.raises(ConfigError):
        ExpertConfig(noise_prob=1.5)
    with pytest.raises(ConfigError):
        ExpertConfig(noise_std_v=-0.1)
    with pytest.raises(ConfigError):
        ExpertConfig(noise_std_omega=-0.1)
    with pytest.raises(ConfigError):
        ExpertConfig(speed_scale=0.0)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ConfigError, match="min_separation"):
            ExpertConfig(min_separation=bad)


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------

def test_plan_straight_line_in_empty_world():
    world = World(8, 8)
    path = plan_path(world, (1, 1), (3, 1), SPEC.radius)
    assert path == [(1.0, 1.0), (3.0, 1.0)]


def test_plan_no_path_through_full_wall():
    world = World(8, 8, (Rect(3.9, 0, 0.4, 8.0),))
    with pytest.raises(NoPathError):
        plan_path(world, (1, 4), (7, 4), SPEC.radius)


def test_plan_l_corridor_length_bound():
    # wall with a gap near the top forces a detour
    world = World(8, 8, (Rect(3.8, 0, 0.4, 6.5),))
    path = plan_path(world, (1, 1), (7, 1), SPEC.radius)
    assert sum(math.dist(a, b) for a, b in zip(path, path[1:])) >= 6.0
    assert path[0] == (1.0, 1.0) and path[-1] == (7.0, 1.0)


def test_plan_path_clearance():
    world = World(10, 10, (Circle(5, 5, 1.0), Rect(2, 6, 2, 1)))
    path = plan_path(world, (1, 1), (9, 9), SPEC.radius, inflation=0.05)
    # every sampled point along the polyline keeps ~robot-radius clearance
    for (ax, ay), (bx, by) in zip(path, path[1:]):
        for u in np.linspace(0, 1, 30):
            x, y = ax + u * (bx - ax), ay + u * (by - ay)
            assert world.clearance(x, y) > SPEC.radius * 0.85



def test_segment_clear_accepts_a_wall_at_the_inflation_but_not_an_obstacle():
    # exact in binary: a wall exactly ``inflate`` from the segment leaves it
    # clear, an obstacle exactly ``inflate`` from it does not
    world = World(4.0, 4.0, (Rect(2.0, 1.0, 1.0, 2.0),))
    for x, clear in ((1.75, False), (math.nextafter(1.75, 0.0), True)):
        assert expert._segment_clear(world, x, 1.5, x, 2.5, 0.25) is clear
    for x, clear in ((0.25, True), (math.nextafter(0.25, 0.0), False)):
        assert expert._segment_clear(World(4.0, 4.0), x, 1.0, x, 3.0,
                                     0.25) is clear

def test_plan_rejects_bad_endpoints():
    world = World(8, 8, (Circle(4, 4, 1.0),))
    with pytest.raises(ConfigError):
        plan_path(world, (4, 4), (1, 1), SPEC.radius)
    with pytest.raises(ConfigError):
        plan_path(world, (1, 1), (9, 1), SPEC.radius)


def test_occupancy_grid_is_built_once_per_world_and_inflation():
    def room():
        return World(8, 6, (Circle(4, 3, 0.8), Rect(1, 1, 1.5, 0.5)))

    world = room()
    grid = occupancy_grid(world, 0.28)
    assert grid.shape == (80, 60)  # GRID_RES cells
    assert occupancy_grid(world, 0.28) is grid
    fresh = occupancy_grid(room(), 0.28)
    assert fresh is not grid and np.array_equal(fresh, grid)
    other = occupancy_grid(world, 0.2)
    assert other is not grid and other.sum() < grid.sum()
    for g in (grid, other):
        with pytest.raises(ValueError):
            g[0, 0] = not g[0, 0]


def tuple_astar(blocked, start, goal):
    """A* keyed by (i, j) tuples: the reference for the flat-index one."""
    nx, ny = blocked.shape

    def h(c):
        dx, dy = abs(c[0] - goal[0]), abs(c[1] - goal[1])
        return (dx + dy) + (math.sqrt(2.0) - 2.0) * min(dx, dy)

    g = {start: 0.0}
    parent = {}
    heap = [(h(start), start)]
    closed = set()
    while heap:
        _, cur = heapq.heappop(heap)
        if cur == goal:
            path = [cur]
            while cur in parent:
                cur = parent[cur]
                path.append(cur)
            return path[::-1]
        if cur in closed:
            continue
        closed.add(cur)
        ci, cj = cur
        for di, dj, cost in expert._MOVES:
            a, b = ci + di, cj + dj
            if not (0 <= a < nx and 0 <= b < ny) or blocked[a, b]:
                continue
            if di and dj and (blocked[ci + di, cj] or blocked[ci, cj + dj]):
                continue
            cand = g[cur] + cost
            if cand < g.get((a, b), math.inf):
                g[(a, b)] = cand
                parent[(a, b)] = cur
                heapq.heappush(heap, (cand + h((a, b)), (a, b)))
    return None


@pytest.mark.parametrize("name", BUNDLED_WORLDS)
def test_flat_astar_matches_the_tuple_keyed_one(name):
    world = resolve_world(name)
    rng = np.random.default_rng(5)
    for inflate in (0.20, 0.28, 0.30):
        blocked = occupancy_grid(world, inflate)
        free = np.argwhere(~blocked)
        for _ in range(15):
            s, t = (tuple(map(int, free[k]))
                    for k in rng.choice(len(free), 2, replace=False))
            assert expert._astar(blocked, s, t) == tuple_astar(blocked, s, t)
    # no path: a wall splits the grid
    blocked = np.zeros((6, 5), bool)
    blocked[3] = True
    assert expert._astar(blocked, (0, 0), (5, 4)) is None
    assert tuple_astar(blocked, (0, 0), (5, 4)) is None


# ---------------------------------------------------------------------------
# pure pursuit
# ---------------------------------------------------------------------------

def test_pursuit_target_straight_ahead():
    cfg = ExpertConfig(speed_scale=1.0)
    a = expert_action(Pose(0, 0, 0), [(0.0, 0.0), (5.0, 0.0)], SPEC, cfg)
    assert a.v_cmd == pytest.approx(SPEC.v_max)
    assert a.omega_cmd == pytest.approx(0.0, abs=1e-12)
    half = expert_action(Pose(0, 0, 0), [(0.0, 0.0), (5.0, 0.0)], SPEC,
                         ExpertConfig(speed_scale=0.5))
    assert half.v_cmd == pytest.approx(0.5 * SPEC.v_max)


def test_pursuit_target_at_right_angle():
    cfg = ExpertConfig(lookahead=1.0)
    # path going straight up from the robot: target bearing pi/2
    a = expert_action(Pose(0, 0, 0), [(0.0, 0.0), (0.0, 5.0)], SPEC, cfg)
    assert a.v_cmd == pytest.approx(0.0, abs=1e-12)
    assert a.omega_cmd == pytest.approx(SPEC.omega_max)


def test_pursuit_formula_values():
    # bearing pi/3 with gain 2: omega clamps at pi/2, v = 0.5 * v_max
    cfg = ExpertConfig(lookahead=1.0, gain_heading=2.0, speed_scale=1.0)
    phi = math.pi / 3
    target = (math.cos(phi), math.sin(phi))
    a = expert_action(Pose(0, 0, 0), [(0.0, 0.0), target], SPEC, cfg)
    assert a.v_cmd == pytest.approx(SPEC.v_max * math.cos(phi))
    assert a.v_cmd == pytest.approx(0.25)
    assert 2.0 * phi == pytest.approx(2.0943951, abs=1e-6)
    assert a.omega_cmd == pytest.approx(math.pi / 2)


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------

def test_clean_collection_all_success_in_empty_world():
    world = World(8, 8)
    trajs = collect(world, SPEC, EPISODE, ExpertConfig(), 8, CLEAN, seed=1)
    assert len(trajs) == 8
    assert all(t.outcome == SUCCESS for t in trajs)


def test_perturbed_with_zero_noise_matches_clean():
    world = World(8, 8, (Circle(4, 4, 0.8),))
    cfg = ExpertConfig(noise_prob=0.0)
    a = collect(world, SPEC, EPISODE, cfg, 4, CLEAN, seed=3)
    b = collect(world, SPEC, EPISODE, cfg, 4, PERTURBED, seed=3)
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert ta.outcome == tb.outcome
        assert len(ta) == len(tb)
        assert np.array_equal(ta.obs, tb.obs)


def test_collection_is_seed_reproducible():
    world = World(8, 8, (Circle(4, 4, 0.8), Rect(1.5, 5, 1, 1)))
    cfg = ExpertConfig()
    a = collect(world, SPEC, EPISODE, cfg, 6, PERTURBED, seed=9)
    b = collect(world, SPEC, EPISODE, cfg, 6, PERTURBED, seed=9)
    assert [t.outcome for t in a] == [t.outcome for t in b]
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.actions, tb.actions)


def test_expert_actions_respect_limits():
    world = World(8, 8, (Circle(4, 4, 0.8),))
    trajs = collect(world, SPEC, EPISODE, ExpertConfig(), 6, PERTURBED, seed=5)
    for t in trajs:
        assert np.all(np.abs(t.actions) <= [SPEC.v_max + 1e-12,
                                            SPEC.omega_max + 1e-12])


def test_label_purity_and_done_position():
    world = World(8, 8, (Circle(4, 4, 0.8), Rect(5.5, 1.5, 1, 1)))
    trajs = collect(world, SPEC, EPISODE, ExpertConfig(), 20, PERTURBED, seed=2)
    assert trajs, "expected at least one labeled trajectory"
    for t in trajs:
        assert t.outcome in (SUCCESS, COLLISION)
        assert t.obs.shape == (len(t.actions) + 1, SPEC.lidar_beams + 4)
        assert t.actions.shape == (len(t), 2)


def test_collect_to_ratio_hits_target():
    world = World(8, 8, (Circle(4, 4, 0.8), Rect(2, 5.5, 1.2, 1.2),
                         Circle(6, 2.5, 0.6)))
    trajs = collect_to_ratio(world, SPEC, EPISODE, ExpertConfig(),
                             min_transitions=1500, target_col_ratio=0.1,
                             seed=4, ratio_tol=0.015)
    total = sum(len(t) for t in trajs)
    assert total >= 1500
    n_coll = sum(len(t) for t in trajs if t.outcome == COLLISION)
    assert n_coll / total == pytest.approx(0.1, abs=0.015)
    # label purity by construction
    for t in trajs:
        assert t.outcome in (SUCCESS, COLLISION)


# Episode ids kept on cluttered at desk's robot, successes first. At 450,
# 800, 1000 and 1200 the newest-first trim alone lands within the
# tolerance. At 550 it misses until the top-up has collected successes 11,
# 13, 14 and 15; collision 12, met on the way, is trimmed as the newest.
KEPT = {450: [0, 1, 2, 3, 4, 5, 8, 9],
        550: [*range(8), 11, 13, 14, 15, 8, 9, 10], 800: list(range(11)),
        1000: list(range(12)), 1200: [*range(12), 13, 16, 12, 14, 15, 17]}


@pytest.mark.parametrize("key, value", [
    ("ratio_tol", -1.0), ("ratio_tol", 0.0), ("ratio_tol", math.nan),
    ("ratio_tol", math.inf), ("min_transitions", 0),
    ("target_col_ratio", 1.0)])
def test_collect_to_ratio_refuses_a_bad_target_before_an_episode(
        key, value, monkeypatch):
    # a bad bound would otherwise surface only after the episodes, or never
    def episode(*args):
        raise AssertionError("ran an episode")

    monkeypatch.setattr(expert, "_episode", episode)
    targets = {"min_transitions": 10, "target_col_ratio": 0.1, key: value}
    with pytest.raises(ConfigError, match=f"^collect.{key} must be .*, got "):
        collect_to_ratio(resolve_world("sparse"), SPEC, EPISODE,
                         ExpertConfig(), seed=0, **targets)


def test_collect_to_ratio_meets_the_tolerance_at_every_size():
    # cluttered at desk's robot: at 300-400, 550-750, 1050 and 1100 the
    # newest-first trim misses 0.01, so the top-up collects one more
    # trajectory of the short side until it lands; at 300-400 a single
    # 53-step collision outweighs every success
    world = resolve_world("cluttered")
    spec = RobotSpec(lidar_range=6.0)
    for size in range(300, 1201, 50):
        trajs = collect_to_ratio(world, spec, EPISODE, ExpertConfig(), size,
                                 0.1, seed=0)
        total = sum(len(t) for t in trajs)
        n_coll = sum(len(t) for t in trajs if t.outcome == COLLISION)
        assert total >= size
        assert abs(n_coll / total - 0.1) <= 0.01, size
        assert {t.outcome for t in trajs} == {SUCCESS, COLLISION}
        if size in KEPT:
            assert [t.traj_id for t in trajs] == KEPT[size], size


def test_collect_to_ratio_at_zero_keeps_every_clean_success():
    trajs = collect_to_ratio(resolve_world("sparse"), SPEC, EPISODE,
                             ExpertConfig(), 300, 0.0, seed=0)
    ids = [t.traj_id for t in trajs]
    assert ids == sorted(ids) and {t.outcome for t in trajs} == {SUCCESS}
    total = sum(len(t) for t in trajs)
    # nothing is trimmed: the last episode kept is the one that reached 300
    assert total >= 300 and total - len(trajs[-1]) < 300


def test_trim_returns_none_when_the_newest_first_drops_miss():
    # collect_to_ratio then collects one more trajectory of the short side
    def trajs(outcome, lengths):
        return [expert.Trajectory(i, outcome, np.zeros((n + 1, 0)),
                                  np.zeros((n, 2)))
                for i, n in enumerate(lengths)]

    succ = trajs(SUCCESS, [94, 57, 85, 80, 53, 127, 71, 90])
    coll = trajs(COLLISION, [34, 16, 67])
    # cluttered's lists at 550: newest-first ends at 0.081, though the
    # newest collision alone with every success would hold 0.0925
    assert expert._trim_to_ratio(succ, coll, 0.1, 0.01, 550) is None
    assert len(succ) == 8 and len(coll) == 3  # the inputs are unchanged
    # newest-first ends at 30/230, though 150 success steps and the 15-step
    # collision would hold 0.0909
    succ, coll = trajs(SUCCESS, [50] * 4), trajs(COLLISION, [30, 15])
    assert expert._trim_to_ratio(succ, coll, 0.1, 0.01, 100) is None
    # a single collision too long for every success: nothing fits
    assert expert._trim_to_ratio(succ[:5], trajs(COLLISION, [53]), 0.1,
                                 0.01, 300) is None


def test_run_episode_fixed_task_is_deterministic():
    world = World(8, 8, (Circle(4, 4, 0.8),))
    start, goal = Pose(1, 1, 0.3), (7.0, 7.0)
    t1 = run_episode(world, SPEC, EPISODE, ExpertConfig(), np.random.default_rng(0),
                     CLEAN, 0, start, goal)
    t2 = run_episode(world, SPEC, EPISODE, ExpertConfig(), np.random.default_rng(0),
                     CLEAN, 0, start, goal)
    assert t1.outcome == t2.outcome == SUCCESS
    assert np.array_equal(t1.actions, t2.actions)


# ---------------------------------------------------------------------------
# collection order: results do not depend on the lane count, and no episode
# runs past the serial stop
# ---------------------------------------------------------------------------

RATIO_WORLD = World(8, 8, (Circle(4, 4, 0.8), Rect(2, 5.5, 1.2, 1.2),
                           Circle(6, 2.5, 0.6)))
HARVEST = replace(ExpertConfig(), **expert.HARVEST)


def as_values(trajs):
    """Trajectories as comparable values (a trajectory holds arrays)."""
    return [(t.traj_id, t.outcome, t.obs.shape, t.obs.tobytes(),
             t.actions.shape, t.actions.tobytes()) for t in trajs]


def ratio_run(seed):
    return collect_to_ratio(RATIO_WORLD, SPEC, EPISODE, ExpertConfig(),
                            min_transitions=600, target_col_ratio=0.1,
                            seed=seed, ratio_tol=0.03)


def test_collect_on_lanes_matches_serial(set_lanes):
    world = World(8, 8, (Circle(4, 4, 0.8), Rect(5.5, 1.5, 1, 1)))
    values = []
    for n in (1, 2):
        set_lanes(n)
        values.append(as_values(collect(world, SPEC, EPISODE, ExpertConfig(),
                                        7, PERTURBED, seed=2)))
    assert values[0] == values[1]


def dataset_bytes(trajs, tmp_path):
    path = tmp_path / "ratio.fanav"
    save_dataset(build_dataset(
        trajs, EncoderProfile.from_world_spec(RATIO_WORLD, SPEC), EPISODE),
        str(path))
    return path.read_bytes()


def test_collect_to_ratio_does_not_depend_on_lanes(set_lanes, tmp_path):
    for seed in (1, 2):
        runs = []
        for n in (1, 2, 3):
            set_lanes(n)
            trajs = ratio_run(seed)
            runs.append((as_values(trajs), dataset_bytes(trajs, tmp_path)))
        assert runs[1] == runs[0] and runs[2] == runs[0], seed


def recorded_run(monkeypatch, seed):
    """``ratio_run(seed)`` and the (ep, harvest?) of every episode that
    ran in this process."""
    ran = []
    original = expert.run_episode

    def recorded(world, spec, episode, cfg, rng, mode, ep, *rest):
        ran.append((ep, cfg == HARVEST))
        return original(world, spec, episode, cfg, rng, mode, ep, *rest)

    monkeypatch.setattr(expert, "run_episode", recorded)
    trajs = ratio_run(seed)
    monkeypatch.setattr(expert, "run_episode", original)
    return trajs, ran


def test_one_lane_runs_no_episode_past_the_stop(monkeypatch, set_lanes):
    set_lanes(1)
    _, ran = recorded_run(monkeypatch, 2)
    # seed 2 runs 9 careful and 5 harvest episodes
    assert ran == [(ep, ep >= 9) for ep in range(14)]


def test_failing_episode_past_the_stop_is_dropped(monkeypatch, set_lanes,
                                                  tmp_path):
    set_lanes(1)
    serial, ran = recorded_run(monkeypatch, 2)
    original = expert.run_episode

    def failing(world, spec, episode, cfg, rng, mode, ep, *rest):
        # any episode the one-lane loop never ran fails; it may run in a
        # child, so it leaves a file behind to show that it ran
        if (ep, cfg == HARVEST) not in ran:
            (tmp_path / f"{ep}-{cfg == HARVEST}").touch()
            raise NumericError(f"episode {ep} past the stop")
        return original(world, spec, episode, cfg, rng, mode, ep, *rest)

    monkeypatch.setattr(expert, "run_episode", failing)
    set_lanes(3)
    assert as_values(ratio_run(2)) == as_values(serial)
    # batches ran past the careful stop (episode 9) and the harvest one (14)
    assert {f.split("-")[1] for f in os.listdir(tmp_path)} == {"False", "True"}
    with pytest.raises(ChildProcessError):  # every lane was reaped
        os.waitpid(-1, os.WNOHANG)


def test_an_episodes_error_is_raised_when_it_is_reached(monkeypatch,
                                                        set_lanes):
    original = expert.run_episode

    def failing(world, spec, episode, cfg, rng, mode, ep, *rest):
        if ep in (4, 5):  # 5 is never reached: 4 raises first
            raise NumericError(f"episode {ep}")
        return original(world, spec, episode, cfg, rng, mode, ep, *rest)

    monkeypatch.setattr(expert, "run_episode", failing)
    for n in (1, 3):
        set_lanes(n)
        with pytest.raises(NumericError, match="episode 4"):
            ratio_run(2)


@pytest.mark.parametrize("ratio", [True, False], ids=["ratio", "episodes"])
def test_no_lane_builds_a_planning_grid(ratio, monkeypatch, set_lanes,
                                        tmp_path):
    original = expert._grid_distances

    def noted(*args):  # runs only while a grid is built
        (tmp_path / str(os.getpid())).touch()
        return original(*args)

    monkeypatch.setattr(expert, "_grid_distances", noted)
    set_lanes(3)
    world = World(8, 8, RATIO_WORLD.obstacles)  # no grid built yet
    if ratio:
        collect_to_ratio(world, SPEC, EPISODE, ExpertConfig(), 600, 0.1,
                         seed=2, ratio_tol=0.03)
    else:
        collect(world, SPEC, EPISODE, ExpertConfig(), 9, PERTURBED, seed=2)
    assert os.listdir(tmp_path) == [str(os.getpid())]
    assert set(world._grids) == {SPEC.radius + ExpertConfig().plan_inflation,
                                 *([SPEC.radius] if ratio else [])}


def test_trajectory_pickles_as_its_arrays():
    # a lane sends each episode as its two matrices and little more
    trajs = ratio_run(2)
    for t in trajs:
        blob = pickle.dumps(t, pickle.HIGHEST_PROTOCOL)
        assert len(blob) <= t.obs.nbytes + t.actions.nbytes + 1024
    back = pickle.loads(pickle.dumps(trajs, pickle.HIGHEST_PROTOCOL))
    assert as_values(back) == as_values(trajs)
