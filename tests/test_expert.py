import math
import os

import numpy as np
import pytest

from fanav import expert
from fanav.errors import ConfigError, NoPathError, NumericError, ProtocolError
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
    plan_path,
    run_episode,
)

SPEC = RobotSpec(lidar_beam_count=24)
EPISODE = EpisodeConfig()


def test_expert_config_validation():
    with pytest.raises(ConfigError):
        ExpertConfig(noise_prob=1.5)
    with pytest.raises(ConfigError):
        ExpertConfig(noise_std=(-0.1, 0.0))
    with pytest.raises(ConfigError):
        ExpertConfig(speed_scale=0.0)


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


def test_plan_rejects_bad_endpoints():
    world = World(8, 8, (Circle(4, 4, 1.0),))
    with pytest.raises(ConfigError):
        plan_path(world, (4, 4), (1, 1), SPEC.radius)
    with pytest.raises(ConfigError):
        plan_path(world, (1, 1), (9, 1), SPEC.radius)


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


def test_pursuit_empty_path():
    with pytest.raises(ProtocolError):
        expert_action(Pose(0, 0, 0), [], SPEC, ExpertConfig())


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
        for sa, sb in zip(ta.states, tb.states):
            assert np.array_equal(sa.scan, sb.scan)
            assert sa.goal_dist == sb.goal_dist


def test_collection_is_seed_reproducible():
    world = World(8, 8, (Circle(4, 4, 0.8), Rect(1.5, 5, 1, 1)))
    cfg = ExpertConfig()
    a = collect(world, SPEC, EPISODE, cfg, 6, PERTURBED, seed=9)
    b = collect(world, SPEC, EPISODE, cfg, 6, PERTURBED, seed=9)
    assert [t.outcome for t in a] == [t.outcome for t in b]
    for ta, tb in zip(a, b):
        assert [x.v_cmd for x in ta.actions] == [x.v_cmd for x in tb.actions]


def test_expert_actions_respect_limits():
    world = World(8, 8, (Circle(4, 4, 0.8),))
    trajs = collect(world, SPEC, EPISODE, ExpertConfig(), 6, PERTURBED, seed=5)
    for t in trajs:
        for a in t.actions:
            assert abs(a.v_cmd) <= SPEC.v_max + 1e-12
            assert abs(a.omega_cmd) <= SPEC.omega_max + 1e-12


def test_label_purity_and_done_position():
    world = World(8, 8, (Circle(4, 4, 0.8), Rect(5.5, 1.5, 1, 1)))
    trajs = collect(world, SPEC, EPISODE, ExpertConfig(), 20, PERTURBED, seed=2)
    assert trajs, "expected at least one labeled trajectory"
    for t in trajs:
        assert t.outcome in (SUCCESS, COLLISION)
        assert len(t.states) == len(t.actions) + 1
        assert len(t.rewards) == len(t.actions)


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


def test_run_episode_fixed_task_is_deterministic():
    world = World(8, 8, (Circle(4, 4, 0.8),))
    start, goal = Pose(1, 1, 0.3), (7.0, 7.0)
    t1 = run_episode(world, SPEC, EPISODE, ExpertConfig(), np.random.default_rng(0),
                     CLEAN, 0, start, goal)
    t2 = run_episode(world, SPEC, EPISODE, ExpertConfig(), np.random.default_rng(0),
                     CLEAN, 0, start, goal)
    assert t1.outcome == t2.outcome == SUCCESS
    assert [a.omega_cmd for a in t1.actions] == [a.omega_cmd for a in t2.actions]


# ---------------------------------------------------------------------------
# collection on lanes: results do not depend on the lane count
# ---------------------------------------------------------------------------

RATIO_WORLD = World(8, 8, (Circle(4, 4, 0.8), Rect(2, 5.5, 1.2, 1.2),
                           Circle(6, 2.5, 0.6)))
HARVEST = ExpertConfig().harvest_profile()


def as_values(trajs):
    """Trajectories as comparable values (a NavState holds an array)."""
    return [(t.traj_id, t.outcome, t.start, t.goal, t.actions, t.rewards,
             [(s.scan.tobytes(), s.goal_dist, s.goal_bearing, s.lin_vel,
               s.ang_vel) for s in t.states]) for t in trajs]


def ratio_run(seed):
    return collect_to_ratio(RATIO_WORLD, SPEC, EPISODE, ExpertConfig(),
                            min_transitions=600, target_col_ratio=0.1,
                            seed=seed, ratio_tol=0.03)


def serial_episodes(monkeypatch, set_lanes, seed):
    """(ep, harvest?) of every episode the one-lane loop runs."""
    ran = []
    original = expert.run_episode

    def recorded(world, spec, episode, cfg, rng, mode, ep, *rest):
        ran.append((ep, cfg == HARVEST))
        return original(world, spec, episode, cfg, rng, mode, ep, *rest)

    set_lanes(1)
    monkeypatch.setattr(expert, "run_episode", recorded)
    trajs = ratio_run(seed)
    monkeypatch.setattr(expert, "run_episode", original)
    return trajs, ran


def test_collect_on_lanes_matches_serial(set_lanes):
    world = World(8, 8, (Circle(4, 4, 0.8), Rect(5.5, 1.5, 1, 1)))
    values = []
    for n in (1, 2):
        set_lanes(n)
        values.append(as_values(collect(world, SPEC, EPISODE, ExpertConfig(),
                                        7, PERTURBED, seed=2)))
    assert values[0] == values[1]


def test_collect_to_ratio_does_not_depend_on_lanes(monkeypatch, set_lanes):
    mid_batch = set()
    for seed in (1, 2):
        serial, ran = serial_episodes(monkeypatch, set_lanes, seed)
        careful = sum(1 for _, harvest in ran if not harvest)
        # a batch of n episodes straddles the careful -> harvest switch
        mid_batch |= {n for n in (2, 3) if careful % n}
        for n in (2, 3):
            set_lanes(n)
            assert as_values(ratio_run(seed)) == as_values(serial)
    assert mid_batch == {2, 3}


@pytest.mark.parametrize("lanes, ran_ahead", [
    (1, []),
    # seed 2 runs 9 careful and 5 harvest episodes: on two lanes both
    # phases end mid-batch, at the careful run of episode 9 and the harvest
    # run of 14; a batch holds one episode per lane, so no more run ahead
    (2, ["14-True", "9-False"]),
], ids=["1-lane", "2-lanes"])
def test_failing_episode_past_the_stop_is_dropped(lanes, ran_ahead,
                                                  monkeypatch, set_lanes,
                                                  tmp_path):
    serial, ran = serial_episodes(monkeypatch, set_lanes, 2)
    original = expert.run_episode

    def failing(world, spec, episode, cfg, rng, mode, ep, *rest):
        # any episode the serial loop never ran fails; it may run in a child,
        # so it leaves a file behind to show that it ran
        if (ep, cfg == HARVEST) not in ran:
            (tmp_path / f"{ep}-{cfg == HARVEST}").touch()
            raise NumericError(f"episode {ep} past the stop")
        return original(world, spec, episode, cfg, rng, mode, ep, *rest)

    monkeypatch.setattr(expert, "run_episode", failing)
    set_lanes(lanes)
    assert as_values(ratio_run(2)) == as_values(serial)
    assert sorted(os.listdir(tmp_path)) == ran_ahead
    with pytest.raises(ChildProcessError):  # every lane was reaped
        os.waitpid(-1, os.WNOHANG)
