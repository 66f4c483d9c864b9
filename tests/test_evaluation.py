import math
from pathlib import Path

import numpy as np
import pytest

from fanav import evaluation
from fanav.errors import ConfigError, NoPathError, ProtocolError, ShapeError
from fanav.data import EncoderProfile
from fanav.geometry import Circle, Rect
from fanav.nets import GaussianPolicyHead, Mlp
from fanav.sim import (
    COLLISION,
    SUCCESS,
    TIMEOUT,
    Action,
    EpisodeConfig,
    Pose,
    RobotSpec,
    World,
)
from fanav.evaluation import (
    EvalResult,
    NetworkPolicy,
    Task,
    TaskSuite,
    compare,
    evaluate_suite,
    export_trajectories,
    load_eval_result,
    load_suite,
    make_suite,
    render_overlay_svg,
    rollout,
    save_eval_result,
    save_suite,
)

from baselines import ExpertPilot, ZeroPolicy

SPEC = RobotSpec(lidar_beams=24)
EPISODE = EpisodeConfig()
WORLD = World(8, 8, (Circle(4, 4, 0.8), Rect(1.5, 5.5, 1.0, 1.0)), name="w8")
PROFILE = EncoderProfile.from_world_spec(WORLD, SPEC)


def make_net_policy(seed=0) -> NetworkPolicy:
    rng = np.random.default_rng(seed)
    mean = Mlp.initialized((PROFILE.dim, 16, 2), "relu", rng, final_scale=1e-2)
    head = GaussianPolicyHead(mean, PROFILE.action_scale,
                              np.full(2, -0.5, mean.dtype))
    return NetworkPolicy(head, PROFILE, name="random-net")


class StraightPolicy:
    name = "straight"

    def reset(self, world, spec, task):
        pass

    def act(self, state, pose):
        return Action(0.5, 0.0)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def test_make_suite_properties():
    suite = make_suite(WORLD, SPEC, EPISODE, 12, seed=3)
    assert len(suite) == 12
    for t in suite.tasks:
        assert WORLD.clearance(t.sx, t.sy) >= SPEC.radius
        assert WORLD.clearance(t.gx, t.gy) >= SPEC.radius
        assert math.hypot(t.gx - t.sx, t.gy - t.sy) >= 3.0
    # deterministic for a seed
    again = make_suite(WORLD, SPEC, EPISODE, 12, seed=3)
    assert suite.digest == again.digest
    other = make_suite(WORLD, SPEC, EPISODE, 12, seed=4)
    assert suite.digest != other.digest


def test_make_suite_drops_only_planner_failures(monkeypatch):
    starts = []

    def first_unplannable(world, start, goal, radius):
        starts.append(start)
        if len(starts) == 1:
            raise NoPathError("no path between start and goal")
        return [start, goal]

    monkeypatch.setattr(evaluation, "plan_path", first_unplannable)
    suite = make_suite(WORLD, SPEC, EPISODE, 3, seed=3)
    assert len(suite) == 3 and len(starts) == 4
    assert (suite.tasks[0].sx, suite.tasks[0].sy) == starts[1]

    def broken(world, start, goal, radius):
        raise RuntimeError("planner bug")

    # any other error is a bug, not an infeasible task
    monkeypatch.setattr(evaluation, "plan_path", broken)
    with pytest.raises(RuntimeError, match="planner bug"):
        make_suite(WORLD, SPEC, EPISODE, 3, seed=3)


def test_make_suite_gives_up_when_no_far_pair_is_connected():
    # a wall splits the room into halves whose free points lie under 4 m
    # apart, so every pair 4 m apart straddles the wall
    split = World(6, 2, (Rect(2.9, 0.0, 0.2, 2.0),), name="split")
    with pytest.raises(ConfigError,
                       match="could not sample enough feasible tasks"):
        make_suite(split, SPEC, EPISODE, 2, seed=0, min_separation=4.0)


def test_suite_roundtrip(tmp_path):
    suite = make_suite(WORLD, SPEC, EPISODE, 6, seed=1)
    path = str(tmp_path / "tasks.suite")
    save_suite(suite, path)
    text = Path(path).read_text()
    assert text.startswith(f"world w8\nradius {SPEC.radius!r}\ntask ")
    loaded = load_suite(path, EPISODE)
    assert loaded.digest == suite.digest
    assert (loaded.world_name, loaded.radius) == ("w8", SPEC.radius)
    assert len(loaded) == 6


def test_suite_load_errors(tmp_path):
    head = "world w\nradius 0.2\n"
    p = tmp_path / "bad.suite"
    p.write_text(head + "task 1 2 3\n")
    with pytest.raises(ConfigError, match="expected"):
        load_suite(str(p), EPISODE)
    p2 = tmp_path / "empty.suite"
    for text in ("# nothing\n", head):
        p2.write_text(text)
        with pytest.raises(ConfigError, match="empty"):
            load_suite(str(p2), EPISODE)
    p3 = tmp_path / "nan.suite"
    for line in ("task 1 1 0 nan 5", "task inf 1 0 5 5", "task 1 1 1e999 5 5"):
        p3.write_text(head + "task 1 1 0 5 5\n" + line + "\n")
        with pytest.raises(ConfigError, match=f"{p3}:4: non-finite value"):
            load_suite(str(p3), EPISODE)
    p3.write_text("world w\nradius nan\ntask 1 1 0 5 5\n")
    with pytest.raises(ConfigError, match=f"{p3}:2: non-finite value"):
        load_suite(str(p3), EPISODE)
    # the world and radius lines come first, in that order
    for text, lineno in (("task 1 1 0 5 5\n", 1),
                         ("radius 0.2\nworld w\ntask 1 1 0 5 5\n", 1),
                         ("world w\ntask 1 1 0 5 5\n", 2),
                         ("world w x\nradius 0.2\ntask 1 1 0 5 5\n", 1)):
        p3.write_text(text)
        with pytest.raises(ConfigError, match=f"{p3}:{lineno}: expected "
                                              ".*; re-create it"):
            load_suite(str(p3), EPISODE)


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------

def test_zero_policy_times_out_at_horizon():
    task = Task(1.0, 1.0, 0.0, 7.0, 7.0)
    outcome, traj = rollout(ZeroPolicy(), WORLD, SPEC, EPISODE, task)
    assert outcome == TIMEOUT
    assert traj.shape == (EPISODE.t_max + 1, 6)
    assert np.allclose(traj[:, 1], 1.0)  # never moved


def test_expert_pilot_succeeds_in_open_world():
    world = World(8, 8, name="open")
    task = Task(1.0, 1.0, 0.3, 6.5, 6.5)
    outcome, traj = rollout(ExpertPilot(), world, SPEC, EPISODE, task)
    assert outcome == SUCCESS
    assert traj[-1, 0] < EPISODE.t_max


def test_straight_policy_crashes_into_wall():
    task = Task(1.0, 4.0, 0.0, 7.0, 4.0)  # circle obstacle dead ahead
    outcome, _ = rollout(StraightPolicy(), WORLD, SPEC, EPISODE, task)
    assert outcome == COLLISION


def test_network_policy_runs_and_validates_shape():
    policy = make_net_policy()
    task = Task(1.0, 1.0, 0.0, 7.0, 7.0)
    outcome, traj = rollout(policy, WORLD, SPEC, EPISODE, task)
    assert outcome in (SUCCESS, COLLISION, TIMEOUT)
    # beam-count mismatch is a shape error at construction
    bad_profile = EncoderProfile(RobotSpec(lidar_beams=32), 11.3)
    with pytest.raises(ShapeError, match="mismatch|features"):
        NetworkPolicy(policy.head, bad_profile)


# ---------------------------------------------------------------------------
# suite evaluation
# ---------------------------------------------------------------------------

def test_rates_counting_and_identity():
    suite = make_suite(WORLD, SPEC, EPISODE, 10, seed=7)
    res = evaluate_suite(ZeroPolicy(), WORLD, SPEC, suite, n_trials=3, seed=1)
    assert res.tr == 100.0 and res.sr == 0.0 and res.cr == 0.0
    assert res.sr + res.cr + res.tr == 100.0
    assert res.n_tasks == 10 and res.n_trials == 3
    assert len(res.outcomes) == 3
    assert res.tr_std == 0.0


def test_rates_match_hand_count():
    # 47 success, 2 collision, 1 timeout over 50 tasks, then 45, 4, 1
    outcomes = [[SUCCESS] * 47 + [COLLISION] * 2 + [TIMEOUT],
                [TIMEOUT] + [COLLISION] * 4 + [SUCCESS] * 45]
    res = EvalResult("w", "d", "m", outcomes)
    assert (res.n_trials, res.n_tasks) == (2, 50)
    assert res.sr_trials == [94.0, 90.0]
    assert res.cr_trials == [4.0, 8.0]
    assert res.tr_trials == [2.0, 2.0]
    assert res.sr == 92.0 and res.sr_std == 2.0
    assert res.cr == 6.0 and res.cr_std == 2.0
    assert res.tr == 2.0 and res.tr_std == 0.0
    assert res.sr + res.cr + res.tr == 100.0


def test_timeout_rate_is_zero_when_nothing_timed_out():
    # TR is counted, not left over from 100 - SR - CR: for every split of
    # n <= 60 tasks into successes and collisions, each trial's TR and
    # their mean over all the splits of n as trials are exactly 0
    for n in range(1, 61):
        rows = [[SUCCESS] * k + [COLLISION] * (n - k) for k in range(n + 1)]
        for row in rows:
            assert EvalResult("w", "d", "m", [row]).tr_trials == [0.0], row
        res = EvalResult("w", "d", "m", rows)
        assert res.tr_trials == [0.0] * (n + 1) and res.tr == 0.0, n
        assert res.tr_std == 0.0, n


def test_suite_fixedness_same_checkpoint_same_result():
    suite = make_suite(WORLD, SPEC, EPISODE, 8, seed=9)
    policy = make_net_policy(3)
    a = evaluate_suite(policy, WORLD, SPEC, suite, n_trials=2, seed=5)
    b = evaluate_suite(policy, WORLD, SPEC, suite, n_trials=2, seed=5)
    assert a.outcomes == b.outcomes
    assert a.sr_trials == b.sr_trials
    assert a.suite_digest == b.suite_digest


def test_jitter_respects_clearance():
    suite = make_suite(WORLD, SPEC, EPISODE, 8, seed=11)
    res = evaluate_suite(ExpertPilot(), WORLD, SPEC, suite, n_trials=3,
                         seed=2, jitter=(0.1, 0.1))
    # all rollouts started legally (no instant collisions from jitter)
    assert all(o in (SUCCESS, COLLISION, TIMEOUT)
               for row in res.outcomes for o in row)


def test_zero_jitter_starts_each_task_at_its_stored_pose():
    class StartRecorder(StraightPolicy):
        def __init__(self):
            self.starts = []

        def reset(self, world, spec, task):
            self.starts.append((task.sx, task.sy, task.sheading))

    suite = make_suite(WORLD, SPEC, EPISODE, 6, seed=11)
    policy = StartRecorder()
    evaluate_suite(policy, WORLD, SPEC, suite, n_trials=2, seed=2,
                   jitter=(0.0, 0.0))
    stored = [(t.sx, t.sy, t.sheading) for t in suite.tasks]
    assert policy.starts == stored * 2


def test_a_start_that_fails_every_jitter_draw_is_kept_as_stored():
    # at zero jitter each of the 50 draws is the stored start, which fails
    # the draw's clearance check when it lies in [radius, radius + 0.01)
    room = World(4, 4, (), name="room")
    task = Task(SPEC.radius + 0.005, 2.0, 0.3, 3.0, 2.0)
    assert room.clearance(task.sx, task.sy) < SPEC.radius + 0.01
    assert evaluation._jittered_start(room, SPEC, task, 0, 0, 0,
                                      (0.0, 0.0)) == task.start


def test_eval_result_json_roundtrip(tmp_path):
    suite = make_suite(WORLD, SPEC, EPISODE, 5, seed=13)
    res = evaluate_suite(ZeroPolicy(), WORLD, SPEC, suite, n_trials=2, seed=0)
    path = str(tmp_path / "result.json")
    save_eval_result(res, path)
    loaded = load_eval_result(path)
    assert loaded.sr == res.sr and loaded.tr == res.tr
    assert loaded.outcomes == res.outcomes
    assert loaded.suite_digest == res.suite_digest


def test_world_name_mismatch_rejected():
    suite = make_suite(WORLD, SPEC, EPISODE, 4, seed=15)
    other = World(8, 8, name="other")
    with pytest.raises(ProtocolError, match="world"):
        evaluate_suite(ZeroPolicy(), other, SPEC, suite)
    # tasks sampled with clearance for one robot radius fit no other
    with pytest.raises(ProtocolError, match="robot radius 0.2, got 0.35"):
        evaluate_suite(ZeroPolicy(), WORLD, RobotSpec(radius=0.35), suite)


@pytest.mark.parametrize("bad", [-0.1, float("nan")])
def test_negative_jitter_or_separation_rejected(bad):
    # numpy's uniform(-j, j) raises its own ValueError for j < 0
    suite = make_suite(WORLD, SPEC, EPISODE, 2, seed=15)
    for jitter in ((bad, 0.1), (0.1, bad)):
        with pytest.raises(ConfigError, match="jitter"):
            evaluate_suite(ZeroPolicy(), WORLD, SPEC, suite, jitter=jitter)
    with pytest.raises(ConfigError, match="min_separation"):
        make_suite(WORLD, SPEC, EPISODE, 2, seed=15, min_separation=bad)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_csv_and_svg(tmp_path):
    suite = make_suite(WORLD, SPEC, EPISODE, 6, seed=17)
    res = evaluate_suite(ExpertPilot(), WORLD, SPEC, suite, n_trials=1, seed=3)
    out = tmp_path / "traj"
    written = export_trajectories(res, suite, WORLD, str(out))
    csvs = [p for p in written if p.endswith(".csv")]
    assert len(csvs) == 6
    first = Path(csvs[0]).read_text().splitlines()
    assert first[0] == "t,x,y,heading,v,omega"
    assert len(first) == len(res.trajectories[0]) + 1
    svg = (out / "overlay.svg").read_text()
    # one crash cross per collision task, one triangle per timeout
    n_cross = svg.count('stroke="#d62718"')
    n_collisions = res.outcomes[0].count(COLLISION)
    assert n_cross >= n_collisions
    # re-export is byte identical
    res2 = evaluate_suite(ExpertPilot(), WORLD, SPEC, suite, n_trials=1, seed=3)
    assert render_overlay_svg(res2, suite, WORLD) == svg


def test_nothing_to_evaluate_or_export_is_refused(tmp_path):
    empty = TaskSuite(WORLD.name, SPEC.radius, [], EPISODE)
    with pytest.raises(ConfigError, match="^empty task suite$"):
        evaluate_suite(ZeroPolicy(), WORLD, SPEC, empty)
    res = EvalResult(WORLD.name, empty.digest, "m", [[TIMEOUT]])
    out = tmp_path / "traj"
    with pytest.raises(ConfigError,
                       match="^result carries no trajectories to export$"):
        export_trajectories(res, empty, WORLD, str(out))
    assert not out.exists()


def test_svg_marker_counts():
    suite = make_suite(WORLD, SPEC, EPISODE, 5, seed=19)
    res = evaluate_suite(ZeroPolicy(), WORLD, SPEC, suite, n_trials=1, seed=0)
    svg = render_overlay_svg(res, suite, WORLD)
    # every task times out: one triangle marker each
    assert svg.count("Z\" fill=\"#d62718\"") == 5
    assert svg.count('fill="#3b6fd4"') == 5   # starts
    assert svg.count('fill="#e8c02c"') == 5   # goals


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def fake_result(method, world, digest, sr, cr):
    """3 trials of 50 tasks whose outcome counts give ``sr`` and ``cr``."""
    n_s, n_c = round(sr / 2), round(cr / 2)
    assert (2 * n_s, 2 * n_c) == (sr, cr), "50 tasks give even rates only"
    row = [SUCCESS] * n_s + [COLLISION] * n_c + [TIMEOUT] * (50 - n_s - n_c)
    return EvalResult(world, digest, method, [row] * 3)


def test_compare_overall_mean():
    results = {
        "iql_ca": [fake_result("iql_ca", "w1", "d1", 94.0, 4.0),
                   fake_result("iql_ca", "w2", "d2", 88.0, 2.0),
                   fake_result("iql_ca", "w3", "d3", 74.0, 26.0)],
    }
    rows, csv_text, text = compare(results)
    overall = [r for r in rows if r["world"] == "overall"][0]
    assert overall["sr"] == pytest.approx((94.0 + 88.0 + 74.0) / 3, abs=1e-12)
    assert f"{overall['sr']:.2f}" == "85.33"
    assert overall["cr"] == pytest.approx((4.0 + 2.0 + 26.0) / 3, abs=1e-12)
    assert "overall" in csv_text and "iql_ca" in text


def test_compare_single_method_table():
    results = {"bc": [fake_result("bc", "w1", "d1", 90.0, 6.0)]}
    rows, csv_text, text = compare(results)
    assert len(rows) == 2  # world + overall
    assert csv_text.splitlines()[0].startswith("method,world")
    assert len(text.splitlines()) == 2  # header + one method row


def test_compare_rejects_suite_mismatch():
    results = {
        "bc": [fake_result("bc", "w1", "d1", 90.0, 6.0)],
        "iql_ca": [fake_result("iql_ca", "w1", "OTHER", 92.0, 4.0)],
    }
    with pytest.raises(ProtocolError, match="different task suite"):
        compare(results)
    results2 = {
        "bc": [fake_result("bc", "w1", "d1", 90.0, 6.0)],
        "iql_ca": [fake_result("iql_ca", "wX", "d1", 92.0, 4.0)],
    }
    with pytest.raises(ProtocolError, match="different worlds"):
        compare(results2)
    # one world twice would count twice in the overall row
    twice = [fake_result("bc", "w1", "d1", 90.0, 6.0)] * 2
    with pytest.raises(ProtocolError, match="appears twice"):
        compare({"bc": twice})


def test_compare_refuses_a_method_without_results():
    with pytest.raises(ConfigError, match="^no results to compare$"):
        compare({})
    # averaging no worlds gave nan rows, on which a pipeline with no
    # evaluation world exited 0
    with pytest.raises(ConfigError, match="'bc' has no results"):
        compare({"bc": []})
    with pytest.raises(ConfigError, match="'iql_ca' has no results"):
        compare({"bc": [fake_result("bc", "w1", "d1", 90.0, 6.0)],
                 "iql_ca": []})


def test_compare_rates_partition():
    rows, _, _ = compare({"m": [fake_result("m", "w1", "d", 94.0, 4.0),
                                fake_result("m", "w2", "d2", 88.0, 8.0)]})
    for r in rows:
        assert r["sr"] + r["cr"] + r["tr"] == pytest.approx(100.0, abs=1e-9)
